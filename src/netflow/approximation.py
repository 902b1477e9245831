"""Rational approximation of velocities and convergence measurement.

Irrational speeds have no exact evolution, but any rational profile does
(see semigroup.evolve_rational).  This module builds ladders of rational
profiles converging to a target profile and measures how fast the exactly
computed flows and resolvents approach the limit objects: resolvents in the
strong sampled norm against the closed-form general-velocity resolvent,
flows in weak pairings against the characteristic-tracing reference.

Continued-fraction convergents are the default ladder: they are the best
rational approximations per denominator size.  The exact evolution along
characteristics pays for breakpoints, not for the lcm of the speeds, but
large denominators still lengthen the exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PrecisionError, WidthOverflowError
from .graph import MetricGraph, VelocityProfile
from .parallel import map_ordered
from .resolvent import resolvent_general
from .semigroup import evolve_rational
from .states import NetworkState, SampledState, pair, sample
from .tracing import trace_samples

__all__ = [
    "rational_approx",
    "ApproximationSchedule",
    "ConvergenceRow",
    "ConvergenceTable",
    "semigroup_convergence",
    "resolvent_convergence",
]

MAX_DENOMINATOR = 2**63
BAND_ADVANCE_LIMIT = 128


def _normalize_method(method: str) -> str:
    key = str(method).lower()
    if key in ("cf", "dec"):
        return key
    raise ValueError(f"unknown approximation method {method!r}; use cf or dec")


def _cf_convergent(x: Fraction, n: int) -> Fraction:
    """n-th continued-fraction convergent of x (n = 1 gives the floor).

    A finite expansion clamps: past its depth the convergent is x itself.
    """
    num, den = x.numerator, x.denominator
    h2, h1 = 0, 1
    k2, k1 = 1, 0
    conv = None
    for _ in range(n):
        if den == 0:
            break
        a = num // den
        h2, h1 = h1, a * h1 + h2
        k2, k1 = k1, a * k1 + k2
        num, den = den, num - a * den
        if k1 > MAX_DENOMINATOR:
            raise WidthOverflowError(
                f"convergent denominator {k1} exceeds 64-bit width"
            )
        conv = Fraction(h1, k1)
    return conv


def _approx_one(c, n: int, method: str) -> Fraction:
    x = Fraction(c)
    if method == "cf":
        return _cf_convergent(x, n)
    scale = 10**n
    if scale > MAX_DENOMINATOR:
        raise WidthOverflowError(f"decimal denominator 10^{n} exceeds 64-bit width")
    return Fraction(math.floor(x * scale), scale)


def rational_approx(vel: VelocityProfile, n: int, method: str = "cf") -> VelocityProfile:
    """Level-n rational stand-in for each speed in the profile, banded:
    a speed whose level-n approximation leaves (c_min/2, 2 c_max) takes
    the first later level that stays inside (see _banded)."""
    n = int(n)
    if n < 1:
        raise ValueError(f"approximation level must be >= 1, got {n}")
    method = _normalize_method(method)
    lo, hi = vel.c_min / 2, 2 * vel.c_max
    values = {j: _banded(c, n, method, lo, hi) for j, c in vel.items()}
    default = None
    if vel.default is not None:
        default = _banded(vel.default, n, method, lo, hi)
    return VelocityProfile(values, default=default)


def _banded(c, n: int, method: str, lo, hi) -> Fraction:
    """Level-n approximation, advanced past any early terms that leave the
    half-to-double band around the true profile.  Only a zero leaves it:
    a continued-fraction convergent or a nonzero decimal floor of c lies
    in (c/2, 2c), so a floor of 0 (c < 1, or c < 10^-n for dec) is the
    one offender."""
    for k in range(n, n + BAND_ADVANCE_LIMIT):
        cand = _approx_one(c, k, method)
        if cand > 0 and lo < cand < hi:
            return cand
    raise WidthOverflowError(
        f"no in-band approximation of {c!r} within {BAND_ADVANCE_LIMIT} "
        f"levels past {n}"
    )


@dataclass(frozen=True)
class ConvergenceRow:
    """One ladder level: its profile distance and the measured errors.

    strong_error is the sup-sample l1 distance to the reference;
    weak_errors holds one pairing error per test function (flows only).
    """

    level: int
    velocity_error: object
    strong_error: object
    weak_errors: tuple = ()


@dataclass
class ConvergenceTable:
    kind: str
    rows: tuple
    labels: tuple = ()
    metadata: dict = field(default_factory=dict)

    def fit(self) -> tuple:
        """Least-squares slope L in strong_error ~ L * velocity_error,
        through the origin, plus the RMS residual of that fit.  Purely
        descriptive; nothing is gated on it."""
        pts = [
            (float(r.velocity_error), float(r.strong_error))
            for r in self.rows
            if float(r.velocity_error) > 0
        ]
        denom = sum(v * v for v, _ in pts)
        if denom == 0:
            return 0.0, 0.0
        slope = sum(v * e for v, e in pts) / denom
        residual = math.sqrt(
            sum((e - slope * v) ** 2 for v, e in pts) / len(pts)
        )
        return slope, residual


@dataclass
class ApproximationSchedule:
    """A ladder of rational profiles aimed at a target profile.

    Levels are strictly increasing; every per-edge value sits inside the
    open band (c_min/2, 2*c_max) of the target, levels that would violate
    it are advanced to the next admissible approximation.
    """

    levels: tuple
    method: str
    profiles: tuple
    target: VelocityProfile

    @classmethod
    def build(cls, vel: VelocityProfile, levels, method: str = "cf") -> "ApproximationSchedule":
        levels = tuple(int(n) for n in levels)
        if not levels:
            raise ValueError("schedule needs at least one level")
        if levels[0] < 1 or any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"levels must be strictly increasing naturals, got {levels}")
        method = _normalize_method(method)
        profiles = [rational_approx(vel, n, method) for n in levels]
        return cls(levels, method, tuple(profiles), vel)

    def velocity_error(self, idx: int):
        """max_j |c_j - c^(n)_j| for level index idx, exact when both sides
        are exact."""
        prof = self.profiles[idx]
        errs = [abs(c - prof.velocity(j)) for j, c in self.target.items()]
        if self.target.default is not None:
            errs.append(abs(self.target.default - prof.default))
        return max(errs, default=0)

    def __len__(self) -> int:
        return len(self.levels)


def _discrete_predual(gs: SampledState):
    """Trapezoid of max_j |g_j(s_m)|: the predual size of g on the grid the
    pairings use, which is what makes the row-wise Hoelder check exact."""
    M = gs.grid_size
    acc = 0
    for m, v in enumerate(gs.samples):
        mx = max((abs(x) for _, x in v.items()), default=0)
        acc += (Fraction(1, 2) if m in (0, M) else 1) * mx
    return acc / M


def semigroup_convergence(g: MetricGraph, vel: VelocityProfile, f: NetworkState,
                          t, gs, schedule: ApproximationSchedule, *,
                          grid: int = 512) -> ConvergenceTable:
    """Weak pairing errors of the exactly evolved ladder flows.

    The reference is the all-rational exact evolution when the target
    profile is rational, otherwise the characteristic-tracing samples
    (the exact trace at the rationals the float speeds hold, each sample
    rounded once, correctly).  Differences are taken
    sample-wise first, then paired, so each weak error obeys the discrete
    Hoelder bound |<diff, g>| <= strong * predual(g); the bound is checked
    per row and a violation raises, since it can only come from a bug.
    """
    gs = list(gs)
    if vel.is_rational():
        ref = sample(evolve_rational(g, vel, f, t), grid)
    else:
        ref = trace_samples(g, vel, f, t, grid)
    g_sampled = [sample(tf, grid) for tf in gs]
    preduals = [_discrete_predual(item) for item in g_sampled]

    def level_errors(prof):
        evolved = sample(evolve_rational(g, prof, f, t), grid)
        diff = evolved - ref
        strong = diff.sup_sample_norm()
        weak = tuple(abs(pair(diff, item)) for item in g_sampled)
        return strong, weak

    results = map_ordered(level_errors, schedule.profiles)
    rows = []
    for idx, (strong, weak) in enumerate(results):
        for k, w in enumerate(weak):
            bound = float(strong) * float(preduals[k])
            if float(w) > bound * (1 + 1e-9) + 1e-300:
                raise PrecisionError(
                    f"weak error {float(w):.3e} exceeds Hoelder bound "
                    f"{bound:.3e} at level {schedule.levels[idx]}"
                )
        rows.append(ConvergenceRow(
            schedule.levels[idx], schedule.velocity_error(idx), strong, weak,
        ))
    return ConvergenceTable(
        "semigroup",
        tuple(rows),
        tuple(f"g{k}" for k in range(len(gs))),
        {
            "t": str(t),
            "grid": grid,
            "method": schedule.method,
            "reference": "exact-rational" if vel.is_rational() else "tracing",
            "predual_norms": [float(p) for p in preduals],
        },
    )


def resolvent_convergence(g: MetricGraph, vel: VelocityProfile, lam,
                          f: NetworkState, schedule: ApproximationSchedule,
                          M: int = 256) -> ConvergenceTable:
    """Strong sampled errors of the ladder resolvents against the
    closed-form resolvent at the true (possibly irrational) speeds.

    The ladder must not lose ground: the last level's error above the
    first level's is a numeric failure and raises.
    """
    ref = resolvent_general(g, vel, f, lam, grid=M)

    def one(prof):
        return resolvent_general(g, prof, f, lam, grid=M)

    results = map_ordered(one, schedule.profiles)
    rows = tuple(
        ConvergenceRow(
            schedule.levels[idx],
            schedule.velocity_error(idx),
            res.state.distance(ref.state),
        )
        for idx, res in enumerate(results)
    )
    if rows and float(rows[-1].strong_error) > float(rows[0].strong_error):
        raise PrecisionError(
            f"resolvent ladder lost ground: level {rows[-1].level} error "
            f"{float(rows[-1].strong_error):.3e} above level {rows[0].level} "
            f"error {float(rows[0].strong_error):.3e}"
        )
    table = ConvergenceTable(
        "resolvent",
        rows,
        ("resolvent",),
        {
            "lambda": str(lam),
            "grid": M,
            "method": schedule.method,
            "reference_tail_bound": ref.tail_bound,
        },
    )
    slope, residual = table.fit()
    table.metadata["fit_slope"] = slope
    table.metadata["fit_residual"] = residual
    return table
