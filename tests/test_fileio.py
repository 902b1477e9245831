"""Graph/state file parsing, CSV emission, and round-trips."""

import random
import re
from fractions import Fraction as F

import numpy as np
import pytest

import oracles
from netflow import (
    MalformedInputError,
    MetricGraph,
    SampledState,
    SparseVector,
    VelocityProfile,
    build_adjacency,
    emit_plotdata,
    evolve_rational,
    evolve_unit,
    parse_graph_file,
    parse_graph_text,
    parse_plotdata,
    parse_state_file,
    parse_state_text,
    sample,
    validate_graph,
    write_graph_text,
    write_state_text,
)
import netflow.graph as graph_module
from netflow import checks, fileio, semigroup
from netflow.exact import parse_rational, parse_real
from netflow.states import NetworkState

G2_TEXT = """\
graph g2
edge 1 1 2
edge 2 2 1
w 1 2 1
w 2 1 1
"""

STATE_TEXT = """\
state pulse
bp 0 1/2 1
v 0 1 1
v 1 2 -3/4
"""


class TestGraphParsing:
    def test_two_cycle(self):
        gf = parse_graph_text(G2_TEXT)
        assert gf.name == "g2"
        assert gf.graph.edge_ids == [1, 2]
        assert gf.velocities is None
        assert validate_graph(gf.graph).ok

    def test_velocities_parsed(self):
        gf = parse_graph_text(G2_TEXT + "c 1 2\nc 2 1/3\n")
        assert gf.velocities.velocity(1) == F(2)
        assert gf.velocities.velocity(2) == F(1, 3)
        assert gf.velocities.is_rational()

    def test_decimal_velocity_is_a_float(self):
        gf = parse_graph_text(G2_TEXT + "c 1 1.5\nc 2 1\n")
        assert gf.velocities.velocity(1) == 1.5
        assert not gf.velocities.is_rational()

    def test_comments_and_blanks_skipped(self):
        gf = parse_graph_text("# header\n\n" + G2_TEXT + "# trailing\n")
        assert gf.graph.edge_ids == [1, 2]

    def test_round_trip(self):
        gf = parse_graph_text(G2_TEXT + "c 1 2\nc 2 1/3\n")
        text = write_graph_text(gf.graph, gf.velocities, name=gf.name)
        back = parse_graph_text(text)
        assert back.graph.edge_ids == gf.graph.edge_ids
        for j in back.graph.edge_ids:
            assert back.graph.column(j) == gf.graph.column(j)
            assert back.velocities.velocity(j) == gf.velocities.velocity(j)

    @pytest.mark.parametrize(
        "text",
        [
            "edge 1 1 2\n",                       # missing header
            "graph g\nedge 1 1\n",                # bad arity
            "graph g\nedge 1 1 2\nedge 1 2 1\n",  # duplicate id
            G2_TEXT + "w 1 2 0.5\n",              # decimal weight
            G2_TEXT + "hop 1 2\n",                # unknown directive
            "graph g\nw 1 2 1\n",                 # weight before edges exist
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(MalformedInputError):
            parse_graph_text(text)

    @pytest.mark.parametrize("speed", ["nan", "inf", "-inf", "Infinity",
                                       pytest.param("1" + "0" * 400 + "/1", id="10^400"),
                                       pytest.param("1/1" + "0" * 400, id="10^-400")])
    def test_non_finite_velocity_refused(self, speed):
        with pytest.raises(MalformedInputError,
                           match=f"bad.graph:6: velocity must be positive and finite, got {speed}"):
            parse_graph_text(G2_TEXT + f"c 1 {speed}\nc 2 1\n", origin="bad.graph")

    def test_negative_weight_carries_location(self):
        with pytest.raises(MalformedInputError, match=r"neg\.graph:5: weight \(2, 1\) is negative"):
            parse_graph_text(G2_TEXT.replace("w 2 1 1", "w 2 1 -1"), origin="neg.graph")

    @pytest.mark.parametrize("weight, why", [
        ("w 1 3 1", r"weight \(1, 3\): unknown edge 3"),
        ("w 1 1 1", r"weight \(1, 1\) connects non-adjacent edges: head of 1 is not tail of 1"),
        ("w 2 1 -1/2", r"weight \(2, 1\) is negative"),
    ])
    def test_refused_weight_named_at_its_line(self, weight, why):
        # the graph's one weight rule refuses it; the reader names the line
        text = G2_TEXT.replace("w 2 1 1", weight) + "# trailing\n"
        with pytest.raises(MalformedInputError, match=f"^bad\\.graph:5: {why}$"):
            parse_graph_text(text, origin="bad.graph")

    def test_refusals_without_a_weight_name_the_file(self):
        with pytest.raises(MalformedInputError, match=r"^bad\.graph:7: velocity names "
                           "unknown edge 9$"):
            parse_graph_text(G2_TEXT + "c 1 1\nc 9 1\n", origin="bad.graph")
        with pytest.raises(MalformedInputError, match=r"^bad\.graph: edge ids of types int, "
                           "str cannot be sorted together$"):
            parse_graph_text("graph m\nedge 1 u v\nedge a v u\nw a 1 1\nw 1 a 1\n",
                             origin="bad.graph")

    def test_numerals_are_ascii(self):
        # float() reads '1_0' as 10.0 and '١.٥' as 1.5, and a Unicode \d
        # let Fraction read '١/2'; all are refused where they are parsed
        for text in ("١/2", "1/٢", "１/2", "1_0", "²", "١.٥", "1_0.5"):
            with pytest.raises(MalformedInputError):
                parse_real(text)
            with pytest.raises(MalformedInputError):
                parse_rational(text)
        assert parse_real(" -3/4 ") == F(-3, 4) and parse_real("1.5") == 1.5
        assert parse_real("1e3") == 1000.0 and parse_rational("+10") == F(10)
        with pytest.raises(MalformedInputError,
                           match=r"^bad\.graph:6: velocity is not a number: '1_0'$"):
            parse_graph_text(G2_TEXT + "c 1 1_0\nc 2 1\n", origin="bad.graph")
        assert parse_graph_text(G2_TEXT + "c 1 10\nc 2 1\n").velocities.values[1] == F(10)
        with pytest.raises(MalformedInputError, match=r"^s:3: piece index -1 out of range"):
            parse_state_text("state s\nbp 0 1\nv -1 1 1\n", origin="s")

    def test_error_carries_location(self):
        with pytest.raises(MalformedInputError, match="bad.graph:3"):
            parse_graph_text("graph g\nedge 1 1 2\nedge 2 2\n", origin="bad.graph")

    @pytest.mark.parametrize("eid", ["a,b", "x_re", "x_im", "im"])
    def test_ids_without_a_csv_column_refused(self, eid):
        # `edge a,b v1 v2` wrote a 4-cell header over 3-cell rows, and
        # `edge_x_re` read back as half of a complex pair
        text = f"graph g\nedge {eid} v1 v2\nedge c v2 v1\nw {eid} c 1\nw c {eid} 1\n"
        with pytest.raises(MalformedInputError,
                           match=f"^bad\\.graph:2: edge id '{eid}' cannot be written to a CSV"):
            parse_graph_text(text, origin="bad.graph")


    def test_non_ascii_digit_ids_are_strings(self):
        # '²' passes str.isdigit() but not int(): it reads as the string id
        # it is, beside other string ids, and beside int ids it is refused
        # as a mix of id styles, named with the file
        gf = parse_graph_text("graph sq\nedge \u00b2 a b\nedge x b a\n"
                              "w \u00b2 x 1\nw x \u00b2 1\n")
        assert gf.graph.edge_ids == ["x", "\u00b2"] and validate_graph(gf.graph).ok
        assert parse_graph_text(write_graph_text(gf.graph)).graph.edge_ids == ["x", "\u00b2"]
        with pytest.raises(MalformedInputError, match="sq.graph: edge ids of types int, str"):
            parse_graph_text("graph sq\nedge \u00b2 2 1\nedge 3 1 2\n", origin="sq.graph")


class TestStateParsing:
    def test_two_piece(self):
        sf = parse_state_text(STATE_TEXT)
        assert sf.name == "pulse"
        assert sf.state.breakpoints == (F(0), F(1, 2), F(1))
        assert sf.state.values[0] == SparseVector({1: F(1)})
        assert sf.state.values[1] == SparseVector({2: F(-3, 4)})

    def test_round_trip(self):
        sf = parse_state_text(STATE_TEXT)
        assert parse_state_text(write_state_text(sf.state, name="pulse")).state == sf.state

    @pytest.mark.parametrize(
        "text",
        [
            "bp 0 1\n",                             # missing header
            "state s\nbp 0 1/2\n",                  # grid must end at 1
            "state s\nbp 1/2 1\n",                  # grid must start at 0
            "state s\nbp 0 1\nv 1 1 1\n",           # piece index out of range
            "state s\nbp 0 1\nv 0 1 0.5\n",         # decimal value
            "state s\nbp 0 0.5 1\nv 0 1 1\n",       # decimal breakpoint
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(MalformedInputError):
            parse_state_text(text)

    def test_non_ascii_digit_ids_are_strings(self):
        sf = parse_state_text("state s\nbp 0 1\nv 0 \u00b2 1/2\nv 0 12 1\n")
        assert sf.state.values[0] == SparseVector({"\u00b2": F(1, 2), 12: F(1)})


class TestHeaders:
    @pytest.mark.parametrize("kind, parse", [("graph", parse_graph_text),
                                             ("state", parse_state_text)])
    def test_first_directive_messages(self, kind, parse):
        # graph and state files read `<kind> <name>` by one rule, one wording
        for text in ("", "# only a comment\n", "edge 1 1 2\n"):
            with pytest.raises(MalformedInputError,
                               match=f"^f.txt: first directive must be `{kind} <name>`$"):
                parse(text, origin="f.txt")
        for text in (f"\n{kind}\n", f"\n{kind} a b\n"):
            with pytest.raises(MalformedInputError,
                               match=f"^f.txt:2: `{kind}` takes exactly one name token$"):
                parse(text, origin="f.txt")


class TestPlotdata:
    FORMS = ["rows", "array"]

    def sampled(self, form="rows"):
        if form == "array":
            return SampledState.from_array(
                [1, 2], np.array([[0.5, 0.25, 0.0], [-1.0, -0.0, 1e-17]]))
        return SampledState(
            2,
            [
                SparseVector({1: 0.5, 2: -1.0}),
                SparseVector({1: 0.25}),
                SparseVector({2: 1e-17}),
            ],
        )

    def test_forms_agree(self):
        rows, array = self.sampled("rows"), self.sampled("array")
        assert array.samples == rows.samples and array == rows
        assert array.support() == rows.support() == {1, 2}
        assert array.sup_sample_norm() == rows.sup_sample_norm()
        for edges in (None, [1, 2], [2, 7, 1]):
            text = emit_plotdata(array, edges=edges)
            assert text == emit_plotdata(rows, edges=edges)
            assert text == oracles.plotdata_reference(array, edges)

    def test_real_layout(self):
        for form in self.FORMS:
            text = emit_plotdata(self.sampled(form), edges=[1, 2])
            lines = text.splitlines()
            assert lines[0] == "s,edge_1,edge_2"
            assert lines[1].startswith("0,0.5,-1")
            assert len(lines) == 4
            # 17 significant digits survive the round trip
            assert "9.9999999999999998e-18" in lines[3] or "1e-17" in lines[3]

    def test_round_trip(self):
        for form in self.FORMS:
            s = self.sampled(form)
            text = emit_plotdata(s, edges=[1, 2])
            back = parse_plotdata(text)
            assert back.grid_size == 2 and back.edges == (1, 2)
            assert s.distance(back) == 0 and back == s
            assert emit_plotdata(back, edges=[1, 2]) == text

    def test_complex_columns_paired(self):
        for s in (
            SampledState(1, [SparseVector({1: 1 + 2j}), SparseVector({1: complex(0, -0.5)})]),
            SampledState.from_array([1], np.array([[1 + 2j, complex(0, -0.5)]])),
        ):
            text = emit_plotdata(s, edges=[1])
            assert text == oracles.plotdata_reference(s, [1])
            lines = text.splitlines()
            assert lines[0] == "s,edge_1_re,edge_1_im"
            back = parse_plotdata(text)
            assert back.samples[0].get(1) == 1 + 2j
            assert back.samples[1].get(1) == complex(0, -0.5)

    def test_shared_rows_match_per_cell_reference(self):
        # sample() hands one vector object to every grid point of a piece
        f = NetworkState(
            [F(0), F(1, 3), F(5, 7), F(1)],
            [SparseVector({1: F(1, 3), 2: F(-2, 7)}), SparseVector({2: F(10, 9)}),
             SparseVector({1: F(7), 3: F(1, 10**6)})],
        )
        s = sample(f, 50)
        assert len({id(v) for v in s.samples}) == 3
        for edges in (None, [1, 2, 3], [3, 9, 1]):
            assert emit_plotdata(s, edges=edges) == oracles.plotdata_reference(s, edges)

    def test_equal_vectors_in_distinct_objects(self):
        rows = [SparseVector({1: F(k % 3, 7), 2: 0.1 * (k % 2)}) for k in range(9)]
        s = SampledState(8, rows)
        assert len({id(v) for v in s.samples}) == 9
        assert emit_plotdata(s) == oracles.plotdata_reference(s)
        assert emit_plotdata(s, edges=[2, 1]) == oracles.plotdata_reference(s, [2, 1])

    def test_complex_rows_match_per_cell_reference(self):
        a = SparseVector({1: 1 + 2j, 2: F(1, 3)})
        b = SparseVector({2: complex(0, -0.5)})
        s = SampledState(6, [a, a, b, a, b, b, SparseVector({3: 0.25})])
        assert emit_plotdata(s) == oracles.plotdata_reference(s)
        assert emit_plotdata(s, edges=[3, 1]) == oracles.plotdata_reference(s, [3, 1])

    def test_grid_column_is_the_rounded_fraction(self):
        M = 997
        text = emit_plotdata(SampledState(M, [SparseVector({1: F(1)})] * (M + 1)))
        cells = [line.split(",")[0] for line in text.splitlines()[1:]]
        assert cells == [f"{float(F(m, M)):.17g}" for m in range(M + 1)]

    def test_empty_edge_list_is_header_only(self):
        assert emit_plotdata(SampledState.zeros(4), edges=[]) == "s\n"

    def test_deterministic_bytes(self):
        for form in self.FORMS:
            s = self.sampled(form)
            assert emit_plotdata(s, edges=[1, 2]) == emit_plotdata(s, edges=[1, 2])

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "t,edge_1\n0,1\n1,2\n",
            "s,edge_1_re\n0,1\n1,2\n",  # orphan _re column
            "s,edge_1\n0,1\n",          # single row
            "s,edge_1\n0,1\n0.9,2\n",   # grid point off-lattice
            "s,edge_1\n0,1,5\n1,2\n",   # ragged row
        ],
    )
    def test_malformed_csv_rejected(self, text):
        with pytest.raises(MalformedInputError):
            parse_plotdata(text)

    def test_values_that_round_to_zero_keep_their_sign(self):
        tiny = F(1, 10**400)
        s = SampledState(1, [SparseVector({1: -tiny, 2: tiny, 3: F(-1, 3)})] * 2)
        text = emit_plotdata(s)
        assert text == oracles.plotdata_reference(s)
        assert text.splitlines()[1] == "0,-0,0,-0.33333333333333331"

    def test_non_ascii_digit_columns_are_string_ids(self):
        back = parse_plotdata("s,edge_\u00b2,edge_7,edge_\u00b9_re,edge_\u00b9_im\n"
                              "0,1,2,3,4\n1,1,2,3,4\n")
        assert back.edges == ("\u00b2", 7, "\u00b9")
        assert back.samples == (SparseVector({"\u00b2": 1, 7: 2, "\u00b9": 3 + 4j}),) * 2

    def test_parse_keeps_mixed_columns_and_repeats(self):
        # a real column beside a complex pair; an edge named twice keeps
        # its last column at the place of its first
        back = parse_plotdata("s,edge_2,edge_1_re,edge_1_im,edge_2\n0,1,2,3,4\n1,5,6,-0,8\n")
        assert back.edges == (2, 1) and back.array.dtype == complex
        assert back.samples == (SparseVector({2: 4, 1: 2 + 3j}), SparseVector({2: 8, 1: 6}))

    @pytest.mark.parametrize("eid", ["a,b", "x_re", "x_im", "re", "a\nb"])
    def test_ids_without_a_csv_column_refused(self, eid):
        # ids from library graphs, real and complex, rows and arrays; the
        # lazy path's tuple ids print with a comma
        g = MetricGraph.finite([(eid, 1, 2), ("c", 2, 1)], {(eid, "c"): F(1), ("c", eid): F(1)})
        f = NetworkState.constant(SparseVector({eid: F(1, 3), "c": F(2)}))
        rows = sample(evolve_unit(build_adjacency(g), f, F(1, 2)), 4)
        states = [rows, SampledState(1, [SparseVector({eid: 1j})] * 2),
                  SampledState.from_array([eid, "c"], np.ones((2, 3)))]
        for s in states:
            for edges in (None, g.edge_ids, ["c", eid]):
                with pytest.raises(MalformedInputError,
                                   match=re.escape(f"edge id {eid!r} cannot be written")):
                    emit_plotdata(s, edges=edges)
        path = MetricGraph.lazy(lambda j: [((j[0] + 1,), F(1))], lambda j: (j[0], j[0] + 1))
        pulse = NetworkState.constant(SparseVector({(0,): F(1)}))
        out = sample(evolve_unit(build_adjacency(path), pulse, F(3, 2)), 4)
        with pytest.raises(MalformedInputError, match=r"edge id \(1,\) cannot be written"):
            emit_plotdata(out)

    @pytest.mark.parametrize("eid", ["01", "1", "007", -1, -12, 1.5, 2.0, True, False])
    def test_ids_read_back_as_another_id_refused(self, eid):
        # '01' reads back as 1, '1' as 1, -1 as '-1', 1.5 as '1.5', True as
        # 'True'; rows, complex rows and arrays
        states = [SampledState(1, [SparseVector({eid: F(1, 3), "c": F(2)})] * 2),
                  SampledState(1, [SparseVector({eid: 1j})] * 2),
                  SampledState.from_array([eid, "c"], np.ones((2, 2)))]
        for s in states:
            for edges in (None, [eid], ["c", eid]):
                with pytest.raises(MalformedInputError,
                                   match=re.escape(f"edge id {eid!r} cannot be written") +
                                   ".*read back as another id"):
                    emit_plotdata(s, edges=edges)

    @pytest.mark.parametrize("eid", ["\u00b2", "\uff11", "\u0661"])
    def test_non_ascii_digit_ids_read_back_as_themselves(self, eid):
        # '²', '１' and '١' are string ids, not numbers: their columns read
        # back as the same ids; rows, complex rows and arrays
        states = [SampledState(1, [SparseVector({eid: F(1, 3), "c": F(2)})] * 2),
                  SampledState(1, [SparseVector({eid: 1j})] * 2),
                  SampledState.from_array([eid, "c"], np.ones((2, 2)))]
        for s in states:
            for edges in (None, [eid], ["c", eid]):
                text = emit_plotdata(s, edges=edges)
                back = parse_plotdata(text)
                assert eid in back.edges and all(type(e) is str for e in back.edges)
                assert emit_plotdata(back, edges=edges) == text

    def test_an_id_beside_its_digit_string_refused(self):
        # '1' and 1 would write two edge_1 columns, read back as one edge
        s = SampledState(1, [SparseVector({1: F(1), "1": F(2)})] * 2)
        for edges in (None, [1, "1"], ["1", 1]):
            with pytest.raises(MalformedInputError, match=re.escape("edge id '1' cannot")):
                emit_plotdata(s, edges=edges)
        assert emit_plotdata(s, edges=[1]) == "s,edge_1\n0,1\n1,1\n"

    def test_ids_near_the_rule_round_trip(self):
        # '²' and '１' are digits int() cannot or need not read: strings
        edges = ["x_r", "ree", "_re_x", "x_ree", "im_", "x_Re", "a b", 7, 0, "1a", "a1", "-",
                 "\u00b2", "\uff11", "\u0661"]
        for form in ("rows", "array", "complex"):
            values = [1j * k if form == "complex" else F(k, 3) for k in range(1, len(edges) + 1)]
            s = SampledState(1, [SparseVector(dict(zip(edges, values)))] * 2)
            if form == "array":
                s = SampledState.from_array(edges, np.array([[float(x)] * 2 for x in values]))
            text = emit_plotdata(s, edges=edges)
            assert text == oracles.plotdata_reference(s, edges)
            back = parse_plotdata(text)
            assert back.edges == tuple(edges) and emit_plotdata(back, edges=edges) == text

    def test_random_row_states_match_per_cell_reference(self):
        # 300 seeded row states: value objects shared between vectors and
        # fresh, ints, floats and Fractions, a complex value that first
        # appears in a later vector (and on an edge not written), empty
        # vectors, and edges absent, repeated or none
        rng = random.Random("emit-rows")
        kinds = {"plain": 0, "late-complex": 0, "unwritten-complex": 0}
        for trial in range(300):
            pool = [rng.choice([rng.randint(-9, 9), rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-20, 20),
                                F(rng.randint(-99, 99), rng.randint(1, 97))]) for _ in range(6)]
            vectors = []
            for _ in range(rng.randint(1, 5)):
                chosen = rng.sample(range(1, 7), rng.randint(0, 4))
                vectors.append(SparseVector({e: rng.choice(pool) if rng.random() < 0.6 else
                                             F(rng.randint(-9, 9), rng.randint(1, 9)) for e in chosen}))
            kind = rng.choice(list(kinds))
            kinds[kind] += 1
            edges = rng.choice([None, [], [3, 1, 8], [2, 2, 5], [1, 2, 3, 4, 5, 6],
                                rng.sample(range(1, 8), 3)])
            if kind != "plain":
                e = rng.randint(1, 6)
                if kind == "unwritten-complex":
                    e, edges = 9, edges or [1, 2, 3]
                vectors.insert(rng.randint(1, len(vectors)),
                               SparseVector({e: complex(rng.uniform(-2, 2), 0.5)}))
            # every vector in order, each at one to three grid points
            rows = [v for v in vectors for _ in range(rng.randint(1, 3))]
            s = SampledState(max(len(rows), 2) - 1, (rows * 2)[:max(len(rows), 2)])
            assert emit_plotdata(s, edges=edges) == oracles.plotdata_reference(s, edges), trial
        assert min(kinds.values()) > 50

    def test_mass_preserving_state_round_trips_exactly(self):
        f = NetworkState(
            [F(0), F(1, 3), F(1)],
            [SparseVector({1: F(2, 7)}), SparseVector({2: F(-5, 3)})],
        )
        assert parse_state_text(write_state_text(f)).state == f


def _tree():
    """A lazy binary tree of int ids: edge j, from vertex j // 2 to j,
    splits evenly into 2j and 2j + 1."""
    return MetricGraph.lazy(lambda j: [(2 * j, F(1, 2)), (2 * j + 1, F(1, 2))],
                            lambda j: (j // 2, j))


def _closed_form(g, f, t):
    """The unit closed form, semigroup._unit_flow, of f on g to time t,
    however small the flow: on a finite graph's edges, or a lazy one's
    forward cone."""
    t, speed, rows, *_ = semigroup._network(g, semigroup._UNIT, f, t)
    return semigroup._unit_flow(semigroup._steps(g, speed, rows), f, t)


class TestKernelRows:
    """Exact answers of every kernel are integer numerators over one
    denominator per vector, and emit_plotdata writes them from those
    (fileio._row_cells) without building a Fraction, byte for byte as the
    per-cell reference writes their values."""

    @pytest.fixture
    def written(self, monkeypatch):
        """The count of exact vectors each pass of _row_cells wrote, with
        any read of an exact entry as a Fraction refused while it runs."""
        counts = []
        cells = fileio._row_cells

        def refuse(*_):
            raise AssertionError("an exact entry was read as a Fraction")

        def counted(distinct, *args):
            counts.append(sum(v._den is not None for v in distinct.values()))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graph_module, "_fraction", refuse)
                return cells(distinct, *args)

        monkeypatch.setattr(fileio, "_row_cells", counted)
        return counts

    @staticmethod
    def edge_shapes(rng, ids, absent):
        ids = list(ids)
        sub = rng.sample(ids, min(len(ids), rng.randint(1, 4)))
        # all, the kernel's order, reversed, a subset with a repeat and an
        # id the kernel lacks, and as many ids as the kernel but one not its
        return [None, ids, ids[::-1], sub + sub[:1] + [absent], ids[1:] + [absent]]

    @staticmethod
    def flows(rng, trial):
        """(kind, answer, ids the answer may hold, an id it cannot) of one
        seeded exact flow through the array kernels."""
        kind = ["unit", "mixed", "lazy", "short", "zero", "reuse", "merged"][trial % 7]
        if kind == "lazy":
            pulse = NetworkState([F(0), F(rng.randint(1, 5), 6), F(1)],
                                 [SparseVector({1: F(rng.randint(1, 9), 4)}),
                                  SparseVector({1: F(-1, 3), 2: F(1, 2)})])
            t = F(rng.randint(1, 24), rng.choice([3, 4, 8]))
            out = _closed_form(_tree(), pulse, t)
            return kind, out, sorted(out.support()), 0
        if kind == "merged":
            # edges 1 and 2 both feed edge 3 only: pieces on 1 and on 2 meet
            g = MetricGraph.finite([(1, 0, 1), (2, 0, 1), (3, 1, 0)],
                                   {(3, 1): F(1), (3, 2): F(1), (1, 3): F(1, 2), (2, 3): F(1, 2)})
            f = NetworkState([F(0), F(1, 3), F(2, 3), F(1)],
                             [SparseVector({1: F(2)}), SparseVector({2: F(2)}),
                              SparseVector({1: F(1), 2: F(1)})])
            out = _closed_form(g, f, F(rng.randint(1, 3)))
            assert len(out.values) < len(f.values)
            return kind, out, g.edge_ids, 4
        wide = kind == "mixed" or rng.random() < 0.3
        g = checks.random_graph(rng, 64 if wide else 12,
                                vertices=32 if wide else 0)
        f = checks.random_state(rng, g, 8)
        t = {"short": F(rng.randint(1, 11), 12), "zero": F(0)}.get(
            kind, F(rng.randint(1, 40), rng.choice([4, 6, 9])))
        if kind == "mixed":
            # over 256 edge-pieces a stage: the rule picks _array_flow
            while len(g) * len(f.values) <= 256:
                f = checks.random_state(rng, g, 16)
            pool = (F(1, 2), F(1), F(2), F(3, 2))
            vel = VelocityProfile({j: rng.choice(pool) for j in g.edge_ids})
            out = evolve_rational(g, vel, f, F(rng.randint(1, 12), 8))
        else:
            out = _closed_form(g, f, t)
        if kind == "reuse":  # the unrouted pieces are the first answer's
            out = _closed_form(g, out, F(rng.randint(1, 5), 6))
        return kind, out, g.edge_ids, len(g) + 1

    def test_random_answers_match_per_cell_reference(self, written):
        rng = random.Random("kernel-rows")
        kinds: dict = {}
        for trial in range(330):
            kind, out, ids, absent = self.flows(rng, trial)
            s = sample(out, rng.choice([1, 2, 7, 16, 33]))
            for edges in self.edge_shapes(rng, ids, absent):
                del written[:]
                text = emit_plotdata(s, edges=edges)
                assert text == oracles.plotdata_reference(s, edges), (trial, kind, edges)
                kinds[kind] = kinds.get(kind, 0) + sum(written)
        # every kind wrote exact vectors, t = 0 the input's own
        assert min(kinds.values()) > 100, kinds

    def test_several_answers_and_input_vectors_in_one_state(self, written):
        rng = random.Random("kernel-rows-mixed")
        g = checks.random_graph(rng, 12)
        op = build_adjacency(g)
        f = checks.random_state(rng, g, 6)
        a, b = _closed_form(g, f, F(5, 2)), _closed_form(g, f, F(1, 3))
        rows = [*sample(a, 8).samples, *sample(b, 8).samples, *f.values]
        assert all(v._den is not None for v in rows) and len({v._den for v in rows}) >= 3
        s = SampledState(len(rows) - 1, rows)
        for edges in self.edge_shapes(rng, g.edge_ids, 99):
            assert emit_plotdata(s, edges=edges) == oracles.plotdata_reference(s, edges)
        assert sum(written) > 0

    def test_object_numerators(self, written):
        # g5 at one speed, values past int64: the numerators are Python ints
        g = parse_graph_file(checks.fixture_path("g5.graph")).graph
        f = parse_state_file(checks.fixture_path("g5_mixed.state")).state.scale(F(3**50, 7))
        out = evolve_unit(build_adjacency(g), f, F(200))
        assert all(max(map(abs, v._nums)) > 2**63 for v in out.values)
        s = sample(out, 64)
        for edges in (None, g.edge_ids, [5, 4, 4, 1, 9]):
            assert emit_plotdata(s, edges=edges) == oracles.plotdata_reference(s, edges)
        assert sum(written) > 0

    def test_float_and_complex_states_keep_the_per_entry_path(self, written):
        rng = random.Random("kernel-rows-float")
        g = checks.random_graph(rng, 64, vertices=32)
        f = checks.random_state(rng, g, 6)
        vel = VelocityProfile({j: rng.choice((F(1, 2), F(1), F(2))) for j in g.edge_ids})
        for h in (f.map_values(lambda v: SparseVector({j: float(x) / 3 for j, x in v.items()})),
                  f.map_values(lambda v: SparseVector({j: x * (1 - 2j) for j, x in v.items()}))):
            for out in (evolve_unit(build_adjacency(g), h, F(7, 3)),
                        evolve_rational(g, vel, h, F(5, 4))):
                assert all(v._den is None for v in out.values)
                s = sample(out, 16)
                for edges in (None, g.edge_ids):
                    assert emit_plotdata(s, edges=edges) == oracles.plotdata_reference(s, edges)
        assert sum(written) == 0

    def test_complex_value_elsewhere_restarts_every_row(self, written):
        g = parse_graph_file(checks.fixture_path("g5.graph")).graph
        out = evolve_unit(build_adjacency(g), parse_state_file(
            checks.fixture_path("g5_mixed.state")).state, F(7, 3))
        rows = [*sample(out, 4).samples, SparseVector({9: 0.5j})]
        s = SampledState(len(rows) - 1, rows)
        for edges in (None, g.edge_ids, [1, 9]):
            del written[:]
            text = emit_plotdata(s, edges=edges)
            assert "_re," in text and text == oracles.plotdata_reference(s, edges)
            # one complex pass writes every exact vector from its numerators
            assert written == [len({id(v) for v in rows}) - 1]

    def test_overflow_raises_as_the_dict_path(self):
        g = parse_graph_file(checks.fixture_path("g5.graph")).graph
        f = NetworkState.constant(SparseVector({1: F(10**400)}))
        s = sample(_closed_form(g, f, F(3, 2)), 4)
        assert all(v._den is not None for v in s.samples)
        for write in (emit_plotdata, oracles.plotdata_reference):
            with pytest.raises(OverflowError):
                write(s, g.edge_ids)

    def test_wide_unit_answers_are_written_from_kernel_rows(self, written):
        # the shape of the benchmark's unit-wide solves: 64 pieces on a
        # wide graph, routed at least once, every row exact and written
        # from its numerators in one real pass
        rng = random.Random("kernel-rows-wide")
        g = checks.random_graph(rng, 64, vertices=32)
        bps = [F(k, 64) for k in range(65)]
        f = NetworkState(bps, [SparseVector({e: F(rng.choice([-3, -1, 2, 3]), rng.randint(1, 4))
                                             for e in rng.sample(g.edge_ids, 16)})
                               for _ in range(64)])
        for t in (F(23, 9), F(7, 2)):
            s = sample(evolve_unit(build_adjacency(g), f, t), 256)
            text = emit_plotdata(s, edges=g.edge_ids)
            assert text == oracles.plotdata_reference(s, g.edge_ids)
            assert written == [len({id(v) for v in s.samples})] and written[0] > 60
            del written[:]
