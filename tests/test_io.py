"""Line-oriented text formats: parse errors carry kinds and line numbers."""

from pathlib import Path

import pytest
from hypothesis import given

from mspkit.core import Score
from mspkit.errors import InvalidInputError, ParseError
from mspkit.io import (parse_code, parse_graph, parse_instance, serialize_graph,
                       serialize_instance)
from mspkit.reduction import Graph, reduce_vertex_cover
from mspkit.solver import ScoredGuess
from strategies import graphs, instances

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def kind_of(callable_, text):
    with pytest.raises(ParseError) as info:
        callable_(text)
    return info.value.kind, info.value.line


class TestInstanceFormat:
    def test_basic(self):
        inst = parse_instance("msp 2 2\ng 1 2 : 0 2\n")
        assert inst.kappa == 2 and inst.length == 2
        assert inst.guesses == (ScoredGuess((1, 2), Score(0, 2)),)

    def test_comments_and_blanks_skipped(self):
        inst = parse_instance("# hello\n\nmsp 2 1\n  \n# mid\ng 2 : 1 0\n")
        assert inst.guesses == (ScoredGuess((2,), Score(1, 0)),)

    def test_serialization_is_canonical(self):
        text = "msp 3 2\ng 1 2 : 0 1\ng 3 3 : 2 0\n"
        assert serialize_instance(parse_instance(text)) == text

    def test_missing_header(self):
        assert kind_of(parse_instance, "g 1 : 0 0\n") == ("missing-header", 1)

    def test_no_header_at_all(self):
        kind, _ = kind_of(parse_instance, "# nothing here\n")
        assert kind == "missing-header"

    def test_duplicate_header(self):
        assert kind_of(parse_instance, "msp 2 1\nmsp 2 1\n") == ("duplicate-header", 2)

    def test_bad_header_arity(self):
        assert kind_of(parse_instance, "msp 2\n") == ("bad-header", 1)

    def test_nonpositive_header(self):
        assert kind_of(parse_instance, "msp 0 2\n")[0] == "bad-header"

    def test_header_not_integer(self):
        assert kind_of(parse_instance, "msp two 2\n")[0] == "bad-int"

    def test_unknown_line(self):
        assert kind_of(parse_instance, "msp 2 1\nx 1 : 0 0\n") == ("bad-line", 2)

    def test_guess_without_colon(self):
        assert kind_of(parse_instance, "msp 2 1\ng 1 0 0\n")[0] == "bad-line"

    def test_wrong_peg_count(self):
        assert kind_of(parse_instance, "msp 2 2\ng 1 : 0 0\n") == ("peg-count", 2)

    def test_score_arity(self):
        assert kind_of(parse_instance, "msp 2 1\ng 1 : 0\n")[0] == "bad-line"

    def test_peg_not_integer(self):
        assert kind_of(parse_instance, "msp 2 1\ng x : 0 0\n")[0] == "bad-int"

    def test_color_out_of_range(self):
        assert kind_of(parse_instance, "msp 2 1\ng 3 : 0 0\n") == ("color-out-of-range", 2)

    def test_score_out_of_range(self):
        assert kind_of(parse_instance, "msp 2 2\ng 1 2 : 2 1\n") == ("score-range", 2)

    def test_negative_score(self):
        assert kind_of(parse_instance, "msp 2 2\ng 1 2 : -1 0\n")[0] == "score-range"

    def test_message_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_instance("msp 2 2\ng 1 : 0 0\n")

    def test_bad_int_beats_earlier_out_of_range_peg(self):
        with pytest.raises(ParseError) as info:
            parse_instance("msp 5 3\ng 9 x 1 : 0 0\n")
        assert (info.value.kind, info.value.line) == ("bad-int", 2)
        assert info.value.message == "peg is not an integer: 'x'"

    def test_first_out_of_range_peg_is_named(self):
        with pytest.raises(ParseError) as info:
            parse_instance("msp 5 3\ng 1 7 9 : 0 0\n")
        assert (info.value.kind, info.value.line) == ("color-out-of-range", 2)
        assert info.value.message == "peg 7 outside 1..5"
        # many distinct offenders: a check in set order would name another
        with pytest.raises(ParseError, match="peg 7 outside"):
            parse_instance("msp 5 9\ng 1 7 9 8 6 12 7 10 0 : 0 0\n")
        with pytest.raises(ParseError, match="not an integer: 'x'"):
            parse_instance("msp 5 9\ng 9 x y z 1 w v x u : 0 0\n")

    @pytest.mark.parametrize("pegs, kind", [("1 x 2", "bad-int"),
                                            ("1 2 6", "color-out-of-range")])
    def test_peg_error_line_counts_comments_and_blanks(self, pegs, kind):
        text = f"# a comment\n\nmsp 5 3\n  \n# another\ng 1 2 3 : 0 0\n\ng {pegs} : 0 0\n"
        assert kind_of(parse_instance, text) == (kind, 8)

    def test_equal_pegs_share_one_int(self):
        # 10 hubs joined to 30 other vertices: 342 colours, so the filler
        # colour is not one of the small ints Python shares anyway
        hub = Graph(40, tuple((a, b) for a in range(1, 11) for b in range(11, 41)))
        instance = reduce_vertex_cover(hub, 10).instance
        assert instance.kappa > 256
        parsed = parse_instance(serialize_instance(instance))
        assert parsed == instance
        for sg in parsed.guesses:
            assert len(set(map(id, sg.guess))) == len(set(sg.guess))


class TestGraphFormat:
    def test_basic(self):
        g = parse_graph("p edge 3 2\ne 1 2\ne 3 2\n")
        assert g.vertex_count == 3
        assert g.edges == ((1, 2), (2, 3))

    def test_comments_skipped(self):
        g = parse_graph("c a triangle\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
        assert g.edge_count == 3

    def test_serialization_is_canonical(self):
        text = "p edge 4 2\ne 1 4\ne 2 3\n"
        assert serialize_graph(parse_graph(text)) == text

    def test_missing_header(self):
        assert kind_of(parse_graph, "e 1 2\n") == ("missing-header", 1)

    def test_duplicate_header(self):
        assert kind_of(parse_graph, "p edge 2 0\np edge 2 0\n")[0] == "duplicate-header"

    def test_bad_header(self):
        assert kind_of(parse_graph, "p vertex 2 1\n")[0] == "bad-header"

    def test_zero_vertices(self):
        assert kind_of(parse_graph, "p edge 0 0\n")[0] == "bad-header"

    @pytest.mark.parametrize("header, message", [
        ("p edge 0 1", "vertex count must be positive"),
        ("p edge 3 -1", "edge count must not be negative")])
    def test_header_names_the_field(self, header, message):
        with pytest.raises(ParseError) as info:
            parse_graph(f"c c\n{header}\n")
        assert (info.value.kind, info.value.line, info.value.message) == (
            "bad-header", 2, message)

    def test_unknown_line(self):
        assert kind_of(parse_graph, "p edge 2 1\nq 1 2\n")[0] == "bad-line"

    def test_edge_arity(self):
        assert kind_of(parse_graph, "p edge 2 1\ne 1\n")[0] == "bad-line"

    def test_endpoint_not_integer(self):
        assert kind_of(parse_graph, "p edge 2 1\ne 1 b\n")[0] == "bad-int"

    def test_vertex_range(self):
        assert kind_of(parse_graph, "p edge 2 1\ne 1 5\n") == ("vertex-range", 2)

    def test_self_loop(self):
        assert kind_of(parse_graph, "p edge 2 1\ne 2 2\n") == ("self-loop", 2)

    def test_duplicate_edge_either_orientation(self):
        assert kind_of(parse_graph, "p edge 2 2\ne 1 2\ne 2 1\n") == ("duplicate-edge", 3)

    def test_more_edges_than_declared(self):
        assert kind_of(parse_graph, "p edge 3 1\ne 1 2\ne 1 3\n")[0] == "edge-count"

    def test_fewer_edges_than_declared(self):
        assert kind_of(parse_graph, "p edge 3 2\ne 1 2\n")[0] == "edge-count"


class TestSharedLineRules:
    """Both formats skip blank and comment lines and take one header before
    any other line; line numbers count every line, and a text with no
    header is reported one line past its last."""

    @pytest.mark.parametrize("parse, text, expected", [
        (parse_instance, "# only\n\n# comments\n", ("missing-header", 4)),
        (parse_graph, "c only\n\nc comments\n", ("missing-header", 4)),
        (parse_graph, "", ("missing-header", 1)),
        (parse_graph, "p edge 2 0\np edge 2 0\n", ("duplicate-header", 2)),
        (parse_instance, "# a\n\ng 1 : 0 0\nmsp 2 1\n", ("missing-header", 3)),
        (parse_graph, "c a\n\ne 1 2\np edge 2 1\n", ("missing-header", 3)),
        (parse_instance, "# a\n\nmsp 2 1\n  \n# b\nmsp 2 1\n", ("duplicate-header", 6)),
        (parse_graph, "c a\n\np edge 2 0\n  \nc b\np edge 2 0\n", ("duplicate-header", 6)),
        (parse_graph, "c a\n\n  \np edge 3 1\nc b\ne 1 4\n", ("vertex-range", 6)),
        (parse_graph, "c a\np edge 3 2\ne 1 2\nc b\n\n", ("edge-count", 6)),
    ])
    def test_line_numbers(self, parse, text, expected):
        assert kind_of(parse, text) == expected


class TestIntegerGrammar:
    """Every integer field of both formats is ASCII decimal digits after at
    most one '-': tokens that int() would also take are bad-int at their
    line, and a token past the interpreter's digit limit is one too."""

    # field: (parser, text with the token in that field, the field's line);
    # a skipped blank or comment line comes first, so the line is counted
    FIELDS = {
        "kappa": (parse_instance, "# c\nmsp {} 2\ng 1 2 : 0 2\n", 2),
        "ell": (parse_instance, "\nmsp 3 {}\ng 1 2 : 0 2\n", 2),
        "peg": (parse_instance, "msp 3 2\n\ng 1 {} : 0 0\n", 3),
        "black": (parse_instance, "msp 3 2\n# c\ng 1 2 : {} 0\n", 3),
        "white": (parse_instance, "msp 3 2\n# c\ng 1 2 : 0 {}\n", 3),
        "vertex-count": (parse_graph, "c c\np edge {} 1\ne 1 2\n", 2),
        "edge-count": (parse_graph, "\np edge 2 {}\ne 1 2\n", 2),
        "endpoint": (parse_graph, "p edge 3 1\nc c\ne 1 {}\n", 3),
    }
    TOKENS = {"plus": "+1", "underscore": "1_0", "arabic-indic": "\u0663",
              "full-width": "\uff11", "5000-digits": "9" * 5000}

    @pytest.mark.parametrize("token", TOKENS.values(), ids=TOKENS.keys())
    @pytest.mark.parametrize("field", FIELDS)
    def test_lenient_token_is_bad_int(self, field, token):
        parse, template, line = self.FIELDS[field]
        assert kind_of(parse, template.format(token)) == ("bad-int", line)

    @pytest.mark.parametrize("field, kind", [
        ("kappa", "bad-header"), ("ell", "bad-header"), ("peg", "color-out-of-range"),
        ("black", "score-range"), ("white", "score-range"),
        ("vertex-count", "bad-header"), ("edge-count", "bad-header"),
        ("endpoint", "vertex-range"),
    ])
    def test_minus_one_keeps_its_kind(self, field, kind):
        parse, template, line = self.FIELDS[field]
        assert kind_of(parse, template.format("-1")) == (kind, line)

    def test_code_shares_the_grammar(self):
        assert parse_code(" 3\t-1 03 ") == (3, -1, 3)
        assert parse_code("") == ()
        for token in self.TOKENS.values():
            with pytest.raises(InvalidInputError):
                parse_code(f"1 {token}")

    def test_code_equal_pegs_share_one_int(self):
        code = parse_code("300 7 300")
        assert code[0] is code[2]


class TestBundledFixtures:
    def test_graph_fixtures_parse(self):
        expected = {
            "k3.graph": (3, 3),
            "p3.graph": (3, 2),
            "single_edge.graph": (2, 1),
            "c5.graph": (5, 5),
            "petersen.graph": (10, 15),
        }
        for name, (nv, ne) in expected.items():
            g = parse_graph((FIXTURES / name).read_text())
            assert (g.vertex_count, g.edge_count) == (nv, ne), name

    def test_pinned_instance_parses(self):
        inst = parse_instance((FIXTURES / "pinned.msp").read_text())
        assert inst.kappa == 2 and inst.length == 2
        assert inst.guesses == (ScoredGuess((1, 1), Score(2, 0)),)


@given(instances(4, 4, 4))
def test_instance_round_trip(instance):
    assert parse_instance(serialize_instance(instance)) == instance


@given(graphs(6))
def test_graph_round_trip(graph):
    assert parse_graph(serialize_graph(graph)) == graph
