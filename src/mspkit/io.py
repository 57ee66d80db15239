"""Text formats for instances and graphs.

Instance format (one item per line, ``#`` starts a comment line):

    msp <kappa> <ell>
    g <c1> ... <cell> : <black> <white>

Graph format (DIMACS-flavored, ``c`` starts a comment line):

    p edge <vertices> <edges>
    e <u> <v>

Every integer, in a header, a peg, a score or an edge, is ASCII decimal
digits after at most one ``-``.  Parsers report the first offense with its
1-based line number and a machine-readable kind; serializers emit canonical
text that parses back to an equal value.  Kinds used here: missing-header,
duplicate-header, bad-header, bad-line, bad-int, peg-count,
color-out-of-range, score-range, vertex-range, self-loop, duplicate-edge,
edge-count.

parse_code reads a code given on its own, as the command line takes one:
its pegs follow the grammar of a guess line's pegs.
"""

from __future__ import annotations

from collections.abc import Iterator

from .core import Code, Palette, Score
from .errors import InvalidInputError, ParseError
from .reduction import Graph
from .solver import MspInstance, ScoredGuess


def _records(text: str, comment: str, keyword: str) -> Iterator[tuple[int, list[str]]]:
    """The fields of each line that is neither blank nor a comment (its
    first non-blank character is ``comment``), with its 1-based number.

    These are the rules both formats share.  The header, the line whose
    first field is ``keyword``, comes first, so it is the first record, and
    it comes once: a second one is a duplicate-header.  A line before it is a
    missing-header, and so is a text with no header at all, reported one
    line past the last.  Each parser checks its own header fields and body
    lines.
    """
    lines = text.splitlines()
    have_header = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(comment):
            continue
        fields = line.split()
        if fields[0] == keyword:
            if have_header:
                raise ParseError("duplicate-header", lineno, f"second {keyword} header")
            have_header = True
        elif not have_header:
            raise ParseError("missing-header", lineno, f"{keyword} header must come first")
        yield lineno, fields
    if not have_header:
        raise ParseError("missing-header", len(lines) + 1, f"no {keyword} header found")


def _int(token: str) -> int:
    """A decimal integer: ASCII digits after at most one ``-``.

    ValueError for anything else that ``int`` would take (``+2``, ``1_0``,
    non-ASCII digits), and, from ``int`` itself, past the interpreter's
    limit on the digits of a converted integer.
    """
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(token)
    return int(token)


def _int_field(token: str, lineno: int, what: str) -> int:
    try:
        return _int(token)
    except ValueError:
        raise ParseError("bad-int", lineno, f"{what} is not an integer: {token!r}") from None


def _pegs(tokens: list[str], kappa: int, lineno: int) -> tuple[int, ...]:
    """The pegs of one guess line, each in 1..kappa.

    Each distinct token is converted once, in order of first occurrence, so
    equal pegs share one int object and the first bad token found is the
    first bad peg of the line.  Every token is converted before any is
    range-checked, so bad-int wins anywhere on the line.
    """
    value = {t: _int_field(t, lineno, "peg") for t in dict.fromkeys(tokens)}
    for peg in value.values():
        if not 1 <= peg <= kappa:
            raise ParseError("color-out-of-range", lineno, f"peg {peg} outside 1..{kappa}")
    return tuple(map(value.__getitem__, tokens))


def parse_code(text: str) -> Code:
    """A code given as text: pegs as on a guess line, separated by white
    space.  Like _pegs, each distinct token is converted once, so equal pegs
    share one int.  The pegs are not checked against a palette or a length,
    so an empty text gives the empty code; validate_code checks both.
    """
    tokens = text.split()
    try:
        value = {t: _int(t) for t in dict.fromkeys(tokens)}
    except ValueError:
        raise InvalidInputError(f"code must be space-separated integers, got {text!r}") from None
    return tuple(map(value.__getitem__, tokens))


def parse_instance(text: str) -> MspInstance:
    records = _records(text, "#", "msp")
    lineno, fields = next(records)
    if len(fields) != 3:
        raise ParseError("bad-header", lineno, "expected: msp <kappa> <ell>")
    kappa = _int_field(fields[1], lineno, "kappa")
    ell = _int_field(fields[2], lineno, "ell")
    if kappa < 1 or ell < 1:
        raise ParseError("bad-header", lineno, "kappa and ell must be positive")
    guesses: list[ScoredGuess] = []
    for lineno, fields in records:
        if fields[0] != "g":
            raise ParseError("bad-line", lineno, f"unexpected line start {fields[0]!r}")
        try:
            sep = fields.index(":")
        except ValueError:
            raise ParseError("bad-line", lineno, "guess line needs ': <black> <white>'") from None
        peg_tokens, score_tokens = fields[1:sep], fields[sep + 1:]
        if len(peg_tokens) != ell:
            raise ParseError("peg-count", lineno,
                             f"expected {ell} pegs, got {len(peg_tokens)}")
        if len(score_tokens) != 2:
            raise ParseError("bad-line", lineno, "expected exactly '<black> <white>' after ':'")
        pegs = _pegs(peg_tokens, kappa, lineno)
        black = _int_field(score_tokens[0], lineno, "black")
        white = _int_field(score_tokens[1], lineno, "white")
        if black < 0 or white < 0 or black + white > ell:
            raise ParseError("score-range", lineno,
                             f"score ({black}, {white}) impossible for length {ell}")
        guesses.append(ScoredGuess(pegs, Score(black, white)))
    return MspInstance(Palette(kappa), ell, tuple(guesses))


def serialize_instance(instance: MspInstance) -> str:
    lines = [f"msp {instance.kappa} {instance.length}"]
    for sg in instance.guesses:
        pegs = " ".join(str(p) for p in sg.guess)
        lines.append(f"g {pegs} : {sg.declared.black} {sg.declared.white}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    records = _records(text, "c", "p")
    lineno, fields = next(records)
    if len(fields) != 4 or fields[1] != "edge":
        raise ParseError("bad-header", lineno, "expected: p edge <vertices> <edges>")
    vertices = _int_field(fields[2], lineno, "vertex count")
    declared_edges = _int_field(fields[3], lineno, "edge count")
    if vertices < 1 or declared_edges < 0:
        raise ParseError("bad-header", lineno, "vertex count must be positive")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, fields in records:
        if fields[0] != "e":
            raise ParseError("bad-line", lineno, f"unexpected line start {fields[0]!r}")
        if len(fields) != 3:
            raise ParseError("bad-line", lineno, "expected: e <u> <v>")
        u = _int_field(fields[1], lineno, "endpoint")
        v = _int_field(fields[2], lineno, "endpoint")
        if not (1 <= u <= vertices and 1 <= v <= vertices):
            raise ParseError("vertex-range", lineno, f"edge ({u}, {v}) outside 1..{vertices}")
        if u == v:
            raise ParseError("self-loop", lineno, f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError("duplicate-edge", lineno, f"edge ({u}, {v}) repeats an earlier edge")
        seen.add(key)
        if len(edges) == declared_edges:
            raise ParseError("edge-count", lineno,
                             f"more than the declared {declared_edges} edges")
        edges.append(key)
    if len(edges) != declared_edges:
        raise ParseError("edge-count", len(text.splitlines()) + 1,
                         f"declared {declared_edges} edges but found {len(edges)}")
    return Graph(vertices, tuple(edges))


def serialize_graph(graph: Graph) -> str:
    lines = [f"p edge {graph.vertex_count} {graph.edge_count}"]
    lines.extend(f"e {a} {b}" for a, b in graph.edges)
    return "\n".join(lines) + "\n"
