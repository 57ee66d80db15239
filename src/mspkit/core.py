"""Mastermind scoring and the two residual distances it induces.

A code is a tuple of pegs, each peg a color in 1..kappa.  Scoring a pair of
equal-length codes yields (black, white): black counts positions that match
exactly, and black + white counts color matches regardless of position
(per color, the smaller of the two occurrence counts).  ``score`` is the
counting implementation used everywhere else; ``naive_score`` re-derives the
same quantities with literal nested loops and exists purely as an
independent oracle for differential testing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import InvalidInputError

Code = tuple[int, ...]


@dataclass(frozen=True)
class Palette:
    """The color alphabet: integers 1..kappa."""

    kappa: int

    def __post_init__(self):
        if not isinstance(self.kappa, int) or self.kappa < 1:
            raise InvalidInputError(f"palette needs at least one color, got {self.kappa!r}")

    def __contains__(self, color: object) -> bool:
        return isinstance(color, int) and 1 <= color <= self.kappa


class Score(NamedTuple):
    """Result of scoring a guess: exact-position matches and extra color matches."""

    black: int
    white: int

    @property
    def color_matches(self) -> int:
        """Total position-independent color matches (black + white)."""
        return self.black + self.white


def validate_code(code: Code, palette: Palette, length: int | None = None) -> None:
    """Raise InvalidInputError unless ``code`` is a well-formed code.

    ``length``, when given, additionally pins the expected number of pegs.
    """
    if length is not None and len(code) != length:
        raise InvalidInputError(f"expected {length} pegs, got {len(code)}")
    if len(code) < 1:
        raise InvalidInputError("a code needs at least one peg")
    # bulk check in C; anything else (bool pegs too) takes the loop below
    if set(map(type, code)) == {int} and 1 <= min(code) and max(code) <= palette.kappa:
        return
    for peg in code:
        if peg not in palette:
            raise InvalidInputError(f"peg {peg!r} outside palette 1..{palette.kappa}")


def multiset(code: Code) -> Counter:
    """The color multiset of a code (position information dropped)."""
    return Counter(code)


def score(x: Code, y: Code, palette: Palette) -> Score:
    """Score code ``y`` against code ``x``.

    Symmetric in its arguments.  Counting implementation: O(len).
    """
    validate_code(x, palette)
    validate_code(y, palette, length=len(x))
    black = sum(a == b for a, b in zip(x, y))
    matches = sum((Counter(x) & Counter(y)).values())
    return Score(black, matches - black)


def naive_score(x: Code, y: Code, palette: Palette) -> Score:
    """Literal nested-loop transcription of the score definition.

    Deliberately shares no code with ``score``; used as a differential
    oracle in the test suite.
    """
    validate_code(x, palette)
    validate_code(y, palette, length=len(x))
    ell = len(x)
    black = 0
    for i in range(ell):
        if x[i] == y[i]:
            black += 1
    matches = 0
    for color in range(1, palette.kappa + 1):
        count_x = 0
        for i in range(ell):
            if x[i] == color:
                count_x += 1
        count_y = 0
        for i in range(ell):
            if y[i] == color:
                count_y += 1
        matches += min(count_x, count_y)
    return Score(black, matches - black)


def rho1(x: Code, y: Code) -> int:
    """Positional residual distance: pegs left unmatched by exact positions.

    A metric on codes of a fixed length.
    """
    if len(x) != len(y):
        raise InvalidInputError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 1:
        raise InvalidInputError("codes need at least one peg")
    black = sum(a == b for a, b in zip(x, y))
    return len(x) - black


def rho2(x: Mapping[int, int], y: Mapping[int, int]) -> int:
    """Multiset residual distance: pegs left unmatched by color counts.

    Arguments are color multisets (see ``multiset``).  A metric on
    multisets of a fixed total size.
    """
    cx = Counter(dict(x))
    cy = Counter(dict(y))
    total_x = sum(cx.values())
    total_y = sum(cy.values())
    if total_x != total_y:
        raise InvalidInputError(f"multiset size mismatch: {total_x} vs {total_y}")
    if total_x < 1:
        raise InvalidInputError("multisets must be non-empty")
    matches = sum((cx & cy).values())
    return total_x - matches
