"""Deciding whether an instance pins down exactly one secret.

``is_unique`` (the default) looks for a second solution directly: the
search that solve and enumerate_all run, stopped at its second solution.
Its first is the witness s, the lex-smallest solution, and the instance is
unique exactly when the search finds nothing past it.

``is_unique_by_followups`` is the paper's construction, kept as the oracle.
A satisfiable instance with witness s is unique precisely when no extension
of the instance by (s, p) is satisfiable, where p ranges over every declared
score other than the perfect (ell, 0).  Any second solution t would survive
the extension by the true score of (s, t), and conversely a surviving
solution of an extension differs from s (its score against s is imperfect),
so checking all ell*(ell+3)/2 imperfect pairs settles uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Code, Score, score
from .errors import InvalidInputError
from .solver import MspInstance, ScoredGuess, _backtrack, solve


@dataclass(frozen=True)
class UniquenessReport:
    satisfiable: bool
    unique: bool
    witness: Code | None
    followups_tried: int


def score_pairs_excluding_perfect(ell: int) -> list[Score]:
    """Every (black, white) a length-ell score can declare, minus (ell, 0).

    Lexicographic order; 0 <= black <= ell - 1 and 0 <= white <= ell - black,
    giving exactly ell * (ell + 3) / 2 pairs.  Game-impossible pairs such as
    (ell - 1, 1) are included by design; they simply never satisfy.
    """
    if not isinstance(ell, int) or ell < 1:
        raise InvalidInputError(f"length must be a positive integer, got {ell!r}")
    return [Score(black, white)
            for black in range(ell)
            for white in range(ell - black + 1)]


def is_unique(instance: MspInstance) -> UniquenessReport:
    """Find the first two solutions in lexicographic order, in one search
    that stops at the second.

    ``followups_tried`` keeps the follow-up construction's scale: 0 when
    unsatisfiable, the full pair count ell*(ell+3)/2 when unique, and
    otherwise the 1-based position, among score_pairs_excluding_perfect,
    of the score of the second solution against the witness - the
    follow-up that solution proves satisfiable.  That position is below the
    pair count, since the last pair (ell - 1, 1) is never a real score, and
    never below is_unique_by_followups' count, which stops at the first
    satisfiable follow-up.
    """
    codes = _backtrack(instance, limit=2)
    if not codes:
        return UniquenessReport(False, False, None, 0)
    ell = instance.length
    if len(codes) == 1:
        return UniquenessReport(True, True, codes[0], ell * (ell + 3) // 2)
    black, white = score(codes[0], codes[1], instance.palette)
    return UniquenessReport(True, False, codes[0], _pair_rank(ell, black, white))


def _pair_rank(ell: int, black: int, white: int) -> int:
    """The 1-based position of (black, white) in
    score_pairs_excluding_perfect(ell): each black count b below it comes
    first with its ell - b + 1 whites."""
    return black * (ell + 1) - black * (black - 1) // 2 + white + 1


def is_unique_by_followups(instance: MspInstance) -> UniquenessReport:
    """Solve, then probe every imperfect follow-up score of the witness.

    Stops at the first satisfiable follow-up (early exit), so
    ``followups_tried`` equals the full pair count exactly when the
    instance is unique.
    """
    base = solve(instance)
    if not base.satisfiable:
        return UniquenessReport(False, False, None, 0)
    witness = base.witness
    assert witness is not None
    tried = 0
    for pair in score_pairs_excluding_perfect(instance.length):
        extended = MspInstance(
            instance.palette, instance.length,
            instance.guesses + (ScoredGuess(witness, pair),))
        tried += 1
        if solve(extended).satisfiable:
            return UniquenessReport(True, False, witness, tried)
    return UniquenessReport(True, True, witness, tried)
