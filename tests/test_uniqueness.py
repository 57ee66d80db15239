"""Unique-solution detection against the enumeration oracle."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mspkit.core import Palette, Score, score
from mspkit.errors import InvalidInputError
from mspkit.reduction import Graph, reduce_vertex_cover
from mspkit.solver import MspInstance, ScoredGuess, enumerate_all, solve
from mspkit.uniqueness import (UniquenessReport, _pair_rank, is_unique,
                               is_unique_by_followups, score_pairs_excluding_perfect)
from strategies import first_solutions, games, instances, nodes_watched


@st.composite
def gapped_palettes(draw):
    """kappa 4-7, ell 1-4, guesses over a random proper subset of the palette.

    So the colors no guess holds form runs at the start, in the middle or
    at the end of the palette.  Scores are true for a secret over the whole
    palette, except that about a third are redrawn at random.
    """
    kappa = draw(st.integers(4, 7))
    ell = draw(st.integers(1, 4))
    palette = Palette(kappa)
    used = draw(st.lists(st.integers(1, kappa), min_size=1, max_size=kappa - 1,
                         unique=True))
    secret = tuple(draw(st.lists(st.integers(1, kappa), min_size=ell, max_size=ell)))
    guesses = []
    for _ in range(draw(st.integers(1, 4))):
        pegs = tuple(draw(st.lists(st.sampled_from(used), min_size=ell, max_size=ell)))
        declared = score(pegs, secret, palette)
        if draw(st.integers(0, 2)) == 0:
            black = draw(st.integers(0, ell))
            declared = Score(black, draw(st.integers(0, ell - black)))
        guesses.append(ScoredGuess(pegs, declared))
    return MspInstance(palette, ell, tuple(guesses))


def follow_up_budget(ell):
    return ell * (ell + 3) // 2


class TestFrozenExamples:
    def test_pinned_instance_is_unique(self):
        inst = MspInstance(Palette(2), 2, (ScoredGuess((1, 1), Score(2, 0)),))
        report = is_unique(inst)
        assert report.satisfiable and report.unique
        assert report.witness == (1, 1)
        assert report.followups_tried == follow_up_budget(2) == 5

    def test_path_reduction_has_many_solutions(self):
        p3 = Graph(3, ((1, 2), (2, 3)))
        report = is_unique(reduce_vertex_cover(p3, 1).instance)
        assert report.satisfiable and not report.unique
        assert report.followups_tried < follow_up_budget(11)

    def test_unsatisfiable_instance(self):
        inst = MspInstance(Palette(2), 2, (
            ScoredGuess((1, 1), Score(2, 0)),
            ScoredGuess((2, 2), Score(2, 0))))
        report = is_unique(inst)
        assert report == UniquenessReport(False, False, None, 0)


class TestFollowUpOracle:
    def test_pinned_instance_probes_every_follow_up(self):
        inst = MspInstance(Palette(2), 2, (ScoredGuess((1, 1), Score(2, 0)),))
        assert is_unique_by_followups(inst) == UniquenessReport(True, True, (1, 1), 5)

    def test_count_names_the_second_solution_follow_up(self):
        # (1, 2) follows the witness (1, 1) and scores (1, 0) against it, the
        # fourth imperfect pair; the oracle already stops at (0, 0), which
        # (2, 2) satisfies
        inst = MspInstance(Palette(2), 2, ())
        assert is_unique(inst) == UniquenessReport(True, False, (1, 1), 4)
        assert is_unique_by_followups(inst) == UniquenessReport(True, False, (1, 1), 1)


class TestScorePairs:
    def test_count_formula_up_to_fifty(self):
        for ell in range(1, 51):
            assert len(score_pairs_excluding_perfect(ell)) == follow_up_budget(ell)

    def test_rank_formula_up_to_forty(self):
        # is_unique ranks the second solution's score in closed form
        for ell in range(1, 41):
            pairs = score_pairs_excluding_perfect(ell)
            for p in pairs:
                assert _pair_rank(ell, *p) == pairs.index(p) + 1, (ell, p)

    def test_perfect_pair_excluded(self):
        assert Score(3, 0) not in score_pairs_excluding_perfect(3)

    def test_near_perfect_pair_included(self):
        # game-impossible but enumerated by design; it never satisfies
        assert Score(2, 1) in score_pairs_excluding_perfect(3)

    def test_pairs_are_legal_and_ordered(self):
        for ell in (1, 2, 5):
            pairs = score_pairs_excluding_perfect(ell)
            assert pairs == sorted(pairs)
            assert len(set(pairs)) == len(pairs)
            for black, white in pairs:
                assert 0 <= black < ell
                assert 0 <= white <= ell - black

    def test_rejects_bad_length(self):
        with pytest.raises(InvalidInputError):
            score_pairs_excluding_perfect(0)

    def test_rejects_non_integer_length(self):
        with pytest.raises(InvalidInputError):
            score_pairs_excluding_perfect("3")


@settings(max_examples=300, deadline=None)
@given(instances(3, 3, 3))
def test_agrees_with_enumeration_oracle(instance):
    report = is_unique(instance)
    solutions = first_solutions(instance, 2)
    assert report.satisfiable == (len(solutions) >= 1)
    assert report.unique == (len(solutions) == 1)
    if report.satisfiable:
        assert report.witness == solutions[0]


@settings(max_examples=300, deadline=None)
@given(instances(3, 3, 3))
def test_follow_up_count_bounds(instance):
    report = is_unique(instance)
    budget = follow_up_budget(instance.length)
    assert report.followups_tried <= budget
    if report.satisfiable:
        # early exit stops strictly short of the budget unless unique
        assert report.unique == (report.followups_tried == budget)
    else:
        assert report.followups_tried == 0


@settings(max_examples=100, deadline=None)
@given(instances(3, 3, 3))
def test_engine_choice_does_not_matter(instance):
    # the whole report, followups_tried too, against one built from a sweep
    sweep = first_solutions(instance, 2)
    pairs = score_pairs_excluding_perfect(instance.length)
    if not sweep:
        expected = UniquenessReport(False, False, None, 0)
    elif len(sweep) == 1:
        expected = UniquenessReport(True, True, sweep[0], len(pairs))
    else:
        rank = pairs.index(score(sweep[0], sweep[1], instance.palette)) + 1
        expected = UniquenessReport(True, False, sweep[0], rank)
    assert is_unique(instance) == expected


@settings(max_examples=150, deadline=None)
@given(games())
def test_one_search_agrees_with_follow_up_oracle_on_games(instance):
    report = is_unique(instance)
    oracle = is_unique_by_followups(instance)
    assert report.satisfiable == oracle.satisfiable
    assert report.unique == oracle.unique
    assert report.witness == oracle.witness
    # the oracle stops at the first satisfiable follow-up, the one search
    # names the follow-up of the lex-second solution
    assert oracle.followups_tried <= report.followups_tried
    if report.satisfiable and not report.unique:
        pair = score_pairs_excluding_perfect(instance.length)[report.followups_tried - 1]
        extended = MspInstance(instance.palette, instance.length,
                               instance.guesses + (ScoredGuess(report.witness, pair),))
        assert solve(extended).satisfiable


def search_nodes(call, instance):
    """The result of call(instance), and the search nodes it entered."""
    nodes = Counter()
    with nodes_watched(lambda search, args: nodes.update(["entered"])):
        result = call(instance)
    return result, nodes["entered"]


@settings(max_examples=150, deadline=None)
@given(games())
def test_search_stops_at_the_second_solution(instance):
    # the report reads two solutions; enumerate_all(cap=1) searches for
    # exactly two (the second tells it whether to truncate), no further
    report, nodes = search_nodes(is_unique, instance)
    _, two_nodes = search_nodes(lambda x: enumerate_all(x, cap=1), instance)
    assert nodes == two_nodes
    codes = enumerate_all(instance, cap=2).codes
    assert report.satisfiable == bool(codes)
    assert report.unique == (len(codes) == 1)
    assert report.witness == (codes[0] if codes else None)


@settings(max_examples=100, deadline=None)
@given(games(), st.integers(1, 6))
def test_enumeration_matches_sweep_on_games(instance, cap):
    # kappa <= 6 and ell <= 5: at most 6**5 candidates to sweep
    expected = first_solutions(instance, cap + 1)
    result = enumerate_all(instance, cap=cap)
    assert result.codes == expected[:cap]
    assert result.truncated == (len(expected) > cap)


@settings(max_examples=200, deadline=None)
@given(gapped_palettes(), st.integers(1, 30))
def test_gapped_palettes_match_sweep(instance, cap):
    # kappa <= 7 and ell <= 4: at most 7**4 candidates to sweep
    expected = first_solutions(instance, cap + 1)
    assert solve(instance).witness == (expected[0] if expected else None)
    result = enumerate_all(instance, cap=cap)
    assert result.codes == expected[:cap]
    assert result.truncated == (len(expected) > cap)
    report = is_unique(instance)
    assert report.satisfiable == bool(expected)
    assert report.unique == (len(expected) == 1)
    assert report.witness == (expected[0] if expected else None)
