"""Scoring and the two residual distances."""

import pytest
from hypothesis import given, strategies as st

from mspkit.core import (Palette, Score, multiset, naive_score, rho1, rho2,
                         score, validate_code)
from mspkit.errors import InvalidInputError


def codes(kappa=4, max_len=6, min_len=1):
    return st.lists(st.integers(1, kappa), min_size=min_len,
                    max_size=max_len).map(tuple)


def code_pairs(kappa=4, max_len=6):
    return st.integers(1, max_len).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, kappa), min_size=n, max_size=n).map(tuple),
            st.lists(st.integers(1, kappa), min_size=n, max_size=n).map(tuple),
        ))


def code_triples(kappa=4, max_len=6):
    return st.integers(1, max_len).flatmap(
        lambda n: st.tuples(*(
            st.lists(st.integers(1, kappa), min_size=n, max_size=n).map(tuple)
            for _ in range(3))))


class TestScoreExamples:
    def test_partial_overlap(self):
        assert score((1, 2, 3, 4), (1, 3, 2, 5), Palette(6)) == Score(1, 2)

    def test_swap_is_all_white(self):
        assert naive_score((1, 2), (2, 1), Palette(2)) == Score(0, 2)

    def test_self_score_is_perfect(self):
        assert score((3, 1, 2), (3, 1, 2), Palette(3)) == Score(3, 0)

    def test_disjoint_colors(self):
        assert score((1, 1), (2, 2), Palette(2)) == Score(0, 0)

    def test_color_matches_property(self):
        assert Score(1, 2).color_matches == 3


class TestResidualExamples:
    def test_rho1(self):
        assert rho1((1, 2, 3, 4), (1, 3, 2, 5)) == 3

    def test_rho2(self):
        assert rho2(multiset((1, 2, 3, 4)), multiset((1, 3, 2, 5))) == 1

    def test_rho1_identical(self):
        assert rho1((2, 2, 2), (2, 2, 2)) == 0

    def test_rho2_permutation_is_zero(self):
        assert rho2(multiset((1, 2, 3)), multiset((3, 1, 2))) == 0


class TestValidation:
    def test_peg_outside_palette(self):
        with pytest.raises(InvalidInputError):
            score((1, 5), (1, 2), Palette(4))

    def test_zero_peg(self):
        with pytest.raises(InvalidInputError):
            validate_code((0, 1), Palette(3))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            score((1, 2, 3), (1, 2), Palette(3))

    def test_empty_code(self):
        with pytest.raises(InvalidInputError):
            validate_code((), Palette(3))

    def test_pinned_length(self):
        with pytest.raises(InvalidInputError):
            validate_code((1, 2), Palette(3), length=3)

    def test_palette_needs_color(self):
        with pytest.raises(InvalidInputError):
            Palette(0)

    def test_palette_membership(self):
        pal = Palette(3)
        assert 1 in pal and 3 in pal
        assert 0 not in pal and 4 not in pal and "2" not in pal

    def test_rho1_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            rho1((1,), (1, 2))

    def test_rho2_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            rho2(multiset((1,)), multiset((1, 2)))

    def test_rho1_empty_codes(self):
        with pytest.raises(InvalidInputError):
            rho1((), ())

    def test_rho2_empty_multisets(self):
        with pytest.raises(InvalidInputError):
            rho2(multiset(()), multiset(()))


@given(code_pairs())
def test_score_matches_naive_oracle(pair):
    x, y = pair
    assert score(x, y, Palette(4)) == naive_score(x, y, Palette(4))


@given(code_pairs())
def test_score_is_symmetric(pair):
    x, y = pair
    assert score(x, y, Palette(4)) == score(y, x, Palette(4))


@given(code_pairs())
def test_score_within_bounds(pair):
    x, y = pair
    s = score(x, y, Palette(4))
    assert 0 <= s.black
    assert 0 <= s.white
    assert s.color_matches <= len(x)


@given(code_pairs())
def test_score_decomposes_into_residuals(pair):
    x, y = pair
    s = score(x, y, Palette(4))
    ell = len(x)
    assert s.black == ell - rho1(x, y)
    assert s.color_matches == ell - rho2(multiset(x), multiset(y))


@given(code_pairs())
def test_rho2_never_exceeds_rho1(pair):
    # dropping positions can only create matches, never destroy them
    x, y = pair
    assert rho2(multiset(x), multiset(y)) <= rho1(x, y)


@given(codes())
def test_rho1_identity(x):
    assert rho1(x, x) == 0


@given(code_pairs())
def test_rho1_positive_when_distinct(pair):
    x, y = pair
    if x != y:
        assert rho1(x, y) > 0


@given(code_pairs())
def test_rho1_symmetry(pair):
    x, y = pair
    assert rho1(x, y) == rho1(y, x)


@given(code_triples())
def test_rho1_triangle(triple):
    x, y, z = triple
    assert rho1(x, z) <= rho1(x, y) + rho1(y, z)


@given(codes())
def test_rho2_identity(x):
    assert rho2(multiset(x), multiset(x)) == 0


@given(code_pairs())
def test_rho2_zero_iff_same_multiset(pair):
    x, y = pair
    assert (rho2(multiset(x), multiset(y)) == 0) == (multiset(x) == multiset(y))


@given(code_pairs())
def test_rho2_symmetry(pair):
    x, y = pair
    assert rho2(multiset(x), multiset(y)) == rho2(multiset(y), multiset(x))


@given(code_triples())
def test_rho2_triangle(triple):
    x, y, z = triple
    mx, my, mz = multiset(x), multiset(y), multiset(z)
    assert rho2(mx, mz) <= rho2(mx, my) + rho2(my, mz)
