"""Vertex cover encoding, witnesses, extraction, and the brute-force oracle."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mspkit.core import Score
from mspkit.errors import InvalidInputError, PreconditionError, ResourceLimitError
from mspkit.reduction import (BRUTE_FORCE_VERTEX_LIMIT, Graph,
                              brute_force_vertex_cover, construct_witness,
                              extract_cover, is_vertex_cover,
                              reduce_vertex_cover)
from mspkit.solver import solve, verify
from strategies import graphs

TRIANGLE = Graph(3, ((1, 2), (1, 3), (2, 3)))


def exact_covers(graph, size):
    for subset in itertools.combinations(range(1, graph.vertex_count + 1), size):
        if is_vertex_cover(graph, subset):
            yield set(subset)


class TestGraph:
    def test_edges_normalize_to_sorted_pairs(self):
        g = Graph(3, ((3, 1), (2, 3)))
        assert g.edges == ((1, 3), (2, 3))

    def test_edge_order_is_preserved(self):
        g = Graph(4, ((3, 4), (1, 2)))
        assert g.edges == ((3, 4), (1, 2))

    def test_edge_count(self):
        assert TRIANGLE.edge_count == 3

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInputError):
            Graph(2, ((1, 1),))

    def test_duplicate_rejected_either_orientation(self):
        with pytest.raises(InvalidInputError):
            Graph(3, ((1, 2), (2, 1)))

    def test_vertex_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Graph(2, ((1, 3),))

    def test_needs_a_vertex(self):
        with pytest.raises(InvalidInputError):
            Graph(0, ())


class TestTriangleEncoding:
    def test_dimensions(self):
        art = reduce_vertex_cover(TRIANGLE, 2)
        assert art.instance.kappa == 8
        assert art.instance.length == 12
        assert len(art.instance.guesses) == 6

    def test_declared_scores(self):
        art = reduce_vertex_cover(TRIANGLE, 2)
        assert [g.declared for g in art.instance.guesses] == [
            Score(0, 0), Score(3, 0),
            Score(0, 2), Score(0, 2), Score(0, 2), Score(3, 2)]

    def test_guess_pegs(self):
        art = reduce_vertex_cover(TRIANGLE, 2)
        g = [sg.guess for sg in art.instance.guesses]
        assert g[0] == (8,) * 12
        assert g[1] == (7, 7, 7) + (8,) * 9
        assert g[2] == (4, 1, 2) + (8,) * 9
        assert g[3] == (5, 1, 3) + (8,) * 9
        assert g[4] == (6, 2, 3) + (8,) * 9
        assert g[5] == (7, 7, 7, 1, 2, 3) + (8,) * 6

    def test_color_roles(self):
        art = reduce_vertex_cover(TRIANGLE, 2)
        assert art.colors.vertex_color == {1: 1, 2: 2, 3: 3}
        assert art.colors.edge_color == {1: 4, 2: 5, 3: 6}
        assert art.colors.yes_color == 7
        assert art.colors.no_color == 8

    def test_canonical_witness(self):
        art = reduce_vertex_cover(TRIANGLE, 2)
        w = construct_witness(art, {1, 2})
        assert w == (7, 7, 7, 7, 7, 7, 1, 2, 7, 5, 6, 7)
        assert verify(art.instance, w)
        assert extract_cover(art, w) == {1, 2}

    def test_compact_dimensions_and_witness(self):
        art = reduce_vertex_cover(TRIANGLE, 2, variant="compact")
        assert art.instance.length == 9
        w = construct_witness(art, {1, 2})
        assert w == (7, 7, 7, 7, 1, 2, 5, 6, 7)
        assert verify(art.instance, w)
        assert extract_cover(art, w) == {1, 2}

    def test_no_one_cover(self):
        art = reduce_vertex_cover(TRIANGLE, 1)
        assert solve(art.instance).satisfiable is False
        assert brute_force_vertex_cover(TRIANGLE, 1) is False


class TestSingleEdgeEncoding:
    def test_dimensions(self):
        art = reduce_vertex_cover(Graph(2, ((1, 2),)), 1)
        assert art.instance.kappa == 5
        assert art.instance.length == 8
        assert len(art.instance.guesses) == 4


class TestArguments:
    def test_cover_size_zero(self):
        with pytest.raises(InvalidInputError):
            reduce_vertex_cover(TRIANGLE, 0)

    def test_cover_size_above_vertex_count(self):
        with pytest.raises(InvalidInputError):
            reduce_vertex_cover(TRIANGLE, 4)

    def test_cover_size_not_an_int(self):
        with pytest.raises(InvalidInputError):
            reduce_vertex_cover(TRIANGLE, "2")

    def test_unknown_variant(self):
        with pytest.raises(InvalidInputError):
            reduce_vertex_cover(TRIANGLE, 2, variant="tiny")

    def test_compact_rejects_single_vertex_full_cover(self):
        with pytest.raises(PreconditionError):
            reduce_vertex_cover(Graph(1, ()), 1, variant="compact")

    def test_standard_allows_single_vertex(self):
        art = reduce_vertex_cover(Graph(1, ()), 1)
        assert solve(art.instance).satisfiable

    @pytest.mark.parametrize("cover_size", [0, 4])
    def test_brute_force_cover_size_out_of_range(self, cover_size):
        with pytest.raises(InvalidInputError):
            brute_force_vertex_cover(TRIANGLE, cover_size)

    def test_brute_force_vertex_limit(self):
        big = Graph(BRUTE_FORCE_VERTEX_LIMIT + 1, ())
        with pytest.raises(ResourceLimitError):
            brute_force_vertex_cover(big, 1)


class TestWitnessArguments:
    def test_wrong_cover_size(self):
        art = reduce_vertex_cover(TRIANGLE, 2)
        with pytest.raises(InvalidInputError):
            construct_witness(art, {1})

    def test_not_a_cover(self):
        p3 = Graph(3, ((1, 2), (2, 3)))
        art = reduce_vertex_cover(p3, 1)
        with pytest.raises(InvalidInputError):
            construct_witness(art, {1})

    def test_vertex_outside_graph(self):
        art = reduce_vertex_cover(TRIANGLE, 2)
        with pytest.raises(InvalidInputError):
            construct_witness(art, {1, 4})

    def test_extract_rejects_non_witness(self):
        art = reduce_vertex_cover(TRIANGLE, 2)
        with pytest.raises(InvalidInputError):
            extract_cover(art, (7,) * 12)


@given(graphs(6), st.data())
def test_size_formulas(graph, data):
    n = data.draw(st.integers(1, graph.vertex_count))
    nv, ne = graph.vertex_count, graph.edge_count
    art = reduce_vertex_cover(graph, n)
    assert art.instance.kappa == nv + ne + 2
    assert art.instance.length == 3 + 2 * nv + ne
    assert len(art.instance.guesses) == ne + 3
    if n != nv or n > 1:
        compact = reduce_vertex_cover(graph, n, variant="compact")
        assert compact.instance.kappa == nv + ne + 2
        assert compact.instance.length == 3 + nv + ne
        assert len(compact.instance.guesses) == ne + 3


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=5), st.data())
def test_every_exact_cover_round_trips(graph, data):
    n = data.draw(st.integers(1, graph.vertex_count))
    for variant in ("standard", "compact"):
        if variant == "compact" and n == graph.vertex_count and n == 1:
            continue
        art = reduce_vertex_cover(graph, n, variant=variant)
        for cover in exact_covers(graph, n):
            w = construct_witness(art, cover)
            assert verify(art.instance, w)
            assert extract_cover(art, w) == cover


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=5), st.data())
def test_solver_agrees_with_brute_force(graph, data):
    n = data.draw(st.integers(1, graph.vertex_count))
    expected = brute_force_vertex_cover(graph, n)
    for variant in ("standard", "compact"):
        if variant == "compact" and n == graph.vertex_count and n == 1:
            continue
        art = reduce_vertex_cover(graph, n, variant=variant)
        outcome = solve(art.instance)
        assert outcome.satisfiable == expected
        if outcome.satisfiable:
            cover = extract_cover(art, outcome.witness)
            assert len(cover) == n
            assert is_vertex_cover(graph, cover)


def test_exhaustive_tiny_round_trip():
    # every labeled graph on up to 3 vertices, every cover size, both layouts
    for nv in (1, 2, 3):
        pairs = list(itertools.combinations(range(1, nv + 1), 2))
        for mask in range(2 ** len(pairs)):
            g = Graph(nv, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))
            for n in range(1, nv + 1):
                expected = brute_force_vertex_cover(g, n)
                for variant in ("standard", "compact"):
                    if variant == "compact" and n == nv and n == 1:
                        continue
                    art = reduce_vertex_cover(g, n, variant=variant)
                    assert solve(art.instance).satisfiable == expected
