"""Shared Hypothesis strategies, the brute-force sweep the tests compare
with, and a hook on the search's nodes."""

import itertools
from contextlib import contextmanager

from hypothesis import strategies as st

from mspkit.core import Palette, Score, score
from mspkit.reduction import Graph
from mspkit.solver import MspInstance, ScoredGuess, _Search, verify


def instances(max_kappa, max_len, max_guesses):
    """Small random instances; declared scores range over all legal pairs."""
    def build(args):
        kappa, ell, seeds = args
        guesses = tuple(
            ScoredGuess(tuple(pegs), Score(black, extra))
            for pegs, black, extra in seeds)
        return MspInstance(Palette(kappa), ell, guesses)

    def seeded(kappa, ell):
        guess = st.tuples(
            st.lists(st.integers(1, kappa), min_size=ell, max_size=ell),
            st.integers(0, ell), st.integers(0, ell),
        ).filter(lambda t: t[1] + t[2] <= ell)
        return st.tuples(st.just(kappa), st.just(ell),
                         st.lists(guess, max_size=max_guesses))

    return st.tuples(st.integers(1, max_kappa),
                     st.integers(1, max_len)).flatmap(
        lambda kl: seeded(*kl)).map(build)


def graphs(max_vertices):
    """Graphs on 1..max_vertices vertices, each pair an edge or not."""
    def build(args):
        nv, picks = args
        pairs = list(itertools.combinations(range(1, nv + 1), 2))
        return Graph(nv, tuple(p for p, keep in zip(pairs, picks) if keep))

    return st.integers(1, max_vertices).flatmap(
        lambda nv: st.tuples(
            st.just(nv),
            st.lists(st.booleans(), min_size=nv * (nv - 1) // 2,
                     max_size=nv * (nv - 1) // 2))).map(build)


@st.composite
def games(draw, max_kappa=6, max_len=5, max_guesses=5):
    """Guesses scored against a random secret, as in a game of Mastermind.

    About a third of the scores are redrawn at random, so some instances
    are UNSAT; the true-scored rest are often unique, which makes the
    search past the witness run to exhaustion.
    """
    kappa = draw(st.integers(3, max_kappa))
    ell = draw(st.integers(3, max_len))
    palette = Palette(kappa)
    codes = st.lists(st.integers(1, kappa), min_size=ell, max_size=ell).map(tuple)
    secret = draw(codes)
    guesses = []
    for _ in range(draw(st.integers(1, max_guesses))):
        pegs = draw(codes)
        declared = score(pegs, secret, palette)
        if draw(st.integers(0, 2)) == 0:
            black = draw(st.integers(0, ell))
            declared = Score(black, draw(st.integers(0, ell - black)))
        guesses.append(ScoredGuess(pegs, declared))
    return MspInstance(palette, ell, tuple(guesses))


def first_solutions(instance, count):
    """The first ``count`` solutions (all of them for None), in lex order,
    from a sweep of every code."""
    space = itertools.product(range(1, instance.kappa + 1), repeat=instance.length)
    return tuple(itertools.islice(
        (code for code in space if verify(instance, code)), count))


@contextmanager
def nodes_watched(watch):
    """Hook every search node in the body.  watch(search, args) runs as the
    node starts and returns None or a callback, which runs at each child the
    node yields, with the child and the node's locals."""
    dfs = _Search._dfs

    def watched(self, *args):
        placed = watch(self, args)
        node = dfs(self, *args)
        for child in node:
            if placed is not None:
                placed(child, node.gi_frame.f_locals)
            yield child

    _Search._dfs = watched
    try:
        yield
    finally:
        _Search._dfs = dfs
