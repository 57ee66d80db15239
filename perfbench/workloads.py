"""Seeded inputs, timed operations and oracles of the benchmark's workloads.

``build(pkg, cli, rng, workdir)`` of a workload returns the cases of one
pass, in the order they run.  A case carries

* ``key``: canonical text of its inputs and expected answers, hashed into
  the run's digest;
* ``label``: a short description printed with any failure;
* ``run(call, check)``: the case body.  ``call(op, fn, *args, **kwargs)``
  times one call into the package and returns its result; ``check(ok,
  what)`` records the oracle's verdict on the latest call.

Only the generators draw from ``rng``, so a seed fixes every input.  The
oracles here share no code with the package: ``own_score`` re-derives
Mastermind scores, ``is_cover`` checks vertex covers, and the expected
answers of the ``roundtrip`` workload come from ``brute_force_vertex_cover``
(exhaustive over vertex subsets, independent of the reduction).
"""

from __future__ import annotations

import contextlib
import io
import itertools
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Case:
    key: str
    label: str
    run: Callable


def own_score(x, y) -> tuple[int, int]:
    """(black, white) of two equal-length codes, from the definition."""
    black = sum(a == b for a, b in zip(x, y))
    counts = Counter(y)
    matches = sum(min(n, counts[c]) for c, n in Counter(x).items())
    return black, matches - black


def satisfies(rows, code) -> bool:
    """Does ``code`` reproduce every (pegs, black, white) row?"""
    return all(own_score(pegs, code) == (black, white)
               for pegs, black, white in rows)


def is_cover(edges, chosen) -> bool:
    return all(a in chosen or b in chosen for a, b in edges)


def rows_of(instance):
    return [(sg.guess, sg.declared.black, sg.declared.white)
            for sg in instance.guesses]


def run_cli(cli, argv):
    """Run ``cli.main`` in process as a shell would: (exit code, stdout).

    An exception escaping ``main`` propagates, and the runner counts it as
    a failure: the real process would print a traceback and exit 1.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


# --------------------------------------------------------------------------
# roundtrip: vertex-cover reductions solved, verified and decoded.
# Many small reductions; the multiset checks do most of the work and the
# uniqueness and io layers do none.

ROUNDTRIP_SIZES = (5, 6, 7)
ROUNDTRIP_GRAPHS_PER_SIZE = 60
FIXTURES = ("c5", "k3", "p3", "petersen", "single_edge")


def _random_graph(rng, nv):
    return tuple(p for p in itertools.combinations(range(1, nv + 1), 2)
                 if rng.random() < 0.5)


def _roundtrip_case(pkg, name, graph, n, layout, expected, artifact):
    edges = graph.edges

    def run(call, check):
        out = call("solve", pkg.solve, artifact.instance)
        check(out.satisfiable == expected,
              f"satisfiable={out.satisfiable}, brute force says {expected}")
        if not out.satisfiable:
            return
        ok = call("verify", pkg.verify, artifact.instance, out.witness)
        check(ok is True, f"verify rejected the solve witness {out.witness}")
        cover = call("extract", pkg.extract_cover, artifact, out.witness)
        check(len(cover) == n and is_cover(edges, cover),
              f"extracted {sorted(cover)} is not a vertex cover of size {n}")

    key = f"roundtrip {graph.vertex_count} {edges} {n} {layout} {expected}"
    return Case(key, f"{name} n={n} {layout}", run)


def build_roundtrip(pkg, cli, rng, workdir):
    named = []
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    for name in FIXTURES:
        named.append((name, pkg.parse_graph((fixtures / f"{name}.graph").read_text())))
    for i in range(ROUNDTRIP_GRAPHS_PER_SIZE):
        for nv in ROUNDTRIP_SIZES:
            graph = pkg.Graph(nv, _random_graph(rng, nv))
            named.append((f"G({nv},0.5)#{i} edges={graph.edges}", graph))
    cases = []
    for name, graph in named:
        for n in range(1, graph.vertex_count + 1):
            expected = pkg.brute_force_vertex_cover(graph, n)
            for layout in ("standard", "compact"):
                try:
                    artifact = pkg.reduce_vertex_cover(graph, n, layout)
                except pkg.PreconditionError:
                    continue
                cases.append(_roundtrip_case(pkg, name, graph, n, layout,
                                             expected, artifact))
    return cases


# --------------------------------------------------------------------------
# game: true-scored random guesses against a random secret, as in Knuth's
# "The Computer as Master Mind".  Uniqueness (its follow-up solves) does
# most of the work; enumerate_all runs the non-canonical search.

GAME_KAPPAS = (6, 7, 8)
GAME_LENGTHS = (5, 6, 7)
GAMES_PER_SHAPE = 45


def _game_case(pkg, kappa, ell, secret, instance):
    rows = rows_of(instance)

    def run(call, check):
        out = call("solve", pkg.solve, instance)
        check(out.satisfiable and satisfies(rows, out.witness)
              and out.witness <= secret,
              f"solve gave {out} for a true-scored instance with secret {secret}")
        rep = call("unique", pkg.is_unique, instance)
        check(rep.satisfiable and rep.witness == out.witness,
              f"is_unique reported {rep}, solve witness {out.witness}")
        en = call("enumerate", pkg.enumerate_all, instance, cap=2)
        check(len(en.codes) >= 1 and en.codes[0] == out.witness
              and all(satisfies(rows, c) for c in en.codes),
              f"enumerate_all gave {en.codes}, solve witness {out.witness}")
        check(rep.unique == (len(en.codes) == 1),
              f"is_unique says unique={rep.unique}, enumerate_all found {len(en.codes)}")
        check(not rep.unique or out.witness == secret,
              f"unique instance solved to {out.witness}, secret {secret}")

    key = f"game {kappa} {ell} {secret} {rows}"
    return Case(key, f"kappa={kappa} ell={ell} secret={secret} guesses={rows}", run)


def build_game(pkg, cli, rng, workdir):
    cases = []
    for _ in range(GAMES_PER_SHAPE):
        for kappa in GAME_KAPPAS:
            for ell in GAME_LENGTHS:
                palette = pkg.Palette(kappa)
                secret = tuple(rng.randint(1, kappa) for _ in range(ell))
                guesses = []
                for _ in range(rng.randint(ell - 1, ell + 1)):
                    pegs = tuple(rng.randint(1, kappa) for _ in range(ell))
                    guesses.append(pkg.ScoredGuess(pegs, pkg.score(secret, pegs, palette)))
                instance = pkg.MspInstance(palette, ell, tuple(guesses))
                cases.append(_game_case(pkg, kappa, ell, secret, instance))
    return cases


# --------------------------------------------------------------------------
# wide: big palettes and big instances, little search.  Setup, dense
# per-colour arrays, io parsing and verify do most of the work.

SPARSE_KAPPAS = (64, 256, 512)
# Past about 1000 colours the recursive multiset check raises RecursionError;
# one instance per pass at each of these keeps that defect in view without
# moving the p90 of the other solves.
DEEP_KAPPAS = (2048, 8192)
SPARSE_PER_KAPPA = 45
SPARSE_COLOURS = 8
HUB_SIZES = (25, 50, 75, 100)
HUBS_PER_SIZE = 2
HUB_SLOTS = 75


def _sparse_instance(pkg, rng, kappa):
    ell = rng.randint(4, 6)
    support = rng.sample(range(1, kappa + 1), SPARSE_COLOURS)
    secret = tuple(rng.choice(support) for _ in range(ell))
    palette = pkg.Palette(kappa)
    guesses = []
    for _ in range(rng.randint(3, 5)):
        pegs = tuple(rng.choice(support) for _ in range(ell))
        guesses.append(pkg.ScoredGuess(pegs, pkg.score(secret, pegs, palette)))
    return secret, pkg.MspInstance(palette, ell, tuple(guesses))


def _sparse_cases(pkg, cli, kappa, secret, instance, path):
    rows = rows_of(instance)
    label = f"kappa={kappa} secret={secret} guesses={rows}"

    def solve(call, check):
        out = call("solve", pkg.solve, instance)
        check(out.satisfiable and satisfies(rows, out.witness)
              and out.witness <= secret,
              f"solve gave {out} for a true-scored instance")

    def cli_solve(call, check):
        code, text = call("cli", run_cli, cli, ["solve", str(path)])
        witness = tuple(int(t) for t in text.split()) if code == 0 else None
        check(code == 0 and satisfies(rows, witness),
              f"mspkit solve exited {code} with {text.strip()!r}, expected 0 and a witness")

    key = f"sparse {kappa} {secret} {rows}"
    return (Case(key, f"solve {label}", solve),
            Case(key + " cli", f"mspkit solve {label}", cli_solve))


def _hub_graph(rng, nv, ne, hubs):
    """Random graph whose every edge touches one of the first ``hubs`` vertices."""
    edges = set()
    while len(edges) < ne:
        a = rng.randint(1, hubs)
        b = rng.randint(1, nv)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return tuple(sorted(edges))


def _hub(pkg, rng, nv, path):
    """A hub-graph reduction with the witness of its hub cover, saved to ``path``."""
    hubs = nv // 4
    graph = pkg.Graph(nv, _hub_graph(rng, nv, 5 * nv, hubs))
    artifact = pkg.reduce_vertex_cover(graph, hubs)
    witness = pkg.construct_witness(artifact, set(range(1, hubs + 1)))
    path.write_text(pkg.serialize_instance(artifact.instance))
    rows = rows_of(artifact.instance)
    return graph, artifact.instance, rows, witness, satisfies(rows, witness), path


def _hub_cases(pkg, cli, rng, hub, slot):
    """verify of the witness and of a one-peg mutation; the CLI checks one of them."""
    graph, instance, rows, witness, good, path = hub
    pos = rng.randrange(instance.length)
    colour = rng.randint(1, instance.kappa - 1)
    colour += colour >= witness[pos]
    mutated = witness[:pos] + (colour,) + witness[pos + 1:]
    bad = satisfies(rows, mutated)
    label = f"hub nv={graph.vertex_count} edges={graph.edges} peg {pos} -> {colour}"

    def verify(call, check):
        ok = call("verify", pkg.verify, instance, witness)
        check(ok == good, f"verify(witness) = {ok}, expected {good}")
        ok = call("verify", pkg.verify, instance, mutated)
        check(ok == bad, f"verify(mutated) = {ok}, expected {bad}")

    probe, valid = (witness, good) if slot % 2 == 0 else (mutated, bad)

    def cli_verify(call, check):
        want = 0 if valid else 1
        code, _ = call("cli", run_cli, cli, ["verify", str(path), " ".join(map(str, probe))])
        check(code == want, f"mspkit verify exited {code}, expected {want}")

    key = f"hub {graph.vertex_count} {graph.edges} {witness} {mutated} {good} {bad}"
    return (Case(key, f"verify {label}", verify),
            Case(key + " cli", f"mspkit verify {label}", cli_verify))


def build_wide(pkg, cli, rng, workdir):
    sparse = [(kappa,) + _sparse_instance(pkg, rng, kappa)
              for kappa in SPARSE_KAPPAS * SPARSE_PER_KAPPA]
    rng.shuffle(sparse)
    sparse = [(kappa,) + _sparse_instance(pkg, rng, kappa)
              for kappa in DEEP_KAPPAS] + sparse
    pairs = []
    for i, (kappa, secret, instance) in enumerate(sparse):
        path = workdir / f"sparse{i}.msp"
        path.write_text(pkg.serialize_instance(instance))
        pairs.append(_sparse_cases(pkg, cli, kappa, secret, instance, path))
    hubs = [_hub(pkg, rng, nv, workdir / f"hub{i}-{nv}.msp")
            for i in range(HUBS_PER_SIZE) for nv in HUB_SIZES]
    # interleave: every sparse pair is followed by a hub pair while hub slots
    # remain; slots cycle through the hubs, each with its own mutation
    cases = []
    for i in range(max(len(pairs), HUB_SLOTS)):
        if i < len(pairs):
            cases.extend(pairs[i])
        if i < HUB_SLOTS:
            cases.extend(_hub_cases(pkg, cli, rng, hubs[i % len(hubs)], i))
    return cases


WORKLOADS = {
    "roundtrip": build_roundtrip,
    "game": build_game,
    "wide": build_wide,
}
