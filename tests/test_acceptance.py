"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen; without ``-s`` pytest shows them for failing criteria only.  The
round-trip workload (criteria 1, 2, 3, 6) is computed once and shared.
"""

import itertools
import random
import time
from dataclasses import dataclass, field

import pytest

from mspkit.core import Palette, Score, multiset, naive_score, rho1, rho2, score
from mspkit.errors import PreconditionError
from mspkit.reduction import (Graph, brute_force_vertex_cover,
                              construct_witness, extract_cover,
                              is_vertex_cover, reduce_vertex_cover)
from mspkit.solver import MspInstance, ScoredGuess, solve, verify
from mspkit.uniqueness import (is_unique, is_unique_by_followups,
                               score_pairs_excluding_perfect)

SEED = 20260816


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def all_labeled_graphs(nv):
    pairs = list(itertools.combinations(range(1, nv + 1), 2))
    for mask in range(2 ** len(pairs)):
        yield Graph(nv, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


def random_graph(rng, nv, edge_prob=0.5):
    edges = tuple(p for p in itertools.combinations(range(1, nv + 1), 2)
                  if rng.random() < edge_prob)
    return Graph(nv, edges)


def smallest_exact_cover(graph, n):
    for subset in itertools.combinations(range(1, graph.vertex_count + 1), n):
        if is_vertex_cover(graph, subset):
            return set(subset)
    return None


@dataclass
class RoundTripLog:
    trips: int = 0
    disagreements: list = field(default_factory=list)
    compact_trips: int = 0
    compact_disagreements: list = field(default_factory=list)
    variant_mismatches: list = field(default_factory=list)
    size_violations: list = field(default_factory=list)
    yes_answers: int = 0
    verified_witnesses: int = 0
    elapsed: float = 0.0


def _check_sizes(log, graph, artifact):
    nv, ne = graph.vertex_count, graph.edge_count
    inst = artifact.instance
    want_ell = 3 + 2 * nv + ne if artifact.variant == "standard" else 3 + nv + ne
    if (inst.kappa != nv + ne + 2 or inst.length != want_ell
            or len(inst.guesses) != ne + 3):
        log.size_violations.append((graph, artifact.variant))


def _round_trip(log, graph, n):
    expected = brute_force_vertex_cover(graph, n)
    by_variant = {}
    for variant in ("standard", "compact"):
        try:
            artifact = reduce_vertex_cover(graph, n, variant=variant)
        except PreconditionError:
            continue
        _check_sizes(log, graph, artifact)
        outcome = solve(artifact.instance)
        by_variant[variant] = outcome.satisfiable
        ok = outcome.satisfiable == expected
        if outcome.satisfiable:
            log.yes_answers += 1
            if verify(artifact.instance, outcome.witness):
                log.verified_witnesses += 1
            cover = extract_cover(artifact, outcome.witness)
            ok = ok and len(cover) == n and is_vertex_cover(graph, cover)
        if expected:
            built = construct_witness(artifact, smallest_exact_cover(graph, n))
            log.yes_answers += 1
            if verify(artifact.instance, built):
                log.verified_witnesses += 1
        if variant == "standard":
            log.trips += 1
            if not ok:
                log.disagreements.append((graph, n))
        else:
            log.compact_trips += 1
            if not ok:
                log.compact_disagreements.append((graph, n))
    if len(by_variant) == 2 and by_variant["standard"] != by_variant["compact"]:
        log.variant_mismatches.append((graph, n))


@pytest.fixture(scope="module")
def roundtrip_log():
    log = RoundTripLog()
    start = time.perf_counter()
    for nv in range(1, 6):
        for graph in all_labeled_graphs(nv):
            for n in range(1, nv + 1):
                _round_trip(log, graph, n)
    rng = random.Random(SEED)
    for _ in range(200):
        graph = random_graph(rng, rng.randint(4, 7))
        for n in range(1, graph.vertex_count + 1):
            _round_trip(log, graph, n)
    log.elapsed = time.perf_counter() - start
    return log


def test_criterion_1_reduction_round_trip(roundtrip_log):
    log = roundtrip_log
    _report(
        "1 reduction round-trip",
        not log.disagreements,
        f"{log.trips} standard round trips, "
        f"{len(log.disagreements)} disagreements, "
        f"whole workload {log.elapsed:.1f}s")


def test_criterion_2_compact_variant_agreement(roundtrip_log):
    log = roundtrip_log
    ok = not log.compact_disagreements and not log.variant_mismatches
    _report(
        "2 compact variant agreement",
        ok,
        f"{log.compact_trips} compact round trips, "
        f"{len(log.compact_disagreements)} disagreements, "
        f"{len(log.variant_mismatches)} standard/compact splits")


def test_criterion_3_size_formulas(roundtrip_log):
    log = roundtrip_log
    _report(
        "3 reduction size formulas",
        not log.size_violations,
        f"{log.trips + log.compact_trips} instances checked, "
        f"{len(log.size_violations)} violations")


def test_criterion_4_scorer_against_naive_oracle():
    mismatches = 0
    compared = 0
    for kappa in (1, 2, 3):
        palette = Palette(kappa)
        for ell in (1, 2, 3, 4):
            space = list(itertools.product(range(1, kappa + 1), repeat=ell))
            for x in space:
                for y in space:
                    compared += 1
                    if score(x, y, palette) != naive_score(x, y, palette):
                        mismatches += 1
    rng = random.Random(SEED)
    palette = Palette(10)
    for _ in range(10_000):
        x = tuple(rng.randint(1, 10) for _ in range(10))
        y = tuple(rng.randint(1, 10) for _ in range(10))
        compared += 1
        if score(x, y, palette) != naive_score(x, y, palette):
            mismatches += 1
    _report("4 scorer matches naive oracle", mismatches == 0,
            f"{compared} pairs, {mismatches} mismatches")


def test_criterion_5_metric_laws():
    violations = 0
    checked = 0

    def laws(x, y, z):
        nonlocal violations, checked
        checked += 1
        mx, my, mz = multiset(x), multiset(y), multiset(z)
        if rho1(x, x) != 0 or rho2(mx, mx) != 0:
            violations += 1
        if x != y and rho1(x, y) == 0:
            violations += 1
        if rho1(x, y) != rho1(y, x) or rho2(mx, my) != rho2(my, mx):
            violations += 1
        if rho1(x, z) > rho1(x, y) + rho1(y, z):
            violations += 1
        if rho2(mx, mz) > rho2(mx, my) + rho2(my, mz):
            violations += 1

    for kappa in (1, 2, 3):
        for ell in (1, 2, 3):
            space = list(itertools.product(range(1, kappa + 1), repeat=ell))
            for x in space:
                for y in space:
                    for z in space:
                        laws(x, y, z)
    rng = random.Random(SEED)
    for _ in range(10_000):
        x, y, z = (tuple(rng.randint(1, 8) for _ in range(8)) for _ in range(3))
        laws(x, y, z)
    _report("5 residual metric laws", violations == 0,
            f"{checked} triples, {violations} violations")


def test_criterion_6_witness_soundness(roundtrip_log):
    log = roundtrip_log
    _report(
        "6 witness soundness",
        log.yes_answers > 0 and log.verified_witnesses == log.yes_answers,
        f"{log.verified_witnesses}/{log.yes_answers} YES answers verified")


@pytest.fixture(scope="module")
def uniqueness_cases():
    """Criterion 7's 500 seeded instances, drawn once for both of its tests.

    Each case is ``(instance, report, fits)``: the ``is_unique`` report and
    every code that a filter by the scoring function accepts, in order.
    """
    rng = random.Random(SEED)
    cases = []
    for _ in range(500):
        kappa = rng.randint(1, 3)
        ell = rng.randint(1, 3)
        guesses = []
        for _ in range(rng.randint(0, 3)):
            pegs = tuple(rng.randint(1, kappa) for _ in range(ell))
            black = rng.randint(0, ell)
            white = rng.randint(0, ell - black)
            guesses.append(ScoredGuess(pegs, Score(black, white)))
        palette = Palette(kappa)
        instance = MspInstance(palette, ell, tuple(guesses))
        fits = [code for code in itertools.product(range(1, kappa + 1), repeat=ell)
                if all(score(sg.guess, code, palette) == sg.declared
                       for sg in guesses)]
        cases.append((instance, is_unique(instance), fits))
    return cases


def test_criterion_7_uniqueness_oracle_agreement(uniqueness_cases):
    # is_unique's verdict against the number of codes the brute-force filter
    # accepts, and every follow-up count against the ell(ell+3)/2 budget
    disagreements = 0
    over_budget = 0
    for instance, report, fits in uniqueness_cases:
        if report.unique != (len(fits) == 1):
            disagreements += 1
        ell = instance.length
        if report.followups_tried > ell * (ell + 3) // 2:
            over_budget += 1
    counts_ok = all(
        len(score_pairs_excluding_perfect(ell)) == ell * (ell + 3) // 2
        for ell in range(1, 51))
    ok = disagreements == 0 and over_budget == 0 and counts_ok
    _report("7 uniqueness oracle agreement", ok,
            f"{len(uniqueness_cases)} instances, {disagreements} "
            f"disagreements; {over_budget} follow-up counts over budget, "
            f"formula {'exact' if counts_ok else 'wrong'} for ell 1..50")


def test_criterion_7_uniqueness_independent_oracles(uniqueness_cases):
    # is_unique runs on enumerate_all, so it is checked against the paper's
    # follow-up loop and against the brute-force filter, witness included
    followup_mismatches = []
    filter_mismatches = []
    for instance, report, fits in uniqueness_cases:
        oracle = is_unique_by_followups(instance)
        if (report.satisfiable, report.unique, report.witness) != (
                oracle.satisfiable, oracle.unique, oracle.witness) \
                or oracle.followups_tried > report.followups_tried:
            followup_mismatches.append((instance, report, oracle))
        if (report.satisfiable != bool(fits)
                or report.witness != (fits[0] if fits else None)
                or report.unique != (len(fits) == 1)):
            filter_mismatches.append((instance, report, fits[:2]))
    ok = not followup_mismatches and not filter_mismatches
    _report("7 uniqueness against independent oracles", ok,
            f"{len(uniqueness_cases)} instances, {len(followup_mismatches)} "
            f"disagreements with is_unique_by_followups, "
            f"{len(filter_mismatches)} with the brute-force filter")


def _hub_graph(rng, nv, ne, hubs):
    """Random graph whose every edge touches the first ``hubs`` vertices."""
    edges = set()
    while len(edges) < ne:
        a = rng.randint(1, hubs)
        b = rng.randint(1, nv)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph(nv, tuple(sorted(edges)))


def _timed_verify(instance, witness, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        ok = verify(instance, witness)
        best = min(best, time.perf_counter() - t0)
        assert ok
    return best


def test_criterion_8_verification_speed_and_growth():
    rng = random.Random(SEED)
    timings = []
    for nv in (50, 100, 200, 400):
        ne, n = 5 * nv, nv // 4
        artifact = reduce_vertex_cover(_hub_graph(rng, nv, ne, n), n)
        witness = construct_witness(artifact, set(range(1, n + 1)))
        size = len(artifact.instance.guesses) * artifact.instance.length
        timings.append((nv, size, _timed_verify(artifact.instance, witness)))
    anchor = dict((nv, t) for nv, _, t in timings)[200]
    growth_ok = True
    for (_, s1, t1), (_, s2, t2) in zip(timings, timings[1:]):
        if t2 > 2 * t1 * (s2 / s1) ** 2:
            growth_ok = False
    ok = anchor < 1.0 and growth_ok
    detail = ", ".join(f"#V={nv}: {t * 1000:.0f}ms" for nv, _, t in timings)
    _report("8 verification speed and growth", ok,
            detail + "; quadratic envelope with factor 2 held")


def test_criterion_9_near_perfect_single_white_never_satisfiable():
    exceptions = 0
    tried = 0
    for kappa in (1, 2, 3):
        for ell in (1, 2, 3, 4):
            for pegs in itertools.product(range(1, kappa + 1), repeat=ell):
                instance = MspInstance(
                    Palette(kappa), ell,
                    (ScoredGuess(pegs, Score(ell - 1, 1)),))
                tried += 1
                if solve(instance, mode="exhaustive").satisfiable:
                    exceptions += 1
    _report("9 off-by-one-white impossibility", exceptions == 0,
            f"{tried} single-guess instances, {exceptions} satisfiable")
