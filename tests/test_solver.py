"""Decision procedures: backtracking engine, exhaustive engine, enumeration."""

import gc
import itertools
import random
import signal
import weakref
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

import mspkit.solver
from mspkit.core import Palette, Score, naive_score, score, validate_code
from mspkit.errors import InvalidInputError, ResourceLimitError
from mspkit.reduction import (Graph, brute_force_vertex_cover, is_vertex_cover,
                              reduce_vertex_cover)
from mspkit.solver import (DEFAULT_EXHAUSTIVE_CAP, Enumeration, MspInstance,
                           ScoredGuess, SolveOutcome, _columns,
                           _multiset_feasible, _Search, _sweep, _system_feasible,
                           enumerate_all, solve, verify)
from mspkit.uniqueness import is_unique
from strategies import first_solutions, games, instances, nodes_watched


@st.composite
def sparse_palettes(draw):
    """1000-5000 colors, guesses over at most 4 of them, ell <= 4.

    Scores are true for a random secret, except that some are redrawn at
    random, which makes many instances UNSAT.
    """
    kappa = draw(st.integers(1000, 5000))
    ell = draw(st.integers(1, 4))
    palette = Palette(kappa)
    used = draw(st.lists(st.integers(1, kappa), min_size=1, max_size=4,
                         unique=True))
    secret = draw(st.lists(st.one_of(st.sampled_from(used),
                                     st.integers(1, kappa)),
                           min_size=ell, max_size=ell))
    guesses = []
    for _ in range(draw(st.integers(1, 3))):
        pegs = tuple(draw(st.lists(st.sampled_from(used),
                                   min_size=ell, max_size=ell)))
        declared = score(tuple(secret), pegs, palette)
        if draw(st.booleans()):
            black = draw(st.integers(0, ell))
            declared = Score(black, draw(st.integers(0, ell - black)))
        guesses.append(ScoredGuess(pegs, declared))
    return MspInstance(palette, ell, tuple(guesses))


def compressed_solutions(instance, count):
    """The first ``count`` <= 2 solutions, from a sweep over the used colors
    plus the two smallest unused ones.

    A color no guess holds scores nothing, so swapping every unused color of
    a solution for the smallest unused one gives a solution no larger: the
    lex-smallest solution holds no unused color but the smallest.  A second
    solution holding any other unused color v could swap v for the
    second-smallest unused one: that code is a solution, holds a color the
    first does not, and lies strictly between the two.  So the first two
    solutions live in this sub-palette, and the monotone color map back
    keeps lex order.
    """
    used = {c for sg in instance.guesses for c in sg.guess}
    unused = [c for c in range(1, min(len(used) + 2, instance.kappa) + 1)
              if c not in used][:2]
    colors = sorted(used | set(unused))
    down = {c: i for i, c in enumerate(colors, 1)}
    small = MspInstance(Palette(len(colors)), instance.length, tuple(
        ScoredGuess(tuple(down[c] for c in sg.guess), sg.declared)
        for sg in instance.guesses))
    return tuple(tuple(colors[c - 1] for c in code)
                 for code in first_solutions(small, count))


class TestFrozenExamples:
    def test_contradictory_all_black_pair(self):
        inst = MspInstance(Palette(2), 2, (
            ScoredGuess((1, 1), Score(2, 0)),
            ScoredGuess((2, 2), Score(2, 0))))
        assert solve(inst, mode="backtrack").satisfiable is False
        assert solve(inst, mode="exhaustive").satisfiable is False

    def test_swap_conflicts_with_pin(self):
        inst = MspInstance(Palette(2), 2, (
            ScoredGuess((1, 2), Score(0, 2)),
            ScoredGuess((1, 1), Score(2, 0))))
        assert solve(inst).satisfiable is False

    def test_swap_enumerates_single_solution(self):
        inst = MspInstance(Palette(2), 2, (ScoredGuess((1, 2), Score(0, 2)),))
        assert enumerate_all(inst, cap=10) == Enumeration(((2, 1),), False)

    def test_unconstrained_instance_enumerates_everything(self):
        inst = MspInstance(Palette(2), 2, ())
        assert enumerate_all(inst, cap=10).codes == (
            (1, 1), (1, 2), (2, 1), (2, 2))

    def test_verify_accepts_the_swap(self):
        inst = MspInstance(Palette(2), 2, (ScoredGuess((1, 2), Score(0, 2)),))
        assert verify(inst, (2, 1))
        assert not verify(inst, (1, 2))

    def test_witness_is_lexicographically_smallest(self):
        inst = MspInstance(Palette(3), 2, (ScoredGuess((1, 2), Score(0, 0)),))
        assert solve(inst).witness == (3, 3)


class TestInstanceValidation:
    def test_guess_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            MspInstance(Palette(2), 3, (ScoredGuess((1, 2), Score(0, 0)),))

    def test_guess_color_outside_palette(self):
        with pytest.raises(InvalidInputError):
            MspInstance(Palette(2), 2, (ScoredGuess((1, 3), Score(0, 0)),))

    def test_score_exceeding_length(self):
        with pytest.raises(InvalidInputError):
            MspInstance(Palette(2), 2, (ScoredGuess((1, 2), Score(2, 1)),))

    def test_negative_score(self):
        with pytest.raises(InvalidInputError):
            MspInstance(Palette(2), 2, (ScoredGuess((1, 2), Score(-1, 0)),))

    @pytest.mark.parametrize("length", [0, "3"])
    def test_length_not_a_positive_int(self, length):
        with pytest.raises(InvalidInputError):
            MspInstance(Palette(2), length, ())

    def test_unknown_mode(self):
        inst = MspInstance(Palette(2), 1, ())
        with pytest.raises(InvalidInputError):
            solve(inst, mode="mystery")

    def test_verify_checks_candidate_shape(self):
        inst = MspInstance(Palette(2), 2, ())
        with pytest.raises(InvalidInputError):
            verify(inst, (1, 2, 1))


class TestPegValidation:
    """Every entry point that validates a code names its first bad peg."""

    KAPPA = 3

    def entry_points(self, code):
        pal, ok = Palette(self.KAPPA), (1,) * len(code)
        return (
            lambda: validate_code(code, pal),
            lambda: MspInstance(pal, len(code), (ScoredGuess(code, Score(0, 0)),)),
            lambda: verify(MspInstance(pal, len(code), ()), code),
            lambda: score(code, ok, pal),
            lambda: score(ok, code, pal),
        )

    @pytest.mark.parametrize("bad", [0, KAPPA + 1, 1.0, "1", None, [1], False])
    def test_first_bad_peg_is_named(self, bad):
        later = 0 if bad != 0 else self.KAPPA + 1
        for code in ((1, bad, 2), (1, bad, 2, later)):
            for call in self.entry_points(code):
                with pytest.raises(InvalidInputError) as info:
                    call()
                assert str(info.value) == f"peg {bad!r} outside palette 1..{self.KAPPA}"

    def test_true_peg_counts_as_colour_one(self):
        pal, code = Palette(self.KAPPA), (True, 2, 3)
        validate_code(code, pal)
        inst = MspInstance(pal, 3, (ScoredGuess(code, Score(0, 3)),))
        assert verify(inst, (2, 3, 1)) and verify(inst, (2, 3, True))
        assert score(code, (1, 2, 3), pal) == Score(3, 0)


class TestCaps:
    def test_exhaustive_cap_enforced(self):
        inst = MspInstance(Palette(3), 4, ())
        with pytest.raises(ResourceLimitError):
            solve(inst, mode="exhaustive", cap=10)

    def test_default_cap_is_generous(self):
        assert DEFAULT_EXHAUSTIVE_CAP >= 10 ** 6

    @pytest.mark.parametrize("cap", [0, -1, 2.0])
    def test_exhaustive_cap_must_be_a_positive_integer(self, cap):
        # a usage error, as for enumeration, not a cap that was exceeded
        inst = MspInstance(Palette(2), 1, ())
        with pytest.raises(InvalidInputError):
            solve(inst, mode="exhaustive", cap=cap)

    def test_enumeration_cap_must_be_positive(self):
        inst = MspInstance(Palette(2), 1, ())
        with pytest.raises(InvalidInputError):
            enumerate_all(inst, cap=0)

    @pytest.mark.parametrize("cap", [2.0, 2.5, "3"])
    def test_enumeration_cap_must_be_an_integer(self, cap):
        # rejected before the search: a float would never equal the count
        inst = MspInstance(Palette(2), 1, ())
        with pytest.raises(InvalidInputError):
            enumerate_all(inst, cap=cap)

    def test_enumeration_truncates_and_says_so(self):
        inst = MspInstance(Palette(2), 2, ())
        result = enumerate_all(inst, cap=3)
        assert result.codes == ((1, 1), (1, 2), (2, 1))
        assert result.truncated


@settings(max_examples=300, deadline=None)
@given(instances(3, 4, 3))
def test_engines_agree(instance):
    assert solve(instance, mode="backtrack") == solve(instance, mode="exhaustive")


@settings(max_examples=300, deadline=None)
@given(instances(3, 4, 3))
def test_enumeration_matches_brute_filter(instance):
    expected = first_solutions(instance, None)
    result = enumerate_all(instance, cap=len(expected) + 1)
    assert result.codes == expected
    assert not result.truncated


@settings(max_examples=300, deadline=None)
@given(instances(3, 4, 3))
def test_witnesses_verify(instance):
    outcome = solve(instance)
    if outcome.satisfiable:
        assert verify(instance, outcome.witness)
    else:
        assert outcome.witness is None


@settings(max_examples=200, deadline=None)
@given(instances(3, 4, 3))
def test_witness_is_first_enumerated(instance):
    first = first_solutions(instance, 1)
    assert solve(instance).witness == (first[0] if first else None)
    assert enumerate_all(instance, cap=1).codes == first


@settings(max_examples=200, deadline=None)
@given(instances(3, 4, 3))
def test_adding_a_true_score_keeps_witness(instance):
    # scoring any code against the witness and appending that guess must not
    # change satisfiability: the witness itself still fits
    from mspkit.core import score as score_codes
    outcome = solve(instance)
    if not outcome.satisfiable:
        return
    witness = outcome.witness
    probe = (1,) * instance.length
    extended = MspInstance(
        instance.palette, instance.length,
        instance.guesses + (ScoredGuess(
            probe, score_codes(probe, witness, instance.palette)),))
    assert verify(extended, witness)
    assert solve(extended).satisfiable


@st.composite
def verify_cases(draw):
    """An instance and a candidate to verify against it.

    As in the reduction, most guess pegs are one filler color, and the
    candidate may hold colors that no guess holds.  Most scores are the
    secret's; the candidate is the secret, the secret with one peg changed,
    or any code.
    """
    kappa, ell = draw(st.integers(2, 9)), draw(st.integers(1, 7))
    palette = Palette(kappa)
    held = draw(st.integers(1, kappa))  # the guesses hold colors 1..held only
    filler = draw(st.integers(1, held))
    guess_peg = st.sampled_from([filler] * 3 + list(range(1, held + 1)))
    any_code = st.lists(st.integers(1, kappa), min_size=ell, max_size=ell).map(tuple)
    secret = draw(any_code)
    guesses = []
    for pegs in draw(st.lists(st.lists(guess_peg, min_size=ell, max_size=ell),
                              min_size=1, max_size=4)):
        declared = naive_score(tuple(pegs), secret, palette)
        if draw(st.integers(0, 3)) == 0:
            black = draw(st.integers(0, ell))
            declared = Score(black, draw(st.integers(0, ell - black)))
        guesses.append(ScoredGuess(tuple(pegs), declared))
    mutated = st.tuples(st.integers(0, ell - 1), st.integers(1, kappa)).map(
        lambda ic: secret[:ic[0]] + (ic[1],) + secret[ic[0] + 1:])
    candidate = draw(st.one_of(st.just(secret), mutated, any_code))
    return MspInstance(palette, ell, tuple(guesses)), candidate


def test_verify_matches_the_score_definition():
    # the verdict the definition gives: True, or the first failing guess's
    # black or white count is off; all three must be drawn
    verdicts = Counter()

    @settings(max_examples=400, deadline=None)
    @given(verify_cases())
    def check(case):
        instance, candidate = case
        expected = True
        for sg in instance.guesses:
            got = naive_score(sg.guess, candidate, instance.palette)
            if got != sg.declared:
                expected = "black" if got.black != sg.declared.black else "white"
                break
        verdicts[expected] += 1
        assert verify(instance, candidate) is (expected is True)

    check()
    print(f"verify verdicts drawn: {verdicts[True]} True, "
          f"{verdicts['black']} False on black, {verdicts['white']} False on white")
    assert verdicts[True] and verdicts["black"] and verdicts["white"]


@settings(max_examples=100, deadline=None)
@given(sparse_palettes())
def test_sparse_palette_matches_compressed_oracle(instance):
    first = compressed_solutions(instance, 1)
    assert solve(instance) == SolveOutcome(bool(first), next(iter(first), None))


@settings(max_examples=100, deadline=None)
@given(sparse_palettes())
def test_sparse_palette_uniqueness_matches_compressed_oracle(instance):
    first_two = compressed_solutions(instance, 2)
    assert enumerate_all(instance, cap=2).codes == first_two
    report = is_unique(instance)
    assert report.satisfiable == bool(first_two)
    assert report.unique == (len(first_two) == 1)
    assert report.witness == (first_two[0] if first_two else None)


def some_multiset_fits(instance, colors):
    """Does a code-length multiset over ``colors`` meet every match total?"""
    totals = [(Counter(sg.guess), sg.declared.black + sg.declared.white)
              for sg in instance.guesses]
    return any(
        all(sum((gc & Counter(ms)).values()) == t for gc, t in totals)
        for ms in itertools.combinations_with_replacement(colors, instance.length))


@settings(max_examples=500, deadline=None)
@given(instances(4, 5, 4))
@example(MspInstance(Palette(2), 2, (ScoredGuess((1, 2), Score(0, 0)),)))
def test_root_check_refutes_exactly_the_infeasible_multiset_systems(instance):
    # these sizes stay far below the step budget, where the check is exact;
    # the example has only dead colors, so no multiset pads the code length
    feasible = some_multiset_fits(instance, range(1, instance.kappa + 1))
    assert _multiset_feasible(_Search(instance)) is feasible


@settings(max_examples=100, deadline=None)
@given(sparse_palettes())
def test_root_check_is_exact_over_slots(instance):
    # no guess holds an unused color, so the unused colors are
    # interchangeable: the used colors plus the smallest unused one decide
    used = {c for sg in instance.guesses for c in sg.guess}
    colors = sorted(used | {min(set(range(1, len(used) + 2)) - used)})
    assert _multiset_feasible(_Search(instance)) is some_multiset_fits(instance, colors)


@pytest.mark.parametrize("kappa, verdict, witness", [
    (2, False, None), (3, True, (1, 3)), (10**9, True, (1, 3))])
def test_root_check_pads_only_with_an_unheld_color(kappa, verdict, witness):
    # one copy of color 1 and color 2 dead: length 2 needs a color no
    # guess holds, which only a palette past 2 has
    instance = MspInstance(Palette(kappa), 2, (
        ScoredGuess((1, 1), Score(1, 0)), ScoredGuess((2, 2), Score(0, 0))))
    assert _multiset_feasible(_Search(instance)) is verdict
    assert solve(instance).witness == witness


def verdicts_per_budget(monkeypatch, search, ell, budgets):
    """The multiset check's verdict on ``search`` for each step budget, and
    the witness the last call wrote."""
    verdicts = []
    for budget in budgets:
        monkeypatch.setattr(mspkit.solver, "_CHECK_BUDGET", budget)
        witness = [0] * (search.nslots + 1)
        verdicts.append(_system_feasible(search, ell, witness))
    return verdicts, witness


def test_multiset_check_out_of_steps_says_nothing(monkeypatch):
    # one step per node entered, the leaf included: (1, 2) at total 1
    # enters slot 1 at k 0, slot 2 at k 1, then the leaf; the multiset
    # found is no copy of slot 1, one of slot 2 and no padding
    search = _Search(MspInstance(Palette(2), 2, (ScoredGuess((1, 2), Score(0, 1)),)))
    assert verdicts_per_budget(monkeypatch, search, 1, range(1, 5)) == (
        [None, None, True, True], [0, 0, 1])
    # slot 2 is dead, and one copy of slot 1 cannot pad to length 2
    search = _Search(MspInstance(Palette(2), 2, (
        ScoredGuess((1, 1), Score(1, 0)), ScoredGuess((2, 2), Score(0, 0)))))
    assert verdicts_per_budget(monkeypatch, search, 2, range(1, 4))[0] == [None, False, False]


def place(search, instance, slots):
    """Set the search's cnt and need as placing ``slots`` leaves them, and
    blocked from its definition (see check_search_state)."""
    placed = Counter(slots)
    search.cnt[:] = [placed[s] for s in range(search.nslots + 1)]
    search.need[:] = [sg.declared.color_matches
                      - sum(min(t, placed[s]) for s, t in gc.items())
                      for sg, gc in zip(instance.guesses, search.gcount)]
    saturated = [gc for gc, left in zip(search.gcount, search.need) if left == 0]
    search.blocked[:] = [sum(gc[s] > placed[s] for gc in saturated)
                         for s in range(search.nslots + 1)]


def test_multiset_check_reads_the_slot_facts_off_the_search(monkeypatch):
    # the secret 2 2 2 from its first peg on: guess 0 is saturated and
    # blocks slot 1, and one copy of slot 2 is placed, of top 2.  The check
    # enters slot 2 alone, takes k 1 (top - cnt caps it there, so the slot
    # is then inert), and the leaf pads the total to 2 with one copy
    instance = MspInstance(Palette(2), 3, (
        ScoredGuess((1, 1, 2), Score(1, 0)), ScoredGuess((1, 2, 2), Score(2, 0))))
    search = _Search(instance)
    place(search, instance, [2])
    assert (search.cnt, search.need, search.blocked, search.top) == (
        [0, 0, 1], [0, 1], [0, 1, 0], [0, 2, 2])
    assert verdicts_per_budget(monkeypatch, search, 2, range(1, 4)) == (
        [None, True, True], [1, 0, 1])


def test_columns_put_the_most_pegs_first():
    # slot 2 holds 3 pegs in one guess, slot 1 one peg in each of two: the
    # order counts pegs, not guesses; ties keep ascending slots
    cols = _columns([Counter({1: 1, 2: 3, 3: 1, 5: 2}), Counter({1: 1, 3: 2, 4: 1})])
    assert list(cols) == [2, 3, 1, 5, 4]
    assert cols[3] == [(0, 1), (1, 2)]


@st.composite
def residual_systems(draw):
    """A search at a state it can reach, from instances() or games(), and
    the code length left: slots placed one at a time, each one that no
    saturated guess blocks, as the search places them."""
    instance = draw(st.one_of(instances(4, 5, 4), games(8, 7, 7)))
    search = _Search(instance)
    slots = []
    for _ in range(draw(st.integers(0, instance.length))):
        free = [s for s in range(1, search.nslots + 1) if not search.blocked[s]]
        if not free:
            break
        slots.append(draw(st.sampled_from(free)))
        place(search, instance, slots)
    return search, instance.length - len(slots)


@settings(max_examples=300, deadline=None)
@given(residual_systems())
def test_multiset_verdict_does_not_depend_on_the_level_order(system):
    # the levels run in _columns' order; slot order must give the same
    # verdict, though often another witness, and each witness must solve
    # the system as defined.  The check reads the search's live state, so
    # it must leave that state as it was
    search, ell = system
    cnt, need = search.cnt, search.need
    given = [cnt[:], need[:], search.blocked[:], search.top[:]]
    verdicts = []
    for cols in search.by_color, dict(sorted(search.by_color.items())):
        search.by_color = cols
        witness = [0] * (search.nslots + 1)
        verdict = _system_feasible(search, ell, witness)
        assert [search.cnt, search.need, search.blocked, search.top] == given
        assert verdict is not None
        verdicts.append(verdict)
        if verdict:
            assert sum(witness) == ell
            for gc, target in zip(search.gcount, need):
                assert sum(min(witness[s], max(t - cnt[s], 0))
                           for s, t in gc.items()) == target
            # the padding goes on a slot where more copies add no match
            assert not witness[0] or any(
                all(witness[s] >= t - cnt[s] for _, t in cols.get(s, ()))
                for s in range(1, search.nslots + 1))
    assert verdicts[0] is verdicts[1]


def test_multiset_check_is_not_bounded_by_the_recursion_limit():
    # 1200 live colors, one search level each
    instance = MspInstance(Palette(1200), 1200, (
        ScoredGuess(tuple(range(1, 1201)), Score(0, 600)),))
    assert _multiset_feasible(_Search(instance)) is True


def test_search_is_not_bounded_by_the_recursion_limit():
    # code length 1200, one search node per position
    instance = MspInstance(Palette(1200), 1200, (
        ScoredGuess(tuple(range(1, 1201)), Score(0, 600)),))
    with time_limit(10):
        witness = solve(instance).witness
    assert verify(instance, witness)


@pytest.mark.parametrize("call", [
    solve,
    lambda instance: enumerate_all(instance, cap=3),
    is_unique,
], ids=["solve", "enumerate_all", "is_unique"])
def test_one_search_per_call(monkeypatch, call):
    # the witness and the solutions past it come from the same search, all
    # of it inside one run (the span the benchmark times as the search)
    several = MspInstance(Palette(3), 3, (ScoredGuess((1, 2, 3), Score(1, 1)),))
    # K3 needs a cover of 2; the root check refutes cover size 1
    refuted = reduce_vertex_cover(Graph(3, ((1, 2), (1, 3), (2, 3))), 1).instance
    calls = Counter()
    init, root, run = _Search.__init__, _multiset_feasible, _Search.run

    def counted_init(self, *args, **kwargs):
        calls["setup"] += 1
        init(self, *args, **kwargs)

    def counted_root(*args):
        calls["root"] += 1
        return root(*args)

    def counted_run(self, *args):
        calls["run"] += 1
        return run(self, *args)

    monkeypatch.setattr(_Search, "__init__", counted_init)
    monkeypatch.setattr(_Search, "run", counted_run)
    monkeypatch.setattr(mspkit.solver, "_multiset_feasible", counted_root)
    for instance, runs in ((several, 1), (refuted, 0)):
        calls.clear()
        call(instance)
        assert (calls["setup"], calls["root"], calls["run"]) == (1, 1, runs)


def test_multiset_checks_leave_no_reference_cycles(monkeypatch):
    # what the checks and the search allocate is freed by reference counts
    # alone, without waiting for the cyclic collector
    instances = [reduce_vertex_cover(graph, n, layout).instance
                 for graph in (Graph(3, ((1, 2), (1, 3), (2, 3))),
                               Graph(5, ((1, 3), (1, 5), (2, 4), (4, 5))))
                 for n in (1, 2)
                 for layout in ("standard", "compact")]
    # a cycle through a suspended generator is broken by closing it, so the
    # collector reports 0 for it; a search still alive here shows it
    searches = []
    init = _Search.__init__

    def tracked_init(self, *args):
        searches.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(_Search, "__init__", tracked_init)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for instance in instances:
            _multiset_feasible(_Search(instance))
            solve(instance)
            # both stop at their limit with the generator stack still open
            enumerate_all(instance, cap=2)
            is_unique(instance)
            assert [r for r in searches if r() is not None] == []
        assert len(searches) == 4 * len(instances)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@settings(max_examples=150, deadline=None)
@given(games(max_len=6, max_guesses=6))
def test_residual_check_refutes_exactly_the_infeasible_residues(instance):
    # the root check sees nothing placed; this checks what the search hands
    # the residual check, rebuilt from the placed counts alone (codes of 6
    # and 6 guesses give several times the refutations of the default games)
    guesses = [(Counter(sg.guess), sg.declared.color_matches)
               for sg in instance.guesses]
    residual = _Search._residual_feasible

    def checked(self, i, witness):
        verdict = residual(self, i, witness)
        if verdict is not None:
            # the colors of one slot are interchangeable: its first stands
            # for all of them
            placed = Counter({self.slots[s].start: k for s, k in enumerate(self.cnt) if k})
            left = [(gc - placed, t - sum((gc & placed).values()))
                    for gc, t in guesses]
            feasible = any(
                all(sum((gc & Counter(ms)).values()) == t for gc, t in left)
                for ms in itertools.combinations_with_replacement(
                    range(1, instance.kappa + 1), instance.length - i - 1))
            assert (verdict is False) == (not feasible), placed
        return verdict

    _Search._residual_feasible = checked
    try:
        solve(instance)
        enumerate_all(instance, cap=3)
    finally:
        _Search._residual_feasible = residual


@given(st.integers(1, 3), st.integers(1, 4))
def test_near_perfect_single_white_is_impossible(kappa, ell):
    # (ell-1, 1) forces ell-1 exact matches plus one color match that is
    # somewhere else, but a single misplaced peg has nowhere to go
    for pegs in itertools.product(range(1, kappa + 1), repeat=ell):
        inst = MspInstance(Palette(kappa), ell,
                           (ScoredGuess(pegs, Score(ell - 1, 1)),))
        assert solve(inst, mode="exhaustive").satisfiable is False


@contextmanager
def time_limit(seconds):
    """Fail the test once the body has run ``seconds`` of wall time.

    The TimeoutError raised deep in the search is reported as a plain
    failure, without its traceback: formatting that traceback has ended the
    whole pytest session with an INTERNALERROR.
    """
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError as exc:
        # what pytest.fail(str(exc), pytrace=False) raises, minus the chain
        raise pytest.fail.Exception(str(exc), pytrace=False) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_verify_on_all_distinct_long_guess_stays_fast():
    # all 20 000 colors are shared: a scan of the guess per shared color is
    # quadratic (seconds); one sorted copy of the guess keeps it to milliseconds
    ell = 20000
    instance = MspInstance(Palette(ell), ell, (
        ScoredGuess(tuple(range(1, ell + 1)), Score(0, ell)),))
    with time_limit(1):
        assert verify(instance, tuple(range(ell, 0, -1)))


@pytest.mark.parametrize("layout", ["standard", "compact"])
def test_enumeration_past_the_witness_finishes_on_dense_reduction(layout):
    # a search of every code from the start spent minutes below the witness
    # on this reduction; the canonical search reaches the witness at once,
    # and the exact search that goes on from there the next ones
    graph = Graph(5, ((1, 3), (1, 5), (2, 4), (4, 5)))
    instance = reduce_vertex_cover(graph, 2, layout).instance
    with time_limit(10):
        result = enumerate_all(instance, cap=5)
        witness = solve(instance).witness
    assert len(result.codes) == 5
    assert result.codes[0] == witness
    assert all(a < b for a, b in zip(result.codes, result.codes[1:]))
    assert all(verify(instance, code) for code in result.codes)


def test_solve_finishes_on_a_reduction_with_a_long_tail():
    # G(12, 0.4), the graph random.Random(1) draws right after one with 10
    # vertices (each pair in order, kept with probability 0.4).  Its last 29
    # positions hold N in every guess.  Checking only the placements into
    # that tail, or that saturate a guess, refuted a doomed cover only once
    # the search reached the tail: 25 981 nodes and about 3 s.  The residual
    # check on every placement that draws nothing from the carried witness
    # refutes it where it starts: 44 nodes
    edges = ((1, 7), (2, 3), (2, 4), (2, 7), (2, 11), (3, 7), (3, 9), (3, 10),
             (4, 6), (4, 7), (5, 6), (5, 11), (6, 8), (7, 12), (8, 11), (9, 11),
             (9, 12))
    instance = reduce_vertex_cover(Graph(12, edges), 6).instance
    assert (instance.length, instance.kappa) == (44, 31)
    nodes = Counter()
    with time_limit(1), nodes_watched(lambda search, args: nodes.update(["entered"])):
        witness = solve(instance).witness
    assert verify(instance, witness)
    assert nodes["entered"] < 1000


def test_solve_finishes_on_a_hub_reduction():
    # 500 edges on 100 vertices, each touching one of vertices 1-25, drawn
    # from random.Random(6); in slot order the multiset checks spent their
    # step budgets here and solve ran past 30 s
    rng = random.Random(6)
    edges = set()
    while len(edges) < 500:
        a = rng.randint(1, 25)
        b = rng.randint(1, 100)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    instance = reduce_vertex_cover(Graph(100, tuple(sorted(edges))), 25).instance
    assert (instance.length, instance.kappa) == (703, 602)
    with time_limit(10):
        witness = solve(instance).witness
    assert verify(instance, witness)


@contextmanager
def residual_rule_checked():
    """Check the residual rule at every placement the searches in the body
    yield: before the last position the placement either ran the residual
    check or drew from the node's witness, which proves the check would
    pass, never both and never neither; at the last position it did
    neither.  Yields the counts of checks run and of draws."""
    counts = Counter()
    passed = []  # a check that passed, before its placement yields
    residual = _Search._residual_feasible

    def counted_residual(self, i, witness):
        counts["checked"] += 1
        verdict = residual(self, i, witness)
        if verdict is not False:
            passed.append(i)
        return verdict

    def watch(search, args):
        i, w = args[0], args[3]

        def placed(child, local):
            if search.prefix[i] != search.slots[local["s"]].start:
                return  # a later color of the same placement
            assert passed in ([], [i])
            was_checked = bool(passed)
            passed.clear()
            was_drawn = w is not None and child[3] is w
            if i + 1 == search.ell:
                assert not was_checked and not was_drawn
                return
            assert was_checked != was_drawn, search.prefix[:i + 1]
            if was_drawn:
                assert residual(search, i, [0] * (search.nslots + 1)) is not False
                counts["drawn"] += 1
        return placed

    _Search._residual_feasible = counted_residual
    try:
        with nodes_watched(watch):
            yield counts
    finally:
        _Search._residual_feasible = residual


@pytest.mark.parametrize("layout", ["standard", "compact"])
def test_residual_check_fires_on_every_placement_that_draws_nothing(layout):
    # at every position, not only in the tail past guess 4's vertex row
    # where no guess has an open peg, and not only on a saturation
    graph = Graph(5, ((1, 3), (1, 5), (2, 4), (4, 5)))
    instance = reduce_vertex_cover(graph, 2, layout).instance
    with residual_rule_checked() as counts:
        solve(instance)
        enumerate_all(instance, cap=5)
    assert counts["checked"] > 0
    assert counts["drawn"] > 0


@settings(max_examples=150, deadline=None)
@given(games())
def test_residual_check_fires_on_every_placement_that_draws_nothing_on_games(instance):
    with residual_rule_checked():
        solve(instance)
        enumerate_all(instance, cap=3)


def reduction_solutions(artifact, count):
    """The first ``count`` solutions of a reduction, in lex order, read off
    the graph instead of the guesses' scores.

    A code solves the reduction exactly when, for some vertex cover C of
    the cover size, it starts Y, Y, Y, holds every color of C and of the
    edges with one end in C, holds no other color but Y, and holds no
    vertex v at position v + 2, where guess 4 names v.  The search below
    extends a prefix only while some C can still complete it: the colors
    C still misses need distinct free positions, and as each position
    rules out at most one color and each color at most one position, they
    find them unless there are too few, or one color is left for one
    position that rules it out.
    """
    graph, cmap, n = artifact.source, artifact.colors, artifact.cover_size
    ell, yes = artifact.instance.length, cmap.yes_color
    own = {cmap.vertex_color[v]: v + 2 for v in range(1, graph.vertex_count + 1)}
    choices = []
    for cover in itertools.combinations(range(1, graph.vertex_count + 1), n):
        if is_vertex_cover(graph, cover):
            need = {cmap.vertex_color[v] for v in cover} | {
                cmap.edge_color[i] for i, (a, b) in enumerate(graph.edges, 1)
                if (a in cover) != (b in cover)}
            choices.append((need, need | {yes}))

    def completes(prefix):
        free = ell - max(len(prefix), 3)
        for need, allowed in choices:
            if any(c != yes if j < 3 else c not in allowed or own.get(c) == j
                   for j, c in enumerate(prefix)):
                continue
            missing = need.difference(prefix)
            if len(missing) <= free and not (
                    free == 1 and missing and own.get(*missing) == ell - 1):
                return True
        return False

    found, prefix = [], []

    def extend():
        if len(prefix) == ell:
            found.append(tuple(prefix))
            return
        for c in range(1, artifact.instance.kappa + 1):
            prefix.append(c)
            if completes(prefix):
                extend()
            prefix.pop()
            if len(found) == count:
                return

    if completes(prefix):
        extend()
    return found


def tail_reductions():
    """Reductions of G(nv, 0.45), nv 4-6, at every cover size, both layouts."""
    rng = random.Random(13)
    for nv in (4, 5, 6):
        for _ in range(2):
            edges = tuple(p for p in itertools.combinations(range(1, nv + 1), 2)
                          if rng.random() < 0.45)
            for n in range(1, nv + 1):
                for layout in ("standard", "compact"):
                    yield reduce_vertex_cover(Graph(nv, edges), n, layout)


def test_reductions_with_a_tail_match_the_cover_oracles():
    # solve and the exact search past the witness, both of which run the
    # residual check in the tail too, against brute-force vertex cover and
    # the paper's reading of a solution
    for artifact in tail_reductions():
        instance = artifact.instance
        expected = reduction_solutions(artifact, 6)
        assert bool(expected) == brute_force_vertex_cover(artifact.source,
                                                          artifact.cover_size)
        assert solve(instance) == SolveOutcome(bool(expected), next(iter(expected), None))
        assert enumerate_all(instance, cap=5) == Enumeration(tuple(expected[:5]),
                                                             len(expected) > 5)


@st.composite
def blocked_suffix_games(draw):
    """Games whose last positions no guess constrains: there every guess
    holds a color x that an all-x guess declared (0, 0) blocks.  Scores are
    true for a secret without x, a third of them redrawn; kappa**ell is at
    most 10**5."""
    kappa = draw(st.integers(2, 4))
    ell = draw(st.integers(2, {2: 12, 3: 8, 4: 6}[kappa]))
    free = draw(st.integers(0, ell - 1))
    x = draw(st.integers(1, kappa))
    palette = Palette(kappa)
    others = [c for c in range(1, kappa + 1) if c != x]
    secret = tuple(draw(st.lists(st.sampled_from(others), min_size=ell, max_size=ell)))
    guesses = [ScoredGuess((x,) * ell, Score(0, 0))]
    for _ in range(draw(st.integers(1, 4))):
        pegs = tuple(draw(st.lists(st.integers(1, kappa), min_size=free,
                                   max_size=free))) + (x,) * (ell - free)
        declared = score(pegs, secret, palette)
        if draw(st.integers(0, 2)) == 0:
            black = draw(st.integers(0, ell))
            declared = Score(black, draw(st.integers(0, ell - black)))
        guesses.append(ScoredGuess(pegs, declared))
    return MspInstance(palette, ell, tuple(guesses))


@settings(max_examples=60, deadline=None)
@given(blocked_suffix_games())
def test_games_with_a_blocked_suffix_match_the_sweep(instance):
    expected = tuple(itertools.islice(_sweep(instance, 10**5), 6))
    assert solve(instance) == SolveOutcome(bool(expected), next(iter(expected), None))
    assert enumerate_all(instance, cap=5) == Enumeration(expected[:5], len(expected) > 5)


def sparse_game(rng, kappa, ell, colors, guesses):
    """True-scored guesses over ``colors`` random colors of a wide palette,
    against a secret over the same colors."""
    palette = Palette(kappa)
    support = rng.sample(range(1, kappa + 1), colors)
    secret = tuple(rng.choice(support) for _ in range(ell))
    pegs = [tuple(rng.choice(support) for _ in range(ell)) for _ in range(guesses)]
    return MspInstance(palette, ell, tuple(
        ScoredGuess(p, score(secret, p, palette)) for p in pegs))


def test_enumeration_on_a_wide_palette_finishes():
    # the search once scanned all 8192 colors at every node and walked each
    # unused one; one slot per run of unused colors makes this milliseconds
    instance = sparse_game(random.Random(1), 8192, 6, 6, 2)
    with time_limit(5):
        result = enumerate_all(instance, cap=50)
        witness = solve(instance).witness
    assert len(result.codes) == 50
    assert result.codes[0] == witness
    assert all(a < b for a, b in zip(result.codes, result.codes[1:]))
    assert all(verify(instance, code) for code in result.codes)


def test_uniqueness_on_wide_palettes_finishes():
    # shaped like the benchmark's sparse instances; an unused color that
    # adds no solution at a node must end the walk over its run
    rng = random.Random(1)
    wide = [sparse_game(rng, 8192, rng.randint(4, 6), 8, rng.randint(3, 5))
            for _ in range(20)]
    with time_limit(10):
        for instance in wide:
            report = is_unique(instance)
            result = enumerate_all(instance, cap=5)
            assert report.satisfiable
            assert report.unique == (len(result.codes) == 1)


def score_left(search, instance, i):
    """What is left of each guess's declared black count and match total
    once the prefix up to position i is placed, by definition; the search's
    b_need and need must agree."""
    placed = search.prefix[:i]
    counts = Counter(placed)
    b_need = [sg.declared.black - sum(p == c for p, c in zip(sg.guess, placed))
              for sg in instance.guesses]
    need = [sg.declared.color_matches - sum((Counter(sg.guess) & counts).values())
            for sg in instance.guesses]
    assert (search.b_need, search.need) == (b_need, need), placed
    return b_need, need


def check_search_state(search, i, need):
    """cnt, blocked and top against their definitions, from the prefix up
    to position i and what is left of each match total."""
    cnt = search.cnt
    assert cnt == [sum(c in colors for c in search.prefix[:i]) for colors in search.slots]
    saturated = [gc for gc, left in zip(search.gcount, need) if left == 0]
    for c in range(1, search.nslots + 1):
        assert search.blocked[c] == sum(gc[c] > cnt[c] for gc in saturated), c
        assert (cnt[c] >= search.top[c]) == all(gc[c] <= cnt[c] for gc in search.gcount), c


def dead_slots(search, instance):
    """The slots of the guesses declared (0, 0)."""
    return {s for gc, sg in zip(search.gcount, instance.guesses)
            if sg.declared.color_matches == 0 for s in gc}


def check_node_rules(search, instance, i, floor_c, floor_pos, b_need, need):
    """full, forced and urgent at node i as their definitions give them, from
    what is left of each declared score and the open pegs ahead on entry,
    after checking the three invariants the node takes from its parent (or
    node 0 from the root check): black reach, need <= ell - i and
    gain >= need."""
    dead = dead_slots(search, instance)
    full, forced, urgent = set(), set(), []
    for g, pegs in enumerate(search.pegs):
        ahead = sum(p not in dead for p in pegs[i:])
        gain = sum(max(t - search.cnt[s], 0) for s, t in search.gcount[g].items()
                   if not search.blocked[s]
                   and not (s < floor_c and search.last_occ[s] < floor_pos))
        assert 0 <= b_need[g] <= ahead and 0 <= need[g] <= min(gain, search.ell - i), g
        if pegs[i] not in dead:
            if b_need[g] == 0:
                full.add(pegs[i])
            elif b_need[g] == ahead:
                forced.add(pegs[i])
        if need[g] == search.ell - i:
            urgent.append(g)
    return full, forced, urgent


@contextmanager
def search_state_checked(instance):
    """Run score_left and check_search_state at every node of every search
    of ``instance`` in the body, and check the node's full, forced and
    urgent; yields the nodes counted."""
    nodes = Counter()

    def watch(search, args):
        i, floor_c, floor_pos, _ = args
        b_need, need = score_left(search, instance, i)
        check_search_state(search, i, need)
        full, forced, urgent = check_node_rules(search, instance, i, floor_c, floor_pos,
                                                b_need, need)
        nodes["checked"] += 1

        def placed(child, local):
            # two different forced slots leave the node no child
            assert len(forced) <= 1
            assert set(local["full"]) == full
            assert local["forced"] == min(forced, default=0)
            assert local["urgent"] == urgent
        return placed

    with nodes_watched(watch):
        yield nodes


def check_witness(search, i, w, need):
    """w solves the residual system of the node at position i exactly, need
    being what is left of each match total."""
    cnt = search.cnt
    assert sum(w) == search.ell - i
    for g, gc in enumerate(search.gcount):
        matches = sum(min(w[s], max(t - cnt[s], 0)) for s, t in gc.items())
        assert matches == need[g], g
    slots = range(1, search.nslots + 1)
    assert all(w[s] == 0 for s in slots if search.blocked[s])
    # the padding goes on a slot where more copies add no match
    assert not w[0] or any(
        not search.blocked[s]
        and all(w[s] >= t - cnt[s] for _, t in search.by_color.get(s, ()))
        for s in slots)


@contextmanager
def witnesses_checked(instance):
    """Check the witness of every node of a search of ``instance`` that
    carries one, on entry; a drawn witness is the one of the child it was
    drawn for."""
    def watch(search, args):
        if args[3] is not None:
            _, need = score_left(search, instance, args[0])
            check_witness(search, args[0], args[3], need)

    with nodes_watched(watch):
        yield


@st.composite
def small_reductions(draw):
    """Vertex-cover reductions of graphs with at most 6 vertices."""
    nv = draw(st.integers(2, 6))
    pairs = list(itertools.combinations(range(1, nv + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    n = draw(st.integers(1, nv))
    layout = draw(st.sampled_from(["standard", "compact"]))
    return reduce_vertex_cover(Graph(nv, tuple(edges)), n, layout).instance


def check_positional_table(search, instance):
    """at_pos and last_occ against their definitions: at_pos[i]
    pairs each guess whose open peg at i is s (one on no slot of a guess
    declared (0, 0)) with its open pegs from i on."""
    dead = dead_slots(search, instance)
    want = []
    for i in range(search.ell):
        here = {}
        for g, pegs in enumerate(search.pegs):
            if pegs[i] not in dead:
                ahead = sum(p not in dead for p in pegs[i:])
                here.setdefault(pegs[i], []).append((g, ahead))
        want.append([(s, tuple(hits)) for s, hits in here.items()])
    assert [list(here.items()) for here in search.at_pos] == want
    for s in range(len(search.slots)):
        last = max((i for i, here in enumerate(want) if s in dict(here)), default=-1)
        assert search.last_occ[s] == last, s
    # every position with no open peg holds one shared dict
    empty = [here for here in search.at_pos if not here]
    assert all(here is empty[0] for here in empty)


@settings(max_examples=300, deadline=None)
@given(st.one_of(instances(4, 5, 4), games(), small_reductions()))
def test_positional_table_matches_its_definition(instance):
    search = _Search(instance)
    if _multiset_feasible(search) is not False:
        search.run(1)
        check_positional_table(search, instance)


# A blocked count that runs low prunes less but removes no solution, so the
# answer tests cannot see it; these check the counts themselves.
@settings(max_examples=150, deadline=None)
@given(games())
def test_blocked_and_inert_colors_match_their_definitions_on_games(instance):
    with search_state_checked(instance) as nodes:
        solve(instance)
        enumerate_all(instance, cap=3)
    assert nodes["checked"] or _multiset_feasible(_Search(instance)) is False


@settings(max_examples=60, deadline=None)
@given(small_reductions())
def test_blocked_and_inert_colors_match_their_definitions_on_reductions(instance):
    with search_state_checked(instance) as nodes:
        solve(instance)
        enumerate_all(instance, cap=3)
    assert nodes["checked"] or _multiset_feasible(_Search(instance)) is False


def test_gain_is_retested_for_the_holders_of_newly_blocked_slots():
    # a true-scored game where a saturating placement leaves another guess,
    # one holding a newly blocked slot, short of gain only through a slot
    # below the stream floor, which the residual check does not see: without
    # the gain test on a saturation, a child is entered with gain < need
    instance = MspInstance(Palette(8), 5, tuple(
        ScoredGuess(pegs, Score(*declared)) for pegs, declared in (
            ((3, 5, 6, 5, 6), (0, 2)), ((1, 8, 2, 5, 5), (1, 0)),
            ((3, 6, 6, 2, 6), (0, 2)), ((2, 1, 3, 1, 3), (1, 0)),
            ((2, 4, 3, 1, 3), (1, 1)), ((7, 6, 6, 4, 5), (0, 3)))))
    with search_state_checked(instance) as nodes:
        solve(instance)
        enumerate_all(instance, cap=3)
    assert nodes["checked"]


# A witness that is off skips a residual check that would prune, which costs
# nodes but changes no answer; these check the carried multisets themselves.
@settings(max_examples=150, deadline=None)
@given(games())
def test_carried_witness_solves_the_residual_system_on_games(instance):
    with witnesses_checked(instance):
        solve(instance)
        enumerate_all(instance, cap=3)


@settings(max_examples=60, deadline=None)
@given(small_reductions())
def test_carried_witness_solves_the_residual_system_on_reductions(instance):
    with witnesses_checked(instance):
        solve(instance)
        enumerate_all(instance, cap=3)


@st.composite
def short_reach_instances(draw):
    """A (0, 0) guess kills its colors; another guess holds one of them and
    declares more matches than its other pegs can give, and perhaps more
    black pegs too.  Up to two random guesses ride along."""
    kappa = draw(st.integers(2, 4))
    ell = draw(st.integers(1, 5))
    codes = st.lists(st.integers(1, kappa), min_size=ell, max_size=ell).map(tuple)
    dead = draw(codes)
    guesses = [ScoredGuess(dead, Score(0, 0))]
    for _ in range(draw(st.integers(0, 2))):
        black = draw(st.integers(0, ell))
        guesses.append(ScoredGuess(draw(codes), Score(black, draw(st.integers(0, ell - black)))))
    killed = {c for sg in guesses if sg.declared.color_matches == 0 for c in sg.guess}
    pegs = draw(codes)
    pegs = (draw(st.sampled_from(dead)),) + pegs[1:]
    total = draw(st.integers(sum(c not in killed for c in pegs) + 1, ell))
    black = draw(st.integers(0, total))
    guesses.insert(draw(st.integers(0, len(guesses))),
                   ScoredGuess(pegs, Score(black, total - black)))
    return MspInstance(Palette(kappa), ell, tuple(guesses))


@settings(max_examples=100, deadline=None)
@given(short_reach_instances())
def test_root_check_refutes_every_short_root_reach(instance):
    # the search takes black reach and gain >= need as holding at node 0:
    # a guess whose open pegs (those on no killed color) fall short of its
    # black count or its match total is refuted before any node
    killed = {c for sg in instance.guesses if sg.declared.color_matches == 0
              for c in sg.guess}
    assert any(sum(c not in killed for c in sg.guess) < sg.declared.color_matches
               for sg in instance.guesses)
    assert _multiset_feasible(_Search(instance)) is False
    nodes = Counter()
    with nodes_watched(lambda search, args: nodes.update(["entered"])):
        assert solve(instance) == SolveOutcome(False, None)
    assert not nodes
