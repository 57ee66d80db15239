"""Satisfiability of scored-guess collections.

An instance is a palette, a code length, and a list of guesses each carrying
a declared score.  It is satisfiable when some secret code would have
produced every declared score.  Two engines decide this:

* exhaustive - lexicographic sweep of all kappa**ell candidates, guarded by
  a size cap.  Trivially correct; the oracle for everything else.
* backtracking - depth-first assignment of positions left to right, colors
  ascending, pruning partial assignments that already violate a declared
  black count or per-color usage implied by a declared score, or that can no
  longer reach one.  Finds the lexicographically smallest witness first.
  Backed up by a position-free feasibility check on color multisets (see
  _multiset_feasible) that refutes many instances outright and cuts doomed
  subtrees early; it only ever prunes on proof.

Nothing in the backtracking engine grows with kappa.  It works over slots:
one per color some guess holds and one per maximal run of colors no guess
holds.  Both multiset checks read a guess's slot counts as per-slot columns
(_columns, built once per call), one search level per slot, the slots with
the most pegs first.  verify keeps its own count of the candidate's colors
and reads each guess's counts of those colors off a sorted copy of it.

Both engines return identical answers and witnesses; the test suite enforces
this differentially.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import product
from operator import eq
from typing import Iterator, NamedTuple

from .core import Code, Palette, Score, validate_code
from .errors import InvalidInputError, ResourceLimitError

DEFAULT_EXHAUSTIVE_CAP = 10**8

MODES = ("backtrack", "exhaustive")


@dataclass(frozen=True, slots=True)
class ScoredGuess:
    guess: Code
    declared: Score


@dataclass(frozen=True)
class MspInstance:
    """A palette, a code length, and guesses with declared scores."""

    palette: Palette
    length: int
    guesses: tuple[ScoredGuess, ...]

    def __post_init__(self):
        if not isinstance(self.length, int) or self.length < 1:
            raise InvalidInputError(f"code length must be a positive integer, got {self.length!r}")
        for sg in self.guesses:
            validate_code(sg.guess, self.palette, length=self.length)
            black, white = sg.declared
            if black < 0 or white < 0 or black + white > self.length:
                raise InvalidInputError(
                    f"declared score {sg.declared} out of range for length {self.length}"
                )

    @property
    def kappa(self) -> int:
        return self.palette.kappa


class SolveOutcome(NamedTuple):
    satisfiable: bool
    witness: Code | None


class Enumeration(NamedTuple):
    codes: tuple[Code, ...]
    truncated: bool


def verify(instance: MspInstance, candidate: Code) -> bool:
    """True iff ``candidate`` reproduces every declared score.

    Runs in O(#guesses * length * log length); guesses were validated when
    the instance was built, so only the candidate is checked here.  A
    guess's count of each color it shares with the candidate is read off
    one sorted copy of the guess, so a guess whose pegs are mostly a color
    the candidate lacks costs no per-color table.
    """
    validate_code(candidate, instance.palette, length=instance.length)
    cand_counts = Counter(candidate)
    for sg in instance.guesses:
        guess = sg.guess
        black = sum(map(eq, guess, candidate))
        if black != sg.declared.black:
            return False
        matches = 0
        shared = cand_counts.keys() & set(guess)
        if shared:
            ordered = sorted(guess)
            for c in shared:
                n = bisect_right(ordered, c) - bisect_left(ordered, c)
                matches += min(n, cand_counts[c])
        if matches - black != sg.declared.white:
            return False
    return True


def solve(instance: MspInstance, mode: str = "backtrack",
          cap: int = DEFAULT_EXHAUSTIVE_CAP) -> SolveOutcome:
    """Decide satisfiability; on YES the witness is the lex-smallest solution."""
    if mode == "backtrack":
        found = _backtrack(instance, limit=1)
        return SolveOutcome(bool(found), found[0] if found else None)
    if mode == "exhaustive":
        code = next(_sweep(instance, cap), None)
        return SolveOutcome(code is not None, code)
    raise InvalidInputError(f"unknown mode {mode!r}; expected one of {MODES}")


def enumerate_all(instance: MspInstance, cap: int) -> Enumeration:
    """All solutions in lexicographic order, truncated at ``cap`` (an int).

    One search, the one solve() runs: its first solution is solve()'s
    witness, the lex-smallest, and from there on the search keeps going
    without dominance shortcuts, so each later solution is visited exactly
    once (see _Search).
    """
    if not isinstance(cap, int) or cap < 1:
        raise InvalidInputError(f"enumeration cap must be a positive integer, got {cap!r}")
    found = _backtrack(instance, limit=cap + 1)
    return Enumeration(tuple(found[:cap]), len(found) > cap)


def _backtrack(instance: MspInstance, limit: int) -> list[Code]:
    """The first ``limit`` solutions in lexicographic order, from one search."""
    search = _Search(instance)
    if _multiset_feasible(search) is False:
        return []
    return search.run(limit)


# steps per multiset check, the root check and every residual check alike
_CHECK_BUDGET = 200_000


def _multiset_feasible(search: _Search) -> bool | None:
    """Does any slot multiset hit every guess's declared match total?

    A solution's multiset must satisfy, for every guess g,
    sum_s min(count(s), guess_count_g(s)) == declared black + white; this
    check decides that system alone (the residual system, nothing placed).
    False is a proof of unsatisfiability, a root-level shortcut; True or
    None (step budget exhausted) says nothing.  Position-free reasoning is
    what makes refutations of dense cover encodings cheap: the shared vertex
    budget and the per-edge totals conflict at this level already.  On True
    the multiset found is search.witness, node 0's witness (see _Search).

    It is also the root positional check.  With nothing placed, the up-front
    ``rest < targets`` test, made before any budget step, compares each
    guess's open pegs (those no target-0 guess blocks) with its match total,
    which is at least its black count.  So an instance whose root black
    reach or gain falls short is refuted here, whatever the budget, and the
    search's per-node tests may take both as holding at node 0.
    """
    witness = [0] * (search.nslots + 1)
    # with nothing placed, search.need holds the declared match totals
    verdict = _system_feasible(search.ell, search.by_color, search.cnt, search.need,
                               _CHECK_BUDGET, witness)
    if verdict:
        search.witness = witness
    return verdict


def _columns(counts: list[Counter]) -> dict[int, list[tuple[int, int]]]:
    """Per-slot columns, s -> [(g, pegs of s in guess g)], in fail-first
    order: the column holding the most pegs first, ties by ascending slot.

    The multiset checks take their levels in this order (Haralick & Elliott's
    fail-first rule, fixed here once per search so that no check sorts);
    everything else looks a column up by slot.
    """
    cols: dict[int, list[tuple[int, int]]] = {}
    for gi, gc in enumerate(counts):
        for s, t in gc.items():
            cols.setdefault(s, []).append((gi, t))
    return dict(sorted(cols.items(), key=lambda kv: (-sum(t for _, t in kv[1]), kv[0])))


def _system_feasible(ell: int, cols: dict[int, list[tuple[int, int]]], placed: list[int],
                     targets: list[int], budget: int, witness: list[int]) -> bool | None:
    """Core of the multiset checks: exists k >= 0 per slot with
    sum(k) == ell and sum_s min(k_s, r_gs) == targets[g] for all g, where
    r_gs = max(t_gs - placed[s], 0) is what is left of guess g's count
    t_gs of slot s (``cols``, see _columns) once ``placed[s]`` copies of
    s are placed (an unheld slot's k counts the copies of all its colors).

    Only the live slots (left in some guess and in no target-0 guess) are
    searched, one level each in the order of ``cols`` (fail-first, see
    _columns), trying k = 0, 1, ... copies; any other slot adds no match and
    can only pad the total.  A k is tried only if each guess in its row
    keeps running <= target <= running + rest, so at a leaf (rest 0) each
    guess with a row meets its target, and one with none has target 0 (else
    rest < targets refutes up front): a leaf asks only that the total can
    pad to ell.  The search loops over an explicit stack (no recursion
    limit); each node entered, the leaf too, takes a ``budget`` step.  False
    is a proof of infeasibility, None a spent budget.  On True, ``witness``
    (zeros on entry, one entry per slot) holds the k found per live slot,
    and witness[0] the copies that pad the total to ell, each adding no
    match.  Within budget the verdict does not depend on the level order;
    only which calls spend their budget, and which witness a passing call
    writes, do.  ``placed`` and ``targets`` are read and never written: the
    search passes its live cnt and need.  Like ``witness``, ``placed`` has
    one entry per slot after entry 0, so its length gives the slot count.
    """
    levels = []
    live = []  # live[j]: the slot of levels[j]
    # rest[g]: match total still obtainable from slots not yet decided
    rest = [0] * len(targets)
    held = 0  # slots left in some guess
    for s, col in cols.items():
        ps = placed[s]
        # with nothing placed, the column is already the residual row
        row = [(gi, t - ps) for gi, t in col if t > ps] if ps else col
        if not row:
            continue
        held += 1
        # a slot left in a target-0 guess can never be used; leaving it
        # out of every row keeps the reach bounds honest about that
        top = 0
        for gi, r in row:
            if not targets[gi]:
                break
            if r > top:
                top = r
        else:
            for gi, r in row:
                rest[gi] += r
            levels.append((row, top))
            live.append(s)
    if any(r < t for r, t in zip(rest, targets)):
        return False
    depth = len(levels)
    running = [0] * len(targets)
    # per level: the k being tried, and inflatable on entry (the entry
    # total is the child's total less k)
    ks = [0] * depth
    infl = [False] * depth
    steps = 0
    j = 0
    total = 0
    # inflatable: some slot can take copies that add no match; a slot left
    # in no guess can, and so can a live one once it reaches its top count
    inflatable = held < len(placed) - 1
    while True:
        # enter the node (j, total, inflatable)
        steps += 1
        if steps > budget:
            return None
        if j < depth:
            row, topcap = levels[j]
            for gi, t in row:
                rest[gi] -= t
            infl[j] = inflatable
        elif total == ell or inflatable:
            for j, s in enumerate(live):
                witness[s] = ks[j]
            witness[0] = ell - total
            return True
        else:
            row, topcap = (), -1  # a failed leaf: no k to try, so back up
        k = 0
        # find the next k at level j that keeps every guess within reach,
        # backing up a level each time one runs out of k; only the guesses
        # in this slot's row change here, so only they need the checks
        while True:
            kmax = ell - total
            if topcap < kmax:
                kmax = topcap
            while k <= kmax:
                skip = False
                for gi, t in row:
                    v = running[gi] + (k if k < t else t)
                    if v > targets[gi]:
                        k = kmax  # larger k only overshoots further
                        skip = True
                        break
                    if v + rest[gi] < targets[gi]:
                        skip = True  # out of reach; a larger k may do
                if not skip:
                    break
                k += 1
            if k <= kmax:
                break
            for gi, t in row:
                rest[gi] += t
            j -= 1
            if j < 0:
                return False
            row, topcap = levels[j]
            k = ks[j]
            for gi, t in row:
                running[gi] -= k if k < t else t
            total -= k
            k += 1
        for gi, t in row:
            running[gi] += k if k < t else t
        ks[j] = k
        inflatable = infl[j] or k == topcap
        total += k
        j += 1


def _sweep(instance: MspInstance, cap: int) -> Iterator[Code]:
    """Every solution in lexicographic order, by checking every candidate;
    raises ResourceLimitError at once if there are more than ``cap``."""
    if not isinstance(cap, int) or cap < 1:
        raise InvalidInputError(f"exhaustive cap must be a positive integer, got {cap!r}")
    total = instance.kappa ** instance.length
    if total > cap:
        raise ResourceLimitError(f"exhaustive search over {total} candidates exceeds cap {cap}")
    codes = product(range(1, instance.kappa + 1), repeat=instance.length)
    return (code for code in codes if verify(instance, code))


class _Search:
    """Shared depth-first engine for solve() and enumerate_all().

    Per-color state is kept per slot (see the module docstring).  A
    placement updates the counts once per slot; only writing the prefix
    loops over the slot's colors, ascending, so codes keep palette order.

    Each guess g keeps what is left of its declared score: b_need[g] blacks
    and need[g] matches, which a placement lowers and its restore raises.

    Pruning (always on; removes no solutions).  A node at position i holds
    three invariants for every guess g, each restored for every child:
    black reach (b_need <= g's open pegs from i on, where a peg is open
    unless blocked from the start), need <= ell - i, and gain >= need (gain
    is what g's slots not blocked or below the floor can still match).  At
    node 0 the root multiset check has proved the first and third (see
    _multiset_feasible), and the second holds as a score is at most ell.

    * black counts, once per node.  One pass over the open pegs at i finds
      ``full``, the slots of guesses with b_need 0 (placing one would
      exceed the black count), and ``forced``, the slot of a guess whose
      b_need equals ``ahead``, the count at_pos keeps beside each open peg
      of the guess's open pegs from i on: that guess needs every open peg
      it has left, and so this one.  Two different forced slots leave no
      child; any other guess keeps its reach whatever is placed.
    * need > rem, once per node: ``urgent`` holds the guesses with need ==
      ell - i, and every placement must bump each of them.  At the last
      position this is the leaf's match test.
    * gain, on a saturation or a floor rise.  A placement of s (neither
      blocked nor below the floor) lowers gain and need alike for each
      guess it bumps, and leaves the others' alone.  Only newly blocked
      slots or a risen floor can lower a gain further, so every guess is
      re-tested then; a guess whose gain did not change passes by the
      invariant.  The test is skipped at the last position, where it
      cannot fail: there every need is at most 1, ``urgent`` admits only
      placements that bump each guess with need 1, and no placement bumps
      a saturated guess (its slots are blocked), so every need is 0 after.
    * blocked colors: once a guess reaches its match total (need 0; a guess
      declared (0, 0) from the start), a color it holds more pegs of than
      are placed can never be placed again.  blocked[c] counts those
      guesses.  It changes only when a placement saturates a guess (a
      blocked color is never placed).
    * residual multiset check, on every placement the other rules admit
      before the last position, unless it draws from the node's witness
      (see Witness reuse): can any multiset of the positions left still
      hit every guess's match total?  It prunes only on proof, in
      canonical and exact mode alike.  In an unconstrained tail, where no
      guess has an open peg (the paper's reduction ends in one: the
      positions past guess 4's vertex row hold N everywhere), it alone
      decides whether any completion is left.
    * idle placements: an inert color (see top) with no guess peg at the
      position changes no count, so all such placements at a node lead to
      one subtree; once one adds no solution, the rest are skipped (a
      solution under a later one, given the first one's color there, is a
      lex-smaller solution under the first).

    Witness reuse.  A node may hold a witness: a multiset (per-slot counts,
    and at [0] a padding count of copies that add no match) that solves its
    residual system, as a passing multiset check found it.  The root check
    seeds node 0's, and a passing residual check the child's.  Placing a
    slot s with w[s] >= 1, or an inert slot while the padding is >= 1,
    draws that copy: the entry is decremented in place for the child and
    restored afterwards, and the placement's residual check is skipped.
    It could not return False: each guess s bumps loses one from
    min(k_s, r_gs) and one from its need, any other guess keeps both (a
    padding copy adds no match), and the total falls by one, so the
    decremented multiset solves the child's system.  A placement that
    draws nothing runs the check and passes the child the witness it
    found, or none.

    The guess lists (by_color) are also the multiset checks' columns, with
    cnt placed.  Every position, the last too, takes one placement step:
    at the last, the black rule and ``urgent`` admit only placements that
    meet every declared score exactly.  Every placement yields its child
    (i + 1, floor, witness) to run; a child at position ell is a solution,
    which run copies from the prefix and counts in ``found``.

    Canonical mode, while found is 0 (preserves satisfiability and
    the lex-smallest solution but collapses interchangeable branches): once
    a color has no positional occurrence ahead it is order-interchangeable
    with later such colors; a (floor value, floor position) pair with
    ascend-only updates skips placements that a value swap would turn into
    a lex-smaller solution.  So the first solution is the lex-smallest, w.

    From w on the search is exact: it raises no floor, and the floors still
    active, raised on w's path, skip no solution.  Such a floor (fc, fp)
    came from slot fc at position fp of w, no guess holding fc at or after
    fp.  A code x skipped below it shares w[:fp] and fc's slot at fp, and
    places at some j > fp a slot s < fc that no guess holds at or after fp.
    Swapping positions fp and j keeps every score, so a solution x would
    give a solution lex-smaller than w.
    """

    def __init__(self, instance: MspInstance):
        self.ell = instance.length
        guesses = instance.guesses

        # slots[s]: the colors of slot s (slot 0 is a placeholder); a held
        # color starts a slot, and so do color 1 and the color after a held one
        held = {c for sg in guesses for c in sg.guess}
        first = [0, *sorted(held | {c + 1 for c in held} | {1, instance.kappa + 1})]
        self.slots = list(map(range, first, first[1:]))
        self.nslots = len(self.slots) - 1
        slot = {c: s for s, c in enumerate(first)}

        # lists, not tuples: freed short tuples stay on per-length free lists
        self.pegs = [list(map(slot.__getitem__, sg.guess)) for sg in guesses]
        # what is left of each declared score (see the class docstring)
        self.b_need = [sg.declared.black for sg in guesses]
        self.need = [sg.declared.color_matches for sg in guesses]

        # gcount[gi][s]: pegs of slot s in guess gi (slots it holds only)
        self.gcount = [Counter(p) for p in self.pegs]
        # by_color[s]: (guess, its peg count of s) for every guess holding s
        self.by_color = _columns(self.gcount)
        # top[s]: the most pegs of slot s in any guess; a slot with
        # cnt[s] >= top[s] can no longer change any match count (is inert)
        self.top = [0] * len(self.slots)
        for s, row in self.by_color.items():
            self.top[s] = max(t for _, t in row)

        # blocked[s]: saturated guesses (match total reached) that hold more
        # pegs of s than are placed; a guess declared (0, 0) starts saturated
        self.blocked = [0] * len(self.slots)
        for gi, gc in enumerate(self.gcount):
            if self.need[gi] == 0:
                for s in gc:
                    self.blocked[s] += 1

        # mutable search state
        self.cnt = [0] * len(self.slots)
        self.prefix = [0] * self.ell
        self.found = 0  # solutions so far; canonical mode while none
        self.witness = None  # node 0's witness, once the root check finds one

    def run(self, limit: int) -> list[Code]:
        """The first ``limit`` solutions; at the limit the loop stops, and the
        generators it abandons are freed as run returns.  The root check
        (_multiset_feasible) must not have refuted the instance."""
        # the positional table, built here, so a root-refuted call skips it.
        # at_pos[i][s]: (g, ahead) for each guess g whose open peg at
        # position i is s (a peg is open unless its slot is blocked from the
        # start), ahead being g's open pegs at positions >= i; a position
        # with no open peg holds the one shared empty dict
        empty: dict[int, tuple[tuple[int, int], ...]] = {}
        self.at_pos = [empty] * self.ell
        self.last_occ = [-1] * len(self.slots)  # the last position with s open
        ahead = [0] * len(self.pegs)
        for i in reversed(range(self.ell)):
            here: dict[int, list[tuple[int, int]]] = {}
            for gi, p in enumerate(self.pegs):
                if not self.blocked[p[i]]:
                    ahead[gi] += 1
                    here.setdefault(p[i], []).append((gi, ahead[gi]))
            if here:
                self.at_pos[i] = {s: tuple(hits) for s, hits in here.items()}
            for s in here:
                if self.last_occ[s] < 0:
                    self.last_occ[s] = i
        # one _dfs generator per node on an explicit stack, so the depth is
        # not bounded by the interpreter's recursion limit
        codes: list[Code] = []
        stack = [self._dfs(0, 0, -1, self.witness)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            elif child[0] < self.ell:
                stack.append(self._dfs(*child))
            else:
                codes.append(tuple(self.prefix))
                self.found += 1
                if self.found == limit:
                    break
        return codes

    def _dfs(self, i: int, floor_c: int, floor_pos: int,
             w: list[int] | None) -> Iterator[tuple[int, int, int, list[int] | None]]:
        # yields each child (i + 1, floor, witness), a solution at i + 1 ==
        # ell, and resumes once run has searched or collected it; the floor
        # starts at (0, -1), below every slot and position, and only
        # canonical stream placements raise it; until then nothing is skipped
        ell, b_need, need = self.ell, self.b_need, self.need
        cnt, blocked = self.cnt, self.blocked
        last = i + 1 == ell
        at_i = self.at_pos[i]

        # the black rule and need > rem for every placement at once (see the
        # class docstring)
        full = []
        forced = 0
        for s, hits in at_i.items():
            for gi, ahead in hits:
                if not b_need[gi]:
                    full.append(s)
                elif b_need[gi] == ahead:
                    if forced and forced != s:
                        return
                    forced = s
        urgent = []
        for gi, left in enumerate(need):
            if left == ell - i:
                urgent.append(gi)

        idle_empty = False
        for s in range(forced, forced + 1) if forced else range(1, self.nslots + 1):
            if blocked[s] or s in full:
                continue
            if s < floor_c and self.last_occ[s] < floor_pos:
                continue
            hits = at_i.get(s, ())
            k = cnt[s]
            inert = k >= self.top[s]
            idle = inert and not hits
            if idle and idle_empty:
                continue
            # as s is not blocked, none of the guesses it bumps is saturated
            bumps = []
            if not inert:
                for gi, t in self.by_color[s]:
                    if t > k:
                        bumps.append(gi)
            ok = True
            for gi in urgent:
                if gi not in bumps:
                    ok = False
                    break
            if not ok:
                continue

            for gi, _ in hits:
                b_need[gi] -= 1
            for gi in bumps:
                need[gi] -= 1
            cnt[s] = k + 1
            colors = self.slots[s]

            raised = not self.found and s >= floor_c and self.last_occ[s] < i
            if raised:
                nf_c, nf_p = s, i  # ascend-only floor update
            else:
                nf_c, nf_p = floor_c, floor_pos
            # a guess saturated by this placement blocks its unfilled slots,
            # which lowers the gain of the guesses holding them, so the gain
            # is tested again
            newly = []
            for gi in bumps:
                if not need[gi]:
                    for s2, t in self.gcount[gi].items():
                        if t > cnt[s2]:
                            newly.append(s2)
            for s2 in newly:
                blocked[s2] += 1
            used = -1  # the witness entry this placement draws, if any
            cw = None
            if ok and not last:
                if (raised or newly) and not self._gain_reaches(nf_c, nf_p):
                    ok = False
                elif w is not None and (w[s] or inert and w[0]):
                    used = s if w[s] else 0
                    w[used] -= 1
                    cw = w
                else:
                    cw = [0] * (self.nslots + 1)
                    verdict = self._residual_feasible(i, cw)
                    ok = verdict is not False
                    if not verdict:
                        cw = None
            seen = self.found  # an idle placement that adds nothing ends the slot
            for c in colors:
                if ok:
                    self.prefix[i] = c
                    yield i + 1, nf_c, nf_p, cw
                if idle and self.found == seen:
                    idle_empty = True
                    break
            if used >= 0:
                w[used] += 1
            for s2 in newly:
                blocked[s2] -= 1

            cnt[s] = k
            for gi in bumps:
                need[gi] += 1
            for gi, _ in hits:
                b_need[gi] += 1

    def _gain_reaches(self, floor_c: int, floor_pos: int) -> bool:
        """Can every guess still gain its need from the slots that are
        neither blocked nor below the floor?"""
        cnt, blocked, last_occ = self.cnt, self.blocked, self.last_occ
        for gi, need in enumerate(self.need):
            if need == 0:
                continue
            gain = 0
            for s, t in self.gcount[gi].items():
                # the ascending stream never revisits slots below the floor
                # (ascend-only floor updates make this permanent; the floor
                # rises only in canonical mode)
                if blocked[s] or (s < floor_c and last_occ[s] < floor_pos):
                    continue
                d = t - cnt[s]
                if d > 0:
                    gain += d
                    if gain >= need:
                        break
            if gain < need:
                return False
        return True

    def _residual_feasible(self, i: int, witness: list[int]) -> bool | None:
        """Multiset check on what is left after position i; False is a proof,
        and on True ``witness`` holds the multiset found."""
        return _system_feasible(self.ell - i - 1, self.by_color, self.cnt, self.need,
                                _CHECK_BUDGET, witness)
