"""Spans at mspkit's layer boundaries, recorded from outside the package.

``Tracer.install()`` replaces functions on the imported modules with
wrappers that record a span (id, name, start, end, parent span, operation
id) in memory.  A function imported elsewhere with ``from ... import`` is
replaced in every ``mspkit`` module that holds it, so ``mspkit.cli.solve``
and ``mspkit.uniqueness.solve`` are traced like ``mspkit.solver.solve``.
Private solver boundaries are looked up by name; a missing one is listed
in ``absent`` and its metrics stay at zero instead of stopping the run.

Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, function); parse spans also count the bytes parsed.
FUNCTIONS = (
    ("solver.solve", "mspkit.solver", "solve"),
    ("solver.enumerate", "mspkit.solver", "enumerate_all"),
    ("solver.verify", "mspkit.solver", "verify"),
    ("solver.root", "mspkit.solver", "_multiset_feasible"),
    ("core.validate", "mspkit.core", "validate_code"),
    ("uniqueness.is_unique", "mspkit.uniqueness", "is_unique"),
    ("io.parse", "mspkit.io", "parse_instance"),
    ("io.parse", "mspkit.io", "parse_graph"),
    ("io.serialize", "mspkit.io", "serialize_instance"),
    ("io.serialize", "mspkit.io", "serialize_graph"),
    ("cli.main", "mspkit.cli", "main"),
    ("reduction.reduce", "mspkit.reduction", "reduce_vertex_cover"),
    ("reduction.witness", "mspkit.reduction", "construct_witness"),
    ("reduction.extract", "mspkit.reduction", "extract_cover"),
    ("reduction.oracle", "mspkit.reduction", "brute_force_vertex_cover"),
)
# (span name, module, class, method)
METHODS = (
    ("solver.setup", "mspkit.solver", "_Search", "__init__"),
    ("solver.search", "mspkit.solver", "_Search", "run"),
    ("solver.residual", "mspkit.solver", "_Search", "_residual_feasible"),
)
# search nodes are counted, not spanned: one per call of this method
NODES = ("mspkit.solver", "_Search", "_dfs")
# multiset checks return False (refuted), None (budget exhausted) or True
VERDICTS = ("solver.root", "solver.residual")
# public calls whose time the solver parts should account for, per operation
WRAPPERS = ("solver.solve", "solver.enumerate", "solver.verify")
COVERAGE_FLOOR = 0.95


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.ids = itertools.count(1)
        self.op = 0
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def _wrap(self, name, fn):
        spans, stack, ids, counts = self.spans, self.stack, self.ids, self.counts
        verdicts = name in VERDICTS
        parse = name == "io.parse"

        # The span also covers this wrapper's own bookkeeping, so the
        # tracer's cost lands in the callee and not in the caller's self time.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            sid = next(ids)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                if verdicts:
                    counts[name, result] += 1
                elif parse:
                    counts["io.parse.bytes"] += len(args[0])
                return result
            finally:
                stack.pop()
                spans.append((sid, name, start, perf_counter(),
                              stack[-1] if stack else None, self.op))

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "mspkit" or n.startswith("mspkit."))]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            original = getattr(cls, attr, None)
            if original is None:
                self.absent.append(f"{modname}.{clsname}.{attr}")
                continue
            setattr(cls, attr, self._wrap(name, original))
        modname, clsname, attr = NODES
        cls = getattr(sys.modules.get(modname), clsname, None)
        original = getattr(cls, attr, None)
        if original is None:
            self.absent.append(f"{modname}.{clsname}.{attr}")
            return
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts["solver.search.nodes"] += 1
            return original(*args, **kwargs)

        setattr(cls, attr, counted)

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")

    def analyse(self):
        """Totals per span name (calls, seconds, self seconds), and coverage.

        Coverage is taken per operation (one timed call of the runner): the
        share of its outermost solve / enumerate_all / verify time that the
        solver parts account for.  Under solve and enumerate_all the parts
        are their children (setup, root check, search with its residual
        checks), so what is left out is their own self time; a verify call
        is itself the verification part, validation included.  Reported are
        the number of such operations, the smallest share and the fraction
        of operations below ``COVERAGE_FLOOR``.
        """
        by_id = {s[0]: s for s in self.spans}
        covered = defaultdict(float)
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
                children[parent].append(sid)
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - covered[sid]
        wrapped, outside = defaultdict(float), defaultdict(float)
        for sid, name, start, end, parent, op in self.spans:
            if name not in WRAPPERS:
                continue
            if parent is None or by_id[parent][1] not in WRAPPERS:
                wrapped[op] += end - start
            if name != "solver.verify":
                outside[op] += end - start - covered[sid]
        shares = [1.0 - outside[op] / wrapped[op] for op in wrapped if wrapped[op]]
        coverage = {
            "ops": len(shares),
            "min": min(shares, default=1.0),
            "below_floor": (sum(share < COVERAGE_FLOOR for share in shares)
                            / len(shares) if shares else 0.0),
        }

        followups, followup_s = 0, 0.0
        for sid, name, *_ in self.spans:
            if name != "uniqueness.is_unique":
                continue
            solves = sorted((by_id[c][2], by_id[c][3]) for c in children[sid]
                            if by_id[c][1] == "solver.solve")
            followups += max(len(solves) - 1, 0)
            followup_s += sum(end - start for start, end in solves[1:])
        return calls, total, self_s, coverage, followups, followup_s

    def layer_metrics(self, cli_failures: int):
        calls, total, self_s, coverage, followups, followup_s = self.analyse()
        counts = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for name in VERDICTS:
            refuted, exhausted = counts[name, False], counts[name, None]
            out.update({
                f"{name}.calls": calls[name],
                f"{name}.s": total[name],
                f"{name}.refuted": refuted,
                f"{name}.exhausted": exhausted,
                f"{name}.refute_ratio": ratio(refuted, calls[name]),
            })
        nodes = counts["solver.search.nodes"]
        out.update({
            "solver.search.self_s": self_s["solver.search"],
            "solver.search.nodes": nodes,
            "solver.search.nodes_per_s": ratio(nodes, self_s["solver.search"]),
            "solver.setup.s": total["solver.setup"],
            "solver.verify.calls": calls["solver.verify"],
            "solver.verify.s": total["solver.verify"],
            "core.validate.calls": calls["core.validate"],
            "core.validate.s": total["core.validate"],
            "uniqueness.calls": calls["uniqueness.is_unique"],
            "uniqueness.s": total["uniqueness.is_unique"],
            "uniqueness.followups": followups,
            "uniqueness.followup_solve_s": followup_s,
            "uniqueness.self_s": self_s["uniqueness.is_unique"],
            "io.parse.calls": calls["io.parse"],
            "io.parse.s": total["io.parse"],
            "io.parse.bytes_per_s": ratio(counts["io.parse.bytes"], total["io.parse"]),
            "io.serialize.s": total["io.serialize"],
            "cli.calls": calls["cli.main"],
            "cli.self_s": self_s["cli.main"],
            "cli.exit_mismatch": cli_failures,
            "reduction.reduce_s": total["reduction.reduce"],
            "reduction.witness_s": total["reduction.witness"],
            "reduction.extract_s": total["reduction.extract"],
            "reduction.oracle_s": total["reduction.oracle"],
        })
        return out, coverage
