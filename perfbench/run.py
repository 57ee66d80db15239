"""Closed-loop benchmark of mspkit's public API.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

One process, one caller, no threads: each call into the package starts
after the previous one returned.  The run imports ``mspkit`` from ``src/``
of the checkout it sits in, builds the workload's inputs from ``--seed``
(``workloads.py``), times every call under a per-call limit enforced with
``signal.setitimer``, and checks every answer against an oracle.

A run sets up ``SETUP_REPEATS`` times, and more while the set-ups have
taken less than ``SETUP_SECONDS`` (fresh import, inputs, instances, oracle
answers, files), and reports the median as ``setup_s``.  It then runs
whole passes over the cases, at least one, while the next pass is expected
to end within ``--seconds``.  A traced run (``--trace 1``) sets up once
with the layer wrappers of ``tracing.py`` installed, runs exactly one pass,
writes its spans under ``.perfbench-out/`` and reports per-layer metrics
only.  In that pass every case also runs untraced, right before or after
its traced run, on a second set-up made without the wrappers; the ratio of
the two instance-latency geometric means is the tracing overhead.

A call that raises, overruns its limit or disagrees with its oracle is
failed: it is printed with its input, counted against the calls attempted,
and enters the latency samples at the time limit.  Output: ``FAIL`` lines,
then ``RECORD`` and the full record (environment, digest of the inputs,
every metric), then, as the last line, the result the benchmark contract
asks for with the metrics ``BENCHMARK.json`` names for the mode.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "spec.json").read_text())
SPANS_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


class CallTimeout(BaseException):
    """Raised by SIGALRM inside a call that overran its limit."""


class _Abort(Exception):
    """Stops the current case after one of its calls failed."""


def _alarm(signum, frame):
    raise CallTimeout


def import_package():
    """Import mspkit afresh from ``src/`` of this checkout."""
    if not (SRC / "mspkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no mspkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "mspkit" or n.startswith("mspkit.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mspkit")
    if Path(pkg.__file__).resolve().parent != SRC / "mspkit":
        raise SystemExit(f"error: imported mspkit from {pkg.__file__}, not {SRC}")
    return pkg, importlib.import_module("mspkit.cli")


def set_up(workload, seed, workdir, tracer=None):
    start = perf_counter()
    pkg, cli = import_package()
    if tracer is not None:
        tracer.install()
    cases = workloads.WORKLOADS[workload](pkg, cli, random.Random(seed), workdir)
    digest = hashlib.sha256("\n".join(c.key for c in cases).encode()).hexdigest()
    return perf_counter() - start, cases, digest


class Runner:
    """Times calls, applies oracle checks and keeps the samples."""

    def __init__(self, limit_s, tracer=None, out=sys.stdout):
        self.limit_s = limit_s
        self.tracer = tracer
        self.out = out
        self.samples = defaultdict(list)   # op -> latency in ms
        self.instance_ms = []
        self.attempted = 0
        self.completed = 0
        self.failures = Counter()          # (op, kind) -> count
        self.mismatches = 0
        self.timeouts = 0
        self._calls = []
        self._label = ""

    def call(self, op, fn, *args, **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        entry = [op, 0.0, False]
        self._calls.append(entry)
        try:
            signal.setitimer(signal.ITIMER_REAL, self.limit_s)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CallTimeout:
            self.timeouts += 1
            self._fail(entry, "timeout", f"over the {self.limit_s} s limit")
        except Exception as exc:
            self._fail(entry, type(exc).__name__, str(exc)[:200])
        entry[1] = elapsed * 1000.0
        return result

    def check(self, ok, what):
        if not ok:
            self.mismatches += 1
            self._fail(self._calls[-1], "mismatch", what)

    def _fail(self, entry, kind, detail):
        entry[2] = True
        self.failures[entry[0], kind] += 1
        print(f"FAIL {entry[0]} {kind}: {detail} | input: {self._label}", file=self.out)
        raise _Abort

    def run_case(self, case):
        self._calls = []
        self._label = case.label
        try:
            case.run(self.call, self.check)
        except _Abort:
            pass
        total, failed = 0.0, False
        for op, ms, bad in self._calls:
            if bad:
                ms, failed = self.limit_s * 1000.0, True
            self.samples[op].append(ms)
            total += ms
        self.instance_ms.append(total)
        self.completed += not failed

    @property
    def failed(self):
        return sum(self.failures.values())


def _p(samples, q):
    """The q-th percentile (inclusive method) of at least one sample."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, limit_s):
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "call_limit_s": limit_s,
        "trace": bool(args.trace),
    }


def end_to_end(runner, setups, wall):
    metrics = {
        "setup_s": statistics.median(setups),
        "instances_per_s": runner.completed / wall,
        "instance_ms_geomean": statistics.geometric_mean(runner.instance_ms),
        "instance_ms_p50": _p(runner.instance_ms, 50),
        "instance_ms_p90": _p(runner.instance_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": runner.failed / runner.attempted,
        "timeout_frac": runner.timeouts / runner.attempted,
    }
    for op, samples in sorted(runner.samples.items()):
        metrics[f"{op}_ms_geomean"] = statistics.geometric_mean(samples)
        metrics[f"{op}_ms_p50"] = _p(samples, 50)
        metrics[f"{op}_ms_p90"] = _p(samples, 90)
    return metrics


def measure(args, workdir, out=sys.stdout):
    """Set up, run, check; return (record, correct) for one workload run."""
    spec = SPEC["workloads"][args.workload]
    limit_s = spec["call_limit_s"]
    tracer = Tracer() if args.trace else None
    if tracer:
        # untraced twins of the cases, set up before the tracer is installed
        twins = set_up(args.workload, args.seed, workdir)[1]
    setups = []
    while not setups or not tracer and (len(setups) < SETUP_REPEATS
                                        or sum(setups) < SETUP_SECONDS):
        cases = None
        gc.collect()
        elapsed, cases, digest = set_up(args.workload, args.seed, workdir, tracer)
        setups.append(elapsed)
    runner = Runner(limit_s, tracer, out)
    signal.signal(signal.SIGALRM, _alarm)
    gc.collect()
    start = perf_counter()
    passes = 0
    if tracer:
        # One pass; each case runs traced and untraced back to back, which
        # goes first alternating, so both see the same machine speed.
        plain = Runner(limit_s, out=io.StringIO())
        for i, (case, twin) in enumerate(zip(cases, twins)):
            pair = [(runner, case), (plain, twin)]
            for each, c in pair[::-1] if i % 2 else pair:
                each.run_case(c)
        passes = 1
    while not tracer:
        pass_start = perf_counter()
        for case in cases:
            runner.run_case(case)
        passes += 1
        now = perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break
    wall = perf_counter() - start
    record = {
        "workload": args.workload,
        "digest": digest,
        "env": environment(args, limit_s),
        "passes": passes,
        "setup_runs_s": setups,
        "cases": len(cases),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "mismatches": runner.mismatches,
        "failures": {f"{op} {kind}": n for (op, kind), n in sorted(runner.failures.items())},
        "samples": {op: len(s) for op, s in sorted(runner.samples.items())},
        "measured_s": wall,
    }
    if tracer:
        cli_failed = sum(n for (op, _), n in runner.failures.items() if op == "cli")
        metrics, coverage = tracer.layer_metrics(cli_failed)
        record["coverage"] = coverage
        record["trace_overhead"] = (statistics.geometric_mean(runner.instance_ms)
                                    / statistics.geometric_mean(plain.instance_ms) - 1.0)
        record["absent_hooks"] = tracer.absent
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = end_to_end(runner, setups, wall)
    record["metrics"] = metrics
    return record, runner.mismatches == 0


def contract_line(record, correct, trace):
    """The final result line, with the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer" if trace else "end_to_end"]
    metrics = record["metrics"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: run did not produce {missing}")
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        record, correct = measure(args, Path(tmp))
    line = contract_line(record, correct, args.trace)
    print("RECORD " + json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
