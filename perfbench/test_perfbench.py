"""The benchmark's own tests: small smoke runs, oracles, failure accounting.

    python3 -m pytest -q perfbench

Workload sizes are shrunk through the module constants, so each smoke run
takes a few seconds; the code paths are the benchmark's own.
"""

import argparse
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import record  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "ROUNDTRIP_GRAPHS_PER_SIZE", 2)
    monkeypatch.setattr(workloads, "FIXTURES", ("c5", "k3", "p3", "single_edge"))
    monkeypatch.setattr(workloads, "GAMES_PER_SHAPE", 1)
    monkeypatch.setattr(workloads, "SPARSE_PER_KAPPA", 1)
    monkeypatch.setattr(workloads, "HUB_SIZES", (25,))
    monkeypatch.setattr(workloads, "HUBS_PER_SIZE", 1)
    monkeypatch.setattr(workloads, "HUB_SLOTS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path / "spans")


def measure(tmp_path, workload, trace=0, seed=3):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0, trace=trace)
    out = io.StringIO()
    record_, correct = run.measure(args, tmp_path, out)
    return record_, correct, out.getvalue()


def allowed_failures(workload):
    # the only known failures: RecursionError past ~1000 colours on wide
    return {"solve RecursionError", "cli RecursionError"} if workload == "wide" else set()


@pytest.mark.parametrize("workload", ["roundtrip", "game", "wide"])
def test_smoke_every_metric_present_and_oracles_agree(tmp_path, workload):
    rec, correct, _ = measure(tmp_path, workload)
    assert correct and rec["mismatches"] == 0
    assert set(rec["failures"]) <= allowed_failures(workload)
    line = run.contract_line(rec, correct, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(line["metrics"])
    assert all(v["value"] > 0 for v in line["metrics"].values())
    env = rec["env"]
    for key in ("nproc", "python", "platform", "commit", "seed", "call_limit_s", "trace"):
        assert key in env


@pytest.mark.parametrize("workload", ["roundtrip", "game", "wide"])
def test_traced_run_reports_layers_that_add_up(tmp_path, workload):
    rec, correct, _ = measure(tmp_path, workload, trace=1)
    assert correct and rec["absent_hooks"] == []
    line = run.contract_line(rec, correct, 1)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(line["metrics"])
    m = rec["metrics"]
    assert m["solver.root.calls"] > 0 and m["solver.setup.s"] > 0
    assert (m["uniqueness.calls"] > 0) == (workload == "game")
    assert (m["cli.calls"] > 0) == (workload == "wide")
    assert (m["reduction.reduce_s"] > 0) == (workload != "game")
    # A missing solver part leaves most operations short of the floor.  A
    # single short solve can miss it when the machine stalls inside its own
    # code, so the test bounds the share of operations below the floor.
    coverage = rec["coverage"]
    assert coverage["ops"] > 0 and coverage["min"] <= 1.0 + 1e-9
    assert coverage["below_floor"] <= 0.05, coverage
    assert rec["trace_overhead"] > -1.0
    assert (tmp_path / "spans" / f"spans-{workload}-3.jsonl").is_file()


def test_same_seed_same_digest(tmp_path):
    digests = [run.set_up("game", seed, tmp_path)[2] for seed in (5, 5, 6)]
    assert digests[0] == digests[1] != digests[2]


def test_wrong_answer_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "is_cover", lambda edges, chosen: False)
    rec, correct, out = measure(tmp_path, "roundtrip")
    assert not correct and rec["mismatches"] > 0
    assert rec["metrics"]["failed_frac"] > 0
    assert "FAIL extract mismatch" in out


def test_timeout_enters_latency_at_the_limit():
    runner = run.Runner(0.05, out=io.StringIO())
    run.signal.signal(run.signal.SIGALRM, run._alarm)
    case = workloads.Case("k", "sleeper", lambda call, check: call("solve", time.sleep, 2))
    start = time.perf_counter()
    runner.run_case(case)
    assert time.perf_counter() - start < 1
    assert runner.timeouts == 1 and runner.failed == 1 and runner.completed == 0
    assert runner.samples["solve"] == [50.0]


def test_compare_refuses_different_digests(tmp_path):
    def rec(digest):
        metrics = {m["name"]: {"median": 1.0} for m in BENCHMARK["end_to_end"]}
        return {"workloads": {"game": {"digests": {"1": digest}, "metrics": metrics}}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(rec("x")))
    b.write_text(json.dumps(rec("x")))
    assert record.main(["compare", str(a), str(b)]) == 0
    b.write_text(json.dumps(rec("y")))
    with pytest.raises(SystemExit, match="different input digests"):
        record.main(["compare", str(a), str(b)])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "game",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spec_covers_every_metric_and_workload():
    spec = json.loads((HERE / "spec.json").read_text())
    assert sorted(spec["workloads"]) == sorted(w["name"] for w in BENCHMARK["workloads"])
    assert sorted(spec["workloads"]) == sorted(workloads.WORKLOADS)
    named = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert named <= set(spec["metrics"])
    gated = {name for name, m in spec["metrics"].items() if m.get("gated")}
    assert gated == {m["name"] for m in BENCHMARK["end_to_end"]}
