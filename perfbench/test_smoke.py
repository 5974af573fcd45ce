"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs untraced and traced, its oracle passes, and each run
reports exactly the metrics BENCHMARK.json names.  Nothing here asserts
on timing.
"""

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import programs
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Each measurement runs in a fresh process, as the benchmark always does:
# ozk keeps parse caches for the life of a process.
MEASURE = """
import json, sys
import programs, run
result, lines = run.measure(sys.argv[1], int(sys.argv[2]), 0.05,
                            int(sys.argv[3]), sizes=programs.TINY,
                            setup_starts=1)
print(json.dumps([result, lines]))
"""


def measure_fresh(name: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, "-c", MEASURE, name, str(seed), str(trace)],
        cwd=run.HERE, capture_output=True, text=True, timeout=120,
        check=True)
    result, lines = json.loads(proc.stdout.splitlines()[-1])
    return result, lines


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", programs.WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(name):
    result, lines = measure_fresh(name, 1, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = {k: v["unit"] for k, v in result["metrics"].items()}
    assert metrics == _declared("end_to_end")
    assert any(line.startswith("error_rate") for line in lines)


@pytest.mark.parametrize("name", programs.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name):
    result, _ = measure_fresh(name, 1, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["unit"] for k, v in result["metrics"].items()}
    assert metrics == _declared("per_layer")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["runtime.reductions"] > 0
    assert values["parser.calls"] > 0
    if name == "search_queens":
        assert values["search.solutions"] == 2 * len(
            programs.queens_solutions(programs.TINY[name]["n"]))
    if name == "dist_stream":
        cells = programs.TINY[name]["cells"]
        assert values["dist.delivered.Register"] == 2 * (cells + 1)
        assert values["dist.delivered.BindNotify"] == 2 * (cells + 1)


@pytest.mark.parametrize("name", programs.WORKLOADS)
def test_traced_counts_repeat(name):
    def counts():
        result, _ = measure_fresh(name, 4, trace=1)
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] == "count"}
    assert counts() == counts()


def test_oracles_reject_wrong_answers():
    wl = run.import_workloads().build(
        "dataflow", programs.make_inputs("dataflow", 2, programs.TINY))
    out = wl.op()
    assert wl.check(out)[0] == []
    out.results[0].browses[0] = "r(0 0 0)"
    assert wl.check(out)[0] != []


def test_queens_oracle_counts():
    assert len(programs.queens_solutions(8)) == 92
    assert len(programs.queens_solutions(5)) == 10


def test_repl_chunk_values_match_ozk():
    inputs = programs.make_inputs("repl_session", 9, programs.TINY)
    wl = run.import_workloads().build("repl_session", inputs)
    wl.begin_unit()
    for _ in range(wl.unit_ops):
        assert wl.check(wl.op())[0] == []


def test_fails_without_the_source_tree(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(run.HERE).glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dataflow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calibration_pass_leaves_the_collector_as_it_was():
    assert calibrate.pass_seconds() > 0
    assert gc.get_freeze_count() == 0 and gc.isenabled()
