"""Smoke test of the benchmark itself:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every workload's plan builds without repeating an input, that
an end-to-end and a traced run emit exactly the metrics BENCHMARK.json names,
with their units, and that a directory without the package makes the
benchmark exit non-zero without a result. About 20 s on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_plan_never_repeats_an_input(name):
    plan = workloads.build_plan(name, seed=3, seconds=SPEC["run_seconds"])
    keys = [tuple(x.gates if isinstance(x, workloads.Circuit) else x for x in op.inputs)
            for op in plan]
    assert plan and len(set(keys)) == len(keys)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_emits_every_named_metric(trace, section):
    r = _run("--workload", "stabilizer-wide", "--seed", "5", "--seconds", "1",
             "--trace", trace)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for name, unit in want.items():  # printed by name, with the unit, before the result
        assert any(ln.startswith(f"{name} = ") and ln.endswith(unit) for ln in lines)
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[7:])
    assert record["environment"]["src_lines"] > 0
    if trace == "1":
        assert record["untraced_counts_digest"] == record["counts_digest"]
        assert not record["missing_functions"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = _run("--workload", "stabilizer-wide", "--seed", "1", "--seconds", "1",
             "--trace", "0", cwd=tmp_path)
    assert r.returncode != 0 and r.stdout == ""
