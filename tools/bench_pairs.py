"""Compare two checkouts on the benchmark in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_2.json

For every workload in BENCHMARK.json, pair i of 10 runs perfbench/run.py
once in each checkout with seed `--seed + i` and the benchmark's own
run_seconds: the parent first on even pairs, the change first on odd ones.
Each end-to-end metric is summarised per side (median and quartiles of all
runs), with the number of pairs the change wins and whether the medians
differ by more than the parent's interquartile range. One traced run per side and workload (seed `--seed`) adds the
per-layer metrics. Runs are sequential; each prints its workload, side and
wall time to stderr.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PAIRS = 10


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    print(f"{workload} {checkout.name} seed={seed} trace={trace} "
          f"{time.perf_counter() - t0:.0f}s rc={out.returncode}", file=sys.stderr)
    if out.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("record "):
        raise RuntimeError(f"run failed in {checkout}: {out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads(lines[-2][len("record "):])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "record": record}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "runs": values}


def summarise(metric: dict, parent: list[dict], change: list[dict]) -> dict:
    name, sign = metric["name"], (1 if metric["better"] == "higher" else -1)
    pv = [r["metrics"][name] for r in parent]
    cv = [r["metrics"][name] for r in change]
    p, c = quartiles(pv), quartiles(cv)
    iqr = p["q3"] - p["q1"]
    worse = sign * (p["median"] - c["median"]) / abs(p["median"]) if p["median"] else 0.0
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": p, "change": c,
            "change_wins": sum(1 for a, b in zip(pv, cv) if sign * (b - a) > 0),
            "pairs": len(pv), "parent_iqr": iqr,
            "medians_differ_by_more_than_parent_iqr": abs(c["median"] - p["median"]) > iqr,
            "relative_worsening": worse, "within_bound": worse <= metric["bound"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=7001)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {"command": "perfbench/run.py", "seconds": seconds, "pairs": PAIRS,
              "seeds": [args.seed + i for i in range(PAIRS)], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run(sides[side], name, args.seed + i, seconds, 0))
        traced = {side: run(path, name, args.seed, seconds, 1) for side, path in sides.items()}
        report["workloads"][name] = {
            "end_to_end": {m["name"]: summarise(m, runs["parent"], runs["change"])
                           for m in spec["end_to_end"]},
            "all_correct": all(r["correct"] for rs in runs.values() for r in rs),
            "counts_digests_per_pair": [
                {"seed": args.seed + i, "parent": p["record"]["counts_digest"],
                 "change": c["record"]["counts_digest"]}
                for i, (p, c) in enumerate(zip(runs["parent"], runs["change"]))],
            "traced": {side: {"seed": args.seed, "metrics": t["metrics"],
                              "counts_digest": t["record"]["counts_digest"]}
                       for side, t in traced.items()},
        }
        for side in sides:
            env = runs[side][0]["record"]["environment"]
            report[side] = {k: env[k] for k in ("git_sha", "src_lines", "src_sha256")}
        report["environment"] = {k: env[k] for k in ("nproc", "affinity", "machine", "python",
                                                     "numpy", "blas", "blas_threads")}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
