"""charforge benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ./src. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones; with --trace 1
this process first runs the same workload and seed untraced in a child
process, then runs it traced here and reports per-layer metrics, the tracing
overhead, and whether the deterministic counts of both runs agree. Lines
before the last one name every metric with its unit, then give a `record`
line of JSON with the environment, sample counts and counts digest.

End-to-end times are given at reference machine speed: each wall time is
divided by the machine's speed at that moment, measured by a small probe
that runs on a timer beside the operations (speed.py). The record line also
holds the same metrics from the raw wall clock.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread: on two shared vCPUs a second BLAS thread bought no speed
# (analyze-groups ran 10% slower with it) and made times depend on the load
# the host puts on the other vCPU. Set before numpy is first imported; the
# set-up children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
SETUP_SAMPLES = 5          # in-process set-up plus four fresh child processes
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac",
                    "gates_out_ratio": "ratio"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time import and input generation, print it, exit (used for setup_s)")
    return p.parse_args(argv)


def _setup(args):
    """Import charforge and generate the workload's inputs; returns the
    workloads module, the plan, the seconds it took and those seconds at
    reference machine speed (the probe runs after the set-up, so that the
    set-up still pays for importing numpy)."""
    t0 = time.perf_counter()
    import workloads
    plan = workloads.build_plan(args.workload, args.seed, args.seconds)
    raw = time.perf_counter() - t0
    import speed
    return workloads, plan, raw, raw / speed.factor_now()


def _child(args, *extra) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"child {' '.join(extra)} exited {r.returncode}: {r.stderr[-2000:]}")
    return r


def _run_plan(plan, probe=True):
    """The timed phase: every op back to back, one client, closed loop.
    Returns results, wall latencies, reference-speed latencies (None
    without `probe`; see speed.py), exceptions and the phase's wall time.
    A latency never includes the probes that ran inside it."""
    import speed
    results, spans, raised = [], [], []
    clock = time.perf_counter
    with (speed.Meter() if probe else contextlib.nullcontext()) as meter:
        start = clock()
        for op in plan:
            t0 = clock()
            try:
                out, err = op.run(), None
            except Exception as exc:  # an op that raises is counted, never fatal
                out, err = exc, exc
            spans.append((t0, clock()))
            results.append(out)
            raised.append(err)
        wall = clock() - start
    if not probe:
        return results, [t1 - t0 for t0, t1 in spans], None, raised, wall
    latencies = [t1 - t0 - meter.probe_seconds(t0, t1) for t0, t1 in spans]
    scaled = [lat / meter.factor(t0, t1) for lat, (t0, t1) in zip(latencies, spans)]
    return results, latencies, scaled, raised, wall - meter.probe_seconds(start, start + wall)


def _check(plan, results, raised):
    """Output checks, after the timed phase. Returns per-op failure reasons
    (None for a success) and the per-op deterministic counts."""
    reasons, counts = [], []
    for op, out, err in zip(plan, results, raised):
        try:
            if err is not None:
                if op.expect_error and isinstance(err, op.expect_error):
                    reason = None
                else:
                    reason = f"{op.kind}: raised {type(err).__name__}: {err}"
            else:
                reason = op.check(out)
            cnt = op.counts(out) if err is None else (type(err).__name__,)
        except Exception as exc:  # a check that cannot run is a failed check
            reason, cnt = f"{op.kind}: check raised {type(exc).__name__}: {exc}", ("check-error",)
        reasons.append(reason)
        counts.append(cnt)
    return reasons, counts


def _percentile_ms(latencies, reasons, q):
    """Nearest-rank percentile; a failed op ranks beyond every success."""
    ranked = sorted(lat if r is None else math.inf for lat, r in zip(latencies, reasons))
    v = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    return None if math.isinf(v) else v * 1000.0


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # show_config's layout varies across numpy versions
        blas_version = "unknown"
    files = sorted((SRC / "charforge").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def _digest(counts) -> str:
    return hashlib.sha256(json.dumps(counts).encode()).hexdigest()[:16]


def _print_metrics(metrics, units):
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {units[name]}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "charforge" / "__init__.py").is_file():
        print(f"run.py: no charforge package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        workloads, plan, setup_raw_s, setup_s = _setup(args)
    except ValueError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup_raw_s, setup_s)
        return 0

    # end-to-end runs repeat the set-up in fresh processes, so that setup_s
    # is a median of cold imports; a traced run instead runs the whole
    # workload untraced in a child, for the overhead and the counts check
    setup_samples, setup_raw = [setup_s], [setup_raw_s]
    untraced = None
    if args.trace:
        r = _child(args, "--trace", "0")
        untraced = json.loads(next(ln for ln in r.stdout.splitlines()
                                   if ln.startswith("record "))[len("record "):])
    else:
        for _ in range(SETUP_SAMPLES - 1):
            raw, scaled = _child(args, "--setup-only").stdout.split()[-2:]
            setup_raw.append(float(raw))
            setup_samples.append(float(scaled))

    if args.trace:
        import spantrace
        with spantrace.Tracer([workloads]) as tracer:
            results, latencies, scaled, raised, wall = _run_plan(plan, probe=False)
    else:
        results, latencies, scaled, raised, wall = _run_plan(plan)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reasons, counts = _check(plan, results, raised)

    n = len(plan)
    failed = sum(r is not None for r in reasons)
    for r in reasons:
        if r is not None:
            print(f"failed: {r}")
    digest = _digest(counts)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": workloads.cycles_for(args.workload, args.seconds),
        "attempted": n, "failed": failed, "failed_frac": failed / n,
        "timed_wall_s": wall, "ops_wall_s": sum(latencies), "latency_samples": n,
        "samples_beyond_p90": n - math.ceil(0.9 * n),
        "counts_digest": digest, "environment": _environment(),
    }
    correct = True

    if args.trace:
        metrics = spantrace.layer_metrics(tracer, wall)
        metrics["trace.wall_s"] = wall
        metrics["trace.overhead_s"] = sum(latencies) - untraced["ops_wall_s"]
        record["untraced_counts_digest"] = untraced["counts_digest"]
        record["missing_functions"] = tracer.missing
        if untraced["counts_digest"] != digest:
            print("failed: deterministic counts differ between the traced and untraced runs")
            correct = False
        units = {k: spantrace.unit(k) for k in metrics}
    else:
        ok = n - failed
        # (gates in, gates out, ...) of every optimize call that returned
        opt = [c for c, err in zip(counts, raised) if err is None] \
            if args.workload == "optimize-suites" else []
        # times at reference machine speed (see speed.py); the raw wall-clock
        # figures go into the record
        metrics = {
            "ops_per_s": ok / sum(scaled),
            "op_p50_ms": _percentile_ms(scaled, reasons, 0.5),
            "op_p90_ms": _percentile_ms(scaled, reasons, 0.9),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": ok / n,
            # workloads that rewrite no circuit hand back as many gates as they take
            "gates_out_ratio": (sum(c[1] for c in opt) / sum(c[0] for c in opt)) if opt else 1.0,
        }
        record["setup_samples_s"] = setup_samples
        record["raw_wall_clock"] = {
            "ops_per_s": ok / sum(latencies),
            "op_p50_ms": _percentile_ms(latencies, reasons, 0.5),
            "op_p90_ms": _percentile_ms(latencies, reasons, 0.9),
            "setup_s": statistics.median(setup_raw),
            "speed_factor": sum(latencies) / sum(scaled)}
        kinds = {}
        for op, lat, r in zip(plan, scaled, reasons):
            kinds.setdefault(op.kind, []).append(lat * 1000.0 if r is None else math.inf)
        record["median_ms_by_kind"] = {  # None: most ops of that kind failed
            k: None if math.isinf(m) else m
            for k, m in ((k, statistics.median(v)) for k, v in kinds.items())}
        units = END_TO_END_UNITS

    # a returned output that fails its check makes the run incorrect; an op
    # that raised is counted in `failed` and ok_frac but returned nothing wrong
    if any(r is not None and err is None for r, err in zip(reasons, raised)):
        correct = False
    _print_metrics(metrics, units)
    print(f"samples: {n} operations, {record['samples_beyond_p90']} beyond op_p90_ms")
    print("record " + json.dumps(record, default=str))
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
