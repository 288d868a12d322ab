"""Benchmark harness: build, optimize, time, and compare the four reference
algorithm families, emitting CSV, SVG, and histogram files.

Absolute runtimes are machine noise; the harness asserts nothing about them
and exists to emit the comparison artifacts. All non-timing outputs are
byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .characters import character_table
from .circuits import BenchmarkSpec, Circuit, build_benchmark, circuit_depth
from .complexity import CostParams, classify_group, estimate_cost
from .errors import CharforgeError, InvalidSpec
from .histogram import MeasurementHistogram, _is_int, check_seed, check_shots, check_type, histogram_csv, tv_distance
from .optimize import OptimizeConfig, _close, optimize
from .statevector import sv_run, time_gate_loop

SUITES = ("bv", "qft", "grover", "vqe")
# the cost model reads a character table of one segment group; groups with
# more classes than this are passed over
COST_MAX_CLASSES = 64

CSV_HEADER = "suite,n_qubits,variant,mean_ms,median_ms,stddev_ms,gates,depth,tv_distance,cost_model"


@dataclass(frozen=True)
class BenchConfig:
    suites: tuple[str, ...] = SUITES
    n_min: int = 2
    n_max: int = 6
    repeats: int = 100
    shots: int = 100_000
    seed: int = 42

    def __post_init__(self):
        for name in ("repeats", "n_min", "n_max"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise InvalidSpec(f"{name} must be an integer >= 1, got {value!r}")
        if self.n_max < self.n_min:
            raise InvalidSpec(f"n_max {self.n_max} is below n_min {self.n_min}")
        check_shots(self.shots)
        check_seed(self.seed)
        for s in self.suites:
            if s not in SUITES:
                raise InvalidSpec(f"unknown suite {s!r}; choose from {SUITES}")


@dataclass
class BenchRow:
    suite: str
    n_qubits: int
    variant: str  # original | optimized
    mean_ms: float
    median_ms: float
    stddev_ms: float
    gates: int
    depth: int
    tv_distance: float | None
    cost_model: float | None


@dataclass
class BenchResults:
    rows: list[BenchRow] = field(default_factory=list)
    histograms: dict[str, MeasurementHistogram] = field(default_factory=dict)
    failures: list[tuple[str, int, str]] = field(default_factory=list)


def _spec_for(suite: str, n: int, seed: int) -> BenchmarkSpec:
    rng = np.random.default_rng([seed, SUITES.index(suite), n])
    if suite == "bv":
        secret = "".join(str(b) for b in rng.integers(0, 2, size=n))
        return BenchmarkSpec(kind="bv", secret=secret)
    if suite == "qft":
        return BenchmarkSpec(kind="qft", width=n)
    if suite == "grover":
        return BenchmarkSpec(kind="grover", width=n, marked=int(rng.integers(1 << n)))
    return BenchmarkSpec(kind="vqe", width=n, layers=2, seed=int(rng.integers(2 ** 31)))


def _cost_for(report, circuit: Circuit, opt_cfg: OptimizeConfig) -> float | None:
    """Cost-model value from the largest closed segment group with at most
    COST_MAX_CLASSES classes (the first such on ties), taking the
    character-value cost g as 1 (a table lookup) for non-abelian cases. The
    closed segments are closed again, largest first, with the optimizer's caps,
    which gives the same groups, until one has few enough classes; its
    character table supplies the degrees. A segment closed part by part whose
    whole closure fails (parts' gates that collide over the whole support) is
    passed over."""
    body, cache = circuit.body_and_suffix()[0], {}
    closed = [s for s in report.segments if s.group_order is not None]
    for seg in sorted(closed, key=lambda s: -s.group_order):
        whole = _close(list(body[seg.start:seg.end]), opt_cfg, cache)
        if not isinstance(whole, str) and (k := len(whole.group.classes)) <= COST_MAX_CLASSES:
            group = whole.group
            break
    else:
        return None
    degrees = character_table(group).degrees.tolist()
    params = CostParams(
        case=classify_group(group), k=k, m=len(circuit.gates), n=circuit.n_qubits,
        order=seg.group_order, dmax=max(degrees), g_cost=1.0)
    return round(estimate_cost(params).value, 6)


def _ms_stats(samples_s: list[float]) -> tuple[float, float, float]:
    ms = [s * 1000.0 for s in samples_s]
    mean = statistics.fmean(ms)
    median = statistics.median(ms)
    stddev = statistics.stdev(ms) if len(ms) > 1 else 0.0
    return round(mean, 6), round(median, 6), round(stddev, 6)


def run_bench(cfg: BenchConfig) -> BenchResults:
    check_type("cfg", cfg, BenchConfig)
    results = BenchResults()
    opt_cfg = OptimizeConfig(run_equivalence=False)
    for suite in cfg.suites:
        for n in range(cfg.n_min, cfg.n_max + 1):
            try:
                circuit = build_benchmark(_spec_for(suite, n, cfg.seed))
                optimized, report = optimize(circuit, opt_cfg)
                cost = _cost_for(report, circuit, opt_cfg)
                hist_orig = sv_run(circuit, cfg.shots, seed=_row_seed(cfg.seed, suite, n, 0))
                hist_opt = sv_run(optimized, cfg.shots, seed=_row_seed(cfg.seed, suite, n, 1))
                tv = round(tv_distance(hist_orig, hist_opt), 6)
                t_orig = _ms_stats(time_gate_loop(circuit, cfg.repeats))
                t_opt = _ms_stats(time_gate_loop(optimized, cfg.repeats))
            except CharforgeError as exc:
                results.failures.append((suite, n, str(exc)))
                continue
            results.rows.append(BenchRow(
                suite=suite, n_qubits=circuit.n_qubits, variant="original",
                mean_ms=t_orig[0], median_ms=t_orig[1], stddev_ms=t_orig[2],
                gates=len(circuit.gates), depth=circuit_depth(circuit),
                tv_distance=None, cost_model=cost))
            results.rows.append(BenchRow(
                suite=suite, n_qubits=optimized.n_qubits, variant="optimized",
                mean_ms=t_opt[0], median_ms=t_opt[1], stddev_ms=t_opt[2],
                gates=len(optimized.gates), depth=circuit_depth(optimized),
                tv_distance=tv, cost_model=cost))
            results.histograms[f"hist_{suite}_{n}_original"] = hist_orig
            results.histograms[f"hist_{suite}_{n}_optimized"] = hist_opt
    return results


def _row_seed(seed: int, suite: str, n: int, variant: int) -> int:
    return int(np.random.default_rng([seed, SUITES.index(suite), n, variant]).integers(2 ** 31))


def results_csv(r: BenchResults) -> str:
    check_type("r", r, BenchResults)
    lines = [CSV_HEADER]
    for row in r.rows:
        tv = "" if row.tv_distance is None else f"{row.tv_distance:.6f}"
        cost = "" if row.cost_model is None else f"{row.cost_model:.6f}"
        lines.append(
            f"{row.suite},{row.n_qubits},{row.variant},{row.mean_ms:.6f},"
            f"{row.median_ms:.6f},{row.stddev_ms:.6f},{row.gates},{row.depth},{tv},{cost}")
    return "\n".join(lines) + "\n"


# -- SVG emitter --------------------------------------------------------------

SVG_WIDTH, SVG_HEIGHT = 720, 420
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
            "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")


def results_svg(r: BenchResults) -> str:
    """Line chart: n_qubits on x, mean_ms on y, one polyline per
    (suite, variant) with a plain text legend, SVG_WIDTH by SVG_HEIGHT."""
    check_type("r", r, BenchResults)
    width, height, margin = SVG_WIDTH, SVG_HEIGHT, 60
    series: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for row in r.rows:
        series.setdefault((row.suite, row.variant), []).append((row.n_qubits, row.mean_ms))
    xs = [x for pts in series.values() for x, _ in pts] or [0, 1]
    ys = [y for pts in series.values() for _, y in pts] or [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(max(ys), 1e-9)
    x_span = max(x_hi - x_lo, 1)

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
        f'font-size="13">qubits</text>',
        f'<text x="18" y="{height // 2}" font-size="13" '
        f'transform="rotate(-90 18 {height // 2})" text-anchor="middle">mean ms</text>',
    ]
    for x in sorted(set(xs)):
        parts.append(f'<text x="{sx(x):.1f}" y="{height - margin + 18}" '
                     f'text-anchor="middle" font-size="11">{x}</text>')
    for frac in (0.0, 0.5, 1.0):
        y = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{margin - 8}" y="{sy(y):.1f}" text-anchor="end" '
                     f'font-size="11">{y:.3g}</text>')
    for idx, ((suite, variant), pts) in enumerate(sorted(series.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted(pts)
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        dash = "" if variant == "original" else ' stroke-dasharray="6 3"'
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="2"{dash}/>')
        ly = margin + 16 * idx
        parts.append(f'<line x1="{width - margin - 120}" y1="{ly}" '
                     f'x2="{width - margin - 96}" y2="{ly}" stroke="{color}" '
                     f'stroke-width="2"{dash}/>')
        parts.append(f'<text x="{width - margin - 90}" y="{ly + 4}" '
                     f'font-size="11">{suite} {variant}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_outputs(r: BenchResults, csv_path: Path, svg_path: Path, hist_dir: Path) -> list[Path]:
    check_type("r", r, BenchResults)
    if not r.rows:
        raise CharforgeError("no bench rows to emit")
    files = [(Path(csv_path), results_csv(r)), (Path(svg_path), results_svg(r))]
    files += [(Path(hist_dir) / f"{name}.csv", histogram_csv(hist))
              for name, hist in r.histograms.items()]
    for path, text in files:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return [path for path, _ in files]
