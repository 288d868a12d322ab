import pytest

from charforge.bench import (CSV_HEADER, BenchConfig, BenchRow, _cost_for, emit_outputs,
                             results_csv, results_svg, run_bench)
from charforge.circuits import parse_circuit
from charforge.errors import CharforgeError, InvalidSpec
from charforge.optimize import OptimizeConfig, optimize

SMALL = BenchConfig(suites=("bv", "qft"), n_min=2, n_max=3, repeats=2,
                    shots=4000, seed=42)


@pytest.fixture(scope="module")
def small_results():
    return run_bench(SMALL)


def test_rows_and_variants(small_results):
    r = small_results
    assert not r.failures
    assert len(r.rows) == 8  # 2 suites x 2 sizes x 2 variants
    for i in range(0, len(r.rows), 2):
        orig, opt = r.rows[i], r.rows[i + 1]
        assert orig.variant == "original" and opt.variant == "optimized"
        assert opt.gates <= orig.gates
        assert orig.tv_distance is None and opt.tv_distance is not None
        assert orig.mean_ms >= 0.0 and orig.stddev_ms >= 0.0


def test_cost_model_column_is_pinned(small_results):
    # one value per (suite, n), the same on both variants
    expected = [93658255.0, 2946988236.0, 207624832.0, 207624928.0]
    assert [row.cost_model for row in small_results.rows] == [c for c in expected for _ in range(2)]


# each cp is the identity within TOL, but they lie 1.8e-8 apart: the first segment closes part
# by part, while over its whole support the two collide, so it has no whole closure to cost
NEAR_IDENTITIES = "qubits 4\ncp(9e-9) 0 1\ncp(-9e-9) 2 3\nh 0\n"


@pytest.mark.parametrize("text, cost", [
    (NEAR_IDENTITIES, None),
    (NEAR_IDENTITIES + "cp(1) 0 1\nx 0\n", 64.0),  # the x segment's order 2 ties it, and is costed
], ids=["alone", "then-x"])
def test_cost_passes_over_a_segment_without_a_whole_closure(text, cost):
    circuit, cfg = parse_circuit(text), OptimizeConfig(run_equivalence=False)
    _, report = optimize(circuit, cfg)
    assert report.segments[0].group_order == 2
    assert _cost_for(report, circuit, cfg) == cost


@pytest.mark.parametrize("bad", [
    dict(repeats=0), dict(repeats=-3), dict(suites=("bv", "shor")), dict(repeats=2.5), dict(repeats=True),
    dict(seed=-1), dict(seed=True), dict(shots=0), dict(n_min=0), dict(n_max="6"), dict(n_min=3, n_max=2)])
def test_bench_config_rejects_bad_values(bad):
    with pytest.raises(InvalidSpec):
        BenchConfig(**bad)


def test_single_repeat_has_zero_stddev():
    r = run_bench(BenchConfig(suites=("qft",), n_min=2, n_max=2, repeats=1,
                              shots=1000, seed=1))
    assert all(row.stddev_ms == 0.0 for row in r.rows)


def test_csv_header_and_round_trip(small_results):
    lines = results_csv(small_results).splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(small_results.rows) + 1
    # each line reads back as its row: the 6-decimal fields are rounded to 6 already
    fields = (str, int, str, float, float, float, int, int, float, float)
    for line, row in zip(lines[1:], small_results.rows):
        assert BenchRow(*(f(c) if c else None for f, c in zip(fields, line.split(",")))) == row


def test_single_row_csv_is_two_lines():
    r = run_bench(BenchConfig(suites=("qft",), n_min=2, n_max=2, repeats=1,
                              shots=500, seed=3))
    one = type(r)(rows=r.rows[:1], histograms={}, failures=[])
    assert len(results_csv(one).strip().splitlines()) == 2


def test_svg_structure(small_results):
    svg = results_svg(small_results)
    assert svg.count("<polyline") == 4
    assert "bv original" in svg and "bv optimized" in svg
    assert "qft original" in svg and "qft optimized" in svg
    assert svg.startswith("<svg ")


def test_emit_outputs(tmp_path, small_results):
    written = emit_outputs(small_results, tmp_path / "b.csv", tmp_path / "b.svg",
                           tmp_path / "hists")
    assert (tmp_path / "b.csv").exists()
    assert (tmp_path / "b.svg").exists()
    hist_files = sorted(p.name for p in (tmp_path / "hists").glob("*.csv"))
    assert len(hist_files) == 8
    assert "hist_bv_2_original.csv" in hist_files
    text = (tmp_path / "hists" / hist_files[0]).read_text()
    assert text.splitlines()[0] == "outcome,count"
    assert len(written) == 10


def test_emit_outputs_rejects_empty(tmp_path):
    empty = run_bench(SMALL).__class__()
    with pytest.raises(CharforgeError):
        emit_outputs(empty, tmp_path / "a.csv", tmp_path / "a.svg", tmp_path / "h")


def test_qft3_tv_under_threshold_at_full_shots():
    r = run_bench(BenchConfig(suites=("qft",), n_min=3, n_max=3, repeats=1,
                              shots=100_000, seed=42))
    opt_rows = [row for row in r.rows if row.variant == "optimized"]
    assert opt_rows and all(row.tv_distance <= 0.02 for row in opt_rows)


def test_non_timing_columns_deterministic():
    a = run_bench(SMALL)
    b = run_bench(SMALL)

    def strip_timing(rows):
        return [(r.suite, r.n_qubits, r.variant, r.gates, r.depth,
                 r.tv_distance, r.cost_model) for r in rows]

    assert strip_timing(a.rows) == strip_timing(b.rows)
    assert a.histograms.keys() == b.histograms.keys()
    for key in a.histograms:
        assert a.histograms[key].counts == b.histograms[key].counts
