import pytest

from charforge.bench import (CSV_HEADER, BenchConfig, emit_outputs,
                             parse_results_csv, results_csv, results_svg,
                             run_bench)
from charforge.errors import CharforgeError, InvalidSpec

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


@pytest.mark.parametrize("bad", [dict(repeats=0), dict(repeats=-3), dict(suites=("bv", "shor"))])
def test_bench_config_rejects_bad_values(bad):
    with pytest.raises(InvalidSpec):
        BenchConfig(**bad)


def test_single_repeat_has_zero_stddev():
    r = run_bench(BenchConfig(suites=("qft",), n_min=2, n_max=2, repeats=1,
                              shots=1000, seed=1))
    assert all(row.stddev_ms == 0.0 for row in r.rows)


def test_csv_header_and_round_trip(small_results):
    csv = results_csv(small_results)
    assert csv.splitlines()[0] == CSV_HEADER
    assert parse_results_csv(csv) == small_results.rows


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
