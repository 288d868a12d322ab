import json
import os
import subprocess
import sys

import numpy as np
import pytest

BELL = "qubits 2\nh 0\ncx 0 1\nmeasure 0\nmeasure 1\n"


def charforge(*argv, cwd=None, env=None):
    return subprocess.run([sys.executable, "-m", "charforge.cli", *argv],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture
def bell_path(tmp_path):
    p = tmp_path / "bell.circ"
    p.write_text(BELL)
    return p


def test_group_dump_format():
    r = charforge("group", "--fixture", "d4")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert set(d) == {"dim", "order", "elements", "generators", "classes"}
    assert d["order"] == 8
    assert len(d["elements"][0]) == 4 and len(d["elements"][0][0]) == 2


def test_chartab_csv():
    r = charforge("chartab", "--fixture", "c2", "--seed", "7")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "class_size,1,1"
    assert len(lines) == 3


def test_decompose_report_fields(tmp_path):
    p = tmp_path / "xz.circ"
    p.write_text("qubits 1\nx 0\nz 0\n")
    out = tmp_path / "rep.json"
    r = charforge("decompose", "--in", str(p), "--out", str(out))
    assert r.returncode == 0
    d = json.loads(out.read_text())
    assert set(d) == {"k", "reconstruction_residual", "matrix_residual",
                      "component_norms", "statement_formula_residual"}
    assert d["k"] == 5
    assert d["reconstruction_residual"] <= 1e-8


def test_optimize_writes_circuit_and_report(tmp_path):
    p = tmp_path / "hh.circ"
    p.write_text("qubits 1\nh 0\nh 0\nmeasure 0\n")
    out = tmp_path / "o.circ"
    rep = tmp_path / "r.json"
    r = charforge("optimize", "--in", str(p), "--out", str(out), "--report", str(rep))
    assert r.returncode == 0
    assert out.read_text() == "qubits 1\nmeasure 0\n"
    d = json.loads(rep.read_text())
    assert d["gates_after"] == 1 and d["equivalence"]["verdict"] is True


def test_equiv_verdicts(tmp_path, bell_path):
    other = tmp_path / "x.circ"
    other.write_text("qubits 2\nx 0\nmeasure 0\nmeasure 1\n")
    r = charforge("equiv", "--a", str(bell_path), "--b", str(bell_path),
                  "--shots", "20000", "--seed", "4")
    assert r.returncode == 0 and json.loads(r.stdout)["verdict"] is True
    r = charforge("equiv", "--a", str(bell_path), "--b", str(other),
                  "--shots", "20000", "--seed", "4")
    assert json.loads(r.stdout)["verdict"] is False


@pytest.mark.parametrize("engine", ["sv", "tableau"])
def test_simulate_engines_agree_on_support(bell_path, engine):
    r = charforge("simulate", "--in", str(bell_path), "--engine", engine,
                  "--shots", "4000", "--seed", "11")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "outcome,count"
    outcomes = {ln.split(",")[0] for ln in lines[1:]}
    assert outcomes == {"00", "11"}


def test_simulate_seed_determinism(bell_path):
    a = charforge("simulate", "--in", str(bell_path), "--shots", "5000", "--seed", "3")
    b = charforge("simulate", "--in", str(bell_path), "--shots", "5000", "--seed", "3")
    assert a.stdout == b.stdout


def test_claims_roundtrip(tmp_path):
    out = tmp_path / "claims.json"
    r = charforge("claims", "--out", str(out), "--seed", "42")
    assert r.returncode == 0
    data = json.loads(out.read_text())
    assert [c["claim_id"] for c in data] == ["C1", "C2", "C3", "C4", "C5", "C6", "C7"]


def test_cost_output():
    r = charforge("cost", "--case", "abelian", "--k", "4", "--m", "10",
                  "--order", "4", "--dmax", "1")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "1340"


def test_bench_emits_files(tmp_path):
    r = charforge("bench", "--suites", "qft", "--n-min", "2", "--n-max", "2",
                  "--repeats", "1", "--shots", "1000", "--seed", "5",
                  "--out-dir", str(tmp_path / "bench"))
    assert r.returncode == 0
    assert (tmp_path / "bench" / "bench.csv").exists()
    assert (tmp_path / "bench" / "bench.svg").exists()
    assert list((tmp_path / "bench" / "histograms").glob("*.csv"))


def test_usage_error_exits_one():
    assert charforge("simulate").returncode == 1
    assert charforge().returncode == 1
    assert charforge("group").returncode == 1


def test_bench_rejects_out_as_a_usage_error(tmp_path):
    # bench writes only under --out-dir; --out is not one of its options
    r = charforge("bench", "--suites", "qft", "--n-min", "2", "--n-max", "2",
                  "--repeats", "1", "--shots", "100", "--out", str(tmp_path / "x.csv"),
                  "--out-dir", str(tmp_path / "bx"))
    assert r.returncode == 1
    assert "unrecognized arguments: --out" in r.stderr
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "bx").exists()


def test_data_error_exits_two(tmp_path):
    assert charforge("simulate", "--in", str(tmp_path / "missing.circ")).returncode == 2
    bad = tmp_path / "bad.circ"
    bad.write_text("qubits 1\nfrobnicate 0\n")
    assert charforge("simulate", "--in", str(bad)).returncode == 2


def test_invalid_bench_and_cost_arguments_exit_two(tmp_path):
    assert charforge("bench", "--suites", "shor", "--out-dir", str(tmp_path)).returncode == 2
    assert charforge("bench", "--repeats", "0", "--out-dir", str(tmp_path)).returncode == 2
    assert charforge("cost", "--case", "abelian", "--k", "0", "--m", "1", "--n", "1",
                     "--order", "1", "--dmax", "1").returncode == 2


def test_group_cap_exceeded_is_data_error(tmp_path):
    p = tmp_path / "ht.circ"
    p.write_text("qubits 1\nh 0\nt 0\n")
    r = charforge("group", "--in", str(p), "--max-order", "500")
    assert r.returncode == 2


@pytest.mark.parametrize("n", [65, 256])
def test_tableau_samples_past_64_random_outcomes(tmp_path, n):
    shots = 2000
    p = tmp_path / f"h{n}.circ"
    p.write_text(f"qubits {n}\n" + "".join(f"h {q}\n" for q in range(n))
                 + "".join(f"measure {q}\n" for q in range(n)))
    r = charforge("simulate", "--in", str(p), "--engine", "tableau",
                  "--shots", str(shots), "--seed", "6")
    assert r.returncode == 0, r.stderr
    rows = [ln.split(",") for ln in r.stdout.strip().splitlines()[1:]]
    assert all(len(k) == n and set(k) <= {"0", "1"} for k, _ in rows)
    ones = np.zeros(n)
    for k, cnt in rows:
        ones += int(cnt) * (np.frombuffer(k.encode(), dtype=np.uint8) == ord("1"))
    assert sum(int(cnt) for _, cnt in rows) == shots
    assert np.all(np.abs(ones - shots / 2) <= 6 * np.sqrt(shots / 4))


def test_equiv_zero_shots_is_a_data_error(bell_path):
    r = charforge("equiv", "--a", str(bell_path), "--b", str(bell_path), "--shots", "0")
    assert r.returncode == 2
    assert "shots must be at least 1" in r.stderr
    assert "Traceback" not in r.stderr


def test_optimize_report_does_not_depend_on_hash_seed(tmp_path):
    # max_tv sums over a set of outcome strings, whose order follows the hash seed
    p = tmp_path / "mix.circ"
    p.write_text("qubits 3\ns 0\nt 1\nh 2\ncx 0 1\ncx 1 2\ns 0\nt 1\ns 2\ncx 0 1\ncx 1 2\n")
    reports = []
    for hash_seed in ("0", "5"):
        rep = tmp_path / f"rep{hash_seed}.json"
        r = charforge("optimize", "--in", str(p), "--out", str(tmp_path / "out.circ"),
                      "--report", str(rep), env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert r.returncode == 0, r.stderr
        reports.append(rep.read_bytes())
    assert reports[0] == reports[1]
