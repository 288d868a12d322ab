import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from charforge import characters
from charforge.circuits import build_qft, circuit_unitary, parse_circuit, serialize_circuit
from charforge.cli import main

BELL = "qubits 2\nh 0\ncx 0 1\nmeasure 0\nmeasure 1\n"
# cp(2pi/3) to the format's 10 digits: its products drift past 1e-9
CP_THIRD = "qubits 2\ncp(2.094395102) 0 1\nx 0\nx 1\n"


def cp_third_repeated(r):
    """The same order-324 gate set, (cp, x 0, x 1) r times and one more cp:
    3r + 1 gates whose dense product drifts further with r."""
    return "qubits 2\n" + "cp(2.094395102) 0 1\nx 0\nx 1\n" * r + "cp(2.094395102) 0 1\n"


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


# (circuit, k, bound on both residuals): the closure of x and z; the
# two-qubit hidden-string gate set {h0, h1, x1, cx01} of order 2304; the
# identity over <X>, whose split is exact
@pytest.mark.parametrize("text, k, bound", [
    ("qubits 1\nx 0\nz 0\n", 5, 1e-8),
    ("qubits 2\nh 0\ncx 0 1\nh 0\nh 1\nx 1\n", 29, 1e-8),
    ("qubits 1\nx 0\nx 0\n", 2, 0.0),
], ids=["xz", "h0-h1-x1-cx01", "identity-over-x"])
def test_decompose_report_fields(tmp_path, text, k, bound):
    p = tmp_path / "in.circ"
    p.write_text(text)
    out = tmp_path / "rep.json"
    r = charforge("decompose", "--in", str(p), "--out", str(out))
    assert r.returncode == 0
    d = json.loads(out.read_text())
    assert set(d) == {"k", "reconstruction_residual", "matrix_residual",
                      "component_norms", "statement_formula_residual"}
    assert d["k"] == k
    assert d["reconstruction_residual"] <= bound and d["matrix_residual"] <= bound


def test_decompose_exits_2_when_the_gate_set_exceeds_the_order_cap(tmp_path, capsys):
    # {h, t} generates an infinite group, so there is no finite group to decompose over
    p = tmp_path / "ht.circ"
    p.write_text("qubits 1\nh 0\nt 0\n")
    out = tmp_path / "rep.json"
    assert main(["decompose", "--in", str(p), "--max-order", "500", "--out", str(out)]) == 2
    assert "charforge decompose: closure passed max_order=500" in capsys.readouterr().err
    assert not out.exists()


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


def test_optimize_survives_gates_within_the_closure_tolerance(tmp_path):
    # distinct 9-decimal keys, one element of the closure: the segment's gate
    # slots must map to elements through each input generator, not the
    # deduplicated generator list
    text = "qubits 2\ncp(1.570796327) 0 1\ncp(1.570796326) 0 1\n"
    p = tmp_path / "near.qc"
    p.write_text(text)
    out = tmp_path / "o.qc"
    r = charforge("optimize", "--in", str(p), "--out", str(out))
    assert r.returncode in (0, 2), r.stderr
    if r.returncode == 0:
        u0 = circuit_unitary(parse_circuit(text))
        u1 = circuit_unitary(parse_circuit(out.read_text()))
        assert abs(abs(np.trace(u0.conj().T @ u1)) - 4) <= 1e-7
    else:
        assert "Traceback" not in r.stderr


def test_optimize_skips_gates_that_collide(tmp_path):
    # 3.3e-8 apart: past the closure tolerance, within 8 times it
    p = tmp_path / "collide.qc"
    p.write_text("qubits 2\ncp(1.570796327) 0 1\ncp(1.57079636) 0 1\nh 0\n")
    r = charforge("optimize", "--in", str(p), "--out", str(tmp_path / "o.qc"))
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("command", ["group", "chartab", "decompose"])
def test_ten_digit_cp_angles_close_as_in_optimize(tmp_path, command):
    p = tmp_path / "cp3.circ"
    p.write_text(CP_THIRD)
    r = charforge(command, "--in", str(p))
    assert r.returncode == 0, r.stderr
    if command == "group":
        assert json.loads(r.stdout)["order"] == 324
    if command == "decompose":
        # the element is walked gate by gate, so no length of the word drifts it out of the group
        reports = []
        for reps in (10, 100, 1000):
            p, out = tmp_path / f"cp{reps}.circ", tmp_path / f"cp{reps}.json"
            p.write_text(cp_third_repeated(reps))
            assert main(["decompose", "--in", str(p), "--out", str(out)]) == 0
            reports.append(out.read_text())
        assert reports[1] == reports[2] == reports[0]


def test_optimize_exits_3_when_its_equivalence_verdict_is_false(tmp_path, capsys):
    # both shrink to 6 gates; the 1000-fold input's 10-digit angles drift its
    # state by more than obs_tol from the output's, the 100-fold one's do not
    for r, code in ((100, 0), (1000, 3)):
        p, out, rep = tmp_path / f"cp{r}.circ", tmp_path / f"o{r}.circ", tmp_path / f"r{r}.json"
        p.write_text(cp_third_repeated(r))
        assert main(["optimize", "--in", str(p), "--out", str(out), "--report", str(rep)]) == code
        d = json.loads(rep.read_text())
        assert (d["gates_before"], d["gates_after"]) == (3 * r + 1, 6)
        assert d["equivalence"]["verdict"] is (code == 0)
        assert len(parse_circuit(out.read_text()).gates) == 6
    err = capsys.readouterr().err  # one line, from r = 1000
    m = re.fullmatch(r"charforge optimize: equivalence verdict false \(max_tv \S+ vs tv_tol 0.02, "
                     r"max_obs_deviation (\S+) vs obs_tol 1e-07\)\n", err)
    assert m and float(m[1]) > 1e-7


def test_equiv_verdicts(tmp_path, bell_path):
    other = tmp_path / "x.circ"
    other.write_text("qubits 2\nx 0\nmeasure 0\nmeasure 1\n")
    r = charforge("equiv", "--a", str(bell_path), "--b", str(bell_path),
                  "--shots", "20000", "--seed", "4")
    assert r.returncode == 0 and json.loads(r.stdout)["verdict"] is True
    r = charforge("equiv", "--a", str(bell_path), "--b", str(other),
                  "--shots", "20000", "--seed", "4")
    assert json.loads(r.stdout)["verdict"] is False


def test_equiv_of_a_circuit_with_itself_holds_at_few_shots(tmp_path):
    # tv_tol 0.02 is below the noise of a TV sampled at 1,000 shots, so this needs the exact TV
    p = tmp_path / "q.qc"
    p.write_text(serialize_circuit(build_qft(3)))
    r = charforge("equiv", "--a", str(p), "--b", str(p), "--shots", "1000")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["verdict"] is True


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


def test_cost_takes_the_symmetric_case_directly(capsys):
    # symmetric is never detected from a group; the caller names it with --case
    assert main(["cost", "--case", "symmetric", "--k", "2", "--m", "3", "--n", "2",
                 "--order", "6", "--dmax", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "368"


def test_cost_rejects_an_unknown_case_as_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cost", "--case", "cyclic", "--k", "1", "--m", "1", "--order", "1", "--dmax", "1"])
    assert exc.value.code == 1
    assert "invalid choice: 'cyclic'" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["group", "chartab", "decompose"])
@pytest.mark.parametrize("sources, message", [
    ((), "one of the arguments --in --fixture is required"),
    (("--fixture", "c2", "--in", "x.circ"), "argument --in: not allowed with argument --fixture"),
], ids=["neither", "both"])
def test_a_group_command_takes_exactly_one_source(command, sources, message, capsys):
    # both used to read the fixture and ignore --in
    with pytest.raises(SystemExit) as exit_:
        main([command, *sources])
    assert exit_.value.code == 1
    assert message in capsys.readouterr().err


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


def test_non_finite_cp_angle_exits_two_with_its_line(tmp_path):
    p = tmp_path / "inf.circ"
    p.write_text("qubits 2\nh 0\ncp(inf) 0 1\n")
    r = charforge("optimize", "--in", str(p))
    assert r.returncode == 2
    assert "line 3: bad angle 'inf'" in r.stderr
    assert "Warning" not in r.stderr and "Traceback" not in r.stderr


def test_invalid_bench_and_cost_arguments_exit_two(tmp_path):
    assert charforge("bench", "--suites", "shor", "--out-dir", str(tmp_path)).returncode == 2
    assert charforge("bench", "--repeats", "0", "--out-dir", str(tmp_path)).returncode == 2
    assert charforge("cost", "--case", "abelian", "--k", "0", "--m", "1", "--n", "1",
                     "--order", "1", "--dmax", "1").returncode == 2


@pytest.mark.parametrize("argv", [["--case", "abelian", "--k", "1" + "0" * 400],
                                  ["--case", "general", "--k", "1", "--g-cost", "1e308"]])
def test_a_cost_past_the_float_range_exits_two(argv):
    r = charforge("cost", *argv, "--m", "1", "--order", "1", "--dmax", "1")
    assert r.returncode == 2
    assert "cost is past the float range for these inputs" in r.stderr
    assert "Traceback" not in r.stderr and r.stdout == ""


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


def test_the_tableau_engine_takes_swap(tmp_path, capsys):
    p = tmp_path / "swap.circ"
    p.write_text("qubits 2\nx 0\nswap 0 1\n")
    assert main(["simulate", "--in", str(p), "--engine", "tableau", "--shots", "100"]) == 0
    assert capsys.readouterr().out == "outcome,count\n10,100\n"


@pytest.mark.parametrize("engine", ["sv", "tableau"])
def test_simulate_negative_seed_is_a_data_error(bell_path, engine):
    r = charforge("simulate", "--in", str(bell_path), "--engine", engine, "--seed", "-1")
    assert r.returncode == 2
    assert "charforge simulate: seed must be a non-negative integer, got -1" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("engine, shots, message", [
    ("sv", 2 ** 63, "shots must be at most 2^63 - 1, got 9223372036854775808"),
    ("tableau", 2 ** 63, "shots must be at most 2^63 - 1, got 9223372036854775808"),
    # Bell: 1 coin on 2 measured qubits, 16 bytes a shot, 65,536 for a chunk of keys and 32 for the outcomes
    ("tableau", (2 ** 30 - 65568) // 16 + 1, "67104767 shots of 1 coins need 1073741840 bytes of samples"),
])
def test_simulate_shots_past_a_limit_are_a_data_error(bell_path, engine, shots, message):
    # past 2^63 - 1 the sv engine raised a raw OverflowError and exited 1; the tableau engine allocated
    # its samples whatever their size, and raised numpy's _ArrayMemoryError for 9.09 TiB at 10^13 shots
    r = charforge("simulate", "--in", str(bell_path), "--engine", engine, "--shots", str(shots))
    assert r.returncode == 2
    assert f"charforge simulate: {message}" in r.stderr
    assert "Traceback" not in r.stderr and r.stdout == ""


def test_equiv_zero_shots_is_a_data_error(bell_path):
    r = charforge("equiv", "--a", str(bell_path), "--b", str(bell_path), "--shots", "0")
    assert r.returncode == 2
    assert "shots must be at least 1" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("max_order", ["0", "-3"])
def test_optimize_bad_max_order_is_a_data_error(bell_path, max_order):
    r = charforge("optimize", "--in", str(bell_path), "--max-order", max_order)
    assert r.returncode == 2
    assert "max_order must be an integer >= 1" in r.stderr


@pytest.mark.parametrize("flag, value", [("--obs-tol", "nan"), ("--tv-tol", "-0.5"),
                                         ("--tv-tol", "inf")])
def test_equiv_bad_tolerance_is_a_data_error(bell_path, flag, value):
    r = charforge("equiv", "--a", str(bell_path), "--b", str(bell_path), flag, value)
    assert r.returncode == 2
    assert f"{flag[2:].replace('-', '_')} must be finite and >= 0" in r.stderr
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


def test_chartab_with_a_failing_self_check_exits_2(monkeypatch, capsys):
    exact = characters._class_structure

    def perturbed(group):  # a seeded dense 3e-5 on M_2, r_2 3e-5 N on the draw: values off by about 1e-4
        draw, powers = exact(group)
        noise = 3e-5 * np.random.default_rng(0).standard_normal((len(group.classes),) * 2)
        return (lambda r: draw(r) + r[2] * noise), powers

    monkeypatch.setattr(characters, "_class_structure", perturbed)
    assert main(["chartab", "--fixture", "d4", "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("charforge chartab: multiplicities of order-2 roots of unity are 0.000109 off")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_every_option_of_the_package_is_set_by_a_command_a_workload_or_a_tool(capsys):
    spec = importlib.util.spec_from_file_location(
        "unset_options", Path(__file__).resolve().parents[1] / "tools" / "unset_options.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main([]) == 0
    assert capsys.readouterr().out == ""


def test_every_function_of_the_package_is_called_or_allowed():
    tools = Path(__file__).resolve().parents[1] / "tools"
    spec = importlib.util.spec_from_file_location("user_paths", tools / "user_paths.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # in a new process, so that the tracer starts before charforge is imported
    run = subprocess.run([sys.executable, str(tools / "user_paths.py")], capture_output=True, text=True,
                         check=True, timeout=300)
    assert run.stderr.startswith("traced in") and run.stderr.count("\n") == 1  # every command and check passed
    never_called = [line.split()[1].rstrip(":") for line in run.stdout.splitlines()
                    if line.endswith(": never called")]
    assert sorted(never_called) == sorted(tool.NEVER_CALLED)
