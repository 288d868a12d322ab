"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here, not configurable.
"""

import functools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from charforge.algebra import AlgebraElement, convolve, decompose_element, delta, random_element
from charforge.characters import (central_idempotents, character_table,
                                  isotypic_projectors, verify_orthogonality)
from charforge.circuits import (Circuit, build_bv, build_grover, build_qft,
                                circuit_unitary, random_clifford_circuit)
from charforge.claims import run_claims
from charforge.complexity import CostParams, estimate_cost
from charforge.fixtures import all_fixture_groups, fixture_generators
from charforge.groups import close_group
from charforge.histogram import tv_distance
from charforge.optimize import optimize
from charforge.statevector import sv_run
from charforge.tableau import tableau_run
from phase_oracle import equal_up_to_phase

AC1_FIXTURES = ("c2", "c2xc2", "s3", "d4", "q8", "pauli1", "clifford1")


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"\n[{label}] FAIL: {exc}")
                raise
            print(f"\n[{label}] PASS{f' ({detail})' if detail else ''}")
        return wrapper
    return deco


@criterion("AC1")
def test_ac1_character_table_suite():
    t0 = time.perf_counter()
    gens = fixture_generators()
    for name in AC1_FIXTURES:
        group = close_group(gens[name])
        table = character_table(group, seed=42)
        rep = verify_orthogonality(table)
        assert rep.row_residual <= 1e-8, f"{name} row orthogonality {rep.row_residual:.2e}"
        assert rep.col_residual <= 1e-8, f"{name} column orthogonality {rep.col_residual:.2e}"
        assert int(np.sum(table.degrees ** 2)) == group.order, f"{name} degree sum"
        if name == "q8":
            assert table.degrees.tolist() == [1, 1, 1, 1, 2], "q8 degrees"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    return f"7 fixtures in {elapsed:.2f}s"


@criterion("AC2")
def test_ac2_idempotent_algebra():
    t0 = time.perf_counter()
    worst = 0.0
    for name, group in all_fixture_groups().items():
        assert group.order <= 192
        table = character_table(group, seed=42)
        idem = central_idempotents(group, table)
        for i, ei in enumerate(idem):
            a = AlgebraElement(group, ei)
            for j, ej in enumerate(idem):
                prod = convolve(a, AlgebraElement(group, ej))
                target = ei if i == j else 0.0
                worst = max(worst, float(np.max(np.abs(prod.coeffs - target))))
        total = np.sum(idem, axis=0)
        worst = max(worst, float(np.max(np.abs(total - delta(group, 0).coeffs))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"worst idempotent residual {worst:.2e}"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    return f"worst residual {worst:.1e} in {elapsed:.2f}s"


@criterion("AC3")
def test_ac3_decomposition_identity():
    groups = all_fixture_groups()
    worst = 0.0
    for name, group in groups.items():
        table = character_table(group, seed=42)
        idem = central_idempotents(group, table)
        rng = np.random.default_rng([42, group.order])
        for _ in range(50):
            dec = decompose_element(random_element(group, rng), idem)
            worst = max(worst, dec.reconstruction_residual)
    assert worst <= 1e-8, f"worst reconstruction residual {worst:.2e}"

    matrix_worst = 0.0
    for name in ("d4", "clifford1"):
        group = groups[name]
        table = character_table(group, seed=42)
        projs = isotypic_projectors(group, table)
        p_sum = np.sum(projs, axis=0)
        for g in range(group.order):
            u = group.mats[g]
            matrix_worst = max(matrix_worst, float(np.max(np.abs(p_sum @ u - u))))
    assert matrix_worst <= 1e-8, f"worst matrix residual {matrix_worst:.2e}"
    return f"coeff residual {worst:.1e}, matrix residual {matrix_worst:.1e}"


@criterion("AC4")
def test_ac4_claims_report():
    rep = run_claims(seed=42)
    c2 = rep.by_id("C2")
    assert c2.status == "fails", "C2 must fail"
    assert abs(c2.residual - 1.0) <= 1e-12, f"C2 residual {c2.residual}"
    c3 = rep.by_id("C3")
    assert c3.status == "holds-conditionally"
    assert c3.residual <= 1e-8, "C3 degree-1 residual"
    d4 = [v for k, v in c3.instances.items() if k.startswith("d4")]
    assert d4 and max(d4) > 0.1, "C3 must fail on the 2-dim irrep of d4"
    c5 = rep.by_id("C5")
    assert c5.status == "holds" and c5.residual == 0.0, "C5 must hold exactly"
    c6 = rep.by_id("C6")
    assert c6.status == "fails"
    assert abs(c6.residual - 9.0) <= 1e-9, f"C6 deviation {c6.residual}"
    return "C2=1.0, C3 conditional, C5 exact, C6=9.0"


@criterion("AC5")
def test_ac5_stabilizer_vs_statevector():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        n = 2 + i % 5
        c = random_clifford_circuit(n, depth=50, seed=5000 + i)
        a = tableau_run(c, shots=100_000, seed=700 + i)
        b = sv_run(c, shots=100_000, seed=900 + i)
        worst = max(worst, tv_distance(a, b))
    elapsed = time.perf_counter() - t0
    assert worst <= 0.02, f"worst TV {worst:.4f}"
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"
    return f"worst TV {worst:.4f} over 20 circuits in {elapsed:.1f}s"


@criterion("AC6")
def test_ac6_optimizer_soundness():
    cases = [build_bv(s) for s in ("10", "110", "1011", "10110", "101101")]
    cases += [build_qft(3), build_grover(4, marked=9)]
    for c in cases:
        out, rep = optimize(c)
        assert rep.gates_after <= rep.gates_before, c.name
        assert rep.equivalence.verdict, f"{c.name} equivalence verdict"
        assert rep.equivalence.max_tv <= 0.02, f"{c.name} TV {rep.equivalence.max_tv:.4f}"
        body_in, _ = c.body_and_suffix()
        body_out, _ = out.body_and_suffix()
        u_in = circuit_unitary(Circuit(c.n_qubits, body_in))
        u_out = circuit_unitary(Circuit(out.n_qubits, body_out))
        assert equal_up_to_phase(u_in, u_out, tol=1e-8), f"{c.name} unitary drift"
    return f"{len(cases)} circuits sound"


@criterion("AC7")
def test_ac7_cost_model():
    v = estimate_cost(CostParams(case="abelian", k=4, m=10, n=1, order=4, dmax=1)).value
    assert v == 1340.0, f"reference value {v}"
    v = estimate_cost(CostParams(case="abelian", k=1, m=1, n=1, order=1, dmax=1)).value
    assert v == 5.0, f"smallest instance {v}"
    a = estimate_cost(CostParams(case="abelian", k=4, m=10, n=1, order=4, dmax=1)).value
    g = estimate_cost(CostParams(case="general", k=4, m=10, n=1, order=4, dmax=1, g_cost=1.0)).value
    assert a == g, "general with g=1 must reduce to abelian"
    for name, group in all_fixture_groups().items():
        table = character_table(group, seed=42)
        dmax = int(table.degrees.max())
        assert table.k * dmax * dmax >= group.order, f"kD^2 bound violated on {name}"
    return "1340, 5, g=1 reduction, kD^2 bound on 8 fixtures"


def _cli(*argv):
    r = subprocess.run([sys.executable, "-m", "charforge.cli", *argv],
                       capture_output=True, text=True)
    assert r.returncode == 0, f"{argv}: {r.stderr}"
    return r.stdout


@criterion("AC8")
def test_ac8_seeded_commands_are_deterministic(tmp_path):
    circ = tmp_path / "c.circ"
    circ.write_text("qubits 2\nh 0\ncx 0 1\ns 1\nsdg 1\nmeasure 0\nmeasure 1\n")

    reps = [_cli("claims", "--seed", "42") for _ in range(2)]
    assert reps[0] == reps[1], "claims output differs"

    tabs = [_cli("chartab", "--fixture", "clifford1", "--seed", "9") for _ in range(2)]
    assert tabs[0] == tabs[1], "chartab output differs"

    for engine in ("sv", "tableau"):
        sims = [_cli("simulate", "--in", str(circ), "--engine", engine,
                     "--shots", "20000", "--seed", "3") for _ in range(2)]
        assert sims[0] == sims[1], f"simulate {engine} output differs"

    decs = [_cli("decompose", "--in", str(circ), "--seed", "5") for _ in range(2)]
    assert decs[0] == decs[1], "decompose output differs"

    outs = []
    for i in range(2):
        out = tmp_path / f"o{i}.circ"
        rep = tmp_path / f"r{i}.json"
        _cli("optimize", "--in", str(circ), "--out", str(out),
             "--report", str(rep), "--seed", "7")
        outs.append((out.read_text(), rep.read_text()))
    assert outs[0] == outs[1], "optimize outputs differ"

    # bench: everything except the three timing columns must be identical
    rows = []
    hists = []
    for i in range(2):
        d = tmp_path / f"bench{i}"
        _cli("bench", "--suites", "qft", "--n-min", "2", "--n-max", "3",
             "--repeats", "1", "--shots", "2000", "--seed", "11",
             "--out-dir", str(d))
        csv = (d / "bench.csv").read_text().splitlines()
        stripped = [",".join(cell for j, cell in enumerate(ln.split(","))
                             if j not in (3, 4, 5)) for ln in csv]
        rows.append(stripped)
        hists.append(sorted((p.name, p.read_text())
                            for p in (d / "histograms").glob("*.csv")))
    assert rows[0] == rows[1], "bench non-timing columns differ"
    assert hists[0] == hists[1], "bench histograms differ"
    return "claims, chartab, simulate, decompose, optimize, bench"
