"""Mechanical evaluation of the checkable decomposition-theory claims
against brute-force oracles on the fixture groups.

Each claim is measured, not endorsed: a failing formula is reported with its
measured residual and the witness input, never raised as an error. The
registered set and the fixture groups (`fixtures.all_fixture_groups`, abelian
and non-abelian alike) are fixed; only the seed varies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import (_decompose_elements, decompose_element, delta, random_element,
                      statement_formula_residual)
from .characters import central_idempotents, character_table, isotypic_projectors
from .circuits import parse_circuit
from .expectation import degree_square_sum, paper_expectation_formula
from .fixtures import all_fixture_groups
from .groups import COLUMN_CHUNK, FiniteMatrixGroup
from .observables import z_on_qubit

# random elements per fixture that C1 decomposes, beside delta_identity
SAMPLES_PER_FIXTURE = 8


@dataclass
class ClaimResult:
    claim_id: str
    location: str
    description: str
    status: str            # holds | fails | holds-conditionally
    residual: float
    condition: str = ""
    instances: dict = field(default_factory=dict)  # programmatic detail, not serialized

    def to_json(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "location": self.location,
            "description": self.description,
            "status": self.status,
            "residual": self.residual,
            "condition": self.condition,
        }


@dataclass
class ClaimsReport:
    fixtures: list[str]
    seed: int
    results: list[ClaimResult]
    notes: list[str] = field(default_factory=list)

    def by_id(self, claim_id: str) -> ClaimResult:
        for r in self.results:
            if r.claim_id == claim_id:
                return r
        raise KeyError(claim_id)

    def to_json_text(self) -> str:
        return json.dumps([r.to_json() for r in self.results], indent=2) + "\n"


def _multiplicativity_residuals(group: FiniteMatrixGroup, table) -> np.ndarray:
    """Exhaustive max |chi_i(gh) - chi_i(g) chi_i(h)| over all pairs, per irrep,
    chi(gh) read from the Cayley columns of a bounded chunk of h at a time."""
    per_elem = table.values[:, group.class_of]        # (k, |G|)
    out = np.zeros(table.k)
    chunk = max(1, COLUMN_CHUNK // group.order)
    for hs in np.split(np.arange(group.order), np.arange(chunk, group.order, chunk)):
        cols = group.columns(hs)                       # [j, g] = index of g h_j
        for i, chi in enumerate(per_elem):
            out[i] = max(out[i], np.max(np.abs(chi[cols] - chi[hs, None] * chi)))
    return out


def run_claims(seed: int = 42) -> ClaimsReport:
    fixtures = all_fixture_groups()
    tables = {n: character_table(g, seed=seed) for n, g in fixtures.items()}
    idem = {n: central_idempotents(fixtures[n], tables[n]) for n in fixtures}
    results: list[ClaimResult] = []

    # C1: the idempotent resolution reconstructs every element of C[G]
    worst, witness = 0.0, ""
    for n, g in fixtures.items():
        rng = np.random.default_rng([seed, 1, g.order])
        us = [random_element(g, rng) for _ in range(SAMPLES_PER_FIXTURE)]
        for s, dec in enumerate(_decompose_elements(us, idem[n])):
            if dec.reconstruction_residual > worst:
                worst, witness = dec.reconstruction_residual, f"random u #{s} on {n}"
        dec = decompose_element(delta(g, 0), idem[n])
        worst = max(worst, dec.reconstruction_residual)
    results.append(ClaimResult(
        claim_id="C1",
        location="decomposition identity, idempotent form",
        description="u = sum_i e_i * u reconstructs every algebra element",
        status="holds" if worst <= 1e-8 else "fails",
        residual=worst,
        condition="" if worst <= 1e-8 else f"worst witness: {witness}",
    ))

    # C2: the closed-form coefficients chi_i(u)/d_i with weight |G|/d_i;
    # canonical hand-checkable witness: delta_identity on the order-2 group
    per_fixture = {}
    for n, g in fixtures.items():
        rng = np.random.default_rng([seed, 2, g.order])
        r_delta = statement_formula_residual(delta(g, 0), tables[n], idem[n])
        r_rand = statement_formula_residual(random_element(g, rng), tables[n], idem[n])
        per_fixture[n] = max(r_delta, r_rand)
        if n == "c2":
            canonical = r_delta
    status = "holds" if max(per_fixture.values()) <= 1e-8 else "fails"
    results.append(ClaimResult(
        claim_id="C2",
        location="decomposition closed form, statement coefficients",
        description=("u = sum_i (chi_i(u)/d_i) (|G|/d_i) e_i; the right side is "
                     "central, so reconstruction fails off-center"),
        status=status,
        residual=float(canonical),
        condition="witness: u = delta_identity on the order-2 group <X>",
        instances=per_fixture,
    ))

    # C3: multiplicativity chi(gh) = chi(g) chi(h), exhaustive over pairs
    deg1_worst = 0.0
    higher = {}
    for n, g in fixtures.items():
        res = _multiplicativity_residuals(g, tables[n])
        for i in range(tables[n].k):
            if tables[n].degrees[i] == 1:
                deg1_worst = max(deg1_worst, res[i])
            else:
                higher[f"{n}/irrep{i}(d={tables[n].degrees[i]})"] = float(res[i])
    max_violation = max(higher.values()) if higher else 0.0
    results.append(ClaimResult(
        claim_id="C3",
        location="character multiplicativity over gate products",
        description=("chi_i(gh) = chi_i(g) chi_i(h) holds exactly for degree-1 "
                     f"irreps; worst higher-degree violation {max_violation:.3f}"),
        status="holds-conditionally" if higher else "holds",
        residual=float(deg1_worst),
        condition="degree-1 irreps only",
        instances=higher,
    ))

    # C4: S_i = sum_g chi_i(g^-1) U(g) equals (|G|/d_i) P_i and squares to
    # (|G|/d_i) S_i; scalar-times-identity only on the isotypic block
    worst = 0.0
    for n, g in fixtures.items():
        table = tables[n]
        projs = isotypic_projectors(g, table)
        inv_class = g.class_of[g.inverses]
        for i in range(table.k):
            s_i = np.einsum("g,gab->ab", table.values[i, inv_class], g.mats)
            scale = table.group_order / float(table.degrees[i])
            worst = max(worst, float(np.max(np.abs(s_i - scale * projs[i]))))
            worst = max(worst, float(np.max(np.abs(s_i @ s_i - scale * s_i))))
    results.append(ClaimResult(
        claim_id="C4",
        location="isotypic sum as a scaled projector",
        description=("S_i = (|G|/d_i) P_i and S_i^2 = (|G|/d_i) S_i in the "
                     "defining representation"),
        status="holds" if worst <= 1e-8 else "fails",
        residual=worst,
    ))

    # C5: sum_i d_i^2 / |G| = 1, exact integer identity after rounding
    worst = max(abs(degree_square_sum(tables[n]) - 1.0) for n in fixtures)
    results.append(ClaimResult(
        claim_id="C5",
        location="degree-square sum identity",
        description="sum_i d_i^2 equals the group order exactly",
        status="holds" if worst == 0.0 else "fails",
        residual=worst,
    ))

    # C6: closed-form expectation |G|^2 <psi|O|psi> sum_i |chi_i(U)|^2/d_i^2;
    # canonical witness: the X gate in <X> against Z gives 8 vs oracle -1
    instances = {}
    for key, text, n in (("x-in-c2-vs-Z", "qubits 1\nx 0\n", "c2"),
                         ("identity-in-trivial-vs-Z", "qubits 1\n", "trivial")):
        value, dev = paper_expectation_formula(parse_circuit(text), z_on_qubit(0, 1), tables[n], fixtures[n])
        instances[key] = {"value": value, "deviation": dev}
    worst = max(v["deviation"] for v in instances.values())
    results.append(ClaimResult(
        claim_id="C6",
        location="closed-form expectation value",
        description=("|G|^2 <psi|O|psi> sum_i |chi_i(U)|^2/d_i^2 measured against "
                     "the state-vector oracle"),
        status="holds" if worst <= 1e-8 else "fails",
        residual=float(instances["x-in-c2-vs-Z"]["deviation"]),
        condition="witness: circuit 'x 0' over <X> with observable Z",
        instances=instances,
    ))

    # C7: k D^2 >= |G|, a consequence of sum d_i^2 = |G|
    worst = 0.0
    for n in fixtures:
        table = tables[n]
        dmax = int(table.degrees.max())
        worst = max(worst, float(max(0, table.group_order - table.k * dmax * dmax)))
    results.append(ClaimResult(
        claim_id="C7",
        location="irrep count times max degree squared bounds the order",
        description="k * D^2 >= |G| on every fixture's actual (k, D)",
        status="holds" if worst == 0.0 else "fails",
        residual=worst,
    ))

    notes = [
        "the 1-qubit Pauli fixture is the faithful matrix group <X,Z,iI> of "
        "order 16; the phase-quotient count (4 per qubit) undercounts it by "
        "the 4 global phases, and all decomposition arithmetic here needs "
        "the faithful group"]
    return ClaimsReport(fixtures=list(fixtures), seed=seed, results=results,
                        notes=notes)
