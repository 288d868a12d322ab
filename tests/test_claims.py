import hashlib
import json

import pytest

from charforge.claims import run_claims


def test_registered_claim_set_is_fixed():
    rep = run_claims(seed=42)
    assert [r.claim_id for r in rep.results] == ["C1", "C2", "C3", "C4", "C5", "C6", "C7"]
    assert set(rep.fixtures) == {"trivial", "c2", "c2xc2", "s3", "d4", "q8",
                                 "pauli1", "clifford1"}


def test_statuses_and_canonical_residuals():
    rep = run_claims(seed=42)
    assert rep.by_id("C1").status == "holds"
    c2 = rep.by_id("C2")
    assert c2.status == "fails"
    assert c2.residual == pytest.approx(1.0, abs=1e-12)
    c3 = rep.by_id("C3")
    assert c3.status == "holds-conditionally"
    assert c3.condition == "degree-1 irreps only"
    assert c3.residual <= 1e-8
    d4_violations = [v for k, v in c3.instances.items() if k.startswith("d4")]
    assert d4_violations and max(d4_violations) > 0.1
    assert rep.by_id("C4").status == "holds"
    c5 = rep.by_id("C5")
    assert c5.status == "holds" and c5.residual == 0.0
    c6 = rep.by_id("C6")
    assert c6.status == "fails"
    assert c6.residual == pytest.approx(9.0, abs=1e-9)
    c7 = rep.by_id("C7")
    assert c7.status == "holds" and c7.residual == 0.0


def test_report_notes_faithful_pauli_order():
    rep = run_claims(seed=42)
    assert any("order 16" in note for note in rep.notes)


def test_report_is_deterministic_for_fixed_seed():
    a = run_claims(seed=7).to_json_text()
    b = run_claims(seed=7).to_json_text()
    assert a == b


def test_json_fields_exactly_as_specified():
    rep = run_claims(seed=42)
    data = json.loads(rep.to_json_text())
    assert len(data) == 7
    for entry in data:
        assert set(entry) == {"claim_id", "location", "description", "status",
                              "residual", "condition"}
        assert entry["status"] in ("holds", "fails", "holds-conditionally")
        assert entry["residual"] >= 0.0


def test_the_claims_json_is_pinned():
    rep = run_claims(seed=42)
    assert hashlib.sha256(rep.to_json_text().encode()).hexdigest().startswith("b92680abfe1692f2")
    assert any(note.startswith("the 1-qubit Pauli fixture is the faithful matrix group") for note in rep.notes)
