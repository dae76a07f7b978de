import json

import numpy as np
import pytest

from homlab import (
    algebra_to_dict,
    counterexample_fixtures,
    cyclic_group_magma,
    linearize,
    magma_to_dict,
    nonlie_hom_iii_algebra,
    sl2_algebra,
)
from homlab.cli import main

FIXTURES = {f.num: f for f in counterexample_fixtures()}


@pytest.fixture
def magma_file(tmp_path):
    path = tmp_path / "item4.json"
    path.write_text(json.dumps(magma_to_dict(FIXTURES[4].magma())))
    return str(path)


@pytest.fixture
def algebra_file(tmp_path):
    path = tmp_path / "bracket.json"
    path.write_text(json.dumps(algebra_to_dict(nonlie_hom_iii_algebra(7))))
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"max_n": 2, "require": ["I2"], "violate": ["I3"]}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_holding_identity(capsys, magma_file):
    code, out = run(capsys, ["check", magma_file, "--identity", "I3"])
    assert code == 0
    assert "holds" in out


def test_check_failing_identity_prints_witness(capsys, magma_file):
    code, out = run(capsys, ["check", magma_file, "--identity", "I1", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["witness"] is not None and len(payload["witness"]) == 3


def test_check_with_identity_text(capsys, magma_file):
    code, out = run(capsys, ["check", magma_file, "--identity", "x*(y*a(z)) = (a(x)*y)*z"])
    assert code == 0


def test_check_algebra_file(capsys, algebra_file):
    code, out = run(capsys, ["check", algebra_file, "--identity", "lie:III", "--json"])
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_profile_magma(capsys, magma_file):
    code, out = run(capsys, ["profile", magma_file, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert "I3" in payload["assoc"] and "I1" not in payload["assoc"]


def test_profile_algebra_has_both_families(capsys, algebra_file):
    code, out = run(capsys, ["profile", algebra_file, "--json"])
    payload = json.loads(out)
    assert "lie" in payload and "III" in payload["lie"]


def test_search_finds_countermodel_with_exit_one(capsys, spec_file):
    code, out = run(capsys, ["search", spec_file, "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["outcome"] == "countermodel"
    assert payload["model"]["alpha"] == {"e2": "e1"}
    assert payload["model"]["products"] == {}


def test_search_exhaustion_exits_zero(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"max_n": 2, "require": ["I1"], "violate": ["I3"]}))
    code, out = run(capsys, ["search", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["outcome"] == "exhausted"


def test_search_json_identical_across_workers(capsys, spec_file):
    outputs = []
    for w in ("1", "2", "8"):
        code, out = run(capsys, ["search", spec_file, "--workers", w, "--json"])
        assert code == 1
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_reproduce_passes(capsys):
    code, out = run(capsys, ["reproduce", "--max-n", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["fixtures"]) == 16
    assert payload["lie"]["jacobiator-sums"] is True


def test_lie_verify(capsys, tmp_path):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(algebra_to_dict(sl2_algebra(7))))
    code, out = run(capsys, ["lie-verify", str(path), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["is-lie"] is True
    assert payload["expansion-nine-term"] is True
    assert payload["passed"] is True


def test_jacobiator_basis_names(capsys, algebra_file):
    code, out = run(capsys, ["jacobiator", algebra_file, "--type", "I1",
                             "--at", "e1,e2,e3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["tag"] == "lie:I1"
    assert len(payload["value"]) == 3


def test_jacobiator_explicit_vectors(capsys, algebra_file):
    code, out = run(capsys, ["jacobiator", algebra_file, "--type", "lie:I1",
                             "--at", "1,0,0;0,1,0;0,0,1", "--json"])
    assert code == 0


def test_export_round_trips_schemas(capsys, tmp_path):
    code, out = run(capsys, ["export", "--what", "fixtures", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["fixtures"]) == 16
    # the emitted structures load back through the documented schema
    from homlab import magma_from_dict, type_profile

    for num, entry in payload["fixtures"].items():
        m = magma_from_dict(entry["structure"])
        prof = type_profile(m).names("assoc")
        assert set(entry["satisfied"]) <= prof
        assert not set(entry["violated"]) & prof


def test_usage_errors_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["check", str(bad), "--identity", "I1"]) == 2
    assert main(["check", str(tmp_path / "missing.json"), "--identity", "I1"]) == 2
    assert main(["nonsense"]) == 2


def test_identity_parse_error_exits_two(capsys, magma_file):
    assert main(["check", magma_file, "--identity", "x*"]) == 2
    assert main(["check", magma_file, "--identity", "IV"]) == 2


def test_cyclic_identity_on_magma_exits_two(capsys, magma_file):
    assert main(["check", magma_file, "--identity", "lie:I1"]) == 2


def test_reverify_failure_exits_three(capsys, monkeypatch, tmp_path):
    # With the leaf check accepting every complete table, the first model
    # satisfies I1 and hence I3; the independent re-check must catch it.
    from homlab import search

    monkeypatch.setattr(
        search._SizeSearch, "_violating_rows", lambda self: [True] * len(self.domain)
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"max_n": 2, "require": ["I1"], "violate": ["I3"]}))
    assert main(["search", str(path), "--json"]) == 3
    assert "forbidden I3" in capsys.readouterr().err


def test_lie_fixture_self_check_failure_exits_three(capsys, monkeypatch):
    from homlab import liecheck

    monkeypatch.setattr(liecheck, "is_lie", lambda algebra: True)
    assert main(["export", "--what", "fixtures", "--json"]) == 3
    assert "self-check failed" in capsys.readouterr().err
