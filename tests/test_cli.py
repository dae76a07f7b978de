import hashlib
import json

import numpy as np
import pytest

from homlab import (
    algebra_to_dict,
    counterexample_fixtures,
    cyclic_group_magma,
    find_model,
    linearize,
    magma_to_dict,
    nonlie_hom_iii_algebra,
    sl2_algebra,
    spec_from_dict,
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


def test_search_text_summary_shows_the_leaf_check_cells(capsys, spec_file):
    stats = find_model(spec_from_dict({"max_n": 2, "require": ["I2"], "violate": ["I3"]})).stats
    assert stats.leaf_cells > 0
    code, out = run(capsys, ["search", spec_file])
    assert f"{stats.cells} cells evaluated, {stats.leaf_cells} in the leaf check, " in out
    code, out = run(capsys, ["search", spec_file, "--json"])
    assert "leaf" not in out


def test_search_text_summary_shows_the_search_counts(capsys, spec_file):
    code, out = run(capsys, ["search", spec_file])
    assert code == 1
    stats = find_model(spec_from_dict({"max_n": 2, "require": ["I2"], "violate": ["I3"]})).stats
    assert stats.cells > 0
    assert (f"[{stats.nodes} nodes, {stats.models} models tested, "
            f"{stats.cells} cells evaluated, ") in out
    code, out = run(capsys, ["search", spec_file, "--json"])
    assert "cells" not in out and "nodes" not in out


def test_search_json_identical_across_workers(capsys, spec_file):
    outputs = []
    for w in ("1", "2", "8"):
        code, out = run(capsys, ["search", spec_file, "--workers", w, "--json"])
        assert code == 1
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_fewer_than_one_worker_exits_two(capsys, spec_file, workers):
    for argv in (["search", spec_file], ["reproduce", "--max-n", "1"]):
        assert main(argv + ["--workers", workers, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"workers must be at least 1, got {workers}" in captured.err


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


def test_lie_verify_in_characteristic_two_leaves_out_the_probe(capsys, tmp_path):
    # The self-adjointness probe needs odd characteristic; every other row
    # applies at p = 2.
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 1] = c[1, 0, 1] = 1  # [e1, e2] = e2 = -[e2, e1] mod 2
    path = tmp_path / "p2.json"
    path.write_text(json.dumps({"p": 2, "c": c.tolist(), "alpha": [[1, 0], [0, 1]], "kind": "skew"}))
    code, out = run(capsys, ["lie-verify", str(path), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert not {"self-adjoint", "self-adjoint-consequences"} & set(payload)
    for row in ("is-lie", "jacobiator-sums", "type-implications", "twisted-bracket",
                "expansion-nine-term", "expansion-residual-accounted", "passed"):
        assert payload[row] is True, row


def test_check_refuses_a_non_multilinear_identity_on_an_algebra(capsys, tmp_path):
    # e_i * e_j = e_j, so x*y = y holds on every basis pair but not at
    # x = 0: the basis grid cannot decide it.
    path = tmp_path / "right.json"
    path.write_text(json.dumps({
        "p": 7, "c": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], "alpha": [[1, 0], [0, 1]],
        "kind": "general",
    }))
    assert main(["check", str(path), "--identity", "x*y = y"]) == 2
    assert "holds" not in capsys.readouterr().out


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


def test_jacobiator_reduces_huge_vector_entries(capsys, algebra_file):
    huge = 2**64 + 3
    code, out = run(capsys, ["jacobiator", algebra_file, "--type", "lie:I1",
                             "--at", f"{huge},0,0;0,1,0;0,0,{-huge}", "--json"])
    assert code == 0
    code, reduced = run(capsys, ["jacobiator", algebra_file, "--type", "lie:I1",
                                 "--at", f"{huge % 7},0,0;0,1,0;0,0,{-huge % 7}", "--json"])
    assert code == 0 and out == reduced


@pytest.mark.parametrize("data", [
    # (p-1)**3 overflows int64: the identity below would be reported to fail.
    {"p": 2**31 - 1, "c": [[[2**31 - 2]]], "alpha": [[2**31 - 2]]},
    {"p": 7, "c": [[[2**70]]], "alpha": [[1]]},
    {"p": 7, "c": [[[1]]], "alpha": [[1]], "unit": [2**64]},
    {"elements": ["e1", "e1"], "unit": "e1"},
    {"elements": ["e1", "0"], "unit": "e1"},
    # JSON values of the wrong type
    [1, 2],
    "pc",
    {"elements": [["a"]], "unit": None},
    {"elements": [1, 2], "unit": 1},
    {"elements": ["e1", "e2"], "unit": 1},
    {"elements": ["e1", "e2"], "unit": "e1", "products": {"e2 e2": ["e1"]}},
    {"elements": ["e1", "e2"], "unit": "e1", "alpha": {"e2": ["e1"]}},
    # entries that are not integers, truncated in the past
    {"p": 7.0, "c": [[[1]]], "alpha": [[1]]},
    {"p": "7", "c": [[[1]]], "alpha": [[1]]},
    {"p": True, "c": [[[1]]], "alpha": [[1]]},
    {"p": 7, "c": [[[1.5]]], "alpha": [[1]]},
    {"p": 7, "c": [[[1]]], "alpha": [[1.5]]},
    {"p": 7, "c": [[[1]]], "alpha": [[1]], "unit": [1.5]},
    # keys that nothing reads, once ignored: the first built the all-zero
    # table, and the other two profiled as 1-dimensional algebras
    {"elements": ["e1", "e2"], "unit": "e1", "product": {"e2 e2": "e1"}},
    {"p": 7, "c": [[[0]]], "alpha": [[1]], "kind": "skew", "unti": [1]},
    {"p": 7, "dim": 4, "c": [[[0]]], "alpha": [[1]], "kind": "skew"},
])
def test_unusable_structure_files_exit_two(capsys, tmp_path, data):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--identity", "a(x)*a(y) = x*y"]) == 2


@pytest.mark.parametrize("spec", [
    {"max_n": 2, "require": ["I2"], "violate": ["I3"], "with_zero": "false"},
    {"max_n": 2.7, "require": ["I2"], "violate": ["I3"]},
    {"max_n": 2, "require": "I2", "violate": ["I3"]},
    [1],
    {"max_n": 2, "require": [5]},
    {"max_n": True, "violate": ["I3"]},
    {"max_n": "2", "violate": ["I3"]},
    {"max_n": 2, "violate": "I3"},
    {"max_n": 2, "violate": ["I3"], "custom": "x*y = y*x"},
    {"max_n": 2, "violate": ["I3"], "unital": 1},
    {"max_n": 2, "violate": ["I3"], "prune_isomorphs": None},
    {"max_n": 2, "require": ["I2"], "violates": ["I3"]},
], ids=(
    "flag-string", "max-n-float", "require-string", "top-level-list", "require-int",
    "max-n-bool", "max-n-string", "violate-string", "custom-string", "flag-int", "flag-null",
    "key-typo",
))
def test_malformed_spec_files_exit_two(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["search", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


# SHA-256 of the --json bytes, closing newline included: the paper's run
# and the bound-4 countermodel must stay byte-identical at every worker
# count.
REPRODUCE3_JSON = (3271, "93e7dc8eb35a599037c535380b1fd8131c73d342cc32eddbbb01fcec81cdccbb")
DEEP4_SEARCH_JSON = (163, "9a7e66c07acada1c4912c6d46420625d9fb57da0b8248c8fa33b82063194cc88")


def _json_digest(capsys, argv, code):
    assert main(argv) == code
    out = capsys.readouterr().out.encode()
    return len(out), hashlib.sha256(out).hexdigest()


def test_json_output_bytes_are_pinned(capsys, tmp_path):
    reproduce = ["reproduce", "--max-n", "3", "--json"]
    assert _json_digest(capsys, reproduce, 0) == REPRODUCE3_JSON
    path = tmp_path / "deep4.json"
    path.write_text(json.dumps({"max_n": 4, "require": ["I2", "II1", "II3"], "violate": ["II2"]}))
    for workers in ("1", "2"):
        search = ["search", str(path), "--json", "--workers", workers]
        assert _json_digest(capsys, search, 1) == DEEP4_SEARCH_JSON


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
        search._SizeSearch, "_violating_rows", lambda self, table, alpha: [True] * len(table)
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
