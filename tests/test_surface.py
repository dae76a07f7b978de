"""The public surface: every exported name stays importable, the narrative
demos still run, and no module imports a name it never uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homlab

ROOT = Path(__file__).resolve().parents[1]

# The public names of homlab; none may disappear.
PUBLIC_NAMES = (
    "ALL_TAGS", "ASSOC_TAGS", "AlphaNotInvertible", "ConflictingRelation",
    "CyclicNotSupportedOnMagma", "DEFAULT_PRIME", "FieldHomAlgebra", "FiniteHomMagma",
    "Fixture", "HomLabError", "HypothesisNotMet", "IMPLICATION_EDGES", "Identity",
    "IdentitySyntaxError", "IndexOutOfRange", "LEMMAS", "LIE_TAGS",
    "NonMultilinearIdentity", "NotSApplicable", "NotWeaklyUnital", "Prod",
    "RelationSyntaxError", "SUSPECT_EDGES", "SearchSpec", "SkewViolation",
    "StructureError", "TYPE_NAMES", "Term", "Twist", "TypeProfile", "TypeTag", "Unit",
    "UnitLawViolation", "UnitRequired", "UnknownVariable", "Var", "Verdict",
    "WeakUnitWitness", "ZeroLawViolation", "abelian_algebra", "algebra_from_dict",
    "algebra_to_dict", "builtin", "canonical_form", "carriers", "central_series",
    "counterexample_fixtures", "cyclic_group_magma", "cyclic_sum", "enumerate_models",
    "errors", "evaluate", "expansion_residuals", "find_model", "first_violation",
    "first_violation_multilinear", "from_relations", "heisenberg_algebra", "hierarchy",
    "holds", "holds_multilinear", "hom_iii_by_kernel_algebra", "i1_not_i2_algebra",
    "identity_gap", "inverse_twist_check", "is_lie", "is_morphism", "jacobiator",
    "lemma_equalities", "lie_fixtures", "liecheck", "linearize", "magma_from_dict",
    "magma_to_dict", "model_key", "modp", "morphism_defect", "new_algebra", "new_magma",
    "nonlie_hom_iii_algebra", "parse_identity", "render_identity", "s_transform",
    "search", "self_adjointness_probe", "sl2_algebra", "solvable2_algebra",
    "solvable_morphism_algebra", "spec_from_dict", "spec_to_dict",
    "sweep_jacobiator_sums", "tag_from_string", "terms", "twisted_bracket",
    "type_defect", "type_profile", "verdict_to_dict", "verify_fixture",
    "verify_hierarchy", "verify_implication", "verify_jacobiator_sums",
    "verify_lie_type_implications", "verify_twisted_bracket_lie", "weak_left_unit",
)


def test_public_names_importable():
    missing = [name for name in PUBLIC_NAMES if not hasattr(homlab, name)]
    assert not missing


# Every narrative demo, the full reproduction of demo 05 included.
@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _unused_imports(path):
    """Names a module binds by import but never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "module", sorted(p.name for p in (ROOT / "src" / "homlab").glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    assert _unused_imports(ROOT / "src" / "homlab" / module) == []


def _definitions(path):
    """(qualified name, name) of each top-level function and class of a
    module and of each method of its classes, dunder methods aside."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            ]
    return out


def _references():
    """Every name read, attribute taken or name imported in src, tests and demos."""
    names = set()
    for folder in ("src", "tests", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names |= {a.name for a in node.names}
    return names


def test_every_definition_is_referenced():
    references = _references()
    unreferenced = [
        f"{path.stem}.{qualified}"
        for path in sorted((ROOT / "src" / "homlab").glob("*.py"))
        for qualified, name in _definitions(path)
        if name not in references
    ]
    assert unreferenced == []


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "homlab").glob("*.py")))
def test_no_code_is_generated_at_run_time(module):
    # Every identity runs through evaluate.run_program: no module builds
    # source text and runs it.
    tree = ast.parse((ROOT / "src" / "homlab" / module).read_text())
    calls = [
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval", "compile")
    ]
    assert calls == []
