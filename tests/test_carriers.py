import json

import numpy as np
import pytest

from homlab import (
    ConflictingRelation,
    IndexOutOfRange,
    RelationSyntaxError,
    SkewViolation,
    StructureError,
    UnitLawViolation,
    ZeroLawViolation,
    algebra_from_dict,
    algebra_to_dict,
    counterexample_fixtures,
    cyclic_group_magma,
    from_relations,
    linearize,
    magma_from_dict,
    magma_to_dict,
    modp,
    new_algebra,
    new_magma,
    weak_left_unit,
)
from homlab.carriers import MAX_RELATION_ELEMENT

FIXTURES = {f.num: f for f in counterexample_fixtures()}


def test_new_magma_idempotent_generator():
    m = new_magma(2, [[0, 1], [1, 1]], [0, 1], unit=0)
    assert m.size == 2 and m.unit == 0 and m.zero is None
    assert m.mul(1, 1) == 1


def test_new_magma_unit_law_violation_names_cell():
    with pytest.raises(UnitLawViolation) as err:
        new_magma(2, [[0, 0], [1, 1]], [0, 1], unit=0)
    assert "table[0][1]" in str(err.value)


def test_new_magma_zero_law():
    with pytest.raises(ZeroLawViolation):
        new_magma(3, [[0, 1, 2], [1, 1, 1], [2, 2, 2]], [0, 1, 2], unit=0, zero=2)
    # alpha must fix the zero
    with pytest.raises(ZeroLawViolation):
        new_magma(3, [[0, 1, 2], [1, 2, 2], [2, 2, 2]], [0, 1, 0], unit=0, zero=2)
    with pytest.raises(ZeroLawViolation):
        new_magma(1, [[0]], [0], unit=0, zero=0)


def test_new_magma_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        new_magma(2, [[0, 1], [1, 5]], [0, 1], unit=0)
    with pytest.raises(IndexOutOfRange):
        new_magma(2, [[0, 1], [1, 1]], [0, 2], unit=0)


def test_from_relations_item4_shape():
    m = FIXTURES[4].magma()
    assert m.size == 4  # e1, e2, e3 and the adjoined zero
    assert m.unit == 0 and m.zero == 3
    assert m.mul(1, 1) == 0          # e2*e2 = e1
    assert m.twist(0) == 2           # alpha(e1) = e3
    assert m.twist(1) == 3           # unlisted alpha values are zero


def test_from_relations_empty_is_trivial_with_zero():
    m = from_relations("")
    assert m.size == 2 and m.unit == 0 and m.zero == 1
    assert m.mul(0, 0) == 0 and m.twist(0) == 1


def test_from_relations_item11_has_five_elements():
    m = from_relations("e3*e2=e4; e4*e3=e2; alpha: e1->e3")
    assert m.size == 5
    assert m.mul(2, 1) == 3 and m.mul(3, 2) == 1


def test_from_relations_elements_clause():
    m = from_relations("elements: e1 e2; alpha: e1->e1")
    assert m.size == 3
    assert m.twist(0) == 0 and m.twist(1) == 2


def test_from_relations_agrees_with_explicit_table():
    m = from_relations("alpha: e2->e1")
    explicit = new_magma(
        3,
        [[0, 1, 2], [1, 2, 2], [2, 2, 2]],
        [2, 0, 2],
        unit=0,
        zero=2,
    )
    assert m.table == explicit.table and m.alpha == explicit.alpha


def test_from_relations_errors():
    with pytest.raises(RelationSyntaxError):
        from_relations("e2+e2=e1")
    with pytest.raises(RelationSyntaxError):
        from_relations("alpha: e2=>e1")
    with pytest.raises(ConflictingRelation):
        from_relations("e2*e2=e1; e2*e2=e3")
    with pytest.raises(ConflictingRelation):
        from_relations("alpha: e2->e1, e2->e2")
    with pytest.raises(ConflictingRelation):
        from_relations("e1*e2=e3")  # breaks the unit law
    # consistent unit-law products are accepted
    m = from_relations("e1*e2=e2")
    assert m.size == 3


def test_from_relations_refuses_huge_elements_before_allocating():
    # e5000000 would ask for a table of about 2.5e13 cells.
    for text in ("e5000000*e2=e1", "elements: e1 e5000000", "alpha: e5000000->e1",
                 f"e2*e2=e{MAX_RELATION_ELEMENT + 1}"):
        with pytest.raises(RelationSyntaxError):
            from_relations(text)
    assert from_relations(f"elements: e{MAX_RELATION_ELEMENT}").size == MAX_RELATION_ELEMENT + 1


@pytest.mark.parametrize("num", sorted(FIXTURES))
def test_magma_json_round_trip(num):
    m = FIXTURES[num].magma()
    data = json.loads(json.dumps(magma_to_dict(m)))
    back = magma_from_dict(data)
    assert back.table == m.table
    assert back.alpha == m.alpha
    assert back.unit == m.unit and back.zero == m.zero


@pytest.mark.parametrize("data", [
    {"elements": ["e1", "e1"], "unit": "e1"},  # duplicate names
    {"elements": ["e1", "0"], "unit": "e1"},  # 0 names the adjoined zero
    {"elements": ["e1", "e2"], "unit": "e1", "products": {"e2": "e2"}},
    {"elements": ["e1", "e2"], "unit": "e1", "products": {"e2 e2 e2": "e2"}},
    {"elements": [f"e{k}" for k in range(1, MAX_RELATION_ELEMENT + 2)], "unit": "e1"},
    # JSON values of the wrong type
    [1, 2],
    {"elements": [["a"]], "unit": None},
    {"elements": [1, 2], "unit": 1},
    {"elements": "e1 e2", "unit": "e1"},
    {"elements": ["e1", "e2"], "unit": ["e1"]},
    {"elements": ["e1", "e2"], "unit": "e1", "products": {"e2 e2": ["e1"]}},
    {"elements": ["e1", "e2"], "unit": "e1", "products": [["e2 e2", "e1"]]},
    {"elements": ["e1", "e2"], "unit": "e1", "alpha": {"e2": 1}},
    {"elements": ["e1", "e2"], "unit": "e1", "zero": "false"},
])
def test_magma_from_dict_refuses_malformed_structure_files(data):
    with pytest.raises(RelationSyntaxError):
        magma_from_dict(data)


def test_magma_from_dict_accepts_the_element_limit_and_zero_free_0():
    names = [f"e{k}" for k in range(1, MAX_RELATION_ELEMENT + 1)]
    assert magma_from_dict({"elements": names, "unit": "e1"}).size == MAX_RELATION_ELEMENT + 1
    m = magma_from_dict({"elements": ["0", "e1"], "unit": "0", "zero": False,
                         "products": {"e1 e1": "0"}, "alpha": {"0": "0", "e1": "e1"}})
    assert m.names == ("0", "e1") and m.zero is None and m.unit == 0


def test_magma_json_round_trip_no_zero():
    m = cyclic_group_magma(3, twist_power=1)
    back = magma_from_dict(magma_to_dict(m))
    assert back.table == m.table and back.alpha == m.alpha
    assert back.zero is None


def test_algebra_from_dict_checks_dim_and_refuses_unknown_keys():
    data = algebra_to_dict(linearize(FIXTURES[10].magma(), 7))
    assert algebra_from_dict({k: v for k, v in data.items() if k != "dim"}).dim == data["dim"]
    for bad in ({"dim": data["dim"] + 1}, {"dim": str(data["dim"])}, {"dim": None}):
        with pytest.raises(StructureError, match="dim"):
            algebra_from_dict(data | bad)
    with pytest.raises(StructureError, match="'units'"):
        algebra_from_dict(data | {"units": data["unit"]})
    with pytest.raises(RelationSyntaxError, match="'product'"):
        magma_from_dict({"elements": ["e1", "e2"], "unit": "e1", "product": {"e2 e2": "e1"}})


def test_algebra_json_round_trip():
    a = linearize(FIXTURES[10].magma(), 7)
    data = json.loads(json.dumps(algebra_to_dict(a)))
    back = algebra_from_dict(data)
    assert np.array_equal(back.c, a.c)
    assert np.array_equal(back.alpha, a.alpha)
    assert back.kind == a.kind
    assert np.array_equal(back.unit, a.unit)


def test_algebra_products_stay_exact_or_are_refused(monkeypatch):
    # 1 * (p-1) * (p-1) * (p-1) overflows int64 at p = 2**31 - 1.
    big = 2**31 - 1
    with pytest.raises(StructureError):
        new_algebra(big, [[[big - 1]]], [[big - 1]])
    # The bound is checked before the primality test, which is slow for
    # p = 2**89 - 1.
    def no_primality_test(n):
        raise AssertionError("is_prime called on an oversized modulus")
    with monkeypatch.context() as patch:
        patch.setattr(modp, "is_prime", no_primality_test)
        with pytest.raises(StructureError):
            new_algebra(2**89 - 1, [[[1]]], [[1]])
    # The largest prime with (p-1)**3 < 2**63 stays exact in dimension 1,
    # and is refused in dimension 2.
    p = 2**21 - 9
    a = new_algebra(p, [[[p - 1]]], [[p - 1]])
    assert a.product([p - 1], [p - 1]).tolist() == [pow(p - 1, 3, p)]
    with pytest.raises(StructureError):
        new_algebra(p, np.zeros((2, 2, 2)), np.eye(2))


def _reference_product(a, u, v):
    """u * v by the definition, sum over i, j of u_i v_j c_ijk mod p, in
    Python integers over the broadcast batch."""
    u, v = np.asarray(u), np.asarray(v)
    batch = np.broadcast_shapes(u.shape[:-1], v.shape[:-1])
    u, v = np.broadcast_to(u, batch + (a.dim,)), np.broadcast_to(v, batch + (a.dim,))
    c = a.c.tolist()
    out = np.zeros(batch + (a.dim,), dtype=np.int64)
    for at in np.ndindex(*batch):
        x, y = [int(t) for t in u[at]], [int(t) for t in v[at]]
        for k in range(a.dim):
            total = sum(
                x[i] * y[j] * c[i][j][k] for i in range(a.dim) for j in range(a.dim)
            )
            out[at + (k,)] = total % a.p
    return out


def _random_algebra(rng, p, dim, kind):
    c = rng.integers(0, p, (dim, dim, dim))
    if kind == "skew":
        c = np.triu(np.ones((dim, dim), dtype=np.int64), 1)[:, :, None] * c
        c = c - c.transpose(1, 0, 2)
    return new_algebra(p, c, np.eye(dim), kind)


@pytest.mark.parametrize("kind", ["general", "skew"])
@pytest.mark.parametrize("dim", [1, 3, 12])
def test_product_matches_the_definition(dim, kind):
    rng = np.random.default_rng(dim)
    p = 7
    a = _random_algebra(rng, p, dim, kind)
    e = np.eye(dim, dtype=np.int64)
    wide = rng.integers(-3 * p, 3 * p, (4, dim))  # unreduced and negative entries
    pairs = [
        (wide[0], wide),                            # u broadcasts
        (wide, wide[1]),                            # v broadcasts
        (wide, wide[::-1]),                         # equal shapes
        (e[:, None, :], e[None, :, :]),             # a basis grid
        (wide[:, None, None, :], wide[None, :2]),   # u holds more entries
        (np.zeros((0, dim), dtype=np.int64), wide[2]),  # empty batch
        (wide[3], np.zeros((2, 0, dim), dtype=np.int64)),
    ]
    for u, v in pairs:
        got = a.product(u, v)
        want = _reference_product(a, u, v)
        assert got.shape == want.shape
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_product_at_the_largest_prime_of_dimension_two_does_not_wrap():
    # The largest prime with 2**2 * (p-1)**3 < 2**63: with every entry p - 1
    # the unreduced sum is 4 * (p-1)**3, just below 2**63.
    p = 1321109
    assert modp.is_prime(p) and 4 * (p - 1) ** 3 < 2**63
    higher = next(q for q in range(p + 1, 2 * p) if modp.is_prime(q))
    assert 4 * (higher - 1) ** 3 >= 2**63
    with pytest.raises(StructureError):
        new_algebra(higher, np.zeros((2, 2, 2)), np.eye(2))
    a = new_algebra(p, np.full((2, 2, 2), p - 1), np.eye(2))
    top = np.full((3, 2), p - 1)
    pairs = [(top, top), (top[0], top), (top, top[0]), (top[0], top[0])]
    # Operands are reduced before they are summed: p - 1 + 5p and p - 1 - 9p too.
    pairs.append((top + 5 * p, top[0] - 9 * p))
    for u, v in pairs:
        got = a.product(u, v)
        assert np.all(got == 4 * (p - 1) ** 3 % p)
        assert np.array_equal(got, _reference_product(a, u, v))


@pytest.mark.parametrize("entries", [
    {"c": [[[2**70]]]},
    {"alpha": [[2**64]]},
    {"unit": [2**63]},
])
def test_algebra_entries_outside_int64_are_structure_errors(entries):
    args = {"c": [[[1]]], "alpha": [[1]], "unit": None} | entries
    with pytest.raises(StructureError):
        new_algebra(7, args["c"], args["alpha"], "general", args["unit"])


@pytest.mark.parametrize("p, entries", [
    (7.0, {}),
    ("7", {}),
    (True, {}),
    (7, {"c": [[[1.5]]]}),
    (7, {"alpha": [[1.5]]}),
    (7, {"unit": [1.5]}),
    (7, {"c": [[[True]]]}),
    (7, {"alpha": [["1"]]}),
    (7, {"c": np.full((1, 1, 1), np.nan)}),
])
def test_algebra_entries_must_be_integers(p, entries):
    args = {"c": [[[1]]], "alpha": [[1]], "unit": [1]} | entries
    with pytest.raises(StructureError):
        new_algebra(p, args["c"], args["alpha"], "general", args["unit"])
    with pytest.raises(StructureError):
        algebra_from_dict({"p": p} | args)


def test_algebra_accepts_integer_arrays_and_integral_floats():
    want = new_algebra(7, [[[1]]], [[3]], "general", [1])
    for dtype in (np.int8, np.uint8, np.int32, np.int64, np.float64):
        a = new_algebra(np.int64(7), np.ones((1, 1, 1), dtype=dtype),
                        np.full((1, 1), 3, dtype=dtype), "general", np.ones(1, dtype=dtype))
        assert a.p == 7 and type(a.p) is int
        assert a.c.dtype == np.int64 and np.array_equal(a.c, want.c)
        assert np.array_equal(a.alpha, want.alpha) and np.array_equal(a.unit, want.unit)


def test_linearize_trivial():
    a = linearize(from_relations(""), 2)
    assert a.dim == 1 and a.p == 2
    assert np.array_equal(a.unit, [1])
    assert a.product([1], [1]).tolist() == [1]


def test_linearize_rejects_composite_modulus():
    with pytest.raises(StructureError):
        linearize(from_relations(""), 6)


def test_skew_validation():
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 0, 1] = 1
    with pytest.raises(SkewViolation):
        new_algebra(5, c, np.eye(2), "skew")
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 1, 0] = 1
    c[1, 0, 0] = 1  # not antisymmetric
    with pytest.raises(SkewViolation):
        new_algebra(5, c, np.eye(2), "skew")


def test_skew_product_alternates_on_random_vectors():
    rng = np.random.default_rng(42)
    c = np.zeros((3, 3, 3), dtype=np.int64)
    c[0, 1] = rng.integers(0, 7, 3)
    c[1, 0] = (-c[0, 1]) % 7
    c[0, 2] = rng.integers(0, 7, 3)
    c[2, 0] = (-c[0, 2]) % 7
    a = new_algebra(7, c, np.eye(3), "skew")
    for _ in range(100):
        v = rng.integers(0, 7, 3)
        assert not np.any(a.product(v, v))


def test_unit_vector_validated():
    c = np.zeros((2, 2, 2), dtype=np.int64)
    with pytest.raises(StructureError):
        new_algebra(5, c, np.eye(2), "general", unit=[1, 0])


def test_weak_left_unit_identity_twist():
    m = cyclic_group_magma(3, twist_power=0)
    w = weak_left_unit(m)
    assert w is not None and w.element == m.unit


def test_weak_left_unit_zero_twist():
    m = from_relations("e2*e2=e2")
    assert all(v == m.zero for v in m.alpha)
    w = weak_left_unit(m)
    assert w is not None and w.element == m.zero


def test_weak_left_unit_absent():
    # alpha(e2) = e1 admits no c: c*e1 = c must be alpha(e1) = 0, forcing
    # alpha(e2) = 0*e2 = 0.
    m = FIXTURES[1].magma()
    assert weak_left_unit(m) is None


def test_weak_left_unit_group_algebra():
    magma = cyclic_group_magma(3, twist_power=1)
    assert weak_left_unit(magma).element == 1
    algebra = linearize(magma, 7)
    w = weak_left_unit(algebra)
    assert w is not None
    g = np.array([0, 1, 0], dtype=np.int64)
    assert np.array_equal(w.element, g)


def test_weak_left_unit_absent_on_algebra():
    a = linearize(FIXTURES[1].magma(), 7)
    assert weak_left_unit(a) is None
