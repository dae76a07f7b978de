import itertools
import re

import numpy as np
import pytest

from homlab import (
    ASSOC_TAGS,
    CyclicNotSupportedOnMagma,
    Identity,
    NonMultilinearIdentity,
    Prod,
    SearchSpec,
    Twist,
    TypeTag,
    Unit,
    UnitRequired,
    Var,
    builtin,
    central_series,
    counterexample_fixtures,
    cyclic_group_magma,
    find_model,
    first_violation,
    first_violation_multilinear,
    from_relations,
    holds,
    holds_multilinear,
    identity_gap,
    is_lie,
    jacobiator,
    linearize,
    model_key,
    morphism_defect,
    new_algebra,
    new_magma,
    nonlie_hom_iii_algebra,
    parse_identity,
    render_identity,
    sl2_algebra,
    solvable2_algebra,
    solvable_morphism_algebra,
    twisted_bracket,
    type_defect,
    type_profile,
)
from homlab.evaluate import magma_kernel, magma_program, run_program
from homlab.liecheck import random_skew_constants, random_twist
from homlab.modp import rref
from homlab.search import _SizeSearch

FIXTURES = {f.num: f for f in counterexample_fixtures()}

# Hand-coded versions of the ten twisted associativity laws, kept separate
# from the term evaluator on purpose: the two routes must agree.
HAND_CODED = {
    "I1": lambda m, a, x, y, z: (m(a(x), m(y, z)), m(m(x, y), a(z))),
    "I2": lambda m, a, x, y, z: (m(x, m(a(y), z)), m(m(x, a(y)), z)),
    "I3": lambda m, a, x, y, z: (m(x, m(y, a(z))), m(m(a(x), y), z)),
    "II": lambda m, a, x, y, z: (m(x, a(m(y, z))), m(a(m(x, y)), z)),
    "II1": lambda m, a, x, y, z: (m(x, m(a(y), a(z))), m(m(a(x), a(y)), z)),
    "II2": lambda m, a, x, y, z: (m(a(x), m(y, a(z))), m(m(a(x), y), a(z))),
    "II3": lambda m, a, x, y, z: (m(a(x), m(a(y), z)), m(m(x, a(y)), a(z))),
    "III": lambda m, a, x, y, z: (a(m(x, m(y, z))), a(m(m(x, y), z))),
    "III'": lambda m, a, x, y, z: (m(a(x), a(m(y, z))), m(a(m(x, y)), a(z))),
    "III''": lambda m, a, x, y, z: (m(a(x), m(a(y), a(z))), m(m(a(x), a(y)), a(z))),
}


def hand_profile(magma):
    mul = magma.mul
    tw = magma.twist
    rng = range(magma.size)
    out = set()
    for name, fn in HAND_CODED.items():
        if all(
            fn(mul, tw, x, y, z)[0] == fn(mul, tw, x, y, z)[1]
            for x in rng for y in rng for z in rng
        ):
            out.add(name)
    return frozenset(out)


@pytest.mark.parametrize("num", sorted(FIXTURES))
def test_evaluator_agrees_with_hand_coded_laws(num):
    m = FIXTURES[num].magma()
    assert type_profile(m).names("assoc") == hand_profile(m)


def test_evaluator_agrees_on_random_magmas():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        size = n + 1
        table = [[0] * size for _ in range(size)]
        for x in range(size):
            table[0][x] = table[x][0] = x
            table[size - 1][x] = table[x][size - 1] = size - 1
        for i in range(1, n):
            for j in range(1, n):
                table[i][j] = int(rng.integers(0, size))
        alpha = [int(rng.integers(0, size)) for _ in range(n)] + [size - 1]
        m = new_magma(size, table, alpha, unit=0, zero=size - 1)
        assert type_profile(m).names("assoc") == hand_profile(m)


def test_alpha_id_associative_magma_holds_everything():
    m = cyclic_group_magma(4, twist_power=0)
    assert type_profile(m).names("assoc") == frozenset(HAND_CODED)


def test_zero_twist_holds_everything():
    m = from_relations("e2*e3=e2; e3*e3=e1")
    assert all(v == m.zero for v in m.alpha)
    assert type_profile(m).names("assoc") == frozenset(HAND_CODED)


def test_item4_i3_holds_i1_fails():
    m = FIXTURES[4].magma()
    assert holds(m, builtin(TypeTag("assoc", "I3")))
    assert not holds(m, builtin(TypeTag("assoc", "I1")))


def test_cyclic_rejected_on_magma():
    with pytest.raises(CyclicNotSupportedOnMagma):
        holds(FIXTURES[1].magma(), builtin(TypeTag("lie", "I1")))


def test_unit_constant_needs_unit_vector():
    a = new_algebra(5, np.zeros((2, 2, 2)), np.eye(2), "general")
    with pytest.raises(UnitRequired):
        holds_multilinear(a, parse_identity("x*a(1) = a(x)"))


def test_repeated_variable_rejected():
    a = linearize(cyclic_group_magma(3), 5)
    with pytest.raises(NonMultilinearIdentity):
        holds_multilinear(a, parse_identity("(x*x)*y = x*(x*y)"))


def test_variable_free_identity_on_basis_grid():
    a = linearize(cyclic_group_magma(3, 1), 7)
    assert first_violation_multilinear(a, parse_identity("1 = a(1)")) == (0, 0, 0)
    assert not holds_multilinear(a, parse_identity("1 = a(1)"))
    assert holds_multilinear(a, parse_identity("1 = 1"))


def test_zero_product_satisfies_every_tag():
    a = new_algebra(7, np.zeros((3, 3, 3)), np.arange(9).reshape(3, 3), "skew")
    for tag in ASSOC_TAGS:
        assert holds_multilinear(a, builtin(tag))
    assert holds_multilinear(a, builtin(TypeTag("lie", "II2")))


def test_fixture15_profile():
    prof = type_profile(FIXTURES[15].magma()).names("assoc")
    assert {"III", "III'", "III''"} <= prof
    assert not prof & {"I2", "II1", "II2", "II3"}
    again = type_profile(linearize(FIXTURES[15].magma(), 7)).names("assoc")
    assert again == prof


@pytest.mark.parametrize("num", sorted(FIXTURES))
@pytest.mark.parametrize("p", [5, 7])
def test_magma_and_linearized_profiles_agree(num, p):
    m = FIXTURES[num].magma()
    a = linearize(m, p)
    for tag in ASSOC_TAGS:
        assert holds(m, builtin(tag)) == holds_multilinear(a, builtin(tag))


def test_linearized_profiles_agree_at_dimension_ten_and_twelve():
    rng = np.random.default_rng(12)
    n, size = 10, 11
    table = rng.integers(0, size, (size, size))
    table[0, :], table[:, 0] = np.arange(size), np.arange(size)
    table[n, :], table[:, n] = n, n
    alpha = rng.integers(0, size, size)
    alpha[n] = n
    random = new_magma(size, table.tolist(), alpha.tolist(), unit=0, zero=n)
    killed = new_magma(size, table.tolist(), [n] * size, unit=0, zero=n)
    group = cyclic_group_magma(12, 5)
    for m in (group, random, killed):
        assert type_profile(linearize(m, 7)).names("assoc") == type_profile(m).names("assoc")
    assert type_profile(group).names("assoc") == frozenset(HAND_CODED)


def test_jacobiator_abelian_is_zero():
    a = new_algebra(7, np.zeros((3, 3, 3)), np.arange(9).reshape(3, 3) % 7, "skew")
    e = a.basis()
    for name in ("I1", "I2", "I3", "II", "II1", "II2", "II3", "III", "III'", "III''"):
        assert not np.any(jacobiator(a, TypeTag("lie", name), e[0], e[1], e[2]))


def test_jacobiator_plain_on_nonlie_example():
    a = nonlie_hom_iii_algebra(7)
    e = a.basis()
    plain = a.with_twist(np.eye(3, dtype=np.int64))
    value = jacobiator(plain, TypeTag("lie", "I1"), e[0], e[1], e[2])
    assert value.tolist() == [1, 0, 0]


def test_jacobiator_sum_on_random_triples():
    # For a Lie bracket the three degree-one jacobiators cancel; checked
    # pointwise at 1000 random full vectors, not just on the basis.
    a = sl2_algebra(7)
    rng = np.random.default_rng(123)
    alpha = random_twist(3, 7, rng)
    a = a.with_twist(alpha)
    xs = rng.integers(0, 7, size=(1000, 3))
    ys = rng.integers(0, 7, size=(1000, 3))
    zs = rng.integers(0, 7, size=(1000, 3))
    total = (
        jacobiator(a, TypeTag("lie", "I1"), xs, ys, zs)
        + jacobiator(a, TypeTag("lie", "I2"), xs, ys, zs)
        + jacobiator(a, TypeTag("lie", "I3"), xs, ys, zs)
    ) % 7
    assert not np.any(total)


def test_twisted_bracket_zero_and_identity_twists():
    a = sl2_algebra(7)
    zero_twist = a.with_twist(np.zeros((3, 3), dtype=np.int64))
    assert np.array_equal(twisted_bracket(zero_twist).c, a.c)
    id_twist = a.with_twist(np.eye(3, dtype=np.int64))
    assert np.array_equal(twisted_bracket(id_twist).c, (3 * a.c) % 7)


def test_twisted_bracket_of_morphism_instance_is_lie():
    a = solvable_morphism_algebra(7, scale=2)
    tw = twisted_bracket(a)
    # independent brute-force Jacobi check on the basis
    e = tw.basis()
    for i, j, k in itertools.product(range(2), repeat=3):
        s = (
            tw.product(e[i], tw.product(e[j], e[k]))
            + tw.product(e[j], tw.product(e[k], e[i]))
            + tw.product(e[k], tw.product(e[i], e[j]))
        ) % 7
        assert not np.any(s)
    assert is_lie(tw)


def test_morphism_defect():
    a = sl2_algebra(7)  # identity twist is a morphism
    e = a.basis()
    assert not np.any(morphism_defect(a, e[:, None, :], e[None, :, :]))
    b = solvable_morphism_algebra(7)
    assert not np.any(morphism_defect(b, b.basis()[:, None, :], b.basis()[None, :, :]))
    from homlab import i1_not_i2_algebra

    k2 = i1_not_i2_algebra(7)
    e2 = k2.basis()
    defects = morphism_defect(k2, e2[:, None, :], e2[None, :, :])
    assert np.any(defects)


def test_type_defect_zero_twist_and_morphism():
    a = sl2_algebra(7)
    e = a.basis()
    x, y, z = e[:, None, None, :], e[None, :, None, :], e[None, None, :, :]
    assert not np.any(type_defect(a.with_twist(np.zeros((3, 3), dtype=np.int64)), x, y, z))
    assert not np.any(type_defect(a, x, y, z))  # identity twist is a morphism


def test_type_defect_is_difference_of_jacobiators():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = random_skew_constants(3, 7, rng)
        a = new_algebra(7, c, random_twist(3, 7, rng), "skew")
        e = a.basis()
        x, y, z = e[:, None, None, :], e[None, :, None, :], e[None, None, :, :]
        expected = (
            jacobiator(a, TypeTag("lie", "II"), x, y, z)
            - jacobiator(a, TypeTag("lie", "II1"), x, y, z)
        ) % 7
        assert np.array_equal(type_defect(a, x, y, z), expected)


def test_central_series_abelian():
    a = new_algebra(7, np.zeros((3, 3, 3)), np.eye(3), "skew")
    series = central_series(a, 2)
    assert series[1].shape[0] == 0 and series[2].shape[0] == 0


def test_central_series_nonlie_example():
    a = nonlie_hom_iii_algebra(7)
    series = central_series(a, 2)
    expected = rref(np.array([[1, 0, 0], [0, 0, 1]]), 7)
    assert np.array_equal(series[2], expected)


def test_central_series_solvable():
    a = solvable2_algebra(7)
    series = central_series(a, 2)
    e2 = np.array([[0, 1]])
    assert np.array_equal(series[1], e2)
    assert np.array_equal(series[2], e2)


def test_is_lie():
    assert is_lie(sl2_algebra(7))
    assert not is_lie(nonlie_hom_iii_algebra(7))
    assert is_lie(new_algebra(7, np.zeros((2, 2, 2)), np.eye(2), "skew"))


def test_skew_symmetry_relates_offset_jacobiators():
    # J_I3(x, y, z) = -J_I2(x, z, y) on skew carriers, and the same one
    # degree up.
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = random_skew_constants(3, 7, rng)
        a = new_algebra(7, c, random_twist(3, 7, rng), "skew")
        e = a.basis()
        x, y, z = e[:, None, None, :], e[None, :, None, :], e[None, None, :, :]
        j3 = jacobiator(a, TypeTag("lie", "I3"), x, y, z)
        j2_swapped = jacobiator(a, TypeTag("lie", "I2"), x, z, y)
        assert np.array_equal(j3, (-j2_swapped) % 7)
        jj3 = jacobiator(a, TypeTag("lie", "II3"), x, y, z)
        jj2_swapped = jacobiator(a, TypeTag("lie", "II2"), x, z, y)
        assert np.array_equal(jj3, (-jj2_swapped) % 7)


def test_trilinearity_witness():
    # identity_gap at a full-vector triple equals the triple sum of basis
    # gaps weighted by the coordinates: the content of checking on bases.
    rng = np.random.default_rng(17)
    a = linearize(FIXTURES[9].magma(), 7)
    for tag in (TypeTag("assoc", "I1"), TypeTag("assoc", "II2"), TypeTag("lie", "II")):
        ident = builtin(tag)
        e = a.basis()
        grid = identity_gap(
            a, ident, e[:, None, None, :], e[None, :, None, :], e[None, None, :, :]
        )
        for _ in range(200):
            x, y, z = rng.integers(0, 7, size=(3, a.dim))
            direct = identity_gap(a, ident, x, y, z)
            expanded = np.einsum("i,j,k,ijkm->m", x, y, z, grid) % 7
            assert np.array_equal(direct, expanded)


def _jacobi_grid(a):
    e = a.basis()
    x, y, z = e[:, None, None, :], e[None, :, None, :], e[None, None, :, :]
    plain = a.with_twist(np.eye(a.dim, dtype=np.int64))
    return jacobiator(plain, TypeTag("lie", "I1"), x, y, z).reshape(-1, a.dim)


def test_type_iii_equals_twist_killing_jacobi_image():
    # route agreement: lie III through the evaluator coincides with
    # "alpha annihilates every Jacobi value" (linearity of the twist)
    rng = np.random.default_rng(3)
    tag = TypeTag("lie", "III")
    for _ in range(30):
        a = new_algebra(5, random_skew_constants(3, 5, rng), random_twist(3, 5, rng), "skew")
        shortcut = not np.any((a.twist(_jacobi_grid(a))) % 5)
        assert holds_multilinear(a, builtin(tag)) == shortcut


def test_injective_twist_with_type_iii_forces_jacobi():
    # exhaustive over F_2, dimension 3: any skew bracket admitting an
    # injective twist of type III must already satisfy Jacobi (uses the
    # route-checked shortcut above to keep the sweep fast)
    pairs = [(0, 1), (0, 2), (1, 2)]
    invertible = [
        np.array(mat, dtype=np.int64).reshape(3, 3)
        for mat in itertools.product(range(2), repeat=9)
        if round(np.linalg.det(np.array(mat).reshape(3, 3))) % 2 == 1
    ]
    for bits in itertools.product(range(2), repeat=9):
        c = np.zeros((3, 3, 3), dtype=np.int64)
        k = 0
        for i, j in pairs:
            for m in range(3):
                c[i, j, m] = bits[k]
                c[j, i, m] = (2 - bits[k]) % 2
                k += 1
        a = new_algebra(2, c, np.eye(3, dtype=np.int64), "skew")
        if is_lie(a):
            continue
        jac = _jacobi_grid(a).T
        for mat in invertible:
            assert np.any(mat @ jac % 2), "injective twist of type III on a non-Lie bracket"


# Compiled programs against term semantics.  The walker below evaluates a
# term tree directly, one element triple at a time; the compiled program
# (shared by holds, first_violation, the search and its re-check) must
# agree with it on every identity, not only on the ten built-in types.

def walk(term, m, env):
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, Unit):
        if m.unit is None:
            raise UnitRequired("unit constant on a unit-free carrier")
        return m.unit
    if isinstance(term, Twist):
        return m.alpha[walk(term.arg, m, env)]
    return m.table[walk(term.left, m, env)][walk(term.right, m, env)]


def walk_first_violation(m, identity):
    for x, y, z in itertools.product(range(m.size), repeat=3):
        env = {"x": x, "y": y, "z": z}
        if walk(identity.lhs, m, env) != walk(identity.rhs, m, env):
            return (x, y, z)
    return None


def random_term(rng, depth):
    kind = int(rng.integers(0, 6 if depth else 4))
    if kind < 3:
        return Var("xyz"[kind])
    if kind == 3:
        return Unit()
    if kind == 4:
        return Twist(random_term(rng, depth - 1))
    return Prod(random_term(rng, depth - 1), random_term(rng, depth - 1))


def random_identities(rng, count):
    """Parsed identities: fixed ones with the unit, nested twists, repeated
    variables, variable-free sides and shared subterms, then random ones,
    half of which share a subterm between their sides."""
    texts = [
        "a(a(x))*1 = x*a(a(x))",
        "(x*y)*(x*y) = a(x*y)*a(x*y)",
        "1 = a(1)",
        "x = a(a(x))",
        "1*a(1) = a(1)*1",
        "(x*x)*x = x*(x*x)",
        "a(x*(y*z))*z = a((x*y)*z)*z",
    ]
    out = [parse_identity(t) for t in texts]
    while len(out) < count:
        shared = random_term(rng, 2)
        lhs, rhs = random_term(rng, 3), random_term(rng, 3)
        if rng.integers(0, 2):
            lhs, rhs = Prod(shared, lhs), Twist(Prod(rhs, shared))
        out.append(parse_identity(render_identity(Identity(lhs, rhs))))
    return out


def random_magma(rng, n, with_zero, unital=True):
    size = n + (1 if with_zero else 0)
    zero = n if with_zero else None
    table = rng.integers(0, size, size=(size, size))
    alpha = rng.integers(0, size, size=size)
    if unital:
        table[0, :], table[:, 0] = np.arange(size), np.arange(size)
    if with_zero:
        table[zero, :], table[:, zero], alpha[zero] = zero, zero, zero
    return new_magma(size, table.tolist(), alpha.tolist(),
                     unit=0 if unital else None, zero=zero)


def test_compiled_program_agrees_with_term_walker():
    rng = np.random.default_rng(2024)
    identities = random_identities(rng, 60)
    for k in range(40):
        m = random_magma(rng, int(rng.integers(1, 5)), with_zero=bool(k % 2))
        for identity in identities:
            expected = walk_first_violation(m, identity)
            assert first_violation(m, identity) == expected, (identity, m)
            assert holds(m, identity) == (expected is None)


def test_unit_constant_needs_unit_on_magmas():
    rng = np.random.default_rng(5)
    m = random_magma(rng, 3, with_zero=False, unital=False)
    for text in ("x*1 = x", "1 = a(1)", "a(a(x))*1 = a(x)"):
        identity = parse_identity(text)
        with pytest.raises(UnitRequired):
            walk_first_violation(m, identity)
        with pytest.raises(UnitRequired):
            holds(m, identity)
    assert holds(m, parse_identity("x = x"))
    for spec in (
        SearchSpec(max_n=2, require=("x*1 = x",), with_zero=False, unital=False),
        SearchSpec(max_n=2, violate=("1 = a(1)",), unital=False),
    ):
        with pytest.raises(UnitRequired):
            find_model(spec)


def small_unital_magmas(max_n):
    """Every unital magma with adjoined zero and at most max_n nonzero
    elements, by raw iteration over the free cells."""
    for n in range(1, max_n + 1):
        size, zero = n + 1, n
        cells = [(i, j) for i in range(1, n) for j in range(1, n)]
        for combo in itertools.product(range(size), repeat=len(cells)):
            table = [[zero] * size for _ in range(size)]
            for x in range(size):
                table[0][x] = table[x][0] = x
                table[zero][x] = table[x][zero] = zero
            for (i, j), v in zip(cells, combo):
                table[i][j] = v
            for alphas in itertools.product(range(size), repeat=n):
                yield new_magma(size, table, list(alphas) + [zero], unit=0, zero=zero)


def test_search_agrees_with_term_walker_on_custom_identities():
    # The search decides triples on a partial table through the same
    # program; every model it enumerates, and no other, must satisfy the
    # identity under the walker.
    rng = np.random.default_rng(77)
    universe = list(small_unital_magmas(2))
    for identity in random_identities(rng, 25):
        spec = SearchSpec(max_n=2, require=(identity,))
        mine = {model_key(m) for n in (1, 2) for m in _SizeSearch(spec, n).run()}
        theirs = {model_key(m) for m in universe if walk_first_violation(m, identity) is None}
        assert mine == theirs, identity


# The search's batched kernels against the same semantics.  Rows of the
# stack are separate magmas of one size; the kernel reads the selected rows
# in place through flat offsets, in the order given, and every row must
# give the walker's sides and run_program's on its own intp table, whatever
# the stack's dtype.  The last four identities have a side without a batch
# axis (a bare variable, or no product or twist) or without a triple axis
# (no variable), which the kernel must spread to (R, k).

KERNEL_EXTRA = ("1 = a(1)", "x = x*1", "x*y = x*y", "1 = 1")


def test_magma_kernel_agrees_with_walker_and_run_program_on_stacked_magmas():
    rng = np.random.default_rng(2024)
    identities = random_identities(rng, 60) + [parse_identity(t) for t in KERNEL_EXTRA]
    for n, with_zero in ((1, True), (2, False), (2, True), (3, True)):
        magmas = [random_magma(rng, n, with_zero) for _ in range(3)]
        size = magmas[0].size
        table = np.array([m.table for m in magmas], dtype=np.intp)
        alpha = np.array([m.alpha for m in magmas], dtype=np.intp)
        triples = np.indices((size,) * 3).reshape(3, -1)
        stacks = [(table, alpha), (table.astype(np.uint8), alpha.astype(np.uint8))]
        selections = [np.arange(len(magmas)), np.array([2, 0])]
        for identity in identities:
            program = magma_program(identity)
            kernel = magma_kernel(program)
            for (tab, alp), rows in itertools.product(stacks, selections):
                lhs, rhs = kernel(
                    tab.reshape(-1), alp.reshape(-1), rows[:, None] * size, size, *triples, 0
                )
                assert lhs.shape == rhs.shape == (len(rows), triples.shape[1]), identity
                for i, b in enumerate(rows):
                    m = magmas[b]
                    env = dict(zip("xyz", triples))
                    unit = np.zeros(triples.shape[1], dtype=np.intp)
                    expected = run_program(
                        program, env, unit, alpha[b].__getitem__, lambda l, r: table[b][l, r]
                    )
                    assert np.array_equal(lhs[i], expected[0]), identity
                    assert np.array_equal(rhs[i], expected[1]), identity
                    for t, xyz in enumerate(triples.T.tolist()):
                        env = dict(zip("xyz", xyz))
                        assert lhs[i, t] == walk(identity.lhs, m, env), identity
                        assert rhs[i, t] == walk(identity.rhs, m, env), identity


def test_magma_kernel_is_built_from_fixed_names_only():
    # Identity text never reaches the generated source: the kernel reads
    # only its parameters, numbered steps and two helpers.
    rng = np.random.default_rng(3)
    for identity in random_identities(rng, 20) + [parse_identity(t) for t in KERNEL_EXTRA]:
        code = magma_kernel(magma_program(identity)).__code__
        assert set(code.co_names) <= {"broadcast_to", "len"}
        assert all(re.fullmatch(r"[TABSxyzu]|s\d+", v) for v in code.co_varnames)
        assert all(c is None or isinstance(c, int) for c in code.co_consts)
