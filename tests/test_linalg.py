"""Exact sparse matrices, canonical RREF subspaces, kernels."""

import copy
import random

import pytest

from qdiag.checks import _basis_json
from qdiag.errors import DimensionMismatch
from qdiag.hecke import _composition_matrix, projection_matrix
from qdiag.linalg import QMatrix, SubspaceBasis, kernel, rank_mod_p
from qdiag.pplactic import CERT_PRIME
from qdiag.qma import block_quotient
from qdiag.scalars import (ONE, Q, ZERO, PackedRows, QScalar, add_term, omega,
                           q_int, q_power, qs)


def vec(*pairs):
    return {c: v for c, v in pairs if v}


def rand_vec(rng, ambient):
    out = {}
    for c in range(ambient):
        k = rng.randint(-2, 2)
        if k:
            out[c] = qs(k) * q_power(rng.randint(-1, 1))
    return out


def dense(row, ambient):
    """row with an explicit zero at each column it leaves out."""
    return {c: row.get(c, ZERO) for c in range(ambient)}


def test_rref_canonical_and_idempotent():
    rows = [vec((0, omega()), (1, ONE)), vec((0, omega() * omega()),
                                             (1, omega()))]
    basis = SubspaceBasis.from_vectors(rows, 3)
    assert basis.dim == 1
    assert basis.pivots == [0]
    assert basis.rows[0][0] == ONE
    again = SubspaceBasis.from_vectors(basis.rows, 3)
    assert again == basis


def test_subspace_equality_vs_containment():
    rng = random.Random(3)
    for _ in range(20):
        gens = [rand_vec(rng, 5) for _ in range(3)]
        a = SubspaceBasis.from_vectors(gens, 5)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        scaled = [{c: omega() * v for c, v in g.items()} for g in shuffled]
        b = SubspaceBasis.from_vectors(scaled, 5)
        assert a == b
        assert all(a.contains(row) for row in b.rows)
        assert all(b.contains(row) for row in a.rows)


def test_reduce_kills_exactly_the_span():
    basis = SubspaceBasis.from_vectors(
        [vec((0, ONE), (1, -ONE)), vec((1, ONE), (2, -ONE))], 3)
    assert basis.contains(vec((0, ONE), (2, -ONE)))
    assert not basis.contains(vec((0, ONE), (2, ONE)))
    assert basis.reduce(vec((0, omega()), (1, -omega()))) == {}


def test_kernel_and_rank_nullity():
    rng = random.Random(5)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        given = [rand_vec(rng, ncols) for _ in range(nrows)]
        m = QMatrix(ncols, [dense(row, ncols) for row in given])
        assert m.rows == given
        rows = SubspaceBasis.from_vectors(m.rows, ncols)
        ker = kernel(m)
        assert rows.dim + ker.dim == ncols
        for v in ker.rows:
            assert not m.apply(v)


def test_apply_matches_row_products():
    rng = random.Random(41)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = QMatrix(ncols, [rand_vec(rng, ncols) for _ in range(nrows)])
        vec = rand_vec(rng, ncols)
        expected = {}
        for i, row in enumerate(m.rows):
            total = ZERO
            for c, v in row.items():
                total = total + v * vec.get(c, ZERO)
            if total:
                expected[i] = total
        assert m.apply(vec) == expected
    # apply is a product with one column: the matrix keeps no index of its own
    assert QMatrix.__slots__ == ("ncols", "rows")


def test_product_matches_triple_loop():
    rng = random.Random(47)
    dens = [ONE, q_int(2), q_int(3), Q + qs(2), qs(3)]

    def rand_matrix(nrows, ncols):
        rows = []
        for _ in range(nrows):
            row = {c: v / rng.choice(dens)
                   for c, v in rand_vec(rng, ncols).items()}
            rows.append(dense(row, ncols))
        return QMatrix(ncols, rows)

    def kernel_columns(m):
        return QMatrix(m.ncols, kernel(m).rows).transpose()

    def entries(m):
        return [(i, j, v) for i, row in enumerate(m.rows)
                for j, v in row.items()]

    pairs = []
    for _ in range(20):
        n, k, m = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 5)
        pairs.append((rand_matrix(n, k), rand_matrix(k, m)))
    # the shape of kernel's self-check, m times a basis of its kernel: every
    # entry of the product is a sum of products that cancels
    for a in (projection_matrix(4).transpose(), rand_matrix(3, 5)):
        pairs.append((a, kernel_columns(a)))
    for a, b in pairs:
        data = [{} for _ in range(a.nrows)]
        for i, l, x in entries(a):
            for l2, j, y in entries(b):
                if l == l2:
                    add_term(data[i], j, x * y)
        assert a * b == QMatrix(b.ncols, data)
    assert all((a * b).is_zero() and not a.is_zero() and not b.is_zero()
               for a, b in pairs[-2:])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rref_independent_of_row_order(seed):
    # the canonical RREF is unique, whatever order the rows arrive in
    block = ((2, 1, 1), (2, 1, 1))
    quotient = block_quotient(3, 4, block)
    rows = list(quotient._relation_rows())
    random.Random(seed).shuffle(rows)
    span = SubspaceBasis.from_vectors(rows, len(quotient.words))
    assert span == quotient.span


def test_kernel_independent_of_row_order():
    m = projection_matrix(5).transpose()
    order = list(range(m.nrows))
    random.Random(5).shuffle(order)
    shuffled = QMatrix(m.ncols, [m.rows[i] for i in order])
    assert kernel(shuffled) == kernel(m)


def _kernel_with_tampered_basis(monkeypatch, m, tamper):
    """kernel(m), with the basis it builds (its second RREF) tampered with."""
    build = SubspaceBasis.from_vectors
    built = []

    def from_vectors(vectors, ambient):
        basis = build(vectors, ambient)
        built.append(basis)
        return tamper(basis) if len(built) == 2 else basis

    monkeypatch.setattr(SubspaceBasis, "from_vectors",
                        staticmethod(from_vectors))
    return kernel(m)


# row 0 is zero, row 1 is (1, 1, w): the kernel has pivots 0 and 1
GUARDED = QMatrix(3, [{}, {0: ONE, 1: ONE, 2: omega()}])


def test_kernel_guard_names_the_vector_not_annihilated(monkeypatch):
    basis = kernel(GUARDED)
    assert basis.pivots == [0, 1]
    assert basis.rows[1] == {1: ONE, 2: -omega().inv()}

    def perturb(basis):
        rows = [dict(row) for row in basis.rows]
        rows[1][2] = -rows[1][2]
        return SubspaceBasis(basis.ambient, rows, basis.pivots)

    # (1, 1, w) . (0, 1, 1/w) = 2
    with pytest.raises(ArithmeticError, match=r"^kernel vector 1 \(pivot 1\) "
                       r"is not annihilated: row 1 gives 2$"):
        _kernel_with_tampered_basis(monkeypatch, GUARDED, perturb)


def test_kernel_guard_names_a_laurent_failure(monkeypatch):
    # every entry is a Laurent polynomial, so the rows of the product m B
    # name the failure on packed integers, with no Q(q) product
    m = QMatrix(3, [{}, {0: ONE, 1: ONE, 2: Q}])
    basis = kernel(m)
    assert basis.rows == [{0: ONE, 2: -q_power(-1)}, {1: ONE, 2: -q_power(-1)}]

    def perturb(basis):
        rows = [dict(row) for row in basis.rows]
        rows[1][2] = Q
        return SubspaceBasis(basis.ambient, rows, basis.pivots)

    # (1, 1, q) . (0, 1, q) = 1 + q^2, where the kernel has -q^-1
    failure = {1: Q * Q + ONE}
    combined = _spy_combine(monkeypatch)
    with pytest.raises(ArithmeticError, match=r"^kernel vector 1 \(pivot 1\) "
                       r"is not annihilated: row 1 gives q\^2 \+ 1$"):
        _kernel_with_tampered_basis(monkeypatch, m, perturb)
    assert combined[-1] == (failure, 0)


def test_kernel_guard_names_the_least_failure(monkeypatch):
    # two kernel vectors fail, each at one row: the guard names the least
    # kernel vector, then the least row it fails at
    m = QMatrix(4, [{1: ONE, 3: ONE}, {0: ONE, 2: ONE}])
    basis = kernel(m)
    assert basis.rows == [{0: ONE, 2: -ONE}, {1: ONE, 3: -ONE}]

    def perturb(basis):
        return SubspaceBasis(basis.ambient, [{0: ONE, 2: Q}, {1: ONE, 3: Q}],
                             basis.pivots)

    # vector 0 fails at row 1 only, vector 1 at row 0 only
    with pytest.raises(ArithmeticError, match=r"^kernel vector 0 \(pivot 0\) "
                       r"is not annihilated: row 1 gives q \+ 1$"):
        _kernel_with_tampered_basis(monkeypatch, m, perturb)


def test_kernel_guard_checks_rank_nullity(monkeypatch):
    def drop_first(basis):
        return SubspaceBasis(basis.ambient, basis.rows[1:], basis.pivots[1:])

    with pytest.raises(ArithmeticError,
                       match=r"^rank 1 \+ nullity 1 != 3 columns$"):
        _kernel_with_tampered_basis(monkeypatch, GUARDED, drop_first)


def test_kernel_identity_and_singular():
    assert kernel(QMatrix.identity(4)).dim == 0
    m = QMatrix(2, [{0: ONE, 1: ONE}, {0: omega(), 1: omega()}])
    ker = kernel(m)
    assert ker.dim == 1
    assert ker.rows[0] == {0: ONE, 1: -ONE}


def test_matrix_algebra():
    m = QMatrix(2, [{1: ONE}, {0: ONE, 1: omega()}])
    ident = QMatrix.identity(2)
    assert m * ident == m and ident * m == m
    quad = (m - ident.scale(q_power(1))) * (m + ident.scale(q_power(-1)))
    assert quad.is_zero()
    with pytest.raises(DimensionMismatch):
        m * QMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        m + QMatrix.identity(3)


def test_zero_entries_and_rows_are_dropped():
    # an explicit zero, or a row of nothing but zeros, is not stored: the
    # matrix equals and dumps like the one built without it
    plain = QMatrix(3, [{}, {2: omega(), 0: ONE}])
    for rows in ([{1: ZERO}, {0: ONE, 2: omega()}],
                 [{}, {0: ONE, 1: omega() - omega(), 2: omega()}],
                 [dense({}, 3), dense({0: ONE, 2: omega()}, 3)]):
        m = QMatrix(3, rows)
        assert m == plain and m.rows == [{}, {0: ONE, 2: omega()}]
        assert m.to_json() == plain.to_json() == {
            "nrows": 2, "ncols": 3,
            "entries": [[1, 0, "1"], [1, 2, "q - q^-1"]]}
    # the matrix keeps its own copy of each row it is given
    given = [{0: ONE}]
    m = QMatrix(1, given)
    given[0][0] = omega()
    m.rows[0][0] = Q
    assert given == [{0: omega()}] and m.rows == [{0: Q}]


def test_transpose_twice_is_the_identity():
    rng = random.Random(53)
    matrices = [GUARDED, QMatrix(4, [{}, {}]), QMatrix.identity(3),
                QMatrix(2, [{1: ONE}, {0: ONE, 1: omega()}]),
                projection_matrix(4)]
    for _ in range(10):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        matrices.append(QMatrix(ncols, [dense(rand_vec(rng, ncols), ncols)
                                        for _ in range(nrows)]))
    for m in matrices:
        t = m.transpose()
        assert (t.nrows, t.ncols) == (m.ncols, m.nrows)
        assert all(t.get(j, i) == m.get(i, j)
                   for i in range(m.nrows) for j in range(m.ncols))
        assert t.transpose() == m


def test_json_dumps():
    m = QMatrix(2, [{1: omega()}])
    assert m.to_json()["entries"] == [[0, 1, "q - q^-1"]]
    # a report names the coordinates of a basis as it prints it
    basis = SubspaceBasis.from_vectors([vec((0, ONE), (1, ONE))], 2)
    assert _basis_json(basis, ["a", "b"]) == {
        "ambient": 2, "dim": 1, "rows": [{"a": "1", "b": "1"}]}


def test_rank_mod_p_of_projection_matrix():
    # P(3) has the one-dimensional kernel of the alternating combination;
    # its packed rows are its rows at q = 2^k, each times q^3
    _, n, ncols, rows = _composition_matrix((1, 1, 1))
    assert (n, ncols, len(rows)) == (3, 6, 6)
    assert rank_mod_p(rows, CERT_PRIME) == 5


def test_rank_mod_p_drops_with_the_prime():
    rows = [{0: 1, 1: 2}, {0: 3, 1: 4}]
    assert rank_mod_p(rows, 101) == 2
    assert rank_mod_p(rows, 2) == 1        # determinant -2
    assert rank_mod_p([{0: 4}, {}], 2) == 0
    rows = [{0: 1, 2: 1}, {0: 1, 1: 1}, {1: 1, 2: 100}]
    assert rank_mod_p(rows, 101) == 2 and rank_mod_p(rows, 103) == 3
    # the column 1 that clearing column 0 creates is cleared in turn:
    # (1, 0, -1) - (1, 1, 0) + (0, 1, 1) = 0
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]
    assert rank_mod_p(rows, 101) == 2


def _spy_combine(monkeypatch):
    """(result, Q(q) products it took) of every ``PackedRows.combine``, in
    order: each residual of a row reduction and each row of a product."""
    calls = []
    products = [0]
    combine, mul = PackedRows.combine, QScalar.__mul__

    def counted_mul(self, other):
        products[0] += 1
        return mul(self, other)

    def spied(self, coeffs, base):
        before = products[0]
        out = combine(self, coeffs, base)
        calls.append((out, products[0] - before))
        return out

    monkeypatch.setattr(QScalar, "__mul__", counted_mul)
    monkeypatch.setattr(PackedRows, "combine", spied)
    return calls


def _planted(rng, basis, count):
    """Random Laurent combinations of the rows of basis."""
    out = []
    for _ in range(count):
        combo: dict = {}
        for row in rng.sample(basis.rows, min(3, basis.dim)):
            c = qs(rng.choice((-2, -1, 1, 3))) * q_power(rng.randint(-2, 2))
            for j, v in row.items():
                add_term(combo, j, c * v)
        out.append(combo)
    return out


def test_rows_in_the_span_are_skipped(monkeypatch):
    rng = random.Random(47)
    rows = projection_matrix(4).rows
    basis = SubspaceBasis.from_vectors(rows, 24)
    planted = [row for row in _planted(rng, basis, 30) if row]
    mixed = basis.rows + planted
    rng.shuffle(mixed)
    residuals = _spy_combine(monkeypatch)
    assert SubspaceBasis.from_vectors(mixed, 24) == basis
    # each row that adds nothing is in the span when it is met, and its
    # residual comes back empty with no product over Q(q): every entry is a
    # Laurent polynomial, so every residual is summed on packed integers
    assert len(residuals) == len(mixed)
    assert [out for out, _ in residuals].count({}) == len(mixed) - basis.dim
    assert all(products == 0 for _, products in residuals)


def test_a_perturbed_combination_is_not_skipped(monkeypatch):
    rng = random.Random(53)
    basis = SubspaceBasis.from_vectors(projection_matrix(4).rows, 24)
    (original,) = _planted(rng, basis, 1)
    # q^3 more in one entry off the pivots: that unit vector is not in the
    # span, so the residual of the combination is exactly that entry
    combo = dict(original)
    j = max(combo.keys() - set(basis.pivots))
    combo[j] = combo[j] + q_power(3)
    residuals = _spy_combine(monkeypatch)
    bigger = SubspaceBasis.from_vectors(basis.rows + [combo], 24)
    assert bigger.dim == basis.dim + 1
    assert ({j: q_power(3)}, 0) in residuals
    assert basis.reduce(combo) == {j: q_power(3)}
    assert not basis.contains(combo)
    assert basis.contains(original)


def test_from_vectors_leaves_its_input_rows_alone():
    # the residual is a fresh row, even where no pivot applies, so clearing
    # a pivot column never edits a row the caller still holds
    rng = random.Random(67)
    rows = projection_matrix(4).rows
    basis = SubspaceBasis.from_vectors(rows, 24)
    given = rows + _planted(rng, basis, 10) + [{4: Q}, {4: ONE, 10: omega()}]
    copies = copy.deepcopy(given)
    built = SubspaceBasis.from_vectors(given, 24)
    assert given == copies
    assert not {id(row) for row in given} & {id(row) for row in built.rows}
    free = {10: omega()}
    assert basis.reduce(free) == free and basis.reduce(free) is not free


def test_contains_agrees_with_reduce():
    rng = random.Random(59)
    for _ in range(20):
        gens = [rand_vec(rng, 5) for _ in range(3)]
        if rng.random() < 0.3:
            gens[0] = {c: v * q_int(2).inv() for c, v in gens[0].items()}
        basis = SubspaceBasis.from_vectors(gens, 5)
        for v in gens + [rand_vec(rng, 5) for _ in range(3)] + [{}]:
            assert basis.contains(v) is (not basis.reduce(v))
