"""The Drinfeld-Jimbo braid matrix and the representation of H_r(q) on V^(x)r.

``rhat(n)`` is the endomorphism of V (x) V (dim V = n) acting on basis words

    v_a (x) v_b  ->  v_b (x) v_a                          a < b,
    v_a (x) v_b  ->  v_b (x) v_a + (q - q^-1) v_a (x) v_b  a > b,
    v_a (x) v_a  ->  q v_a (x) v_a.

The (q - q^-1) term sits on descending pairs.  Its transpose on ascending
pairs also satisfies the quadratic and braid relations, so the placement is
an index convention: the descending one is the one whose induced quadratic
exchange relations read x^j_k x^i_k = q x^i_k x^j_k for j > i, and
construction checks all three relations.

``pi`` extends sigma |-> rhat at positions (i, i+1) to an algebra map of
H_r(q) into End(V^(x)r) via reduced words.  ``appendix_blocks`` is the one
reader of the letter-class blocks of such an operator on V^(x)3: both
``appendix`` and the brute-force diagonal restriction read pi(e21 sign)
through it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import BoundExceeded
from .hecke import HeckeElt
from .linalg import QMatrix
from .permutations import _arrangements, reduced_word
from .scalars import ONE, PackedRows, Q, add_term, omega, q_power

__all__ = [
    "rhat", "rhat_reading", "pi", "word_index", "index_word",
    "degree2_relation", "generator_matrix", "idempotent_block",
    "appendix_blocks", "multiset_classes", "DIM_BOUND",
]

DIM_BOUND = 4096


def word_index(word, n: int) -> int:
    """Row-major index of a basis word of V^(x)r."""
    idx = 0
    for a in word:
        idx = idx * n + (a - 1)
    return idx


def index_word(idx: int, n: int, r: int) -> tuple:
    word = []
    for _ in range(r):
        word.append(idx % n + 1)
        idx //= n
    return tuple(reversed(word))


def _rhat_candidate(n: int) -> QMatrix:
    w = omega()
    rows = [{} for _ in range(n * n)]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            col = word_index((a, b), n)
            if a == b:
                rows[col][col] = Q
                continue
            rows[word_index((b, a), n)][col] = ONE
            if a > b:
                rows[col][col] = w
    return QMatrix(n * n, rows)


def _satisfies_quadratic(m: QMatrix) -> bool:
    n2 = m.nrows
    ident = QMatrix.identity(n2)
    return ((m - ident.scale(Q)) * (m + ident.scale(q_power(-1)))).is_zero()


def _satisfies_braid(m: QMatrix, n: int) -> bool:
    r12 = _embed(m, n, 3, 1)
    r23 = _embed(m, n, 3, 2)
    return r12 * r23 * r12 == r23 * r12 * r23


def degree2_relation(m: QMatrix, n: int, upper: tuple, lower: tuple) -> dict:
    """Entry (upper, lower) of m (x (x) x) - (x (x) x) m as a relation vector.

    It is sum_ef m^upper_ef x^ef_lower - sum_ef x^upper_ef m^ef_lower, with
    the generators x^a_b coordinatized as length-2 words: a dict keyed by
    (upper pair, lower pair).
    """
    col = word_index(lower, n)
    vec: dict = {}
    for k, val in m.rows[word_index(upper, n)].items():
        add_term(vec, (index_word(k, n, 2), lower), val)
    for i, row in enumerate(m.rows):
        val = row.get(col)
        if val is not None:
            add_term(vec, (upper, index_word(i, n, 2)), -val)
    return vec


def _exchange_matches(m: QMatrix, n: int) -> bool:
    """Does the induced degree-2 relation read x^2_1 x^1_1 = q x^1_1 x^2_1?"""
    if n < 2:
        return True
    coeffs = degree2_relation(m, n, (2, 1), (1, 1))
    lo = coeffs.get(((1, 2), (1, 1)))   # x^1_1 x^2_1
    hi = coeffs.get(((2, 1), (1, 1)))   # x^2_1 x^1_1
    if lo is None or hi is None or len(coeffs) != 2:
        return False
    return hi / lo == -q_power(-1)      # vector prop. to  x^2_1x^1_1 - q x^1_1x^2_1


@lru_cache(maxsize=None)
def rhat(n: int) -> QMatrix:
    """The braid matrix on V (x) V for dim V = n.

    Construction checks the braid relation on V^(x)3, so DIM_BOUND bounds
    n^3 before any matrix is built.
    """
    if n < 1:
        raise ValueError("dim V must be positive")
    if n ** 3 > DIM_BOUND:
        raise BoundExceeded(
            f"n = {n}: dim V^(x)3 = {n ** 3} exceeds {DIM_BOUND}")
    m = _rhat_candidate(n)
    for relation, holds in (("quadratic", _satisfies_quadratic(m)),
                            ("braid", n < 2 or _satisfies_braid(m, n)),
                            ("exchange", _exchange_matches(m, n))):
        if not holds:
            raise ArithmeticError(f"braid matrix fails the {relation}"
                                  f" relation, n={n}")
    return m


def rhat_reading(n: int) -> str:
    """Which mixed pairs carry the omega term: always 'descending'."""
    rhat(n)
    return "descending"


def _embed(m: QMatrix, n: int, r: int, pos: int) -> QMatrix:
    """m acting at tensor positions (pos, pos+1) of V^(x)r, 1-based."""
    right = n ** (r - pos - 1)
    return QMatrix(n ** r, (
        {((a * n * n) + j) * right + b: val for j, val in row.items()}
        for a in range(n ** (pos - 1)) for row in m.rows
        for b in range(right)))


@lru_cache(maxsize=None)
def generator_matrix(n: int, r: int, i: int) -> QMatrix:
    """pi(T_si) on V^(x)r."""
    return _embed(rhat(n), n, r, i)


def _basis_matrix(perm, n: int) -> QMatrix:
    r = len(perm)
    word = reduced_word(perm)
    out = QMatrix.identity(n ** r)
    for i in word:
        out = out * generator_matrix(n, r, i)
    return out


@lru_cache(maxsize=None)
def _basis_rows(n: int, r: int) -> PackedRows:
    """The basis matrices pi(T_p) of S_r on V^(x)r, each one sparse row
    keyed by its entries (i, j), built as ``pi`` meets them and kept packed
    from one call to the next."""
    return PackedRows({})


def pi(x: HeckeElt, n: int) -> QMatrix:
    """The representation of H_r(q) on V^(x)r, extended linearly over T_sigma.

    pi(x) = sum_p c_p pi(T_p) is one ``scalars.PackedRows.combine`` over
    the basis matrices of ``_basis_rows(n, r)``.
    """
    dim = n ** x.r
    if dim > DIM_BOUND:
        raise BoundExceeded(f"dim V^(x){x.r} = {dim} exceeds {DIM_BOUND}")
    # one sum for the whole matrix: a sum per row would repack the
    # coefficients of x once per row
    packed = _basis_rows(n, x.r)
    matrices = packed.rows
    for p in x.terms:
        if p not in matrices:
            matrices[p] = {(i, j): val
                           for i, row in enumerate(_basis_matrix(p, n).rows)
                           for j, val in row.items()}
    rows = [{} for _ in range(dim)]
    for (i, j), val in packed.combine(x.terms, {}).items():
        rows[i][j] = val
    return QMatrix(dim, rows)


def idempotent_block(m: QMatrix, words, n: int) -> list:
    """Dense block of a V^(x)3 operator over the given basis words.

    Returns a list of rows of QScalars, rows and columns in the order of
    ``words``.
    """
    return [[m.get(word_index(a, n), word_index(b, n)) for b in words]
            for a in words]


def appendix_blocks(mat: QMatrix) -> dict:
    """The letter-class blocks of a V^(x)3 operator for dim V = 3.

    Maps the weights (1,1,1), (2,1,0) and (1,2,0) to the blocks of ``mat``
    over their arrangements (123..321, 112..211 and 122..221, lex): a 6x6
    and two 3x3 blocks.
    """
    return {wv: idempotent_block(mat, _arrangements(wv), 3)
            for wv in ((1, 1, 1), (2, 1, 0), (1, 2, 0))}


def multiset_classes(n: int, r: int):
    """Basis words of V^(x)r grouped by letter multiset, each class sorted."""
    classes: dict = {}
    for word in itertools.product(range(1, n + 1), repeat=r):
        classes.setdefault(tuple(sorted(word)), []).append(word)
    return classes
