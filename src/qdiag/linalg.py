"""Exact sparse linear algebra over Q(q).

Vectors are dicts {column index: nonzero QScalar}.  A ``QMatrix`` is
nothing but its column count and one such vector per row: a product and a
kernel read its rows as they are.  Subspaces are kept in reduced row
echelon form with pivot entries 1; since scalar canonical forms are unique,
two subspaces are equal iff their RREF data are identical, and that
comparison is used everywhere downstream.

Pivoting is deterministic: every row is pivoted on its leftmost nonzero
column, with no magnitude pivoting.  ``SubspaceBasis.from_vectors`` consumes
its input rows sparsest first (a stable sort on the nonzero count, so ties
keep the input order): a dense row reduced early spreads fill-in, and with
it rational-function growth, into every later row.  The order cannot change
the result.  The pivot columns of the RREF are exactly the leftmost columns
{min(support v) : v in the span}, and a reduced echelon basis with pivot
entries 1 is the only basis of the span with those pivots cleared from
every other row, so any order of the same rows gives the same data.
Every arithmetic step re-canonicalizes, which keeps entries reduced; at the
block sizes this package works with, no extra denominator-clearing pass is
needed (the relation rows are short and the full suite runs in seconds).

The basis is kept fully reduced after every row, and reduction rests on
that: a vector v reduces to v - sum_p v[p] R_p over the pivots p it holds,
R_p the row of pivot p, which is zero if and only if v is in the span.
``scalars.PackedRows.combine`` forms that one residual exactly, on packed
integers with one accumulator per packed denominator, for every vector that
``from_vectors``, ``reduce`` and ``contains`` meet; a basis keeps the
packed rows it was built with.  An echelon form with a single
back-substitution at the end would have to keep the basis fully reduced
between rows for this to hold.  The matrix product packs its right factor
once and combines its rows with the entries of each left row, and
``kernel`` checks m B = 0 by that product, which also names a failure.

``rank_mod_p`` is the one computation over a prime field: the rank of
integer rows, here the rows of G_lambda and M_lambda packed at q = 2^k,
which the rank certificate of ``pplactic`` reads.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import DimensionMismatch
from .scalars import ONE, ZERO, PackedRows, QScalar, add_term

__all__ = ["QMatrix", "SubspaceBasis", "kernel", "rank_mod_p"]


class QMatrix:
    """Sparse matrix over Q(q): nothing but its column count and rows.

    ``rows[i]`` is row i as a sparse vector {column: nonzero QScalar}, the
    format of every other vector here.  The constructor copies the rows it
    is given and drops their zero entries, so a matrix shares no row with
    its caller.  ``transpose`` is the one method that regroups entries.
    """

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int, rows):
        self.ncols = ncols
        self.rows = [{j: v for j, v in row.items() if v} for row in rows]

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(n, ({i: ONE} for i in range(n)))

    def get(self, i: int, j: int) -> QScalar:
        return self.rows[i].get(j, ZERO)

    def _check_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.ncols == other.ncols
                and self.rows == other.rows)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __add__(self, other):
        self._check_shape(other)
        out = []
        for row, other_row in zip(self.rows, other.rows):
            row = dict(row)
            for j, val in other_row.items():
                add_term(row, j, val)
            out.append(row)
        return QMatrix(self.ncols, out)

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, c: QScalar) -> "QMatrix":
        return QMatrix(self.ncols, ({j: c * val for j, val in row.items()}
                                    for row in self.rows))

    def __mul__(self, other):
        """Product: the rows of the right factor are packed once, and row i
        combines them with the entries of row i of the left factor as
        coefficients (``scalars.PackedRows.combine``)."""
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        packed = PackedRows(other.rows)
        return QMatrix(other.ncols, [packed.combine(row, {})
                                     for row in self.rows])

    def transpose(self) -> "QMatrix":
        columns = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, val in row.items():
                columns[j][i] = val
        return QMatrix(self.nrows, columns)

    def apply(self, vec: dict) -> dict:
        """Matrix times a sparse column vector: the product with one column."""
        column = QMatrix(1, ({0: vec[j]} if j in vec else {}
                             for j in range(self.ncols)))
        return {i: row[0] for i, row in enumerate((self * column).rows) if row}

    def to_json(self):
        return {
            "nrows": self.nrows,
            "ncols": self.ncols,
            "entries": [[i, j, str(val)] for i, row in enumerate(self.rows)
                        for j, val in sorted(row.items())],
        }

    def __repr__(self):
        return (f"QMatrix({self.nrows}x{self.ncols},"
                f" {sum(map(len, self.rows))} entries)")


class SubspaceBasis:
    """Canonical RREF basis of a subspace of Q(q)^ambient.

    ``rows`` are sparse vectors sorted by pivot column; each pivot entry is 1
    and pivot columns are cleared from every other row.  Coordinates are
    bare column indices: a report that prints a basis names them itself.
    The basis holds the packed forms of its rows, so the rows are not
    mutated after construction; an edited basis is a new ``SubspaceBasis``.
    """

    __slots__ = ("ambient", "rows", "pivots", "_packed")

    def __init__(self, ambient: int, rows, pivots, packed=None):
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots
        self._packed = (PackedRows(dict(zip(pivots, rows))) if packed is None
                        else packed)

    @staticmethod
    def from_vectors(vectors, ambient: int) -> "SubspaceBasis":
        pivot_rows: dict = {}
        packed = PackedRows(pivot_rows)
        for vec in sorted(vectors, key=len):
            row = _residual(packed, vec)
            if not row:
                continue
            p = min(row)
            # a pivot entry 1 needs no scaling: the row keeps its scalars
            if row[p] != ONE:
                inv = row[p].inv()
                row = {c: v * inv for c, v in row.items()}
            # clear the new pivot column from the existing rows
            for key, other in pivot_rows.items():
                c = other.get(p)
                if c is not None:
                    c = -c
                    for col, val in row.items():
                        add_term(other, col, c * val)
                    packed.forget(key)
            pivot_rows[p] = row
        pivots = sorted(pivot_rows)
        rows = [pivot_rows[p] for p in pivots]
        return SubspaceBasis(ambient, rows, pivots, packed)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Canonical residual of vec modulo this subspace, a fresh row."""
        return _residual(self._packed, vec)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis)
                and self.ambient == other.ambient
                and self.pivots == other.pivots
                and self.rows == other.rows)

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} of {self.ambient})"


def _residual(packed: PackedRows, vec: dict) -> dict:
    """vec - sum_p vec[p] rows[p] over the pivots p of ``packed.rows`` that
    vec holds, rows keyed by pivot column and fully reduced: each holds 1
    at its pivot and 0 at every other pivot, so this is vec modulo them."""
    rows = packed.rows
    return packed.combine({p: -vec[p] for p in vec.keys() & rows.keys()},
                          vec)


def kernel(m: QMatrix) -> SubspaceBasis:
    """Right kernel {v : m v = 0} as a canonical subspace of Q(q)^ncols."""
    row_space = SubspaceBasis.from_vectors(m.rows, m.ncols)
    pivot_set = set(row_space.pivots)
    free_cols = [c for c in range(m.ncols) if c not in pivot_set]
    vectors = []
    for f in free_cols:
        vec = {f: ONE}
        for p, row in zip(row_space.pivots, row_space.rows):
            c = row.get(f)
            if c is not None:
                vec[p] = -c
        vectors.append(vec)
    basis = SubspaceBasis.from_vectors(vectors, m.ncols)
    # the basis checks itself: rank-nullity, then m * basis = 0
    if row_space.dim + basis.dim != m.ncols:
        raise ArithmeticError(
            f"rank {row_space.dim} + nullity {basis.dim} != {m.ncols} columns")
    product = (m * QMatrix(m.ncols, basis.rows).transpose()).rows
    failed = [(k, i) for i, row in enumerate(product) for k in row]
    if failed:
        k, i = min(failed)
        raise ArithmeticError(
            f"kernel vector {k} (pivot {basis.pivots[k]}) is not annihilated:"
            f" row {i} gives {product[i][k]}")
    return basis


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of sparse integer rows {column: value}.

    An echelon form with no back-substitution is enough for a rank.  Each
    pivot row holds no column left of its pivot, so a row is reduced from
    its leftmost column on (a heap of its columns; a subtraction only adds
    columns right of the one it clears) until that column is a new pivot.
    Rows are taken sparsest first, as in ``SubspaceBasis.from_vectors``.
    """
    pivot_rows: dict = {}
    for vec in sorted(rows, key=len):
        row = {j: v % p for j, v in vec.items() if v % p}
        heap = list(row)
        heapify(heap)
        while heap:
            j = heappop(heap)
            c = row.get(j)
            if c is None:
                continue
            pivot = pivot_rows.get(j)
            if pivot is None:
                inv = pow(c, -1, p)
                pivot_rows[j] = {k: v * inv % p for k, v in row.items()}
                break
            for k, v in pivot.items():
                old = row.get(k)
                if old is None:
                    row[k] = -c * v % p
                    heappush(heap, k)
                else:
                    new = (old - c * v) % p
                    if new:
                        row[k] = new
                    else:
                        del row[k]
    return len(pivot_rows)
