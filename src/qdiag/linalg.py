"""Exact sparse linear algebra over Q(q).

Vectors are dicts {column index: nonzero QScalar}.  A ``QMatrix`` is
nothing but its column count and one such vector per row: a product, a
kernel and the rank certificate read its rows as they are.  Subspaces are
kept in reduced row echelon form with pivot entries 1; since scalar
canonical forms are unique, two subspaces are equal iff their RREF data are
identical, and that comparison is used everywhere downstream.

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

The basis is kept fully reduced after every row, and the membership test
rests on that: a vector v of the span is sum_p v[p] R_p over the pivots p
it holds, R_p the row of pivot p, so ``scalars.PackedRows`` decides whether
v is in the span by one packed zero test, with no Q(q) arithmetic.
``from_vectors`` runs it before reducing each row and skips a row it shows
to be in the span.  It takes the exact reduction where the test is
undecided (an entry that is not a Laurent polynomial), and every row that
adds to the span is reduced exactly, so the RREF is the one the exact route
alone gives.  An echelon form with a single back-substitution at the end
would have to keep the basis fully reduced between rows for this test to
hold.  ``contains`` stays the exact ``reduce``.  ``kernel`` checks m B = 0 by the test
``scalars.vanishes`` and forms the exact product only to name a failure or
where the test is undecided.

``rank_mod_p`` is the one computation over a prime field: the rank of
integer rows, which the rank certificate of ``pplactic`` reads.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import DimensionMismatch
from .scalars import (ONE, ZERO, PackedRows, QScalar, add_term, gather,
                      vanishes)

__all__ = ["QMatrix", "SubspaceBasis", "kernel", "rank_mod_p"]


def _vec_sub_scaled(vec: dict, row: dict, c: QScalar):
    """In place vec -= c * row."""
    c = -c
    for col, val in row.items():
        add_term(vec, col, c * val)


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
        """Product, one ``scalars.gather`` call per output row.

        A call per row keeps only that row's products in memory; one call
        for the whole product would hold them all at once.
        """
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        out = []
        for row in self.rows:
            gathered: dict = {}
            for k, a in row.items():
                for j, b in other.rows[k].items():
                    gathered.setdefault(j, []).append((a, b))
            out.append(gather(gathered))
        return QMatrix(other.ncols, out)

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
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, rows, pivots):
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @staticmethod
    def from_vectors(vectors, ambient: int) -> "SubspaceBasis":
        pivot_rows: dict = {}
        packed = PackedRows(pivot_rows)
        for vec in sorted(vectors, key=len):
            if _in_span(vec, packed):
                continue
            row = dict(vec)
            _reduce_by(row, pivot_rows)
            if not row:
                continue
            p = min(row)
            inv = row[p].inv()
            row = {c: v * inv for c, v in row.items()}
            # clear the new pivot column from the existing rows
            for key, other in pivot_rows.items():
                c = other.get(p)
                if c is not None:
                    _vec_sub_scaled(other, row, c)
                    packed.forget(key)
            pivot_rows[p] = row
        pivots = sorted(pivot_rows)
        rows = [pivot_rows[p] for p in pivots]
        return SubspaceBasis(ambient, rows, pivots)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Canonical residual of vec modulo this subspace."""
        out = dict(vec)
        _reduce_by(out, dict(zip(self.pivots, self.rows)))
        return out

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis)
                and self.ambient == other.ambient
                and self.pivots == other.pivots
                and self.rows == other.rows)

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} of {self.ambient})"


def _in_span(vec: dict, packed: PackedRows):
    """Whether vec lies in the span of ``packed.rows``, rows keyed by pivot
    column, by the packed zero test; None where it is undecided.

    The rows are fully reduced: each holds 1 at its pivot and 0 at every
    other pivot, so a vector of the span is sum_p vec[p] rows[p] over the
    pivots p it holds, and its leftmost column is a pivot.
    """
    pivot_rows = packed.rows
    if not vec:
        return True
    if min(vec) not in pivot_rows:
        return False
    coeffs = {p: vec[p] for p in vec.keys() & pivot_rows.keys()}
    return packed.is_combination(coeffs, vec)


def _reduce_by(row: dict, pivot_rows: dict):
    """In place reduction of row against rows keyed by pivot column.

    No pivot row holds another's pivot column, so a subtraction never brings
    a pivot back: one per pivot column the row holds clears them all.
    """
    for p in sorted(row.keys() & pivot_rows.keys()):
        _vec_sub_scaled(row, pivot_rows[p], row[p])


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
    # the basis checks itself: rank-nullity, then m * basis = 0, by the
    # packed zero test
    if row_space.dim + basis.dim != m.ncols:
        raise ArithmeticError(
            f"rank {row_space.dim} + nullity {basis.dim} != {m.ncols} columns")
    columns = QMatrix(m.ncols, basis.rows).transpose()
    if vanishes(m.rows, columns.rows):
        return basis
    # undecided or not zero: the exact product decides and names a failure
    product = m * columns
    failed = [(k, i) for i, row in enumerate(product.rows) for k in row]
    if failed:
        k, i = min(failed)
        raise ArithmeticError(
            f"kernel vector {k} (pivot {basis.pivots[k]}) is not annihilated:"
            f" row {i} gives {product.get(i, k)}")
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
