"""Exact sparse linear algebra over Q(q).

Vectors are dicts {column index: nonzero QScalar}.  Subspaces are kept in
reduced row echelon form with pivot entries 1; since scalar canonical forms
are unique, two subspaces are equal iff their RREF data are identical, and
that comparison is used everywhere downstream.

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
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .scalars import ONE, ZERO, QScalar, add_term, dot

__all__ = ["QMatrix", "SubspaceBasis", "kernel"]


def _vec_sub_scaled(vec: dict, row: dict, c: QScalar):
    """In place vec -= c * row."""
    c = -c
    for col, val in row.items():
        add_term(vec, col, c * val)


class QMatrix:
    """Sparse matrix over Q(q); entries map (row, col) -> nonzero scalar.

    A matrix is not changed after construction, so ``apply`` can keep the
    entries grouped by column once they are first needed.
    """

    __slots__ = ("nrows", "ncols", "entries", "_by_col")

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self._by_col = None
        self.entries = {}
        if entries:
            for key, val in entries.items():
                if val:
                    self.entries[key] = val

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(n, n, {(i, i): ONE for i in range(n)})

    def get(self, i: int, j: int) -> QScalar:
        return self.entries.get((i, j), ZERO)

    def _check_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other):
        self._check_shape(other)
        data = dict(self.entries)
        for key, val in other.entries.items():
            add_term(data, key, val)
        return QMatrix(self.nrows, self.ncols, data)

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, c: QScalar) -> "QMatrix":
        if not c:
            return QMatrix(self.nrows, self.ncols)
        return QMatrix(self.nrows, self.ncols,
                       {key: c * val for key, val in self.entries.items()})

    def __mul__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        by_row: dict = {}
        for (k, j), val in other.entries.items():
            by_row.setdefault(k, []).append((j, val))
        gathered: dict = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                gathered.setdefault((i, j), []).append((a, b))
        return QMatrix(self.nrows, other.ncols,
                       {key: dot(pairs) for key, pairs in gathered.items()})

    def transpose(self) -> "QMatrix":
        return QMatrix(self.ncols, self.nrows,
                       {(j, i): val for (i, j), val in self.entries.items()})

    def row(self, i: int) -> dict:
        return {j: val for (r, j), val in self.entries.items() if r == i}

    def apply(self, vec: dict) -> dict:
        """Matrix times a sparse column vector, visiting only its columns."""
        by_col = self._by_col
        if by_col is None:
            by_col = self._by_col = {}
            for (i, j), val in self.entries.items():
                by_col.setdefault(j, []).append((i, val))
        out: dict = {}
        for j, c in vec.items():
            for i, val in by_col.get(j, ()):
                add_term(out, i, val * c)
        return out

    def to_json(self):
        return {
            "nrows": self.nrows,
            "ncols": self.ncols,
            "entries": [[i, j, str(val)]
                        for (i, j), val in sorted(self.entries.items())],
        }

    def __repr__(self):
        return f"QMatrix({self.nrows}x{self.ncols}, {len(self.entries)} entries)"


class SubspaceBasis:
    """Canonical RREF basis of a subspace of Q(q)^ambient.

    ``rows`` are sparse vectors sorted by pivot column; each pivot entry is 1
    and pivot columns are cleared from every other row.
    """

    __slots__ = ("ambient", "rows", "pivots", "labels")

    def __init__(self, ambient: int, rows, pivots, labels=None):
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots
        self.labels = labels

    @staticmethod
    def from_vectors(vectors, ambient: int, labels=None) -> "SubspaceBasis":
        pivot_rows: dict = {}
        for vec in sorted(vectors, key=len):
            row = dict(vec)
            _reduce_by(row, pivot_rows)
            if not row:
                continue
            p = min(row)
            inv = row[p].inv()
            row = {c: v * inv for c, v in row.items()}
            # clear the new pivot column from the existing rows
            for other in pivot_rows.values():
                c = other.get(p)
                if c is not None:
                    _vec_sub_scaled(other, row, c)
            pivot_rows[p] = row
        pivots = sorted(pivot_rows)
        rows = [pivot_rows[p] for p in pivots]
        return SubspaceBasis(ambient, rows, pivots, labels)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Canonical residual of vec modulo this subspace."""
        out = dict(vec)
        for p, row in zip(self.pivots, self.rows):
            c = out.get(p)
            if c is not None:
                _vec_sub_scaled(out, row, c)
        return out

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis)
                and self.ambient == other.ambient
                and self.pivots == other.pivots
                and self.rows == other.rows)

    def to_json(self):
        labels = self.labels
        name = (lambda c: labels[c]) if labels else (lambda c: c)
        return {
            "ambient": self.ambient,
            "dim": self.dim,
            "rows": [{str(name(c)): str(v) for c, v in sorted(r.items())}
                     for r in self.rows],
        }

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} of {self.ambient})"


def _reduce_by(row: dict, pivot_rows: dict):
    """In place reduction of row against rows keyed by pivot column."""
    while True:
        hit = None
        for c in row:
            if c in pivot_rows and (hit is None or c < hit):
                hit = c
        if hit is None:
            return
        _vec_sub_scaled(row, pivot_rows[hit], row[hit])


def kernel(m: QMatrix) -> SubspaceBasis:
    """Right kernel {v : m v = 0} as a canonical subspace of Q(q)^ncols."""
    rows: dict = {}
    for (i, j), val in m.entries.items():
        rows.setdefault(i, {})[j] = val
    row_space = SubspaceBasis.from_vectors(
        (rows.get(i, {}) for i in range(m.nrows)), m.ncols)
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
    # rank-nullity, and each basis vector really is annihilated (apply groups
    # the entries by column once, on its first call)
    if row_space.dim + basis.dim != m.ncols:
        raise ArithmeticError(
            f"rank {row_space.dim} + nullity {basis.dim} != {m.ncols} columns")
    for vec in basis.rows:
        if m.apply(vec):
            raise ArithmeticError("a kernel vector is not annihilated")
    return basis
