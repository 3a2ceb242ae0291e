"""Exact arithmetic in the field Q(q) of rational functions of q.

A scalar is a ratio num/den of Laurent polynomials in q with integer
coefficients (the idea of FLINT's ``fmpq_poly``: an integer polynomial over
one denominator, here a polynomial one).  ``num`` and ``den`` are plain
dicts exponent -> nonzero int, and no module but this one reads them.  Two
invariants hold for every stored dict:

- it is never mutated once a scalar holds it, so scalars share dicts freely,
- the denominator 1 is the one object ``_ONE_COEFFS``, so ``den is
  _ONE_COEFFS`` tests for a Laurent polynomial.

The canonical form is unique:

- the denominator is an ordinary polynomial (lowest exponent 0) whose
  leading coefficient is positive,
- the integer content of numerator and denominator together is 1,
- numerator and denominator share no polynomial factor; the gcd is taken by
  a primitive pseudo-remainder sequence over Z,
- the zero scalar is 0/1.

So 1/4 q^4 is stored as q^4 over 4.  Since the form is unique, ``==`` is
literal structural equality and every downstream equality test (matrix
entries, subspace comparison) reduces to it.  ``Fraction`` appears only at
the boundaries: rational constants (``qs``), parsing, evaluation and the
text form, which divides by the denominator's leading coefficient.

Sparse combinations have two primitives.  ``add_term`` scatters: it adds one
scalar into a dict entry.  ``PackedRows.combine`` gathers: for sparse rows
{column: scalar} held by key it returns base + sum_key coeffs[key]
rows[key], one scalar per key.  That is the shape of every matrix and
representation product and of every row reduction.
It packs (Kronecker substitution, ``Packing``, the one packer): each
coefficient's numerator and each row entry's is read once at q = 2^k and
divided by q^low for its own lowest exponent low, so each product is one
integer product, shifted by whole digits to the lowest exponent of the
call, and each column sum is unpacked once: its base-2^k digits, taken in
-2^(k-1)..2^(k-1)-1, are its coefficients.  Each denominator, an ordinary
polynomial, is read at q = 2^k as it is.  This is exact.  A coefficient of
a column sum of n products is at most the sum, over its products and the
base, of the product of the coefficient's and the entry's L1 norms (the
sums of their absolute coefficients), so at most (n + 1) top top_row for
the largest L1 norm top of a coefficient's numerator or denominator and
top_row of an entry's; k keeps 2^(k-1) above that bound, which also bounds
every product of two denominators.  So a column sum is zero if and only if
its packed integer is, and equal packed denominators are equal
polynomials.  Products whose coefficient and entry both have denominator 1
share one accumulator with the base's Laurent entries, and no gcd runs for
them.  The others are summed per group of equal packed denominators: the
products over d and e, a coefficient's and an entry's (either may be 1),
sum to (sum of their numerators)/(d e), and one canonicalization per
nonzero column of a group gives the unique form that term-by-term addition
would reach.  A combination with no base whose rows share no column sums
nothing, so it is formed in Q(q), one product per entry.  Every Hecke
walk, M_lambda's included, runs on the same packing (``hecke``).

>>> rows = PackedRows({"a": {"x": omega(), "y": Q},
...                    "b": {"x": ONE / q_int(2)}})
>>> out = rows.combine({"a": q_int(2), "b": q_int(2)}, {"y": -Q * q_int(2)})
>>> {key: str(value) for key, value in out.items()}
{'x': 'q^2 + 1 - q^-2'}

>>> str(q_int(3))
'q^2 + 1 + q^-2'
>>> str(omega() * q_int(2))
'q^2 - q^-2'
>>> parse_scalar('(q^2 - q^-2)/(q + q^-1)') == omega()
True
>>> str(parse_scalar('q/(2*q^2 + 2)'))
'((1/2)*q)/(q^2 + 1)'
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import index

from .errors import PoleAtPoint

__all__ = [
    "QScalar", "ZERO", "ONE", "Q",
    "qs", "q_power", "q_int", "omega", "bar", "parse_scalar", "add_term",
    "Packing", "PackedRows", "extent",
]


def add_term(d: dict, key, c) -> None:
    """In place d[key] += c for a sparse combination; a zero sum drops the key.

    An absent key stores c itself: adding it to a zero would rebuild the
    scalar's canonical form, gcd included, for nothing.
    """
    old = d.get(key)
    if old is None:
        if c:
            d[key] = c
        return
    s = old + c
    if s:
        d[key] = s
    else:
        del d[key]


class Packing:
    """Integer Laurent polynomials as integers at q = 2^k.

    This is the one Kronecker packing.  ``numerators`` reads the numerators
    of scalars, each divided by q^low, at q = 2^k, and ``denominators``
    reads their denominators, ordinary polynomials, as they are.  Packing
    is a ring map from Z[q] to Z, so sums, products and shifts by whole
    digits (products with q) of packed integers pack the sums, products and
    q-multiples of the polynomials.  ``scalars`` reads integers back: the
    base-2^k digits of each, taken in -2^(k-1)..2^(k-1)-1, are the
    coefficients of q^low, q^(low+1), ...  A polynomial is read back
    exactly when 2^(k-1) exceeds the absolute value of each of its
    coefficients; ``Packing(bound)`` is the narrowest packing with 2^(k-1)
    above bound, so a caller that bounds every coefficient it unpacks by
    bound, for instance by a sum of L1 norms (sums of absolute
    coefficients), unpacks exactly, and two polynomials within the bound
    are equal if and only if their packed integers are.
    """

    __slots__ = ("k",)

    def __init__(self, bound: int):
        self.k = bound.bit_length() + 1

    def numerator(self, c: "QScalar", low: int) -> int:
        """The packed numerator of c over q^low."""
        return _pack(c.num, self.k, low)

    def numerators(self, row: dict, low: int) -> dict:
        """The packed numerators of the entries of a row over q^low."""
        k = self.k
        return {j: _pack(c.num, k, low) for j, c in row.items()}

    def denominator(self, c: "QScalar") -> int:
        """The packed denominator of c, 1 for a Laurent polynomial."""
        den = c.den
        return 1 if den is _ONE_COEFFS else _pack(den, self.k, 0)

    def denominators(self, row: dict) -> dict:
        """The packed denominators of the entries of a row that have one."""
        k = self.k
        return {j: _pack(c.den, k, 0) for j, c in row.items()
                if c.den is not _ONE_COEFFS}

    def scalars(self, sums: dict, low: int, over: int = 1) -> dict:
        """The nonzero sums read back, each over the packed denominator
        over (1: none), in canonical form."""
        k = self.k
        if over == 1:
            return {j: _scalar(_unpack(v, k, low), _ONE_COEFFS)
                    for j, v in sums.items() if v}
        den = _unpack(over, k, 0)
        return {j: _canon(_unpack(v, k, low), den)
                for j, v in sums.items() if v}


class PackedRows:
    """Sparse rows {column: scalar} for exact sums of their multiples.

    ``rows`` maps each key to a row, and the caller keeps them current:
    ``forget(key)`` after editing a row.  ``combine`` packs as the module
    docstring describes: each entry of a row is packed once, its numerator
    divided by q^low for the row's lowest exponent low, and each product is
    shifted to align with the lowest exponent of its call.  With L1 norm
    ``top`` per coefficient numerator or denominator and ``top_row`` per row
    or base entry numerator or denominator, a coefficient of a column sum of
    n products is at most (n + 1) top top_row, base included, which also
    bounds the product of a coefficient's and an entry's denominators, and
    k keeps 2^(k-1) above it.  k only grows, to what a call needs, and
    every packed row is dropped when it does.  A combination with no base
    whose rows share no column sums nothing, so it is formed in Q(q), one
    product per entry.
    """

    __slots__ = ("rows", "packing", "_bounds", "_packed")

    def __init__(self, rows):
        self.rows = rows
        self.packing = Packing(0)
        self._bounds: dict = {}  # key -> (lowest exponent or None, top)
        self._packed: dict = {}  # key -> (numerators, denominators) at k

    def forget(self, key) -> None:
        """Drop what is packed of rows[key], which its caller edited."""
        self._bounds.pop(key, None)
        self._packed.pop(key, None)

    def combine(self, coeffs: dict, base: dict) -> dict:
        """base + sum_key coeffs[key] rows[key], a fresh sparse row."""
        rows, bounds_of = self.rows, self._bounds
        if not base and _disjoint(list(map(rows.__getitem__, coeffs))):
            return self._summed(coeffs)
        low, top_row = _bounds(base)
        top = 0
        terms = []  # (key, coefficient, its lowest exponent, product's)
        for key, c in coeffs.items():
            bounds = bounds_of.get(key)
            if bounds is None:
                bounds = bounds_of[key] = _bounds(rows[key])
            row_low, row_top = bounds
            if row_low is None or not c:
                continue
            c_low, c_top = extent(c)
            off = row_low + c_low
            terms.append((key, c, c_low, off))
            if low is None or off < low:
                low = off
            if row_top > top_row:
                top_row = row_top
            if c_top > top:
                top = c_top
        if not terms:
            return dict(base)
        packing = Packing((len(terms) + 1) * top * top_row)
        if packing.k > self.packing.k:
            self.packing = packing
            self._packed.clear()
        packing = self.packing
        k = packing.k
        numerator, denominator = packing.numerator, packing.denominator
        acc: dict = {}
        groups: dict = {}  # packed denominators -> their column sums
        if base:
            nums = packing.numerators(base, low)
            dens = packing.denominators(base)
            if dens:
                for j, v in nums.items():
                    _sums(groups, acc, 1, dens.get(j, 1))[j] = v
            else:
                acc = nums
        packed = self._packed
        for key, c, c_low, off in terms:
            entry = packed.get(key)
            if entry is None:
                row = rows[key]
                entry = packed[key] = (
                    packing.numerators(row, bounds_of[key][0]),
                    packing.denominators(row))
            nums, dens = entry
            a = numerator(c, c_low) << (k * (off - low))
            d = denominator(c)
            if dens:
                for j, v in nums.items():
                    sums = _sums(groups, acc, d, dens.get(j, 1))
                    sums[j] = sums.get(j, 0) + a * v
            else:
                sums = acc if d == 1 else _sums(groups, acc, d, 1)
                get = sums.get
                for j, v in nums.items():
                    sums[j] = get(j, 0) + a * v
        out = packing.scalars(acc, low)
        for (d, e), sums in groups.items():
            for j, c in packing.scalars(sums, low, d * e).items():
                add_term(out, j, c)
        return out

    def _summed(self, coeffs: dict) -> dict:
        """The combination of rows that share no column, formed in Q(q):
        each entry is one product, and a nonzero one."""
        rows = self.rows
        return {j: v if c is ONE else c * v
                for key, c in coeffs.items() if c
                for j, v in rows[key].items()}


def _sums(groups: dict, acc: dict, d: int, e: int) -> dict:
    """The column sums of the products over the packed denominators d and
    e (1: none); the products over d e, whichever factor carries which."""
    if d == 1 and e == 1:
        return acc
    key = (d, e) if d <= e else (e, d)
    sums = groups.get(key)
    if sums is None:
        sums = groups[key] = {}
    return sums


def _disjoint(rows: list) -> bool:
    """Whether no column is in two of the rows: then a combination of them
    sums nothing, and each of its entries is one product in Q(q)."""
    return len(set().union(*rows)) == sum(map(len, rows))


def extent(c: "QScalar") -> tuple:
    """(lowest exponent of the numerator, largest L1 norm of numerator and
    denominator) of a nonzero scalar: what a packing of it must cover."""
    num, den = c.num, c.den
    top = sum(map(abs, num.values()))
    if den is not _ONE_COEFFS:
        top = max(top, sum(map(abs, den.values())))
    return min(num), top


def _bounds(row: dict):
    """(lowest numerator exponent or None, largest ``extent`` norm) of a
    row."""
    low, top = None, 0
    for c in row.values():
        if c:
            e, norm = extent(c)
            if low is None or e < low:
                low = e
            if norm > top:
                top = norm
    return low, top


def _pack(p: dict, k: int, low: int) -> int:
    """The value of q^-low p at q = 2^k: the inverse of ``_unpack``."""
    v = 0
    for e, c in p.items():
        v += c << (k * (e - low))
    return v


def _unpack(value: int, k: int, low: int) -> dict:
    """The Laurent polynomial whose balanced base-2^k digits make value.

    Digit i, taken in -2^(k-1)..2^(k-1)-1, is the coefficient of q^(low+i).
    """
    out = {}
    base = 1 << k
    mask = base - 1
    half = base >> 1
    zeros = ((value & -value).bit_length() - 1) // k
    value >>= k * zeros
    e = low + zeros
    while value:
        c = value & mask
        if c >= half:
            c -= base
        if c:
            out[e] = c
        value = (value - c) >> k
        e += 1
    return out


def _integer(c) -> int:
    """A coefficient as an int; a float or a non-integral Fraction is refused."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    try:
        return index(c)
    except TypeError:
        raise TypeError(f"Laurent coefficients are integers, not {c!r}") from None


def _checked(p: dict) -> dict:
    """A fresh exponent -> nonzero int dict from caller data."""
    ints = {e: _integer(c) for e, c in p.items()}
    return {e: c for e, c in ints.items() if c}


# -- sparse integer Laurent polynomials: dicts exponent -> nonzero int -------
# Integer sums cost nothing to re-check, so these helpers accumulate first
# and drop the zeros once instead of going through add_term per term.

def _padd(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    get = out.get
    for e, c in b.items():
        out[e] = get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _pmul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((e1, c1),) = a.items()
        if c1 == 1:
            return {e1 + e: c for e, c in b.items()}
        return {e1 + e: c1 * c for e, c in b.items()}
    out: dict = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _pshift(a: dict, k: int) -> dict:
    return {e + k: c for e, c in a.items()}


def _evaluate(p: dict, point: Fraction) -> Fraction:
    if point == 0 and p and min(p) < 0:
        raise PoleAtPoint("negative powers of q at q=0")
    return sum((c * point ** e for e, c in p.items()), Fraction(0))


_ONE_COEFFS = {0: 1}


# -- gcd and exact division of ordinary polynomials over Z -------------------
# Dense lists, highest degree first, no leading zero.

def _dense(p: dict, low: int = 0) -> list:
    """Dense form of q^-low p, for p with lowest exponent low."""
    top = max(p)
    out = [0] * (top - low + 1)
    for e, c in p.items():
        out[top - e] = c
    return out


def _sparse(lst: list, shift: int = 0) -> dict:
    top = len(lst) - 1 + shift
    return {top - i: c for i, c in enumerate(lst) if c}


def _primitive(lst: list) -> list:
    g = gcd(*lst)
    if lst[0] < 0:
        g = -g
    return lst if g == 1 else [c // g for c in lst]


def _pseudo_rem(a: list, b: list) -> list:
    """Primitive part of the remainder of m a by b over Z, for some int m > 0.

    Any nonzero constant multiple of the remainder serves the gcd, so each
    step scales by lc(b)/g only, with g the gcd of the two leading terms.
    """
    r = list(a)
    lb = b[0]
    nb = len(b)
    for i in range(len(r) - nb + 1):
        c = r[i]
        if not c:
            continue
        g = gcd(c, lb)
        m, f = lb // g, c // g
        if m != 1:
            for j in range(i + 1, len(r)):
                r[j] *= m
        for j in range(1, nb):
            r[i + j] -= f * b[j]
    rest = r[len(r) - nb + 1:]
    for k, c in enumerate(rest):
        if c:
            return _primitive(rest[k:])
    return []


# canonicalization meets the same pairs again and again
@lru_cache(maxsize=1 << 16)
def _poly_gcd(a: tuple, b: tuple):
    """Primitive gcd with positive leading coefficient; None when it is 1."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pseudo_rem(a, b)
        if not r:
            return b
        a, b = b, r
    return None


def _exact_div(a: list, g: list) -> list:
    """a / g over Z; ArithmeticError if g does not divide a there."""
    r = list(a)
    lg = g[0]
    ng = len(g)
    quo = []
    for i in range(len(r) - ng + 1):
        c, m = divmod(r[i], lg)
        if m:
            raise ArithmeticError(f"{lg} does not divide {r[i]} in Z")
        quo.append(c)
        if c:
            for j in range(1, ng):
                r[i + j] -= c * g[j]
    if any(r[len(r) - ng + 1:]):
        raise ArithmeticError("polynomial gcd leaves a remainder")
    return quo


def _scalar(num: dict, den: dict) -> "QScalar":
    """QScalar from data already in canonical form."""
    out = object.__new__(QScalar)
    out.num = num
    out.den = _ONE_COEFFS if den == _ONE_COEFFS else den
    return out


def _reduced(num: dict, den: dict) -> "QScalar":
    """num/den, free of common polynomial factors, in canonical form.

    den is ordinary; what is left is the joint integer content and the sign
    of the leading coefficient of den.
    """
    c = gcd(*num.values(), *den.values())
    if den[max(den)] < 0:
        c = -c
    if c != 1:
        num = {e: v // c for e, v in num.items()}
        den = {e: v // c for e, v in den.items()}
    return _scalar(num, den)


def _cancel(num: dict, den: dict):
    """Divide num and the ordinary, non-constant den by their polynomial gcd."""
    if len(num) == 1:
        return num, den
    t = min(num)
    a = _dense(num, t)
    b = _dense(den)
    g = _poly_gcd(tuple(a), tuple(b))
    if g is None:
        return num, den
    return _sparse(_exact_div(a, g), t), _sparse(_exact_div(b, g))


def _canon(num: dict, den: dict) -> "QScalar":
    """Canonical form of num/den for integer Laurent polynomials, den != 0."""
    if not den:
        raise ZeroDivisionError("zero denominator in Q(q)")
    if not num:
        return ZERO
    s = min(den)
    if s:
        # move q-powers out of the denominator
        den = _pshift(den, -s)
        num = _pshift(num, -s)
    if len(den) > 1:
        num, den = _cancel(num, den)
    return _reduced(num, den)


class QScalar:
    """Element of Q(q) in the unique canonical form described above."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict = _ONE_COEFFS):
        """num/den for dicts exponent -> integer coefficient, den nonzero."""
        out = _canon(_checked(num), _checked(den))
        self.num = out.num
        self.den = out.den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (isinstance(other, QScalar)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        a, b = self.num, other.num
        da, db = self.den, other.den
        if da is _ONE_COEFFS and db is _ONE_COEFFS:
            s = _padd(a, b)
            return _scalar(s, _ONE_COEFFS) if s else ZERO
        if da == db:
            s = _padd(a, b)
            if not s:
                return ZERO
            if len(da) > 1:
                s, da = _cancel(s, da)
            return _reduced(s, da)
        s = _padd(_pmul(a, db), _pmul(b, da))
        if not s:
            return ZERO
        den = _pmul(da, db)
        if len(da) > 1 and len(db) > 1:
            # a constant denominator shares no factor with the sum; two
            # polynomial ones may
            s, den = _cancel(s, den)
        return _reduced(s, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = object.__new__(QScalar)
        out.num = {e: -c for e, c in self.num.items()}
        out.den = self.den
        return out

    def __mul__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return ZERO
        da, db = self.den, other.den
        if da is _ONE_COEFFS and db is _ONE_COEFFS:
            return _scalar(_pmul(a, b), _ONE_COEFFS)
        # each numerator can share factors only with the other denominator
        if len(db) > 1:
            a, db = _cancel(a, db)
        if len(da) > 1:
            b, da = _cancel(b, da)
        return _reduced(_pmul(a, b), _pmul(da, db))

    def __truediv__(self, other):
        return self * other.inv()

    def inv(self) -> "QScalar":
        num = self.num
        if not num:
            raise ZeroDivisionError("inverse of 0 in Q(q)")
        # den/num is reduced already: only the q-power and the sign move
        t = min(num)
        new_den = _pshift(num, -t) if t else num
        new_num = _pshift(self.den, -t)
        if new_den[max(new_den)] < 0:
            new_den = {e: -c for e, c in new_den.items()}
            new_num = {e: -c for e, c in new_num.items()}
        return _scalar(new_num, new_den)

    def __pow__(self, k: int) -> "QScalar":
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def evaluate(self, point) -> Fraction:
        """Evaluate at a rational point; raises PoleAtPoint on a pole."""
        point = Fraction(point)
        d = _evaluate(self.den, point)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at q={point}")
        return _evaluate(self.num, point) / d

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        num, den = self.num, self.den
        lc = den[max(den)]
        if lc != 1:
            num = {e: Fraction(c, lc) for e, c in num.items()}
        if len(den) == 1:
            return _render_poly(num)
        if lc != 1:
            den = {e: Fraction(c, lc) for e, c in den.items()}
        return f"({_render_poly(num)})/({_render_poly(den)})"

    def __repr__(self):
        return f"QScalar({self})"


ZERO = _scalar({}, _ONE_COEFFS)
ONE = _scalar({0: 1}, _ONE_COEFFS)
Q = _scalar({1: 1}, _ONE_COEFFS)


def qs(c) -> QScalar:
    """Constant scalar from an int or Fraction."""
    c = Fraction(c)
    if not c:
        return ZERO
    return _scalar({0: c.numerator}, {0: c.denominator})


def q_power(k: int) -> QScalar:
    """q^k."""
    return _scalar({k: 1}, _ONE_COEFFS)


def q_int(n: int) -> QScalar:
    """Quantum integer [n] = (q^n - q^-n)/(q - q^-1) = q^(n-1) + ... + q^-(n-1)."""
    if n < 1:
        raise ValueError("quantum integer needs n >= 1")
    return _scalar({e: 1 for e in range(-(n - 1), n, 2)}, _ONE_COEFFS)


def omega() -> QScalar:
    """The deformation parameter q - q^-1."""
    return _scalar({1: 1, -1: -1}, _ONE_COEFFS)


def bar(c: QScalar) -> QScalar:
    """The field automorphism q -> q^-1."""
    return _canon({-e: v for e, v in c.num.items()},
                  {-e: v for e, v in c.den.items()})


# -- text form -------------------------------------------------------------

def _render_term(e: int, c, first: bool) -> str:
    sign = "-" if c < 0 else "+"
    c = abs(c)
    if e == 0:
        body = str(c)
    else:
        var = "q" if e == 1 else f"q^{e}"
        if c == 1:
            body = var
        elif c.denominator == 1:
            body = f"{c}*{var}"
        else:
            body = f"({c})*{var}"
    if first:
        return body if sign == "+" else f"-{body}"
    return f" {sign} {body}"


def _render_poly(coeffs: dict) -> str:
    """Text of exponent -> int or Fraction coefficients, highest power first."""
    if not coeffs:
        return "0"
    parts = []
    for e in sorted(coeffs, reverse=True):
        parts.append(_render_term(e, coeffs[e], not parts))
    return "".join(parts)


class _Parser:
    """Recursive-descent parser for the scalar grammar.

    expr := term (('+'|'-') term)* ; term := unary (('*'|'/') unary)* ;
    unary := '-' unary | power ; power := atom ('^' int)? ;
    atom := rational | 'q' | '(' expr ')'
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, what):
        raise ValueError(f"bad scalar text at {self.pos}: {what} in {self.text!r}")

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error("expected integer")
        return int(self.text[start:self.pos])

    def expr(self) -> QScalar:
        value = self.term()
        while self.peek() and self.peek() in "+-":
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> QScalar:
        value = self.unary()
        while self.peek() and self.peek() in "*/":
            op = self.peek()
            self.pos += 1
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self) -> QScalar:
        if self.peek() == "-":
            self.pos += 1
            return -self.unary()
        return self.power()

    def power(self) -> QScalar:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            return base ** self.integer()
        return base

    def atom(self) -> QScalar:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            self.take(")")
            return value
        if ch == "q":
            self.pos += 1
            return Q
        if ch.isdigit():
            return qs(self.integer())
        self.error("expected atom")


def parse_scalar(text: str) -> QScalar:
    """Parse the canonical text form (and ordinary arithmetic expressions)."""
    p = _Parser(text)
    value = p.expr()
    p.skip()
    if p.pos != len(text):
        p.error("trailing input")
    return value
