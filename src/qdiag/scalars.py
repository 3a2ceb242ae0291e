"""Exact arithmetic in the field Q(q) of rational functions of q.

A scalar is a reduced ratio of Laurent polynomials in q with exact rational
coefficients.  The canonical form is unique:

- the denominator is an ordinary polynomial (lowest exponent 0) and monic,
- numerator and denominator share no polynomial factor,
- the zero scalar is 0/1.

Since the form is unique, ``==`` is literal structural equality and every
downstream equality test (matrix entries, subspace comparison) reduces to it.

>>> str(q_int(3))
'q^2 + 1 + q^-2'
>>> str(omega() * q_int(2))
'q^2 - q^-2'
>>> parse_scalar('(q^2 - q^-2)/(q + q^-1)') == omega()
True
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleAtPoint

__all__ = [
    "LaurentPoly", "QScalar", "ZERO", "ONE", "Q",
    "qs", "q_power", "q_int", "omega", "parse_scalar", "add_term",
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


class LaurentPoly:
    """Laurent polynomial in q: a finitely supported map exponent -> Fraction."""

    __slots__ = ("coeffs", "_key")

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for e, c in coeffs.items():
                c = c if isinstance(c, Fraction) else Fraction(c)
                if c:
                    data[e] = c
        self.coeffs = data
        self._key = tuple(sorted(data.items()))

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({0: Fraction(c)})

    @staticmethod
    def term(c, e: int) -> "LaurentPoly":
        return LaurentPoly({e: Fraction(c)})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __add__(self, other):
        data = dict(self.coeffs)
        for e, c in other.coeffs.items():
            add_term(data, e, c)
        return LaurentPoly(data)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        data = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                add_term(data, e1 + e2, c1 * c2)
        return LaurentPoly(data)

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        if not c:
            return LaurentPoly()
        return LaurentPoly({e: cc * c for e, cc in self.coeffs.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        if k == 0:
            return self
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    @property
    def min_exp(self) -> int:
        return min(self.coeffs)

    @property
    def max_exp(self) -> int:
        return max(self.coeffs)

    @property
    def leading_coeff(self) -> Fraction:
        return self.coeffs[self.max_exp]

    def is_one(self) -> bool:
        return self.coeffs == {0: Fraction(1)}

    def evaluate(self, point) -> Fraction:
        point = Fraction(point)
        if point == 0 and self.coeffs and self.min_exp < 0:
            raise PoleAtPoint("negative powers of q at q=0")
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * point ** e
        return total

    def __str__(self):
        return _render_poly(self)

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"


_POLY_ZERO = LaurentPoly()
_POLY_ONE = LaurentPoly.const(1)


def _divmod_ordinary(a: LaurentPoly, b: LaurentPoly):
    """Polynomial division for ordinary (min_exp >= 0) polynomials."""
    rem = dict(a.coeffs)
    quo = {}
    db = b.max_exp
    lb = b.leading_coeff
    while rem and max(rem) >= db:
        da = max(rem)
        f = rem[da] / lb
        quo[da - db] = f
        neg_f = -f
        for e, c in b.coeffs.items():
            add_term(rem, e + da - db, neg_f * c)
    return LaurentPoly(quo), LaurentPoly(rem)


def _gcd_ordinary(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of two ordinary polynomials (Euclid, monic at each step)."""
    while b:
        b = b.scale(1 / b.leading_coeff)
        _, r = _divmod_ordinary(a, b)
        a, b = b, r
    return a.scale(1 / a.leading_coeff)


_gcd_cache: dict = {}


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    key = (a._key, b._key)
    g = _gcd_cache.get(key)
    if g is None:
        g = _gcd_ordinary(a, b)
        if len(_gcd_cache) > 1 << 16:
            _gcd_cache.clear()
        _gcd_cache[key] = g
    return g


class QScalar:
    """Element of Q(q) in the unique canonical form described above."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _POLY_ONE):
        if not den:
            raise ZeroDivisionError("zero denominator in Q(q)")
        if not num:
            self.num = _POLY_ZERO
            self.den = _POLY_ONE
            return
        if not den.is_one():
            # move q-powers out of the denominator
            s = den.min_exp
            if s:
                den = den.shift(-s)
                num = num.shift(-s)
            # cancel the polynomial gcd (computed on the ordinary parts)
            t = num.min_exp
            num_ord = num.shift(-t) if t else num
            g = _poly_gcd(num_ord, den)
            if not g.is_one():
                num_ord, r1 = _divmod_ordinary(num_ord, g)
                den, r2 = _divmod_ordinary(den, g)
                if r1 or r2:
                    raise ArithmeticError(f"polynomial gcd {g} leaves a remainder")
            num = num_ord.shift(t) if t else num_ord
            # make the denominator monic
            lc = den.leading_coeff
            if lc != 1:
                den = den.scale(1 / lc)
                num = num.scale(1 / lc)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(c) -> "QScalar":
        return QScalar(LaurentPoly.const(Fraction(c)))

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QScalar.from_fraction(other)
        return (isinstance(other, QScalar)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            s = self.num + other.num
            return QScalar(s) if s else ZERO
        return QScalar(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = object.__new__(QScalar)
        out.num = -self.num
        out.den = self.den
        return out

    def __mul__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if self.den.is_one() and other.den.is_one():
            return QScalar(self.num * other.num)
        return QScalar(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return self * other.inv()

    def inv(self) -> "QScalar":
        if not self.num:
            raise ZeroDivisionError("inverse of 0 in Q(q)")
        return QScalar(self.den, self.num)

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
        d = self.den.evaluate(point)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at q={point}")
        return self.num.evaluate(point) / d

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if self.den.is_one():
            return _render_poly(self.num)
        return f"({_render_poly(self.num)})/({_render_poly(self.den)})"

    def __repr__(self):
        return f"QScalar({self})"


ZERO = QScalar(_POLY_ZERO)
ONE = QScalar(_POLY_ONE)
Q = QScalar(LaurentPoly.term(1, 1))


def qs(c) -> QScalar:
    """Constant scalar from an int or Fraction."""
    return QScalar.from_fraction(c)


def q_power(k: int) -> QScalar:
    """q^k."""
    return QScalar(LaurentPoly.term(1, k))


def q_int(n: int) -> QScalar:
    """Quantum integer [n] = (q^n - q^-n)/(q - q^-1) = q^(n-1) + ... + q^-(n-1)."""
    if n < 1:
        raise ValueError("quantum integer needs n >= 1")
    return QScalar(LaurentPoly({e: Fraction(1) for e in range(-(n - 1), n, 2)}))


def omega() -> QScalar:
    """The deformation parameter q - q^-1."""
    return QScalar(LaurentPoly({1: Fraction(1), -1: Fraction(-1)}))


# -- text form -------------------------------------------------------------

def _render_term(e: int, c: Fraction, first: bool) -> str:
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


def _render_poly(p: LaurentPoly) -> str:
    if not p:
        return "0"
    parts = []
    for e in sorted(p.coeffs, reverse=True):
        parts.append(_render_term(e, p.coeffs[e], not parts))
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


if __name__ == "__main__":
    import doctest
    doctest.testmod()
