"""The ground field Q(q): canonical forms, field laws, text round-trips."""

import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from qdiag.errors import PoleAtPoint
from qdiag.scalars import (ONE, Q, QScalar, ZERO, PackedRows, add_term, bar,
                           omega, parse_scalar, q_int, q_power, qs)


def rand_scalar(rng, nonzero=False):
    while True:
        num = {e: Fraction(rng.randint(-3, 3)) for e in range(-2, 3)}
        den = {e: Fraction(rng.randint(-2, 2)) for e in range(-1, 2)}
        if not any(den.values()):
            continue
        x = QScalar(num, den)
        if x or not nonzero:
            return x


def test_quantum_integers():
    assert str(q_int(1)) == "1"
    assert q_int(2) == Q + q_power(-1)
    assert str(q_int(2)) == "q + q^-1"
    # telescoping definition: [n] (q - q^-1) = q^n - q^-n
    for n in range(1, 7):
        assert q_int(n) * omega() == q_power(n) - q_power(-n)
    assert q_int(3) == q_power(2) + ONE + q_power(-2)


def test_omega():
    w = omega()
    assert str(w) == "q - q^-1"
    assert w.evaluate(1) == 0
    assert w * q_int(2) == q_power(2) - q_power(-2)


def test_canonical_form_unique():
    # (q^2 - q^-2)/(q + q^-1) reduces to q - q^-1
    x = (q_power(2) - q_power(-2)) / q_int(2)
    assert x == omega()
    assert x.num == omega().num and x.den == omega().den
    # denominator has lowest exponent 0 and a positive leading coefficient
    y = ONE / q_int(2)
    assert min(y.den) == 0
    assert y.den[max(y.den)] == 1
    assert str(y) == "(q)/(q^2 + 1)"


def test_canonicalization_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        x = rand_scalar(rng)
        again = QScalar(x.num, x.den)
        assert again.num == x.num and again.den == x.den


def test_hash_agrees_with_eq():
    # equal scalars built by different routes hash equal and collapse in a set
    rng = random.Random(19)
    for _ in range(50):
        x = rand_scalar(rng)
        y = rand_scalar(rng, nonzero=True)
        routes = [(x * y) / y, parse_scalar(str(x)), QScalar(x.num, x.den),
                  bar(bar(x)), x + ZERO, -(-x)]
        assert all(r == x for r in routes)
        assert {hash(r) for r in routes} == {hash(x)}
        assert len(set(routes) | {x}) == 1


def test_equal_values_hash_equal():
    # a scalar and the int or Fraction it was made from: equal only where
    # the hashes agree, so a set holds one of them or both
    for scalar, value in ((ONE, 1), (qs(2), 2),
                          (qs(Fraction(1, 2)), Fraction(1, 2))):
        equal = scalar == value
        assert equal == (value == scalar)
        assert not equal or hash(scalar) == hash(value)
        assert len({scalar, value}) == (1 if equal else 2)


def test_field_laws_random():
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        if a:
            assert a.inv() * a == ONE
        if b:
            assert (a / b) * b == a


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        QScalar({0: 1}, {})


def test_evaluate():
    assert q_int(3).evaluate(1) == 3
    assert (q_power(2) + ONE + q_power(-2)).evaluate(1) == 3
    assert omega().evaluate(2) == Fraction(3, 2)
    with pytest.raises(PoleAtPoint):
        (ONE / omega()).evaluate(1)
    with pytest.raises(PoleAtPoint):
        q_power(-1).evaluate(0)


def test_evaluate_is_ring_map():
    rng = random.Random(13)
    for _ in range(30):
        a, b = rand_scalar(rng), rand_scalar(rng)
        pt = Fraction(rng.randint(2, 9), rng.randint(1, 3))
        try:
            va, vb = a.evaluate(pt), b.evaluate(pt)
            assert (a + b).evaluate(pt) == va + vb
            assert (a * b).evaluate(pt) == va * vb
        except PoleAtPoint:
            pass


def test_parse_round_trip():
    rng = random.Random(17)
    for _ in range(50):
        x = rand_scalar(rng)
        assert parse_scalar(str(x)) == x
    assert parse_scalar("(q^2 - q^-2)/(q + q^-1)") == omega()
    assert parse_scalar("(q - q^-1)^2") == omega() * omega()
    assert parse_scalar("-(1 + q^2)") == -(ONE + q_power(2))
    assert parse_scalar("3*q^2 - 1/2") == qs(3) * q_power(2) - qs(Fraction(1, 2))


def test_parse_rejects_garbage():
    for text in ("", "q +", "(q", "q^", "x"):
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_pow():
    assert omega() ** 0 == ONE
    assert omega() ** 3 == omega() * omega() * omega()
    assert q_int(2) ** -2 == (q_int(2) * q_int(2)).inv()


def test_coefficients_are_integers():
    # a stray 1/lc would otherwise turn a coefficient into a float silently
    with pytest.raises(TypeError):
        QScalar({0: Fraction(1, 2)})
    for bad in (0.5, 2.0):
        with pytest.raises(TypeError):
            QScalar({1: bad})
        with pytest.raises(TypeError):
            QScalar({0: 1}, {1: bad})
    p = QScalar({0: Fraction(4, 2), 3: True, 5: 0})
    assert p.num == {0: 2, 3: 1}
    assert all(type(c) is int for c in p.num.values())


def test_golden_renderings():
    # the text divides by the denominator's leading coefficient
    x = qs(Fraction(1, 4)) * q_power(4)
    assert str(x) == "(1/4)*q^4"
    assert (x.num, x.den) == ({4: 1}, {0: 4})
    y = qs(Fraction(1, 2)) * Q / (q_power(2) + ONE)
    assert str(y) == "((1/2)*q)/(q^2 + 1)"
    assert (y.num, y.den) == ({1: 1}, {2: 2, 0: 2})
    z = (qs(Fraction(2, 3)) * q_power(2) - qs(Fraction(1, 3))) / (Q - qs(2))
    assert str(z) == "((2/3)*q^2 - 1/3)/(q - 2)"
    assert (z.num, z.den) == ({2: 2, 0: -1}, {1: 3, 0: -6})
    for w in (x, y, z):
        assert parse_scalar(str(w)) == w


def test_sum_cancels_a_shared_denominator_factor():
    # 2/((q-1)(q+1)) + 1/((q+1)(q+2)) = 3(q+1)/((q-1)(q+1)(q+2))
    a = qs(2) / ((Q - ONE) * (Q + ONE))
    b = ONE / ((Q + ONE) * (Q + qs(2)))
    assert str(a + b) == "(3)/(q^2 + q - 2)"
    assert a + b == qs(3) / ((Q - ONE) * (Q + qs(2)))


def rand_rational_scalar(rng):
    """A seeded scalar with non-integral coefficients over a non-monic den."""
    def poly(exps):
        return {e: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for e in exps}
    while True:
        num, den = poly(range(-2, 3)), poly(range(0, rng.randint(1, 3)))
        if any(den.values()):
            break
    top = max(e for e, c in den.items() if c)
    den[top] *= rng.choice([2, 3, -5])
    x = ZERO
    for e, c in num.items():
        x = x + qs(c) * q_power(e)
    y = ZERO
    for e, c in den.items():
        y = y + qs(c) * q_power(e)
    return x / y, num, den


def test_matches_sympy():
    sympy = pytest.importorskip("sympy")
    field, fq = sympy.field("q", sympy.QQ)
    q = sympy.Symbol("q")

    def to_field(coeffs):
        return sum((field(sympy.Rational(c.numerator, c.denominator)) * fq ** e
                    for e, c in coeffs.items()), field(0))

    rng = random.Random(23)
    ops = [operator.add, operator.sub, operator.mul, operator.truediv]
    # factors shared between denominators exercise the gcd paths
    shared = [{0: 1, 1: 1}, {0: -1, 1: 2}, {0: -2, 1: 1, 2: 3}, None]
    operands = []
    for _ in range(40):
        x, num, den = rand_rational_scalar(rng)
        sx = to_field(num) / to_field(den)
        f = rng.choice(shared)
        if f:
            x = x / QScalar(f)
            sx = sx / to_field({e: Fraction(c) for e, c in f.items()})
        operands.append((x, sx))
    pairs = list(zip(operands, operands[1:]))
    pairs += [((a, sa), (a + ONE, sa + 1)) for a, sa in operands[:10]]
    for (a, sa), (b, sb) in pairs:
        for op in ops:
            if op is operator.truediv and not b:
                continue
            x = op(a, b)
            # sympy keeps field elements cancelled, so the difference is the
            # cancelled difference (sympy.cancel on expressions is 10x slower)
            text = str(x).replace("^", "**")
            diff = field.from_expr(sympy.sympify(text)) - op(sa, sb)
            assert diff == 0, text
            num, den = x.num, x.den
            assert all(type(c) is int for c in (*num.values(), *den.values()))
            assert min(den) == 0 and den[max(den)] > 0
            assert gcd(*num.values(), *den.values()) == 1
            if num:
                t = min(num)
                g = sympy.gcd(
                    sympy.Poly.from_dict({(e - t,): c for e, c in num.items()},
                                         q),
                    sympy.Poly.from_dict({(e,): c for e, c in den.items()}, q))
                assert g.degree() == 0, (str(x), g)


def assert_canonical(x):
    num, den = x.num, x.den
    assert all(type(c) is int and c for c in (*num.values(), *den.values()))
    assert min(den) == 0 and den[max(den)] > 0
    assert gcd(*num.values(), *den.values()) == 1
    again = QScalar(num, den)
    assert (again.num, again.den) == (num, den)
    # the denominator 1 is the shared object
    assert (den is ONE.den) == (den == {0: 1})


def _sum_term_by_term(terms, base=()):
    # the oracle: one ordinary product and one add_term per term
    sums = dict(base)
    for key, products in terms.items():
        for c, entry in products:
            add_term(sums, key, c * entry)
    return sums


def _combined(terms, base=()):
    """PackedRows.combine of {key: [(coefficient, entry), ...]}: each entry
    is that of a row {key: entry}, with its coefficient."""
    rows, coeffs = {}, {}
    for key, products in terms.items():
        for n, (c, entry) in enumerate(products):
            rows[key, n] = {key: entry}
            coeffs[key, n] = c
    return PackedRows(rows).combine(coeffs, dict(base))


def test_combine_matches_term_by_term_sum():
    rng = random.Random(41)

    def laurent():
        return qs(rng.randint(-3, 3)) * q_power(rng.randint(-2, 2)) + \
            qs(rng.randint(-2, 2)) * q_power(rng.randint(-2, 2))

    def huge():
        # coefficients past 2^70 and an exponent span past 60 force a
        # packing width far beyond 64 bits
        return QScalar({rng.randint(-40, -30): rng.choice((1, -1)) << 70,
                        rng.randint(30, 40): rng.randint(-(1 << 72), 1 << 72),
                        0: rng.randint(-3, 3)})

    def same_den(x):
        # equal to x, over an equal denominator that is another dict object
        y = QScalar(dict(x.num), dict(x.den))
        assert y == x and (y.den is not x.den or y.den is ONE.den)
        return y

    shared = [q_int(2), q_int(3), Q + qs(2), qs(3), qs(Fraction(1, 2))]
    # denominators with coefficients past 2^70: the packing width must
    # cover the denominators too
    huge_dens = [QScalar({0: rng.randint(-(1 << 72), 1 << 72),
                          1: rng.randint(1, 3) << 70}) for _ in range(3)]

    def scalar(kind, dens):
        if kind == 0:    # denominator 1
            return laurent()
        if kind == 1:    # a denominator shared with other terms
            return laurent() / rng.choice(dens)
        if kind == 2:    # an equal denominator in a distinct dict
            return same_den(laurent() / rng.choice(dens))
        if kind == 3:    # unequal denominators
            return rand_scalar(rng)
        if kind == 4:    # a zero
            return ZERO
        if kind == 5:
            return huge()
        # a small numerator over a huge denominator
        return laurent() / rng.choice(huge_dens)

    kinds = set()
    for trial in range(160):
        dens = rng.sample(shared, k=rng.randint(1, 3))
        # every fourth call has Laurent row entries only, the others mix
        entry_kinds = (0,) if trial % 4 == 0 else range(7)
        terms = {}
        for key in range(rng.randint(1, 5)):
            products = []
            for _ in range(rng.randint(1, 6)):
                kind, entry_kind = rng.randrange(7), rng.choice(entry_kinds)
                kinds.add((kind, entry_kind))
                entry = scalar(entry_kind, dens) or ONE  # a row holds no 0
                products.append((scalar(kind, dens), entry))
            # a sum that cancels: the key must be dropped
            if rng.random() < 0.3:
                products += [(-c, entry) for c, entry in products]
            terms[key] = products
        base = {key: scalar(rng.choice(entry_kinds), dens)
                for key in range(rng.randint(0, 6))}
        base = {key: x for key, x in base.items() if x}
        want = _sum_term_by_term(terms, base)
        got = _combined(terms, base)
        assert got == want
        for x in got.values():
            assert x
            assert_canonical(x)
    assert kinds == {(i, j) for i in range(7) for j in range(7)}
    # every denominator 1: each key is one packed sum
    terms = {key: [(laurent(), laurent() or ONE)
                   for _ in range(rng.randint(1, 6))] for key in range(6)}
    terms[6] = terms[0] + [(-c, entry) for c, entry in terms[0]]
    assert _combined(terms) == _sum_term_by_term(terms)
    assert 6 not in _combined(terms)
    # the widest packing really is past 64 bits
    x = QScalar({-30: 1 << 70, 30: 1})
    assert _combined({0: [(x, x), (x, -x), (x, q_power(1))]}) == {0: x * Q}
    # a product that reaches the product of the two L1 norms
    y = QScalar({0: 1 << 40, 1: 1 << 40, 2: 1 << 40})
    assert _combined({0: [(y * y, y), (y, -y * Q)]}) == \
        {0: y * y * y - y * y * Q}
    # one term is the ordinary product; empty, zero and cancelling sums drop
    a, b = ONE / q_int(2), Q / (Q + qs(2))
    assert _combined({"k": [(a, b)]}) == {"k": a * b}
    assert _combined({}) == {}
    assert _combined({0: [(ZERO, a), (ZERO, b)], 1: [(ZERO, a)]}) == {}
    assert _combined({0: [(a, b), (-a, b)], 1: [(a * b, a)]}) == \
        {1: a * b * a}
    # row and base entries with denominators: unequal, equal in distinct
    # dicts, and past 2^70, each group summed against the others
    h = huge_dens[0]
    for entries in ([a, b, ONE / h], [a, same_den(a), same_den(a)],
                    [ONE / h, same_den(ONE / h), Q / h],
                    [b, ONE / (Q + qs(2)), qs(Fraction(1, 3))]):
        terms = {0: [(Q, entries[0]), (a, entries[1])],
                 1: [(-ONE, entries[2]), (b, entries[0])]}
        for base in ({}, {0: entries[1]}, {0: ONE / h, 1: -entries[2]}):
            assert _combined(terms, base) == _sum_term_by_term(terms, base)
    assert _combined({0: [(Q, a), (ONE, b)]}, {0: ONE}) == {0: Q * a + b + ONE}
    assert _combined({0: [(Q, a), (-Q, a)]}, {1: b}) == {1: b}
    assert _combined({0: [(a, b), (b, a)]}, {0: -(a * b + a * b)}) == {}


def test_random_check_scalar_matches_sum_of_products():
    # the construction `checks._random_scalar` used before it built one
    # QScalar: the oracle for its values and for the draws it makes
    from qdiag.checks import _random_scalar

    def summed(rng):
        num = {e: rng.randint(-3, 3) for e in range(-2, 3)}
        out = qs(rng.randint(-2, 2))
        for e, c in num.items():
            if c:
                out = out + qs(c) * q_power(e)
        return out

    old, new = random.Random(7), random.Random(7)
    for _ in range(20_000):
        want, got = summed(old), _random_scalar(new)
        assert (got.num, got.den) == (want.num, want.den)
        assert got.den is want.den  # the shared denominator 1
    assert new.getstate() == old.getstate()


def _exact_combination(coeffs, rows):
    """sum_key coeffs[key] rows[key], one ordinary product at a time."""
    out: dict = {}
    for key, a in coeffs.items():
        for j, v in rows[key].items():
            add_term(out, j, a * v)
    return out


def _residual(coeffs, rows, target):
    """target - sum_key coeffs[key] rows[key], term by term."""
    out = dict(target)
    for key, v in _exact_combination(coeffs, rows).items():
        add_term(out, key, -v)
    return out


def _vanishes(left, rows):
    """Whether every combination sum_key a[key] rows[key], a in left, is
    zero, by ``PackedRows.combine`` with an empty base."""
    return not any(PackedRows(rows).combine(a, {}) for a in left)


def _residual_by(rows, coeffs, target):
    """target - sum_key coeffs[key] rows[key] by ``PackedRows.combine``;
    rows is a PackedRows or the rows to pack."""
    packed = rows if isinstance(rows, PackedRows) else PackedRows(rows)
    return packed.combine({key: -a for key, a in coeffs.items()}, target)


def test_packed_residual_matches_exact_sums():
    rng = random.Random(43)

    def laurent(bits):
        return QScalar({e: rng.randint(-(1 << bits), 1 << bits)
                        for e in rng.sample(range(-4, 5), rng.randint(1, 3))})

    for trial in range(60):
        bits = rng.choice((2, 20, 45))
        rows = {key: {j: laurent(bits) for j in rng.sample(range(6), 3)}
                for key in range(4)}
        coeffs = {key: laurent(bits) for key in rng.sample(range(4), 3)}
        target = _exact_combination(coeffs, rows)
        packed = PackedRows(rows)
        assert _residual_by(packed, coeffs, target) == {}
        assert _vanishes([coeffs], rows) is (not target)
        # one q-power more in one column, maybe one the sum does not reach,
        # is all that is left
        col, extra = rng.randrange(7), q_power(rng.randint(-9, 9))
        changed = dict(target)
        add_term(changed, col, extra)
        assert _residual_by(packed, coeffs, changed) == {col: extra}


def test_packed_residual_does_not_alias():
    # at q = 2^w, 2^w q^0 and q^1 pack to one integer: the bound keeps k
    # above every coefficient, so the two stay apart at every width, with
    # the large coefficient in the target, in a coefficient or in a row
    for w in range(1, 80):
        big = QScalar({0: 1 << w})
        assert _residual_by({0: {0: Q}}, {0: ONE}, {0: big}) == \
            {0: big - Q}, w
        assert _residual_by({0: {0: ONE}}, {0: big}, {0: Q}) == \
            {0: Q - big}, w
        assert _residual_by({0: {0: big}}, {0: ONE}, {0: Q}) == \
            {0: Q - big}, w
        assert _vanishes([{0: ONE, 1: -ONE}],
                         {0: {0: Q}, 1: {0: big}}) is False
        assert _residual_by({0: {0: Q}}, {0: big}, {0: big * Q}) == {}
        # the target is one more term: 2^w + 2^w reaches 2^(w+1)
        assert _residual_by({0: {0: big}}, {0: -ONE}, {0: big}) == \
            {0: big + big}, w
    # n terms of 2^w each sum to n 2^w, which q^1 packs to when k is the
    # bit length of n 2^w: the bound counts the terms, target included
    for n in range(1, 6):
        for w in range(70):
            rows = {i: {0: QScalar({0: 1 << w})} for i in range(n)}
            ones = dict.fromkeys(rows, ONE)
            total = QScalar({0: n << w})
            assert _residual_by(rows, ones, {0: Q}) == {0: Q - total}
            assert _residual_by(rows, ones, {0: total}) == {}
    # a coefficient past 2^70 over a wide exponent span
    huge = QScalar({-30: 1 << 70, 25: -(1 << 70) + 1})
    rows = {0: {0: huge, 3: huge * Q}, 1: {0: Q, 3: Q * Q}}
    assert _vanishes([{0: Q, 1: -huge}], rows) is True
    assert _vanishes([{0: Q, 1: -huge + ONE}], rows) is False
    assert _residual_by(rows, {0: Q, 1: -huge + ONE}, {}) == \
        {0: -Q, 3: -Q * Q}


def test_residual_off_laurent_polynomials_is_exact():
    half, rational = qs(Fraction(1, 2)), ONE / q_int(2)
    for odd in (half, rational):
        assert _vanishes([{0: odd}], {0: {0: ONE}}) is False
        assert _vanishes([{0: ONE}], {0: {0: odd}}) is False
        assert _vanishes([{0: odd, 1: -ONE}], {0: {0: ONE}, 1: {0: odd}})
        assert _residual_by({0: {0: ONE}}, {0: ONE}, {0: odd}) == \
            {0: odd - ONE}
        assert _residual_by({0: {0: odd}}, {0: Q}, {0: Q * odd}) == {}
    # a row off Laurent polynomials decides what it meets, whatever came
    # before, and a test that does not meet it stays on packed integers
    assert _vanishes([{0: ONE}, {1: ONE}],
                     {0: {0: ONE}, 1: {0: half}}) is False
    assert _vanishes([{0: ONE, 1: -ONE}, {1: ONE}],
                     {0: {0: ONE}, 1: {0: ONE}, 2: {0: half}}) is False
    assert _vanishes([{0: ONE, 1: -ONE}, {2: ONE}],
                     {0: {0: ONE}, 1: {0: ONE}, 2: {0: half}}) is False
    assert _vanishes([{0: ONE, 1: -ONE}, {2: ONE, 3: -half}],
                     {0: {0: ONE}, 1: {0: ONE}, 2: {0: half},
                      3: {0: ONE}}) is True


def test_residual_is_the_term_by_term_sum():
    # both ways of summing, the packed one on Laurent rows and the Q(q) one
    # where a denominator appears, give the canonical term-by-term residual
    rng = random.Random(61)

    def laurent():
        return QScalar({e: rng.randint(-9, 9)
                        for e in rng.sample(range(-3, 4), rng.randint(1, 3))})

    for trial in range(80):
        make = laurent if trial % 2 else (lambda: rand_scalar(rng))
        rows = {key: {j: make() for j in rng.sample(range(5), 3)}
                for key in range(4)}
        rows = {key: {j: v for j, v in row.items() if v}
                for key, row in rows.items()}
        coeffs = {key: make() for key in rng.sample(range(4), 3)}
        coeffs = {key: a for key, a in coeffs.items() if a}
        target = {j: v for j in rng.sample(range(6), 2) if (v := make())}
        if rng.random() < 0.3:
            target = _exact_combination(coeffs, rows)
        packed = PackedRows(rows)
        expected = _residual(coeffs, rows, target)
        got = _residual_by(packed, coeffs, target)
        assert got == expected and got is not target
        # the rows are packed once
        assert _residual_by(packed, coeffs, target) == expected
        assert _vanishes([coeffs], rows) is (
            not _exact_combination(coeffs, rows))


def test_forgotten_row_is_packed_again():
    rows = {0: {0: ONE, 1: Q}}
    packed = PackedRows(rows)
    assert _residual_by(packed, {0: Q}, {0: Q, 1: Q * Q}) == {}
    rows[0][1] = omega()
    packed.forget(0)
    assert _residual_by(packed, {0: Q}, {0: Q, 1: Q * Q}) == \
        {1: Q * Q - Q * omega()}
    assert _residual_by(packed, {0: Q}, {0: Q, 1: Q * omega()}) == {}
