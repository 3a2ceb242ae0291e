"""The Hecke algebra H_r(q) in the natural basis T_sigma.

Each generator satisfies the quadratic relation T_si^2 = 1 + (q - q^-1) T_si,
so left multiplication by a generator is

    T_si . T_sigma = T_(si.sigma)                      if the length goes up,
    T_si . T_sigma = T_(si.sigma) + (q - q^-1) T_sigma otherwise,

and the basis product T_p T_rho walks the reduced word of p, last letter
first.  Every product here is such a walk, on packed integers
(``scalars.Packing``): an element is {index: c at q = 2^k}, each step
looks up its target and kind in a step table and carries a factor q, so
the target gets v << k and a descent keeps (v << 2k) - v.  A step at most
triples the L1 norm (the sum of the absolute coefficients), so a walk
along a word of length l keeps every coefficient at most 3^l times the
norm it started from.  The general product x y is sum_p c_p T_p y, packed
for the bound |y|_1 sum_p 3^l(p) |c_p|_1 and read back by one
``Packing.sum_products``, one accumulator per packed product of c_p's
denominator and that of a part of y; its table lists S_r, the
arrangements of 1^r, so it needs r <= RANK_BOUND.  A row of M_lambda below
walks from one term, so 3^l(beta) bounds it.
Nothing is cached per pair of basis elements.

T^alpha denotes T_(alpha^-1); the double-coset projection of a diagonal
element sum c_alpha T^alpha (x) T_alpha is p = sum c_alpha T_(alpha^-1) T_alpha.

The matrices whose kernels the conjecture verdict compares are built here,
one composition lambda of r at a time, in the permutation module x H_r,
x = sum over u in S_lambda of q^l(u) T_u, S_lambda the Young subgroup of
lambda.  Its basis x T_e, e minimal in its coset S_lambda e, is named by
the arrangements B of lambda, e_B = standardize(B)^-1 of length the number
of inversions of B.  T_si on the right swaps the positions i and i+1 of B:
where the letters differ, e_B s_i is e of the swapped word, a descent where
they fall; where they are equal, e_B s_i = s e_B for an s in S_lambda, and
x T_s = q x.  Row A walks x T_(beta^-1) T_beta = sum_B c_A(B) x T_(e_B) from
A itself, beta = standardize(A); with d(p) minimal in S_lambda p S_lambda,

    M_lambda[A, d] = sum over B with d(e_B) = d of q^(l(e_B) - l(d)) c_A(B),

and sorting the letters of B inside each block of lambda_1, lambda_2, ...
positions gives the arrangement of d(e_B).  At lambda = 1^r, d(p) = p and
M_lambda is the r! x r! matrix P = ``projection_matrix(r)`` of p.

The left kernel of M_lambda, over the arrangements of lambda, is the
kernel of the FRT diagonal expansion at lambda.  Proof sketch: under the
Schur functor the diagonal monomial x^A_A goes to y_A = x T_(beta^-1) T_beta x
in xH_rx.  Write p = u d v with u, v in S_lambda and the lengths adding;
then x T_p x = q^(l(p) - l(d)) x T_d x.  Each x T_d x is a nonzero multiple
pi_d of the Dipper-James basis element of xH_rx supported on
S_lambda d S_lambda, so y_A has coordinate pi_d M_lambda[A, d] there, and
scaling a column by a nonzero constant leaves the left kernel unchanged.
A weight with zero parts has the kernel of its composition: an FRT block
involves only its own letters, and rhat depends only on their order.

The module also houses the minimal idempotents of H_2 and H_3.  The mixed pair
e21+/e21- is entered coefficient by coefficient; the full symmetrizer and
antisymmetrizer are built as q-weighted sums over S_r whose normalization is
solved from e^2 = e (the solved constants are exposed for reports).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import SizeMismatch
from .linalg import SubspaceBasis, QMatrix, kernel
from .permutations import (
    _arrangements, _check_rank, all_perms, apply_gen, descends, identity,
    inverse, length, perm_of_word, perm_str, reduced_word, sign, standardize,
)
from .scalars import (ONE, ZERO, Packing, QScalar, add_term, bar, extent,
                      omega, q_int, q_power, qs)

__all__ = [
    "HeckeElt", "t", "project_p",
    "idempotents_r2", "idempotents_r3", "r3_normalizers",
    "theta", "weight_kernel", "diag_kernel_of_p", "projection_matrix",
    "formal_product",
]


class HeckeElt:
    """Finite Q(q)-linear combination of basis symbols T_sigma, sigma in S_r."""

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms=None):
        self.r = r
        self.terms = {}
        if terms:
            for p, c in terms.items():
                if c:
                    self.terms[p] = c

    @staticmethod
    def one(r: int) -> "HeckeElt":
        return HeckeElt(r, {identity(r): ONE})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, HeckeElt) and self.r == other.r
                and self.terms == other.terms)

    def __add__(self, other):
        self._check(other)
        data = dict(self.terms)
        for p, c in other.terms.items():
            add_term(data, p, c)
        return HeckeElt(self.r, data)

    def __neg__(self):
        return HeckeElt(self.r, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: QScalar) -> "HeckeElt":
        if not c:
            return HeckeElt(self.r)
        return HeckeElt(self.r, {p: c * cc for p, cc in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, QScalar):
            return self.scale(other)
        self._check(other)
        return HeckeElt(self.r, _product(self.terms, other.terms, self.r))

    def coeff(self, p) -> QScalar:
        return self.terms.get(p, ZERO)

    def _check(self, other):
        if self.r != other.r:
            raise SizeMismatch(f"H_{self.r} vs H_{other.r}")

    def bar_involution(self) -> "HeckeElt":
        """T_sigma -> (-1)^sigma T_sigma together with q -> q^-1."""
        return HeckeElt(self.r, {p: bar(c) * qs(sign(p))
                                 for p, c in self.terms.items()})

    def to_json(self):
        return {perm_str(p): str(c) for p, c in sorted(self.terms.items())}

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for p in sorted(self.terms):
            c = self.terms[p]
            cs = str(c)
            if cs == "1":
                parts.append(f"T[{perm_str(p)}]")
            else:
                if ("+" in cs[1:] or "-" in cs[1:] or "/" in cs) and not (
                        cs.startswith("(") and cs.endswith(")")):
                    cs = f"({cs})"
                parts.append(f"{cs}*T[{perm_str(p)}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"HeckeElt({self})"


@lru_cache(maxsize=None)
def _arrangement_steps(lam: tuple) -> tuple:
    """(the arrangements of lambda, lex; their index; table): ``table[i]``
    pairs the index after swapping positions i and i+1 with the step kind,
    0 where the letters rise, 1 where they fall and 2 where they are equal.
    At 1^r it is S_r, and the swap is s_i p, a step of the H_r product."""
    words = _arrangements(lam)
    index = {w: j for j, w in enumerate(words)}
    table = [None]
    for i in range(1, sum(lam)):
        pairs = [(w[i - 1], w[i]) for w in words]
        table.append(([index[w[:i - 1] + (b, a) + w[i + 1:]]
                       for w, (a, b) in zip(words, pairs)],
                      [0 if a < b else 1 if a > b else 2 for a, b in pairs]))
    return words, index, table


def _walk(state: dict, word, table: list, k: int) -> dict:
    """q^len(word) s T_word in x_lambda H_r, for a packed element
    s = {index: int} at q = 2^k over the arrangements of lambda, one
    generator of word at a time in the order given.  At 1^r, reading the
    arrangement p as T_p (iota of T_(p^-1)), it is q^len(word) T_w s, w the
    word reversed: the product from the left.

    A step by T_si swaps the positions i and i+1 of p and carries a factor
    q, so the target gets v << k.  Where the letters fall (kind 1), the
    quadratic relation adds (q - q^-1) p: p keeps (v << 2k) - v.  Where
    they are equal (kind 2), x T_s = q x: p keeps (v << 2k) - (v << k)
    more.  No exponent goes below the packing's, and a step at most triples
    the L1 norm of s (the sum of its coefficients' absolute values)."""
    k2 = k + k
    for i in word:
        targets, kinds = table[i]
        out: dict = {}
        get = out.get
        for j, v in state.items():
            t = targets[j]
            out[t] = get(t, 0) + (v << k)
            if kind := kinds[j]:
                out[j] = get(j, 0) + (v << k2) - (v << k * (kind - 1))
        state = out
    return state


def _product(x: dict, y: dict, r: int) -> dict:
    """The product of two term dicts of H_r, as packed generator walks.

    It is sum_p c_p T_p y: y walks from the left (``_walk`` over the
    arrangements of 1^r) along the reduced word of each p of x, reversed.
    Zero terms on either side are skipped.  y is packed once over its
    lowest exponent and split by denominator (``Packing.parts``); each walk
    gives q^l(p) T_p s for a part s, whose L1 norm is at most 3^l(p) |s|_1,
    and c_p is shifted to one base for all of x, the least lowest
    exponent of c_p less l(p).  So
    |y|_1 sum_p 3^l(p) |c_p|_1 bounds every coefficient of the sum, with
    each L1 norm the larger of numerator's and denominator's, which also
    bounds the product of two denominators, and the packing is made for
    it.  One ``Packing.sum_products`` reads the whole product back.  The
    table lists S_r, so r <= RANK_BOUND.
    """
    _check_rank(r)
    perms, index, table = _arrangement_steps((1,) * r)
    y = {index[p]: c for p, c in y.items() if c}
    coeffs = [(reduced_word(p)[::-1], c, *extent(c))
              for p, c in x.items() if c]
    if not y or not coeffs:
        return {}
    lows, tops = zip(*map(extent, y.values()))
    packing = Packing(sum(tops) * sum(3 ** len(w) * top
                                      for w, _, _, top in coeffs))
    k = packing.k
    low = min(lows)
    base = min(c_low - len(w) for w, _, c_low, _ in coeffs)
    parts = packing.parts(y, low).items()
    numerator, denominator = packing.numerator, packing.denominator
    out = packing.sum_products(
        ((numerator(c, c_low) << (k * (c_low - len(w) - base)),
          denominator(c) * e, _walk(part, w, table, k))
         for w, c, c_low, _ in coeffs for e, part in parts), low + base)
    return {perms[j]: c for j, c in out.items()}


def t(p) -> HeckeElt:
    """Basis element T_p."""
    return HeckeElt(len(p), {tuple(p): ONE})


def t_word(r: int, word) -> HeckeElt:
    """T of a reduced generator word, e.g. t_word(3, (1, 2)) = T_s1s2."""
    return t(perm_of_word(r, word))


def project_p(r: int, coeffs: dict) -> HeckeElt:
    """p(sum c_alpha T~^alpha_alpha) = sum c_alpha T_(alpha^-1) T_alpha,
    one product per term; T_(alpha^-1) T_alpha is row alpha of
    ``projection_matrix(r)``, which is not built here.
    """
    out: dict = {}
    for alpha, c in coeffs.items():
        for p, v in _product({inverse(alpha): ONE}, {alpha: c}, r).items():
            add_term(out, p, v)
    return HeckeElt(r, out)


# -- idempotents -------------------------------------------------------------


@lru_cache(maxsize=None)
def idempotents_r2():
    """(e2, e11): the rank-2 symmetrizer (q^-1 + T)/[2] and antisymmetrizer."""
    inv2 = q_int(2).inv()
    ts = t(apply_gen(identity(2), 1))
    e2 = (HeckeElt.one(2).scale(q_power(-1)) + ts).scale(inv2)
    e11 = (HeckeElt.one(2).scale(q_power(1)) - ts).scale(inv2)
    return e2, e11


def _mixed_idempotent(sg: int) -> HeckeElt:
    """e21 with theta-eigenvalue sg = +1 or -1, entered termwise."""
    w = omega()
    inv3 = q_int(3).inv()
    half = qs(1) / qs(2)
    s = qs(sg)
    coeffs = {
        (1, 2, 3): ONE,
        (2, 3, 1): -half - s * half * w,
        (3, 1, 2): -half - s * half * w,
        (2, 1, 3): -s * half + half * w,
        (1, 3, 2): -s * half + half * w,
        (3, 2, 1): s,
    }
    return HeckeElt(3, coeffs).scale(inv3)


def _q_symmetrizer(r: int, anti: bool) -> tuple:
    """Unnormalized (anti)symmetrizer and its solved normalizer c, x^2 = c x."""
    terms = {}
    for p in all_perms(r):
        k = length(p)
        terms[p] = q_power(-k) * qs((-1) ** k) if anti else q_power(k)
    x = HeckeElt(r, terms)
    sq = x * x
    c = None
    for p, v in sq.terms.items():
        ratio = v / x.terms[p]
        if c is None:
            c = ratio
        elif c != ratio:
            raise ArithmeticError("symmetrizer square is not proportional")
    return x, c


def r3_normalizers():
    """Solved normalization constants (c3, c111) with e = x / c.

    x is 1 at the identity, so c is the inverse of e's coefficient there.
    """
    e3, _, _, e111 = idempotents_r3()
    return tuple(e.coeff(identity(3)).inv() for e in (e3, e111))


@lru_cache(maxsize=None)
def idempotents_r3():
    """(e3, e21_plus, e21_minus, e111): a partition of unity in H_3."""
    x3, c3 = _q_symmetrizer(3, anti=False)
    x111, c111 = _q_symmetrizer(3, anti=True)
    return (x3.scale(c3.inv()), _mixed_idempotent(+1),
            _mixed_idempotent(-1), x111.scale(c111.inv()))


def theta() -> HeckeElt:
    """The eigenvalue element T_s1 T_s2 T_s1 in H_3."""
    return t_word(3, (1, 2, 1))


# -- the projection as a linear map ------------------------------------------


def projection_matrix(r: int) -> QMatrix:
    """Matrix of p on the diagonal space: row alpha, column sigma, lex order."""
    return _unpacked(_composition_matrix((1,) * r))


def _fold(word, lam: tuple) -> tuple:
    """(d, l(word) - l(d)), d the minimal element of the double coset of
    e = standardize(word)^-1 for an arrangement of lambda (the module doc):
    the letters sorted inside each block of positions are d's arrangement."""
    letters = iter(word)
    low = [v for size in lam
           for v in sorted(next(letters) for _ in range(size))]
    return inverse(standardize(low)), length(word) - length(low)


def _composition_matrix(lam: tuple, top: int = 1) -> tuple:
    """(packing, n, ncols, rows): M_lambda as the walk leaves it, columns d
    in lex order, for a composition with no zero part.

    rows[A] = {column: q^n M_lambda[A, d] at q = 2^k}, n the longest
    l(beta): row A walks x T_(beta^-1) T_beta from the arrangement A along
    the reduced word of beta (``_arrangement_steps``), and ``_fold`` only
    shifts and sums its terms, so its L1 norm stays at most 3^n.  2^(k-1)
    is above top 3^n: every entry reads back exactly, and so does every
    combination of the rows by a row of integer polynomials of L1 norm at
    most top (G_lambda in ``pplactic``).
    """
    if 0 in lam:
        raise ValueError(f"composition {lam} has a zero part")
    _check_rank(sum(lam))
    words, _, table = _arrangement_steps(lam)
    betas = [reduced_word(standardize(a)) for a in words]
    n = max(map(len, betas))
    packing = Packing(top * 3 ** n)
    k = packing.k
    folds = [_fold(w, lam) for w in words]
    rows = []
    for j, beta in enumerate(betas):
        folded: dict = {}
        # from q^(n - l(beta)) x T_(beta^-1): the walk's q^l(beta) makes q^n
        start = {j: 1 << k * (n - len(beta))}
        for b, v in _walk(start, beta, table, k).items():
            if v:
                d, shift = folds[b]
                folded[d] = folded.get(d, 0) + (v << (k * shift))
        rows.append(folded)
    col = {d: j for j, d in enumerate(sorted(set().union(*rows)))}
    return packing, n, len(col), [{col[d]: v for d, v in row.items() if v}
                                  for row in rows]


def _unpacked(packed: tuple) -> QMatrix:
    """The QMatrix of packed rows (packing, n, ncols, rows), read at q^-n."""
    packing, n, ncols, rows = packed
    return QMatrix(ncols, (packing.scalars(row, -n) for row in rows))


@lru_cache(maxsize=None)
def weight_kernel(lam: tuple) -> SubspaceBasis:
    """Left kernel of M_lambda, from Hecke data alone, once per composition.

    A kernel vector c (coordinates = the arrangements of lambda, lex)
    encodes the relation sum c_A x^A_A = 0 of the quantum diagonal algebra;
    read over the arrangements of any weight of composition lambda, in the
    same order, it is a relation at that weight.
    """
    return kernel(_unpacked(_composition_matrix(lam)).transpose())


def diag_kernel_of_p(r: int) -> SubspaceBasis:
    """Exact kernel of p on the r!-dimensional diagonal space, over S_r lex.

    A kernel vector c means sum c_alpha T~^alpha_alpha projects to zero.
    """
    return weight_kernel((1,) * r)


# -- word-level products ------------------------------------------------------


def formal_product(r: int, word_a, word_b) -> dict:
    """Hecke product keyed by the reduced generator words actually produced.

    Basis symbols are kept as formal reduced words (tuples of generator
    indices), so two reduced words of the same permutation are *not*
    identified; this exhibits intermediate values before the braid relation
    is applied.  Length-reducing steps use the Hecke move: when the current
    word ends with the letter being multiplied, the doubled crossing is
    resolved in place; otherwise the word is first rewritten to the canonical
    reduced word ending in that letter.
    """
    w = omega()
    out = {tuple(word_a): ONE}
    for i in word_b:
        nxt: dict = {}
        for word, c in out.items():
            p = perm_of_word(r, word)
            if not descends(p, i):
                add_term(nxt, word + (i,), c)
            else:
                shorter = word[:-1] if word and word[-1] == i \
                    else reduced_word(apply_gen(p, i))
                add_term(nxt, shorter, c)
                add_term(nxt, shorter + (i,), c * w)
        out = nxt
    return out
