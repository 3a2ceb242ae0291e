"""The Hecke algebra H_r(q) in the natural basis T_sigma.

Each generator satisfies the quadratic relation T_si^2 = 1 + (q - q^-1) T_si,
so right multiplication by a generator is

    T_sigma . T_si = T_(sigma.si)                      if the length goes up,
    T_sigma . T_si = T_(sigma.si) + (q - q^-1) T_sigma otherwise,

and the basis product T_p T_rho walks the reduced word of rho.  Its terms
are the structure constants of H_r, Laurent polynomials in q, held in one
cache per (p, rho) that every product here reads; a general product is one
``scalars.PackedRows.combine`` whose rows are the structure constants of
its pairs (p, rho), each with the coefficient pair (c_p, d_rho).

T^alpha denotes T_(alpha^-1); the double-coset projection of a diagonal
element sum c_alpha T^alpha (x) T_alpha is p = sum c_alpha T_(alpha^-1) T_alpha.

The matrices whose kernels the conjecture verdict compares are built here,
one composition lambda of r at a time.  S_lambda is the Young subgroup of
lambda; its blocks are the letter blocks of ``standardize`` and serve both as
value blocks (right action) and as position blocks (left action).  For p in
S_r let d(p) be the minimal element of S_lambda p S_lambda, and for the
diagonal words A of weight lambda with beta_A = standardize(A) and
T_(beta_A^-1) T_(beta_A) = sum over p of c_A(p) T_p put

    M_lambda[A, d] = sum over p with d(p) = d of q^(l(p) - l(d)) c_A(p),

walking only these N_lambda products.  At lambda = 1^r, d(p) = p and
M_lambda is the r! x r! matrix P = ``projection_matrix(r)`` of p.

The left kernel of M_lambda, over the arrangements of lambda, is the
kernel of the FRT diagonal expansion at lambda.  Proof sketch: under the
Schur functor the diagonal monomial x^A_A goes to y_A = x T_(beta^-1) T_beta x
in xH_rx, where x = sum over u in S_lambda of q^l(u) T_u.  Write p = u d v with
u, v in S_lambda and the lengths adding; then x T_p x = q^(l(p) - l(d)) x T_d x.
Each x T_d x is a nonzero multiple pi_d of the Dipper-James basis element of
xH_rx supported on S_lambda d S_lambda, so y_A has coordinate
pi_d M_lambda[A, d] there, and scaling a column by a nonzero constant leaves
the left kernel unchanged.  d(p) is read off the contingency table N[a][b],
the number of positions in block a whose value lies in block b: for a in
order and b in order, the next N[a][b] positions take the next N[a][b]
unused values of block b.  A weight with zero parts has the kernel of its
composition: an FRT block involves only its own letters, and rhat depends
only on their order.

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
from .scalars import (ONE, ZERO, PackedRows, QScalar, add_term, bar, omega,
                      q_int, q_power, qs)

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
        rows, coeffs = {}, {}
        for p, c in self.terms.items():
            for rho, d in other.terms.items():
                rows[p, rho] = _structure_constants(p, rho)
                coeffs[p, rho] = (c, d)
        return HeckeElt(self.r, PackedRows(rows).combine(coeffs, {}))

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


def _mul_gen(terms: dict, i: int, w: QScalar) -> dict:
    """p -> p.si, plus w p where p descends at i: T_si on the right at omega."""
    out: dict = {}
    for p, c in terms.items():
        add_term(out, apply_gen(p, i), c)
        if descends(p, i):
            add_term(out, p, c * w)
    return out


# every pair of S_5 fits; at r = 6 the bound keeps the cache finite
@lru_cache(maxsize=1 << 14)
def _structure_constants(p, rho) -> dict:
    """T_p T_rho as a term dict, walking the reduced word of rho."""
    w = omega()
    terms = {p: ONE}
    for i in reduced_word(rho):
        terms = _mul_gen(terms, i, w)
    return terms


def t(p) -> HeckeElt:
    """Basis element T_p."""
    return HeckeElt(len(p), {tuple(p): ONE})


def t_word(r: int, word) -> HeckeElt:
    """T of a reduced generator word, e.g. t_word(3, (1, 2)) = T_s1s2."""
    return t(perm_of_word(r, word))


def project_p(r: int, coeffs: dict) -> HeckeElt:
    """p(sum c_alpha T~^alpha_alpha) = sum c_alpha T_(alpha^-1) T_alpha.

    The images are the rows of ``projection_matrix(r)``.
    """
    perms = all_perms(r)
    rows = projection_matrix(r).rows
    out: dict = {}
    for p, c in coeffs.items():
        for j, v in rows[perms.index(p)].items():
            add_term(out, perms[j], c * v)
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
    return _composition_matrix((1,) * r)


def _minimal_coset_rep(p, blocks: list, starts: list):
    """The minimal element d(p) of S_lambda p S_lambda (see the module doc)."""
    table = [[0] * len(starts) for _ in starts]
    for pos, v in enumerate(p):
        table[blocks[pos]][blocks[v - 1]] += 1
    nxt = list(starts)
    d = []
    for counts in table:
        for b, k in enumerate(counts):
            d.extend(range(nxt[b], nxt[b] + k))
            nxt[b] += k
    return tuple(d)


def _composition_matrix(lam: tuple) -> QMatrix:
    """M_lambda, columns d in lex order, for a composition with no zero part."""
    if 0 in lam:
        raise ValueError(f"composition {lam} has a zero part")
    _check_rank(sum(lam))
    blocks = [b for b, k in enumerate(lam) for _ in range(k)]
    starts = [1 + sum(lam[:b]) for b in range(len(lam))]
    reps: dict = {}
    rows = []
    for a in _arrangements(lam):
        beta = standardize(a)
        row: dict = {}
        for p, c in _structure_constants(inverse(beta), beta).items():
            rep = reps.get(p)
            if rep is None:
                d = _minimal_coset_rep(p, blocks, starts)
                shift = q_power(length(p) - length(d)) if d != p else None
                rep = reps[p] = (d, shift)
            d, shift = rep
            add_term(row, d, c * shift if shift else c)
        rows.append(row)
    col = {d: j for j, d in enumerate(sorted({d for d, _ in reps.values()}))}
    return QMatrix(len(col), ({col[d]: c for d, c in row.items()}
                              for row in rows))


@lru_cache(maxsize=None)
def weight_kernel(lam: tuple) -> SubspaceBasis:
    """Left kernel of M_lambda, from Hecke data alone, once per composition.

    A kernel vector c (coordinates = the arrangements of lambda, lex)
    encodes the relation sum c_A x^A_A = 0 of the quantum diagonal algebra;
    read over the arrangements of any weight of composition lambda, in the
    same order, it is a relation at that weight.
    """
    return kernel(_composition_matrix(lam).transpose())


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
