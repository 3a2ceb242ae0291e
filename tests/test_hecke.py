"""Hecke algebra arithmetic, idempotents, the double-coset projection."""

import itertools
import random

import pytest

from qdiag import hecke, pplactic
from qdiag.checks import run_check
from qdiag.errors import BoundExceeded, SizeMismatch
from qdiag.hecke import (HeckeElt, diag_kernel_of_p, formal_product,
                         idempotents_r2, idempotents_r3, project_p,
                         projection_matrix, r3_normalizers, t, theta,
                         weight_kernel)
from qdiag.linalg import QMatrix
from qdiag.permutations import (_arrangements, _weights, all_perms, apply_gen,
                                descends, inverse, length, perm_of_word,
                                reduced_word, s, standardize)
from qdiag.pplactic import verify_conjecture
from qdiag.qma import diag_relation_kernel
from qdiag.scalars import (ONE, Q, Packing, QScalar, ZERO, add_term, omega,
                           q_int, q_power, qs)


def rand_elt(rng, r):
    terms = {}
    for p in rng.sample(all_perms(r), k=3):
        terms[p] = qs(rng.randint(-3, 3)) * q_power(rng.randint(-1, 1))
    return HeckeElt(r, terms)


def test_quadratic_relation():
    for r in (2, 3, 4):
        for i in range(1, r):
            g = t(s(r, i))
            assert g * g == HeckeElt.one(r) + g.scale(omega())


def test_braid_relation():
    for r in (3, 4):
        for i in range(1, r - 1):
            a = t(s(r, i)) * t(s(r, i + 1)) * t(s(r, i))
            b = t(s(r, i + 1)) * t(s(r, i)) * t(s(r, i + 1))
            assert a == b


def test_longest_element_square_pattern():
    w = omega()
    prod = t((3, 2, 1)) * t((3, 2, 1))
    assert prod.terms == {
        (1, 2, 3): ONE, (1, 3, 2): w, (2, 1, 3): w,
        (2, 3, 1): w * w, (3, 1, 2): w * w, (3, 2, 1): w ** 3 + w}


def test_identity_neutral():
    rng = random.Random(23)
    for r in (3, 4):
        one = HeckeElt.one(r)
        for _ in range(10):
            x = rand_elt(rng, r)
            assert one * x == x and x * one == x


def test_associativity_random():
    rng = random.Random(29)
    for r in (3, 4):
        for _ in range(50):
            x, y, z = (rand_elt(rng, r) for _ in range(3))
            assert (x * y) * z == x * (y * z)


def mul_gen(terms, i, w):
    """p -> p.si, plus w p where p descends at i: T_si on the right at
    omega = w, on a term dict, by Q(q) steps over permutation tuples."""
    out: dict = {}
    for p, c in terms.items():
        add_term(out, apply_gen(p, i), c)
        if descends(p, i):
            add_term(out, p, c * w)
    return out


def walk_product(x, y):
    """x * y by the generator walk: x T_rho along the reduced word of rho."""
    w = omega()
    out: dict = {}
    for rho, c in y.terms.items():
        terms = x.terms
        for i in reduced_word(rho):
            terms = mul_gen(terms, i, w)
        for p, cc in terms.items():
            add_term(out, p, c * cc)
    return HeckeElt(x.r, out)


def rand_rational_elt(rng, r, k):
    dens = [ONE, q_int(2), q_int(3), Q + qs(2), qs(3)]
    terms = {}
    for p in rng.sample(all_perms(r), k=k):
        c = (qs(rng.randint(-3, 3)) * q_power(rng.randint(-1, 1))
             + qs(rng.randint(-2, 2)) * q_power(rng.randint(-2, 2)))
        terms[p] = c / rng.choice(dens)
    return HeckeElt(r, terms)


def test_product_matches_generator_walk():
    rng = random.Random(37)
    by_rank = {3: list(idempotents_r3()), 4: [], 5: []}
    for r, k, count in ((3, 4, 6), (4, 5, 5), (5, 4, 3)):
        for _ in range(count):
            by_rank[r] += [rand_elt(rng, r), rand_rational_elt(rng, r, k)]
    for xs in by_rank.values():
        for x in xs:
            for y in rng.sample(xs, k=4):
                assert x * y == walk_product(x, y)


def test_product_reads_back_in_one_sum(monkeypatch):
    # both factors carry several denominators, and the whole product is
    # one packed sum of products
    rng = random.Random(49)
    x, y = rand_rational_elt(rng, 4, 6), rand_rational_elt(rng, 4, 5)
    for side in (x, y):
        assert len({str(c.den) for c in side.terms.values()}) > 2
    want = walk_product(x, y)
    calls = []
    sum_products = Packing.sum_products

    def counted(self, products, low):
        calls.append(low)
        return sum_products(self, products, low)

    monkeypatch.setattr(Packing, "sum_products", counted)
    assert x * y == want
    assert len(calls) == 1


def test_product_skips_zero_coefficients():
    one, s1 = (1, 2, 3), (2, 1, 3)
    assert project_p(3, {one: ZERO, s1: ONE}) == project_p(3, {s1: ONE})
    y = {s1: q_int(2), (2, 3, 1): ONE / q_int(3)}
    assert hecke._product({one: ZERO, s1: Q}, y, 3) == \
        hecke._product({s1: Q}, y, 3)
    assert hecke._product({s1: Q}, {one: ZERO, **y}, 3) == \
        hecke._product({s1: Q}, y, 3)
    assert hecke._product({one: ZERO}, y, 3) == {}


def test_products_call_no_inverse(monkeypatch):
    # every product walks its right factor: no term dict is mapped through
    # T_w -> T_(w^-1), whichever side has more terms
    rng = random.Random(43)
    pairs = []
    for r in (3, 4, 5):
        for kx, ky in ((1, 4), (3, 3), (6, 2)):
            y = rand_rational_elt(rng, r, ky)
            pairs += [(rand_rational_elt(rng, r, kx), y),
                      (rand_elt(rng, r), y)]
    want = [walk_product(x, y) for x, y in pairs]

    def refuse(p):
        raise AssertionError("a product called inverse")

    monkeypatch.setattr(hecke, "inverse", refuse)
    sides = set()
    for (x, y), xy in zip(pairs, want):
        assert x * y == xy
        sides.add((len(x.terms) > len(y.terms))
                  - (len(x.terms) < len(y.terms)))
    assert sides == {-1, 0, 1}


def iota(x):
    """T_w -> T_(w^-1) on an element."""
    return HeckeElt(x.r, {inverse(p): c for p, c in x.terms.items()})


def test_inversion_is_an_anti_automorphism():
    rng = random.Random(41)
    by_rank = {3: list(idempotents_r3())}
    for r in range(1, 6):
        xs = by_rank.setdefault(r, [])
        n = len(all_perms(r))
        for k in sorted({1, min(2, n), min(5, n)}):
            xs += [rand_rational_elt(rng, r, k) for _ in range(2)]
        if r >= 3:
            xs.append(rand_elt(rng, r))
    sides = set()
    for xs in by_rank.values():
        for x in xs:
            assert iota(iota(x)) == x
            for y in xs:
                assert iota(x * y) == iota(y) * iota(x)
                sides.add((len(x.terms) > len(y.terms))
                          - (len(x.terms) < len(y.terms)))
    assert sides == {-1, 0, 1}


def structure_constants(p, rho):
    """T_p T_rho by Q(q) steps: ``mul_gen`` along the reduced word of rho."""
    w = omega()
    terms = {p: ONE}
    for i in reduced_word(rho):
        terms = mul_gen(terms, i, w)
    return terms


def test_product_matches_structure_constant_sum(monkeypatch):
    # the oracle: one add_term of c * d * s per structure constant s of
    # T_p T_rho, each built by Q(q) generator steps, for every pair of
    # terms c T_p of x and d T_rho of y
    rng = random.Random(53)
    e2, e11 = idempotents_r2()
    huge = QScalar({-30: 1 << 70, 25: -(1 << 71) + 3, 0: 5})
    by_rank = {1: [HeckeElt.one(1).scale(q_int(2)),
                   HeckeElt(1, {(1,): huge / (Q + qs(2))})],
               2: [e2, e11, e2 - e11], 3: list(idempotents_r3()), 4: [], 5: []}
    by_rank[3] += [rand_elt(rng, 3), rand_rational_elt(rng, 3, 5),
                   rand_rational_elt(rng, 3, 1)]
    for _ in range(3):
        by_rank[4] += [rand_elt(rng, 4), rand_rational_elt(rng, 4, 6),
                       rand_rational_elt(rng, 4, 2)]
    by_rank[4].append(HeckeElt(4, {(2, 1, 4, 3): huge,
                                   (4, 3, 2, 1): ONE / q_int(3)}))
    for k in (1, 3, 9):
        by_rank[5].append(rand_rational_elt(rng, 5, k))
    by_rank[5].append(HeckeElt(5, {(5, 4, 3, 2, 1): huge * omega()}))
    sides, widths = set(), []
    packing = hecke.Packing

    def spied(bound):
        made = packing(bound)
        widths.append(made.k)
        return made

    monkeypatch.setattr(hecke, "Packing", spied)
    for r, xs in by_rank.items():
        xs.append(HeckeElt(r))
        for x in xs:
            for y in xs:
                want: dict = {}
                for p, c in x.terms.items():
                    for rho, d in y.terms.items():
                        for sigma, s in structure_constants(p, rho).items():
                            add_term(want, sigma, c * d * s)
                assert (x * y).terms == want
                if x and y:
                    sides.add((len(x.terms) < len(y.terms),
                               len(y.terms) < len(x.terms)))
    # x with fewer, more and as many terms as y
    assert sides == {(True, False), (False, True), (False, False)}
    # the idempotents carry the denominators [2], [3] and c3, and products
    # of orthogonal ones cancel in every coefficient
    e3, ep, em, e111 = idempotents_r3()
    assert not e3 * ep and not ep * em and not em * e111
    assert e3 * e3 == e3 and ep * ep == ep
    # a coefficient past 2^70 needs a packing wider than 64 bits
    assert max(widths) > 64


def test_reduced_word_independence():
    # assembling T_sigma from any split of any reduced word agrees
    for p in all_perms(4):
        word = reduced_word(p)
        for cut in range(len(word) + 1):
            a = t(perm_of_word(4, word[:cut]))
            b = t(perm_of_word(4, word[cut:]))
            assert a * b == t(p)


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        HeckeElt.one(3) * HeckeElt.one(4)


def test_upper_basis_coset_table():
    # the upper-index basis T^p is T_(p^-1)
    assert t(inverse((1, 3, 2))) == t(perm_of_word(3, (2,)))
    assert t(inverse((2, 1, 3))) == t(perm_of_word(3, (1,)))
    assert t(inverse((3, 1, 2))) == t(perm_of_word(3, (2, 1)))
    assert t(inverse((2, 3, 1))) == t(perm_of_word(3, (1, 2)))
    assert t(inverse((1, 2, 3))) == HeckeElt.one(3)


def test_projection_examples():
    assert project_p(3, {(1, 2, 3): ONE}) == HeckeElt.one(3)
    assert project_p(3, {(2, 1, 3): ONE}) == \
        HeckeElt.one(3) + t(s(3, 1)).scale(omega())
    gen = {(1, 3, 2): ONE, (3, 1, 2): -ONE, (2, 1, 3): -ONE, (2, 3, 1): ONE}
    assert not project_p(3, gen)
    # the products T_(alpha^-1) T_alpha against the rows of projection_matrix,
    # which walk x_(1^4) H_4
    perms = all_perms(4)
    coeffs = {p: qs(k + 1) * q_power(k % 3 - 1) for k, p in enumerate(perms)}
    rows: dict = {}
    for alpha, row in zip(perms, projection_matrix(4).rows):
        for j, v in row.items():
            add_term(rows, perms[j], coeffs[alpha] * v)
    assert project_p(4, coeffs) == HeckeElt(4, rows)


def test_project_p_builds_no_projection_matrix(monkeypatch):
    perms = all_perms(6)
    w0 = perms[-1]
    row = projection_matrix(6).rows[-1]

    def refuse(*args):
        raise AssertionError("project_p built P")

    monkeypatch.setattr(hecke, "_composition_matrix", refuse)
    assert project_p(6, {w0: ONE}) == \
        HeckeElt(6, {perms[j]: c for j, c in row.items()})


def test_rank2_idempotents():
    e2, e11 = idempotents_r2()
    one = HeckeElt.one(2)
    assert e2 * e2 == e2 and e11 * e11 == e11
    assert not (e2 * e11) and not (e11 * e2)
    assert e2 + e11 == one
    ts = t(s(2, 1))
    assert not ((one.scale(q_power(-1)) + ts) * (one.scale(q_power(1)) - ts))
    assert not ((one.scale(q_power(1)) - ts) * (one.scale(q_power(-1)) + ts))


def test_rank3_idempotent_suite():
    e3, ep, em, e111 = idempotents_r3()
    idems = [e3, ep, em, e111]
    for e in idems:
        assert e * e == e
    for i, a in enumerate(idems):
        for j, b in enumerate(idems):
            if i != j:
                assert not (a * b)
    assert sum(idems[1:], e3) == HeckeElt.one(3)
    th = theta()
    assert th * ep == ep and ep * th == ep
    assert th * em == em.scale(-ONE) and em * th == em.scale(-ONE)
    central = ep + em
    for i in (1, 2):
        g = t(s(3, i))
        assert central * g == g * central
        assert g * e3 == e3.scale(q_power(1))
        assert g * e111 == e111.scale(-q_power(-1))
    assert ep.bar_involution() == em
    assert em.bar_involution() == ep


def test_normalizers_reported():
    c3, c111 = r3_normalizers()
    assert c3 and c111
    # the two constants swap under q -> q^-1
    e3, _, _, e111 = idempotents_r3()
    assert e3.coeff((1, 2, 3)) * c3 == ONE
    assert e111.coeff((1, 2, 3)) * c111 == ONE


def test_idempotents_square_each_symmetrizer_once(monkeypatch):
    # the normalizers are read off the idempotents, not solved again
    calls = []
    real = hecke._q_symmetrizer
    monkeypatch.setattr(hecke, "_q_symmetrizer",
                        lambda r, anti: calls.append(anti) or real(r, anti))
    hecke.idempotents_r3.cache_clear()
    assert run_check("idempotents", {}).status == "PASS"
    assert sorted(calls) == [False, True]


def test_diag_kernel_dimensions():
    assert diag_kernel_of_p(2).dim == 0
    k3 = diag_kernel_of_p(3)
    assert k3.dim == 1
    perms = all_perms(3)
    expect = {perms.index((1, 3, 2)): ONE, perms.index((2, 1, 3)): -ONE,
              perms.index((2, 3, 1)): ONE, perms.index((3, 1, 2)): -ONE}
    from qdiag.linalg import SubspaceBasis
    assert SubspaceBasis.from_vectors([expect], 6) == \
        SubspaceBasis.from_vectors(k3.rows, 6)
    # rank-nullity against the projection matrix
    k4 = diag_kernel_of_p(4)
    m4 = projection_matrix(4)
    from qdiag.linalg import SubspaceBasis as SB
    image_dim = SB.from_vectors(m4.rows, 24).dim
    assert k4.dim == 24 - image_dim


@pytest.mark.parametrize("d, r", [(3, 3), (2, 4), (3, 4), (4, 4), (5, 4),
                                  (3, 5)])
def test_weight_kernel_matches_frt_route(d, r):
    frt = diag_relation_kernel(d, r)
    assert list(frt) == _weights(d, r)
    for wv, ker in frt.items():
        assert weight_kernel(tuple(k for k in wv if k)) == ker, wv


def compositions(r):
    """Every composition of r, each cut set of 1..r-1 once."""
    for cuts in itertools.product((False, True), repeat=r - 1):
        lam, part = [], 1
        for cut in cuts:
            if cut:
                lam.append(part)
                part = 1
            else:
                part += 1
        yield tuple(lam + [part])


def minimal_coset_rep(p, lam):
    """The minimal element d(p) of S_lambda p S_lambda, read off the
    contingency table N[a][b], the number of positions in block a whose
    value lies in block b: for a in order and b in order, the next N[a][b]
    positions take the next N[a][b] unused values of block b."""
    blocks = [b for b, k in enumerate(lam) for _ in range(k)]
    table = [[0] * len(lam) for _ in lam]
    for pos, v in enumerate(p):
        table[blocks[pos]][blocks[v - 1]] += 1
    nxt = [1 + sum(lam[:b]) for b in range(len(lam))]
    d = []
    for counts in table:
        for b, k in enumerate(counts):
            d.extend(range(nxt[b], nxt[b] + k))
            nxt[b] += k
    return tuple(d)


def folded_projection_rows(lam):
    """M_lambda from all r! rows of P, folded over the double cosets."""
    r = sum(lam)
    perms = all_perms(r)
    row_of = {standardize(a): k for k, a in enumerate(_arrangements(lam))}
    rows = [{} for _ in row_of]
    reps = set()
    for i, row in enumerate(projection_matrix(r).rows):
        k = row_of.get(perms[i])
        if k is None:
            continue
        for j, c in row.items():
            p = perms[j]
            d = minimal_coset_rep(p, lam)
            reps.add(d)
            add_term(rows[k], d, c * q_power(length(p) - length(d)))
    col = {d: j for j, d in enumerate(sorted(reps))}
    return QMatrix(len(col), ({col[d]: c for d, c in row.items()}
                              for row in rows))


def test_composition_matrix_matches_folded_projection_rows():
    # at 1^r, d(p) = p and every sigma of S_r occurs as a column
    for r in range(1, 7):
        m = projection_matrix(r)
        assert (m.nrows, m.ncols) == (len(all_perms(r)),) * 2
    for r in range(1, 6):
        for lam in compositions(r):
            assert hecke._unpacked(hecke._composition_matrix(lam)) == \
                folded_projection_rows(lam), lam


def test_fold_matches_the_contingency_table_fold():
    # the arrangement A stands for the right coset S_lambda p with
    # p = inverse(standardize(A)); its fold is the H_r fold of p
    for r in range(1, 7):
        for lam in compositions(r):
            for a in _arrangements(lam):
                p = inverse(standardize(a))
                d = minimal_coset_rep(p, lam)
                assert hecke._fold(a, lam) == (d, length(p) - length(d)), a


def test_arrangement_steps_at_one_are_the_position_swaps():
    # at 1^r the arrangements are S_r and a step is s_i p, the left table
    # of the Hecke product
    for r in range(1, 7):
        perms = all_perms(r)
        index = {p: j for j, p in enumerate(perms)}
        words, found, table = hecke._arrangement_steps((1,) * r)
        assert words == perms and found == index
        assert table == [None] + [
            ([index[p[:i - 1] + (p[i], p[i - 1]) + p[i + 1:]] for p in perms],
             [int(p[i - 1] > p[i]) for p in perms]) for i in range(1, r)]


def test_equal_letter_step_multiplies_by_q():
    # x T_s1 = q x in x_(2) H_2, times the factor q of every step
    words, index, table = hecke._arrangement_steps((2,))
    assert words == [(1, 1)] and index == {(1, 1): 0}
    assert table == [None, ([0], [2])]
    k = 5
    for v in (1, 7, -3):
        assert hecke._walk({0: v}, (1,), table, k) == {0: v << 2 * k}


def test_verdict_builds_no_table_of_s_r():
    # M_lambda is walked over its arrangements, never over S_r: the verdict
    # at lambda adds one step table, and a second lookup of lambda's hits it
    steps = hecke._arrangement_steps
    steps.cache_clear()
    pplactic._composition_verdict.cache_clear()
    for r in range(1, 6):
        for lam in compositions(r):
            if lam == (1,) * r:
                continue
            size = steps.cache_info().currsize
            pplactic._composition_verdict(lam)
            info = steps.cache_info()
            assert info.currsize == size + 1, lam
            steps(lam)
            assert steps.cache_info().misses == info.misses, lam


def test_projection_rows_match_generator_steps():
    # the oracle of M_lambda at 1^r, which the folded rows above read: row
    # alpha of P is T_(alpha^-1) T_alpha, built here by Q(q) steps
    for r in range(1, 6):
        perms = all_perms(r)
        for alpha, row in zip(perms, projection_matrix(r).rows):
            assert {perms[j]: c for j, c in row.items()} == \
                structure_constants(inverse(alpha), alpha), alpha


def test_rank_bound_before_arrangements(monkeypatch):
    def refuse(*args):
        raise AssertionError("arrangements enumerated before the rank bound")

    monkeypatch.setattr(hecke, "_arrangements", refuse)
    with pytest.raises(BoundExceeded, match="^rank 7 exceeds bound 6$"):
        hecke._composition_matrix((3, 4))
    with pytest.raises(BoundExceeded, match="^rank 7 exceeds bound 6$"):
        projection_matrix(7)


@pytest.mark.parametrize("r, walked", [(5, 31), (6, 63)])
def test_conjecture_walks_only_its_rows(r, walked, monkeypatch):
    # each row of M_lambda is one walk, and the compositions (r), (r-1, 1),
    # ..., (1, r-1) have C(r, a) rows each: 1 + 5 + 10 + 10 + 5 = 31 at
    # r = 5 and 63 at r = 6
    walks = []
    real = hecke._walk
    monkeypatch.setattr(hecke, "_walk",
                        lambda *args: walks.append(args) or real(*args))
    hecke.weight_kernel.cache_clear()
    pplactic._composition_verdict.cache_clear()
    assert verify_conjecture(2, r)["verdict"] == "PASS"
    assert len(walks) == walked


def test_zero_parts_strip_on_both_routes():
    # a weight with zero parts has the kernel of its composition over the
    # smaller alphabet, relabelled by the monotone map of the letters
    frt_by_d = {d: diag_relation_kernel(d, 4) for d in (1, 2, 3)}
    for wv, frt in frt_by_d[3].items():
        stripped = tuple(k for k in wv if k)
        if stripped == wv:
            continue
        letters = [v for v, k in enumerate(wv, start=1) if k]
        small = frt_by_d[len(stripped)][stripped]
        assert (frt.rows, frt.pivots) == (small.rows, small.pivots), wv
        assert _arrangements(wv) == [tuple(letters[v - 1] for v in a)
                                     for a in _arrangements(stripped)]
        assert weight_kernel(stripped) == frt == small
    # for example (2, 0, 2) and (2, 2)
    assert frt_by_d[3][(2, 0, 2)].dim == frt_by_d[2][(2, 2)].dim == 3


def test_formal_product_tracks_words():
    w = omega()
    fp = formal_product(3, (2, 1), (1, 2))
    assert fp == {(): ONE, (2,): w, (2, 1, 2): w}
    fp2 = formal_product(3, (1, 2), (2, 1))
    assert fp2 == {(): ONE, (1,): w, (1, 2, 1): w}
    # collapsing formal words onto basis elements recovers the product
    collapsed = {}
    for word, c in fp.items():
        p = perm_of_word(3, word)
        collapsed[p] = collapsed.get(p, ZERO) + c
    assert HeckeElt(3, collapsed) == \
        t(perm_of_word(3, (2, 1))) * t(perm_of_word(3, (1, 2)))


def test_rendering():
    elt = HeckeElt.one(3) + t((3, 1, 2)).scale(omega())
    assert str(elt) == "T[123] + (q - q^-1)*T[312]"
    assert elt.to_json() == {"123": "1", "312": "q - q^-1"}
