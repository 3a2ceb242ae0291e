"""Cubic generators, ideals on both sides, the brute-force restriction."""

import itertools
import re
from fractions import Fraction

import pytest

from qdiag import hecke, linalg, pplactic
from qdiag.checks import run_check
from qdiag.errors import BoundExceeded, MembershipFailure
from qdiag.hecke import project_p, t
from qdiag.permutations import (_arrangements, _weights, all_perms, inverse,
                                s, weight)
from qdiag.linalg import SubspaceBasis
from qdiag.pplactic import (hecke_side_kernel, ideal_component,
                            lemma_brute_check, ppk_generators,
                            preplactic_ideal_component, verify_conjecture)
from qdiag.scalars import (ONE, ZERO, Packing, add_term, omega,
                           parse_scalar, q_int, q_power, qs)
from test_hecke import mul_gen


def hecke_product_action(coeffs, i, r):
    """T_si . (sum c_alpha T~^alpha_alpha) by two Hecke products per term."""
    out = {}
    gen = t(s(r, i))
    for alpha, c in coeffs.items():
        left = gen * t(inverse(alpha))
        right = t(alpha) * gen
        for mu, cl in left.terms.items():
            beta = inverse(mu)
            cr = right.terms.get(beta)
            if cr is not None:
                add_term(out, beta, c * cl * cr)
    return out


def composition(wv):
    """The weight without its zero parts."""
    return tuple(k for k in wv if k)


def scanned_ideal_component(d, r):
    """The ideal component of every weight, over the words of a scan of d^r.

    The scan meets the words of a weight in the order of its arrangements.
    """
    labels = {}
    for w in itertools.product(range(1, d + 1), repeat=r):
        labels.setdefault(weight(w, d), []).append(w)
    assert all(ws == _arrangements(wv) for wv, ws in labels.items())
    index = {wv: {w: i for i, w in enumerate(ws)}
             for wv, ws in labels.items()}
    by_weight = {wv: [] for wv in labels}
    pads = list(itertools.product(range(1, d + 1), repeat=r - 3))
    for gen in ppk_generators(d):
        for pad in pads:
            wv = weight(next(iter(gen.terms)) + pad, d)
            for cut in range(len(pad) + 1):
                u, v = pad[:cut], pad[cut:]
                by_weight[wv].append(
                    {index[wv][u + w + v]: c for w, c in gen.terms.items()})
    return {wv: SubspaceBasis.from_vectors(vecs, len(labels[wv]))
            for wv, vecs in by_weight.items() if vecs}


def test_generator_counts():
    for d in range(1, 7):
        expect = d * (d - 1) * (d - 2) // 6 + d * (d - 1)
        assert len(ppk_generators(d)) == expect
    assert ppk_generators(1) == []


def test_generator_expansions():
    gens = {g.kind: g for g in ppk_generators(2)}
    q2 = q_power(2)
    assert gens["lower-repeat"].terms == {
        (1, 2, 1): ONE + q2, (2, 1, 1): -ONE, (1, 1, 2): -q2}
    assert gens["upper-repeat"].terms == {
        (2, 1, 2): ONE + q2, (2, 2, 1): -ONE, (1, 2, 2): -q2}
    distinct = next(g for g in ppk_generators(3) if g.kind == "distinct")
    assert distinct.terms == {
        (1, 3, 2): ONE, (3, 1, 2): -ONE, (2, 1, 3): -ONE, (2, 3, 1): ONE}


def test_distinct_is_difference_of_knuth_brackets():
    distinct = next(g for g in ppk_generators(3) if g.kind == "distinct")
    first = {(1, 3, 2): ONE, (3, 1, 2): -ONE}    # (acb - cab)
    second = {(2, 1, 3): ONE, (2, 3, 1): -ONE}   # (bac - bca)
    diff = dict(first)
    for w, c in second.items():
        diff[w] = diff.get(w, ZERO) - c
    assert distinct.terms == diff


def test_generators_vanish_at_q1_commutatively():
    # sending each word to its commutative monomial kills every generator
    for g in ppk_generators(3):
        by_monomial = {}
        for word, c in g.terms.items():
            key = tuple(sorted(word))
            by_monomial[key] = by_monomial.get(key, Fraction(0)) \
                + c.evaluate(1)
        assert all(v == 0 for v in by_monomial.values())


def test_degree3_component_is_generator_span():
    comp = {wv: ideal_component(composition(wv)) for wv in _weights(3, 3)}
    assert sum(b.dim for b in comp.values()) == 7
    for g in ppk_generators(3):
        wv = tuple(sum(1 for w in next(iter(g.terms)) if w == i)
                   for i in (1, 2, 3))
        labels = {w: i for i, w in enumerate(_arrangements(wv))}
        vec = {labels[w]: c for w, c in g.terms.items()}
        assert comp[wv].contains(vec)


def test_ideal_component_trivial_cases():
    # one letter, or degree below 3: no generator fits
    for d, r in ((1, 3), (1, 5), (2, 2)):
        for wv in _weights(d, r):
            zero = ideal_component(composition(wv))
            assert zero.dim == 0
            assert zero.ambient == len(_arrangements(wv))


def test_degree4_component_dimension_pinned():
    dims = {wv: ideal_component(composition(wv)).dim
            for wv in _weights(2, 4)}
    # derived once with this engine and frozen
    assert dims == {(4, 0): 0, (3, 1): 2, (2, 2): 3, (1, 3): 2, (0, 4): 0}


def test_preplactic_degree3():
    basis = ideal_component((1, 1, 1))
    assert basis.dim == 1
    perms = all_perms(3)
    row = basis.rows[0]
    coeffs = {perms[i]: c for i, c in row.items()}
    ratio = coeffs[(1, 3, 2)]
    assert coeffs == {(1, 3, 2): ratio, (3, 1, 2): -ratio,
                      (2, 1, 3): -ratio, (2, 3, 1): ratio}
    assert not project_p(3, coeffs)


def test_generator_halves_hit_braid_words():
    # each Knuth half of the standardized generator projects to
    # -omega times the basis element of the longest word
    w = omega()
    top = t((3, 2, 1)).scale(-w)
    first = {(1, 3, 2): ONE, (3, 1, 2): -ONE}
    second = {(2, 1, 3): ONE, (2, 3, 1): -ONE}
    assert project_p(3, first) == top
    assert project_p(3, second) == top


def test_preplactic_degree4_variants():
    ker = hecke_side_kernel(4)
    concat = ideal_component((1,) * 4)
    assert all(ker.contains(row) for row in concat.rows)
    assert concat == ker
    closed = preplactic_ideal_component(4)
    assert closed.dim >= concat.dim
    # the compressed action closure overshoots the kernel
    assert not all(ker.contains(row) for row in closed.rows)


def test_preplactic_degree5_concat_matches_kernel():
    ker = hecke_side_kernel(5)
    concat = ideal_component((1,) * 5)
    assert concat.dim == ker.dim == 59
    assert concat == ker


@pytest.mark.parametrize("r", [4, 5])
def test_distinct_letter_block_alone(r):
    distinct = (1,) * r
    alone = ideal_component(distinct)
    assert _arrangements(distinct) == all_perms(r)
    assert alone == scanned_ideal_component(r, r)[distinct]


@pytest.mark.parametrize("r", [4, 5])
def test_semi_naive_closure_matches_naive(r):
    # naive closure: map every row of the span each round
    perms = all_perms(r)
    index = {p: i for i, p in enumerate(perms)}
    span = ideal_component((1,) * r)
    while True:
        rows = list(span.rows)
        for row in span.rows:
            coeffs = {perms[i]: c for i, c in row.items()}
            for i in range(1, r):
                image = mul_gen(coeffs, i, omega() ** 2)
                rows.append({index[p]: c for p, c in image.items()})
        bigger = SubspaceBasis.from_vectors(rows, len(perms))
        if bigger.dim == span.dim:
            break
        span = bigger
    assert preplactic_ideal_component(r) == bigger
    assert bigger.dim == {4: 14, 5: 94}[r]


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_closed_form_action_matches_hecke_products(r):
    for alpha in all_perms(r):
        for i in range(1, r):
            assert mul_gen({alpha: ONE}, i, omega() ** 2) == \
                hecke_product_action({alpha: ONE}, i, r)


@pytest.mark.parametrize("d, r", [(3, 4), (2, 5)])
def test_weight_labelled_ideal_matches_scan(d, r):
    scanned = scanned_ideal_component(d, r)
    assert set(scanned) <= set(_weights(d, r))
    for wv in _weights(d, r):
        idl = ideal_component(composition(wv))
        if wv in scanned:
            assert idl == scanned[wv]
        else:
            assert idl.dim == 0
            assert idl.ambient == len(_arrangements(wv))


def test_one_ideal_per_composition():
    # one generator list and one verdict per composition; every one is
    # certified, so no ideal RREF runs
    for cached in (pplactic._composition_generators,
                   pplactic._composition_verdict, ideal_component):
        cached.cache_clear()
    verify_conjecture(3, 5)
    assert len(_weights(3, 5)) == 21
    assert pplactic._composition_generators.cache_info().currsize == 11
    assert pplactic._composition_verdict.cache_info().currsize == 11
    assert ideal_component.cache_info().currsize == 0
    # the concatenation ideal and its action closure start from the one
    # distinct-letter component
    ideal_component((1,) * 4)
    preplactic_ideal_component(4)
    assert ideal_component.cache_info().misses == 1


def test_weight_shares_rows_of_its_composition():
    # two weights of one composition read the one object of each side
    wide, narrow = (1, 0, 1, 1), (1, 1, 1)
    assert composition(wide) == composition(narrow)
    for per_composition in (ideal_component, hecke.weight_kernel):
        assert per_composition(composition(wide)) \
            is per_composition(composition(narrow))


def test_zero_part_is_refused_before_anything_is_cached(monkeypatch):
    # a weight with a zero part is not a composition: refused before any
    # arrangement is listed, so no per-composition cache holds a duplicate
    def refuse(*args):
        raise AssertionError("arrangements listed for a zero part")

    monkeypatch.setattr(hecke, "_arrangements", refuse)
    monkeypatch.setattr(pplactic, "_arrangements", refuse)
    for per_composition, wv in ((hecke.weight_kernel, (2, 0, 2)),
                                (ideal_component, (1, 0, 1, 1)),
                                (pplactic._composition_verdict, (1, 0, 1, 1))):
        per_composition.cache_clear()
        with pytest.raises(ValueError, match=re.escape(
                f"composition {wv} has a zero part")):
            per_composition(wv)
        assert per_composition.cache_info().currsize == 0


def _patch_kernel_at(monkeypatch, target, change):
    # the certificate holds at the target; it is made inconclusive there, so
    # the exact route, and with it the patched kernel, decides the weight
    real = pplactic.kernel
    certify = pplactic._composition_certificate
    lam = tuple(k for k in target if k)
    monkeypatch.setattr(pplactic, "kernel", lambda m: change(real(m)))
    monkeypatch.setattr(pplactic, "_composition_certificate",
                        lambda mu, m: None if mu == lam else certify(mu, m))


def _only_failed_block(rep, target):
    # the verdict is per composition: exactly the weights that share the
    # target's composition fail, each witness keyed by its own weight's labels
    lam = tuple(k for k in target if k)
    assert rep["verdict"] == "FAIL"
    bad = [b["weight"] for b in rep["blocks"] if not b["equal"]]
    assert list(target) in bad
    assert bad == [b["weight"] for b in rep["blocks"]
                   if tuple(k for k in b["weight"] if k) == lam]
    for block in rep["blocks"]:
        if not block["equal"]:
            labels = {"".join(map(str, a))
                      for a in _arrangements(tuple(block["weight"]))}
            assert block["witness"] and set(block["witness"]) <= labels
    return next(b for b in rep["blocks"] if b["weight"] == list(target))


def test_conjecture_fail_witness_from_ideal(monkeypatch, fresh_verdicts):
    # a kernel that lost a row misses an ideal row, keyed by the weight's
    # own labels (letters 1 and 3), not by its composition's
    target = (2, 0, 2)
    _patch_kernel_at(monkeypatch, target, lambda ker: SubspaceBasis(
        ker.ambient, ker.rows[1:], ker.pivots[1:]))
    block = _only_failed_block(verify_conjecture(3, 4), target)
    assert block["dim_ideal"] == block["dim_kernel"] + 1 == 3
    witness = {tuple(map(int, k)): v for k, v in block["witness"].items()}
    assert min(witness) == (1, 1, 3, 3)
    assert witness[(1, 1, 3, 3)] == "1"


def test_conjecture_fail_witness_from_kernel(monkeypatch, fresh_verdicts):
    # a kernel that is the whole space has a row outside the ideal
    target = (2, 1, 1)
    _patch_kernel_at(monkeypatch, target,
                     lambda ker: SubspaceBasis.from_vectors(
                         [{i: ONE} for i in range(ker.ambient)],
                         ker.ambient))
    block = _only_failed_block(verify_conjecture(3, 4), target)
    assert block["dim_kernel"] == len(_arrangements(target)) == 12
    assert block["dim_ideal"] < 12
    (value,) = block["witness"].values()
    assert value == "1"


def test_conjecture_skip_before_ideal(monkeypatch):
    # the kernels meet the rank bound before any ideal row is built
    def refuse(*args, **kwargs):
        raise AssertionError("ideal component built before the rank check")

    monkeypatch.setattr(pplactic, "ideal_component", refuse)
    monkeypatch.setattr(pplactic, "_composition_generators", refuse)
    report = run_check("conjecture", {"d": 3, "r": 7})
    assert report.status == "SKIP"
    assert report.detail["reason"] == "BoundExceeded: rank 7 exceeds bound 6"


def test_preplactic_skip_before_ideal(monkeypatch):
    # the verdict at 1^7 builds M first, and so meets the rank bound first
    def refuse(*args, **kwargs):
        raise AssertionError("ideal rows built before the rank check")

    monkeypatch.setattr(pplactic, "_composition_generators", refuse)
    report = run_check("preplactic", {"r": 7})
    assert report.status == "SKIP"
    assert report.detail["reason"] == "BoundExceeded: rank 7 exceeds bound 6"


def compositions(r):
    """Every composition of r: the weights of degree r over r letters, with
    their zero parts stripped."""
    return sorted({tuple(k for k in wv if k) for wv in _weights(r, r)})


@pytest.fixture
def fresh_verdicts():
    """Verdicts and kernels recomputed under a patch, and dropped after."""
    def clear():
        pplactic._composition_verdict.cache_clear()
        hecke.weight_kernel.cache_clear()

    clear()
    yield
    clear()


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_certificate_matches_exact_route(r):
    lams = compositions(r)
    assert len(lams) == 2 ** (r - 1)
    for lam in lams:
        dim = pplactic._composition_certificate(
            lam, pplactic._packed_matrix(lam))
        assert dim is not None, lam
        ker = hecke.weight_kernel(lam)
        idl = ideal_component(lam)
        assert dim == ker.dim == idl.dim, lam
        assert idl == ker
        assert pplactic._composition_verdict(lam) == (dim, dim, None, None)


def _perturbed(packed, row):
    """Packed M_lambda with q^3 added to its entry (row, 0)."""
    packing, n, ncols, rows = packed
    rows = [dict(entries) for entries in rows]
    rows[row][0] = rows[row].get(0, 0) + (1 << packing.k * (n + 3))
    return packing, n, ncols, rows


def _both_products(gens, m):
    """G M by the integer column sums of packed M, read back, and over
    Q(q) by the product with M unpacked."""
    packing, n, _, rows = m
    sums = [packing.scalars(pplactic._column_sums(packing.numerators(g, 0),
                                                  rows), -n) for g in gens]
    return sums, (linalg.QMatrix(len(rows), gens) * hecke._unpacked(m)).rows


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_packed_zero_test_agrees_with_the_product(r):
    # G M = 0 at every composition, on both routes; q^3 added to one entry
    # of M that a generator row reads makes both nonzero, and the
    # certificate refuse it
    for lam in compositions(r):
        packed = pplactic._packed_matrix(lam)
        gens = pplactic._composition_generators(lam)
        sums, product = _both_products(gens, packed)
        assert sums == product and not any(product), lam
        assert pplactic._composition_certificate(lam, packed) is not None
        if not gens:
            continue
        perturbed = _perturbed(packed, min(map(min, gens)))
        sums, product = _both_products(gens, perturbed)
        assert sums == product and any(product), lam
        assert pplactic._composition_certificate(lam, perturbed) is None


def test_packing_covers_the_generator_norm(monkeypatch):
    # a G_lambda row of L1 norm far above 3^n widens M_lambda's packing,
    # so the integer column sums of G M still read back exactly
    lam, norm = (2, 1), 3 << 100
    real = pplactic._composition_generators
    monkeypatch.setattr(pplactic, "_composition_generators",
                        lambda mu: [{0: qs(norm)}] if mu == lam else real(mu))
    packing, n, _, _ = pplactic._packed_matrix(lam)
    assert 2 ** (packing.k - 1) > norm * 3 ** n
    assert pplactic._packed_matrix((1, 2))[0].k < 100


def test_certified_verdict_forms_no_scalar_of_m(monkeypatch, fresh_verdicts):
    # a certified verdict reads the walk's integers and reads none back;
    # a perturbed M_lambda still reaches the exact route, which unpacks it
    def refuse(*args):
        raise AssertionError("a Q(q) scalar of M_lambda was formed")

    monkeypatch.setattr(Packing, "scalars", refuse)
    lams = [lam for r in range(1, 6) for lam in compositions(r)]
    for lam in lams + [(1,) * 6]:
        assert pplactic._composition_verdict(lam)[3] is None, lam
    _perturb_at(monkeypatch, (2, 1, 1))
    pplactic._composition_verdict.cache_clear()
    with pytest.raises(AssertionError, match="scalar of M_lambda"):
        pplactic._composition_verdict((2, 1, 1))


def _perturb_at(monkeypatch, target, row=0):
    """M_target, packed on both routes, with q^3 added to its entry
    (row, 0)."""
    real = hecke._composition_matrix

    def perturbed(lam, top=1):
        m = real(lam, top)
        return _perturbed(m, row) if lam == target else m

    monkeypatch.setattr(hecke, "_composition_matrix", perturbed)
    monkeypatch.setattr(pplactic, "_composition_matrix", perturbed)
    return perturbed


def test_perturbed_matrix_fails_on_the_exact_route(monkeypatch,
                                                   fresh_verdicts):
    # q^3 added to one entry of one M_lambda: G M != 0 there, so the
    # certificate refuses it, and the exact route reports the FAIL
    target = (2, 1, 1)
    _perturb_at(monkeypatch, target)
    assert pplactic._composition_certificate(
        target, pplactic._packed_matrix(target)) is None
    assert pplactic._composition_certificate(
        (1, 2, 1), pplactic._packed_matrix((1, 2, 1))) is not None
    block = _only_failed_block(verify_conjecture(3, 4), target)
    # the witness is an ideal row that the perturbed kernel misses
    index = {"".join(map(str, a)): i
             for i, a in enumerate(_arrangements(target))}
    witness = {index[k]: parse_scalar(v) for k, v in block["witness"].items()}
    assert ideal_component(target).contains(witness)
    assert not hecke.weight_kernel(target).contains(witness)


def test_rank_shortfall_falls_back(monkeypatch, fresh_verdicts):
    # a rank count one short wherever a matrix has more than one row: the
    # ranks fall short wherever lambda has more than one arrangement; the
    # exact route then gives the certified report, and a rank count gives
    # no FAIL
    certified = verify_conjecture(3, 4)
    assert certified["verdict"] == "PASS"
    pplactic._composition_verdict.cache_clear()
    real_rank = pplactic.rank_mod_p
    monkeypatch.setattr(pplactic, "rank_mod_p",
                        lambda rows, p: real_rank(rows, p) - (len(rows) > 1))
    for lam in compositions(4):
        dim = pplactic._composition_certificate(
            lam, pplactic._packed_matrix(lam))
        if len(_arrangements(lam)) > 1:
            assert dim is None, lam
        else:
            assert dim == 0
    # each M_lambda is built once, although 6 of the 7 fall back
    real, built = hecke._composition_matrix, []
    for module in (hecke, pplactic):
        monkeypatch.setattr(module, "_composition_matrix",
                            lambda lam, top=1: built.append(lam)
                            or real(lam, top))
    assert verify_conjecture(3, 4) == certified
    assert sorted(built) == sorted({tuple(k for k in wv if k)
                                    for wv in _weights(3, 4)})
    assert len(built) == 7


def test_perturbed_matrix_fails_preplactic_on_the_exact_kernel(
        monkeypatch, fresh_verdicts):
    # an unequal verdict at 1^4: both variants are read against the kernel
    # of the perturbed M_(1,1,1,1), not against the ideal; row 0 would not
    # do, as no kernel vector has a coefficient at the identity
    target = (1, 1, 1, 1)
    perturbed = _perturb_at(monkeypatch, target, row=1)
    # the verdict's one M_(1,1,1,1) and its one kernel serve the report
    real_kernel, built, eliminated = linalg.kernel, [], []
    for module in (hecke, pplactic):
        monkeypatch.setattr(module, "_composition_matrix",
                            lambda lam, top=1: built.append(lam)
                            or perturbed(lam, top))
        monkeypatch.setattr(module, "kernel",
                            lambda m: eliminated.append(m) or real_kernel(m))
    report = run_check("preplactic", {"r": 4})
    assert built == [target]
    assert len(eliminated) == 1
    ker = hecke.weight_kernel(target)
    assert ker != ideal_component(target)
    assert report.status == "FAIL"
    assert report.detail["dim_kernel"] == ker.dim
    for variant, basis in (("concat", ideal_component(target)),
                           ("action-closed", preplactic_ideal_component(4))):
        assert report.detail["variants"][variant] == {
            "dim": basis.dim,
            "contained_in_kernel": all(ker.contains(row)
                                       for row in basis.rows),
            "equals_kernel": basis == ker}
    assert report.detail["equality_variants"] == []


@pytest.mark.parametrize("d, r, dim", [(3, 6, 590), (5, 5, 2069)])
def test_conjecture_beyond_frt_reach(d, r, dim):
    rep = verify_conjecture(d, r)
    assert rep["verdict"] == "PASS"
    assert rep["total_kernel_dim"] == rep["total_ideal_dim"] == dim


def test_preplactic_bounds():
    with pytest.raises(BoundExceeded):
        preplactic_ideal_component(7)
    for r in (1, 2):
        for zero in (ideal_component((1,) * r), preplactic_ideal_component(r)):
            assert zero.dim == 0 and zero.ambient == len(all_perms(r))
            assert zero == hecke_side_kernel(r)


@pytest.mark.parametrize("sign", [1, -1])
def test_lemma_brute(sign):
    report = lemma_brute_check(sign)
    assert report["orthogonality"]
    for entry in report["weights"].values():
        assert entry["membership"]
        assert entry["proportional"]
    w111 = report["weights"]["111"]
    assert w111["matches_reference"]
    assert w111["sign_pairing"] == ("upper" if sign > 0 else "lower")
    w = omega()
    expected111 = -(w ** 3 - qs(sign) * w * w - qs(2 * sign)) \
        / (qs(2) * w * q_int(3) ** 2)
    assert parse_scalar(w111["scalar"]) == expected111
    # the two repeated-letter scalars agree with each other and are the
    # transcribed [2]/(4 omega [3]) under q -> q^-1: the reference is written
    # for x^2_1 x^1_1 = q^-1 x^1_1 x^2_1, the descending reading of rhat
    # gives x^2_1 x^1_1 = q x^1_1 x^2_1, and q -> q^-1 sends omega to -omega
    v12 = parse_scalar(report["weights"]["12"]["scalar"])
    v21 = parse_scalar(report["weights"]["21"]["scalar"])
    assert v12 == v21
    assert report["weights"]["12"]["matches_reference_up_to_sign"]
    assert v12 == -(q_int(2) / (qs(4) * w * q_int(3)))


def test_lemma_brute_validates_the_endgame_rules(monkeypatch):
    # the one rewriting pass still checks every rule it applies, the
    # three-letter endgame included: a gauge rule that is not a relation
    # is an internal failure that names its word
    real = pplactic._endgame_rules_111

    def wrong_gauge():
        rules = real()
        rules[((1, 2, 3), (3, 2, 1))] = {
            ((3, 1, 2), (3, 1, 2)): ONE, ((1, 3, 2), (1, 3, 2)): ONE}
        return rules

    monkeypatch.setattr(pplactic, "_endgame_rules_111", wrong_gauge)
    pplactic._substitution_tables.cache_clear()
    try:
        with pytest.raises(MembershipFailure,
                           match=r"^substitution for \(\(1, 2, 3\), "
                                 r"\(3, 2, 1\)\) is not a relation$"):
            lemma_brute_check(1)
    finally:
        pplactic._substitution_tables.cache_clear()


def test_conjecture_reports():
    for d, r in ((1, 3), (1, 4), (2, 3), (3, 3)):
        rep = verify_conjecture(d, r)
        assert rep["verdict"] == "PASS"
        for block in rep["blocks"]:
            assert block["equal"]
    assert verify_conjecture(3, 3)["total_kernel_dim"] == 7
    assert verify_conjecture(2, 4)["total_kernel_dim"] == 7


def test_ideal_contained_in_kernel_always():
    # soundness direction, block by block
    from qdiag.qma import diag_relation_kernel
    for d, r in ((2, 3), (3, 3), (2, 4)):
        kernels = diag_relation_kernel(d, r)
        for wv in _weights(d, r):
            for row in ideal_component(composition(wv)).rows:
                assert kernels[wv].contains(row)
