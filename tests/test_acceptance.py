"""Acceptance criteria, one test per criterion, with a printed verdict line.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Criterion 10 compares the weight-(1,2) restriction scalar with
the transcribed reference [2]/(4 omega [3]) carried into the program's
q-convention by q -> q^-1.  The reference is written for the algebra where
x^2_1 x^1_1 = q^-1 x^1_1 x^2_1; the program pins the descending reading of
rhat, where x^2_1 x^1_1 = q x^1_1 x^2_1.  q -> q^-1 fixes [2] and [3] and
sends omega to -omega, so in the program's convention the scalar is
-[2]/(4 omega [3]).  `qdiag run lemma-brute` still gates on the untransported
value and reports FAIL.
"""

import json
import random
import time
from importlib import resources

from qdiag.hecke import (HeckeElt, formal_product, idempotents_r2,
                         idempotents_r3, project_p, t, theta)
from qdiag.linalg import QMatrix, SubspaceBasis
from qdiag.permutations import (_arrangements, all_perms, inverse,
                                perm_of_word, reduced_word, s)
from qdiag.pplactic import (hecke_side_kernel, ideal_component,
                            lemma_brute_check, ppk_generators,
                            preplactic_ideal_component, verify_conjecture)
from qdiag.qma import (FreeElt, diag_relation_kernel, expand_diagonal,
                       membership)
from qdiag.rmatrix import (generator_matrix, idempotent_block, index_word,
                           multiset_classes, pi, rhat, rhat_reading)
from qdiag.scalars import (ONE, ZERO, bar, omega, parse_scalar, q_int, q_power,
                           qs)


def _verdict(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def _golden(name):
    return json.loads(resources.files("qdiag.data")
                      .joinpath("expansion_matrices.json").read_text())[name]


def test_criterion_01_systd_reproduction():
    start = time.perf_counter()
    golden = [[parse_scalar(x) for x in row] for row in _golden("systd")]
    diag, basis, m = expand_diagonal(3, 3, (1, 1, 1))
    ok = all(m.get(i, j) == golden[i][j] for i in range(6) for j in range(6))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert _verdict(1, ok, f"36 expansion entries exact ({elapsed:.3f}s)")


def test_criterion_02_systd_kernel():
    ker = diag_relation_kernel(3, 3)[(1, 1, 1)]
    labels = {w: i for i, w in enumerate(_arrangements((1, 1, 1)))}
    ok = ker.dim == 1
    row = ker.rows[0]
    scale = row[labels[(1, 3, 2)]]
    wanted = {(1, 3, 2): 1, (2, 3, 1): 1, (2, 1, 3): -1, (3, 1, 2): -1,
              (1, 2, 3): 0, (3, 2, 1): 0}
    for word, c in wanted.items():
        ok = ok and row.get(labels[word], ZERO) == scale * qs(c)
    assert _verdict(2, ok, "kernel is the signed four-term combination")


def test_criterion_03_repeated_letter_blocks():
    golden = [[parse_scalar(x) for x in row] for row in _golden("weight21")]
    _, _, m = expand_diagonal(2, 3, (2, 1))
    ok = all(m.get(i, j) == golden[i][j] for i in range(3) for j in range(2))
    kernels = diag_relation_kernel(2, 3)
    q2 = q_power(2)
    lower = {0: q2, 1: -(ONE + q2), 2: ONE}            # -[[x1,x2],x1]_q2
    upper = {0: -q2, 1: ONE + q2, 2: -ONE}             # [x2,[x1,x2]]_q2
    ok = ok and SubspaceBasis.from_vectors(kernels[(2, 1)].rows, 3) == \
        SubspaceBasis.from_vectors([lower], 3)
    ok = ok and SubspaceBasis.from_vectors(kernels[(1, 2)].rows, 3) == \
        SubspaceBasis.from_vectors([upper], 3)
    assert _verdict(3, ok, "weight (2,1)/(1,2) matrices and bracket kernels")


def test_criterion_04_dimension_formula():
    ok = True
    for d, expect in ((2, 2), (3, 7), (4, 16)):
        total = sum(k.dim for k in diag_relation_kernel(d, 3).values())
        ok = ok and total == expect
    assert _verdict(4, ok, "degree-3 relation dimensions 2, 7, 16")


def test_criterion_05_idempotent_suite():
    start = time.perf_counter()
    e3, ep, em, e111 = idempotents_r3()
    idems = [e3, ep, em, e111]
    ok = all(e * e == e for e in idems)
    ok = ok and all(not (a * b) for i, a in enumerate(idems)
                    for j, b in enumerate(idems) if i != j)
    ok = ok and sum(idems[1:], e3) == HeckeElt.one(3)
    th = theta()
    ok = ok and th * ep == ep and th * em == em.scale(-ONE)
    central = ep + em
    ok = ok and all(central * t(s(3, i)) == t(s(3, i)) * central
                    for i in (1, 2))
    ok = ok and ep.bar_involution() == em
    e2, e11 = idempotents_r2()
    ok = ok and e2 * e2 == e2 and e11 * e11 == e11 and not (e2 * e11)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert _verdict(5, ok, f"idempotent identities exact ({elapsed:.3f}s)")


def test_criterion_06_rmatrix_suite():
    ok = True
    for n in (2, 3, 4):
        m = rhat(n)
        ident = QMatrix.identity(n * n)
        ok = ok and ((m - ident.scale(q_power(1)))
                     * (m + ident.scale(q_power(-1)))).is_zero()
        r12 = generator_matrix(n, 3, 1)
        r23 = generator_matrix(n, 3, 2)
        ok = ok and r12 * r23 * r12 == r23 * r12 * r23
    _, ep, em, _ = idempotents_r3()
    for e in (ep, em):
        mat = pi(e, 3)
        ok = ok and all(sorted(index_word(i, 3, 3)) ==
                        sorted(index_word(j, 3, 3))
                        for i, row in enumerate(mat.rows) for j in row)
    assert _verdict(6, ok, "quadratic + braid relations, multiset zero pattern")


def test_criterion_07_appendix_matrices():
    data = json.loads(resources.files("qdiag.data")
                      .joinpath("appendix_e21.json").read_text())
    _, ep, em, _ = idempotents_r3()
    classes = multiset_classes(3, 3)
    ok = True
    per_sign = 0
    for sign_key, e in (("plus", ep), ("minus", em)):
        six = [[parse_scalar(x) for x in row]
               for row in data[sign_key]["block6"]]
        three = [[parse_scalar(x) for x in row]
                 for row in data[sign_key]["block3"]]
        mat = pi(e, 3)
        per_sign = 0
        block = idempotent_block(mat, sorted(classes[(1, 2, 3)]), 3)
        for i in range(6):
            for j in range(6):
                ok = ok and block[i][j] == six[i][j]
                per_sign += 1
        for multiset, words in sorted(classes.items()):
            if len(words) != 3:
                continue
            block = idempotent_block(mat, sorted(words), 3)
            for i in range(3):
                for j in range(3):
                    ok = ok and block[i][j] == three[i][j]
                    per_sign += 1
    ok = ok and per_sign == 90
    assert _verdict(7, ok, f"{per_sign} entries per sign, both signs exact")


def test_criterion_08_braid_identity():
    w = omega()
    signs = {(1, 3, 2): ONE, (3, 1, 2): -ONE, (2, 1, 3): -ONE, (2, 3, 1): ONE}
    formal = {}
    for alpha, c in signs.items():
        fp = formal_product(3, reduced_word(inverse(alpha)),
                            reduced_word(alpha))
        for word, cc in fp.items():
            v = formal.get(word, ZERO) + c * cc
            if v:
                formal[word] = v
            else:
                formal.pop(word, None)
    ok = formal == {(1, 2, 1): w, (2, 1, 2): -w}
    ok = ok and perm_of_word(3, (1, 2, 1)) == perm_of_word(3, (2, 1, 2))
    ok = ok and not project_p(3, signs)
    # the four products, individually
    expected = {
        (1, 3, 2): {(): ONE, (2,): w},
        (2, 1, 3): {(): ONE, (1,): w},
        (3, 1, 2): {(): ONE, (2,): w, (2, 1, 2): w},
        (2, 3, 1): {(): ONE, (1,): w, (1, 2, 1): w},
    }
    for alpha, want in expected.items():
        got = formal_product(3, reduced_word(inverse(alpha)),
                             reduced_word(alpha))
        ok = ok and got == want
    assert _verdict(8, ok, "projection zero; formal difference is the "
                           "braid-word difference times omega")


def test_criterion_09_preplactic_kernel():
    start = time.perf_counter()
    ok = hecke_side_kernel(3).dim == 1
    ker4 = hecke_side_kernel(4)
    results = {}
    for variant, basis in (("concat", ideal_component((1,) * 4)),
                           ("action-closed", preplactic_ideal_component(4))):
        results[variant] = {
            "dim": basis.dim,
            "contained": all(ker4.contains(r) for r in basis.rows),
            "equal": basis == ker4,
        }
    ok = ok and results["concat"]["contained"]
    ok = ok and any(v["equal"] for v in results.values())
    which = [k for k, v in results.items() if v["equal"]]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert _verdict(9, ok, f"kernel dims 1/{ker4.dim}; equality holds for "
                           f"{which} ({elapsed:.1f}s)")


def test_criterion_10_lemma_brute():
    assert rhat_reading(3) == "descending", (
        "the (1,2) reference is carried from the q^-1 exchange convention by "
        "q -> q^-1, which lands in the descending reading of rhat "
        "(x^2_1 x^1_1 = q x^1_1 x^2_1); the pinned reading is now "
        f"{rhat_reading(3)!r}")
    notes = []
    w = omega()
    # the upper-repeat generator is itself zero in the FRT quotient, so only
    # the pinned tables and the pinned convention fix the (1,2) scalar
    upper = next(g for g in ppk_generators(3)
                 if g.kind == "upper-repeat" and g.letters[:2] == (1, 2))
    diagonal = FreeElt(3, {(wd, wd): c for wd, c in upper.terms.items()})
    ok = membership(diagonal, 3)
    expected_12 = bar(q_int(2) / (qs(4) * w * q_int(3)))
    for sign in (1, -1):
        rep = lemma_brute_check(sign)
        ok = ok and rep["orthogonality"]
        for entry in rep["weights"].values():
            ok = ok and entry["membership"] and entry["proportional"]
        w111 = rep["weights"]["111"]
        ok = ok and w111["matches_reference"]
        notes.append(f"sign {rep['sign']}: (1,1,1) pairing "
                     f"{w111.get('sign_pairing')}")
        got_12 = parse_scalar(rep["weights"]["12"]["scalar"])
        if got_12 != expected_12:
            ok = False
            notes.append(
                f"(1,2) scalar computed {rep['weights']['12']['scalar']} "
                f"!= transported reference {expected_12}")
    assert _verdict(10, ok, "; ".join(notes)), (
        "the weight-(1,2) scalar must equal the transcribed [2]/(4 omega [3]) "
        "under q -> q^-1, which carries the reference's q^-1 exchange "
        "convention into the descending reading of rhat")


def test_criterion_11_conjecture_verdicts():
    start = time.perf_counter()
    ok = True
    for d, r in ((1, 3), (1, 4), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)):
        rep = verify_conjecture(d, r)
        ok = ok and rep["verdict"] == "PASS"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    assert _verdict(11, ok, f"all six parameter pairs PASS ({elapsed:.1f}s)")


def test_criterion_12_property_suites():
    rng = random.Random(99)

    def rand_elt(r):
        terms = {}
        for p in rng.sample(all_perms(r), k=3):
            terms[p] = qs(rng.randint(-3, 3)) * q_power(rng.randint(-1, 1))
        return HeckeElt(r, terms)

    ok = True
    for r in (3, 4):
        for _ in range(50):
            x, y, z = (rand_elt(r) for _ in range(3))
            ok = ok and (x * y) * z == x * (y * z)
    for p in all_perms(4):
        word = reduced_word(p)
        for cut in range(len(word) + 1):
            ok = ok and t(perm_of_word(4, word[:cut])) * \
                t(perm_of_word(4, word[cut:])) == t(p)
    pairs = 0
    for n in (2, 3):
        for _ in range(25):
            x, y = rand_elt(3), rand_elt(3)
            ok = ok and pi(x * y, n) == pi(x, n) * pi(y, n)
            pairs += 1
    # rank-nullity on the expansion matrices (kernel() asserts it on every
    # call internally as well)
    for n, r in ((2, 3), (3, 3), (2, 4)):
        for wv, ker in diag_relation_kernel(n, r).items():
            _, _, m = expand_diagonal(n, r, wv)
            rows = SubspaceBasis.from_vectors(m.rows, m.ncols)
            ok = ok and ker.dim + rows.dim == m.nrows
    assert _verdict(12, ok, f"100 associativity triples, {pairs} "
                            "representation pairs, rank-nullity everywhere")
