"""Braid matrix properties and the tensor-cube representation."""

import json
import random
from importlib import resources

import pytest

from qdiag import rmatrix
from qdiag.errors import BoundExceeded
from qdiag.hecke import HeckeElt, idempotents_r3, t
from qdiag.linalg import QMatrix
from qdiag.permutations import all_perms, s
from qdiag.rmatrix import (_basis_matrix, _exchange_matches, _satisfies_braid,
                           _satisfies_quadratic, generator_matrix,
                           idempotent_block, index_word, multiset_classes, pi,
                           rhat, rhat_reading, word_index)
from qdiag.scalars import ONE, Q, omega, parse_scalar, q_int, q_power, qs


def test_rhat_dimension_one():
    m = rhat(1)
    assert m.nrows == 1 and m.get(0, 0) == q_power(1)


def test_quadratic_relation():
    for n in (2, 3, 4):
        m = rhat(n)
        ident = QMatrix.identity(n * n)
        assert ((m - ident.scale(q_power(1)))
                * (m + ident.scale(q_power(-1)))).is_zero()


def test_braid_relation_on_cube():
    for n in (2, 3, 4):
        r12 = generator_matrix(n, 3, 1)
        r23 = generator_matrix(n, 3, 2)
        assert r12 * r23 * r12 == r23 * r12 * r23


def test_reading_recorded():
    for n in (1, 2, 3, 4):
        assert rhat_reading(n) == "descending"


@pytest.mark.parametrize("n", [2, 3])
def test_ascending_placement_fails_only_the_exchange_relation(n):
    # the transposed convention, omega on ascending pairs, is a braid matrix
    # too; only the induced exchange relation tells the two apart
    rows = [{} for _ in range(n * n)]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            col = word_index((a, b), n)
            if a == b:
                rows[col][col] = Q
                continue
            rows[word_index((b, a), n)][col] = ONE
            if a < b:
                rows[col][col] = omega()
    ascending = QMatrix(n * n, rows)
    assert ascending != rhat(n)
    assert _satisfies_quadratic(ascending) and _satisfies_braid(ascending, n)
    assert not _exchange_matches(ascending, n)
    assert _exchange_matches(rhat(n), n)


def test_failed_relation_names_n(monkeypatch):
    monkeypatch.setattr(rmatrix, "_exchange_matches", lambda m, n: False)
    with pytest.raises(ArithmeticError, match="exchange relation, n=2"):
        rhat.__wrapped__(2)


def test_frozen_dim2_entries():
    golden = json.loads(resources.files("qdiag.data")
                        .joinpath("rhat2.json").read_text())
    pinned = {(tuple(int(c) for c in row), tuple(int(c) for c in col)):
              parse_scalar(text) for row, col, text in golden["entries"]}
    computed = {(index_word(i, 2, 2), index_word(j, 2, 2)): v
                for i, row in enumerate(rhat(2).rows) for j, v in row.items()}
    assert computed == pinned


def test_pi_identity_and_homomorphism():
    rng = random.Random(31)
    for n in (2, 3):
        assert pi(HeckeElt.one(3), n) == QMatrix.identity(n ** 3)
        for _ in range(25):
            perms = rng.sample(all_perms(3), k=2)
            x = t(perms[0]).scale(qs(rng.randint(1, 3))) + t(perms[1])
            y = t(perms[1]) + HeckeElt.one(3).scale(qs(rng.randint(-2, 2)))
            assert pi(x * y, n) == pi(x, n) * pi(y, n)


def test_pi_braid_image():
    for n in (2, 3):
        a = t(s(3, 1)) * t(s(3, 2)) * t(s(3, 1))
        b = t(s(3, 2)) * t(s(3, 1)) * t(s(3, 2))
        assert pi(a, n) == pi(b, n)


def test_disjoint_positions_commute():
    a = generator_matrix(2, 4, 1)
    b = generator_matrix(2, 4, 3)
    assert a * b == b * a


def test_pi_idempotents():
    _, ep, em, _ = idempotents_r3()
    p, m = pi(ep, 3), pi(em, 3)
    assert p * p == p and m * m == m
    assert (p * m).is_zero() and (m * p).is_zero()


def test_pi_is_the_sum_of_scaled_basis_matrices():
    rng = random.Random(43)
    dens = [ONE, q_int(2), q_int(3), Q + qs(2), qs(3)]
    elements = list(idempotents_r3())
    for _ in range(6):
        terms = {p: qs(rng.randint(-3, 3)) * q_power(rng.randint(-1, 1))
                 / rng.choice(dens) for p in rng.sample(all_perms(3), k=4)}
        elements.append(HeckeElt(3, terms))
    for n in (2, 3):
        for x in elements:
            expected = QMatrix(n ** 3, [{}] * n ** 3)
            for p, c in x.terms.items():
                expected = expected + _basis_matrix(p, n).scale(c)
            assert pi(x, n) == expected
    # the antisymmetrizer of rank 3 kills V^(x)3 for dim V = 2: every entry
    # of its image is a sum that cancels
    e111 = idempotents_r3()[3]
    assert pi(e111, 2).is_zero() and not pi(e111, 3).is_zero()


def test_multiset_zero_pattern():
    _, ep, em, _ = idempotents_r3()
    for e in (ep, em):
        mat = pi(e, 3)
        for i, row in enumerate(mat.rows):
            for j in row:
                assert sorted(index_word(i, 3, 3)) == \
                    sorted(index_word(j, 3, 3))


def _golden_blocks(sign_key):
    data = json.loads(resources.files("qdiag.data")
                      .joinpath("appendix_e21.json").read_text())[sign_key]
    six = [[parse_scalar(x) for x in row] for row in data["block6"]]
    three = [[parse_scalar(x) for x in row] for row in data["block3"]]
    return six, three


@pytest.mark.parametrize("sign_key,sg", [("plus", 1), ("minus", -1)])
def test_appendix_blocks_all_classes(sign_key, sg):
    _, ep, em, _ = idempotents_r3()
    mat = pi(ep if sg > 0 else em, 3)
    six, three = _golden_blocks(sign_key)
    classes = multiset_classes(3, 3)
    checked = 0
    block = idempotent_block(mat, sorted(classes[(1, 2, 3)]), 3)
    for i in range(6):
        for j in range(6):
            assert block[i][j] == six[i][j]
            checked += 1
    for multiset, words in sorted(classes.items()):
        if len(words) != 3:
            continue
        block = idempotent_block(mat, sorted(words), 3)
        for i in range(3):
            for j in range(3):
                assert block[i][j] == three[i][j], (multiset, i, j)
                checked += 1
    assert checked == 90
    # the one block reader gives the same blocks at its three classes
    assert rmatrix.appendix_blocks(mat) == {
        (1, 1, 1): six, (2, 1, 0): three, (1, 2, 0): three}


def test_first_golden_entries():
    six, three = _golden_blocks("plus")
    from qdiag.scalars import q_int
    assert six[0][0] == q_int(3).inv()
    assert six[0][5] == q_int(3).inv()
    assert three[0][0] == q_power(1) / (qs(2) * (q_int(2) + ONE))
    six_m, three_m = _golden_blocks("minus")
    assert six_m[0][5] == -q_int(3).inv()
    assert three_m[0][0] == q_power(1) / (qs(2) * (q_int(2) - ONE))


def test_dimension_bound():
    with pytest.raises(BoundExceeded):
        pi(HeckeElt.one(4), 10)
