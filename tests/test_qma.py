"""Weight-block quotients of the quantum matrix algebra."""

import json
from importlib import resources

import pytest

from qdiag import qma
from qdiag.checks import run_check
from qdiag.errors import BlockMismatch, BoundExceeded
from qdiag.hecke import projection_matrix
from qdiag.linalg import SubspaceBasis
from qdiag.permutations import _arrangements, all_perms
from qdiag.qma import (FreeElt, block_quotient, diag_relation_kernel,
                       expand_diagonal, membership, proportionality)
from qdiag.scalars import ONE, ZERO, omega, parse_scalar, qs


def _golden(name):
    return json.loads(resources.files("qdiag.data")
                      .joinpath("expansion_matrices.json").read_text())[name]


def test_mixed_block_n2():
    q = block_quotient(2, 2, ((1, 1), (1, 1)))
    assert q.span.dim == 2
    assert q.quotient_dim == 2
    assert q.basis_words == [((1, 2), (1, 2)), ((1, 2), (2, 1))]
    # the two defining relations of the block
    w = omega()
    assert q.contains(FreeElt(2, {((2, 1), (2, 1)): ONE,
                                  ((1, 2), (1, 2)): -ONE,
                                  ((1, 2), (2, 1)): -w}))
    assert q.contains(FreeElt(2, {((2, 1), (1, 2)): ONE,
                                  ((1, 2), (2, 1)): -ONE}))
    assert not q.contains(FreeElt(2, {((1, 2), (1, 2)): ONE}))


def test_single_word_block():
    q = block_quotient(2, 2, ((2, 0), (2, 0)))
    assert q.span.dim == 0 and q.quotient_dim == 1


def test_q1_specialization_is_commutators():
    # at q=1 the degree-2 relation span becomes the span of commutators
    q = block_quotient(2, 2, ((1, 1), (1, 1)))
    at_one = []
    for row in q.span.rows:
        at_one.append({c: qs(v.evaluate(1))
                       for c, v in row.items()
                       if v.evaluate(1)})
    specialized = SubspaceBasis.from_vectors(at_one, len(q.words))
    idx = q.index
    comms = []
    words = [((1, 2), (1, 2)), ((1, 2), (2, 1))]
    for u, l in words:
        swapped = ((u[1], u[0]), (l[1], l[0]))
        comms.append({idx[(u, l)]: ONE, idx[swapped]: -ONE})
    assert specialized == SubspaceBasis.from_vectors(comms, len(q.words))


def test_quotient_dimension_full_weight():
    # the multilinear block has quotient dimension r! for n >= r
    assert block_quotient(3, 3, ((1, 1, 1), (1, 1, 1))).quotient_dim == 6
    assert block_quotient(2, 2, ((1, 1), (1, 1))).quotient_dim == 2


def test_reduce_idempotent_and_annihilates_span():
    q = block_quotient(3, 3, ((1, 1, 1), (1, 1, 1)))
    elt = FreeElt(3, {((2, 1, 3), (3, 2, 1)): omega(),
                      ((1, 2, 3), (1, 2, 3)): ONE})
    red = q.residual(elt)
    assert q.residual(red) == red
    for row in q.span.rows:
        as_elt = FreeElt(3, {q.words[c]: v for c, v in row.items()})
        assert not q.residual(as_elt)


def test_systd_matrix_and_cross_module_oracle():
    golden = [[parse_scalar(x) for x in row] for row in _golden("systd")]
    diag, basis, m = expand_diagonal(3, 3, (1, 1, 1))
    assert diag == all_perms(3)
    assert [u for u, _ in basis] == [(1, 2, 3)] * 6
    for i in range(6):
        for j in range(6):
            assert m.get(i, j) == golden[i][j]
    assert m == projection_matrix(3)


def test_weight21_matrix_and_kernels():
    golden = [[parse_scalar(x) for x in row] for row in _golden("weight21")]
    diag, basis, m = expand_diagonal(2, 3, (2, 1))
    assert diag == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert basis == [((1, 1, 2), (1, 1, 2)), ((1, 1, 2), (1, 2, 1))]
    for i in range(3):
        for j in range(2):
            assert m.get(i, j) == golden[i][j]
    kernels = diag_relation_kernel(2, 3)
    k21 = kernels[(2, 1)]
    expected = SubspaceBasis.from_vectors(
        [{0: parse_scalar("q^2"), 1: parse_scalar("-(1 + q^2)"), 2: ONE}], 3)
    assert SubspaceBasis.from_vectors(k21.rows, 3) == expected
    k12 = kernels[(1, 2)]
    expected12 = SubspaceBasis.from_vectors(
        [{0: parse_scalar("-q^2"), 1: parse_scalar("1 + q^2"), 2: -ONE}], 3)
    assert SubspaceBasis.from_vectors(k12.rows, 3) == expected12


def test_kernel_dimension_formula():
    for n in (2, 3, 4):
        total = sum(k.dim for k in diag_relation_kernel(n, 3).values())
        assert total == n * (n - 1) * (n - 2) // 6 + n * (n - 1)


def test_distinct_letter_kernel_vector():
    ker = diag_relation_kernel(3, 3)[(1, 1, 1)]
    assert ker.dim == 1
    labels = {w: i for i, w in enumerate(_arrangements((1, 1, 1)))}
    row = ker.rows[0]
    ratio = row[labels[(1, 3, 2)]]
    for word, val in ((1, 3, 2), 1), ((2, 1, 3), -1), ((2, 3, 1), 1), \
                     ((3, 1, 2), -1):
        assert row.get(labels[word], ZERO) == ratio * qs(val)
    assert labels[(1, 2, 3)] not in row and labels[(3, 2, 1)] not in row


def test_diag_kernel_names_coordinates_by_weight():
    # the kernel at 1011 is the one of composition (1, 1, 1); the report
    # names its coordinates by the words over the letters 1, 3 and 4
    report = run_check("diag-kernel", {"n": 4, "r": 3})
    assert report.status == "PASS"
    kernel = report.artifacts["kernels"]["1011"]
    words = [str(a) for a in _arrangements((1, 0, 1, 1))]
    assert words[0] == "(1, 3, 4)"
    assert kernel["ambient"] == 6 and kernel["dim"] == 1
    (row,) = kernel["rows"]
    assert set(row) == {"(1, 4, 3)", "(3, 1, 4)", "(3, 4, 1)", "(4, 1, 3)"}
    assert list(row) == [w for w in words if w in row]
    # 0111 has the same kernel over the letters 2, 3 and 4
    assert report.artifacts["kernels"]["0111"] == {
        "ambient": 6, "dim": 1,
        "rows": [{w.replace("1", "2"): v for w, v in row.items()}]}


def test_homotopic_expressions():
    q = block_quotient(3, 3, ((1, 1, 1), (1, 1, 1)))
    w = omega()
    lhs = FreeElt(3, {((1, 3, 2), (3, 1, 2)): w})
    rhs = FreeElt(3, {((3, 1, 2), (3, 1, 2)): ONE,
                      ((1, 3, 2), (1, 3, 2)): -ONE})
    assert q.residual(lhs) == q.residual(rhs)


def test_membership_and_proportionality():
    w = omega()
    rel = FreeElt(2, {((2, 1), (1, 2)): ONE, ((1, 2), (2, 1)): -ONE})
    assert membership(rel, 2)
    assert not membership(FreeElt(2, {((1, 2), (1, 2)): ONE}), 2)
    assert proportionality(FreeElt(2, {}), rel, 2) == ZERO
    v = FreeElt(2, {((1, 2), (1, 2)): w})
    assert proportionality(v, FreeElt(2, {((1, 2), (1, 2)): ONE}), 2) == w
    # residuals in genuinely different directions are not proportional
    u = FreeElt(2, {((1, 2), (2, 1)): ONE})
    assert proportionality(v, u, 2) is None


def test_block_mismatch():
    with pytest.raises(BlockMismatch):
        FreeElt(2, {((1, 2), (1, 2)): ONE, ((1, 1), (1, 1)): ONE})
    q = block_quotient(2, 2, ((1, 1), (1, 1)))
    with pytest.raises(BlockMismatch):
        q.vector(FreeElt(2, {((1, 1), (1, 1)): ONE}))


def test_block_bound():
    # 90 x 90 words, refused before the block's relation rows are built
    with pytest.raises(BoundExceeded, match=r"has 8100 words \(> 4096\)"):
        block_quotient(3, 6, ((2, 2, 2), (2, 2, 2)))


def test_rank_bound_checked_before_any_block(monkeypatch):
    # conjecture builds no block; the rank bound is met before anything else
    built = []
    original = qma.BlockQuotient.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(qma.BlockQuotient, "__init__", counting_init)
    report = run_check("conjecture", {"d": 3, "r": 7})
    assert report.status == "SKIP"
    assert report.detail["reason"] == "BoundExceeded: rank 7 exceeds bound 6"
    assert run_check("conjecture", {"d": 3, "r": 4}).status == "PASS"
    assert built == []


def test_pbw_guard(monkeypatch):
    # the quotient dimension is the number of contingency tables
    assert qma._contingency_tables((2, 2, 1), (2, 2, 1)) == 11
    block = ((2, 2, 1), (2, 2, 1))
    assert qma.BlockQuotient(3, 5, block).quotient_dim == 11
    # dropping every other relation row leaves too big a quotient
    original = qma.BlockQuotient._relation_rows

    def fewer_rows(self):
        return (row for i, row in enumerate(original(self)) if i % 2)

    monkeypatch.setattr(qma.BlockQuotient, "_relation_rows", fewer_rows)
    with pytest.raises(ArithmeticError,
                       match=r"block \(\(2, 2, 1\), \(2, 2, 1\)\) has quotient"
                             r" dimension \d+, but 11 contingency tables"):
        qma.BlockQuotient(3, 5, block)


def test_rank_nullity_every_expansion_matrix():
    for n, r in ((2, 3), (3, 3), (2, 4)):
        for wv, ker in diag_relation_kernel(n, r).items():
            diag, basis, m = expand_diagonal(n, r, wv)
            rows = SubspaceBasis.from_vectors(m.rows, m.ncols)
            # left kernel dim + row rank = number of rows
            assert ker.dim + rows.dim == m.nrows
