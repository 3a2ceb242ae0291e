"""Word conventions, reduced words, standardization, enumeration."""

import itertools

import pytest

from qdiag import permutations
from qdiag.errors import BoundExceeded, SizeMismatch
from qdiag.permutations import (WEIGHT_BOUND, _arrangements,
                                _composition_arrangements, _weights,
                                all_perms, apply_gen, compose, descends,
                                identity, inverse, length, multi_indices,
                                perm_of_word, perm_str, reduced_word, s,
                                standardize, weight, weight_blocks)


def test_composition_convention():
    # the word 312 is s1 s2, so its inverse has reduced word s2 s1
    assert compose(s(3, 1), s(3, 2)) == (3, 1, 2)
    assert reduced_word(inverse((3, 1, 2))) == (2, 1)
    assert compose(identity(3), (2, 3, 1)) == (2, 3, 1)
    assert compose(s(3, 1), s(3, 1)) == identity(3)


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatch):
        compose(identity(3), identity(4))


def test_reduced_words():
    assert reduced_word((3, 2, 1)) == (1, 2, 1)
    assert reduced_word(identity(4)) == ()
    assert reduced_word((2, 1, 3)) == (1,)
    assert reduced_word((2, 3, 1)) == (2, 1)
    assert reduced_word((3, 1, 2)) == (1, 2)
    # lexicographically smallest among all reduced words
    assert reduced_word((2, 1, 4, 3)) == (1, 3)


def test_reduced_word_multiplies_back():
    for r in (3, 4, 5):
        for p in all_perms(r):
            word = reduced_word(p)
            assert len(word) == length(p)
            assert perm_of_word(r, word) == p


def test_length_changes_by_one():
    for p in all_perms(4):
        for i in range(1, 4):
            assert abs(length(apply_gen(p, i)) - length(p)) == 1


def test_inverse_exhaustive():
    for r in (2, 3, 4, 5):
        for p in all_perms(r):
            assert compose(p, inverse(p)) == identity(r)
            assert inverse(inverse(p)) == p


def test_standardize():
    assert standardize((1, 2, 2)) == (1, 2, 3)
    assert standardize((2, 1, 1)) == (3, 1, 2)
    assert standardize((1, 3, 2)) == (1, 3, 2)
    assert standardize((2, 2, 1, 2)) == (2, 3, 1, 4)


def test_enumeration():
    assert len(all_perms(3)) == 6
    assert all_perms(3)[0] == (1, 2, 3)
    assert len(multi_indices(3, 3)) == 27
    blocks = weight_blocks(2, 2)
    assert {k: len(v) for k, v in blocks.items()} == {
        (2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert weight((1, 2, 2, 1), 3) == (2, 2, 0)


def test_bound_exceeded():
    with pytest.raises(BoundExceeded):
        all_perms(7)
    with pytest.raises(BoundExceeded):
        multi_indices(2, 9)


def test_descent_test_matches_length():
    for p in all_perms(5):
        for i in range(1, 5):
            assert descends(p, i) == (length(apply_gen(p, i)) < length(p))


def test_perm_str():
    assert perm_str((3, 1, 2)) == "312"


def _weights_recursive(n, r):
    # the reference: the plain recursive definition, one level per letter
    if n == 0:
        return [()] if r == 0 else []
    return [(k,) + rest for k in range(r, -1, -1)
            for rest in _weights_recursive(n - 1, r - k)]


def test_weights_match_the_recursive_definition():
    for n in range(1, 7):
        for r in range(8):
            assert _weights(n, r) == _weights_recursive(n, r), (n, r)
    # as many letters as would exhaust the recursion limit
    assert len(_weights(1200, 1)) == 1200


def test_weight_count_is_bounded():
    with pytest.raises(BoundExceeded, match="weights"):
        _weights(1200, 3)
    # the bound itself is admitted: C(4096, 1) weights
    assert len(_weights(WEIGHT_BOUND, 1)) == WEIGHT_BOUND


def _arrangements_by_sorting(w):
    letters = []
    for v, k in enumerate(w, start=1):
        letters.extend([v] * k)
    return sorted(set(itertools.permutations(letters)))


def test_arrangements_match_the_sorting_definition():
    for n in range(1, 5):
        for r in range(1, 7):
            for w in _weights(n, r):
                assert _arrangements(w) == _arrangements_by_sorting(w), w
    wide = [0] * 1200
    wide[4], wide[700], wide[1199] = 1, 2, 1
    assert _arrangements(tuple(wide)) == _arrangements_by_sorting(wide)
    # each call returns a new list
    assert _arrangements((1, 1)) is not _arrangements((1, 1))


def test_composition_arrangements_match_the_sorting_definition():
    # every composition of r <= 7 is a weight with no zero part
    for r in range(1, 8):
        for n in range(1, r + 1):
            for lam in _weights(n, r):
                if 0 not in lam:
                    assert _composition_arrangements(lam) == \
                        _arrangements_by_sorting(lam), lam
    # S_r is the arrangements of 1^r, in a new list
    assert all_perms(6) == _arrangements_by_sorting((1,) * 6)
    assert all_perms(6) is not _composition_arrangements((1,) * 6)


def test_arrangements_are_listed_without_permutations(monkeypatch):
    def refuse(*args):
        raise AssertionError("arrangements listed through r! permutations")

    monkeypatch.setattr(permutations.itertools, "permutations", refuse)
    _composition_arrangements.cache_clear()
    for lam, count in (((6, 6), 924), ((1,) * 7, 5040)):
        words = _composition_arrangements(lam)
        assert len(words) == count and words == sorted(set(words)), lam
        assert all(weight(w, len(lam)) == lam for w in words), lam
