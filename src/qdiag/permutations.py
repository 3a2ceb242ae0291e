"""Symmetric-group combinatorics on one-line words.

A permutation of {1..r} is a tuple of its values, e.g. ``(3, 1, 2)`` is the
word 312.  The composition convention is fixed so that generator words read
left to right: ``compose(s(3, 1), s(3, 2))`` is the word 312, i.e. 312 = s1 s2,
and right multiplication by s_i swaps the *values* i and i+1:

>>> compose(s(3, 1), s(3, 2))
(3, 1, 2)
>>> reduced_word(inverse((3, 1, 2)))
(2, 1)
>>> reduced_word((3, 2, 1))
(1, 2, 1)

Multi-indices are words over {1..d} with repeats allowed; ``standardize``
relabels one by 1..r preserving relative order, ties broken left to right.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import BoundExceeded, SizeMismatch

__all__ = [
    "identity", "s", "compose", "inverse", "length", "apply_gen", "descends",
    "reduced_word", "perm_of_word", "sign", "standardize",
    "all_perms", "multi_indices", "weight", "weight_blocks",
    "perm_str", "RANK_BOUND", "WEIGHT_BOUND",
]

RANK_BOUND = 6
WEIGHT_BOUND = 4096  # weights of degree-r words over {1..n}, C(n+r-1, r)

Perm = tuple  # one-line word of {1..r}


def identity(r: int) -> Perm:
    return tuple(range(1, r + 1))


def s(r: int, i: int) -> Perm:
    """The adjacent transposition s_i in S_r, 1 <= i <= r-1."""
    if not 1 <= i < r:
        raise ValueError(f"s_{i} not in S_{r}")
    word = list(range(1, r + 1))
    word[i - 1], word[i] = word[i], word[i - 1]
    return tuple(word)


def compose(a: Perm, b: Perm) -> Perm:
    """Product a.b: apply a first, then b (word of b composed after a)."""
    if len(a) != len(b):
        raise SizeMismatch(f"cannot compose S_{len(a)} with S_{len(b)}")
    return tuple(b[v - 1] for v in a)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for pos, v in enumerate(p):
        out[v - 1] = pos + 1
    return tuple(out)


def length(p: Perm) -> int:
    """Coxeter length = number of inversions of the word."""
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j])


def apply_gen(p: Perm, i: int) -> Perm:
    """Right multiplication p.s_i: swap the values i and i+1 in the word."""
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in p)


def descends(p: Perm, i: int) -> bool:
    """Is p.s_i shorter than p?  True iff value i+1 stands before value i."""
    return p.index(i + 1) < p.index(i)


@lru_cache(maxsize=None)
def reduced_word(p: Perm) -> tuple:
    """Lexicographically smallest reduced word (i_1, ..., i_k), p = s_i1...s_ik.

    At each step the smallest position descent i (p[i] > p[i+1]) is split off
    on the left, which yields the lexicographically least word overall.
    """
    word = []
    cur = list(p)
    changed = True
    while changed:
        changed = False
        for i in range(len(cur) - 1):
            if cur[i] > cur[i + 1]:
                word.append(i + 1)
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                changed = True
                break
    return tuple(word)


def perm_of_word(r: int, word) -> Perm:
    """Multiply out a generator word in S_r."""
    p = identity(r)
    for i in word:
        p = apply_gen(p, i)
    return p


def sign(p: Perm) -> int:
    return -1 if length(p) % 2 else 1


def standardize(w) -> Perm:
    """Relabel a repeated-letter word by 1..r, ties broken left to right.

    >>> standardize((2, 1, 1))
    (3, 1, 2)
    >>> standardize((1, 3, 2))
    (1, 3, 2)
    """
    order = sorted(range(len(w)), key=lambda k: (w[k], k))
    out = [0] * len(w)
    for rank, k in enumerate(order):
        out[k] = rank + 1
    return tuple(out)


def _check_rank(r: int):
    if r > RANK_BOUND:
        raise BoundExceeded(f"rank {r} exceeds bound {RANK_BOUND}")


def all_perms(r: int) -> list:
    """All permutations of S_r, lex: the arrangements of 1^r, a new list."""
    _check_rank(r)
    return list(_composition_arrangements((1,) * r))


def multi_indices(d: int, r: int) -> list:
    """All words of length r over {1..d}, lexicographic."""
    _check_rank(r)
    return [tuple(w) for w in itertools.product(range(1, d + 1), repeat=r)]


def weight(w, d: int) -> tuple:
    """Letter multiplicities of a word over {1..d}."""
    counts = [0] * d
    for v in w:
        counts[v - 1] += 1
    return tuple(counts)


def _tuple_sub(a: tuple, b: tuple):
    out = tuple(x - y for x, y in zip(a, b))
    return out if all(x >= 0 for x in out) else None


def weight_blocks(d: int, r: int) -> dict:
    """Partition of all words in {1..d}^r by weight, blocks in lex order."""
    blocks: dict = {}
    for w in multi_indices(d, r):
        blocks.setdefault(weight(w, d), []).append(w)
    return blocks


@lru_cache(maxsize=None)
def _composition_arrangements(lam: tuple) -> list:
    """The lex arrangements of a composition: each letter v that occurs, in
    order, followed by the arrangements of lambda with one v removed (the
    empty word alone where no letter is left)."""
    return [(v,) + word for v, k in enumerate(lam, start=1) if k
            for word in _composition_arrangements(
                lam[:v - 1] + (k - 1,) + lam[v:])] or [()]


def _arrangements(w: tuple) -> list:
    """All distinct words with the given weight, lexicographic (a new list).

    They are the arrangements of the composition w without its zero parts,
    relabelled through the letters that occur; the relabelling is increasing,
    so it keeps the lex order.
    """
    letters = [v for v, k in enumerate(w, start=1) if k]
    words = _composition_arrangements(tuple(w[v - 1] for v in letters))
    if len(letters) == len(w):
        return list(words)
    return [tuple(letters[a - 1] for a in word) for word in words]


def _weights(n: int, r: int) -> list:
    """All weights of degree-r words over {1..n}, n >= 1, reverse lex.

    A weight is r stars cut by n - 1 bars; the parts are the gaps between
    the bar positions, and reversed lex order of the bars is reverse lex
    order of the parts.
    """
    count = math.comb(n + r - 1, r)
    if count > WEIGHT_BOUND:
        raise BoundExceeded(
            f"{count} weights of degree {r} over {n} letters exceed "
            f"{WEIGHT_BOUND}")
    end = (n + r - 1,)
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + end))
            for bars in reversed(list(
                itertools.combinations(range(n + r - 1), n - 1)))]


def perm_str(p: Perm) -> str:
    """Digit-string rendering, e.g. (3, 1, 2) -> '312'."""
    return "".join(str(v) for v in p) if len(p) < 10 else ",".join(map(str, p))
