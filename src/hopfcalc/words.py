"""Free group words over a fixed finite alphabet of generators.

A word is an immutable tuple of int letters, always kept freely reduced.
Generator ``i`` (0-based) contributes two letters: ``2*i`` for the
generator itself and ``2*i + 1`` for its inverse, so the inverse of any
letter is ``letter ^ 1`` and the shortlex order on words over the
alphabet g0 < g0^-1 < g1 < g1^-1 < ... is plain (length, tuple)
comparison of the int tuples.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence, Tuple

Word = Tuple[int, ...]

EMPTY: Word = ()


def positive_letter(gen: int) -> int:
    return 2 * gen


def generator_of(letter: int) -> int:
    return letter >> 1


def is_inverse(letter: int) -> bool:
    return bool(letter & 1)


def free_reduce(letters: Iterable[int]) -> Word:
    """Cancel adjacent mutually inverse letters until none remain."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def concat(*words: Sequence[int]) -> Word:
    """Product of freely reduced words, freely reduced.

    Only boundary cancellation is needed when the inputs are reduced,
    but feeding everything through ``free_reduce`` keeps this safe for
    arbitrary letter sequences too.
    """
    return free_reduce(chain.from_iterable(words))


def invert(word: Sequence[int]) -> Word:
    return tuple(x ^ 1 for x in reversed(word))


def power(word: Sequence[int], k: int) -> Word:
    base = tuple(word) if k >= 0 else invert(word)
    return concat(*[base] * abs(k))


def commutator(u: Sequence[int], v: Sequence[int]) -> Word:
    """u^-1 v^-1 u v."""
    return concat(invert(u), invert(v), u, v)


def cyclic_reduce(word: Sequence[int]) -> tuple[Word, Word]:
    """Strip matching first/last letters.

    Returns ``(core, conj)`` with ``word == concat(invert(conj), core, conj)``
    and ``core`` cyclically reduced.
    """
    w = free_reduce(word)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == w[hi - 1] ^ 1:
        lo += 1
        hi -= 1
    return w[lo:hi], w[hi:]


def exponent_vector(word: Sequence[int], n_generators: int) -> list[int]:
    """Image in Z^n under abelianization: net exponent of each generator."""
    vec = [0] * n_generators
    for x in word:
        vec[x >> 1] += -1 if x & 1 else 1
    return vec


def proper_power_root(word: Sequence[int]) -> tuple[Word, int]:
    """Largest k with word == root**k for a freely reduced word.

    Returns ``(root, k)``; for the empty word returns ``((), 1)``.
    Scans the divisors d of the length upwards: the word is the power of
    its first d letters exactly when shifting it by d letters leaves it
    unchanged, one tuple comparison.
    """
    w = tuple(word)
    n = len(w)
    if n == 0:
        return EMPTY, 1
    for d in range(1, n):
        if n % d == 0 and w[d:] == w[:-d]:
            return w[:d], n // d
    return w, 1
