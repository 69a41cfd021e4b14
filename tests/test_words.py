"""Free-group word algebra: fixed cases plus algebraic invariants."""

from hypothesis import given
from hypothesis import strategies as st

from hopfcalc import words

# three generators -> letters 0..5
letters = st.integers(min_value=0, max_value=5)
raw_words = st.lists(letters, max_size=30)


def test_letter_codec():
    assert words.positive_letter(0) == 0
    assert words.invert((words.positive_letter(0),)) == (1,)
    assert words.positive_letter(3) == 6
    assert words.invert((6,)) == (7,)
    assert words.invert((7,)) == (6,)
    assert words.generator_of(7) == 3
    assert words.is_inverse(7)
    assert not words.is_inverse(6)


def test_free_reduce_examples():
    assert words.free_reduce([]) == ()
    assert words.free_reduce([0, 1]) == ()
    assert words.free_reduce([0, 2, 3, 1]) == ()
    assert words.free_reduce([0, 0, 1]) == (0,)


def test_concat_and_invert():
    w = (0, 2)
    assert words.invert(w) == (3, 1)
    assert words.concat(w, words.invert(w)) == ()
    assert words.concat((0,), (1,), (2,)) == (2,)


def test_power():
    assert words.power((0,), 3) == (0, 0, 0)
    assert words.power((0,), -2) == (1, 1)
    assert words.power((0, 2), 0) == ()
    # only the boundary letters of a non-cyclically-reduced word cancel
    assert words.power((1, 2, 0), 3) == (1, 2, 2, 2, 0)
    assert words.power((1, 2, 0), -2) == (1, 3, 3, 0)


def test_commutator_and_conjugate():
    assert words.commutator((0,), (2,)) == (1, 3, 0, 2)
    # conjugation g^-1 w g written out with concat and invert
    assert words.concat(words.invert((2,)), (0,), (2,)) == (3, 0, 2)


def test_cyclic_reduce():
    core, conj = words.cyclic_reduce((3, 0, 0, 2))
    assert core == (0, 0)
    assert conj == (2,)
    assert words.concat(words.invert(conj), core, conj) == (3, 0, 0, 2)


def test_exponent_vector():
    assert words.exponent_vector((0, 0, 3), 2) == [2, -1]
    assert words.exponent_vector((), 2) == [0, 0]


def test_proper_power_root():
    assert words.proper_power_root((0, 0, 0)) == ((0,), 3)
    assert words.proper_power_root((0, 2)) == ((0, 2), 1)
    assert words.proper_power_root(()) == ((), 1)
    w = words.commutator((0,), (2,))
    assert words.proper_power_root(w + w) == (w, 2)


@given(raw_words)
def test_free_reduce_idempotent(w):
    r = words.free_reduce(w)
    assert words.free_reduce(r) == r


@given(raw_words)
def test_free_reduce_leaves_no_cancelling_pair(w):
    r = words.free_reduce(w)
    assert all(r[i + 1] != r[i] ^ 1 for i in range(len(r) - 1))


@given(raw_words, raw_words)
def test_concat_agrees_with_reduction(u, v):
    ru, rv = words.free_reduce(u), words.free_reduce(v)
    assert words.concat(ru, rv) == words.free_reduce(tuple(u) + tuple(v))


@given(raw_words)
def test_invert_involution_and_cancellation(w):
    r = words.free_reduce(w)
    assert words.invert(words.invert(r)) == r
    assert words.concat(r, words.invert(r)) == ()


@given(raw_words, raw_words)
def test_exponent_additivity(u, v):
    eu = words.exponent_vector(u, 3)
    ev = words.exponent_vector(v, 3)
    ec = words.exponent_vector(words.concat(u, v), 3)
    assert ec == [a + b for a, b in zip(eu, ev)]


@given(raw_words, st.integers(min_value=-4, max_value=4))
def test_power_scales_exponents(w, k):
    r = words.free_reduce(w)
    ew = words.exponent_vector(r, 3)
    assert words.exponent_vector(words.power(r, k), 3) == [k * e for e in ew]


@given(raw_words)
def test_cyclic_reduce_is_a_conjugation(w):
    core, conj = words.cyclic_reduce(w)
    assert words.concat(words.invert(conj), core, conj) == words.free_reduce(w)
    assert not (len(core) >= 2 and core[0] == core[-1] ^ 1)


@given(raw_words)
def test_proper_power_root_reconstructs(w):
    r = words.free_reduce(w)
    root, k = words.proper_power_root(r)
    assert root * k == r


def power_root_by_definition(w):
    """Largest k, and its root, with root * k == w, by trying every k."""
    n = len(w)
    for k in range(n, 0, -1):
        if n % k == 0 and w[: n // k] * k == w:
            return w[: n // k], k
    return (), 1


@given(raw_words, st.integers(min_value=1, max_value=4))
def test_proper_power_root_matches_the_power_definition(w, k):
    r = words.free_reduce(w)
    core, _ = words.cyclic_reduce(r)
    for word in ((), r, r * k, core * k):
        assert words.proper_power_root(word) == power_root_by_definition(word)
