"""Knuth-Bendix completion and normal forms."""

import hashlib
import heapq
import itertools
import math
import weakref
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfcalc import rewrite, words
from hopfcalc.hopf import build_p_cover
from hopfcalc.presentation import Presentation, corpus, parse_presentation
from hopfcalc.rewrite import (
    _SEP,
    Budget,
    Overflow,
    RewriteSystem,
    dump_rules,
    enumerate_elements,
    group_order,
    initial_rules,
    knuth_bendix,
    normal_form,
    orient_relator,
    reduce_with_allowance,
)

Z6 = parse_presentation("gens: a\nrel: a^6\n", name="Z6")
S3 = parse_presentation("gens: a b\nrel: a^2\nrel: b^3\nrel: a*b*a*b\n", name="S3")
FREE2 = parse_presentation("gens: a b\n", name="F2")


def completed(pres, budget=Budget()):
    return knuth_bendix(initial_rules(pres), budget)


def test_budget_rejects_nonpositive_limits():
    with pytest.raises(ValueError):
        Budget(max_steps=0)
    with pytest.raises(ValueError):
        Budget(max_steps=-1)


def test_orient_relator():
    assert orient_relator(()) is None
    # conjugate of b: the core is the single letter
    assert orient_relator((1, 2, 0)) == ((2,), ())
    # odd power: positive half beats the inverted half on shortlex
    assert orient_relator((0, 0, 0)) == ((0, 0), (1,))
    # even power: both halves tie in length, inverse side is the lhs
    assert orient_relator((0, 0, 0, 0)) == ((1, 1), (0, 0))


def test_orient_relator_ignores_how_the_relator_was_written():
    r = words.commutator((0,), (2,))
    for rot in (r[i:] + r[:i] for i in range(len(r))):
        assert orient_relator(rot) == orient_relator(r)
    assert orient_relator(words.invert(r)) == orient_relator(r)


def rotation_orient(relator):
    """orient_relator's definition, spelled out rotation by rotation."""
    core, _ = words.cyclic_reduce(relator)
    if not core:
        return None
    best = None
    for base in (core, words.invert(core)):
        for rot in (base[i:] + base[:i] for i in range(len(base))):
            cut = (len(rot) + 1) // 2
            u, v = rot[:cut], words.invert(rot[cut:])
            lhs, rhs = (u, v) if (len(u), u) > (len(v), v) else (v, u)
            if best is None or (len(lhs), lhs, rhs) < (len(best[0]), best[0], best[1]):
                best = (lhs, rhs)
    return best


@given(
    st.lists(st.integers(min_value=0, max_value=5), max_size=24),
    st.integers(min_value=1, max_value=4),
)
def test_orient_relator_matches_the_rotation_definition(w, k):
    # w^k: the cover's p-th power relators repeat every |root| letters
    assert orient_relator(tuple(w) * k) == rotation_orient(tuple(w) * k)


def test_initial_rules_free_group_is_confluent():
    rws = initial_rules(FREE2)
    assert rws.confluent
    assert len(rws.rules) == 4
    assert normal_form(rws, (0, 2, 3, 1)) == ()


def test_initial_rules_with_relators_is_not_marked_confluent():
    assert not initial_rules(Z6).confluent


def test_completion_cyclic_group():
    rws = completed(Z6)
    assert rws.confluent
    assert not rws.limited
    assert group_order(rws, 100) == 6
    elements = enumerate_elements(rws, 6)
    assert len(set(elements)) == 6
    assert normal_form(rws, (0,) * 6) == ()
    assert normal_form(rws, (1,)) == normal_form(rws, (0,) * 5)


def test_completion_symmetric_group():
    rws = completed(S3)
    assert rws.confluent
    assert group_order(rws, 100) == 6
    # non-abelian: ab and ba have distinct normal forms
    assert normal_form(rws, (0, 2)) != normal_form(rws, (2, 0))
    for r in S3.relators:
        assert normal_form(rws, r) == ()


def test_enumerate_elements_cap():
    rws = completed(Z6)
    with pytest.raises(Overflow):
        enumerate_elements(rws, 5)


def test_enumerate_requires_confluence():
    rws = knuth_bendix(initial_rules(S3), Budget(max_steps=5))
    assert rws.limited
    assert not rws.confluent
    with pytest.raises(ValueError):
        enumerate_elements(rws, 100)


def test_group_order_unknown_for_infinite_group():
    rws = completed(FREE2)
    assert group_order(rws, 50) is None


def test_normal_form_is_read_only():
    rws = completed(Z6)
    before = rws.steps
    normal_form(rws, (0,) * 30)
    assert rws.steps == before


def test_normal_form_step_limit():
    rws = completed(Z6)
    assert reduce_with_allowance(rws, words.free_reduce((0,) * 60), 1) is None


def test_reduce_with_allowance_returns_its_rewrite_count():
    rws = completed(Z6)
    nf, spent = reduce_with_allowance(rws, (0,) * 12, 1000)
    assert nf == ()
    assert spent > 0
    assert reduce_with_allowance(rws, (0,) * 12, spent - 1) is None


@pytest.mark.parametrize("letter", [-1, 4, 255, 256])
def test_letters_outside_the_alphabet_are_rejected(letter):
    # S3 has two generators, so its letters are 0..3
    rws = completed(S3)
    with pytest.raises(ValueError, match="outside the alphabet"):
        reduce_with_allowance(rws, (0, letter), 10)
    with pytest.raises(ValueError, match="outside the alphabet"):
        normal_form(rws, (letter,))
    assert normal_form(rws, (3,)) == normal_form(rws, (2, 2))


def test_limited_completion_is_still_sound_for_trivial_words():
    # under a tiny budget the system stays partial but any word it does
    # send to the empty word really is trivial in the group
    rws = knuth_bendix(initial_rules(S3), Budget(max_steps=40))
    assert rws.limited
    reference = completed(S3)
    for w in itertools.product(range(4), repeat=4):
        if normal_form(rws, w) == ():
            assert normal_form(reference, w) == ()


def test_completion_stops_at_the_step_limit():
    stopped = completed(corpus("SL2_F3"), Budget(max_steps=3000))
    assert (len(stopped.rules), stopped.limited, stopped.confluent) == (40, True, False)
    assert group_order(stopped, 100) is None
    done = completed(corpus("SL2_F3"))
    assert (len(done.rules), done.limited, done.confluent) == (40, False, True)
    assert group_order(done, 100) == 24


def test_completion_drops_left_sides_over_the_length_limit(monkeypatch):
    # SL(2,3)'s confluent system has left sides of 4 letters, so a
    # limit of 3 drops rules it needs
    assert rewrite.MAX_RULE_LENGTH == 64
    done = completed(corpus("SL2_F3"))
    assert max(len(lhs) for lhs, _ in done.rules.values()) == 4
    monkeypatch.setattr(rewrite, "MAX_RULE_LENGTH", 3)
    short = completed(corpus("SL2_F3"))
    assert (short.limited, short.confluent) == (True, False)
    assert group_order(short, 100) is None


@pytest.mark.parametrize("name", ["SL2_F3", "GL2_Z", "PSL2_Z"])
def test_the_steps_bound_the_live_rules(name):
    # an insert charges two steps per other live rule, so L live rules
    # cost at least L(L-1) steps and the step budget caps L
    for pres in (corpus(name), build_p_cover(corpus(name), 5)):
        for steps in (3000, 120000):
            rws = completed(pres, Budget(max_steps=steps))
            live = len(rws.rules)
            assert live * (live - 1) <= rws.steps, (pres.name, steps)


def test_dump_rules_format():
    rws = completed(Z6)
    text = dump_rules(rws, Z6.generators)
    lines = text.splitlines()
    assert lines[0] == "# confluent: true"
    assert all(" -> " in line for line in lines[1:])
    assert text == dump_rules(rws, Z6.generators)


words3 = st.lists(st.integers(min_value=0, max_value=3), max_size=12)


@given(words3)
def test_normal_form_idempotent(w):
    rws = completed(S3)
    nf = normal_form(rws, w)
    assert normal_form(rws, nf) == nf


@given(words3, words3)
def test_confluent_normal_forms_are_a_congruence(u, v):
    rws = completed(S3)
    uv = normal_form(rws, words.concat(u, v))
    assert uv == normal_form(rws, words.concat(normal_form(rws, u), normal_form(rws, v)))


@given(words3)
def test_inverse_cancels_in_the_quotient(w):
    rws = completed(S3)
    assert normal_form(rws, words.concat(w, words.invert(w))) == ()


@lru_cache(maxsize=None)
def partial_cover():
    """A budget-limited SL2_F3 cover system that has retired rules."""
    rws = knuth_bendix(
        initial_rules(build_p_cover(corpus("SL2_F3"), 3)), Budget(max_steps=5000)
    )
    assert rws.limited and not rws.confluent
    return rws


def test_normal_form_does_not_charge_free_cancellation():
    rws = completed(Z6)
    w = (0, 1) * 30
    assert normal_form(rws, w) == ()
    assert reduce_with_allowance(rws, words.free_reduce(w), 0) == ((), 0)
    # left in, the inverse pairs are rewritten by the rules and counted
    assert reduce_with_allowance(rws, w, 0) is None


@given(words3, words3, words3, st.booleans())
def test_normal_form_is_reduce_with_allowance_of_the_free_reduction(u, v, x, partial):
    # u·v·v^-1·x cancels freely whatever u, v and x are
    rws = partial_cover() if partial else completed(S3)
    w = tuple(u) + tuple(v) + words.invert(v) + tuple(x)
    reduced = words.free_reduce(w)
    nf, spent = reduce_with_allowance(rws, reduced, 10**6)
    assert normal_form(rws, w) == nf
    # one count per rewrite: exactly spent is enough, and less is not
    assert reduce_with_allowance(rws, reduced, spent) == (nf, spent)
    for allowance in range(spent):
        assert reduce_with_allowance(rws, reduced, allowance) is None


def reference_reduce(rules, w):
    """Rewrite bytes w at the leftmost end of a match, shortest left side first.

    Returns the normal form and the number of rewrites, scanning the
    rule table ``rules`` (id -> (lhs, rhs)) from scratch after every
    rewrite.
    """
    table = sorted(rules.values(), key=lambda lr: len(lr[0]))
    steps = 0
    while True:
        for end in range(1, len(w) + 1):
            hit = next((lr for lr in table if w.endswith(lr[0], 0, end)), None)
            if hit is not None:
                break
        else:
            return tuple(w), steps
        lhs, rhs = hit
        w = w[:end - len(lhs)] + rhs + w[end:]
        steps += 1


def trie_leaves(rws):
    """The (left side, rule id) pairs the trie holds; no node may be empty.

    A node is a list with one slot per letter; a leaf is a rule id, in
    its parent node's slot for the left side's first letter; every node
    below the root has a slot that is not None.
    """
    found = set()
    width = 2 * rws.arity

    def walk(node, suffix):
        assert type(node) is list and len(node) == width
        for letter, child in enumerate(node):
            if child is None:
                continue
            if type(child) is int:
                found.add((bytes([letter]) + suffix, child))
            else:
                assert child.count(None) < width, "emptied trie node left behind"
                walk(child, bytes([letter]) + suffix)

    walk(rws._trie, b"")
    return found


def assert_both_reducers_match_the_reference(rws, w):
    """The trie walk (``_nf`` before it switches) and the prefix automaton
    give the reference normal form of the freely reduced w, charging its
    rewrite count."""
    w = bytes(words.free_reduce(w))
    expected = reference_reduce(rws.rules, w)
    # _nf charges rws.steps and counts down rws._walk_left; both are
    # restored, since partial_cover() is shared.  With _walk_left at inf,
    # _nf walks the trie.
    saved = rws.steps, rws._walk_left
    rws._walk_left = math.inf
    try:
        nf = rws._nf(w)
        assert (tuple(nf), rws.steps - saved[0]) == expected
    finally:
        rws.steps, rws._walk_left = saved
    assert reduce_with_allowance(rws, tuple(w), 10**6) == expected


def assert_trie_holds_exactly_the_live_rules(rws):
    assert trie_leaves(rws) == {(lhs, rid) for rid, (lhs, _) in rws.rules.items()}
    for lhs, _ in rws.rules.values():
        assert_both_reducers_match_the_reference(rws, tuple(lhs))


def test_partial_cover_index_holds_exactly_the_live_rules():
    rws = partial_cover()
    assert (len(rws.rules), rws._next_id) == (60, 77)
    assert_trie_holds_exactly_the_live_rules(rws)


@given(st.data())
def test_rule_index_matches_a_reference_reducer(data):
    # words glued from letters and whole left sides reach long rules
    # that random letters seldom spell
    rws = partial_cover()
    lefts = sorted(lhs for lhs, _ in rws.rules.values())
    piece = st.one_of(
        st.integers(min_value=0, max_value=3).map(lambda x: (x,)),
        st.sampled_from(lefts).map(tuple),
    )
    w = sum(data.draw(st.lists(piece, max_size=8)), ())
    assert_both_reducers_match_the_reference(rws, w)


@pytest.mark.parametrize(
    "name, p, steps, rules, digest",
    [
        ("PSL2_Z", 2, 20000, 82,
         "83c98bf68794fc058bb88181f6f3446a12f4f0b4b9b8a28f870649c7433eedd7"),
        ("GL2_Z", 5, 20110, 118,
         "7430313c493fbd7a70ee40a4dd613f64d280ea021cfb788b10c52284ee80b8e3"),
    ],
)
def test_completion_trace_is_pinned(name, p, steps, rules, digest):
    # the overlap queue's order decides which rules a budget-limited
    # completion reaches; these values pin it
    cover = build_p_cover(corpus(name), p)
    rws = knuth_bendix(initial_rules(cover), Budget(max_steps=20000))
    assert rws.steps == steps
    assert len(rws.rules) == rules
    text = dump_rules(rws, cover.generators)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def live_affixes(rws):
    """Proper prefix and proper suffix of each live left side -> rule ids."""
    prefixes, suffixes = {}, {}
    for rid, (lhs, _) in rws.rules.items():
        for k in range(1, len(lhs)):
            prefixes.setdefault(lhs[:k], set()).add(rid)
            suffixes.setdefault(lhs[-k:], set()).add(rid)
    return prefixes, suffixes


def held_ids(index):
    """An affix index as {affix: set of ids}.

    Every entry must be a non-empty list of distinct ids, so an emptied
    entry left behind fails here.
    """
    held = {}
    for affix, ids in index.items():
        assert type(ids) is list and ids and len(ids) == len(set(ids))
        held[affix] = set(ids)
    return held


def test_overlap_index_holds_exactly_the_live_affixes():
    # the suffix index is checked after every insert, since knuth_bendix
    # releases it; the prefix index on the finished systems
    original = RewriteSystem._insert
    inserts = []

    def insert(self, lhs, rhs):
        original(self, lhs, rhs)
        assert held_ids(self._suffixes) == live_affixes(self)[1]
        inserts.append(lhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "_insert", insert)
        # partial_cover's own completion, uncached, so its inserts are seen
        partial = partial_cover.__wrapped__()
        full = completed(corpus("SL2_F3"))
        full_cover = completed(build_p_cover(corpus("SL2_F2"), 2))
    assert inserts
    for rws in (partial, full, full_cover):
        assert rws._next_id > len(rws.rules), "no rule was retired"
        assert held_ids(rws._prefixes) == live_affixes(rws)[0]
        assert rws._suffixes == {}
    assert full.confluent and full_cover.confluent


# a random 1-2 generator presentation, or its 2- or 3-cover, and a
# completion budget
small_completion_args = (
    st.integers(min_value=1, max_value=2).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(min_value=0, max_value=2 * n - 1), max_size=7),
                min_size=1,
                max_size=3,
            ),
        )
    ),
    st.sampled_from([None, 2, 3]),
    st.integers(min_value=20, max_value=1500),
)
small_completions = given(*small_completion_args)


def small_presentation(shape, p):
    arity, relators = shape
    pres = Presentation(
        generators=("a", "b")[:arity],
        relators=tuple(words.free_reduce(tuple(r)) for r in relators),
    )
    return pres if p is None else build_p_cover(pres, p)


def glued_word(data, rws):
    """A word glued from letters and whole left sides, not freely reduced."""
    lefts = sorted(lhs for lhs, _ in rws.rules.values())
    piece = st.one_of(
        st.integers(min_value=0, max_value=2 * rws.arity - 1).map(lambda x: bytes([x])),
        st.sampled_from(lefts),
    )
    return b"".join(data.draw(st.lists(piece, max_size=6)))


@given(*small_completion_args, st.data())
def test_prefix_automaton_applies_the_reference_rewrites(shape, p, steps, data):
    # partial and complete systems
    rws = knuth_bendix(initial_rules(small_presentation(shape, p)), Budget(max_steps=steps))
    w = glued_word(data, rws)
    nf, applied = reference_reduce(rws.rules, w)
    automaton = rws._reducer()
    assert automaton.reduce(w) == (bytes(nf), applied)
    assert automaton.reduce(w, 0, applied) == (bytes(nf), applied)
    for limit in range(applied):
        assert automaton.reduce(w, 0, limit) is None


@given(*small_completion_args, st.data())
def test_prefix_automaton_resumes_from_every_snapshot(shape, p, steps, data):
    # partial and complete systems; a snapshot at b is taken from w and
    # resumed on w and on v, a word with the same first b letters
    rws = knuth_bendix(initial_rules(small_presentation(shape, p)), Budget(max_steps=steps))
    automaton = rws._reducer()
    w = glued_word(data, rws)
    tail = glued_word(data, rws)
    fresh = automaton.reduce(w)
    marks = dict.fromkeys(range(len(w) + 1))
    assert automaton.reduce(w, marks=marks) == fresh
    for b, snapshot in marks.items():
        v = w[:b] + tail
        alone = {b: None}
        assert automaton.reduce(v, marks=alone) == automaton.reduce(v)
        assert alone[b] == snapshot
        assert automaton.reduce(w, resume=(b, snapshot)) == fresh
        assert automaton.reduce(v, resume=(b, snapshot)) == automaton.reduce(v)
        # a limit below the prefix's rewrites runs out inside the prefix
        prefix_applied, applied = snapshot[2], fresh[1]
        for limit in {-1, prefix_applied - 1, prefix_applied, applied - 1, applied}:
            assert automaton.reduce(w, 0, limit, (b, snapshot)) == automaton.reduce(
                w, 0, limit
            )


def automaton_hits(rws, w):
    """(normal form, ids of the rules applied in order), by the prefix automaton's ``step``."""
    step = rws._reducer().step
    out, states, hits = bytearray(), [0], []
    pending = bytearray(w[::-1])
    while pending:
        x = pending.pop()
        t = step(states[-1], x)
        if t >= 0:
            out.append(x)
            states.append(t)
        else:
            hits.append(~t)
            lhs, rhs = rws.rules[~t]
            del out[len(out) - len(lhs) + 1:]
            del states[len(states) - len(lhs) + 1:]
            pending += rhs[::-1]
    return bytes(out), hits


def trie_walk_hits(rws, w):
    """(normal form, ids of the rules applied in order), by a walk of the trie.

    After each appended letter the trie is walked back from it, and the
    first rule id met is rewritten at once.
    """
    out, hits = bytearray(), []
    pending = bytearray(w[::-1])
    while pending:
        out.append(pending.pop())
        node = rws._trie
        for x in reversed(out):
            node = node[x]
            if node is None:
                break
            if type(node) is int:
                hits.append(node)
                lhs, rhs = rws.rules[node]
                del out[len(out) - len(lhs):]
                pending += rhs[::-1]
                break
    return bytes(out), hits


@given(*small_completion_args, st.data())
def test_both_reducers_fire_the_same_rule(shape, p, steps, data):
    # the same normal form could come from different rules; the ids
    # must agree rewrite by rewrite
    rws = knuth_bendix(initial_rules(small_presentation(shape, p)), Budget(max_steps=steps))
    w = glued_word(data, rws)
    assert automaton_hits(rws, w) == trie_walk_hits(rws, w)


def reference_state(rws, word):
    """The longest suffix of word that is a proper prefix of a left side."""
    prefixes = {lhs[:k] for lhs, _ in rws.rules.values() for k in range(len(lhs))}
    return next(word[i:] for i in range(len(word) + 1) if word[i:] in prefixes)


def reference_transition(rws, word, x):
    """The automaton's transition from state ``word`` on x, by brute force.

    ~rid when a left side ends word·x, else the longest suffix of
    word·x that is a proper prefix of a left side.
    """
    s = word + bytes([x])
    for rid, (lhs, _) in rws.rules.items():
        if s.endswith(lhs):
            return ~rid
    return reference_state(rws, s)


def assert_every_cached_transition_matches_a_reference(rws, automaton):
    """Every row has 2·arity slots, every filled slot is the brute-force
    transition on ``rws.rules`` as they stand, and every failure state
    is the state of the word less its first letter."""
    width = 2 * rws.arity
    assert len(automaton._delta) == len(automaton._words) == len(automaton._fail)
    for state, row in enumerate(automaton._delta):
        word = automaton._words[state]
        assert automaton._words[automaton._fail[state]] == reference_state(rws, word[1:])
        assert type(row) is list and len(row) == width
        for x, t in enumerate(row):
            if t is None:
                continue
            expected = reference_transition(rws, word, x)
            assert (t if t < 0 else automaton._words[t]) == expected


@given(*small_completion_args, st.data())
def test_every_cached_transition_matches_a_reference(shape, p, steps, data):
    # partial and complete systems; counting fills rows letter by letter,
    # a glued word reaches deep states
    rws = knuth_bendix(initial_rules(small_presentation(shape, p)), Budget(max_steps=steps))
    automaton = rws._reducer()
    if rws.confluent:
        group_order(rws, 200)
    automaton.reduce(glued_word(data, rws))
    assert_every_cached_transition_matches_a_reference(rws, automaton)


def checking_nf(reductions):
    """A ``_nf`` that, whenever it reduced through a live automaton, checks
    every cached row of it against the rules as they stand, and logs
    those calls in ``reductions``."""
    original = RewriteSystem._nf

    def nf(self, word, irreducible=0):
        out = original(self, word, irreducible)
        if self._automaton is not None:
            assert_every_cached_transition_matches_a_reference(self, self._automaton)
            reductions.append(len(word))
        return out

    return nf


@pytest.mark.parametrize("letters_per_prefix", [0, rewrite._LETTERS_PER_PREFIX])
@small_completions
def test_completion_reduces_through_an_automaton_of_the_current_rules(
    letters_per_prefix, shape, p, steps
):
    # an insert renormalizes right sides after indexing the new left
    # side's affixes, so an automaton built then, and kept, is not stale;
    # at 0 letters a prefix every _nf after an insert, the renormalizing
    # ones included, reduces through the automaton
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "_LETTERS_PER_PREFIX", letters_per_prefix)
        mp.setattr(RewriteSystem, "_nf", checking_nf([]))
        knuth_bendix(initial_rules(small_presentation(shape, p)), Budget(max_steps=steps))


@pytest.mark.parametrize(
    "name, p, budget, steps, rules, confluent, digest",
    [
        ("PSL2_Z", 2, Budget(max_steps=100000), 100006, 146, False,
         "b869fc44c8486348cd5ff9467c0028493139eac9c766de3e71a169ce884a13de"),
        ("SL2_F3", 3, Budget(), 196580, 132, True,
         "6e1791ab0945552f246fe2d09e041b47a051f22d65c27f5651c3118df1c27a6f"),
    ],
)
def test_completions_that_switch_to_the_automaton_are_pinned(
    name, p, budget, steps, rules, confluent, digest
):
    # long enough between inserts for _nf to switch to the automaton;
    # the values are those of a completion that only walks the trie
    cover = build_p_cover(corpus(name), p)
    switched = []
    original = RewriteSystem._reducer

    def reducer(self):
        switched.append(self.steps)
        return original(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "_reducer", reducer)
        rws = knuth_bendix(initial_rules(cover), budget)
    assert switched, "the automaton branch never ran"
    assert (rws.steps, len(rws.rules), rws.confluent) == (steps, rules, confluent)
    text = dump_rules(rws, cover.generators)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_left_sides_thousands_of_letters_long_reduce_without_recursion():
    # a^6001 orients to a^3001 -> A^3000: 3001 automaton states deep, and
    # the transition from a^3000 on b goes down a failure chain of 3000
    rws = initial_rules(parse_presentation("gens: a b\nrel: a^6001\n"))
    assert (b"\x00" * 3001, b"\x01" * 3000) in rws.rules.values()
    deep = (0,) * 3000 + (2,)
    assert normal_form(rws, deep) == deep
    assert normal_form(rws, (0,) * 6002 + (2,)) == (0, 2)
    assert reduce_with_allowance(rws, (0,) * 6001, 3001) == ((), 3001)
    # inside completion: with a and b commuting, the pair of ba -> ab and
    # a^3001 reduces a·b·a^3000 to a^3001·b, through a^3001.  That pair
    # comes before the walk has fed enough to switch, so the switch is
    # set to come at once; the completion must take the course of one
    # that only walks the trie
    pres = parse_presentation("gens: a b\nrel: a^6001\nrel: b*a*b^-1*a^-1\n")
    budget = Budget(max_steps=30000)
    depths = []
    original = RewriteSystem._reducer

    def reducer(self):
        automaton = original(self)
        depths.append(max(map(len, automaton._words)))
        return automaton

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "_LETTERS_PER_PREFIX", 0)
        mp.setattr(RewriteSystem, "_reducer", reducer)
        switched = knuth_bendix(initial_rules(pres), budget)
    assert max(depths) == 3000
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "_LETTERS_PER_PREFIX", math.inf)
        walked = knuth_bendix(initial_rules(pres), budget)
    assert (switched.steps, switched.rules) == (walked.steps, walked.rules)


def test_a_long_left_side_gives_the_reference_transitions():
    # the same shape, small enough for the brute-force reference
    pres = parse_presentation("gens: a b\nrel: a^61\nrel: b*a*b^-1*a^-1\n")
    reductions = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "_LETTERS_PER_PREFIX", 0)
        mp.setattr(RewriteSystem, "_nf", checking_nf(reductions))
        rws = knuth_bendix(initial_rules(pres), Budget(max_steps=3000))
    assert reductions, "the automaton branch never ran"
    automaton = rws._reducer()
    automaton.reduce(b"\x00" * 30 + b"\x02" + b"\x00" * 61)
    assert max(map(len, automaton._words)) == 30
    assert_every_cached_transition_matches_a_reference(rws, automaton)


def test_an_insert_drops_the_prefix_automaton():
    rws = RewriteSystem(1)  # a = 0, A = 1
    a7 = (0,) * 7
    assert reduce_with_allowance(rws, a7, 0) == (a7, 0)
    assert rws._automaton is not None
    rws._insert(b"\x00\x00\x00", b"\x01")  # aaa -> A
    assert rws._automaton is None
    assert_both_reducers_match_the_reference(rws, a7)
    assert reduce_with_allowance(rws, a7, 10) == ((1,), 3)


def test_left_sides_of_one_letter_reduce_like_the_reference():
    # a -> ε and A -> ε beside longer left sides: a hit keeps no letter
    # of the output
    rws = completed(parse_presentation("gens: a b\nrel: a\nrel: b^3\n"))
    assert {len(lhs) for lhs, _ in rws.rules.values()} == {1, 2}
    for n in range(6):
        for w in itertools.product(range(4), repeat=n):
            assert_both_reducers_match_the_reference(rws, w)
    assert group_order(rws, 10) == 3


def all_pairs_overlaps(rws, rid):
    """The pushes of an all-pairs scan after rule rid is installed.

    Against every other live rule in id order: each k with a proper
    suffix of the new left side equal to a proper prefix of the other,
    then the other way round, k ascending; then rid against itself.
    """
    def overlaps(i, j):
        li, lj = rws.rules[i][0], rws.rules[j][0]
        return [(i, j, k) for k in range(1, min(len(li), len(lj))) if li[-k:] == lj[:k]]

    out = []
    for other in sorted(rws.rules):
        if other != rid:
            out += overlaps(rid, other) + overlaps(other, rid)
    return out + overlaps(rid, rid)


def queued_ids(bucket):
    """The (i, j) pairs of a bucket's rule ids, two ids a pair."""
    return list(zip(bucket[::2], bucket[1::2]))


def bucket_tails(rws, sizes):
    """{length: the entries appended to that bucket since ``sizes``, the bucket sizes, were read}.

    A bucket holds no k; each entry is decoded as (i, j, k) with
    k = |l_i| + |l_j| - length, which needs both rules live.
    """
    tails = {}
    for length, bucket in enumerate(rws._pairs):
        start = sizes[length] if length < len(sizes) else 0
        if len(bucket) > start:
            tails[length] = [
                (i, j, len(rws.rules[i][0]) + len(rws.rules[j][0]) - length)
                for i, j in queued_ids(bucket[start:])
            ]
    return tails


def overlap_pushes(pres, steps):
    """(pushed, reference) for each insert of a budget-limited completion.

    The entries an insert pushes are the tails it appends to the pair
    buckets, which no pop shortens within one insert.  Both sides map
    each overlap length to its entries in push order, the reference
    computing the length as |l_i| + |l_j| - k, so a pair in the wrong
    bucket fails the comparison.
    """
    log = []
    original = RewriteSystem._insert

    def insert(self, lhs, rhs):
        sizes, rid = [len(bucket) for bucket in self._pairs], self._next_id
        original(self, lhs, rhs)
        pushed = bucket_tails(self, sizes)
        expected = {}
        if self._next_id > rid:
            for i, j, k in all_pairs_overlaps(self, rid):
                length = len(self.rules[i][0]) + len(self.rules[j][0]) - k
                expected.setdefault(length, []).append((i, j, k))
        log.append((pushed, expected))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "_insert", insert)
        knuth_bendix(initial_rules(pres), Budget(max_steps=steps))
    return log


@small_completions
def test_overlap_index_pushes_what_an_all_pairs_scan_pushes(shape, p, steps):
    pres = small_presentation(shape, p)
    for pushed, expected in overlap_pushes(pres, steps):
        assert pushed == expected


@small_completions
def test_buckets_pop_in_the_order_of_a_length_then_push_number_heap(shape, p, steps):
    pres = small_presentation(shape, p)
    events = []
    # (buckets, heads, count) as the last insert or pop left them, which
    # is how knuth_bendix finds them when it releases them: the release
    # rebinds _pairs and _heads, so the lists held here keep the buckets
    released = []
    insert, pop = RewriteSystem._insert, RewriteSystem._pop_pair

    def logged_insert(self, lhs, rhs):
        sizes = [len(bucket) for bucket in self._pairs]
        insert(self, lhs, rhs)
        # across lengths the push order cannot change a heap's pops
        for length, tail in sorted(bucket_tails(self, sizes).items()):
            events.extend(("push", length, entry) for entry in tail)
        released[:] = [self._pairs, self._heads, self._queued]

    def logged_pop(self, max_steps):
        queued = [bucket[h:] for bucket, h in zip(self._pairs, self._heads)]
        steps = self.steps
        pair = pop(self, max_steps)
        # no push comes within a pop, so what a bucket holds from its head
        # on is the end of what it held before, and the rest was consumed
        taken = [
            (length, i, j)
            for length, (before, bucket, h) in enumerate(zip(queued, self._pairs, self._heads))
            for i, j in queued_ids(before[: len(before) - (len(bucket) - h)])
        ]
        # one step a pair taken, and a run of dead pairs stops at the budget
        assert self.steps - steps == len(taken)
        assert self.steps <= max_steps
        assert pair is not None or not self._queued or self.steps == max_steps
        dead = taken if pair is None else taken[:-1]
        assert all(i not in self.rules or j not in self.rules for _, i, j in dead)
        events.append(("pop", taken, pair))
        released[:] = [self._pairs, self._heads, self._queued]
        return pair

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "_insert", logged_insert)
        mp.setattr(RewriteSystem, "_pop_pair", logged_pop)
        rws = knuth_bendix(initial_rules(pres), Budget(max_steps=steps))
    heap, pushes = [], 0
    for kind, *event in events:
        if kind == "push":
            length, entry = event
            heapq.heappush(heap, (length, pushes, *entry))
            pushes += 1
        else:
            taken, pair = event
            # every consumed entry, dead pairs included, is the heap's next
            popped = [heapq.heappop(heap) for _ in taken]
            assert [(length, i, j) for length, _, i, j, _ in popped] == taken
            if pair is not None:
                assert popped[-1][2:] == pair
    assert (rws._pairs, rws._heads, rws._queued, rws._sides, rws._starts, rws._ids) == (
        [], [], 0, None, None, None
    )
    pairs, heads, queued = released
    assert queued == len(heap)
    remaining = [
        (length, i, j)
        for length, (bucket, h) in enumerate(zip(pairs, heads))
        for i, j in queued_ids(bucket[h:])
    ]
    assert remaining == [(length, i, j) for length, _, i, j, _ in sorted(heap)]


def test_the_queue_keeps_8_bytes_a_pair_and_knuth_bendix_releases_it():
    pres = build_p_cover(S3, 3)
    buckets = []
    pop = RewriteSystem._pop_pair

    def checked_pop(self, max_steps):
        held = 0
        for bucket, h in zip(self._pairs, self._heads):
            assert (bucket.typecode, bucket.itemsize) == ("I", 4)
            # a bucket whose head reached its end was emptied for reuse
            assert h < len(bucket) or (h, len(bucket)) == (0, 0)
            held += (len(bucket) - h) * bucket.itemsize
        assert held == 8 * self._queued
        buckets[:] = [weakref.ref(bucket) for bucket in self._pairs]
        return pop(self, max_steps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "_pop_pair", checked_pop)
        rws = knuth_bendix(initial_rules(pres), Budget(max_steps=3000))
    assert rws.limited and buckets
    assert (rws._pairs, rws._heads, rws._queued) == ([], [], 0)
    assert all(ref() is None for ref in buckets), "a bucket outlived the completion"


def test_a_rule_id_of_2_to_the_32_is_refused_when_queued():
    rws = RewriteSystem(1)  # a = 0, A = 1
    # aaa overlaps itself and aA, so its insert queues its own id
    rws._next_id = 2**32 - 1
    rws._insert(b"\x00\x00\x00", b"\x01")
    assert max(max(bucket) for bucket in rws._pairs if bucket) == 2**32 - 1
    rws = RewriteSystem(1)
    rws._next_id = 2**32
    with pytest.raises(OverflowError):
        rws._insert(b"\x00\x00\x00", b"\x01")


def test_a_second_completion_of_a_limited_system_is_not_confluent():
    rws = knuth_bendix(initial_rules(S3), Budget(max_steps=5))
    assert rws.limited and not rws.confluent
    assert not rws._pending and not rws._queued
    # the first call released its pending equations and unpopped pairs,
    # so the second one finds nothing to do
    rules, steps = dict(rws.rules), rws.steps
    knuth_bendix(rws, Budget())
    assert (rws.rules, rws.steps) == (rules, steps)
    assert not rws._pending and not rws._queued
    assert not rws.confluent


@small_completions
def test_interreduction_buffer_is_dropped_or_the_join_of_the_live_sides(shape, p, steps):
    pres = small_presentation(shape, p)
    original = RewriteSystem._insert

    def insert(self, lhs, rhs):
        before = dict(self.rules)
        original(self, lhs, rhs)
        after = {rid: rule for rid, rule in self.rules.items() if rid in before}
        if self._sides is None:
            assert after != before, "the buffer was dropped though no rule changed"
            assert (self._starts, self._ids) == (None, None)
        else:
            assert after == before
            assert self._sides == _SEP.join(itertools.chain.from_iterable(self.rules.values()))
            # each live rule's start in the join, and its id, in id order
            assert self._ids == sorted(self.rules)
            assert len(self._starts) == len(self.rules)
            at = 0
            for start, (l, r) in zip(self._starts, self.rules.values()):
                assert start == at
                assert self._sides[at:at + len(l) + 1 + len(r)] == l + _SEP + r
                at += len(l) + len(r) + 2

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "_insert", insert)
        knuth_bendix(initial_rules(pres), Budget(max_steps=steps))


class LoggedRules(dict):
    """A rule store that logs every install and retirement, in order.

    A new rule's left side must neither contain a live one nor be
    contained in one when it goes in: the left sides stay an antichain.
    """

    def __init__(self, rules):
        super().__init__(rules)
        self.log = []

    def __setitem__(self, rid, rule):
        if rid not in self:
            lhs = rule[0]
            assert not any(lhs in l or l in lhs for l, _ in self.values())
        self.log.append(("set", rid, rule))
        super().__setitem__(rid, rule)

    def pop(self, rid):
        self.log.append(("pop", rid))
        return super().pop(rid)


def reference_insert(rules, lhs, rhs, rid):
    """(store log, pending entries, steps) of installing lhs -> rhs as rid.

    Interreduction by scans of every live rule in id order: first each
    rule with lhs in its left side is retired and queued; then lhs is
    installed; then each rule with lhs in its right side has that side
    renormalized.  The steps are the rewrites plus the overlap queue's
    charge.  lhs must not be installed already.
    """
    live = dict(rules)
    log, pending, steps = [], [], 0
    for other in sorted(rules):
        l, r = live[other]
        if lhs in l:
            del live[other]
            log.append(("pop", other))
            pending.append((l, r))
    assert not any(lhs in l or l in lhs for l, _ in live.values())
    live[rid] = (lhs, rhs)
    log.append(("set", rid, (lhs, rhs)))
    for other in sorted(live):
        l, r = live[other]
        if other != rid and lhs in r:
            nf, applied = reference_reduce(live, r)
            live[other] = (l, bytes(nf))
            log.append(("set", other, live[other]))
            steps += applied
    return log, pending, steps + 2 * (len(live) - 1)


def checked_insert(rws, lhs, rhs, insert=RewriteSystem._insert):
    """Install lhs -> rhs, asserting it does what reference_insert says."""
    if type(rws.rules) is not LoggedRules:
        rws.rules = LoggedRules(rws.rules)
    expected = reference_insert(dict(rws.rules), lhs, rhs, rws._next_id)
    rws.rules.log.clear()
    pending, steps = len(rws._pending), rws.steps
    insert(rws, lhs, rhs)
    assert (rws.rules.log, list(rws._pending)[pending:], rws.steps - steps) == expected


def test_interreduction_renormalizes_a_right_side_that_alone_holds_the_lhs():
    rws = RewriteSystem(2)
    checked_insert(rws, b"\x02\x02\x02", b"\x00\x00")
    rid = rws._next_id - 1
    checked_insert(rws, b"\x00\x00", b"\x01")
    assert rws.rules[rid] == (b"\x02\x02\x02", b"\x01")
    assert not rws._pending


def test_interreduction_retires_a_rule_with_the_lhs_on_both_sides():
    rws = RewriteSystem(2)
    checked_insert(rws, b"\x00\x00\x02\x02\x02", b"\x00\x00\x02")
    rid = rws._next_id - 1
    checked_insert(rws, b"\x00\x00", b"")
    # retired as it stood, its right side not renormalized first
    assert rid not in rws.rules
    assert list(rws._pending) == [(b"\x00\x00\x02\x02\x02", b"\x00\x00\x02")]


def test_interreduction_sees_through_a_separator_collision():
    # with 128 generators the last letter is the separator's byte
    rws = RewriteSystem(128)
    checked_insert(rws, b"\x02\xff\x02", b"\xff")
    # 0 1 | 255 crosses from rule 0's left side into the separator:
    # the joined search matches, and no rule holds the left side
    sides = _SEP.join(itertools.chain.from_iterable(rws.rules.values()))
    assert b"\x01\xff" in sides
    rules = dict(rws.rules)
    checked_insert(rws, b"\x01\xff", b"\x03")
    assert {rid: rule for rid, rule in rws.rules.items() if rid in rules} == rules
    # a genuine match on letter 255 retires the rule that holds it
    checked_insert(rws, b"\xff\x02", b"\x04")
    assert (b"\x02\xff\x02", b"\xff") not in rws.rules.values()
    assert list(rws._pending) == [(b"\x02\xff\x02", b"\xff")]
    # a false match in rule 0 comes before a genuine one in a later
    # rule: the walk passes rule 0 and still retires the later rule
    rws = RewriteSystem(128)
    checked_insert(rws, b"\x02\x01\xff", b"\x04")
    later = rws._next_id - 1
    assert rws._sides.find(b"\x01\xff") < rws._starts[1]
    checked_insert(rws, b"\x01\xff", b"\x03")
    assert later not in rws.rules and 0 in rws.rules
    assert list(rws._pending) == [(b"\x02\x01\xff", b"\x04")]


def test_at_most_128_generators():
    with pytest.raises(ValueError, match="at most 128 generators"):
        RewriteSystem(129)
    gens = " ".join(f"g{i}" for i in range(129))
    with pytest.raises(ValueError, match="at most 128 generators"):
        initial_rules(parse_presentation(f"gens: {gens}\nrel: g0*g128\n"))
    assert len(RewriteSystem(128).rules) == 256


@small_completions
def test_interreduction_matches_an_all_rules_scan(shape, p, steps):
    pres = small_presentation(shape, p)
    original = RewriteSystem._insert

    def insert(self, lhs, rhs):
        # every left side comes from a normal form or from the distinct
        # inverse pairs, so it is never installed already
        assert lhs not in {l for l, _ in self.rules.values()}
        checked_insert(self, lhs, rhs, original)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "_insert", insert)
        knuth_bendix(initial_rules(pres), Budget(max_steps=steps))


@small_completions
def test_pair_prefixes_are_irreducible_and_skipping_them_changes_nothing(shape, p, steps):
    pres = small_presentation(shape, p)
    original = RewriteSystem._equation

    def equation(self, u, v, u_irreducible=0, v_irreducible=0):
        for w, k in ((u, u_irreducible), (v, v_irreducible)):
            assert reference_reduce(self.rules, w[:k]) == (tuple(w[:k]), 0)
            # both reductions charge self.steps; it is restored so that
            # the completion takes its own course
            steps = self.steps
            skipping = self._nf(w, k)
            skipping_charge = self.steps - steps
            scratch = self._nf(w)
            scratch_charge = self.steps - steps - skipping_charge
            self.steps = steps
            assert skipping == scratch
            assert skipping_charge == scratch_charge
        return original(self, u, v, u_irreducible, v_irreducible)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "_equation", equation)
        knuth_bendix(initial_rules(pres), Budget(max_steps=steps))


def test_the_rules_a_left_side_ends_are_retired_before_its_leaf_goes_in():
    rws = RewriteSystem(2)  # a = 0, A = 1, b = 2, B = 3
    checked_insert(rws, b"\x00\x02\x02", b"\x01")  # abb -> A
    checked_insert(rws, b"\x02\x02\x02", b"\x00\x00")  # bbb -> aa
    checked_insert(rws, b"\x02\x02\x00", b"")  # bba -> ε
    checked_insert(rws, b"\x00\x00\x00\x00", b"\x02\x02")  # aaaa -> bb
    # the branch of the left sides ending in bb, next to Bb's leaf
    assert type(rws._trie[2][2]) is list and type(rws._trie[2][3]) is int
    retired = []
    original = RewriteSystem._retire

    def retire(self, rid):
        lhs, _ = self.rules[rid]
        node = self._trie
        for x in lhs[:0:-1]:
            node = node[x]
            assert type(node) is list
        assert node[lhs[0]] == rid
        retired.append(lhs)
        original(self, rid)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "_retire", retire)
        checked_insert(rws, b"\x02\x02", b"")  # bb -> ε ends abb and bbb
    assert retired == [b"\x00\x02\x02", b"\x02\x02\x02", b"\x02\x02\x00"]
    rid = rws._next_id - 1
    assert rws._trie[2][2] == rid and type(rws._trie[2][3]) is int
    # abb, bbb and bba retired; aaaa's right side renormalized
    assert list(rws.rules.values())[4:] == [(b"\x00\x00\x00\x00", b""), (b"\x02\x02", b"")]
    assert_trie_holds_exactly_the_live_rules(rws)


def test_retiring_rule_zero_keeps_or_prunes_its_node_by_its_slots():
    # rule 0 is aA -> ε, a false leaf in A's node: the node is kept while
    # it holds that leaf and pruned once its slots are all None
    rws = RewriteSystem(2)  # a = 0, A = 1, b = 2, B = 3
    checked_insert(rws, b"\x02\x01", b"\x03")  # bA -> B, a sibling of aA
    checked_insert(rws, b"\x02", b"")  # b -> ε retires bB, Bb and bA
    assert rws._trie[1] == [0, None, None, None]
    assert_trie_holds_exactly_the_live_rules(rws)
    # as initial_rules does for gens: a b / rel: a, before A -> ε goes in
    checked_insert(rws, b"\x00", b"")  # a -> ε retires aA and Aa
    assert 0 not in rws.rules and 1 not in rws.rules
    assert rws._trie[1] is None
    assert_trie_holds_exactly_the_live_rules(rws)
    assert_trie_holds_exactly_the_live_rules(
        initial_rules(parse_presentation("gens: a b\nrel: a\n"))
    )


def test_completed_psl2z_cover_trie_holds_exactly_the_live_rules():
    suffixes = []
    original = RewriteSystem._insert

    def insert(self, lhs, rhs):
        if any(l.endswith(lhs) for l, _ in self.rules.values()):
            suffixes.append(lhs)
        original(self, lhs, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RewriteSystem, "_insert", insert)
        rws = knuth_bendix(
            initial_rules(build_p_cover(corpus("PSL2_Z"), 2)), Budget(max_steps=20000)
        )
    assert suffixes, "no left side ended a live one"
    assert_trie_holds_exactly_the_live_rules(rws)


def reference_elements(rws):
    """Normal forms of the group's elements, closed under right letters."""
    seen = {()}
    queue = [()]
    for w in queue:
        for x in range(2 * rws.arity):
            v = normal_form(rws, w + (x,))
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return sorted(seen, key=lambda w: (len(w), w))


FINITE = [
    corpus("SL2_F2"),
    corpus("SL2_F3"),
    *(parse_presentation(f"gens: a\nrel: a^{n}\n", name=f"Z{n}") for n in range(1, 25)),
    parse_presentation("gens: r s\nrel: r^4\nrel: s^2\nrel: (s*r)^2\n", name="D4"),
    parse_presentation("gens: a b\nrel: a^4\nrel: a^2*b^-2\nrel: b^-1*a*b*a\n", name="Q8"),
    # every left side has length 1, so no letter of context decides
    parse_presentation("gens: a\nrel: a\n", name="trivial"),
]


@pytest.mark.parametrize("pres", FINITE, ids=lambda pres: pres.name)
def test_enumeration_matches_a_reference_closure(pres):
    rws = completed(pres)
    elements = enumerate_elements(rws, 10**6)
    assert elements == reference_elements(rws)
    assert group_order(rws, len(elements)) == len(elements)
    if len(elements) > 1:
        assert group_order(rws, len(elements) - 1) is None


def test_trivial_group_has_only_length_one_left_sides():
    rws = completed(parse_presentation("gens: a\nrel: a\n"))
    assert {len(lhs) for lhs, _ in rws.rules.values()} == {1}
    assert enumerate_elements(rws, 1) == [()]


def test_a_cap_below_one_overflows_on_the_identity():
    # the identity alone is one word, more than a cap of 0 allows
    rws = completed(parse_presentation("gens: a\nrel: a\n"))
    with pytest.raises(Overflow):
        enumerate_elements(rws, 0)
    assert group_order(rws, 0) is None
    assert group_order(rws, 1) == 1
    with pytest.raises(Overflow):
        enumerate_elements(completed(Z6), 0)


def test_enumeration_cap_is_exact_on_z24():
    rws = completed(parse_presentation("gens: a\nrel: a^24\n"))
    with pytest.raises(Overflow):
        enumerate_elements(rws, 23)
    assert len(enumerate_elements(rws, 24)) == 24


@pytest.mark.parametrize("pres", [FREE2, *map(corpus, ("SL2_Z", "PSL2_Z", "GL2_Z"))],
                         ids=lambda pres: pres.name)
def test_infinite_groups_stop_without_reaching_the_cap(pres):
    # enumerating up to the cap would not end; the pumping test ends it
    rws = completed(pres)
    assert rws.confluent
    assert group_order(rws, 10**12) is None
    with pytest.raises(Overflow):
        enumerate_elements(rws, 10**12)
