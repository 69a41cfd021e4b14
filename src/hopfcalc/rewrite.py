"""Shortlex string rewriting over a group alphabet, with Knuth-Bendix completion.

The alphabet interleaves generators and their formal inverses
(g0 < g0^-1 < g1 < g1^-1 < ...), matching the letter encoding in the
words module, and rules always rewrite shortlex-downhill, so every
reduction terminates regardless of completion state. Completion runs
under an explicit effort budget; exhausting it is a normal outcome that
leaves a sound but possibly non-confluent system (normal form ε still
proves a word trivial in the presented group, which is all the homology
pipeline needs from partial systems).

Internally words are bytes objects, one letter per byte, which caps a
presentation at 128 generators. Completion keeps one rule index: a
trie of the left sides read backwards, from the last letter to the
first.  A node is a list with one slot per letter of
the alphabet, holding a child node, a rule id or None; a left side's id
sits in the slot of its first letter, in place of a child, so a walk
costs one list subscript and one type test per letter.
``rules`` is the store of right sides: the trie holds rule ids and
reads a rule from it, and the prefix automaton below keeps a reversed
copy of each, taken when it is built. The trie walk
appends one letter at a time and walks back from that letter;
the first rule id on the walk is the shortest left side that is a suffix
of the output, and that is the rule applied. Shortest suffix first is
the rule every normal form, step count and rule set depends on.

A leaf has no children, which is sound because the left sides form an
antichain at every reduction: an insert retires the rules whose left
side contains the new one before installing it (see ``_insert``).

Critical pairs skip part of the walk. A pair's equation starts with a
right side on one side and a proper prefix of a left side on the other,
both irreducible at every reduction, so those letters go to the output
unwalked (see ``_equation``).

Overlaps come from a second pair of indexes, from each proper prefix and
each proper suffix of a live left side to the list of ids of the rules
that have it. Two left sides overlap by k letters exactly when the
first's suffix of length k is the second's prefix of length k, so a new
left side finds its partners by looking up its own suffixes among the
prefixes and its prefixes among the suffixes, without visiting the rules
it cannot overlap. Only an insert reads the suffix index, so
``knuth_bendix`` releases it; the prefix index stays for the automaton.

Critical pairs wait in one bucket per overlap length, an ``array("I")``
of rule ids read from a head index, two ids a pair in push order, and a
pop takes the oldest pair of the shortest length queued. That is the
order of a heap of (length, push number): within one length the push
number decides, and a bucket holds its pairs in push order. A pair
stores no overlap k: a live rule id's left side never changes, so k is
|l_i| + |l_j| less the bucket's length, and a pair whose rule has been
retired is skipped without one. So a queued pair costs 8 bytes, and a
bucket that its head reaches the end of is emptied and reused. Pushing
and popping cost O(1), plus a pop's step up from the shortest length
that may be non-empty, which only falls when a shorter pair is pushed.

Interreduction finds the live rules that a new left side rewrites with
a substring search of every live left and right side, joined into one
buffer. Most inserts touch no rule, and for those one search that finds
nothing is all the work. Beside the buffer lie each live rule's start
offset in it and its id, so a match names the rule it starts in, by
bisection; only that rule is tested, and the search resumes at the next
rule's start, so no insert scans every rule. The buffer is kept between
inserts: one that touches no rule appends its two sides, and its offset
and id, one that retires a rule or renormalizes a right side drops all
three, and the next insert joins them afresh, so they always describe
the join of the live sides in id order.

Two reducers serve two kinds of traffic. The trie walk needs no setup,
and an insert keeps the trie current at the cost of one left side. The
prefix automaton (``automaton.PrefixAutomaton``) reads one cached list
subscript a letter, but computes each transition on first use, and
``_insert``, the only place the live left sides change, drops it. Its
states are the proper prefixes of the live left sides, which the prefix
index holds, the state of a word being its longest suffix that is such
a prefix. The transition from state s on letter x is s·x when that is a
left side (a hit, carrying the rule's id) or a prefix of one, and
otherwise that from s's failure state, the state of s less its first
letter (Aho and Corasick), so a missing transition costs a lookup or
two, not a scan of the suffixes of s·x.

Completion's ``_nf`` walks the trie until the letters walked since the
last insert reach ``_LETTERS_PER_PREFIX`` times the states the automaton
can need, the proper prefixes of the live left sides, and then reduces
through the automaton until the next insert. It is a ski-rental rule:
the transitions an epoch computes pay for themselves only when it is
many times longer than the automaton has states. A finished system, the
one ``knuth_bendix`` returns, is read thousands of times (the spanning
search, ``normal_form``, element counting) and always goes through the
automaton.

Both reducers apply the same rewrites. The left sides form an antichain,
and the output is irreducible. If a left side L is a suffix of output·x,
the longest suffix of output·x that is a left-side prefix is L itself: a
longer one would be a prefix of some left side with L as a proper
substring. And no other left side is a suffix, since one of the two
would end the other. So the automaton reaches a rule exactly when the
trie walk meets one, and it is the same rule: every normal form, and
every rewrite charged, is that of the trie walk, wherever ``_nf``
switches.

``reduce_with_allowance`` takes a freely reduced word, as the spanning
search builds its test words, and the most rewrites it may apply.  It
returns the normal form with the rewrites it applied, which the search
takes off its step allowance, or None when it would need more;
``normal_form`` takes any word, freely reduces it first and reduces it
with no limit.  The search's test words share prefixes, and
``reduce_with_allowance`` can resume from a snapshot taken once the
reducer has read a prefix and nothing after it.  A snapshot depends on
its prefix alone, so the normal form, the count and the point where an
allowance runs dry are a fresh reduction's.

Counting elements stops as soon as the irreducible words are seen to be
infinitely many (see ``enumerate_elements``), so an infinite group with
a finite confluent system costs a few words, not the whole cap. The
public API speaks letter tuples.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain

from . import words
from .automaton import PrefixAutomaton, Snapshot
from .presentation import Presentation, render_word
from .words import Word


class Overflow(Exception):
    """Element enumeration exceeded its cap."""


@dataclass(frozen=True)
class Budget:
    """The step limit of one ``knuth_bendix`` run.

    It bounds the live rules too, since L of them cost at least L(L-1)
    steps (see ``_insert``); new left sides are capped at
    ``MAX_RULE_LENGTH`` letters.

    The limit bounds completion, not the orientation of the relators
    before it.  ``initial_rules`` installs every relator rule whatever
    the length of its left side, and charges its rewrites and inserts to
    ``steps`` with no limit; completion then starts with them spent.
    So the flagship's 7-cover (SL2Z7Z7_6GEN at p=7) under
    ``Budget(max_steps=1000)`` reports 55,435 steps, all of them spent
    orienting its relators, and keeps a left side of 231 letters.
    ``run_pipeline`` also caps the coset enumerations of a finite base
    and its cover at ``max_steps`` coset definitions between them, whose
    sum its budget report gives as ``cover_steps``, with ``cover_rules``
    0, when the cover table is used.
    """

    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.max_steps <= 0:
            raise ValueError("budget limits must be positive")


DEFAULT_BUDGET = Budget()


# letter -> its inverse, x ^ 1, for bytes.translate
_INVERSE = bytes(x ^ 1 for x in range(256))


def orient_relator(relator: Word) -> tuple[Word, Word] | None:
    """Best rewriting rule for a relator, or None for ε.

    Every rotation of the cyclically reduced core, and of its inverse, is
    split into halves u·v (the longer half in front), read as the
    equation u = v^-1, and oriented downhill. Among those candidate
    rules the one with the shortlex-smallest left side wins, ties going
    to the smallest (lhs, rhs) pair, which makes the choice independent
    of how the relator was written down.

    The work is done on bytes, so the letters must be below 256, as in
    any presentation of at most 128 generators; bytes compare like the
    int tuples they hold.
    """
    core = bytes(words.cyclic_reduce(relator)[0])
    if not core:
        return None
    n = len(core)
    cut = (n + 1) // 2
    # u is never the shorter half, so it is the left side when n is odd
    # and the larger half when n is even; every left side is cut letters
    # long, so the smallest (lhs, rhs) is the shortlex-smallest
    odd = n % 2
    twice, twice_inv = core * 2, core[::-1].translate(_INVERSE) * 2
    # core is root^e, so rotation k + |root| is rotation k, of the
    # inverse too: one period of rotations gives every candidate.  The
    # first rotation equal to the core is the one by |root|.
    period = twice.find(core, 1)
    candidates = []
    for base, base_inv in ((twice, twice_inv), (twice_inv, twice)):
        for k in range(period):
            # rotation k of base is base[k:k + n]; its inverse is
            # rotation n - k of the inverse
            m = (n - k) % n
            u, v = base[k:k + cut], base_inv[m:m + n - cut]
            candidates.append((u, v) if odd or u > v else (v, u))
    lhs, rhs = min(candidates)
    return tuple(lhs), tuple(rhs)


MAX_GENERATORS = 128  # a generator and its inverse take two of the 256 byte values
MAX_RULE_LENGTH = 64  # the longest left side completion installs

# _nf's switch to the prefix automaton, in letters walked since the last
# insert per state the automaton can need.  On the SL2_Z and PSL2_Z
# covers at p = 5 and 7 (2-vCPU x86-64 VM) a transition cost about 2 us
# to compute and saved about 0.15 us a letter read, their longest epochs
# reach 13 letters a state, and switching at one letter a state made the
# grid-bounded bench 8-10% slower in four alternating runs; the PSL2_Z
# cover at p = 2 reads most of its letters in epochs of hundreds of
# letters a state.
_LETTERS_PER_PREFIX = 16

# joins the live sides for interreduction's search; with 128 generators
# it is also letter 255, so a match may cross it: a false positive,
# which the exact test of the rule it starts in then rejects
_SEP = b"\xff"


class RewriteSystem:
    """Mutable during completion, then treated as immutable."""

    def __init__(self, arity: int):
        if arity > MAX_GENERATORS:
            raise ValueError(
                f"at most {MAX_GENERATORS} generators, since letters are "
                f"stored one per byte; got {arity}"
            )
        self.arity = arity
        self.rules: dict[int, tuple[bytes, bytes]] = {}
        # one slot per letter: a child node, a rule id (a leaf) or None
        self._trie: list = [None] * (2 * arity)
        # proper prefix / proper suffix of a live left side -> the ids of
        # the rules that have it, in install order; the automaton reads the
        # prefixes, and knuth_bendix releases the suffixes when it is done
        self._prefixes: dict[bytes, list[int]] = {}
        self._suffixes: dict[bytes, list[int]] = {}
        self._next_id = 0
        # equations (u, v) that _equation turns into rules: the oriented
        # relators, then the rules that interreduction retires
        self._pending: deque[tuple] = deque()
        # _pairs[length]: the critical pairs (i, j) of that overlap length,
        # |l_i| + |l_j| - k, as i, j, i, j, ... in push order, the queued
        # ones from _heads[length] on; a bucket its head reaches the end of
        # is emptied, every bucket below _shortest is empty, and _queued
        # counts the queued pairs
        self._pairs: list[array] = []
        self._heads: list[int] = []
        self._shortest = 0
        self._queued = 0
        # _SEP join of the live sides in id order, or None until the next
        # insert joins it afresh; beside it each live rule's start offset
        # in the join and its id, in id order, or None with it
        self._sides: bytearray | None = None
        self._starts: list[int] | None = None
        self._ids: list[int] | None = None
        # the prefix automaton of the live rules, built on first use; an
        # insert drops it.  _walk_left is the letters the trie walk may
        # still take before _nf switches to it; an insert sets it
        self._automaton: PrefixAutomaton | None = None
        self._walk_left = 0
        self.steps = 0
        self.limited = False
        self.confluent = False
        for g in range(arity):
            a, b = 2 * g, 2 * g + 1
            self._insert(bytes([a, b]), b"")
            self._insert(bytes([b, a]), b"")

    # -- rule bookkeeping ------------------------------------------------

    def _insert(self, lhs: bytes, rhs: bytes):
        """Install an oriented rule, interreduce, queue its overlaps.

        The overlaps of the new left side L are read from the affix
        indexes.  Each proper suffix of L held by the prefix index names
        a rule j with L's last k letters as its first k: the pair
        (L, j, k).  Each proper prefix of L held by the suffix index
        names a pair (i, L, k) the same way.  They are queued sorted by
        (other rule's id, L first or second, k), then L's overlaps with
        itself, which is the order of a scan of every live rule by id,
        so each length's bucket receives them in the order that scan
        gives and the completion takes the same course.  Interreduction
        runs first, so retired rules are out of the indexes by then.
        A queued pair is its two rule ids, appended to the bucket of its
        overlap length |l_i| + |l_j| - k; k itself is not stored (see
        ``_pop_pair``).  The buckets hold 32-bit unsigned ids, so a rule
        id of 2^32 or more raises ``OverflowError`` when it is queued,
        rather than wrapping.

        Interreduction touches the live rules with L inside a side.  A
        search of all their sides, joined by ``_SEP`` before the new rule
        is installed, finds them: each match lies in the rule whose start
        offset is the last at or before it, that rule alone is tested,
        and the search goes on from the next rule's start, so the rules
        are met in id order and none is tested without a match.  A match
        across ``_SEP`` fails the test, and one inside the same rule
        needs no second look.  The rules with L in the left side are retired
        first and queued as equations, in id order; then L is installed;
        then the rules with L in the right side alone, all still live,
        have that side renormalized, in id order.  So no live left side
        contains L when L's leaf goes into the trie, and the left sides
        are an antichain at every reduction.  The order
        changes no result: while L is installed a left side containing
        L can never fire, so a right side reduces to the same normal
        form, at the same charge, before or after that rule is retired.
        The joined sides are kept, with the start offsets and ids: with
        no rule touched, L and its right side are appended, and their
        offset and id; otherwise all three are dropped and the next
        insert builds them again.

        L must contain no live left side; a normal form from
        ``_equation`` or an inverse pair from ``__init__`` never does.
        The prefix automaton is dropped, since the left sides change.
        L's affixes are indexed, and the letters the trie walk may take
        before ``_nf`` switches are set from the prefix count, before any
        right side is renormalized: that ``_nf`` may build the automaton
        afresh, and it reads the prefix index.
        """
        self._automaton = None
        rules = self.rules
        sides, starts, ids = self._sides, self._starts, self._ids
        if sides is None:
            sides = bytearray(_SEP.join(chain.from_iterable(rules.values())))
            starts = [0, *accumulate(len(l) + len(r) + 2 for l, r in rules.values())]
            starts.pop()
            ids = list(rules)
        # the rules with lhs in a side, in id order: each match names the
        # rule it starts in, and the search resumes at the next rule
        touched = []
        at = sides.find(lhs)
        while at >= 0:
            k = bisect_right(starts, at)
            other = ids[k - 1]
            l, r = rules[other]
            if lhs in l or lhs in r:
                touched.append(other)
            if k == len(starts):
                break
            at = sides.find(lhs, starts[k])
        renormalize = []
        for other in touched:
            l, r = rules[other]
            if lhs in l:
                self._retire(other)
                self._pending.append((l, r))
            else:
                renormalize.append(other)
        rid = self._next_id
        node = self._trie
        for x in lhs[:0:-1]:
            child = node[x]
            if child is None:
                child = node[x] = [None] * len(node)
            node = child
        node[lhs[0]] = rid
        self._next_id += 1
        rules[rid] = (lhs, rhs)
        if touched:
            self._sides = self._starts = self._ids = None
        else:
            if sides:
                sides += _SEP
            starts.append(len(sides))
            ids.append(rid)
            sides += lhs
            sides += _SEP
            sides += rhs
            self._sides, self._starts, self._ids = sides, starts, ids
        # two steps per other live rule: L live rules have cost at least
        # L(L-1) steps, so the step budget also bounds the rule count
        self.steps += 2 * (len(rules) - 1)
        n = len(lhs)
        hits = [(rid, 0, k) for k in range(1, n) if lhs.endswith(lhs[:k])]
        for k in range(1, n):
            for other in self._prefixes.get(lhs[-k:], ()):
                hits.append((other, 0, k))
            for other in self._suffixes.get(lhs[:k], ()):
                hits.append((other, 1, k))
        hits.sort()
        pairs, shortest = self._pairs, self._shortest
        for other, backwards, k in hits:
            length = n + len(rules[other][0]) - k
            while len(pairs) <= length:
                pairs.append(array("I"))
                self._heads.append(0)
            bucket = pairs[length]
            if backwards:
                bucket.append(other)
                bucket.append(rid)
            else:
                bucket.append(rid)
                bucket.append(other)
            if length < shortest:
                shortest = length
        self._shortest = shortest
        self._queued += len(hits)
        for index, affix in self._affixes(lhs):
            index.setdefault(affix, []).append(rid)
        self._walk_left = _LETTERS_PER_PREFIX * len(self._prefixes)
        for other in renormalize:
            l, r = rules[other]
            rules[other] = (l, self._nf(r))

    def _pop_pair(self, max_steps: int) -> tuple[int, int, int] | None:
        """Take queued pairs, oldest of the shortest length first, up to a live one.

        Each pair taken costs one step.  A pair whose rule has been
        retired is dead and is skipped, so a run of dead pairs is taken
        in this one call, and the budget is checked after each.  Returns
        the first live pair as (i, j, k), k recovered from the lengths of
        the two left sides, which a live rule id keeps; or None when a
        dead pair used up the steps or the queue, which then leaves
        ``knuth_bendix`` to decide whether completion was limited.
        """
        pairs, heads, rules = self._pairs, self._heads, self.rules
        s, queued, steps = self._shortest, self._queued, self.steps
        found = None
        while queued:
            bucket = pairs[s]
            if not bucket:
                s += 1
                continue
            h = heads[s]
            i, j = bucket[h], bucket[h + 1]
            h += 2
            if h == len(bucket):
                del bucket[:]
                h = 0
            heads[s] = h
            queued -= 1
            steps += 1
            if i in rules and j in rules:
                found = (i, j, len(rules[i][0]) + len(rules[j][0]) - s)
                break
            if steps >= max_steps:
                break
        self._shortest, self._queued, self.steps = s, queued, steps
        return found

    def _affixes(self, lhs: bytes):
        """(index, affix) for each proper prefix and proper suffix of lhs."""
        for k in range(1, len(lhs)):
            yield self._prefixes, lhs[:k]
            yield self._suffixes, lhs[-k:]

    def _retire(self, rid: int):
        """Drop a live rule from ``rules``, the trie and the affix indexes.

        The trie nodes on the rule's path are all lists, since no newer
        left side is installed until the rules it would end are retired;
        the leaf's slot goes back to None, and so does the slot of every
        node left with nothing but None.  A node is tested by counting
        its None slots, not by truth: a list is true however empty its
        slots, and rule id 0 is a false leaf.
        """
        lhs, _ = self.rules.pop(rid)
        # path[i] is the node reached after the last i letters of lhs
        path = [self._trie]
        for x in lhs[:0:-1]:
            path.append(path[-1][x])
        path[-1][lhs[0]] = None
        width = len(self._trie)
        for i in range(len(path) - 1, 0, -1):
            if path[i].count(None) != width:
                break
            path[i - 1][lhs[-i]] = None
        for index, affix in self._affixes(lhs):
            ids = index[affix]
            ids.remove(rid)
            if not ids:
                del index[affix]

    # -- reduction --------------------------------------------------------

    def _nf(self, word: bytes, irreducible: int = 0) -> bytes:
        """Completion's leftmost reduction, shortest applicable rule first.

        Through the prefix automaton once the letters walked since the
        last insert, those of each word after its irreducible prefix,
        reach ``_LETTERS_PER_PREFIX`` times the automaton's possible
        states (see the module docstring).  Before that by the trie: letters move one at
        a time from ``pending`` to ``out``, which stays irreducible, and
        after each append the trie is walked back from the new last
        letter; the first rule id met, the shortest left side ending
        there, is rewritten at once, its right side going back onto
        ``pending``.

        The first ``irreducible`` letters of word must contain no left
        side; the walk puts them out unwalked, which changes neither the
        result nor the rewrites charged.  Each rewrite is charged to
        ``steps``.
        """
        if self._walk_left <= 0:
            out, applied = self._reducer().reduce(word, irreducible)
            self.steps += applied
            return out
        trie = self._trie
        rules = self.rules
        out = bytearray(word[:irreducible])
        pending = bytearray(word[irreducible:][::-1])
        self._walk_left -= len(pending)
        while pending:
            out.append(pending.pop())
            node = trie
            for x in reversed(out):
                node = node[x]
                if type(node) is not list:
                    if node is not None:
                        lhs, rhs = rules[node]
                        del out[len(out) - len(lhs):]
                        pending.extend(rhs[::-1])
                        self.steps += 1
                    break
        return bytes(out)

    def _equation(
        self, u: bytes, v: bytes, u_irreducible: int = 0, v_irreducible: int = 0
    ) -> tuple[bytes, bytes] | None:
        """Reduce both sides: None when they meet, else the rule they give.

        The counts are the lengths of the sides' prefixes known to be
        irreducible (see ``_nf``); a pending entry is this call's
        arguments.  A critical pair r_i·l_j[k:] = l_i[:-k]·r_j, queued
        when its pair is popped, passes len(r_i) and len(l_i) - k: every
        live right side is irreducible, since interreduction
        renormalizes it or retires its rule, and so is every proper
        substring of a live left side, since the left sides form an
        antichain.  The rule rewrites the shortlex-larger side.
        """
        un, vn = self._nf(u, u_irreducible), self._nf(v, v_irreducible)
        if un == vn:
            return None
        return (un, vn) if (len(un), un) > (len(vn), vn) else (vn, un)

    def _reducer(self) -> PrefixAutomaton:
        """The prefix automaton of the live rules, built on first use."""
        if self._automaton is None:
            self._automaton = PrefixAutomaton(self.rules, self._prefixes, self.arity)
        return self._automaton


def initial_rules(pres: Presentation) -> RewriteSystem:
    """Free-group inverse rules plus one oriented rule per relator.

    Relator rules are installed through the same interreduction path the
    completion uses, so the returned system is already consistent; its
    confluence flag is only set for the relator-free case, where the
    inverse rules alone are confluent.

    No budget bounds this orientation.  Every relator rule is installed
    whatever its length, beyond ``MAX_RULE_LENGTH``, and the rewrites
    and inserts it takes are charged to ``steps`` without a check
    against any ``max_steps``, so a ``knuth_bendix`` that follows starts
    with them spent (see ``Budget``).
    """
    rws = RewriteSystem(pres.arity)
    trivial = True
    for r in pres.relators:
        oriented = orient_relator(r)
        if oriented is None:
            continue
        trivial = False
        lhs, rhs = oriented
        rws._pending.append((bytes(lhs), bytes(rhs)))
    # drain only the orientation queue; overlaps wait for knuth_bendix
    while rws._pending:
        rule = rws._equation(*rws._pending.popleft())
        if rule is not None:
            rws._insert(*rule)
    # with only the inverse rules present, the overlaps x·x^-1·x join
    # trivially, so a relator-free system is confluent as it stands
    rws.confluent = trivial
    return rws


def knuth_bendix(rws: RewriteSystem, budget: Budget = DEFAULT_BUDGET) -> RewriteSystem:
    """Complete within the budget; sets confluent iff every pair joined.

    Equations queued by interreduction come first, then critical pairs,
    shortest overlap first and oldest first within a length (see
    ``_pop_pair``).  Each popped entry costs one step, and reducing its
    equation one more.  A pair whose rule has been retired is dead: a
    run of dead pairs is taken in one ``_pop_pair`` call, which charges
    each its step and checks the budget after each, so a converging
    completion makes one call per live pair.  A live pair's equation is
    reduced in the same pass that pops it, with the lengths of its two
    irreducible prefixes, r_i and l_i[:-k] (see ``_equation``); no
    insert comes in between to break that irreducibility.  When the
    budget runs out between the two steps, completion stops there and
    the equation is dropped.  A pair of live rules still overlaps, and
    by the k it was queued with, since a rule id's left side never
    changes.  A new rule whose left side is longer than
    ``MAX_RULE_LENGTH`` is dropped and sets ``limited``; completion
    goes on with the rest of the queue.

    The loop ends with nothing queued unless ``limited`` is set, so the
    system is confluent exactly when it is not limited.  The returned
    system is finished: the pending equations, the pair buckets with
    their unpopped pairs, the interreduction buffer with its offsets and
    ids, and the suffix index, which only an insert reads, are released,
    so a later call cannot take up where this one stopped.  Such a call
    on a limited system changes nothing and still leaves ``confluent``
    False, since ``limited`` stays set.  A finished system must not be
    inserted into; the prefix index stays, since the prefix automaton
    reads it, and so does an automaton that ``_nf`` built after the last
    insert, since it is that of the returned rules.
    """
    while True:
        if rws.steps >= budget.max_steps:
            rws.limited = True
            break
        if rws._pending:
            entry = rws._pending.popleft()
        elif rws._queued:
            pair = rws._pop_pair(budget.max_steps)
            if rws.steps >= budget.max_steps:
                rws.limited = True
                break
            if pair is None:
                break
            i, j, k = pair
            li, ri = rws.rules[i]
            lj, rj = rws.rules[j]
            entry = (ri + lj[k:], li[:-k] + rj, len(ri), len(li) - k)
        else:
            break
        rws.steps += 1
        rule = rws._equation(*entry)
        if rule is None:
            continue
        lhs, rhs = rule
        if len(lhs) > MAX_RULE_LENGTH:
            rws.limited = True
            continue
        rws._insert(lhs, rhs)
    rws.confluent = not rws.limited
    rws._pending.clear()
    rws._pairs, rws._heads, rws._shortest, rws._queued = [], [], 0, 0
    rws._sides = rws._starts = rws._ids = None
    rws._suffixes = {}
    return rws


def normal_form(rws: RewriteSystem, word: Word) -> Word:
    """Normal form of any word, with no step limit.

    The word is freely reduced first and then reduced as
    ``reduce_with_allowance`` does.
    """
    return reduce_with_allowance(rws, words.free_reduce(word), math.inf)[0]


def reduce_with_allowance(
    rws: RewriteSystem,
    word: Word | bytes,
    allowance: float,
    resume: tuple[int, Snapshot] | None = None,
    marks: dict[int, Snapshot | None] | None = None,
) -> tuple[Word, int] | None:
    """Normal form of a freely reduced word and the rewrites applied, within an allowance.

    ``word`` is a sequence of letters, a tuple or bytes, and must be
    freely reduced: this entry point does not cancel inverse pairs
    itself.  Left in, such a pair is rewritten by the system's rules
    and counted like any other rewrite; ``normal_form`` takes any word.
    ``allowance`` is the most rewrites the reduction may apply, an int
    or ``math.inf``; None when it would need more.  The word is reduced
    through the system's prefix automaton, built on the first call and
    kept until the rules change; it applies the rewrites the
    completion's trie walk would (see the module docstring), so the
    normal form and the count are the same.  A letter outside the
    system's alphabet, negative or 2 * arity or more, is a ValueError.

    ``resume``, a pair (b, snapshot) taken on a word with the same first
    b letters, and ``marks``, the prefix lengths to take snapshots at,
    go to ``PrefixAutomaton.reduce``.  A snapshot depends on the first b
    letters alone, so a resumed reduction gives a fresh one's normal
    form and count, and None where it would.
    """
    # bytes hold no negative letter, so only a tuple pays for min
    if word and (max(word) >= 2 * rws.arity or not isinstance(word, bytes) and min(word) < 0):
        bad = next(x for x in word if not 0 <= x < 2 * rws.arity)
        raise ValueError(
            f"letter {bad} is outside the alphabet of {rws.arity} generators and their inverses"
        )
    reduced = rws._reducer().reduce(bytes(word), 0, allowance, resume, marks)
    if reduced is None:
        return None
    out, applied = reduced
    return tuple(out), applied


def enumerate_elements(rws: RewriteSystem, cap: int) -> list[Word]:
    """All irreducible words in shortlex order; Overflow when more than cap.

    Overflow also comes at once when the words are infinitely many.  Let
    c be the longest left side's length less one.  For an irreducible
    w, w·x is irreducible iff no left side ends it, which depends only
    on the last c letters of w and on x.  So when a new irreducible
    word u has its last c letters s also ending at some position
    c <= i < |u|, reading u[i:] from s leads back to s through
    irreducible words only, and every u[:i]·u[i:]^m is irreducible: the
    language, and the group, is infinite.  A finite language never
    shows such a repeat, so a finite group is enumerated in full or
    overflows at the cap, as without the test.

    Each word of a layer keeps its state in the prefix automaton, so
    w·x is irreducible iff the transition from w's state on x is not a
    hit, one cached lookup per candidate.
    """
    if not rws.confluent:
        raise ValueError("element enumeration requires a confluent system")
    if cap < 1:  # the identity alone is more than cap words
        raise Overflow(f"more than {cap} irreducible words")
    alphabet = range(2 * rws.arity)
    c = max((len(lhs) for lhs, _ in rws.rules.values()), default=1) - 1
    step = rws._reducer().step
    found: list[bytes] = [b""]
    # each irreducible word of the current length, with its automaton state
    layer: list[tuple[bytes, int]] = [(b"", 0)]
    while layer:
        nxt: list[tuple[bytes, int]] = []
        for w, state in layer:
            for x in alphabet:
                t = step(state, x)
                if t >= 0:
                    cand = w + bytes([x])
                    m = len(cand)
                    if m > c and cand.find(cand[m - c:], 0, m - 1) >= 0:
                        raise Overflow("infinitely many irreducible words")
                    nxt.append((cand, t))
                    if len(found) + len(nxt) > cap:
                        raise Overflow(f"more than {cap} irreducible words")
        found.extend(w for w, _ in nxt)
        layer = nxt
    return [tuple(w) for w in found]


def group_order(rws: RewriteSystem, cap: int) -> int | None:
    """Element count when confluent and within cap, else None (unknown)."""
    if not rws.confluent:
        return None
    try:
        return len(enumerate_elements(rws, cap))
    except Overflow:
        return None


def dump_rules(rws: RewriteSystem, generators) -> str:
    lines = [f"# confluent: {'true' if rws.confluent else 'false'}"]
    table = sorted(rws.rules.values(), key=lambda lr: (len(lr[0]), lr[0]))
    for lhs, rhs in table:
        lines.append(
            f"{render_word(tuple(lhs), generators)} -> {render_word(tuple(rhs), generators)}"
        )
    return "\n".join(lines) + "\n"
