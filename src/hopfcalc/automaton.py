"""Leftmost reduction in a fixed rule set, through a prefix automaton.

The rules are a rewriting system's: ``rules`` maps a rule id to its
(left side, right side), in bytes, one letter per byte, and the left
sides form an antichain, none inside another.  ``prefixes`` holds the
proper prefixes of the left sides, as the system's prefix index does.

A state is a proper prefix of a left side, the empty one included,
numbered in the order first reached, and the state of a word is its
longest suffix that is such a prefix.  A state's failure state is that
of itself less its first letter (Aho and Corasick, CACM 18, 1975), fixed
when the state is numbered.  The transition from s on x is s·x when
that is a whole left side, a hit, or a proper prefix of one, else that
from fail(s), and from the empty state the empty state.  A hit is ~rid,
a negative int, in place of a next state.  What the hit does is read
from a rewrite table built with the automaton, rid -> (len(lhs) - 1,
rhs reversed): the output letters to drop besides the one just read,
and the letters to push back, in the order a stack pops them.  So a
rewrite recomputes neither, however often its rule fires.

A transition is computed on first use and cached in its state's row, a
list with one slot per letter: ``step`` goes down the failure chain to
the first known transition and caches each one on the way back up.  So
a missing transition costs a lookup or two, not a scan of the suffixes
of s·x, and the chain is kept in a list, not on the call stack, since a
relator rule can be thousands of letters long.  The rules must not
change while an automaton is in use; the system drops it when they do.

``reduce`` can hand back its state at given prefix lengths of a word,
and start from such a state on another word with the same prefix, so
words that share a prefix read it once.
"""

from __future__ import annotations

import math

# (output so far, its states, rewrites applied): see PrefixAutomaton.reduce
Snapshot = tuple[bytes, list[int], int]


class PrefixAutomaton:
    """The prefix automaton of a fixed rule set, built as it is read."""

    def __init__(
        self, rules: dict[int, tuple[bytes, bytes]], prefixes: dict[bytes, list[int]], arity: int
    ):
        self._prefixes = prefixes
        # whole left side -> ~rid; no left side is a state, since a
        # state is a proper prefix of a left side
        self._hits = {lhs: ~rid for rid, (lhs, _) in rules.items()}
        # rid -> what a hit does: the left side's letters to drop from
        # the output besides the last, and the right side reversed
        self._rewrites = {rid: (len(lhs) - 1, rhs[::-1]) for rid, (lhs, rhs) in rules.items()}
        # per state: its word, its failure state and its row, where
        # _delta[s][x] is the cached transition from s on letter x
        self._words = [b""]
        self._fail = [0]
        self._delta: list[list[int | None]] = [[None] * (2 * arity)]

    def step(self, state: int, x: int) -> int:
        """The next state from ``state`` on letter ``x``, or ~rid for a hit."""
        delta = self._delta
        t = delta[state][x]
        if t is not None:
            return t
        words, fail, hits = self._words, self._fail, self._hits
        letter = bytes((x,))
        # the states from ``state`` down its failure chain whose
        # transition on x is not known; t ends as the transition from the
        # failure state of the last of them
        chain = []
        s = state
        while True:
            t = hits.get(words[s] + letter)
            if t is not None:
                delta[s][x] = t
                break
            chain.append(s)
            if not s:
                t = 0
                break
            s = fail[s]
            t = delta[s][x]
            if t is not None:
                break
        for s in reversed(chain):
            w = words[s] + letter
            if w in self._prefixes:
                # a new state; its failure state is the transition from
                # the failure state of s, never a hit, as no left side
                # lies inside another
                fail.append(t)
                t = len(words)
                words.append(w)
                delta.append([None] * len(delta[0]))
            delta[s][x] = t
        return t

    def reduce(
        self,
        word: bytes,
        irreducible: int = 0,
        limit: float = math.inf,
        resume: tuple[int, Snapshot] | None = None,
        marks: dict[int, Snapshot | None] | None = None,
    ) -> tuple[bytes, int] | None:
        """The normal form of word and the number of rewrites applied.

        Letters move one at a time from ``pending`` to ``out``, which
        stays irreducible, and ``states[i]`` is the state of the
        output's first i letters.  A hit drops the left side's letters
        already in the output, and their states, and puts the right side
        back onto ``pending``.  The first ``irreducible`` letters of word
        must contain no left side, so they only move the state.  None
        when a rewrite past ``limit`` would be needed.

        A snapshot at prefix length b is (out, states, applied) at the
        first loop top where ``pending`` holds no more than the letters
        of word[b:].  It then holds exactly the untouched word[b:]:
        ``pending`` shrinks one pop at a time, and the letters a hit
        puts back lie on top, read before any letter below them.  So the
        snapshot depends on word[:b] alone, and is the same for every
        word with that prefix.  The loop takes word onto ``pending`` one
        segment at a time, up to the next mark, and takes the snapshot
        when ``pending`` runs dry, so a mark costs no test a letter.

        ``resume``, a pair (b, snapshot) taken on a word with the same
        first b letters, starts there in place of those letters and of
        ``irreducible``.  Every letter read, rewrite applied and limit
        checked after it is the fresh reduction's, so the normal form
        and the count are the same, and a snapshot already past
        ``limit`` gives None, as the fresh reduction does inside the
        prefix.  ``marks`` maps prefix lengths from the start on, in
        ascending order, to None, and each is set to the snapshot there.
        """
        delta, rewrites, step = self._delta, self._rewrites, self.step
        if resume is None:
            start = irreducible
            out = bytearray(word[:start])
            states = [0]
            state = 0
            for x in out:
                t = delta[state][x]
                if t is None:
                    t = step(state, x)
                states.append(t)
                state = t
            applied = 0
        else:
            start, (prefix, prefix_states, applied) = resume
            # the check the prefix's last rewrite made; with no rewrite
            # there was none, whatever the limit
            if applied and applied > limit:
                return None
            out = bytearray(prefix)
            states = list(prefix_states)
            state = states[-1]
        for stop in (len(word),) if marks is None else (*marks, len(word)):
            pending = bytearray(word[start:stop])
            pending.reverse()
            while pending:
                x = pending.pop()
                t = delta[state][x]
                if t is None:
                    t = step(state, x)
                if t >= 0:
                    out.append(x)
                    states.append(t)
                    state = t
                else:
                    cut, back = rewrites[~t]
                    # cut is 0 for a left side of one letter, so the slices
                    # start at len(), not at -cut
                    del out[len(out) - cut:]
                    del states[len(states) - cut:]
                    state = states[-1]
                    pending += back
                    applied += 1
                    if applied > limit:
                        return None
            if marks is not None and stop in marks:
                marks[stop] = (bytes(out), states.copy(), applied)
            start = stop
        return bytes(out), applied
