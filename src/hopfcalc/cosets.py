"""Coset enumeration: a finite presented group acting on a subgroup's cosets.

Todd and Coxeter (1936), in the HLT form with lookahead (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 5).  The
subgroup H is given by words, and coset c times letter x is
``columns[x][c]``, in the ``words`` letter numbering; coset 0 is H
itself.  A complete table is the right action on the cosets Hg, so it
has |G|/|H| of them; with no subgroup words H is trivial, the cosets
are the group's elements and the table is its right regular action.

HLT first traces each subgroup word at coset 0, defining cosets along
it until it closes there.  Then it takes the live cosets in order.  At
each it traces every relator, shortest first, forward and backward as
far as the table is defined.  Where the two ends meet it merges them if
they differ, where one entry is missing it deduces it, and elsewhere it
defines a new coset and goes on.  Then it defines the coset's missing
entries.  Merged cosets go through one coincidence queue, the smaller
number surviving, so coset 0 never dies and the subgroup words stay
closed at it.  The table is complete when HLT passes the last coset.

Work is counted in coset definitions, and the enumeration gives up when
they would pass their limit.  Memory is bounded by ``SPACE`` times the
order cap: when the numbered cosets would reach it, a lookahead traces
the relators from the unfinished cosets without defining any, the live
cosets are renumbered densely, and the enumeration gives up unless a
quarter of the space is then free.  It also gives up when the complete
table has more cosets than the cap.

A table whose columns are permutations, each undone by its inverse
letter's column, and whose relators fix every coset is an action of
the presented group; ``check_table`` proves that much.  An enumerated
table is also transitive, so its size is the index of the stabilizer
of coset 0.  Words that fix coset 0 lie in that stabilizer, so the
group order is at least the size times the order of the subgroup they
generate.  That the stabilizer is H itself, and the size |G|/|H|,
rests on the enumeration.

``bar_h2`` reads a bound on dim H_2(G;F_p) off any table that passes
``check_table``: the pipeline's quotient lower bound and the oracle
share it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fplinalg
from .words import Word

# the numbered cosets may reach this multiple of the order cap
SPACE = 4


@dataclass(frozen=True)
class CosetTable:
    """The action of each letter on ``order`` cosets, and the definitions it took."""

    order: int
    columns: tuple[tuple[int, ...], ...]
    definitions: int


class _GiveUp(Exception):
    pass


def walk(table: CosetTable, coset: int, word: Word) -> int:
    """The coset that ``word`` leads to from ``coset``."""
    columns = table.columns
    for x in word:
        coset = columns[x][coset]
    return coset


def check_table(table: CosetTable, relators: Sequence[Word]) -> None:
    """Raise ArithmeticError unless the table is an action in which the relators hold.

    Each column must map the cosets to themselves, each generator's
    column must be undone by its inverse letter's, and each relator
    must fix every coset, so a relator with a letter that has no column
    does not hold.  One direction is enough: on a finite set a left
    inverse is two-sided, so every column is a permutation.
    """
    n = table.order
    if any(len(col) != n for col in table.columns):
        raise ArithmeticError("a coset table column is not a map of its cosets")
    cols = np.array(table.columns, dtype=np.int64).reshape(len(table.columns), n)
    everyone = np.arange(n)
    if np.any((cols < 0) | (cols >= n)):
        raise ArithmeticError("a coset table column is not a map of its cosets")
    for x in range(0, len(cols), 2):
        if not np.array_equal(cols[x ^ 1][cols[x]], everyone):
            raise ArithmeticError(f"letter {x ^ 1} does not undo letter {x} in the table")
    for i, w in enumerate(relators):
        if max(w, default=0) >= len(cols):
            raise ArithmeticError(f"relator {i} has a letter outside the table")
        end = everyone
        for x in w:
            end = cols[x][end]
        if not np.array_equal(end, everyone):
            raise ArithmeticError(f"relator {i} moves a coset of the table")


def bar_h2(t: CosetTable, relators: Sequence[Word], p: int) -> int:
    """A lower bound on dim H_2(G;F_p) from the G-set ``t``, exact when ``t`` is regular.

    X_t is the covering of the presentation complex whose 0-cells are
    the cosets, and D2 its Fox-derivative boundary over F_p (Fox, Ann.
    Math. 57, 1953; Brown, GTM 87, II.5): row (g, i) is g * d(r_i)/d(x_j)
    written in the coset basis, with column (h, j) at h * k + j for k
    generators.  The value is (r - rank E) - rank eps(ker D2), E the
    relators' exponent matrix and eps the map to F_p^r that counts each
    relator's cells.  The universal cover factors through X_t, so
    eps(ker D2) contains the image of pi_2, and Hopf's formula makes the
    value at most h2; on the regular action it is h2 itself.  With A the
    augmentation block (row (g, i) has a 1 in column i), rank eps(ker D2)
    is the rank of the A parts of the rows that die on the D2 columns
    when [D2 | A] is reduced there, in one elimination of D2.
    Raises ArithmeticError, from ``check_table``, unless ``t`` is an
    action in which every relator holds, which is all the bound needs.
    """
    fplinalg.require_prime(p)
    check_table(t, relators)
    order, k, r = t.order, len(t.columns) // 2, len(relators)
    columns = t.columns
    d2 = np.zeros((order * r, order * k), dtype=np.int64)
    for g in range(order):
        for i, rel in enumerate(relators):
            row = d2[g * r + i]
            h = g
            for x in rel:
                if x & 1:
                    h = columns[x][h]
                    row[h * k + (x >> 1)] -= 1
                else:
                    row[h * k + (x >> 1)] += 1
                    h = columns[x][h]
    # the rows at coset 0 summed over the column blocks are the exponent sums
    exponents = d2[:r].reshape(r, order, k).sum(axis=1)
    augment = np.tile(np.eye(r, dtype=np.int64), (order, 1))
    _, eps_ker = fplinalg.kernel_image(d2, augment, p)
    return (r - fplinalg.rank(exponents, p)) - fplinalg.rank(eps_ker, p)


def enumerate_cosets(
    relators: Sequence[Word],
    arity: int,
    max_definitions: int,
    cap: int,
    subgroup: Sequence[Word] = (),
) -> CosetTable | None:
    """The coset table of the subgroup that ``subgroup`` generates, or None on giving up.

    The subgroup words are traced at coset 0 before the relators, and
    their definitions count with the others.  It gives up after
    ``max_definitions`` coset definitions, when a lookahead leaves less
    than a quarter of ``SPACE * cap`` numbered cosets free, or when the
    complete table has more than ``cap``.
    """
    letters = range(2 * arity)
    cols: list[list[int]] = [[-1] for _ in letters]
    fwd = [0]  # a live coset is its own representative
    # shortest first: their traces close soonest, so HLT defines fewer cosets
    rels = sorted(dict.fromkeys(w for w in relators if w), key=len)
    # a relator traced forward reads its letters' columns, backward the inverses'
    traces = [([cols[x] for x in w], [cols[x ^ 1] for x in w], w) for w in rels]
    per_coset = sum(len(w) for w in rels) + len(cols)  # most definitions one coset makes
    space = SPACE * cap
    defined = 0

    def define(c: int, x: int) -> None:
        nonlocal defined
        if defined == max_definitions:
            raise _GiveUp
        defined += 1
        d = len(fwd)
        fwd.append(d)
        for col in cols:
            col.append(-1)
        cols[x][c] = d
        cols[x ^ 1][d] = c

    def rep(k: int) -> int:
        r = k
        while fwd[r] != r:
            r = fwd[r]
        while fwd[k] != r:
            fwd[k], k = r, fwd[k]
        return r

    def coincidence(a: int, b: int) -> None:
        queue: list[int] = []

        def merge(k: int, m: int) -> None:
            k, m = rep(k), rep(m)
            if k != m:
                k, m = min(k, m), max(k, m)
                fwd[m] = k
                queue.append(m)

        merge(a, b)
        for dead in queue:  # grows while it is read
            for x in letters:
                d = cols[x][dead]
                if d < 0:
                    continue
                col, inv = cols[x], cols[x ^ 1]
                inv[d] = -1
                mu, nu = rep(dead), rep(d)
                if col[mu] >= 0:
                    merge(nu, col[mu])
                elif inv[nu] >= 0:
                    merge(mu, inv[nu])
                else:
                    col[mu], inv[nu] = nu, mu

    def trace(a: int, forward, backward, w: Word, fill: bool) -> None:
        f = b = a
        i, j = 0, len(w) - 1
        while True:
            while i <= j:
                nxt = forward[i][f]
                if nxt < 0:
                    break
                f, i = nxt, i + 1
            else:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                nxt = backward[j][b]
                if nxt < 0:
                    break
                b, j = nxt, j - 1
            else:
                coincidence(f, b)
                return
            if i == j:
                forward[i][f], backward[i][b] = b, f
                return
            if not fill:
                return
            define(f, w[i])

    def compact(a: int) -> int:
        """Number the live cosets densely, in order; return the new number of a."""
        live = [c for c in range(len(fwd)) if fwd[c] == c]
        new = [-1] * len(fwd)
        for i, c in enumerate(live):
            new[c] = i
        for col in cols:
            col[:] = [-1 if d < 0 else new[d] for d in map(col.__getitem__, live)]
        fwd[:] = range(len(live))
        return bisect_left(live, a)

    a = 0
    try:
        for w in subgroup:
            trace(0, [cols[x] for x in w], [cols[x ^ 1] for x in w], w, True)
        while a < len(fwd):
            if len(fwd) + per_coset > space:
                # cosets before a are finished: every relator closes at them
                for c in range(a, len(fwd)):
                    for forward, backward, w in traces:
                        if fwd[c] != c:
                            break
                        trace(c, forward, backward, w, False)
                a = compact(a)
                if 4 * (len(fwd) + per_coset) > 3 * space:
                    return None
                continue
            if fwd[a] == a:
                for forward, backward, w in traces:
                    trace(a, forward, backward, w, True)
                    if fwd[a] != a:
                        break
                else:
                    for x in letters:
                        if cols[x][a] < 0:
                            define(a, x)
            a += 1
    except _GiveUp:
        return None
    compact(0)
    if len(fwd) > cap:
        return None
    return CosetTable(len(fwd), tuple(tuple(col) for col in cols), defined)
