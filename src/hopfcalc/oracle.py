"""Cross-check of the homology pipeline on finite groups.

A confluent rewriting system enumerates the group and tabulates the
right action of each letter as a ``cosets.CosetTable``.  From that
table come, over F_p, the Fox-derivative boundary D2 of the universal
cover of the presentation complex (Fox, Ann. Math. 57, 1953; Brown,
GTM 87, II.5) and the augmentation ideal I of F_p[G]; h1 = dim I/I^2
and, by Hopf's formula, h2 = (r - rank E) - rank eps(ker D2), from
ranks alone.  The matrices grow with |G|.  The oracle completes the base itself and the pipeline
completes its own, so the two share no completion object.  They still
share the routines: ``knuth_bendix`` and the element enumeration (the
pipeline counts its base through them, the oracle builds its table),
the table type with ``check_table`` and ``walk``, and ``fplinalg``'s
one elimination loop, under ``rank``, ``rref`` and ``kernel_image``;
a fault there can hide from the oracle.  They share nothing with the coset enumerator,
the p-cover, the spanning-set search or the removal certificates.
"""

from __future__ import annotations

import numpy as np

from . import fplinalg
from .cosets import CosetTable, check_table, walk
from .hopf import BoundKind, run_pipeline
from .presentation import Presentation
from .rewrite import (
    DEFAULT_BUDGET,
    Budget,
    Overflow,
    RewriteSystem,
    enumerate_elements,
    initial_rules,
    knuth_bendix,
    normal_form,
)
from .words import Word

# Largest group order the oracle builds its matrices for.
DEFAULT_CAP = 500


class OracleUnavailable(Exception):
    """The oracle cannot handle this input."""


def multiplication_table(rws: RewriteSystem, cap: int) -> CosetTable:
    """Enumerate a confluent system into the coset table of its right regular action.

    Coset i is the i-th irreducible word in shortlex order, so coset 0
    is the identity.  ``enumerate_elements`` raises ValueError on a
    non-confluent system and Overflow when the element count exceeds
    the cap.  Raises ArithmeticError unless each element's own letters
    lead from the identity to it, which makes the table transitive;
    ``bar_h2``'s ``check_table`` proves its letters permutations.
    """
    elements = enumerate_elements(rws, cap)
    index = {w: i for i, w in enumerate(elements)}
    columns = tuple(
        tuple(index[normal_form(rws, w + (x,))] for w in elements)
        for x in range(2 * rws.arity)
    )
    table = CosetTable(len(elements), columns, 0)
    for i, w in enumerate(elements):
        g = walk(table, 0, w)
        if g != i:
            raise ArithmeticError(f"the letters of element {i} lead to element {g}")
    return table


# perfbench/spans.py wraps bar_h1 and bar_h2 by name, so they keep the
# names of the bar-complex oracle they replaced until the benchmark changes
def bar_h1(t: CosetTable, p: int) -> int:
    """dim H_1(G;F_p) = dim I/I^2, I the augmentation ideal of F_p[G].

    I^2 is spanned by (g - 1)(x - 1) = gx - g - x + 1 over the elements g
    and generators x.  In the basis h - 1 (h not the identity) of I,
    each is its group-basis column with the identity coordinate dropped.
    """
    fplinalg.require_prime(p)
    n, k = t.order, len(t.columns) // 2
    # the reshape keeps act (n, k) when there are no generators
    act = np.array(t.columns[::2], dtype=np.int64).reshape(k, n).T
    span = np.zeros((n, n * k), dtype=np.int64)
    cols = np.arange(n * k)
    np.add.at(span, (act.ravel(), cols), 1)
    np.add.at(span, (np.repeat(np.arange(n), k), cols), -1)
    np.add.at(span, (np.tile(act[0], n), cols), -1)
    return (n - 1) - fplinalg.rank(span[1:], p)


def bar_h2(t: CosetTable, relators: tuple[Word, ...], p: int) -> int:
    """dim H_2(G;F_p) from the Fox-derivative boundary D2 over F_p.

    Row (g, i) of D2 is g * d(r_i)/d(x_j) written in the group basis,
    with column (h, j) at h * k + j for k generators.  With A the
    augmentation block (row (g, i) has a 1 in column i), rank eps(ker D2)
    is the rank of the A parts of the rows that die on the D2 columns
    when [D2 | A] is reduced there, in one elimination of D2.
    Raises ArithmeticError, from ``check_table``, unless ``t`` is an
    action in which every relator holds.
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
    # the identity rows summed over the column blocks are the exponent sums
    exponents = d2[:r].reshape(r, order, k).sum(axis=1)
    augment = np.tile(np.eye(r, dtype=np.int64), (order, 1))
    _, eps_ker = fplinalg.kernel_image(d2, augment, p)
    return (r - fplinalg.rank(exponents, p)) - fplinalg.rank(eps_ker, p)


def check(
    pres: Presentation,
    p: int,
    budget: Budget = DEFAULT_BUDGET,
    cap: int = DEFAULT_CAP,
) -> dict:
    """Compare pipeline h1/h2 against the oracle values.

    The verdict is "pass" when h1 agrees, an EXACT h2 agrees, and an
    UPPER_BOUND h2 is not below the true value.  Raises
    OracleUnavailable when no confluent system or small enough table
    exists, before running the pipeline and without judging it either
    way.  Raises ValueError for a cap below 1.  The table is checked
    once, by ``bar_h2``, which runs before ``bar_h1`` reads it.
    """
    fplinalg.require_prime(p)
    if cap < 1:
        raise ValueError(f"oracle group-order cap must be at least 1, got {cap}")
    base = knuth_bendix(initial_rules(pres), budget)
    if not base.confluent:
        raise OracleUnavailable(
            "no confluent rewriting system within budget; cannot enumerate the group"
        )
    try:
        table = multiplication_table(base, cap)
    except Overflow:
        raise OracleUnavailable(
            f"group order exceeds the oracle cap ({cap}); the group may be infinite"
        ) from None
    oracle_h2 = bar_h2(table, pres.relators, p)
    oracle_h1 = bar_h1(table, p)
    result = run_pipeline(pres, p, budget)
    exact = result.h2_kind is BoundKind.EXACT
    h1_ok = result.h1_dim == oracle_h1
    h2_ok = result.h2_value == oracle_h2 if exact else result.h2_value >= oracle_h2
    return {
        "group": result.group,
        "prime": p,
        "pipeline_h1": result.h1_dim,
        "pipeline_h2": result.h2_value,
        "pipeline_kind": result.h2_kind.value,
        "oracle_h1": oracle_h1,
        "oracle_h2": oracle_h2,
        "verdict": "pass" if (h1_ok and h2_ok) else "fail",
    }
