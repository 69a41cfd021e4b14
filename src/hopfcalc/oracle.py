"""Brute-force cross-check of the homology pipeline on small finite groups.

The route is completely independent of the Hopf-formula machinery: a
confluent rewriting system enumerates the group into a multiplication
table, the normalized bar complex is written down as two integer
boundary matrices, and the homology dimensions fall out of ranks over
F_p.  Slow and memory-hungry, which is why it is capped by group order,
but it has no shared failure mode with the pipeline it verifies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import fplinalg, words
from .hopf import BoundKind, _require_prime, run_pipeline
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

# Largest group order the bar-resolution matrices are built for.
DEFAULT_CAP = 24


class OracleUnavailable(Exception):
    """The brute-force route cannot handle this input."""


@dataclass(frozen=True)
class MultTable:
    """Finite group as an explicit multiplication table.

    Elements are indices into the shortlex-ordered list of irreducible
    words, so the identity is always index 0.
    """

    order: int
    product: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    identity: int = 0


def multiplication_table(rws: RewriteSystem, cap: int) -> MultTable:
    """Enumerate a confluent system into a MultTable.

    Raises ValueError on a non-confluent system and Overflow when the
    element count exceeds the cap.  Tables of order at most 24 are
    checked for associativity and identity behaviour on construction.
    """
    if not rws.confluent:
        raise ValueError("multiplication table requires a confluent system")
    elements = enumerate_elements(rws, cap)
    index = {w: i for i, w in enumerate(elements)}
    n = len(elements)
    product = tuple(
        tuple(index[normal_form(rws, u + v)] for v in elements) for u in elements
    )
    inverse = tuple(index[normal_form(rws, words.invert(u))] for u in elements)
    table = MultTable(order=n, product=product, inverse=inverse)
    if n <= 24:
        _audit_table(table)
    return table


def _audit_table(t: MultTable) -> None:
    p = np.array(t.product, dtype=np.int64)
    n = t.order
    idx = np.arange(n)
    if not (np.array_equal(p[0], idx) and np.array_equal(p[:, 0], idx)):
        raise ArithmeticError("identity row or column is not the identity map")
    if not np.array_equal(p[p, :], p[:, p]):
        raise ArithmeticError("multiplication table is not associative")
    for i in range(n):
        if t.product[i][t.inverse[i]] != 0:
            raise ArithmeticError("inverse table is wrong")


@functools.lru_cache(maxsize=4)
def _boundary_matrices(t: MultTable) -> tuple[np.ndarray, np.ndarray]:
    """Degree-2 and degree-3 boundaries of the normalized bar complex.

    Bases are tuples of nonidentity elements; any term whose tuple picks
    up the identity is degenerate and dropped.  Returned over Z, with
    the composition checked to vanish.
    """
    n = t.order
    m = n - 1
    prod = t.product
    d2 = np.zeros((m, m * m), dtype=np.int64)
    for g in range(1, n):
        for h in range(1, n):
            col = (g - 1) * m + (h - 1)
            d2[h - 1, col] += 1
            d2[g - 1, col] += 1
            gh = prod[g][h]
            if gh:
                d2[gh - 1, col] -= 1
    d3 = np.zeros((m * m, m * m * m), dtype=np.int64)
    for g in range(1, n):
        for h in range(1, n):
            gh = prod[g][h]
            for k in range(1, n):
                col = ((g - 1) * m + (h - 1)) * m + (k - 1)
                d3[(h - 1) * m + (k - 1), col] += 1
                if gh:
                    d3[(gh - 1) * m + (k - 1), col] -= 1
                hk = prod[h][k]
                if hk:
                    d3[(g - 1) * m + (hk - 1), col] += 1
                d3[(g - 1) * m + (h - 1), col] -= 1
    # entries stay far below 2^53, so the float matmul is exact
    if np.any(d2.astype(np.float64) @ d3.astype(np.float64)):
        raise ArithmeticError("bar complex boundaries do not compose to zero")
    return d2, d3


def bar_h1(t: MultTable, p: int) -> int:
    """dim H_1(G;F_p) from the bar complex.

    With trivial coefficients the degree-1 boundary vanishes, so this is
    the corank of the degree-2 boundary on the (order-1)-dimensional
    chain space.
    """
    _require_prime(p)
    d2, _ = _boundary_matrices(t)
    return (t.order - 1) - fplinalg.rank(d2, p)


def bar_h2(t: MultTable, p: int) -> int:
    """dim H_2(G;F_p) = dim ker d2 - rank d3 in the bar complex."""
    _require_prime(p)
    d2, d3 = _boundary_matrices(t)
    m = t.order - 1
    return (m * m - fplinalg.rank(d2, p)) - fplinalg.rank(d3, p)


def check(
    pres: Presentation,
    p: int,
    budget: Budget = DEFAULT_BUDGET,
    cap: int = DEFAULT_CAP,
) -> dict:
    """Compare pipeline h1/h2 against the bar-resolution values.

    The verdict is "pass" when h1 agrees, an EXACT h2 agrees, and an
    UPPER_BOUND h2 is not below the true value.  Raises
    OracleUnavailable when no confluent system or small enough table
    exists, without judging the pipeline output either way.  Raises
    ValueError for a cap below 1.
    """
    _require_prime(p)
    if cap < 1:
        raise ValueError(f"oracle group-order cap must be at least 1, got {cap}")
    result = run_pipeline(pres, p, budget)
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
    oracle_h1 = bar_h1(table, p)
    oracle_h2 = bar_h2(table, p)
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
