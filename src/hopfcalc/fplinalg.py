"""Dense linear algebra over the prime field F_p.

Everything works on 2-D numpy int64 arrays holding entries in
``range(p)``. Matrices stay small in this code base (rows and columns
bounded by generator and relator counts, or by group order times
those counts in the oracle), so plain Gaussian elimination is enough.
``rank``, ``rref`` and ``left_kernel_basis`` share one elimination
loop; only ``rref`` clears above its pivots, and ``rank`` transposes
first when that makes the loop run over the short side.
"""

from __future__ import annotations

import numpy as np


def as_fp(mat, p: int) -> np.ndarray:
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError("expected a vector or a 2-D matrix")
    return np.mod(a, p)


def _inv_mod(x: int, p: int) -> int:
    return pow(int(x), p - 2, p)


def _eliminate(a: np.ndarray, p: int, n_cols: int, full: bool) -> list[int]:
    """Gaussian elimination of ``a`` in place; returns the pivot columns.

    Pivots are searched in the first ``n_cols`` columns.  Each pivot row
    is scaled to a leading 1 and clears its column in the rows below,
    or with ``full`` in every other row, which leaves the reduced row
    echelon form.
    """
    rows = a.shape[0]
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * _inv_mod(a[r, c], p)) % p
        if full:
            targets = np.nonzero(a[:, c])[0]
            targets = targets[targets != r]
        else:
            targets = r + 1 + np.nonzero(a[r + 1:, c])[0]
        if targets.size:
            a[targets] = (a[targets] - np.outer(a[targets, c], a[r])) % p
        pivots.append(c)
        r += 1
    return pivots


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    a = as_fp(mat, p)
    return a, _eliminate(a, p, a.shape[1], full=True)


def rank(mat, p: int) -> int:
    """Rank by forward elimination, transposing tall matrices first."""
    a = as_fp(mat, p)
    if a.shape[0] > a.shape[1]:
        a = a.T.copy()
    return len(_eliminate(a, p, a.shape[1], full=False))


def left_kernel_basis(mat, p: int) -> np.ndarray:
    """Canonical basis (RREF rows) of {v : v @ mat == 0 mod p}.

    Found by forward-reducing the block matrix [mat | I] with pivot
    search restricted to the mat columns; the rows below the last pivot
    have a dead mat part and carry independent kernel vectors in the
    identity part.
    """
    a = as_fp(mat, p)
    m, n = a.shape
    aug = np.concatenate([a, np.eye(m, dtype=np.int64)], axis=1)
    r = len(_eliminate(aug, p, n, full=False))
    kern = aug[r:, n:]
    return rref(kern, p)[0] if kern.size else kern
