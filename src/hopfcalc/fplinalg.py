"""Dense linear algebra over the prime field F_p.

Everything works on 2-D numpy int64 arrays holding entries in
``range(p)``. Matrices stay small in this code base (rows and columns
bounded by generator and relator counts, or by group order times
those counts in the oracle), so plain Gaussian elimination is enough.
``rank``, ``rref`` and ``kernel_image`` share one elimination loop, and
``left_kernel_basis`` is ``kernel_image`` of the identity; only ``rref``
clears above its pivots.  The loop runs over the columns and stops once
every row has a pivot.  ``kernel_image`` gives the rank of a matrix and
the image of its left kernel from one pass.
"""

from __future__ import annotations

import numpy as np

# Moduli stay below this, so that the product of two residues fits in int64.
PRIME_LIMIT = 2**31


def require_prime(p) -> None:
    """ValueError unless p is a prime int below ``PRIME_LIMIT``."""
    if isinstance(p, bool) or not isinstance(p, int):
        raise ValueError(f"modulus must be a prime integer, got {p!r}")
    if p >= PRIME_LIMIT:
        raise ValueError(f"modulus must be below 2^31, got {p}")
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValueError(f"modulus must be prime, got {p}")


def _as_2d(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError("expected a vector or a 2-D matrix")
    return a


def as_fp(mat, p: int) -> np.ndarray:
    return np.mod(_as_2d(mat), p)


def _inv_mod(x: int, p: int) -> int:
    return pow(int(x), p - 2, p)


def _eliminate(a: np.ndarray, p: int, n_cols: int, full: bool) -> list[int]:
    """Gaussian elimination of ``a`` in place; returns the pivot columns.

    Pivots are searched in the first ``n_cols`` columns.  Each pivot row
    is scaled to a leading 1 and clears its column in the rows below,
    or with ``full`` in every other row, which leaves the reduced row
    echelon form.
    """
    if p >= PRIME_LIMIT:
        raise ValueError(f"modulus must be below 2^31, got {p}")
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
    """Rank by forward elimination."""
    a = as_fp(mat, p)
    return len(_eliminate(a, p, a.shape[1], full=False))


def kernel_image(mat, right, p: int) -> tuple[int, np.ndarray]:
    """Rank of ``mat`` and rows spanning {v @ right : v @ mat == 0 mod p}.

    Forward-reduces the block matrix [mat | right] with pivot search
    restricted to the mat columns.  The rows below the last pivot have a
    dead mat part: they are v @ [mat | right] for v running over a basis
    of the left kernel of mat, and their right parts are returned.
    Both blocks are reduced mod p straight into the one block array, so
    no reduced copy of ``mat`` exists beside it.
    """
    a, b = _as_2d(mat), _as_2d(right)
    if a.shape[0] != b.shape[0]:
        raise ValueError("mat and right must have the same number of rows")
    n = a.shape[1]
    aug = np.empty((a.shape[0], n + b.shape[1]), dtype=np.int64)
    np.mod(a, p, out=aug[:, :n])
    np.mod(b, p, out=aug[:, n:])
    r = len(_eliminate(aug, p, n, full=False))
    return r, aug[r:, n:]


def left_kernel_basis(mat, p: int) -> np.ndarray:
    """Canonical basis (RREF rows) of {v : v @ mat == 0 mod p}."""
    a = as_fp(mat, p)
    _, kern = kernel_image(a, np.eye(a.shape[0], dtype=np.int64), p)
    return rref(kern, p)[0] if kern.size else kern
