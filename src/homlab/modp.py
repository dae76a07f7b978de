"""Exact linear algebra over Z/p (p prime), numpy int64 throughout."""

from __future__ import annotations

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def rref(rows: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon form mod p, zero rows dropped."""
    m = np.array(rows, dtype=np.int64) % p
    if m.size == 0:
        return m.reshape(0, m.shape[1] if m.ndim == 2 else 0)
    r = 0
    for col in range(m.shape[1]):
        piv = next((i for i in range(r, m.shape[0]) if m[i, col]), None)
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] * pow(int(m[r, col]), -1, p) % p
        for i in range(m.shape[0]):
            if i != r and m[i, col]:
                m[i] = (m[i] - m[i, col] * m[r]) % p
        r += 1
        if r == m.shape[0]:
            break
    return m[(m != 0).any(axis=1)]


def solve(a: np.ndarray, b: np.ndarray, p: int):
    """One solution of a @ x = b mod p, or None if inconsistent."""
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    rows, cols = a.shape
    aug = np.concatenate([a, b.reshape(rows, 1)], axis=1)
    red = rref(aug, p)
    x = np.zeros(cols, dtype=np.int64)
    for row in red:
        piv = next((j for j in range(cols) if row[j]), None)
        if piv is None:
            if row[cols]:
                return None
            continue
        # RREF: pivot is 1 and the only nonzero in its column, so free
        # variables (set to 0) leave x[piv] = rhs.
        x[piv] = row[cols]
    if np.any((a @ x - b) % p):
        return None
    return x


def null_space(a: np.ndarray, p: int) -> np.ndarray:
    """Basis (rows) of {x : a @ x = 0 mod p}."""
    a = np.asarray(a, dtype=np.int64) % p
    cols = a.shape[1]
    red = rref(a, p)
    pivots = []
    for row in red:
        piv = next(j for j in range(cols) if row[j])
        pivots.append(piv)
    free = [j for j in range(cols) if j not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, j in enumerate(free):
        basis[k, j] = 1
        for r, piv in enumerate(pivots):
            basis[k, piv] = (-red[r, j]) % p
    return basis


def inv_matrix(a: np.ndarray, p: int):
    """Matrix inverse mod p, or None if singular."""
    a = np.asarray(a, dtype=np.int64) % p
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    red = rref(aug, p)
    if red.shape[0] < n or np.any(red[:, :n] != np.eye(n, dtype=np.int64)):
        return None
    return red[:, n:]
