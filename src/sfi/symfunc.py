"""Elementary symmetric functions and Newton transformations.

The production path, sigma_all_batch, never computes eigenvalues: sigma_k
is a coefficient of the characteristic polynomial, and Newton's identities
give it from the recursion T_0 = I, sigma_k = tr(A T_{k-1}) / k,
T_k = sigma_k I - A T_{k-1}. Two independent oracles are kept: sigma_all
builds the elementary symmetric polynomials from the eigenvalues of one
matrix, and sigma_minor_sum sums principal minors. Newton tensors use the
same recursion, with the derivative definition d sigma_{k+1} = tr(T_k dA)
kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

ASYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class SymmetricTensor:
    """Dense symmetric matrix in frame components."""

    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.mat, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        gap = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
        if gap > ASYMMETRY_TOL * scale:
            raise ValueError(f"matrix asymmetry {gap:.3e} exceeds tolerance")
        object.__setattr__(self, "mat", 0.5 * (a + a.T))

    @property
    def n(self):
        return self.mat.shape[0]


def _as_matrix(A):
    return A.mat if isinstance(A, SymmetricTensor) else np.asarray(A, dtype=float)


def elementary_from_eigenvalues(lams):
    """Elementary symmetric polynomials e_0..e_n of the last-axis values."""
    lams = np.asarray(lams, dtype=float)
    n = lams.shape[-1]
    e = np.zeros(lams.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        lam = lams[..., i]
        for k in range(i + 1, 0, -1):
            e[..., k] += lam * e[..., k - 1]
    return e


def sigma_all(A):
    """(sigma_0, ..., sigma_n) of a symmetric matrix via eigenvalues
    (oracle for sigma_all_batch)."""
    return elementary_from_eigenvalues(np.linalg.eigvalsh(_as_matrix(A)))


def _newton_recursion(a, k):
    """sigma_0..sigma_k and T_k of symmetric matrices a (..., n, n).

    Newton's identities: T_0 = I, sigma_m = tr(A T_{m-1}) / m and
    T_m = sigma_m I - A T_{m-1}, where tr(A T) is the entrywise sum of
    A * T because A and T are symmetric. No eigenvalue is computed.
    """
    sig = np.empty(a.shape[:-2] + (k + 1,))
    sig[..., 0] = 1.0
    eye = np.eye(a.shape[-1])
    T = eye
    for m in range(1, k + 1):
        sig[..., m] = np.einsum("...ij,...ij->...", a, T) / m
        T = sig[..., m, None, None] * eye - a @ T
    return sig, T


def sigma_all_batch(mats):
    """(sigma_0, ..., sigma_n) of symmetric matrices of shape (..., n, n),
    by Newton's identities; T_n (zero by Cayley-Hamilton) is not formed."""
    a = np.asarray(mats, dtype=float)
    n = a.shape[-1]
    sig, T = _newton_recursion(a, n - 1)
    last = np.einsum("...ij,...ij->...", a, T) / n
    return np.concatenate([sig, last[..., None]], axis=-1)


def sigma_minor_sum(A, k):
    """Independent oracle: sigma_k as a sum of principal k x k minors.

    Valid for any square matrix (char-poly coefficient); cost grows as
    C(n, k), intended for small n.
    """
    a = _as_matrix(A)
    n = a.shape[0]
    if k == 0:
        return 1.0
    total = 0.0
    for rows in combinations(range(n), k):
        idx = np.ix_(rows, rows)
        total += float(np.linalg.det(a[idx]))
    return total


def newton_tensor(A, k):
    """Newton transformation T_k via the recursion T_k = sigma_k I - A T_{k-1}."""
    a = _as_matrix(A)
    n = a.shape[0]
    if not 0 <= k <= n - 1:
        raise ValueError(f"Newton tensor order k={k} outside [0, {n - 1}]")
    sig = sigma_all(a)
    T = np.eye(n)
    for m in range(1, k + 1):
        T = sig[m] * np.eye(n) - a @ T
    return SymmetricTensor(T)


def newton_tensor_batch(mats, k):
    """Batched Newton tensors for matrices of shape (..., n, n)."""
    a = np.asarray(mats, dtype=float)
    n = a.shape[-1]
    if not 0 <= k <= n - 1:
        raise ValueError(f"Newton tensor order k={k} outside [0, {n - 1}]")
    _, T = _newton_recursion(a, k)
    T = np.broadcast_to(T, a.shape)
    return 0.5 * (T + np.swapaxes(T, -1, -2))


def newton_quadratic(T, v):
    """Quadratic form v^T T v of a Newton tensor in frame components."""
    t = _as_matrix(T)
    v = np.asarray(v, dtype=float)
    return float(v @ t @ v)


def newton_quadratic_batch(Ts, vs):
    """Batched v^T T v over matching leading axes."""
    return np.einsum("...i,...ij,...j->...", vs, Ts, vs)
