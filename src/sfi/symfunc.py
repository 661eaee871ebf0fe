"""Elementary symmetric functions and Newton transformations.

The production path, sigma_all_batch, never computes eigenvalues: sigma_k
is a coefficient of the characteristic polynomial, and Newton's identities
give it from the recursion T_0 = I, sigma_k = tr(A T_{k-1}) / k,
T_k = sigma_k I - A T_{k-1}. Newton tensors use the same recursion. The
independent oracles (sigma_k from the eigenvalues of one matrix, sigma_k
as a sum of principal minors, and the single-matrix Newton tensor checked
against d sigma_{k+1} = tr(T_k dA)) live in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np


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


def newton_tensor_batch(mats, k):
    """Batched Newton tensors for matrices of shape (..., n, n)."""
    a = np.asarray(mats, dtype=float)
    n = a.shape[-1]
    if not 0 <= k <= n - 1:
        raise ValueError(f"Newton tensor order k={k} outside [0, {n - 1}]")
    _, T = _newton_recursion(a, k)
    T = np.broadcast_to(T, a.shape)
    return 0.5 * (T + np.swapaxes(T, -1, -2))


def newton_quadratic_batch(Ts, vs):
    """Batched v^T T v over matching leading axes."""
    return np.einsum("...i,...ij,...j->...", vs, Ts, vs)
