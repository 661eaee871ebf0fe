"""Hessian invariants: elementary symmetric functions and Newton quadratics.

For a symmetric matrix B and a vector w the curvature integrals read
sigma_j(B) and Q_j = w^T T_j(B) w, where T_j is the Newton transformation
(T_0 = I, T_j = sigma_j I - B T_{j-1}, d sigma_{j+1} = tr(T_j dB), and
T_n = 0 by Cayley-Hamilton). Newton's identities give both without an
eigenvalue: sigma_m = tr(B T_{m-1}) / m, and Q_m = w . t_m from the
vector recursion t_0 = w, t_m = T_m w = sigma_m w - B t_{m-1}. graphgeom
takes sigma_k of the shape operator from these invariants in closed form
(see its module docstring); the eigenvalue, minor-sum and matrix-recursion
oracles live in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np


def hessian_invariants(B, w):
    """(sigma, Q): sigma_0..sigma_n(B), shape (..., n+1), and
    Q_0..Q_{n-1} = w^T T_j(B) w, shape (..., n), for symmetric matrices
    B (..., n, n) and vectors w (..., n), in one recursion pass.

    tr(B T) is the entrywise sum of B * T because B and T are symmetric.
    T_n and Q_n, both zero, are not formed.
    """
    B = np.asarray(B, dtype=float)
    w = np.asarray(w, dtype=float)
    n = B.shape[-1]
    sig = np.empty(B.shape[:-2] + (n + 1,))
    Q = np.empty(B.shape[:-2] + (n,))
    sig[..., 0] = 1.0
    Q[..., 0] = np.einsum("...i,...i->...", w, w)
    eye = np.eye(n)
    T, t = eye, w
    for m in range(1, n + 1):
        sig[..., m] = np.einsum("...ij,...ij->...", B, T) / m
        if m < n:
            T = sig[..., m, None, None] * eye - B @ T
            t = sig[..., m, None] * w - (B @ t[..., None])[..., 0]
            Q[..., m] = np.einsum("...i,...i->...", w, t)
    return sig, Q
