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
Batches are worked node-minor, one vector over the nodes per entry
(contract), with no batched small matmuls.
"""

from __future__ import annotations

import numpy as np


def contract(a, b, out):
    """out = sum_k a[k] * b[k] over the leading axes of a and b, summed in
    the order of k, each term broadcast to out's shape. For node-minor
    operands every term is one contiguous vector operation; the rounding
    does not depend on the operands' memory layout."""
    terms = zip(a, b)
    np.multiply(*next(terms), out=out)
    term = np.empty_like(out)
    for ak, bk in terms:
        out += np.multiply(ak, bk, out=term)
    return out


def hessian_invariants(B, w):
    """(sigma, Q): sigma_0..sigma_n(B), shape (..., n+1), and
    Q_0..Q_{n-1} = w^T T_j(B) w, shape (..., n), for symmetric matrices
    B (..., n, n) and vectors w (..., n), in one recursion pass.

    The recursion runs entry by entry on node-minor arrays (matrix axes
    first), so with node-minor inputs, such as eval_jet_all's, each term
    is one contiguous vector operation, and sigma and Q are views of
    node-minor arrays. B T_{m-1} is formed once per step: its trace is
    m sigma_m and it gives T_m. T_n and Q_n, both zero, are not formed.
    """
    B = np.asarray(B, dtype=float)
    w = np.asarray(w, dtype=float)
    n, lead = B.shape[-1], B.shape[:-2]
    # node-minor views: Bk[k, i] = B[..., i, k] (column k of B) and
    # wt[i] = w[..., i] range over the leading axes
    Bk, wt = np.moveaxis(B, (-1, -2), (0, 1)), np.moveaxis(w, -1, 0)
    sig, Q = np.empty((n + 1,) + lead), np.empty((n,) + lead)
    sig[0] = 1.0
    contract(wt, wt, out=Q[0, ...])
    T, t = np.eye(n).reshape((n, n) + (1,) * len(lead)), wt
    for m in range(1, n + 1):
        BT = contract(Bk[:, :, None], T[:, None],
                      out=np.empty((n, n) + lead))
        sig[m] = sum(BT[i, i] for i in range(n)) / m
        if m < n:
            T = np.negative(BT)
            for i in range(n):
                T[i, i] += sig[m]
            t = sig[m] * wt - contract(Bk, t, out=np.empty((n,) + lead))
            contract(wt, t, out=Q[m, ...])
    return np.moveaxis(sig, 0, -1), np.moveaxis(Q, 0, -1)
