"""Hessian invariants: elementary symmetric functions and Newton quadratics.

For a symmetric matrix B and a vector w the curvature integrals read
sigma_j(B) and Q_j = w^T T_j(B) w, where T_j is the Newton transformation
(T_0 = I, T_j = sigma_j I - B T_{j-1}, d sigma_{j+1} = tr(T_j dB), and
T_n = 0 by Cayley-Hamilton). Both come in closed form from the
n(n+1)/2 unique entries of B, with no matrix product: sigma_j is the sum
of B's principal j x j minors, each a Laplace expansion along its first
row over memoized smaller minors, and unrolling the recursion gives

    Q_j = sum_{i=0..j} (-1)^i sigma_{j-i} p_i,   p_i = w^T B^i w,

with p_{2m} = |B^m w|^2 and p_{2m+1} = (B^m w) . (B^{m+1} w). graphgeom
takes sigma_k of the shape operator from these invariants in closed form
(see its module docstring); the eigenvalue, minor-sum and matrix-recursion
oracles live in tests/oracles.py.
Batches are worked node-minor, one vector over the nodes per entry
(contract), with no batched small matmuls.
"""

from __future__ import annotations

from itertools import combinations

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


def _minor(b, rows, cols, memo):
    """det B[rows][:, cols] from the entry vectors b[i, j], by Laplace
    expansion along the first row; memo holds every minor formed, keyed
    once for a minor and its transpose (B is symmetric)."""
    if len(rows) == 1:
        return b[rows[0], cols[0]]
    key = min((rows, cols), (cols, rows))
    if key not in memo:
        det = None
        for i, c in enumerate(cols):
            term = b[rows[0], c] * _minor(b, rows[1:], cols[:i] + cols[i + 1:],
                                          memo)
            det = term if det is None else det - term if i % 2 else det + term
        memo[key] = det
    return memo[key]


def hessian_invariants(B, w):
    """(sigma, Q): sigma_0..sigma_n(B), shape (..., n+1), and
    Q_0..Q_{n-1} = w^T T_j(B) w, shape (..., n), for symmetric matrices
    B (..., n, n) and vectors w (..., n), by the closed forms in the
    module docstring. Only the upper triangle of B is read.

    Every term runs entry by entry on the leading axes, so with
    node-minor inputs, such as eval_jet_all's, each term is one
    contiguous vector operation, the rounding does not depend on the
    inputs' layout, and sigma and Q are views of node-minor arrays.
    """
    B = np.asarray(B, dtype=float)
    w = np.asarray(w, dtype=float)
    n, lead = B.shape[-1], B.shape[:-2]
    # node-minor views of the upper entries, b[i, j] = b[j, i] = B[..., i, j]
    b = {(i, j): B[..., min(i, j), max(i, j)]
         for i in range(n) for j in range(n)}
    wt = np.moveaxis(w, -1, 0)
    sig, Q = np.empty((n + 1,) + lead), np.empty((n,) + lead)
    sig[0] = 1.0
    memo = {}
    for j in range(1, n + 1):
        minors = [_minor(b, s, s, memo) for s in combinations(range(n), j)]
        sig[j] = sum(minors[1:], minors[0])
    # v[m] = B^m w through m = n // 2, and p[i] = w^T B^i w
    v = [wt]
    while len(v) <= n // 2:
        v.append(np.empty((n,) + lead))
        for i in range(n):
            contract([b[i, j] for j in range(n)], v[-2], out=v[-1][i, ...])
    p = [contract(v[i // 2], v[i - i // 2], out=np.empty(lead))
         for i in range(n)]
    alternating = [-x if i % 2 else x for i, x in enumerate(p)]
    for j in range(n):
        contract(sig[j::-1], alternating, out=Q[j, ...])
    return np.moveaxis(sig, 0, -1), np.moveaxis(Q, 0, -1)
