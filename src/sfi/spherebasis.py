"""Quadrature grids on S^n and a harmonic-polynomial function basis.

Functions on the sphere are represented in a basis of homogeneous harmonic
polynomials restricted to S^n (spherical harmonics), L^2-orthonormalized
with exact monomial integrals. Keeping the ambient polynomial form gives
machine-precision covariant derivatives everywhere, with no chart
singularities: for a degree-d homogeneous extension U and a unit vector x,

    u = U(x),  grad u = tangential part of DU,
    Hess u(X, Y) = X . (D^2 U) Y - (x . DU) <X, Y>.

Grids are tensor products: Gauss-Jacobi nodes in each polar cosine (weight
(1 - t^2)^{(n-2)/2}, matching the slice measure) and uniform azimuth, so a
stated polynomial exactness degree holds by construction.

Set-up uses numpy alone and has no loop over monomials or nodes: the
derivatives of monomials are index maps (IndexMap), each degree's
harmonics come from numpy's SVD, Cholesky factor and a forward
substitution, the polar rules from Golub-Welsch (_gauss_jacobi), and the
index maps that group monomials level by level from numpy's unique.
Set-up is cheap, so nothing is cached on disk. A process builds each
basis once per (n, d_max) and each grid once per (n, resolution); the
basis owns its monomial table, and a grid holds only its own rule.

Grid values are synthesized by sum factorization over the grid's 1-D
rules (_synthesize): a monomial at a node is a product of one power pair
per level, so the monomial coefficients are contracted with one level's
power table at a time, and no (basis size x nodes) array is formed. The
2-jet synthesizes the polynomial's monomial derivatives the same way,
laid out node-minor through symfunc. Projection runs the adjoint
(_moments): the monomial moments of weights * samples, then the basis
coefficients times those moments.

Every synthesis kernel (evaluate, values_on_grid, eval_jet_all,
SphericalFunction.polynomial_coeffs) runs through u's own degree, the
degree of its last coefficient that is not exactly 0 (_top_degree; NaN
and inf count as nonzero). The basis and the monomial table are graded,
so the elements and monomials through that degree are a prefix: a
degree-4 profile in a degree-8 basis sums 35 of the 285 elements into 70
of the 495 monomials. The 2-jet's gradient and Hessian columns run
through one and two degrees less. A function with degree-d_max content
runs the same code through d_max.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gamma, prod
from typing import NamedTuple

import numpy as np

from sfi import symfunc as sy
from sfi.spaceform import unit_sphere_area

SUPPORTED_DIMENSIONS = (2, 3, 4)
MIN_RESOLUTION = 4
# Points per block of evaluate (and of graphgeom's scaled integrands).
# evaluate runs through the polynomial's own degree, so its temporaries
# depend on that degree. At n = 3 and degree 4, the power table is
# 4 x 5 x 512 doubles (80 KB) and each half-table monomial block
# 15 x 512 (60 KB), both under glibc's default mmap threshold (128 KB).
# At degree 8 they are 4 x 9 x 512 (147 KB) and 45 x 512 (184 KB), above
# it: whether such a block is reused from the heap or mapped and faulted
# in afresh on each call depends on the process's dynamic mmap threshold.
NODE_BLOCK = 512
# Relative slack of the Hessian-norm pruning test (_hessian_norm): a sum
# of at most 16 squares rounds by under 16 ulps.
PRUNE_SLACK = 1e-12


# ---------------------------------------------------------------------------
# monomial tables

class IndexMap(NamedTuple):
    """A differentiation operator on monomial coefficient vectors:
    out[dst] = scale * c[src], zero elsewhere. A derivative of a monomial
    is one monomial times an integer, so each output row has at most one
    source, and each entry rounds once."""

    dst: np.ndarray
    src: np.ndarray
    scale: np.ndarray


class MonomialTable:
    """Graded monomial basis for polynomials of degree <= max_degree.

    Stores exponent rows in graded lexicographic order together with the
    index maps of every first derivative d/dx_j (diff_maps[j]) and second
    derivative d^2/dx_j dx_k (second_diff_maps[j, k], j <= k), all built
    here, so a table shared between threads is never written to.
    """

    def __init__(self, nvars, max_degree):
        self.nvars = nvars
        self.max_degree = max_degree
        # every exponent tuple with entries <= max_degree, as base-(degree+1)
        # digits of its flat index: lexicographic order is flat-index order
        shape = (max_degree + 1,) * nvars
        grid = np.indices(shape).reshape(nvars, -1).T
        total = grid.sum(axis=1)
        keep = np.nonzero(total <= max_degree)[0]
        # graded by total degree, each degree in reverse lexicographic order
        order = keep[np.lexsort((-keep, total[keep]))]
        self.exponents = grid[order]
        self.size = len(order)
        # total degree of each row, ascending
        self.degrees = total[order]
        counts = np.bincount(self.degrees, minlength=max_degree + 1)
        ends = np.cumsum(counts).tolist()
        self.degree_slices = [slice(e - c, e) for e, c in
                              zip(ends, counts.tolist())]
        # d/dx_j maps x^e to e_j x^(e - unit_j), whose flat index is one
        # stride of variable j lower; row maps flat indices to table rows
        row = np.full(len(grid), -1, dtype=np.int64)
        row[order] = np.arange(self.size)
        strides = (max_degree + 1) ** np.arange(nvars - 1, -1, -1)

        def derivative(alpha):
            # d^alpha x^e = e!/(e - alpha)! x^(e - alpha), alpha_j <= 2
            src = np.nonzero(np.all(self.exponents >= alpha, axis=1))[0]
            e = self.exponents[src]
            scale = np.prod(np.where(alpha > 0, e, 1)
                            * np.where(alpha > 1, e - 1, 1), axis=1)
            return IndexMap(row[order[src] - alpha @ strides], src, scale)

        unit = np.eye(nvars, dtype=np.int64)
        self.jet_pairs = [(j, k) for j in range(nvars)
                          for k in range(j, nvars)]
        maps = [derivative(alpha) for alpha in
                [0 * unit[0], *unit,
                 *(unit[j] + unit[k] for j, k in self.jet_pairs)]]
        self.diff_maps = maps[1:nvars + 1]
        self.second_diff_maps = dict(zip(self.jet_pairs, maps[nvars + 1:]))
        # the 2-jet's coefficient columns c, d/dx_j c and d^2/dx_j dx_k c
        # (jet_pairs order) as one map into a C-ordered (size, columns)
        self._jet_columns = len(maps)
        self._jet_map = IndexMap(*map(np.concatenate, zip(*(
            (m.dst * len(maps) + col, m.src, m.scale)
            for col, m in enumerate(maps)))))
        # monomial i = x_lead^a * x_trail^b, where a and b index the
        # distinct exponent rows of the leading and trailing halves of the
        # variables; _halves[top] holds (lead rows, trail rows, (a, b) of
        # each monomial) for the monomials of degree <= top, a prefix of
        # the table (evaluate)
        self._split = nvars // 2
        self._halves = []
        for mono in self.degree_slices:
            halves = [np.unique(part, axis=0, return_inverse=True)
                      for part in (self.exponents[:mono.stop, :self._split],
                                   self.exponents[:mono.stop, self._split:])]
            self._halves.append((*(rows for rows, _ in halves),
                                 tuple(inv.ravel() for _, inv in halves)))
        # on a product grid (_synthesize), x^e is the product over levels
        # L < nvars - 2 of c_L^e_L s_L^|e_{L+1:}|, times
        # c^e_{nvars-2} s^e_{nvars-1} on the last. Level L lists the
        # distinct suffixes e_{L:} graded (level 0 is the table), so those
        # through any degree lead it; each row points to its suffix
        # e_{L+1:} in level L + 1 (parent) and keeps its head e_L.
        # _levels[top] holds, per level, (parent, head, degree of each
        # next-level row) through degree top, and the last level's
        # exponent pairs
        base = max_degree + 1
        reps, degs, maps = np.arange(self.size), [self.degrees], []
        for L in range(nvars - 2):
            tail = self.exponents[:, L + 1:]
            key = tail.sum(axis=1) * base ** tail.shape[1] \
                + tail @ base ** np.arange(tail.shape[1])
            _, first, inv = np.unique(key, return_index=True,
                                      return_inverse=True)
            maps.append((inv[reps], self.exponents[reps, L]))
            reps = first
            degs.append(tail[first].sum(axis=1))
        pairs = self.exponents[reps, -2:]
        self._levels = []
        for top in range(max_degree + 1):
            end = [int(np.searchsorted(d, top, side="right")) for d in degs]
            self._levels.append((
                [(parent[:end[L]], head[:end[L]], degs[L + 1][:end[L + 1]])
                 for L, (parent, head) in enumerate(maps)],
                pairs[:end[-1]]))

    def jet_coefficients(self, c):
        """Coefficient columns of the 2-jet of the polynomial c, shape
        (size, 1 + nvars + len(jet_pairs)), C-ordered: c, then d/dx_j c
        for each j, then d^2/dx_j dx_k c for each pair of jet_pairs; one
        gather and scale."""
        dst, src, scale = self._jet_map
        out = np.zeros(self.size * self._jet_columns)
        out[dst] = scale * c[src]
        return out.reshape(self.size, self._jet_columns)

    def _power_blocks(self, pts, top):
        """(rows, powers) for each block of NODE_BLOCK points of the (N,
        nvars) array pts: rows slices the block out of pts, and powers
        holds the per-variable powers x_j^p for p <= top node-minor, shape
        (nvars, top+1, block), contiguous, the node axis last. Blocks
        bound the size of a caller's temporaries (see NODE_BLOCK)."""
        for start in range(0, len(pts), NODE_BLOCK):
            rows = slice(start, start + NODE_BLOCK)
            block = pts[rows].T
            powers = np.empty((self.nvars, top + 1, block.shape[1]))
            powers[:, 0] = 1.0
            for p in range(1, top + 1):
                powers[:, p] = powers[:, p - 1] * block
            yield rows, powers

    def evaluate(self, points, coeffs):
        """Values of the polynomial with these coefficients (one per
        table row) at points.

        Runs through the polynomial's own degree top, that of its last
        coefficient that is not exactly 0 (_top_degree): the monomials of
        degree <= top lead the table. Never forms the (N, size)
        Vandermonde matrix. Those coefficients are scattered into one
        small dense matrix over the exponent rows of the leading and
        trailing halves of the variables through top (15 x 15 at n = 3
        and top 4, 45 x 45 at top 8); per block of points, the two
        halves' power tables through top are formed along the node axis
        and contracted as lead . (dense @ trail) node by node.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        top = _top_degree(coeffs, self.degrees)
        lead_rows, trail_rows, at = self._halves[top]
        dense = np.zeros((len(lead_rows), len(trail_rows)))
        dense[at] = coeffs[:len(at[0])]
        out = np.empty(len(pts))
        for rows, powers in self._power_blocks(pts, top):
            lead = _monomial_rows(powers[:self._split], lead_rows)
            trail = _monomial_rows(powers[self._split:], trail_rows)
            out[rows] = np.einsum("ij,ij->j", lead, dense @ trail)
        return out


def _top_degree(coeffs, degrees):
    """Degree of the last entry of coeffs that is not exactly 0, where
    degrees (ascending) holds each entry's degree; 0 when every entry is
    0. NaN and inf count as nonzero, so a kernel trimmed to this degree
    never drops a non-finite coefficient."""
    nonzero = np.flatnonzero(coeffs)
    return int(degrees[nonzero[-1]]) if len(nonzero) else 0


def _monomial_rows(powers, exponents):
    """Monomials along the node axis from the (k, degree+1, N) power table
    of k variables: row i is x_0^e_i0 x_1^e_i1 ..., multiplied from the
    left, for the exponent rows e_i of exponents (shape (rows, k))."""
    out = powers[0, exponents[:, 0]]
    for j in range(1, len(powers)):
        out *= powers[j, exponents[:, j]]
    return out


def _sphere_moments(exponents, top):
    """Exact integrals of x^e over the unit sphere S^{m-1}, where the
    iterable exponents yields e_j for every monomial, one integer array
    per variable (all of one shape, total degrees |e| <= top); 0 where
    some e_j is odd:

        int x^e dA = 2 prod_j Gamma((e_j + 1)/2) / Gamma((|e| + m)/2).

    The Gamma values are looked up in tables and the product is formed in
    variable order from 2.0, as a scalar loop over the monomials would.
    """
    half = np.array([gamma((a + 1) / 2.0) for a in range(top + 1)])
    num = 2.0
    m = total = odd = 0
    for e in exponents:
        num = num * half[e]
        total = total + e
        odd = odd | (e % 2)
        m += 1
    full = np.array([gamma((s + m) / 2.0) for s in range(top + 1)])
    return np.where(odd, 0.0, num / full[total])


# ---------------------------------------------------------------------------
# quadrature grids

@dataclass(frozen=True)
class SphereGrid:
    """Tensor-product quadrature rule on S^n, exact through degree
    d_exact, with per-node tangent frames.

    A grid is its rule: nodes, weights, frames and levels are built from
    (n, d_exact) alone, so dataclasses.replace refuses them, and grids
    compare by (n, d_exact). levels holds the 1-D rules' coordinates
    (c, s), outermost first: (t, sqrt(1 - t^2)) of each polar level's
    Gauss-Jacobi nodes, then (cos, sin) of the azimuths. The node
    (i_0, ..., i_{n-1}), last index fastest, has the product coordinates
    x_L = s_0[i_0] ... s_{L-1}[i_{L-1}] c_L[i_L] for L < n and
    x_n = s_0[i_0] ... s_{n-1}[i_{n-1}]. The synthesis kernels evaluate
    there; nodes holds these coordinates renormalized to unit length, so
    the two agree only to rounding. frames, shape (nodes, n, n+1), is a
    view of a node-minor array."""

    n: int
    d_exact: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    frames: np.ndarray = field(init=False, repr=False, compare=False)
    levels: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n not in SUPPORTED_DIMENSIONS:
            raise ValueError(f"unsupported dimension n={self.n}; expected "
                             f"one of {SUPPORTED_DIMENSIONS}")
        if self.d_exact < MIN_RESOLUTION:
            raise ValueError(f"resolution must be at least {MIN_RESOLUTION}")
        nt, m = (self.d_exact + 2) // 2, self.d_exact + 1
        ang = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        levels = [(np.cos(ang), np.sin(ang))]
        nodes = np.column_stack(levels[0])
        weights = np.full(m, 2.0 * np.pi / m)
        # polar levels from the innermost (weight exponent 0) outwards
        for k in range(2, self.n + 1):
            t, wt = _gauss_jacobi(nt, (k - 2) / 2.0)
            s = np.sqrt(1.0 - t * t)
            nodes = np.column_stack([np.repeat(t, len(nodes)), (
                s[:, None, None] * nodes).reshape(-1, nodes.shape[1])])
            weights = (wt[:, None] * weights).ravel()
            levels.insert(0, (t, s))
        nodes = nodes / np.linalg.norm(nodes, axis=1, keepdims=True)
        frames = np.ascontiguousarray(
            _build_frames(nodes).transpose(1, 2, 0)).transpose(2, 0, 1)
        for arr in (nodes, weights, frames, *(x for lv in levels for x in lv)):
            arr.flags.writeable = False
        for name, value in (("nodes", nodes), ("weights", weights),
                            ("frames", frames), ("levels", tuple(levels))):
            object.__setattr__(self, name, value)

    @property
    def node_count(self):
        return len(self.weights)

    def integrate(self, values):
        """Quadrature sum with fixed (pairwise) summation order."""
        return float(np.sum(self.weights * np.asarray(values)))


def _gauss_jacobi(m, a):
    """m-point Gauss rule on [-1, 1] for the weight (1 - t^2)^a, a > -1,
    exact for polynomials of degree <= 2m - 1.

    Golub-Welsch (1969): the nodes are the eigenvalues of the symmetric
    Jacobi matrix of the orthonormal polynomials p_k, whose recurrence
    b_{k+1} p_{k+1} = t p_k - b_k p_{k-1} has
    b_k^2 = k (k + 2a) / ((2k + 2a)^2 - 1). A Newton step on p_m through
    the same recurrence refines them, the weights are the Christoffel
    numbers 1 / sum_{k<m} p_k(t)^2 at the refined nodes, and the rule is
    symmetrized about 0. The recurrence runs in np.longdouble, 11 bits
    wider than a double on x86-64: in doubles its rounding alone moves a
    node near 0 by up to 4 of that node's ulps.
    """
    k = np.arange(1, m + 1, dtype=np.longdouble)
    b = np.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a) ** 2 - 1))
    t = np.linalg.eigvalsh(np.diag(b[:-1].astype(float), -1))
    t = t.astype(np.longdouble)
    mass = 2.0 ** (2 * a + 1) * gamma(a + 1) ** 2 / gamma(2 * a + 2)
    for newton in (True, False):
        # p_k(t), p_k'(t) and sum_{j<k} p_j(t)^2, from k = 0 to m
        prev, p = np.zeros_like(t), np.full_like(t, mass ** -0.5)
        dprev, dp, norm = np.zeros_like(t), np.zeros_like(t), 0.0
        for bk_prev, bk in zip(np.concatenate([[0], b[:-1]]), b):
            norm = norm + p * p
            prev, p, dprev, dp = (p, (t * p - bk_prev * prev) / bk,
                                  dp, (p + t * dp - bk_prev * dprev) / bk)
        if newton:
            t = t - p / dp
    w = 1 / norm
    return ((t - t[::-1]) / 2).astype(float), ((w + w[::-1]) / 2).astype(float)


def _build_frames(nodes):
    """Deterministic orthonormal tangent frames via Gram-Schmidt.

    The coordinate axis most aligned with the node is skipped; the
    remaining axes are projected and orthogonalized in index order. All
    nodes are processed at once; dot products and norms are stacked
    1 x m by m x 1 matmuls, which round like the 1-D dot products of a
    per-node loop.
    """
    npts, m = nodes.shape
    pivot = np.argmax(np.abs(nodes), axis=1)
    axes = np.arange(m - 1)
    cols = axes + (axes >= pivot[:, None])
    at = np.arange(npts)
    frames = np.empty((npts, m - 1, m))
    for i in axes:
        j = cols[:, i]
        v = -nodes[at, j][:, None] * nodes
        v[at, j] += 1.0
        for b in frames.transpose(1, 0, 2)[:i]:
            v -= (v[:, None, :] @ b[:, :, None])[:, 0] * b
        v /= np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]
        frames[:, i] = v
    return frames


def build_grid(n, resolution):
    """Quadrature grid on S^n exact for polynomials of degree <= resolution;
    calls with the same (n, resolution) share one read-only grid."""
    return _shared_grid(n, resolution)


# A sweep row reads two grids, the working grid and its coarse
# error-estimate grid.
_shared_grid = lru_cache(maxsize=4)(SphereGrid)


# ---------------------------------------------------------------------------
# harmonic basis

@dataclass(frozen=True)
class HarmonicBasis:
    """L^2(S^n)-orthonormal homogeneous harmonic polynomials, degree <= d_max.

    coeffs rows are coefficient vectors over the basis's own graded
    monomial table of (n+1, d_max); degrees holds the homogeneity degree
    of each element, ascending.
    """

    n: int
    d_max: int
    coeffs: np.ndarray = field(repr=False)
    degrees: np.ndarray = field(repr=False)
    table: MonomialTable = field(repr=False, compare=False)

    @property
    def size(self):
        return len(self.degrees)

    def size_through(self, d):
        """Number of elements of degree <= d: they lead the basis."""
        return int(np.searchsorted(self.degrees, d, side="right"))

    def degree_block(self, d):
        return np.nonzero(self.degrees == d)[0]


def _laplacian_matrix(table, d):
    """Euclidean Laplacian from homogeneous degree d to degree d - 2."""
    rows, cols = table.degree_slices[d - 2], table.degree_slices[d]
    out = np.zeros((rows.stop - rows.start, cols.stop - cols.start))
    for j in range(table.nvars):
        dst, src, scale = table.second_diff_maps[j, j]
        at = (src >= cols.start) & (src < cols.stop)
        out[dst[at] - rows.start, src[at] - cols.start] += scale[at]
    return out


def _solve_lower(L, B):
    """X with L X = B for a lower-triangular L, by forward substitution."""
    X = np.empty_like(B)
    for i in range(len(L)):
        X[i] = (B[i] - L[i, :i] @ X[:i]) / L[i, i]
    return X


def _fix_signs(columns):
    """Flip each column so that its largest-magnitude entry is positive."""
    top = columns[np.argmax(np.abs(columns), axis=0),
                  np.arange(columns.shape[1])]
    columns[:, top < 0] *= -1.0
    return columns


def build_basis(n, d_max):
    """The orthonormal spherical-harmonic basis up to degree d_max; calls
    with the same (n, d_max) share one read-only basis."""
    if n not in SUPPORTED_DIMENSIONS:
        raise ValueError(f"unsupported dimension n={n}; expected one of "
                         f"{SUPPORTED_DIMENSIONS}")
    return _shared_basis(n, d_max)


@lru_cache(maxsize=4)
def _shared_basis(n, d_max):
    table = MonomialTable(n + 1, d_max)
    omega = unit_sphere_area(n)
    coeffs = []
    for d in range(d_max + 1):
        if d == 0:
            col = np.array([[omega ** -0.5]])
        elif d == 1:
            col = np.eye(n + 1) * np.sqrt((n + 1) / omega)
        else:
            # the Laplacian maps degree d onto degree d - 2, so its rank
            # is its row count and the trailing right singular vectors
            # span its null space, the harmonics of degree d
            lap = _laplacian_matrix(table, d)
            null = np.linalg.svd(lap)[2][len(lap):].T
            gram = null.T @ _pair_integrals(table, d) @ null
            chol = np.linalg.cholesky(gram)
            col = _fix_signs(_solve_lower(chol, null.T).T)
        rows = np.zeros((col.shape[1], table.size))
        rows[:, table.degree_slices[d]] = col.T
        coeffs.append(rows)
    degrees = np.repeat(np.arange(d_max + 1), [len(b) for b in coeffs])
    coeffs = np.vstack(coeffs)
    coeffs.flags.writeable = degrees.flags.writeable = False
    return HarmonicBasis(n=n, d_max=d_max, coeffs=coeffs, degrees=degrees,
                         table=table)


def _pair_integrals(table, d):
    """Matrix of \\int x^(a+b) dA over pairs of degree-d monomials."""
    exps = table.exponents[table.degree_slices[d]]
    return _sphere_moments(
        (exps[:, None, j] + exps[None, :, j] for j in range(table.nvars)),
        2 * d)


# ---------------------------------------------------------------------------
# functions on the sphere

@dataclass(frozen=True)
class SphericalFunction:
    """Finite harmonic expansion u = sum a_k Y_k."""

    basis: HarmonicBasis
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=float)
        if a.shape != (self.basis.size,):
            raise ValueError("coefficient vector does not match basis size")
        object.__setattr__(self, "coeffs", a.copy())

    def scaled(self, c):
        return SphericalFunction(self.basis, self.coeffs * c)

    @property
    def degree(self):
        """Degree of the last coefficient that is not exactly 0
        (_top_degree), through which every synthesis kernel runs."""
        return _top_degree(self.coeffs, self.basis.degrees)

    def polynomial_coeffs(self):
        """Coefficients over the basis's monomial table. Those above the
        function's degree are 0 and are not summed. A non-finite
        coefficient gives non-finite ones, without a warning for the
        inf * 0 products it meets."""
        basis, top = self.basis, self.degree
        s, t = basis.size_through(top), basis.table.degree_slices[top].stop
        out = np.zeros(basis.table.size)
        with np.errstate(invalid="ignore"):
            out[:t] = self.coeffs[:s] @ basis.coeffs[:s, :t]
        return out


def zero_function(basis):
    return SphericalFunction(basis, np.zeros(basis.size))


def from_coeffs(basis, coeffs):
    return SphericalFunction(basis, np.asarray(coeffs, dtype=float))


def evaluate(u, points):
    """Values of u at arbitrary unit vectors (N, n+1) -> (N,)."""
    return u.basis.table.evaluate(points, u.polynomial_coeffs())


def values_on_grid(u, grid):
    """Values of u at the grid nodes (_synthesize), through u's degree."""
    top = u.degree
    return _synthesize(_level_powers(grid, top), u.basis.table,
                       u.polynomial_coeffs()[:, None], top)[0]


def eval_jet_all(u, grid):
    """Covariant 2-jet of u at every grid node.

    Returns (values (N,), gradient (N, n) in frame components,
    Hessian (N, n, n) in frame components), views of node-minor arrays.

    The value, DU and D^2 U columns are synthesized (_synthesize) through
    their own degrees d = u.degree, d - 1 and d - 2. The frame projection
    runs entry by entry on node vectors: E (D^2 U) once, then the upper
    n(n+1)/2 entries of E (D^2 U) E^T, mirrored, so the Hessian is
    exactly symmetric.
    """
    table = u.basis.table
    m, N, degree = table.nvars, grid.node_count, u.degree
    cols = table.jet_coefficients(u.polynomial_coeffs())
    powers = _level_powers(grid, degree)
    vals, amb_grad, amb_hess = (
        _synthesize(powers, table, cols[:, rows], degree - drop)
        for rows, drop in ((slice(0, 1), 0), (slice(1, m + 1), 1),
                           (slice(m + 1, None), 2)))
    amb_hess = dict(zip(table.jet_pairs, amb_hess))
    amb_hess.update({(k, j): row for (j, k), row in amb_hess.items()})
    # Ek[k] holds entry k of every frame vector, shape (n, N), and
    # half[k] holds E (D^2 U) e_k
    n, Ek = grid.n, grid.frames.transpose(2, 1, 0)
    out = np.empty((n * (n + 1), N))
    grad = sy.contract(Ek, amb_grad, out=out[:n])
    half = np.empty((m, n, N))
    for k in range(m):
        sy.contract(Ek, [amb_hess[j, k] for j in range(m)], out=half[k])
    hess = out[n:].reshape(n, n, N)
    radial = sy.contract(grid.nodes.T, amb_grad, out=np.empty(N))
    for a in range(n):
        for b in range(a, n):
            sy.contract(half[:, a], Ek[:, b], out=hess[a, b])
        hess[a, a] -= radial
        hess[a + 1:, a] = hess[a, a + 1:]
    return vals[0], grad.T, hess.transpose(2, 0, 1)


def project(samples, grid, basis):
    """Quadrature projection of node samples onto the basis: the basis
    coefficients times the monomial moments of weights * samples
    (_moments)."""
    if grid.d_exact < 2 * basis.d_max:
        raise ValueError("grid exactness must be at least twice the basis "
                         "degree for projection")
    weighted = grid.weights * np.asarray(samples, dtype=float)
    top = basis.d_max
    return SphericalFunction(basis, basis.coeffs @ _moments(
        _level_powers(grid, top), basis.table, weighted, top))


def _level_powers(grid, top):
    """(c^p, s^p) for p = 0..top at each level of grid (SphereGrid.levels),
    each of shape (top + 1, len(c)): views of one table in which each
    power is one multiplication by the coordinate from the power below,
    so a prefix of the rows does not depend on top."""
    coords = [x for level in grid.levels for x in level]
    powers = np.vander(np.concatenate(coords), top + 1, increasing=True).T
    views = np.split(powers, np.cumsum([len(x) for x in coords[:-1]]), 1)
    return list(zip(views[::2], views[1::2]))


def _synthesize(powers, table, coeffs, top):
    """Values at the grid's product coordinates (SphereGrid) of the
    polynomials whose coefficients over table are the columns of coeffs,
    all 0 above degree top; shape (columns, nodes), C-ordered. powers is
    _level_powers of the grid through degree top or higher.

    Sum factorization, outermost level first: the coefficients of the
    monomials through top, scattered by (next-level suffix, head e_L),
    are contracted with the level's powers c_L^e_L and scaled by
    s_L^|suffix|; the last level contracts each exponent pair (a, b) with
    cos^a sin^b. Temporaries stay within a few times the output's size.
    """
    if top < 0:
        return np.zeros((coeffs.shape[1],
                         prod(c.shape[1] for c, _ in powers)))
    maps, pairs = table._levels[top]
    x = coeffs[:table.degree_slices[top].stop, :, None]
    for (c, s), (parent, head, degree) in zip(powers, maps):
        d = np.zeros((len(degree), *x.shape[1:], top + 1))
        d[parent, ..., head] = x
        x = (d.reshape(-1, top + 1) @ c[:top + 1]).reshape(
            len(degree), -1, c.shape[1])
        x *= s[degree][:, None]
    c, s = powers[-1]
    out = x.reshape(len(pairs), -1).T @ (c[pairs[:, 0]] * s[pairs[:, 1]])
    return out.reshape(coeffs.shape[1], -1)


def _moments(powers, table, f, top):
    """Quadrature sums of f times each monomial of table through degree
    top, for f given at the nodes and powers as in _synthesize: the
    adjoint of _synthesize, innermost level first."""
    maps, pairs = table._levels[top]
    c, s = powers[-1]
    x = (c[pairs[:, 0]] * s[pairs[:, 1]]) @ f.reshape(-1, c.shape[1]).T
    for (c, s), (parent, head, degree) in zip(powers[-2::-1], maps[::-1]):
        x = x.reshape(len(degree), -1, c.shape[1]) * s[degree][:, None]
        x = (x.reshape(-1, c.shape[1]) @ c[:top + 1].T).reshape(
            len(degree), -1, top + 1)[parent, :, head]
    return x[:, 0]


class SobolevNorms(NamedTuple):
    l2: float
    grad_l2: float
    c1: float
    w2inf: float


def _hessian_norm(hess):
    """max over the nodes of the operator norm |B|_2 = max |eigvalsh(B)|.

    For symmetric B, B's largest row norm <= |B|_2 <= its Frobenius norm,
    so a node whose Frobenius norm is below the largest row norm over all
    nodes cannot hold the maximum, and only the others are solved.
    eigvalsh solves each matrix on its own, so the result is
    bit-identical to solving every node. Squared norms are compared, with
    a relative slack of PRUNE_SLACK that covers their rounding.
    """
    rows = np.sum(hess * hess, axis=-1)
    frob = np.sum(rows, axis=-1)
    keep = frob >= (1.0 - PRUNE_SLACK) * np.max(rows)
    return float(np.max(np.abs(np.linalg.eigvalsh(hess[keep]))))


def sobolev_norms(grid, jet):
    """L^2, gradient L^2, C^1 and W^{2,inf} norms of u on a grid, from
    its 2-jet (values, gradient, Hessian) = eval_jet_all(u, grid).

    Sup norms are maxima over grid nodes; the Hessian enters through its
    operator norm in the frame, solved only at the nodes that can attain
    the maximum (_hessian_norm). A non-finite jet raises ValueError.
    """
    vals, grad, hess = jet
    if not all(np.isfinite(a).all() for a in (vals, grad, hess)):
        raise ValueError("non-finite 2-jet")
    l2 = np.sqrt(max(grid.integrate(vals**2), 0.0))
    gn2 = np.sum(grad**2, axis=1)
    grad_l2 = np.sqrt(max(grid.integrate(gn2), 0.0))
    sup_u = float(np.max(np.abs(vals))) if len(vals) else 0.0
    sup_grad = float(np.sqrt(np.max(gn2)))
    c1 = max(sup_u, sup_grad)
    hess_op = _hessian_norm(hess)
    return SobolevNorms(l2=float(l2), grad_l2=float(grad_l2), c1=c1,
                        w2inf=max(c1, hess_op))


def default_resolution(d_max):
    """Grid exactness with headroom for curvature-weighted integrands."""
    return 2 * d_max + 8
