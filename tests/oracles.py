"""Independent reference computations that tests hold sfi against:
sigma_k by eigenvalues and by principal minors, the single-matrix Newton
tensor, the batched Newton recursion on the similarity of the Weingarten
map, the Weingarten map, the divergence-form H, brute-force volumes and
radial moments, the embedded mass points and gradient that the
barycenter is held to, the exponential and logarithm maps at any base
point, the geodesic distance, the translation to the origin with its
matrix inverse, translated-ball profiles, the Laplace-Beltrami operator,
coefficient norms, the monomial Vandermonde matrix, node values and the
quadrature projection onto the basis, the Sobolev norms of a profile
from its jet, the translated graph (ray shooting, then projection), the
per-amplitude
loop of full-grid geometries behind an expansion fit, the
spherical-Hessian integral identities, the gradient-energy bound on the
asymmetry, the mean-curvature expansion blocks, the constraint
functionals' expansion blocks and the constrained deficit form that
they compose with lab.sigma_expansion_blocks (with the hand-expanded
forms it is held to), the paper's gradient-energy lower bounds on
the second-order deficits and the degree-2 Poincare limit, the printed
weighted-volume equality value, hand-written closures for each weight
of the closed-form family and a report-file writer. No row, fit or
CLI command runs them; tests import this module as ``import oracles``.
"""

from dataclasses import astuple
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np

from sfi import domains as dm
from sfi import graphgeom as gg
from sfi import lab
from sfi import model
from sfi import normalize as nz
from sfi import spherebasis as sb
from sfi.spaceform import WeightFunction


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
    (oracle for symfunc.hessian_invariants and SurfaceGeometry.sigma)."""
    return elementary_from_eigenvalues(
        np.linalg.eigvalsh(np.asarray(A, dtype=float)))


def sigma_minor_sum(A, k):
    """Independent oracle: sigma_k as a sum of principal k x k minors.

    Valid for any square matrix (char-poly coefficient); cost grows as
    C(n, k), intended for small n.
    """
    a = np.asarray(A, dtype=float)
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
    a = np.asarray(A, dtype=float)
    n = a.shape[0]
    if not 0 <= k <= n - 1:
        raise ValueError(f"Newton tensor order k={k} outside [0, {n - 1}]")
    sig = sigma_all(a)
    T = np.eye(n)
    for m in range(1, k + 1):
        T = sig[m] * np.eye(n) - a @ T
    return T


def sigma_all_batch(mats):
    """(sigma_0, ..., sigma_n) of symmetric matrices (..., n, n) by the
    matrix form of Newton's identities: T_0 = I, sigma_m = tr(A T_{m-1})
    / m, T_m = sigma_m I - A T_{m-1}."""
    a = np.asarray(mats, dtype=float)
    n = a.shape[-1]
    sig = np.empty(a.shape[:-2] + (n + 1,))
    sig[..., 0] = 1.0
    eye = np.eye(n)
    T = eye
    for m in range(1, n + 1):
        sig[..., m] = np.einsum("...ij,...ij->...", a, T) / m
        T = sig[..., m, None, None] * eye - a @ T
    return sig


def newton_quadratics_batch(mats, vs):
    """Q_0..Q_{n-1} = v^T T_m v per matrix, with every Newton tensor
    T_m of the matrix recursion formed and symmetrized."""
    a = np.asarray(mats, dtype=float)
    n = a.shape[-1]
    sig = sigma_all_batch(a)
    out = np.empty(a.shape[:-2] + (n,))
    T = np.broadcast_to(np.eye(n), a.shape)
    for m in range(n):
        if m:
            T = sig[..., m, None, None] * np.eye(n) - a @ T
        Ts = 0.5 * (T + np.swapaxes(T, -1, -2))
        out[..., m] = np.einsum("...i,...ij,...j->...", vs, Ts, vs)
    return out


def sigma_by_similarity(geo):
    """sigma_0..sigma_n of the shape operator per node of a
    SurfaceGeometry by a second route: the batched Newton recursion on
    the symmetric similarity g^{-1/2} h g^{-1/2} of the Weingarten map."""
    return sigma_all_batch(gg._similarity(geo._w, geo.phi, geo.D,
                                          geo.second_form))


def weingarten(geo):
    """Weingarten map S^a_b per node of a SurfaceGeometry (the formula in
    the graphgeom module docstring); its sigma_k are geo.sigma."""
    w, ph, dph, D = geo.graph.rho * geo.du, geo.phi, geo.dphi, geo.D
    hess_r = geo.graph.rho * geo.d2u
    outer = w[:, :, None] * w[:, None, :]
    return ((dph / D)[:, None, None] * np.eye(geo.grid.n)
            - hess_r / (D * ph)[:, None, None]
            + dph[:, None, None] * outer / (D ** 3)[:, None, None]
            + w[:, :, None] * (hess_r @ w[:, :, None])[:, None, :, 0]
            / (D ** 3 * ph)[:, None, None])


def scaled_jet(jet, e):
    """The jet of e u from the jet of u: values and derivatives scale by
    e, sigma_j by e^j and Q_j by e^(j+2)."""
    p = float(e) ** np.arange(jet.sigma.shape[1])
    return gg.Jet(e * jet.vals, e * jet.du, e * jet.d2u, jet.sigma * p,
                  jet.quad * (e * e * p[:-1]))


def shape_sigma_all(jet, rho, ph, dph, D):
    """sigma_0..sigma_n of the shape operator per node from a jet's
    Hessian invariants, every order over the whole grid, by the sums for
    sigma_k(M) and q_m in the graphgeom module docstring, expanded term
    by term (graphgeom evaluates them as P_k and R_k by Horner's rule)."""
    n = jet.d2u.shape[-1]
    ph2 = ph * ph
    alpha, beta = ph2 * dph, -rho * ph
    apow, bpow = [1.0], [1.0]
    for _ in range(n):
        apow.append(apow[-1] * alpha)
        bpow.append(bpow[-1] * beta)
    bsig = [bpow[j] * jet.sigma[:, j] for j in range(n + 1)]
    bquad = [(rho * rho) * bpow[j] * jet.quad[:, j] for j in range(n)]
    # q[m + 1] = q_m, so that q[0] = q_{-1} = 0 and q[n + 1] = q_n = 0
    q = [0.0] + [sum(comb(n - 1 - j, m - j) * apow[m - j] * bquad[j]
                     for j in range(m + 1)) for m in range(n)] + [0.0]
    sigma = np.empty((len(ph), n + 1))
    sigma[:, 0] = 1.0
    den = D * D
    for k in range(1, n + 1):
        sig_M = sum(comb(n - j, k - j) * apow[k - j] * bsig[j]
                    for j in range(k + 1))
        den = den * (ph2 * D)
        sigma[:, k] = (ph2 * sig_M + 2.0 * alpha * q[k] + q[k + 1]) / den
    return sigma


def geometry_from_jet(graph, grid, jet):
    """SurfaceGeometry of graph built from a given 2-jet over the whole
    grid at once, with every sigma_j; for jet = Jet.of(graph.u, grid) it
    is gg.surface_geometry(graph, grid)."""
    sf, n = graph.sf, grid.n
    if not (np.isfinite(jet.du).all() and np.isfinite(jet.d2u).all()):
        raise ValueError("non-finite 2-jet")
    r = graph.radii(jet.vals)
    if np.any(r <= 0.0) or np.any(r >= sf.r_max):
        raise ValueError("graph radii leave the admissible band (0, r_max)")
    ph, dph, Ph = sf.warp(r)
    D = np.sqrt(ph * ph + graph.rho ** 2 * jet.quad[:, 0])
    if np.min(D) < gg.DEGENERACY_TOL or np.min(ph) < gg.DEGENERACY_TOL:
        raise ValueError("degenerate metric: D or phi below tolerance")
    sigma = shape_sigma_all(jet, graph.rho, ph, dph, D)
    return gg.SurfaceGeometry(
        graph=graph, grid=grid, u_vals=jet.vals, du=jet.du, d2u=jet.d2u,
        r=r, phi=ph, dphi=dph, Phi=Ph, D=D, area_factor=ph ** (n - 1) * D,
        sigma=sigma, H=sigma[:, 1])


# How far gg.scaled_curvature_integrals may round from
# scaled_curvature_integrals below, relative to each integral: 4x the
# 3.4e-16 measured over test_graphgeom's perturbed graphs, n = 2, 3, 4
# and every K (the Horner and the expanded sigma_k numerator).
SCALED_INTEGRAL_REL = 1.36e-15


def scaled_curvature_integrals(graph, grid, w, k, amplitudes, jet):
    """gg.scaled_curvature_integrals one amplitude at a time: the full-grid
    geometry of each scaled jet, then weighted_curvature_integral."""
    out = []
    for e in amplitudes:
        g = gg.RadialGraph(sf=graph.sf, rho=graph.rho, u=graph.u.scaled(e))
        geo = geometry_from_jet(g, grid, scaled_jet(jet, e))
        out.append(gg.weighted_curvature_integral(geo, geo.Phi, w, k))
    return out


def mean_curvature_two_ways(graph, grid):
    """Max discrepancy between the curvature-tensor H and the divergence form.

    The first route is sigma_1, the trace of the symmetrized Weingarten
    map built from the second fundamental form. The second evaluates the
    divergence form, expanding div((phi/D) grad u) by the chain rule
    through the jet of u (the gradient of D needs only second
    derivatives), and never builds the curvature tensors.
    """
    geo = gg.surface_geometry(graph, grid)
    rho, n = graph.rho, grid.n
    ph, dph, D = geo.phi, geo.dphi, geo.D
    lap_u = np.trace(geo.d2u, axis1=1, axis2=2)
    gradsq = np.sum(geo.du * geo.du, axis=1)
    hess_grad = np.einsum("iab,ib->ia", geo.d2u, geo.du)
    gradD = (ph * dph * rho)[:, None] * geo.du + rho ** 2 * hess_grad
    gradD /= D[:, None]
    grad_psi = (dph * rho)[:, None] * geo.du / D[:, None] \
        - ph[:, None] * gradD / (D * D)[:, None]
    div_term = (ph / D) * lap_u + np.sum(grad_psi * geo.du, axis=1)
    H_div = (n * dph * ph ** 2 + dph * rho ** 2 * gradsq) / (ph ** 2 * D) \
        - (rho / ph ** 2) * div_term
    return float(np.max(np.abs(geo.H - H_div)))


def bulk_integral_bruteforce(graph, grid, integrand, radial_points=32):
    """Radial x angular quadrature of int_Omega f(r) dv (test oracle).

    integrand maps radii to values of f; the bulk measure is
    phi^n(r) dr dA.
    """
    sf = graph.sf
    R = graph.radii(values_on_grid(graph.u, grid))
    t, wt = np.polynomial.legendre.leggauss(radial_points)
    r = R[:, None] * (0.5 * (t + 1.0))
    vals = integrand(r) * sf.phi(r) ** sf.n
    radial = R * (vals @ (0.5 * wt))
    return grid.integrate(radial)


def volume_bruteforce(graph, grid, radial_points=32):
    return bulk_integral_bruteforce(graph, grid, np.ones_like, radial_points)


def weighted_volume_bruteforce(graph, grid, radial_points=32):
    return bulk_integral_bruteforce(graph, grid, graph.sf.dphi, radial_points)


def first_radial_moment_bruteforce(sf, R, points=40):
    """int_0^R t phi^n(t) dt by a points-point Gauss-Legendre rule on
    [0, R], for each radius in R (oracle for domains._origin_moments).
    The integrand is entire, so for R up to 6 the rule's error is far
    below its rounding, a few 1e-15 relative."""
    R = np.asarray(R, dtype=float)[..., None]
    t, w = np.polynomial.legendre.leggauss(points)
    t = 0.5 * R * (t + 1.0)
    return np.sum(0.5 * R * w * t * sf.phi(t) ** sf.n, axis=-1)


def embedded_mass_points(graph, grid, radial_points):
    """Radial x angular quadrature points embedded in the model, with
    their masses, flattened (reference for the barycenter)."""
    sf = graph.sf
    R = graph.radii(values_on_grid(graph.u, grid))
    t, wt = np.polynomial.legendre.leggauss(radial_points)
    r = R[:, None] * (0.5 * (t + 1.0))
    mass = grid.weights[:, None] * R[:, None] * (0.5 * wt) * sf.phi(r) ** sf.n
    x = np.repeat(grid.nodes[:, None, :], radial_points, axis=1)
    pts = model.embed(sf, r, x)
    return pts.reshape(-1, pts.shape[-1]), mass.ravel()


def barycenter_gradient_criterion(graph, grid, p, tol=dm.BARYCENTER_TOL):
    """2 |sum m log_p(y)| / (tol max(1, sum m)) over 16 embedded points
    per ray: below 1 where the barycenter declares convergence."""
    pts, mass = embedded_mass_points(graph, grid, 16)
    G = mass @ log_map(graph.sf, p, pts)
    return 2.0 * np.linalg.norm(G) / (tol * max(1.0, np.sum(mass)))


def origin_tangent(sf, c):
    """Lift a model vector c in R^{n+1} to the ambient tangent space at O."""
    c = np.asarray(c, dtype=float)
    if sf.K == 0:
        return c
    out = np.zeros(c.shape[:-1] + (sf.n + 2,))
    out[..., 1:] = c
    return out


def _lorentz_dot(a, b):
    return -a[..., 0] * b[..., 0] + np.sum(a[..., 1:] * b[..., 1:], axis=-1)


def distance(sf, y, p):
    """Geodesic distance between ambient points (broadcasting)."""
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    if sf.K == 0:
        return np.linalg.norm(y - p, axis=-1)
    if sf.K == -1:
        # chord formula: <y-p, y-p>_L = 4 sinh^2(d/2), stable near d = 0
        q = np.maximum(_lorentz_dot(y - p, y - p), 0.0)
        return 2.0 * np.arcsinh(0.5 * np.sqrt(q))
    chord = np.linalg.norm(y - p, axis=-1)
    return 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))


def log_map(sf, p, y):
    """Inverse exponential: tangent vector at p pointing to y.

    Returned in ambient components, with |v| equal to the geodesic
    distance. Stable as y -> p.
    """
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    if sf.K == 0:
        return y - p
    d = distance(sf, y, p)
    if sf.K == -1:
        rad = y - np.cosh(d)[..., None] * p
        den = np.sinh(d)
    else:
        rad = y - np.cos(d)[..., None] * p
        den = np.sin(d)
    scale = np.where(d > 1e-12, d / np.where(den > 0, den, 1.0), 1.0)
    return scale[..., None] * rad


def exp_map(sf, p, v):
    """Exponential map at p applied to tangent vector(s) v."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if sf.K == 0:
        return p + v
    if sf.K == -1:
        t = np.sqrt(np.maximum(_lorentz_dot(v, v), 0.0))
        co, si = np.cosh(t), np.sinh(t)
    else:
        t = np.linalg.norm(v, axis=-1)
        co, si = np.cos(t), np.sin(t)
    vhat = v / np.where(t[..., None] > 0, t[..., None], 1.0)
    return co[..., None] * p + si[..., None] * vhat


class Isometry:
    """Ambient isometry: linear map for K = +-1, translation for K = 0."""

    def __init__(self, matrix=None, offset=None):
        self.matrix = matrix
        self.offset = offset

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        if self.matrix is not None:
            return y @ self.matrix.T
        return y + self.offset

    def inverse(self):
        if self.matrix is not None:
            return Isometry(matrix=np.linalg.inv(self.matrix))
        return Isometry(offset=-self.offset)


def translation_to_origin(sf, p):
    """Isometry taking the ambient point p to the origin O (reference
    for model.translation_from_origin, its inverse in closed form).

    For K = +-1 this is the boost/rotation in the plane spanned by e0 and
    the spatial direction of p; directions orthogonal to that plane are
    fixed.
    """
    p = np.asarray(p, dtype=float)
    if sf.K == 0:
        return Isometry(offset=-p)
    m = sf.n + 2
    d, x = model.polar(sf, p)
    d = float(d)
    if d < 1e-300:
        return Isometry(matrix=np.eye(m))
    v = np.zeros(m)
    v[1:] = x
    e0 = np.zeros(m)
    e0[0] = 1.0
    if sf.K == -1:
        ch, sh = np.cosh(d), np.sinh(d)
        mat = (np.eye(m) + (ch - 1.0) * (np.outer(e0, e0) + np.outer(v, v))
               - sh * (np.outer(e0, v) + np.outer(v, e0)))
    else:
        co, si = np.cos(d), np.sin(d)
        mat = (np.eye(m) + (co - 1.0) * (np.outer(e0, e0) + np.outer(v, v))
               + si * (np.outer(e0, v) - np.outer(v, e0)))
    return Isometry(matrix=mat)


def ball_radial_profile(sf, c, rho_bar, x):
    """Radial graph over S^n of the geodesic ball B(exp_O(c), rho_bar).

    c is a model vector with |c| < rho_bar so the origin lies inside the
    ball and the boundary is star-shaped about O. Returns the radii R(x)
    at the unit directions x (shape (N, n+1)); entries are NaN where the
    profile is undefined (center too far out). No hot path calls it: it
    is the reference that tests hold the closed-form profiles of
    domains.symmetric_difference_to_ball against.
    """
    c = np.asarray(c, dtype=float)
    x = np.asarray(x, dtype=float)
    t = np.linalg.norm(c)
    if sf.K == 0:
        b = x @ c
        disc = b * b - t * t + rho_bar * rho_bar
        with np.errstate(invalid="ignore"):
            return b + np.sqrt(disc)
    if sf.K == -1:
        # center embeds as (cosh t, sinh t * chat); a cosh R - b sinh R = cosh rho_bar
        a = np.cosh(t)
        b = x @ (np.sinh(t) / t * c) if t > 0 else np.zeros(len(x))
        amp = np.sqrt(a * a - b * b)
        with np.errstate(invalid="ignore"):
            return np.arctanh(b / a) + np.arccosh(np.cosh(rho_bar) / amp)
    a = np.cos(t)
    b = x @ (np.sin(t) / t * c) if t > 0 else np.zeros(len(x))
    amp = np.sqrt(a * a + b * b)
    with np.errstate(invalid="ignore"):
        return np.arctan2(b, a) + np.arccos(np.cos(rho_bar) / amp)


def laplacian(u):
    """Laplace-Beltrami of u, exact in the harmonic basis."""
    return sb.SphericalFunction(u.basis, -eigenvalues(u.basis) * u.coeffs)


def eigenvalues(basis):
    """Laplace-Beltrami eigenvalues d(d + n - 1) per basis element."""
    d = basis.degrees.astype(float)
    return d * (d + basis.n - 1)


def coeff_norm(u):
    """L^2 norm of u via Parseval (the basis is orthonormal)."""
    return float(np.linalg.norm(u.coeffs))


def degree_energies(u):
    """ell^2 coefficient energy per harmonic degree, shape (d_max + 1,)."""
    out = np.zeros(u.basis.d_max + 1)
    np.add.at(out, u.basis.degrees, u.coeffs ** 2)
    return out


def sphere_integrals(table):
    """Exact integrals of each monomial of table over the unit sphere
    S^{nvars-1}."""
    return sb._sphere_moments(table.exponents.T, table.max_degree)


def vandermonde(table, points):
    """Monomial values at points, shape (N, table.size), C-ordered: the
    matrix that sb.evaluate and the grid kernels (sb._synthesize) avoid
    forming.

    Each block of points is formed monomial-major (sb._monomial_rows), one
    contiguous row gather of the power table per variable, and written
    transposed into the result. The products come in variable order, so
    every entry is bit-identical to a per-node loop that multiplies
    x_0^e_0 x_1^e_1 ... from the left.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty((len(pts), table.size))
    for rows, powers in table._power_blocks(pts, table.max_degree):
        out[rows] = sb._monomial_rows(powers, table.exponents).T
    return out


def values_on_grid(u, grid):
    """Values of u at the grid nodes, by the grid kernels' sum
    factorization (sb._synthesize) through u's degree."""
    top = u.degree
    return sb._synthesize(sb._level_powers(grid, top), u.basis.table,
                          u.polynomial_coeffs()[:, None], top)[0]


def moments(powers, table, f, top):
    """Quadrature sums of f times each monomial of table through degree
    top, for f given at the nodes and powers = sb._level_powers of the
    grid: the adjoint of sb._synthesize, innermost level first."""
    maps, pairs = table._levels[top]
    c, s = powers[-1]
    x = (c[pairs[:, 0]] * s[pairs[:, 1]]) @ f.reshape(-1, c.shape[1]).T
    for (c, s), (parent, head, degree) in zip(powers[-2::-1], maps[::-1]):
        x = x.reshape(len(degree), -1, c.shape[1]) * s[degree][:, None]
        x = (x.reshape(-1, c.shape[1]) @ c[:top + 1].T).reshape(
            len(degree), -1, top + 1)[parent, :, head]
    return x[:, 0]


def project(samples, grid, basis):
    """Quadrature projection of node samples onto the basis: the basis
    coefficients times the monomial moments of weights * samples."""
    if grid.d_exact < 2 * basis.d_max:
        raise ValueError("grid exactness must be at least twice the basis "
                         "degree for projection")
    weighted = grid.weights * np.asarray(samples, dtype=float)
    top = basis.d_max
    return sb.SphericalFunction(basis, basis.coeffs @ moments(
        sb._level_powers(grid, top), basis.table, weighted, top))


def sobolev_norms(grid, jet):
    """L^2, gradient L^2, C^1 and W^{2,inf} norms of u on a grid, from
    its 2-jet (values, gradient, Hessian) = sb.eval_jet_all(u, grid): the
    norms of a graph's own profile about O, which rows read about the
    barycenter (normalize.CenterFields.norms).

    Sup norms are maxima over grid nodes; the Hessian enters through its
    operator norm in the frame (sb.hessian_norm). A non-finite jet raises
    ValueError.
    """
    vals, grad, hess = jet
    if not all(np.isfinite(a).all() for a in (vals, grad, hess)):
        raise ValueError("non-finite 2-jet")
    l2 = np.sqrt(max(grid.integrate(vals**2), 0.0))
    gn2 = np.sum(grad**2, axis=1)
    grad_l2 = np.sqrt(max(grid.integrate(gn2), 0.0))
    sup_u = float(np.max(np.abs(vals))) if len(vals) else 0.0
    c1 = max(sup_u, float(np.sqrt(np.max(gn2))))
    return sb.SobolevNorms(l2=float(l2), grad_l2=float(grad_l2), c1=c1,
                           w2inf=max(c1, sb.hessian_norm(hess)))


def translated_graph(graph, grid, center):
    """(moved, out_energy): the radial graph, in graph's basis, of
    graph's surface translated so that the ambient point center moves to
    O, and the L2 energy of the translated profile that the basis cannot
    represent.

    The radii at the grid nodes come from per-node secant ray shooting
    (domains._shoot_radii, seeded with graph's own radii) and are
    projected onto the basis (project). Rows read the sampled surface
    about its barycenter; tests hold them to the rows of the graph
    translated so that the barycenter sits at O.
    """
    r = dm._shoot_radii(graph, grid, center,
                        graph.radii(values_on_grid(graph.u, grid)))
    samples = r / graph.rho - 1.0
    u = project(samples, grid, graph.u.basis)
    out_energy = grid.integrate((samples - values_on_grid(u, grid)) ** 2)
    return gg.RadialGraph(sf=graph.sf, rho=graph.rho, u=u), out_energy


def hessian_identity(which, u, grid, m=None):
    """(lhs, rhs) of one of the five spherical-Hessian integral
    identities behind the expansion remainder analysis:

      1: int T_m(Hess u)[grad u, grad u] = (m+2)/2 int |grad u|^2 sigma_m
      2: int sigma_m = (n-m+1)/2 int |grad u|^2 sigma_{m-2}   (m >= 2)
      3: int sigma_1 = 0 (exactly)
      4: int u sigma_m = -(m+1)/(2m) int |grad u|^2 sigma_{m-1}
      5: int u^2 sigma_m -> 0 at cubic order (rhs is 0)

    sigma_m means sigma_m(Hess u) throughout; identities 1, 4, 5 need
    m >= 1. Identities 1, 2, 4 hold up to cubic-order corrections; 3 is
    exact for band-limited u.
    """
    n = grid.n
    vals, grad, hess, sig, quad = gg.Jet.of(u, grid)
    gradsq = np.sum(grad * grad, axis=1)
    if which == 1:
        if not 1 <= m <= n - 1:
            raise ValueError(f"identity 1 needs 1 <= m <= {n - 1}")
        lhs = grid.integrate(quad[:, m])
        rhs = 0.5 * (m + 2) * grid.integrate(gradsq * sig[:, m])
    elif which == 2:
        if not 2 <= m <= n:
            raise ValueError(f"identity 2 needs 2 <= m <= {n}")
        lhs = grid.integrate(sig[:, m])
        rhs = 0.5 * (n - m + 1) * grid.integrate(gradsq * sig[:, m - 2])
    elif which == 3:
        lhs = grid.integrate(sig[:, 1])
        rhs = 0.0
    elif which == 4:
        if not 1 <= m <= n:
            raise ValueError(f"identity 4 needs 1 <= m <= {n}")
        lhs = grid.integrate(vals * sig[:, m])
        rhs = -(m + 1) / (2.0 * m) * grid.integrate(gradsq * sig[:, m - 1])
    elif which == 5:
        if not 1 <= m <= n:
            raise ValueError(f"identity 5 needs 1 <= m <= {n}")
        lhs = grid.integrate(vals * vals * sig[:, m])
        rhs = 0.0
    else:
        raise ValueError(f"unknown identity {which}; expected 1..5")
    return float(lhs), float(rhs)


def asymmetry_upper_bound(sf, rho, grad_l2_sq):
    """Leading-order upper bound on alpha^2 in terms of the gradient
    energy: (1/n^2) |S^n| phi(rho)^{2n} rho^2 ||grad u||^2."""
    return sf.sphere_area * sf.phi(rho) ** (2 * sf.n) * rho ** 2 \
        * grad_l2_sq / sf.n ** 2


def H_expansion_blocks(sf, w, rho):
    """Second-order coefficient blocks of int g(Phi) H dmu, written in
    the mean-curvature form (oracle for lab.sigma_expansion_blocks at
    k = 1). The cubic Hessian-gradient term of the expansion is not part
    of the quadratic blocks."""
    n, K = sf.n, sf.K
    ph, dp, s = sf.warp(rho)
    if dp <= 0:
        raise ValueError("expansion blocks need phi'(rho) > 0")
    G = float(w(s))
    G1 = float(w.deriv(s, 1))
    G2 = float(w.deriv(s, 2))
    c0 = n * ph ** (n - 1) * dp * G
    cu = n * (((n - 1) * ph ** (n - 2) * dp ** 2 - K * ph ** n) * G
              + ph ** n * dp * G1)
    cuu = n * (((n - 1) * (n - 2) / 2.0 * ph ** (n - 3) * dp ** 3
                + K * (1.0 - 1.5 * n) * ph ** (n - 1) * dp) * G
               + ph ** (n - 1) * dp * (0.5 * G2 * ph ** 2
                                       + (n - 0.5) * G1 * dp)
               - K * ph ** (n + 1) * G1)
    cgrad = (n - 1) * ph ** (n - 3) * dp * G + ph ** (n - 1) * G1
    return lab.ExpansionBlocks(c0=c0, cu=cu, cuu=cuu, cgrad=cgrad)


def constraint_blocks(sf, constraint, rho):
    """Second-order coefficient blocks of a constraint functional, in
    lab.ExpansionBlocks' convention: the volume int P_n(r), the weighted
    volume int phi^{n+1}(r) / (n+1), or W_j, which the quermassintegral
    recurrence builds from the volume and the constant-weight sigma_k
    blocks."""
    n, K = sf.n, sf.K
    ph, dp, _ = sf.warp(rho)
    if constraint.kind == "weighted_volume":
        return lab.ExpansionBlocks(
            c0=ph ** (n + 1) / (n + 1), cu=ph ** n * dp,
            cuu=0.5 * (n * ph ** (n - 1) * dp ** 2 - K * ph ** (n + 1)),
            cgrad=0.0)
    vol = np.array([sf.volume_primitive(rho), ph ** n,
                    0.5 * n * ph ** (n - 1) * dp, 0.0])
    if constraint.j == -1:
        return lab.ExpansionBlocks(*map(float, vol))
    one = WeightFunction.constant(1.0)
    sig = [np.array(astuple(lab.sigma_expansion_blocks(sf, one, k, rho)))
           for k in range(n + 1)]
    W = dm.quermass_recurrence(K, n, vol, sig)[constraint.j]
    return lab.ExpansionBlocks(*map(float, W))


def deficit_coefficients(sf, w, k, constraint, rho):
    """(cu2, cgrad2) of the constrained sigma_k deficit.

    To second order,
        int g(Phi) sigma_k dmu - ball value
            = cu2 rho^2 int u^2 + cgrad2 rho^2 int |grad u|^2
    for graphs rho (1 + u) on which the constraint takes its value on
    the ball of radius rho. Holding the constraint's expansion at zero
    fixes rho int u, which eliminates the linear term of the integral's
    expansion: with F and C the blocks of the integral and of the
    constraint and r = F.cu / C.cu, the form is
    (F.cuu - r C.cuu, F.cgrad - r C.cgrad). The same holds for the
    mean-curvature comparisons at k = 1.
    """
    F = lab.sigma_expansion_blocks(sf, w, k, rho)
    C = constraint_blocks(sf, constraint, rho)
    if C.cu == 0:
        raise ValueError(f"constraint {constraint.label} has no first "
                         f"variation at rho={rho}")
    r = F.cu / C.cu
    return F.cuu - r * C.cuu, F.cgrad - r * C.cgrad


def h_volume_deficit_coefficients(sf, w, rho):
    """(cu2, cgrad2) of the volume-constrained mean-curvature deficit,
    expanded by hand (oracle for deficit_coefficients)."""
    n = sf.n
    ph, dp, s = sf.warp(rho)
    G = float(w(s))
    G1 = float(w.deriv(s, 1))
    G2 = float(w.deriv(s, 2))
    cu2 = -n * ((n - 1) * ph ** (n - 3) * dp * G
                - 0.5 * ph ** (n + 1) * dp * G2
                - (n + 1) / 2.0 * ph ** (n - 1) * dp ** 2 * G1
                + ph ** (n - 1) * G1)
    cgrad2 = (n - 1) * ph ** (n - 3) * dp * G + ph ** (n - 1) * G1
    return cu2, cgrad2


def sigma_weighted_volume_deficit_coefficients(sf, w, k, rho):
    """(cu2, cgrad2) of the weighted-volume-constrained sigma_k deficit,
    expanded by hand (oracle for deficit_coefficients)."""
    n, K = sf.n, sf.K
    ph, dp, s = sf.warp(rho)
    G = float(w(s))
    G1 = float(w.deriv(s, 1))
    G2 = float(w.deriv(s, 2))
    C = comb(n, k)
    cu2 = C * ((-(n - k) * (k + 1) / 2.0 * ph ** (n - k - 2) * dp ** k
                + K * k * (k - 2) / 2.0 * ph ** (n - k) * dp ** (k - 2)) * G
               - (k - 0.5) * ph ** (n - k) * dp ** (k - 1) * G1
               + n / 2.0 * ph ** (n - k) * dp ** k * (dp * G1 + K * G)
               + 0.5 * ph ** (n - k + 2) * dp ** k * G2)
    cgrad2 = C * (((n - k) * (k + 1) / (2.0 * n) * ph ** (n - k - 2)
                   * dp ** k
                   - K * k * (k - 1) / (2.0 * n) * ph ** (n - k)
                   * dp ** (k - 2)) * G
                  + k / float(n) * ph ** (n - k) * dp ** (k - 1) * G1)
    return cu2, cgrad2


def quermass_deficit_coefficients(sf, w, k, j, rho):
    """(cu2, cgrad2) of the W_j-constrained sigma_k deficit (j = -1 is
    the volume constraint), expanded by hand for every K (oracle for
    deficit_coefficients)."""
    n, K = sf.n, sf.K
    ph, dp, s = sf.warp(rho)
    G = float(w(s))
    G1 = float(w.deriv(s, 1))
    G2 = float(w.deriv(s, 2))
    C = comb(n, k)
    cu2 = C * (((n - k) * (j - k) / 2.0 * ph ** (n - k - 2) * dp ** k
                + K * k * (k - j - 2) / 2.0 * ph ** (n - k)
                * dp ** (k - 2)) * G
               + ((n + 1) / 2.0 * dp ** (k + 1)
                  + ((j + 1) / 2.0 - k) * dp ** (k - 1)) * ph ** (n - k) * G1
               + 0.5 * ph ** (n - k + 2) * dp ** k * G2)
    cgrad2 = C * (((n - k) * (k - j) / (2.0 * n) * ph ** (n - k - 2)
                   * dp ** k
                   - K * k * (k - j - 2) / (2.0 * n) * ph ** (n - k)
                   * dp ** (k - 2)) * G
                  + (2 * k - j - 1) / (2.0 * n) * ph ** (n - k)
                  * dp ** (k - 1) * G1)
    return cu2, cgrad2


def weighted_volume_rhs_closed_form(sf, w, k, wvol):
    """Closed-form equality value for the weighted-volume constraint in
    the hyperbolic space form, expressed through the normalized weighted
    volume V = (n+1) wvol / |S^n|; degenerate at k = 0. Cross-checks the
    root-finding route of lab.equality_function."""
    if sf.K != -1:
        raise ValueError("closed form is specific to K = -1")
    if k < 1:
        raise ValueError("closed form degenerates at k = 0")
    n = sf.n
    omega = sf.sphere_area
    V = (n + 1) * wvol / omega
    s = np.sqrt(1.0 + V ** (2.0 / (n + 1))) - 1.0
    bracket = V ** (2.0 * (n - k) / ((n + 1) * k)) \
        + V ** (2.0 * n / ((n + 1) * k))
    return comb(n, k) * omega * float(w(s)) * bracket ** (k / 2.0)


def poincare_saturation_limit(sf, w, rho):
    """Limit of deficit / (rho^2 ||grad u||^2) for pure degree-2
    directions under the volume constraint, as the amplitude tends to 0.

    Uses the exact quadratic form together with the degree-2 identity
    ||grad u||^2 = 2(n+1) ||u||^2.
    """
    cu2, cgrad2 = deficit_coefficients(sf, w, 1, nz.volume_constraint(), rho)
    return cgrad2 + cu2 / (2.0 * (sf.n + 1))


def h_volume_gradient_bound(sf, w, rho):
    """Lower-bound coefficient of deficit / (rho^2 ||grad u||^2) for the
    volume-constrained mean-curvature comparison on pure degree-2
    directions; coincides with poincare_saturation_limit for constant
    weights and is otherwise a lower bound."""
    n = sf.n
    ph, dp, s = sf.warp(rho)
    A = (n - 1) * ph ** (n - 3) * dp * float(w(s)) \
        + ph ** (n - 1) * float(w.deriv(s, 1))
    return (n + 2) / (2.0 * (n + 1)) * A


def sigma_weighted_volume_gradient_bound(sf, w, k, rho):
    """Proved lower-bound coefficient of deficit / (rho^2 ||grad u||^2)
    for the weighted-volume-constrained sigma_k comparison (hyperbolic
    space form)."""
    if sf.K != -1:
        raise ValueError("this bound is specific to K = -1")
    n = sf.n
    ph, dp, s = sf.warp(rho)
    G = float(w(s))
    G1 = float(w.deriv(s, 1))
    C = comb(n, k)
    return 0.5 * C * (((n - k) * (k + 1) / (2.0 * n) * ph ** (n - k - 2)
                       * dp ** k
                       + k * (k - 1) / (2.0 * n) * ph ** (n - k)
                       * dp ** (k - 2)) * G
                      + k / float(n) * ph ** (n - k) * dp ** (k - 1) * G1)


def quermass_gradient_bound(sf, w, k, j, rho):
    """Proved lower-bound coefficient of deficit / (rho^2 ||grad u||^2)
    for the W_j-constrained sigma_k comparison (K = -1 and K = 0)."""
    n = sf.n
    ph, dp, s = sf.warp(rho)
    G = float(w(s))
    C = comb(n, k)
    if sf.K == -1:
        return C * (n - k) * (k - j) / (4.0 * n) * ph ** (n - k - 2) \
            * dp ** k * G
    if sf.K == 0:
        G1 = float(w.deriv(s, 1))
        return 0.5 * C * ((n - k) * (k - j) / (2.0 * n)
                          * rho ** (n - k - 2) * G
                          + (2 * k - j - 1) / (2.0 * n) * rho ** (n - k)
                          * G1)
    raise ValueError("bound available for K = -1 and K = 0 only")


def weight_closures(kind, param=1.0, scales=()):
    """(g, g', g'') as hand-written closures: constant(param), affine(),
    power(param) or shifted_power(param), each then multiplied by every
    c of scales in turn, as WeightFunction.scaled does (oracle for the
    closed-form family of spaceform.WeightFunction, bit for bit)."""
    zero = lambda s: np.zeros_like(s)
    if kind == "constant":
        fs = (lambda s: np.full_like(s, float(param)), zero, zero)
    elif kind == "affine":
        fs = (lambda s: 1.0 + s, lambda s: np.ones_like(s), zero)
    else:
        alpha, shift = float(param), 0.0 if kind == "power" else 1.0

        def dk(order):
            coef = 1.0
            for i in range(order):
                coef *= alpha - i

            def f(s, p=alpha - order):
                if coef == 0.0:
                    return np.asarray(s, dtype=float) * 0.0
                with np.errstate(divide="ignore"):
                    return coef * (shift + s) ** p
            return f
        fs = (dk(0), dk(1), dk(2))
    for c in scales:
        fs = tuple(lambda s, f=f, c=float(c): c * f(s) for f in fs)
    return fs


def write_report(reports, path, fmt="csv"):
    """Write reports to path in csv or json format."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    text = lab.report_text(reports, fmt)
    Path(path).write_text(text)
    return text
