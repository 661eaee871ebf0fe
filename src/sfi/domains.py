"""Bulk and boundary functionals of the enclosed domain Omega.

Volume integrals reduce to the radial primitive P_n(r) = int_0^r phi^n,
known in closed form for every K, so bulk quantities are single angular
quadratures. The brute-force radial Gauss-Legendre volumes that check
them, and the reference ball profile, live in tests/oracles.py. The
barycenter is the Karcher mean of the enclosed mass, found by Newton
steps whose gradient and Hessian are such quadratures at the origin of
each iterate; it is the package's one Karcher solver, and every row
reads its comparison ball's center from it (normalize.SampledGraph).
Fraenkel asymmetry minimizes the symmetric-difference volume against
equal-volume geodesic balls over the center.

Each functional of a graph takes its geometry on a grid
(graphgeom.SurfaceGeometry) and reads the graph, grid and radii r from
it, so every caller that holds the same geometry gets the same bits.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np

from sfi import model
from sfi import spherebasis as sb

# Ball centers at least this fraction of the ball radius from the origin
# leave the origin too close to the sphere for a radial profile.
CENTER_LIMIT = 0.995
# Asymmetry center search (fraenkel_asymmetry). The Newton phase's hat
# kernel is as wide as this quantile of |P_n(R) - P_n(R_ball)| over the
# nodes; a step is halved at most SEARCH_HALVINGS times; the Newton phase
# ends when a step gains at most SEARCH_REL_GAIN of alpha and the polish
# when one gains at most POLISH_REL_GAIN, both far below alpha's own
# quadrature error, which is percent-sized and two-sided (+1.08% at
# resolution 24, -2.02% at 32; ROADMAP item 1); SEARCH_STEPS caps the
# steps.
# The search stops once alpha is at most SEARCH_ALPHA_FLOOR of the ball
# volume: on an exact ball alpha falls geometrically towards rounding, so
# no relative-gain test would fire.
SEARCH_KERNEL_QUANTILE = 0.1
SEARCH_HALVINGS = 20
SEARCH_REL_GAIN = 1e-5
POLISH_REL_GAIN = 1e-6
SEARCH_STEPS = 50
SEARCH_ALPHA_FLOOR = 1e-12
# Barycenter: gradient-norm tolerance and iteration cap of the Newton
# iteration.
BARYCENTER_TOL = 1e-10
BARYCENTER_MAX_ITER = 100
# Ball radius (ball_radius, _brent): scipy.optimize.brentq's tolerances,
# rtol being the least brentq accepts (4 eps), and its iteration cap.
RADIUS_XTOL = 1e-15
RADIUS_RTOL = 8.9e-16
RADIUS_MAX_ITER = 100


def volume(geo):
    """Vol(Omega) via the closed-form radial primitive."""
    return geo.grid.integrate(geo.graph.sf.volume_primitive(geo.r))


def weighted_volume(geo):
    """int_Omega phi'(r) dv = (n+1)^{-1} int phi^{n+1}(r(x)) dA."""
    sf = geo.graph.sf
    return geo.grid.integrate(geo.phi ** (sf.n + 1)) / (sf.n + 1)


def quermassintegrals(geo):
    """All quermassintegrals W_{-1}..W_n as a dict keyed by the index."""
    grid = geo.grid
    n = grid.n
    sig_ints = [grid.integrate(geo.sigma[:, k] * geo.area_factor)
                for k in range(n + 1)]
    return quermass_recurrence(geo.graph.sf.K, n, volume(geo), sig_ints)


def quermass_recurrence(K, n, vol, sig_ints):
    """W_{-1}..W_n from the volume and the integrals of sigma_0..sigma_n:
    W_{-1} = vol, W_0 = int sigma_0, W_1 = int sigma_1 + K n W_{-1} and
    W_k = int sigma_k + K (n-k+1)/(k-1) W_{k-2} for k >= 2. The
    recurrence is linear, so it maps arrays of expansion coefficients of
    these integrals to those of W_j as well."""
    W = {-1: vol, 0: sig_ints[0], 1: sig_ints[1] + K * n * vol}
    for k in range(2, n + 1):
        W[k] = sig_ints[k] + K * (n - k + 1) / (k - 1) * W[k - 2]
    return W


def ball_volume(sf, rho):
    return sf.sphere_area * sf.volume_primitive(rho)


def ball_weighted_volume(sf, rho):
    return sf.sphere_area * sf.phi(rho) ** (sf.n + 1) / (sf.n + 1)


def ball_quermassintegrals(sf, rho):
    """Closed-form W_{-1}..W_n of the geodesic ball of radius rho."""
    n = sf.n
    ph, dph = sf.phi(rho), sf.dphi(rho)
    sig_ints = [comb(n, k) * sf.sphere_area * ph ** (n - k) * dph ** k
                for k in range(n + 1)]
    return quermass_recurrence(sf.K, n, ball_volume(sf, rho), sig_ints)


def ball_radius(ball_value, value, cap, start=1.0):
    """Radius rho in (0, cap] with ball_value(rho) = value, for a
    ball_value increasing on (0, cap].

    The bracket grows from start by factors 0.7 and 1.3; raises
    ValueError when value lies below or above what radii up to cap
    attain.
    """
    def f(r):
        return ball_value(r) - value

    lo = hi = min(start, cap)
    flo = f(lo)
    for _ in range(200):
        if flo <= 0:
            break
        lo *= 0.7
        flo = f(lo)
    if flo > 0:
        raise ValueError(f"value {value!r} below the attainable range")
    fhi = f(hi)
    for _ in range(200):
        if fhi >= 0 or hi >= cap:
            break
        hi = min(hi * 1.3, cap)
        fhi = f(hi)
    if fhi < 0:
        raise ValueError(f"value {value!r} above the attainable range")
    if flo == 0:
        return lo
    return _brent(f, lo, hi, flo, fhi)


def _brent(f, xpre, xcur, fpre, fcur):
    """Root of f between xpre and xcur, given fpre = f(xpre) and
    fcur = f(xcur) of opposite signs: Brent's method (1973) as
    scipy.optimize.brentq runs it, step for step and float for float.
    Raises ValueError on a NaN value and RuntimeError after
    RADIUS_MAX_ITER steps."""
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError("function value at a bracket end is NaN")
    if fpre == 0:
        return float(xpre)
    if fcur == 0:
        return float(xcur)
    xblk = fblk = spre = scur = 0.0
    for _ in range(RADIUS_MAX_ITER):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (RADIUS_XTOL + RADIUS_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return float(xcur)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"function value at {xcur!r} is NaN")
    raise RuntimeError(f"failed to converge after {RADIUS_MAX_ITER} "
                       f"iterations, value is {xcur!r}")


def radius_for_volume(sf, V):
    """Radius of the geodesic ball with Vol = V."""
    return ball_radius(lambda r: ball_volume(sf, r), V, sf.r_max - 1e-9)


def _origin_moments(sf, R):
    """Radial moments over each node of a region with radii R about O.

    Returns (P, M, H), the radial primitives of the Karcher energy's
    derivatives at O (_origin_derivatives): the mass
    P = P_n(R) = int_0^R phi^n, the first moment M = int_0^R t phi^n(t) dt
    and H = int_0^R phi^n (1 + n t phi'/phi) dt / (n+1) = R phi^n(R) / (n+1),
    the trace of Hess(d^2/2) integrated along the ray, over n+1. Its
    tangential part T = int_0^R t phi^{n-1} phi' = (R phi^n(R) - P) / n,
    done by parts, is ((n+1) H - P) / n, so no further transcendental is
    needed. M = R P_n(R) - Q_n(R) with Q_n = int_0^R P_n, which
    integrates the reduction of SpaceForm.primitive_from_warp once:
    Q_m = ((m-1) Q_{m-2} - phi^m / m) / (K m), from Q_1 = K (R - phi)
    for odd n and Q_0 = R^2 / 2 for even n. At K = 0, M = R^{n+2}/(n+2)
    and H = P. For small R the reduction cancels as primitive_from_warp
    does: about eps / R^4 relative for n = 3, 4 and eps / R^2 for n = 2.
    """
    n = sf.n
    if sf.K == 0:
        P = R ** (n + 1) / (n + 1)
        return P, R ** (n + 2) / (n + 2), P
    ph, dph = sf.phi(R), sf.dphi(R)
    P = sf.primitive_from_warp(ph, dph, R)
    if n % 2:
        Q, start = sf.K * (R - ph), 1
    else:
        Q, start = 0.5 * R * R, 0
    for m in range(start + 2, n + 1, 2):
        Q = ((m - 1) * Q - ph ** m / m) / (sf.K * m)
    return P, R * P - Q, R * ph ** n / (n + 1)


def _origin_derivatives(sf, grid, R):
    """(mass, G, h, H) of the region with radii R at the grid nodes.

    The Karcher energy E(p) = int_Omega d(y, p)^2 / 2 dv has, at the
    origin O and in model coordinates, the gradient -G and the Hessian H.
    log_O(y) = t x for the point at radius t over node x, and Hess(d^2/2)
    has the eigenvalue 1 along x and t coth t, t cot t or 1 (K = -1, +1,
    0) across it, so with the radial primitives of _origin_moments

        G = sum_i w_i M_i x_i,
        H = sum_i w_i (P_i - T_i) x_i x_i^T + (sum_i w_i T_i) I,

    T_i = ((n+1) H_i - P_i) / n being the tangential eigenvalue's
    integral along the ray. h = tr H / (n+1) is summed from the H_i
    directly. At K = 0, T = P, so H = mass I and h = mass.
    """
    P, M, Hr = _origin_moments(sf, R)
    total = grid.integrate(P)
    G = (grid.weights * M) @ grid.nodes
    h = grid.integrate(Hr)
    if sf.K == 0:
        return total, G, h, total * np.eye(sf.n + 1)
    wT = grid.weights * (((sf.n + 1) * Hr - P) / sf.n)
    H = (grid.nodes.T * (grid.weights * P - wT)) @ grid.nodes
    return total, G, h, H + np.sum(wT) * np.eye(sf.n + 1)


def _gradient_met(G, total):
    """barycenter's convergence criterion: 2 |G| < BARYCENTER_TOL
    max(1, mass)."""
    return 2.0 * np.linalg.norm(G) < BARYCENTER_TOL * max(1.0, total)


def origin_newton_step(sf, grid, R):
    """(step, met): the model vector of the Karcher energy's Newton step
    H^{-1} G at O (_origin_derivatives) for the region with radii R at
    the grid nodes, and whether G meets barycenter's criterion
    (_gradient_met).

    At K = 0 the step is the centroid G / mass. When H is not positive
    definite, which can happen only at K = +1, where t cot t is negative
    past pi/2, the step is the damped G / max(h, mass / (n+1)): h is
    exact for a ball about O, and mass / (n+1) is its value with every
    t cot t at 0.
    """
    total, G, h, H = _origin_derivatives(sf, grid, R)
    met = _gradient_met(G, total)
    if sf.K == 0:
        return G / total, met
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return G / max(h, total / (sf.n + 1)), met
    return np.linalg.solve(L.T, np.linalg.solve(L, G)), met


def _shoot_radii(graph, grid, center, radii):
    """Radii at the grid nodes of the surface translated so that the
    ambient point center moves to O, by per-node secant ray shooting
    from the first guess radii.

    The radius r over node x solves s = R(y), where (s, y) are the polar
    coordinates of T(embed(r, x)), T = model.translation_from_origin of
    center, and R is the graph's radius function; the residual has unit
    slope in r to leading order.
    """
    sf = graph.sf
    back = model.translation_from_origin(sf, center)

    def shoot_residual(r):
        s, y = model.polar(sf, back(model.embed(sf, r, grid.nodes)))
        return s - graph.radii(sb.evaluate(graph.u, y))

    r0 = radii
    f0 = shoot_residual(r0)
    r1 = r0 - f0
    f1 = shoot_residual(r1)
    for _ in range(60):
        if np.max(np.abs(f1)) < 1e-14 * graph.rho:
            break
        denom = f1 - f0
        denom = np.where(np.abs(denom) > 1e-300, denom, 1.0)
        r2 = r1 - f1 * (r1 - r0) / denom
        r0, f0 = r1, f1
        r1 = r2
        f1 = shoot_residual(r1)
    return r1


def barycenter(geo):
    """Karcher mean of the enclosed domain in ambient coordinates.

    Minimizes p -> int_Omega d(y, p)^2 / 2 dv by Newton steps taken at
    the origin of the current iterate p: each pass steps by
    origin_newton_step on the radii of the domain translated so that p
    moves to O, maps the step's point back by
    model.translation_from_origin of p, and finds the radii about the
    new iterate by secant ray shooting (_shoot_radii). Once the gradient
    at p meets the criterion 2 |G| < BARYCENTER_TOL max(1, mass)
    (_gradient_met) it takes the step computed there and returns the
    point it lands on; it raises RuntimeError after BARYCENTER_MAX_ITER
    passes. At K = 0 the first step lands on the centroid. The first
    pass reads the radii geo.r of the graph's geometry. Rows read the
    sampled surface about the returned point as it is (normalize), so
    no other iteration moves the domain.
    """
    graph, grid, R = geo.graph, geo.grid, geo.r
    sf = graph.sf
    p = model.origin(sf)
    for _ in range(BARYCENTER_MAX_ITER):
        step, met = origin_newton_step(sf, grid, R)
        p = model.translation_from_origin(sf, p)(model.point(sf, step))
        if met:
            return p
        R = _shoot_radii(graph, grid, p, R)
    raise RuntimeError("barycenter iteration did not converge")


def _center_params(sf, center_vec):
    """(q, a) of model vector c: the center embeds as (a, q) for K = +-1
    and as q for K = 0, with q = (phi(t)/t) c, a = phi'(t) and t = |c|."""
    if sf.K == 0:
        return center_vec, 1.0
    t = float(np.linalg.norm(center_vec))
    if sf.K == -1:
        a, sin_t = math.cosh(t), math.sinh(t)
    else:
        a, sin_t = math.cos(t), math.sin(t)
    return (sin_t / t * center_vec if t > 0 else center_vec), a


def _center_from_params(sf, q):
    """Model vector c with (phi(t)/t) c = q, t = |c|; NaN when no such c
    exists (|q| > 1 at K = +1). K = +1 centers come out closer than pi/2."""
    s = float(np.linalg.norm(q))
    if sf.K == 0 or s == 0.0:
        return q
    with np.errstate(invalid="ignore"):
        t = np.arcsinh(s) if sf.K == -1 else np.arcsin(s)
    return t / s * q


def _ball_warp(sf, q, a, rho_bar, x):
    """(b, phi(R), phi'(R)) of the radial profile R(x) of the ball of
    radius rho_bar whose center has parameters (q, a), with b = x . q;
    NaN where the profile is undefined. The closed forms are in
    symmetric_difference_to_ball.
    """
    b = x @ q
    if sf.K == 0:
        with np.errstate(invalid="ignore"):
            R = b + np.sqrt(b * b - q @ q + rho_bar * rho_bar)
        return b, R, np.ones_like(R)
    C = math.cosh(rho_bar) if sf.K == -1 else math.cos(rho_bar)
    bb = b * b
    # A = a^2 + K b^2 and K (A - C^2) = b^2 + K (a^2 - C^2), as K^2 = 1
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_A = 1.0 / (sf.K * bb + a * a)
        s = np.sqrt(bb + sf.K * (a * a - C * C))
        ph = (C * b + a * s) * inv_A
        dph = (a * C - sf.K * b * s) * inv_A
    return b, ph, dph


def _warp_primitive(sf, ph, dph):
    """P_n(R) from phi(R) and phi'(R) of a ball profile with phi(R) > 0."""
    if sf.K == 0:
        return sf.volume_primitive(ph)
    if sf.n % 2:
        R = None
    elif sf.K == -1:
        R = np.arcsinh(ph)
    else:
        R = np.arctan2(ph, dph)
    return sf.primitive_from_warp(ph, dph, R)


def _alpha_at(sf, grid, primitive, rho_bar, center):
    """(alpha, terms) at the model vector center, for the graph whose
    P_n(R) at the nodes is primitive; terms = (r, q, a, b, ph, dph) feed
    the search's next step, r = P_n(R) - P_n(R_ball). (+inf, None) when
    the center is not closer than CENTER_LIMIT rho_bar to the origin or
    phi(R_ball) > 0 fails at a node (NaN, or past pi at K = +1)."""
    if not np.linalg.norm(center) < CENTER_LIMIT * rho_bar:
        return np.inf, None
    q, a = _center_params(sf, center)
    b, ph, dph = _ball_warp(sf, q, a, rho_bar, grid.nodes)
    if not np.all(ph > 0.0):
        return np.inf, None
    r = primitive - _warp_primitive(sf, ph, dph)
    return grid.integrate(np.abs(r)), (r, q, a, b, ph, dph)


def _ball_primitive_gradient(sf, q, a, b, ph, dph, x):
    """dP_n(R)/dq at the nodes x, shape (n+1, nodes).

    Differentiating a phi'(R) + K b phi(R) = C, where a^2 = 1 - K|q|^2,
    gives dR/dq = (phi' q / a - phi x) / (b phi' - a phi); K = 0 is the
    same formula with a = 1, phi' = 1 and phi = R. Then
    dP_n(R)/dq = phi^n(R) dR/dq.
    """
    num = np.outer(q, dph / a) - x.T * ph
    return num * (ph ** sf.n / (b * dph - a * ph))


def symmetric_difference_to_ball(geo, center_vec, rho_bar):
    """Vol(Omega symmetric-difference ball(center, rho_bar)).

    center_vec is a model vector at the origin; the ball boundary is
    re-expressed as a radial graph about the origin, so the volume between
    the two profiles is an angular quadrature of |P_n(R) - P_n(R_ball)|,
    with R = geo.r at the nodes of geo.grid. Returns +inf wherever the
    asymmetry search sees +inf: when the center is not closer than
    CENTER_LIMIT rho_bar to the origin, or the ball profile is not finite
    or, at K = +1, reaches past the antipode (sin R <= 0 at some node).

    For K = +-1 the ball profile solves a phi'(R) + K b phi(R) = C with
    a = phi'(t), b = x . q, q = (phi(t)/t) c, t = |c| and
    C = phi'(rho_bar). With A = a^2 + K b^2 and s = sqrt(K (A - C^2)), its
    larger root is

        K = -1:  cosh R = (a C + b s) / A,   sinh R = (b C + a s) / A,
        K = +1:  cos R  = (a C - b s) / A,   sin R  = (b C + a s) / A,

    and these feed SpaceForm.primitive_from_warp directly: unlike the
    reference ball_radial_profile in tests/oracles.py, no inverse
    hyperbolic or trigonometric function and no phi, phi' of R is
    evaluated. R itself is needed only for even n, as asinh(sinh R) or
    atan2(sin R, cos R). For K = 0, |R x - c| = rho_bar gives
    R = b + sqrt(b^2 - |c|^2 + rho_bar^2).
    """
    sf = geo.graph.sf
    return _alpha_at(sf, geo.grid, sf.volume_primitive(geo.r), rho_bar,
                     center_vec)[0]


def _lower_quantile(size):
    """np.quantile(size, SEARCH_KERNEL_QUANTILE) of a finite 1-D array,
    bit for bit: numpy's linear rule between the order statistics at
    floor and ceil of (N - 1) q, with its two-sided interpolation, from
    one np.partition instead of numpy's general machinery.
    np.quantile's first call imports numpy.ma: +1.9 MB of peak RSS in a
    bare process, up to +4.1% on the benchmark's peak_rss_mb (bound 5%).
    A call also costs 48 us against 12 us here (2-vCPU x86-64 host)."""
    pos = (len(size) - 1) * SEARCH_KERNEL_QUANTILE
    lo = math.floor(pos)
    hi = min(lo + 1, len(size) - 1)
    part = np.partition(size, (lo, hi))
    below, above = float(part[lo]), float(part[hi])
    frac = pos - lo
    diff = above - below
    if frac >= 0.5:
        return above - diff * (1.0 - frac)
    return below + diff * frac


def _search_step(r, dB, w, polish):
    """Step in q of the center search from residuals r, their q-gradients
    -dB (shape (n+1, nodes)) and node weights w; None when the step's
    model is singular.

    Newton phase: the gradient -sum w sign(r) dB and the crossing-curve
    Hessian 2 sum w delta(r) dB dB^T, delta a hat kernel of width tau.
    Polish: iteratively reweighted least squares, which minimizes the
    majorant sum w (r^2/|r0| + |r0|)/2 of sum w |r| at the current r0.
    """
    size = np.abs(r)
    if polish:
        curv = w / np.maximum(size, np.finfo(float).eps * np.max(size))
    else:
        tau = _lower_quantile(size)
        if not tau > 0.0:
            return None
        curv = 2.0 * w * np.maximum(tau - size, 0.0) / (tau * tau)
    try:
        step = np.linalg.solve((dB * curv) @ dB.T, dB @ (w * np.sign(r)))
    except np.linalg.LinAlgError:
        return None
    return step if np.isfinite(step).all() else None


def _center_search(sf, grid, primitive, rho_bar, center):
    """(alpha, center) of the damped Newton search with IRLS polish from
    center, for the graph whose P_n(R) at the nodes is primitive; see
    fraenkel_asymmetry.
    """
    x, w = grid.nodes, grid.weights
    alpha, terms = _alpha_at(sf, grid, primitive, rho_bar, center)
    if terms is None:
        raise RuntimeError("asymmetry center search seeded outside the "
                           "comparison ball")
    floor = SEARCH_ALPHA_FLOOR * grid.integrate(primitive)
    polish = False
    for _ in range(SEARCH_STEPS):
        if not alpha > floor:
            break
        r, q, a, b, ph, dph = terms
        step = _search_step(
            r, _ball_primitive_gradient(sf, q, a, b, ph, dph, x), w, polish)
        gain = 0.0
        for _ in range(SEARCH_HALVINGS if step is not None else 0):
            c_new = _center_from_params(sf, q + step)
            alpha_new, terms_new = _alpha_at(sf, grid, primitive, rho_bar,
                                             c_new)
            if alpha_new < alpha:
                gain = alpha - alpha_new
                alpha, center, terms = alpha_new, c_new, terms_new
                break
            step = 0.5 * step
        if gain <= (POLISH_REL_GAIN if polish else SEARCH_REL_GAIN) * alpha:
            if polish:
                break
            polish = True
    return alpha, center


def fraenkel_asymmetry(geo, seed_center):
    """(alpha, center): minimal symmetric-difference volume to a ball,
    for the domain whose boundary has the geometry geo.

    The comparison ball has the same volume as Omega (radius rho_bar).
    Its center ranges over model vectors c and is searched from the
    model vector seed_center in q = (phi(t)/t) c, t = |c|.
    With r_i = P_n(R_i) - P_n(R_ball,i)(q) at the nodes,
    alpha = sum_i w_i |r_i| has the gradient -sum_i w_i sign(r_i) dB_i,
    where dB_i = dP_n(R_ball,i)/dq is in closed form
    (_ball_primitive_gradient). Its curvature sits on the crossing curve
    r = 0:

    - Newton phase: the Hessian model 2 sum_i w_i delta(r_i) dB_i dB_i^T,
      delta a hat kernel whose width is the SEARCH_KERNEL_QUANTILE
      quantile of |r_i|, steers from far away, where alpha is a cone;
    - polish: on the node scale alpha is piecewise smooth, and
      iteratively reweighted least squares (weights w_i / |r_i|) descends
      to the discrete minimum the Newton model cannot resolve.

    Each step is halved, up to SEARCH_HALVINGS times, until alpha drops.
    A phase ends when an accepted step lowers alpha by at most
    SEARCH_REL_GAIN (Newton) or POLISH_REL_GAIN (polish) relative, or
    when no halving lowers it; SEARCH_STEPS caps the steps of both. The
    search also stops once alpha is at most SEARCH_ALPHA_FLOOR of the
    comparison ball's volume.

    The error of a search that stops early is one-sided: alpha is
    computed exactly as symmetric_difference_to_ball computes it at the
    returned center, a real center, so it is never below the minimum
    over centers of that discrete alpha. An early stop can only raise a
    (C - eta) alpha^2 bound above its value at that minimum. This holds
    for the discrete alpha on grid only: its quadrature error against
    the true asymmetry is two-sided, percent-sized and not estimated
    (ROADMAP item 1). So an early stop never turns a fail into a pass
    against the discrete minimum, but nothing bounds the verdict against
    the true asymmetry, which that error can move either way.
    """
    sf, grid = geo.graph.sf, geo.grid
    primitive = sf.volume_primitive(geo.r)
    rho_bar = radius_for_volume(sf, grid.integrate(primitive))
    return _center_search(sf, grid, primitive, rho_bar,
                          np.asarray(seed_center, dtype=float))
