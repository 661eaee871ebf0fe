"""Tests for sphere quadrature grids and the harmonic basis."""

import copy
import dataclasses
import functools
import math
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.linalg import cholesky, null_space, solve_triangular
from scipy.special import roots_jacobi

import oracles
from sfi import spherebasis as sb
from sfi.spaceform import unit_sphere_area


# Per-monomial and per-node loops that spherebasis once ran; the
# vectorized set-up must reproduce them bit for bit.

def compositions_oracle(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in compositions_oracle(total - head, parts - 1):
            yield (head,) + rest


def exponents_oracle(nvars, max_degree):
    rows, slices = [], []
    for d in range(max_degree + 1):
        block = sorted(compositions_oracle(d, nvars), reverse=True)
        slices.append(slice(len(rows), len(rows) + len(block)))
        rows.extend(block)
    return np.array(rows, dtype=np.int64), slices


def moment_oracle(e, nvars):
    if np.any(e % 2):
        return 0.0
    num = 2.0
    for a in e:
        num *= math.gamma((a + 1) / 2.0)
    return num / math.gamma((e.sum() + nvars) / 2.0)


def sphere_integrals_oracle(table):
    return np.array([moment_oracle(e, table.nvars) for e in table.exponents])


@functools.cache
def pair_integrals_oracle(nvars, d):
    exps, slices = exponents_oracle(nvars, d)
    exps = exps[slices[d]]
    td = len(exps)
    out = np.zeros((td, td))
    for i in range(td):
        for j in range(i, td):
            out[i, j] = out[j, i] = moment_oracle(exps[i] + exps[j], nvars)
    return out


def diff_matrix_oracle(table, j):
    index = {tuple(e): i for i, e in enumerate(table.exponents.tolist())}
    rows, cols, vals = [], [], []
    for i, e in enumerate(table.exponents):
        if e[j] == 0:
            continue
        tgt = list(e)
        tgt[j] -= 1
        rows.append(index[tuple(tgt)])
        cols.append(i)
        vals.append(float(e[j]))
    return sparse.csr_matrix((vals, (rows, cols)),
                             shape=(table.size, table.size))


def laplacian_matrix_oracle(table, d):
    index = {tuple(e): i for i, e in enumerate(table.exponents.tolist())}
    src, dst = table.degree_slices[d], table.degree_slices[d - 2]
    out = np.zeros((dst.stop - dst.start, src.stop - src.start))
    for i, e in enumerate(table.exponents[src]):
        for j in range(table.nvars):
            if e[j] >= 2:
                tgt = list(e)
                tgt[j] -= 2
                out[index[tuple(tgt)] - dst.start, i] = e[j] * (e[j] - 1)
    return out


def apply_map(index_map, c):
    out = np.zeros(len(c))
    out[index_map.dst] = index_map.scale * c[index_map.src]
    return out


def second_diff_oracle(table, j, k):
    return diff_matrix_oracle(table, j) @ diff_matrix_oracle(table, k)


def basis_oracle(n, d_max):
    table = sb.MonomialTable(n + 1, d_max)
    omega = unit_sphere_area(n)
    rows, degrees = [], []
    for d in range(d_max + 1):
        if d == 0:
            col = np.array([[omega ** -0.5]])
        elif d == 1:
            col = np.eye(n + 1) * np.sqrt((n + 1) / omega)
        else:
            lap = laplacian_matrix_oracle(table, d)
            null = np.linalg.svd(lap)[2][len(lap):].T
            gram = null.T @ pair_integrals_oracle(n + 1, d) @ null
            chol = np.linalg.cholesky(gram)
            # forward substitution chol @ x = null.T, row by row
            x = np.empty_like(null.T)
            for i in range(len(chol)):
                x[i] = (null.T[i] - chol[i, :i] @ x[:i]) / chol[i, i]
            col = x.T
            for i in range(col.shape[1]):
                j = np.argmax(np.abs(col[:, i]))
                if col[j, i] < 0:
                    col[:, i] = -col[:, i]
        for i in range(col.shape[1]):
            row = np.zeros(table.size)
            row[table.degree_slices[d]] = col[:, i]
            rows.append(row)
            degrees.append(d)
    return np.array(rows), np.array(degrees, dtype=np.int64)


def scipy_basis_oracle(table, d):
    """The degree-d block as scipy's null_space, cholesky and
    solve_triangular built it before the runtime dropped scipy."""
    null = null_space(laplacian_matrix_oracle(table, d))
    gram = null.T @ pair_integrals_oracle(table.nvars, d) @ null
    chol = cholesky(gram, lower=False)
    return sb._fix_signs(
        solve_triangular(chol, null.T, trans="T", lower=False).T)


def jacobi_oracle(m, a, x):
    """(P_m, P_m') of the Jacobi polynomial P^(a,a) at the mpf x, from
    the standard three-term recurrence and P_m' = (m + 2a + 1)/2
    P_{m-1}^(a+1,a+1)."""
    def value(m, a):
        prev, cur = mpmath.mpf(1), (a + 1) * x
        if m == 0:
            return prev
        for k in range(2, m + 1):
            c = 2 * k + 2 * a
            prev, cur = cur, ((c - 1) * c * (c - 2) * x * cur
                              - 2 * (k + a - 1) ** 2 * c * prev) \
                / (2 * k * (k + 2 * a) * (c - 2))
        return cur
    return value(m, a), (m + 2 * a + 1) / 2 * value(m - 1, a + 1)


def gauss_jacobi_oracle(m, a):
    """Nodes and weights of the m-point Gauss rule for (1 - t^2)^a at 40
    digits: Newton's method on P_m^(a,a) from scipy's nonnegative nodes,
    mirrored, and
    w = 2^(2a+1) Gamma(m+a+1)^2 / (Gamma(m+2a+1) m! (1-t^2) P_m'(t)^2)."""
    with mpmath.workdps(40):
        a = mpmath.mpf(a)
        scale = (2 ** (2 * a + 1) * mpmath.gamma(m + a + 1) ** 2
                 / (mpmath.gamma(m + 2 * a + 1) * mpmath.factorial(m)))
        starts = roots_jacobi(m, float(a), float(a))[0][m // 2:]
        nodes, weights = [], []
        for i, start in enumerate(starts):
            t = mpmath.mpf(0 if i == 0 and m % 2 else start)
            for _ in range(3 if t else 0):
                p, dp = jacobi_oracle(m, a, t)
                t -= p / dp
            _, dp = jacobi_oracle(m, a, t)
            nodes.append(t)
            weights.append(scale / ((1 - t * t) * dp * dp))
        half = m // 2
        return ([-t for t in nodes[::-1][:half]] + nodes,
                weights[::-1][:half] + weights)


def frames_oracle(nodes):
    npts, m = nodes.shape
    pivot = np.argmax(np.abs(nodes), axis=1)
    frames = np.empty((npts, m - 1, m))
    for i in range(npts):
        x = nodes[i]
        basis = []
        for j in range(m):
            if j == pivot[i]:
                continue
            v = -x[j] * x
            v[j] += 1.0
            for b in basis:
                v -= (v @ b) * b
            v /= np.linalg.norm(v)
            basis.append(v)
        frames[i] = np.array(basis)
    return frames


def vandermonde_oracle(table, points):
    out = np.empty((len(points), table.size))
    for i, x in enumerate(points):
        powers = np.ones((table.nvars, table.max_degree + 1))
        for p in range(1, table.max_degree + 1):
            powers[:, p] = powers[:, p - 1] * x
        row = np.ones(table.size)
        for j in range(table.nvars):
            row = row * powers[j, table.exponents[:, j]]
        out[i] = row
    return out


def jet_oracle(u, grid):
    """(values, frame gradient, frame Hessian) of u at the grid nodes,
    one monomial Vandermonde product per jet column."""
    t = u.basis.table
    V = oracles.vandermonde(t, grid.nodes)
    c = u.coeffs @ u.basis.coeffs
    m = t.nvars
    amb_grad = np.column_stack([V @ (diff_matrix_oracle(t, j) @ c)
                                for j in range(m)])
    amb_hess = np.array([[V @ (second_diff_oracle(t, j, k) @ c)
                          for k in range(m)] for j in range(m)])
    E = grid.frames
    hess = (np.einsum("iam,mki,ibk->iab", E, amb_hess, E)
            - np.einsum("im,im->i", grid.nodes, amb_grad)[:, None, None]
            * np.eye(grid.n))
    return V @ c, np.einsum("iam,im->ia", E, amb_grad), hess


def through_each_degree(basis, rng):
    """The zero function, then for each top degree 0..d_max a random
    function whose coefficients above that degree are 0."""
    yield sb.zero_function(basis)
    for top in range(basis.d_max + 1):
        a = rng.standard_normal(basis.size)
        a[basis.degrees > top] = 0.0
        yield sb.from_coeffs(basis, a)


def untrimmed(monkeypatch, kernel, *args):
    """kernel(*args) with every synthesis kernel run through the top
    degree of its basis or monomial table, whatever the function's own
    degree: the bits of the kernels before they were trimmed."""
    with monkeypatch.context() as m:
        m.setattr(sb, "_top_degree", lambda coeffs, degrees: degrees[-1])
        return kernel(*args)


@pytest.fixture(scope="module")
def grid3():
    return sb.build_grid(3, 20)


@pytest.fixture(scope="module")
def basis3():
    return sb.build_basis(3, 5)


class TestGrid:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_total_weight(self, n):
        g = sb.build_grid(n, 10)
        assert g.integrate(np.ones(g.node_count)) == pytest.approx(
            unit_sphere_area(n), rel=1e-12)

    def test_unit_nodes_and_frames(self, grid3):
        assert np.allclose(np.linalg.norm(grid3.nodes, axis=1), 1.0, atol=1e-14)
        E = grid3.frames
        gram = np.einsum("iam,ibm->iab", E, E)
        assert np.allclose(gram, np.eye(3), atol=1e-12)
        tangency = np.einsum("iam,im->ia", E, grid3.nodes)
        assert np.allclose(tangency, 0.0, atol=1e-12)

    def test_spec_values(self):
        g2 = sb.build_grid(2, 16)
        assert g2.integrate(np.ones(g2.node_count)) == pytest.approx(
            4 * math.pi, rel=1e-12)
        g3 = sb.build_grid(3, 16)
        assert g3.integrate(g3.nodes[:, 0] ** 2) == pytest.approx(
            math.pi**2 / 2, rel=1e-12)
        g2b = sb.build_grid(2, 8)
        assert g2b.integrate(g2b.nodes[:, 2] ** 8) == pytest.approx(
            4 * math.pi / 9, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_monomial_exactness(self, n):
        res = 9
        g = sb.build_grid(n, res)
        table = sb.MonomialTable(n + 1, res)
        vander = oracles.vandermonde(table, g.nodes)
        exact = oracles.sphere_integrals(table)
        quad = vander.T @ (g.weights)
        scale = unit_sphere_area(n)
        assert np.allclose(quad, exact, atol=1e-12 * scale)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gauss_jacobi_rule(self, n):
        a = (n - 2) / 2
        # where np.longdouble is no wider than a double, the recurrence's
        # own rounding moves a node by up to 4 of its ulps
        ulps = 1 if np.finfo(np.longdouble).nmant > 52 else 4
        for m in range(1, 31):
            t, w = sb._gauss_jacobi(m, a)
            want_t, want_w = gauss_jacobi_oracle(m, a)
            for got, want in zip(t, want_t):
                assert abs(mpmath.mpf(got) - want) \
                    <= ulps * np.spacing(abs(float(want)))
            for got, want in zip(w, want_w):
                assert abs(mpmath.mpf(got) / want - 1) <= 1e-13
            # exact through degree 2m - 1
            for k in range(2 * m):
                exact = 0.0 if k % 2 else (
                    math.gamma((k + 1) / 2) * math.gamma(a + 1)
                    / math.gamma((k + 1) / 2 + a + 1))
                assert np.sum(w * t ** k) == pytest.approx(exact, rel=1e-13,
                                                           abs=1e-15)
            # scipy's rule, whose weights come from the derivative before
            # its last Newton step
            ref_t, ref_w = roots_jacobi(m, a, a)
            assert np.allclose(t, ref_t, rtol=0, atol=2.0 ** -52)
            assert np.allclose(w, ref_w, rtol=1e-12, atol=0)

    def test_errors(self):
        with pytest.raises(ValueError):
            sb.build_grid(5, 10)
        with pytest.raises(ValueError):
            sb.build_grid(3, 3)

    def test_shared_read_only_grid(self):
        grid = sb.build_grid(3, 20)
        # the same (n, resolution) is the same grid, and its fields are
        # its rule: it holds nothing built for a basis
        assert sb.build_grid(3, 20) is grid
        assert [f.name for f in dataclasses.fields(grid)] == [
            "n", "d_exact", "nodes", "weights", "frames", "levels"]
        # shared arrays cannot be written through
        for arr in (grid.nodes, grid.weights, grid.frames,
                    *(x for level in grid.levels for x in level)):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            grid.nodes[0, 0] = 0.0
        # the process keeps at most four grids, the most recently used
        for res in range(8, 14):
            assert sb.build_grid(2, res) is sb.build_grid(2, res)
            assert sb._shared_grid.cache_info().currsize <= 4
        rebuilt = sb.build_grid(3, 20)
        assert rebuilt is not grid and rebuilt == grid
        for name in ("nodes", "weights", "frames"):
            assert np.array_equal(getattr(rebuilt, name), getattr(grid, name))

    def test_rotated_grid_is_not_served_stale_matrices(self):
        # a grid is its rule: a copy with foreign nodes, weights, frames
        # or levels is refused, so no kernel reads a rule that its nodes
        # do not follow
        grid = sb.build_grid(3, 8)
        q, _r = np.linalg.qr(np.random.default_rng(8).standard_normal((4, 4)))
        for name, value in (("nodes", grid.nodes @ q.T),
                            ("frames", grid.frames @ q.T),
                            ("weights", np.flip(grid.weights)),
                            ("levels", grid.levels[::-1])):
            with pytest.raises(ValueError, match="init=False"):
                dataclasses.replace(grid, **{name: value})
        # a copy with another resolution is that resolution's grid
        other = dataclasses.replace(grid, d_exact=10)
        assert other == sb.build_grid(3, 10) and other != grid
        assert np.array_equal(other.nodes, sb.build_grid(3, 10).nodes)
        with pytest.raises(ValueError):
            dataclasses.replace(grid, d_exact=3)
        with pytest.raises(ValueError):
            dataclasses.replace(grid, n=5)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_levels_give_the_nodes(self, n):
        # the product coordinates of the 1-D rules, last level fastest,
        # are the renormalized nodes to rounding
        grid = sb.build_grid(n, 11)
        idx = np.indices([len(c) for c, _ in grid.levels]).reshape(n, -1)
        coords, scale = [], np.ones(grid.node_count)
        for (c, s), i in zip(grid.levels, idx):
            coords.append(scale * c[i])
            scale = scale * s[i]
        coords = np.column_stack([*coords, scale])
        assert np.allclose(coords, grid.nodes, rtol=0, atol=4e-16)
        assert np.array_equal(grid.levels[0][0],
                              sb._gauss_jacobi(6, (n - 2) / 2)[0])


class TestBasis:
    def test_shared_read_only_basis(self):
        # the same (n, d_max) is the same basis, with its monomial table
        basis = sb.build_basis(3, 5)
        assert sb.build_basis(3, 5) is basis
        assert sb.build_basis(3, 6) is not basis
        for arr in (basis.coeffs, basis.degrees):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            basis.coeffs[0, 0] = 0.0
        with pytest.raises(ValueError):
            sb.build_basis(5, 5)

    def test_orthonormal(self, grid3, basis3):
        Y = basis3.coeffs @ oracles.vandermonde(basis3.table, grid3.nodes).T
        gram = Y @ (grid3.weights[:, None] * Y.T)
        assert np.allclose(gram, np.eye(basis3.size), atol=1e-9)

    def test_dimension_counts(self, basis3):
        for d in range(basis3.d_max + 1):
            assert len(basis3.degree_block(d)) == (d + 1) ** 2

    def test_constant_element(self, basis3):
        e0 = sb.from_coeffs(basis3, np.eye(basis3.size)[0])
        pts = np.eye(4)
        vals = sb.evaluate(e0, pts)
        assert np.allclose(vals, unit_sphere_area(3) ** -0.5, atol=1e-14)

    def test_degree_one_spans_coordinates(self, basis3, monkeypatch):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((10, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        block = basis3.degree_block(1)
        scale = math.sqrt(4 / unit_sphere_area(3))
        for pos, idx in enumerate(block):
            e = sb.from_coeffs(basis3, np.eye(basis3.size)[idx])
            assert np.allclose(sb.evaluate(e, pts), scale * pts[:, pos],
                               atol=1e-12)
        # general functions in every supported dimension, through each
        # top degree and the zero function, against the monomial
        # Vandermonde oracle; with degree-d_max content, bit for bit the
        # untrimmed kernel
        for n in (2, 3, 4):
            basis = sb.build_basis(n, 6)
            x = rng.standard_normal((200, n + 1))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            V = oracles.vandermonde(basis.table, x)
            for c in through_each_degree(basis, rng):
                full = c.coeffs @ basis.coeffs
                want = V @ full
                got = sb.evaluate(c, x)
                assert np.allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))
                poly = c.polynomial_coeffs()
                assert np.allclose(poly, full, rtol=0,
                                   atol=1e-15 * np.max(np.abs(full)))
                assert not poly[basis.table.degrees > c.degree].any()
                if c.degree == basis.d_max:
                    assert np.array_equal(poly, full)
                    assert np.array_equal(
                        got, untrimmed(monkeypatch, sb.evaluate, c, x))

    def test_eigenfunction_property(self, grid3, basis3):
        rng = np.random.default_rng(1)
        for d in [2, 3, 5]:
            block = basis3.degree_block(d)
            a = np.zeros(basis3.size)
            a[block] = rng.standard_normal(len(block))
            u = sb.from_coeffs(basis3, a)
            vals, _, hess = sb.eval_jet_all(u, grid3)
            lam = d * (d + 3 - 1)
            assert np.allclose(np.trace(hess, axis1=1, axis2=2), -lam * vals,
                               atol=1e-9 * max(1.0, np.max(np.abs(vals))))


class TestJets:
    def test_coordinate_function(self, grid3, basis3):
        # u = x_0 restricted to the sphere
        idx = basis3.degree_block(1)[0]
        a = np.zeros(basis3.size)
        a[idx] = math.sqrt(unit_sphere_area(3) / 4)
        u = sb.from_coeffs(basis3, a)
        val = sb.evaluate(u, np.eye(4)[1][None, :])[0]
        assert abs(float(val)) < 1e-14
        vals, grad, _ = sb.eval_jet_all(u, grid3)
        assert np.allclose(vals, grid3.nodes[:, 0], atol=1e-12)
        gn2 = np.sum(grad**2, axis=1)
        assert np.allclose(gn2, 1.0 - grid3.nodes[:, 0] ** 2, atol=1e-12)

    def test_finite_difference_oracle(self, grid3, basis3):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(basis3.size)
        u = sb.from_coeffs(basis3, a / np.linalg.norm(a))
        i = 101
        x = grid3.nodes[i]
        E = grid3.frames[i]
        vals, grads, hessians = sb.eval_jet_all(u, grid3)
        val, grad, hess = vals[i], grads[i], hessians[i]

        def along(w, t):
            pts = np.cos(t)[:, None] * x + np.sin(t)[:, None] * w
            return sb.evaluate(u, pts)

        h = 7e-3
        steps = np.array([-2.0, -1.0, 1.0, 2.0]) * h
        d1 = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * h)
        d2 = np.array([-1.0, 16.0, 16.0, -1.0]) / (12 * h * h)
        center = -30.0 / (12 * h * h)
        for a in range(3):
            fd = float(d1 @ along(E[a], steps))
            assert grad[a] == pytest.approx(fd, abs=1e-6)
            fd2 = float(d2 @ along(E[a], steps)) + center * val
            assert hess[a, a] == pytest.approx(fd2, abs=1e-6)
        for a in range(3):
            for b in range(a + 1, 3):
                wp = (E[a] + E[b]) / math.sqrt(2)
                wm = (E[a] - E[b]) / math.sqrt(2)
                sp = float(d2 @ along(wp, steps)) + center * val
                sm = float(d2 @ along(wm, steps)) + center * val
                assert hess[a, b] == pytest.approx((sp - sm) / 2, abs=1e-6)

    def test_single_node_matches_batch(self, grid3, basis3):
        rng = np.random.default_rng(3)
        u = sb.from_coeffs(basis3, rng.standard_normal(basis3.size))
        vals, grad, hess = sb.eval_jet_all(u, grid3)
        node = SimpleNamespace(n=grid3.n, nodes=grid3.nodes[17:18],
                               frames=grid3.frames[17:18])
        v, g, h = (a[0] for a in jet_oracle(u, node))
        # the oracle at one node against the batch: equal up to rounding
        tol = 1e-13 * np.max(np.abs(vals))
        assert v == pytest.approx(vals[17], rel=0, abs=tol)
        assert np.allclose(g, grad[17], rtol=0, atol=tol)
        assert np.allclose(h, hess[17], rtol=0, atol=10 * tol)
        # one matrix-vector product per jet column as the reference
        want_vals, want_grad, want_hess = jet_oracle(u, grid3)
        scale = np.max(np.abs(want_vals))
        assert np.allclose(vals, want_vals, rtol=0, atol=1e-13 * scale)
        assert np.allclose(grad, want_grad, rtol=0, atol=1e-12 * scale)
        assert np.allclose(hess, want_hess, rtol=0, atol=1e-11 * scale)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_synthesis_matches_monomial_oracle(self, n, monkeypatch):
        # values, frame gradient and frame Hessian from the synthesis,
        # through each top degree and for the zero function, including
        # tops <= 1 where the Hessian columns have no monomials, and
        # degree by degree; with degree-d_max content, bit for bit the
        # untrimmed kernels; the Hessian exactly symmetric
        rng = np.random.default_rng(40 + n)
        for d_max in (0, 1, 2, 5):
            basis = sb.build_basis(n, d_max)
            grid = sb.build_grid(n, max(4, 2 * d_max))
            single = []
            for d in range(d_max + 1):
                a = rng.standard_normal(basis.size)
                a[basis.degrees != d] = 0.0
                single.append(sb.from_coeffs(basis, a))
            for u in [*through_each_degree(basis, rng), *single]:
                want = jet_oracle(u, grid)
                scale = max(1.0, np.max(np.abs(want[0])))
                jet = sb.eval_jet_all(u, grid)
                vals = sb.values_on_grid(u, grid)
                # the frame Hessian is formed once per entry pair
                assert np.array_equal(jet[2], jet[2].swapaxes(1, 2))
                for got, ref in zip(jet, want):
                    assert got.shape == ref.shape
                    assert np.allclose(got, ref, rtol=0,
                                       atol=1e-12 * scale)
                assert np.allclose(vals, want[0], rtol=0,
                                   atol=1e-13 * scale)
                if u.degree == d_max:
                    for got, ref in zip(
                            (*jet, vals),
                            (*untrimmed(monkeypatch, sb.eval_jet_all, u,
                                        grid),
                             untrimmed(monkeypatch, sb.values_on_grid, u,
                                       grid))):
                        assert np.array_equal(got, ref)

    def test_layout_invariance(self, grid3, basis3):
        # build_grid stores frames node-minor; a copy that holds the same
        # frames C-ordered gives a bit-identical jet
        assert grid3.frames.transpose(1, 2, 0).flags.c_contiguous
        c_ordered = copy.copy(grid3)
        object.__setattr__(c_ordered, "frames",
                           np.ascontiguousarray(grid3.frames))
        assert c_ordered.frames.flags.c_contiguous
        u = sb.from_coeffs(basis3, np.random.default_rng(4).standard_normal(
            basis3.size))
        vals, grad, hess = sb.eval_jet_all(u, grid3)
        for got, want in zip(sb.eval_jet_all(u, c_ordered),
                             (vals, grad, hess)):
            assert np.array_equal(got, want)
        # views of node-minor arrays
        assert grad.T.flags.c_contiguous
        assert hess.transpose(1, 2, 0).flags.c_contiguous


class TestProjection:
    def test_roundtrip(self, grid3, basis3):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(basis3.size)
        u = sb.from_coeffs(basis3, a)
        back = sb.project(sb.values_on_grid(u, grid3), grid3, basis3)
        assert np.allclose(back.coeffs, a, atol=1e-9)

    def test_zero(self, grid3, basis3):
        out = sb.project(np.zeros(grid3.node_count), grid3, basis3)
        assert np.allclose(out.coeffs, 0.0)

    def test_two_mode_combination(self, grid3, basis3):
        a = np.zeros(basis3.size)
        a[2] = 3.0
        a[7] = 0.5
        u = sb.from_coeffs(basis3, a)
        out = sb.project(sb.values_on_grid(u, grid3), grid3, basis3)
        assert np.allclose(out.coeffs, a, atol=1e-9)

    def test_exactness_precondition(self, basis3):
        small = sb.build_grid(3, 8)
        with pytest.raises(ValueError):
            sb.project(np.zeros(small.node_count), small, basis3)

    def test_parseval(self, grid3, basis3):
        rng = np.random.default_rng(9)
        u = sb.from_coeffs(basis3, rng.standard_normal(basis3.size))
        norms = sb.sobolev_norms(grid3, sb.eval_jet_all(u, grid3))
        assert norms.l2 == pytest.approx(oracles.coeff_norm(u), rel=1e-9)


class TestSumFactorization:
    """The grid synthesis and its adjoint against the monomial
    Vandermonde matrix at the nodes."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_synthesis_matches_vandermonde(self, n):
        # a term c_e x^e takes at most 2 top + nvars roundings, and each
        # level sums at most top + 1 terms; the bound allows 16 (top +
        # nvars) eps of the sum of the terms' magnitudes, which also
        # covers the renormalized nodes' own rounding (at most 0.61 of
        # the bound measured)
        grid, table = sb.build_grid(n, 10), sb.MonomialTable(n + 1, 8)
        V = oracles.vandermonde(table, grid.nodes)
        rng = np.random.default_rng(60 + n)
        for top in range(table.max_degree + 1):
            c = rng.standard_normal((table.size, 3))
            c[table.degrees > top] = 0.0
            got = sb._synthesize(sb._level_powers(grid, top), table, c, top)
            assert got.shape == (3, grid.node_count)
            assert got.flags.c_contiguous
            bound = 16 * (top + n + 1) * np.finfo(float).eps \
                * (np.abs(V) @ np.abs(c)).T
            assert np.all(np.abs(got - (V @ c).T) <= bound), top
        empty = sb._synthesize(sb._level_powers(grid, 0), table, c, -1)
        assert empty.shape == got.shape and not empty.any()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_adjoint_identity(self, n):
        # <synth(c), w f> = <c, moments(w f)> to rounding, and the moments
        # are the Vandermonde matrix's transpose times w f
        grid, table = sb.build_grid(n, 12), sb.MonomialTable(n + 1, 6)
        V = oracles.vandermonde(table, grid.nodes)
        rng = np.random.default_rng(70 + n)
        wf = grid.weights * rng.standard_normal(grid.node_count)
        for top in range(table.max_degree + 1):
            k = table.degree_slices[top].stop
            c = rng.standard_normal((k, 1))
            powers = sb._level_powers(grid, top)
            moments = sb._moments(powers, table, wf, top)
            assert moments.shape == (k,)
            scale = np.abs(V[:, :k]).T @ np.abs(wf)
            assert np.allclose(moments, V[:, :k].T @ wf, rtol=0,
                               atol=1e-14 * np.max(scale))
            lhs = sb._synthesize(powers, table, c, top)[0] @ wf
            assert lhs == pytest.approx(c[:, 0] @ moments, rel=0,
                                        abs=1e-14 * np.abs(c[:, 0]) @ scale)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_projection_inverts_grid_values(self, n):
        basis = sb.build_basis(n, 6)
        grid = sb.build_grid(n, sb.default_resolution(6))
        rng = np.random.default_rng(80 + n)
        for u in through_each_degree(basis, rng):
            back = sb.project(sb.values_on_grid(u, grid), grid, basis)
            assert np.allclose(back.coeffs, u.coeffs, rtol=0, atol=1e-12)

    def test_kernels_peak_memory(self):
        # n = 3, basis degree 8, resolution 24: building the grid, a
        # degree-8 2-jet and a projection stay below 4 MB; the basis
        # values at the nodes alone would take 9.6 MB
        basis = sb.build_basis(3, 8)
        rng = np.random.default_rng(90)
        u = sb.from_coeffs(basis, rng.standard_normal(basis.size))
        assert u.degree == 8
        sb._shared_grid.cache_clear()
        tracemalloc.start()
        try:
            grid = sb.build_grid(3, 24)
            sb.eval_jet_all(u, grid)
            sb.project(np.ones(grid.node_count), grid, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestNormsAndSpectra:
    def test_degree_one_rayleigh(self, grid3, basis3):
        a = np.zeros(basis3.size)
        a[1] = 1.0
        u = sb.from_coeffs(basis3, a)
        norms = sb.sobolev_norms(grid3, sb.eval_jet_all(u, grid3))
        assert norms.grad_l2**2 == pytest.approx(3 * norms.l2**2, rel=1e-10)

    def test_degree_two_rayleigh(self, grid3, basis3):
        a = np.zeros(basis3.size)
        a[basis3.degree_block(2)[0]] = 1e-3
        u = sb.from_coeffs(basis3, a)
        norms = sb.sobolev_norms(grid3, sb.eval_jet_all(u, grid3))
        assert norms.grad_l2**2 / norms.l2**2 == pytest.approx(8.0, rel=1e-10)

    def test_zero_function(self, grid3, basis3):
        norms = sb.sobolev_norms(
            grid3, sb.eval_jet_all(sb.zero_function(basis3), grid3))
        assert norms == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pruned_hessian_norm_is_exact(self, n):
        # bit-for-bit the maximum of |eigvalsh| over every node
        grid = sb.build_grid(n, 16)
        basis = sb.build_basis(n, 8)
        rng = np.random.default_rng(30 + n)

        def check(hess):
            want = float(np.max(np.abs(np.linalg.eigvalsh(hess))))
            assert sb._hessian_norm(hess) == want

        for degrees in ((2,), (3,), (4,), (2, 3, 4), tuple(range(9))):
            for _ in range(6):
                a = np.zeros(basis.size)
                for d in degrees:
                    block = basis.degree_block(d)
                    a[block] = rng.standard_normal(len(block))
                a *= 10.0 ** rng.uniform(-8, 2)
                check(sb.eval_jet_all(sb.from_coeffs(basis, a), grid)[2])
        N = grid.node_count
        check(np.zeros((N, n, n)))
        B = rng.standard_normal((n, n))
        check(np.broadcast_to(B + B.T, (N, n, n)).copy())
        spike = np.zeros((N, n, n))
        spike[N // 3] = B + B.T
        check(spike)
        spike[N // 3] = np.diag(np.arange(1.0, n + 1))
        check(spike)

    def test_non_finite_jet_rejected(self, grid3):
        # eigvalsh of a zero matrix with NaN at [0, 0] returns 0, so a NaN
        # Hessian could report a finite norm
        N = grid3.node_count
        jet = (np.zeros(N), np.zeros((N, 3)), np.zeros((N, 3, 3)))
        for arr in jet:
            arr.flat[0] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                sb.sobolev_norms(grid3, jet)
            arr.flat[0] = 0.0

    def test_laplacian_coefficients(self, grid3, basis3):
        rng = np.random.default_rng(13)
        u = sb.from_coeffs(basis3, rng.standard_normal(basis3.size))
        _, _, hess = sb.eval_jet_all(u, grid3)
        lap_vals = sb.values_on_grid(oracles.laplacian(u), grid3)
        assert np.allclose(np.trace(hess, axis1=1, axis2=2), lap_vals,
                           atol=1e-9)

    def test_poincare_inequality(self, grid3, basis3):
        rng = np.random.default_rng(17)
        low = basis3.degree_block(0).tolist() + basis3.degree_block(1).tolist()
        for _ in range(20):
            a = rng.standard_normal(basis3.size)
            a[low] = 0.0
            u = sb.from_coeffs(basis3, a)
            norms = sb.sobolev_norms(grid3, sb.eval_jet_all(u, grid3))
            assert norms.grad_l2**2 >= 2 * 4 * norms.l2**2 * (1 - 1e-12)

    def test_poincare_equality_on_degree_two(self, grid3, basis3):
        rng = np.random.default_rng(19)
        a = np.zeros(basis3.size)
        block = basis3.degree_block(2)
        a[block] = rng.standard_normal(len(block))
        u = sb.from_coeffs(basis3, a)
        norms = sb.sobolev_norms(grid3, sb.eval_jet_all(u, grid3))
        assert norms.grad_l2**2 == pytest.approx(8 * norms.l2**2, rel=1e-10)

    def test_hessian_trace_integral_vanishes(self, grid3, basis3):
        rng = np.random.default_rng(23)
        u = sb.from_coeffs(basis3, rng.standard_normal(basis3.size))
        _, _, hess = sb.eval_jet_all(u, grid3)
        total = grid3.integrate(np.trace(hess, axis1=1, axis2=2))
        assert abs(total) < 1e-10 * oracles.coeff_norm(u)

    def test_degree_energies(self, basis3):
        a = np.zeros(basis3.size)
        a[0] = 2.0
        a[basis3.degree_block(3)[1]] = 1.5
        u = sb.from_coeffs(basis3, a)
        e = oracles.degree_energies(u)
        assert e[0] == pytest.approx(4.0)
        assert e[3] == pytest.approx(2.25)
        assert np.sum(e) == pytest.approx(oracles.coeff_norm(u)**2)


class TestSetUpMatchesLoops:
    """Vectorized set-up against the per-monomial and per-node loops."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tables_and_basis(self, n):
        for d_max in range(2, 9):
            table = sb.MonomialTable(n + 1, d_max)
            exps, slices = exponents_oracle(n + 1, d_max)
            assert np.array_equal(table.exponents, exps)
            assert table.degree_slices == slices
            assert np.array_equal(oracles.sphere_integrals(table),
                                  sphere_integrals_oracle(table))
            # each index map against the sparse matrix it replaced, on
            # random coefficients, bit for bit
            c = np.random.default_rng(d_max).standard_normal(table.size)
            for j in range(n + 1):
                assert np.array_equal(apply_map(table.diff_maps[j], c),
                                      diff_matrix_oracle(table, j) @ c)
            cols = [c] + [diff_matrix_oracle(table, j) @ c
                          for j in range(n + 1)]
            for j, k in table.jet_pairs:
                want = second_diff_oracle(table, j, k) @ c
                assert np.array_equal(
                    apply_map(table.second_diff_maps[j, k], c), want)
                cols.append(want)
            jet = table.jet_coefficients(c)
            assert jet.flags.c_contiguous
            assert np.array_equal(jet, np.column_stack(cols))
            for d in range(2, d_max + 1):
                assert np.array_equal(sb._laplacian_matrix(table, d),
                                      laplacian_matrix_oracle(table, d))
                assert np.array_equal(sb._pair_integrals(table, d),
                                      pair_integrals_oracle(n + 1, d))
            basis = sb.build_basis(n, d_max)
            coeffs, degrees = basis_oracle(n, d_max)
            assert np.array_equal(basis.coeffs, coeffs)
            assert np.array_equal(basis.degrees, degrees)
            assert basis.degrees.dtype == degrees.dtype

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_basis_near_scipy_construction(self, n):
        # numpy's SVD, Cholesky and forward substitution round differently
        # from scipy's null_space, cholesky and solve_triangular
        basis = sb.build_basis(n, 8)
        for d in range(2, 9):
            want = scipy_basis_oracle(basis.table, d)
            got = basis.coeffs[basis.degree_block(d)][
                :, basis.table.degree_slices[d]].T
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_vandermonde(self, n):
        # node blocks of NODE_BLOCK, the last one partial
        rng = np.random.default_rng(n)
        x = rng.standard_normal((2 * sb.NODE_BLOCK + 37, n + 1))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        for d_max in (1, 4, 8):
            table = sb.MonomialTable(n + 1, d_max)
            got = oracles.vandermonde(table, x)
            assert got.flags.c_contiguous
            assert np.array_equal(got, vandermonde_oracle(table, x))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_grids(self, n):
        # resolutions 2d..2d+8 for basis degrees d = 2..8
        for res in range(4, 25):
            grid = sb.build_grid(n, res)
            assert np.array_equal(grid.frames, frames_oracle(grid.nodes))

    @given(m=st.sampled_from([3, 4, 5]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_frames_with_pivot_ties(self, m, data):
        # small integer vectors tie |x_i| = |x_j| often, including at the
        # maximum that picks the skipped axis
        rows = data.draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=m, max_size=m).filter(any),
            min_size=1, max_size=40))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        nodes = np.vstack([np.array(rows, dtype=float),
                           rng.standard_normal((8, m))])
        nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
        assert np.array_equal(sb._build_frames(nodes), frames_oracle(nodes))
