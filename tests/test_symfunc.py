"""Tests for elementary symmetric functions and Newton tensors: the
oracles, and symfunc.hessian_invariants against them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from sfi import symfunc as sy


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def batch_sigma(mats):
    mats = np.asarray(mats)
    return sy.hessian_invariants(mats, np.zeros(mats.shape[:-1]))[0]


def batch_newton_tensor(mats, k):
    """T_k of each matrix, polarized from the invariants' quadratic forms
    Q_k(v) = v^T T_k v at v = e_i and e_i + e_j."""
    mats = np.asarray(mats)
    n = mats.shape[-1]
    eye = np.eye(n)
    vs = (eye[:, None, :] + eye[None, :, :]).reshape(n * n, n)
    quad = sy.hessian_invariants(
        np.repeat(mats[:, None], n * n, axis=1),
        np.broadcast_to(vs, (len(mats), n * n, n)))[1][..., k]
    quad = quad.reshape(len(mats), n, n)
    diag = np.einsum("...ii->...i", quad) / 4.0
    return 0.5 * (quad - diag[:, :, None] - diag[:, None, :])


def batch_quadratic(mats, vs, k):
    return sy.hessian_invariants(mats, vs)[1][..., k]


class TestSigma:
    def test_diag_example(self):
        sig = oracles.sigma_all(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(sig, [1.0, 6.0, 11.0, 6.0], atol=1e-12)

    def test_identity_binomials(self):
        sig = oracles.sigma_all(np.eye(4))
        expected = [math.comb(4, k) for k in range(5)]
        assert np.allclose(sig, expected, atol=1e-12)

    def test_zero_matrix(self):
        sig = oracles.sigma_all(np.zeros((3, 3)))
        assert np.allclose(sig, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_minor_sum_oracle(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            a = random_symmetric(rng, n)
            sig = oracles.sigma_all(a)
            for k in range(n + 1):
                assert sig[k] == pytest.approx(oracles.sigma_minor_sum(a, k),
                                               rel=1e-10, abs=1e-10)

    @given(c=st.floats(-3.0, 3.0), seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, c, seed):
        a = random_symmetric(np.random.default_rng(seed), 3)
        sig = oracles.sigma_all(a)
        scaled = oracles.sigma_all(c * a)
        for k in range(4):
            assert scaled[k] == pytest.approx(c**k * sig[k], rel=1e-10,
                                              abs=1e-10)

    def test_generating_function(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 4)
        sig = oracles.sigma_all(a)
        for t in rng.uniform(-2.0, 2.0, 20):
            lhs = float(np.polyval(sig[::-1], t))
            rhs = float(np.linalg.det(np.eye(4) + t * a))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        mats = np.array([random_symmetric(rng, 3) for _ in range(6)])
        batch = batch_sigma(mats)
        for i in range(6):
            assert np.allclose(batch[i], oracles.sigma_all(mats[i]), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_batch_matches_oracles(self, n):
        # the eigenvalue-free recursion against the eigenvalue route and the
        # minor sums: near-scalar matrices kappa0 I + delta B, whose
        # eigenvalues nearly coincide, at rel 1e-13, and random matrices,
        # whose sigma_k can cancel to near zero, at 1e-13 |A|^k absolute
        rng = np.random.default_rng(31 + n)
        near = [kappa0 * np.eye(n) + delta * random_symmetric(rng, n)
                for kappa0 in (1.3, -0.7)
                for delta in 10.0 ** -np.arange(2, 13)]
        rand = [random_symmetric(rng, n) for _ in range(8)]
        batch = batch_sigma(np.array(near + rand))
        for i, (a, sig) in enumerate(zip(near + rand, batch)):
            scale = float(np.max(np.abs(a)))
            for k in range(n + 1):
                tol = {"rel": 1e-13} if i < len(near) \
                    else {"rel": 0.0, "abs": 1e-13 * max(1.0, scale) ** k}
                assert sig[k] == pytest.approx(oracles.sigma_all(a)[k], **tol)
                assert sig[k] == pytest.approx(oracles.sigma_minor_sum(a, k),
                                               **tol)


class TestNewton:
    def test_T0_identity(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(rng, 3)
        T0 = oracles.newton_tensor(a, 0)
        assert np.allclose(T0, np.eye(3), atol=1e-15)

    def test_diag_example(self):
        T1 = oracles.newton_tensor(np.diag([1.0, 2.0, 3.0]), 1)
        assert np.allclose(T1, np.diag([5.0, 4.0, 3.0]), atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(13)
        for n in (3, 4):
            a = random_symmetric(rng, n)
            sig = oracles.sigma_all(a)
            for k in range(n):
                Tk = oracles.newton_tensor(a, k)
                assert np.trace(Tk) == pytest.approx((n - k) * sig[k],
                                                         rel=1e-10, abs=1e-10)

    def test_derivative_oracle(self):
        rng = np.random.default_rng(17)
        n = 4
        a = random_symmetric(rng, n)
        h = 1e-6
        for k in range(n):
            Tk = oracles.newton_tensor(a, k)
            fd = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    e = np.zeros((n, n))
                    e[i, j] = h
                    fd[i, j] = (oracles.sigma_minor_sum(a + e, k + 1)
                                - oracles.sigma_minor_sum(a - e, k + 1)) / (2 * h)
            assert np.allclose(fd, Tk, atol=1e-6)

    def test_out_of_range(self):
        a = np.eye(3)
        with pytest.raises(ValueError):
            oracles.newton_tensor(a, 3)
        with pytest.raises(ValueError):
            oracles.newton_tensor(a, -1)
        # the invariants stop at Q_{n-1}: T_n vanishes by Cayley-Hamilton
        assert sy.hessian_invariants(a[None], np.ones((1, 3)))[1].shape \
            == (1, 3)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(19)
        mats = np.array([random_symmetric(rng, 3) for _ in range(5)])
        for k in range(3):
            batch = batch_newton_tensor(mats, k)
            for i in range(5):
                assert np.allclose(batch[i], oracles.newton_tensor(mats[i], k),
                                   atol=1e-11)


class TestNewtonQuadratic:
    def test_T0_norm(self):
        v = np.array([1.0, -2.0, 0.5])
        rng = np.random.default_rng(3)
        assert batch_quadratic(random_symmetric(rng, 3), v, 0) \
            == pytest.approx(v @ v)

    def test_diag_example(self):
        assert batch_quadratic(np.diag([1.0, 2.0, 3.0]), np.eye(3)[0], 1) \
            == pytest.approx(5.0)

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(23)
        a = random_symmetric(rng, 4)
        v = rng.standard_normal(4)
        T2 = oracles.newton_tensor(a, 2)
        total = 0.0
        for i in range(4):
            for j in range(4):
                total += v[i] * T2[i, j] * v[j]
        assert batch_quadratic(a, v, 2) == pytest.approx(total, abs=1e-12)

    def test_batch(self):
        rng = np.random.default_rng(29)
        mats = np.array([random_symmetric(rng, 3) for _ in range(4)])
        vs = rng.standard_normal((4, 3))
        out = batch_quadratic(mats, vs, 1)
        for i in range(4):
            T1 = oracles.newton_tensor(mats[i], 1)
            assert out[i] == pytest.approx(vs[i] @ T1 @ vs[i], abs=1e-12)


class TestLayout:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_node_minor_inputs_are_bit_identical(self, n):
        # the recursion runs entry by entry, so its rounding does not
        # depend on whether the node axis is first or last in memory
        rng = np.random.default_rng(31 + n)
        a = rng.standard_normal((500, n, n))
        B = a + a.swapaxes(1, 2)
        w = rng.standard_normal((500, n))
        sig, Q = sy.hessian_invariants(B, w)
        B_nm = np.ascontiguousarray(B.transpose(1, 2, 0)).transpose(2, 0, 1)
        w_nm = np.ascontiguousarray(w.T).T
        sig_nm, Q_nm = sy.hessian_invariants(B_nm, w_nm)
        assert np.array_equal(sig, sig_nm)
        assert np.array_equal(Q, Q_nm)
        # both come back as views of node-minor arrays
        assert sig.T.flags.c_contiguous and Q.T.flags.c_contiguous
        for i in range(0, 500, 97):
            assert np.allclose(sig[i], oracles.sigma_all(B[i]), rtol=1e-10,
                               atol=1e-10)
