"""Tests for the ambient coordinate models, the row's three model
operations and the general geodesic maps kept as oracles."""

import numpy as np
import pytest

import oracles
from sfi import model
from sfi.spaceform import SpaceForm

ALL_K = [-1, 0, 1]


def random_directions(rng, count, n):
    x = rng.standard_normal((count, n + 1))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.fixture(params=ALL_K, ids=["hyp", "flat", "sph"])
def sf(request):
    return SpaceForm(K=request.param, n=3)


class TestEmbedPolar:
    def test_roundtrip(self, sf):
        rng = np.random.default_rng(11)
        x = random_directions(rng, 50, sf.n)
        r = rng.uniform(0.1, 2.0, 50)
        y = model.embed(sf, r, x)
        r2, x2 = model.polar(sf, y)
        assert np.allclose(r2, r, atol=1e-12)
        assert np.allclose(x2, x, atol=1e-12)

    def test_origin_distance(self, sf):
        rng = np.random.default_rng(5)
        x = random_directions(rng, 20, sf.n)
        r = rng.uniform(0.05, 1.8, 20)
        y = model.embed(sf, r, x)
        d = oracles.distance(sf, y, model.origin(sf))
        assert np.allclose(d, r, atol=1e-12)

    def test_on_quadric(self, sf):
        if sf.K == 0:
            return
        rng = np.random.default_rng(7)
        x = random_directions(rng, 30, sf.n)
        y = model.embed(sf, rng.uniform(0.1, 2.0, 30), x)
        if sf.K == -1:
            q = -y[:, 0] ** 2 + np.sum(y[:, 1:] ** 2, axis=1)
            assert np.allclose(q, -1.0, atol=1e-12)
        else:
            assert np.allclose(np.sum(y**2, axis=1), 1.0, atol=1e-12)


class TestExpLog:
    def test_roundtrip(self, sf):
        rng = np.random.default_rng(3)
        p = model.embed(sf, 0.7, random_directions(rng, 1, sf.n))[0]
        y = model.embed(sf, rng.uniform(0.2, 1.5, 25),
                        random_directions(rng, 25, sf.n))
        v = oracles.log_map(sf, p, y)
        back = oracles.exp_map(sf, p, v)
        assert np.allclose(back, y, atol=1e-10)

    def test_log_norm_is_distance(self, sf):
        rng = np.random.default_rng(9)
        p = model.embed(sf, 0.4, random_directions(rng, 1, sf.n))[0]
        y = model.embed(sf, rng.uniform(0.2, 1.5, 25),
                        random_directions(rng, 25, sf.n))
        v = oracles.log_map(sf, p, y)
        d = oracles.distance(sf, y, p)
        if sf.K == -1:
            norm = np.sqrt(np.maximum(
                -v[:, 0] ** 2 + np.sum(v[:, 1:] ** 2, axis=1), 0.0))
        else:
            norm = np.linalg.norm(v, axis=1)
        assert np.allclose(norm, d, atol=1e-10)

    def test_log_at_base_is_zero(self, sf):
        p = model.origin(sf)
        v = oracles.log_map(sf, p, p[None, :])
        assert np.allclose(v, 0.0, atol=1e-14)


class TestIsometry:
    # the oracle translation to the origin, which the row's closed-form
    # translation from the origin is held to below
    def test_moves_point_to_origin(self, sf):
        rng = np.random.default_rng(21)
        p = model.embed(sf, 0.9, random_directions(rng, 1, sf.n))[0]
        iso = oracles.translation_to_origin(sf, p)
        d = oracles.distance(sf, iso(p), model.origin(sf))
        assert abs(float(d)) < 1e-12

    def test_preserves_distances(self, sf):
        rng = np.random.default_rng(23)
        p = model.embed(sf, 0.6, random_directions(rng, 1, sf.n))[0]
        y = model.embed(sf, rng.uniform(0.1, 1.9, 40),
                        random_directions(rng, 40, sf.n))
        iso = oracles.translation_to_origin(sf, p)
        before = oracles.distance(sf, y[:20], y[20:])
        after = oracles.distance(sf, iso(y[:20]), iso(y[20:]))
        assert np.allclose(after, before, atol=1e-11)

    def test_inverse(self, sf):
        rng = np.random.default_rng(29)
        p = model.embed(sf, 1.1, random_directions(rng, 1, sf.n))[0]
        y = model.embed(sf, rng.uniform(0.1, 1.5, 15),
                        random_directions(rng, 15, sf.n))
        iso = oracles.translation_to_origin(sf, p)
        back = iso.inverse()(iso(y))
        assert np.allclose(back, y, atol=1e-11)

    def test_near_origin_point(self, sf):
        iso = oracles.translation_to_origin(sf, model.origin(sf))
        y = model.embed(sf, 0.5, np.eye(sf.n + 1))
        assert np.allclose(iso(y), y, atol=1e-12)


def translation_targets(sf):
    """The origin and points at distances 0.3, 1.1 and 2.0 from it."""
    rng = np.random.default_rng(43)
    return [model.origin(sf), *model.embed(
        sf, [0.3, 1.1, 2.0], random_directions(rng, 3, sf.n))]


class TestTranslationFromOrigin:
    def test_is_the_inverse_of_the_oracle(self, sf):
        # applied to the standard basis, the maps give their matrices
        # (K = +-1) or the basis plus the offset (K = 0)
        basis = np.eye(len(model.origin(sf)))
        for p in translation_targets(sf):
            want = oracles.translation_to_origin(sf, p).inverse()(basis)
            got = model.translation_from_origin(sf, p)(basis)
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_moves_origin_to_point(self, sf):
        for p in translation_targets(sf):
            moved = model.translation_from_origin(sf, p)(model.origin(sf))
            assert float(oracles.distance(sf, moved, p)) < 1e-14

    def test_preserves_distances(self, sf):
        rng = np.random.default_rng(47)
        y = model.embed(sf, rng.uniform(0.1, 1.9, 40),
                        random_directions(rng, 40, sf.n))
        before = oracles.distance(sf, y[:20], y[20:])
        for p in translation_targets(sf):
            move = model.translation_from_origin(sf, p)
            after = oracles.distance(sf, move(y[:20]), move(y[20:]))
            assert np.allclose(after, before, rtol=0, atol=1e-12)

    def test_origin_gives_the_identity(self, sf):
        y = model.embed(sf, 0.5, np.eye(sf.n + 1))
        move = model.translation_from_origin(sf, model.origin(sf))
        assert np.array_equal(move(y), y)


class TestPointAndModelVector:
    def test_round_trip(self, sf):
        rng = np.random.default_rng(53)
        c = rng.uniform(0.0, 2.0, (30, 1)) * random_directions(rng, 30, sf.n)
        c[0] = 0.0
        assert np.allclose(model.model_vector(sf, model.point(sf, c)), c,
                           rtol=0, atol=1e-14)
        assert np.array_equal(model.model_vector(sf, model.point(sf, c[0])),
                              c[0])

    def test_point_is_the_oracle_exponential_at_origin(self, sf):
        rng = np.random.default_rng(59)
        c = rng.uniform(0.0, 2.0, (30, 1)) * random_directions(rng, 30, sf.n)
        c[0] = 0.0
        want = oracles.exp_map(sf, model.origin(sf),
                               oracles.origin_tangent(sf, c))
        assert np.allclose(model.point(sf, c), want, rtol=0, atol=1e-14)

    def test_model_vector_is_the_oracle_logarithm_at_origin(self, sf):
        rng = np.random.default_rng(61)
        y = model.embed(sf, rng.uniform(0.0, 2.0, 30),
                        random_directions(rng, 30, sf.n))
        want = oracles.log_map(sf, model.origin(sf), y)
        assert np.allclose(model.model_vector(sf, y),
                           want if sf.K == 0 else want[:, 1:],
                           rtol=0, atol=1e-13)


class TestBallProfile:
    def test_centered_ball(self, sf):
        rng = np.random.default_rng(31)
        x = random_directions(rng, 20, sf.n)
        R = oracles.ball_radial_profile(sf, np.zeros(sf.n + 1), 0.9, x)
        assert np.allclose(R, 0.9, atol=1e-12)

    def test_profile_lies_on_sphere(self, sf):
        rng = np.random.default_rng(37)
        x = random_directions(rng, 60, sf.n)
        c = np.array([0.08, -0.05, 0.03, 0.02])
        rho_bar = 0.85
        R = oracles.ball_radial_profile(sf, c, rho_bar, x)
        assert np.all(np.isfinite(R))
        assert np.all(R > 0)
        y = model.embed(sf, R, x)
        center = oracles.exp_map(sf, model.origin(sf),
                                 oracles.origin_tangent(sf, c))
        d = oracles.distance(sf, y, center)
        assert np.allclose(d, rho_bar, atol=1e-10)

    def test_flat_profile_exact(self):
        sf = SpaceForm(K=0, n=3)
        rng = np.random.default_rng(41)
        x = random_directions(rng, 30, sf.n)
        c = np.array([0.1, 0.0, -0.06, 0.02])
        R = oracles.ball_radial_profile(sf, c, 1.2, x)
        assert np.allclose(np.linalg.norm(R[:, None] * x - c, axis=1), 1.2,
                           atol=1e-12)


class TestOriginTangent:
    def test_embedding_of_model_vector(self, sf):
        c = np.array([0.2, -0.1, 0.05, 0.0])
        v = oracles.origin_tangent(sf, c)
        p = oracles.exp_map(sf, model.origin(sf), v)
        d = oracles.distance(sf, p, model.origin(sf))
        assert float(d) == pytest.approx(np.linalg.norm(c), abs=1e-12)
