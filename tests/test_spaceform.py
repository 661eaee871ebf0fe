"""Tests for the space-form primitives and weight functions."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import oracles
from sfi import cli
from sfi.spaceform import (
    SpaceForm,
    WeightFunction,
    check_weight,
    default_weight_set,
    unit_sphere_area,
)

ALL_K = [-1, 0, 1]


def make(K, n=3):
    return SpaceForm(K=K, n=n)


class TestSphereArea:
    def test_known_values(self):
        assert unit_sphere_area(1) == pytest.approx(2 * math.pi)
        assert unit_sphere_area(2) == pytest.approx(4 * math.pi)
        assert unit_sphere_area(3) == pytest.approx(2 * math.pi**2)
        assert unit_sphere_area(4) == pytest.approx(8 * math.pi**2 / 3)

    def test_property(self):
        sf = make(0, n=4)
        assert sf.sphere_area == pytest.approx(unit_sphere_area(4))


class TestPhi:
    @pytest.mark.parametrize("K", ALL_K)
    def test_origin_values(self, K):
        sf = make(K)
        assert sf.phi(0.0) == 0.0
        assert sf.dphi(0.0) == 1.0
        assert sf.warp(0.0) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("K", ALL_K)
    def test_structure_identity(self, K):
        sf = make(K)
        r = np.linspace(0.01, 2.5 if K != 1 else 3.0, 40)
        assert np.allclose(sf.dphi(r) ** 2 + K * sf.phi(r) ** 2, 1.0, atol=1e-14)

    @pytest.mark.parametrize("K", ALL_K)
    def test_Phi_primitive_of_phi(self, K):
        sf = make(K)
        for r in [0.3, 0.9, 1.7]:
            val, _ = quad(sf.phi, 0.0, r)
            assert sf.warp(r)[2] == pytest.approx(val, abs=1e-12)

    def test_flat_closed_forms(self):
        sf = make(0)
        r = np.array([0.2, 1.0, 3.7])
        assert np.allclose(sf.phi(r), r)
        assert np.allclose(sf.dphi(r), 1.0)
        assert np.allclose(sf.warp(r)[2], r**2 / 2)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            make(1).phi(3.5)
        with pytest.raises(ValueError):
            make(-1).phi(-0.1)
        make(-1).phi(25.0)

    def test_r_max(self):
        assert make(1).r_max == pytest.approx(math.pi)
        assert make(0).r_max == math.inf
        assert make(-1).r_max == math.inf

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SpaceForm(K=2, n=3)
        with pytest.raises(ValueError):
            SpaceForm(K=0, n=1)

    def test_warp(self):
        sf = make(-1)
        ph, dph, Ph = sf.warp(0.8)
        assert ph == pytest.approx(math.sinh(0.8))
        assert dph == pytest.approx(math.cosh(0.8))
        assert Ph == pytest.approx(math.cosh(0.8) - 1.0)

    @pytest.mark.parametrize("K", ALL_K)
    def test_warp_is_phi_dphi_and_closed_form_Phi_bit_for_bit(self, K):
        sf = make(K)
        r = np.linspace(0.0, 3.0, 301)
        ph, dph, Ph = sf.warp(r)
        assert np.array_equal(ph, sf.phi(r))
        assert np.array_equal(dph, sf.dphi(r))
        closed = {-1: np.cosh(r) - 1.0, 0: 0.5 * r * r, 1: 1.0 - np.cos(r)}
        assert np.array_equal(Ph, closed[K])
        with pytest.raises(ValueError, match="radius out of range"):
            sf.warp(-0.1)


class TestVolumePrimitive:
    @pytest.mark.parametrize("K", ALL_K)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_against_quadrature(self, K, n):
        sf = SpaceForm(K=K, n=n)
        for r in [0.15, 0.8, 1.9]:
            val, _ = quad(lambda t: sf.phi(t) ** n, 0.0, r)
            assert sf.volume_primitive(r) == pytest.approx(
                val, rel=1e-12, abs=1e-14)

    def test_flat_ball_volume(self):
        sf = SpaceForm(K=0, n=2)
        rho = 1.3
        vol = unit_sphere_area(2) * sf.volume_primitive(rho)
        assert vol == pytest.approx(4 * math.pi * rho**3 / 3)

    @given(r=st.floats(0.05, 2.8), K=st.sampled_from(ALL_K))
    @settings(max_examples=25, deadline=None)
    def test_derivative_is_phi_power(self, r, K):
        sf = SpaceForm(K=K, n=5)
        h = 1e-6
        fd = (sf.volume_primitive(r + h) - sf.volume_primitive(r - h)) / (2 * h)
        assert fd == pytest.approx(sf.phi(r) ** 5, rel=1e-7, abs=1e-9)


class TestScalarRadii:
    """A float and an np.float64 take a plain-comparison domain check and
    stay scalars, with the values an array gets; the ball-radius solves
    evaluate phi, dphi, warp and volume_primitive at float radii."""

    RADII = [0.0, 1e-300, 1e-7, 0.37, 0.9, 1.9, 3.1, np.nan] \
        + list(np.random.default_rng(7).uniform(0.0, 3.1, 200))

    @staticmethod
    def functions(sf):
        return (sf.phi, sf.dphi, sf.warp, sf.volume_primitive)

    @staticmethod
    def bits(out):
        return np.asarray(out, dtype=float).ravel().tobytes()

    @pytest.mark.parametrize("K", ALL_K)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_input_type_gives_the_same_bits(self, K, n):
        sf = SpaceForm(K=K, n=n)
        for fn in self.functions(sf):
            for r in self.RADII:
                # a 0-d array is how every float was checked before
                outs = {self.bits(fn(x))
                        for x in (float(r), np.float64(r), np.asarray(r))}
                assert len(outs) == 1, (fn.__name__, r)
                assert self.bits(fn(np.array([r]))) in outs, (fn.__name__, r)
        for x in (0.5, np.float64(0.5)):
            for out in (sf.phi(x), sf.dphi(x), *sf.warp(x),
                        sf.volume_primitive(x)):
                assert type(out) is np.float64

    @pytest.mark.parametrize("K", ALL_K)
    def test_every_input_type_meets_the_same_domain(self, K):
        sf = make(K)
        for fn in self.functions(sf):
            for r in (-0.1, -1e-300, sf.r_max):
                for x in (float(r), np.float64(r), np.array([r])):
                    with pytest.raises(ValueError,
                                       match="radius out of range"):
                        fn(x)
            for x in (float("nan"), np.float64(np.nan), np.array([np.nan])):
                fn(x)


class TestWeightFunction:
    def fd_check(self, w, s_vals):
        h = 1e-5
        for s in s_vals:
            for order in (1, 2):
                fd = (w.deriv(s + h, order - 1) - w.deriv(s - h, order - 1)) / (2 * h)
                assert w.deriv(s, order) == pytest.approx(fd, rel=5e-9, abs=5e-9)

    def test_constant(self):
        w = WeightFunction.constant(2.5)
        assert w(3.0) == 2.5
        assert w.deriv(3.0, 1) == 0.0
        assert w.deriv(3.0, 2) == 0.0
        with pytest.raises(ValueError, match="order must be 0..2"):
            w.deriv(3.0, 3)

    def test_power_and_affine(self):
        s_vals = [0.3, 1.1, 2.2]
        self.fd_check(WeightFunction.power(1.0), s_vals)
        self.fd_check(WeightFunction.power(2.0), s_vals)
        self.fd_check(WeightFunction.affine(), s_vals)
        self.fd_check(WeightFunction.shifted_power(2.0), s_vals)
        self.fd_check(WeightFunction.shifted_power(1.5), s_vals)

    def test_power_values(self):
        w = WeightFunction.power(2.0)
        assert w(1.5) == pytest.approx(2.25)
        assert w.deriv(1.5, 1) == pytest.approx(3.0)
        assert w.deriv(1.5, 2) == pytest.approx(2.0)

    def test_power_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            WeightFunction.power(0.5)

    def test_scaled(self):
        w = WeightFunction.affine().scaled(3.0)
        assert w(2.0) == pytest.approx(9.0)
        assert w.deriv(2.0, 1) == pytest.approx(3.0)

    def test_custom_label(self):
        w = WeightFunction("custom", "lin", 1.0, shift=1.0)
        assert w.label == "lin"
        assert w(1.0) == 2.0


class TestWeightFamily:
    # (constructor, oracles.weight_closures arguments)
    WEIGHTS = [
        (WeightFunction.constant(1.0), ("constant", 1.0)),
        (WeightFunction.constant(2.5), ("constant", 2.5)),
        (WeightFunction.affine(), ("affine",)),
        *[(make_w(a), (kind, a))
          for a in (1.0, 1.5, 2.0, 2.7, 3.0)
          for kind, make_w in (("power", WeightFunction.power),
                               ("shifted_power",
                                WeightFunction.shifted_power))],
        (WeightFunction.affine().scaled(0.3), ("affine", 1.0, (0.3,))),
        (WeightFunction.shifted_power(2.7).scaled(4.0),
         ("shifted_power", 2.7, (4.0,))),
    ]
    SAMPLES = [np.array([0.0]), np.geomspace(1e-12, 50.0, 2000), 0.0, 0.37,
               np.float64(1.0), 12.5]

    @staticmethod
    def bits(x):
        x = np.asarray(x)
        return x.dtype, x.shape, x.tobytes()

    @pytest.mark.parametrize("w,ref", WEIGHTS,
                             ids=[f"{w.kind}:{w.label}" for w, _ in WEIGHTS])
    def test_bit_identical_to_closures(self, w, ref):
        fs = oracles.weight_closures(*ref)
        for s in self.SAMPLES:
            a = np.asarray(s, dtype=float)
            assert self.bits(w(s)) == self.bits(fs[0](a))
            for order in (0, 1, 2):
                assert self.bits(w.deriv(s, order)) \
                    == self.bits(fs[order](a)), (s, order)

    @pytest.mark.parametrize("make_w", [
        lambda: WeightFunction.constant(2.5), WeightFunction.affine,
        lambda: WeightFunction.power(1.5),
        lambda: WeightFunction.shifted_power(2.0).scaled(0.3)],
        ids=["constant", "affine", "power", "scaled"])
    def test_equal_constructions_are_equal(self, make_w):
        a, b = make_w(), make_w()
        assert a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
        assert a != WeightFunction.power(3.0)

    def test_cases_built_from_one_config_are_equal(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[space]\nK = -1\nn = 3\nrho = 0.9\n[weight]\n"
                        "kind = shifted_power\nscale = 0.3\n"
                        "[case:main]\ntheorem = sigmak-quermass-hyperbolic\n"
                        "k = 1\nj = 0\n")

        def cases():
            sections, cases_cfg = cli.load_config(path)
            sf = cli.build_space(sections["space"])
            return cli.build_cases(cases_cfg, sf,
                                   cli.build_weight(sections["weight"]),
                                   sections["space"]["rho"])
        a, b = cases(), cases()
        assert a == b and hash(a[0][1]) == hash(b[0][1])

    def test_alpha_below_one_names_the_constructor(self):
        for make_w in (WeightFunction.power, WeightFunction.shifted_power):
            for alpha in (0.5, float("nan")):
                with pytest.raises(ValueError, match=f"^{make_w.__name__} "
                                   f"weights need alpha >= 1, got "
                                   f"{alpha:g}$"):
                    make_w(alpha)


class TestWeightFlags:
    GRID = np.linspace(0.05, 2.0, 60)

    def test_constant_flags(self):
        f = check_weight(WeightFunction.constant(1.0), self.GRID)
        assert f.positive and f.monotone and f.convex
        assert not f.hyperbolic_admissible

    def test_power_one_flags(self):
        f = check_weight(WeightFunction.power(1.0), self.GRID)
        assert f.positive and f.monotone and f.convex
        assert f.hyperbolic_admissible

    def test_affine_flags(self):
        f = check_weight(WeightFunction.affine(), self.GRID)
        assert f.positive and f.monotone and f.convex
        assert f.hyperbolic_admissible

    def test_shifted_square_flags(self):
        f = check_weight(WeightFunction.shifted_power(2.0), self.GRID)
        assert f.positive and f.monotone and f.convex
        assert f.hyperbolic_admissible

    def test_decreasing_weight(self):
        w = WeightFunction("custom", "1/(1+s)", -1.0, shift=1.0)
        f = check_weight(w, self.GRID)
        assert f.positive and not f.monotone

    def test_grid_with_zero_breaks_strict_positivity(self):
        f = check_weight(WeightFunction.power(1.0), np.linspace(0.0, 1.0, 5))
        assert not f.positive

    def test_default_set(self):
        ws = default_weight_set()
        assert len(ws) == 4
        labels = [w.label for w in ws]
        assert len(set(labels)) == 4

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            check_weight(WeightFunction.constant(1.0), np.array([]))
        with pytest.raises(ValueError):
            check_weight(WeightFunction.constant(1.0), np.array([-0.1, 0.5]))
