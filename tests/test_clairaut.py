import math

import numpy as np
import pytest

from geofermat import (ChartExitError, ConnectOptions, SolveError, SurfacePoint,
                       UndefinedRatioError, WeightDomainError, WeightTriple,
                       branch_report, law_of_sines_diameter, make_surface,
                       predict_clairaut_constants, rotate_tree_experiment,
                       sector_angles_from_weights, shoot,
                       sphere_sine_ratio_probe, triangle_cosine)
from geofermat.clairaut import BranchConstants, alpha1_window

TWO_PI = 2.0 * math.pi


class TestTriangleCosine:
    def test_values(self):
        assert triangle_cosine(1, 1, 1) == 0.5
        assert triangle_cosine(3, 4, 5) == 0.0

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            triangle_cosine(0.0, 1.0, 1.0)

    def test_duality_with_sector_angles(self):
        rng = np.random.default_rng(9)
        count = 0
        while count < 100:
            b = rng.uniform(0.2, 3.0, 3)
            if not (b[0] < b[1] + b[2] and b[1] < b[0] + b[2]
                    and b[2] < b[0] + b[1]):
                continue
            phi = sector_angles_from_weights(tuple(b))
            for ang, (i, j, k) in zip(phi, ((0, 1, 2), (1, 2, 0), (2, 0, 1))):
                assert abs(math.cos(ang)
                           + triangle_cosine(b[i], b[j], b[k])) <= 1e-12
            count += 1


class TestPredictedConstants:
    def test_equal_weights_100_degrees(self):
        pc = predict_clairaut_constants((1, 1, 1), math.radians(100), 1.0)
        assert math.degrees(pc.alpha2) == pytest.approx(160.0, abs=1e-10)
        assert math.degrees(pc.alpha3) == pytest.approx(40.0, abs=1e-10)
        ratio2 = pc.c2 / pc.c1
        ratio3 = pc.c3 / pc.c1
        w = 0.5
        disc = abs(math.tan(math.radians(100))) * math.sqrt(1 - w * w)
        assert ratio2 == pytest.approx(w + disc, abs=1e-12)
        assert ratio3 == pytest.approx(w - disc, abs=1e-12)
        # the published closed form prints the minus root for the first
        # ratio; the angular relations select the plus root here
        assert pc.c2_root == "plus"
        assert not pc.printed_sign_ok_c2
        assert pc.c3_root == "minus"
        assert pc.printed_sign_ok_c3
        assert pc.c2_match_err <= 1e-12 and pc.c3_match_err <= 1e-12

    def test_alpha1_near_pi(self):
        pc = predict_clairaut_constants((1, 1, 1), math.pi - 1e-9, 2.5)
        assert pc.c1 == pytest.approx(-2.5, abs=1e-12)

    def test_singular_and_out_of_window(self):
        with pytest.raises(ValueError):
            predict_clairaut_constants((1, 1, 1), math.pi / 2, 1.0)
        with pytest.raises(ValueError):
            predict_clairaut_constants((1, 1, 1), 0.3, 1.0)

    def test_345_weights_bracket(self):
        pc = predict_clairaut_constants((3, 4, 5), math.radians(95), 2.0)
        for roots, ratio in ((pc.c2_roots, pc.c2 / pc.c1),
                             (pc.c3_roots, pc.c3 / pc.c1)):
            matches = [r for r in roots if abs(r - ratio) <= 1e-12]
            assert len(matches) == 1
            assert min(roots) <= ratio <= max(roots)

    def test_window_equal_weights(self):
        lo, hi = alpha1_window((1, 1, 1))
        assert lo == pytest.approx(math.pi / 2)
        assert hi == pytest.approx(TWO_PI / 3)


class TestDiameter:
    def test_equal_weights_discrepancy(self):
        check = law_of_sines_diameter((1, 1, 1))
        assert check.d_corrected == pytest.approx(2.0 / math.sqrt(3.0),
                                                  abs=1e-15)
        assert check.d_printed == pytest.approx(2.0, abs=1e-15)
        assert not check.printed_matches
        assert check.per_branch == pytest.approx((2.0 / math.sqrt(3.0),) * 3,
                                                 abs=1e-14)

    def test_right_triangle(self):
        check = law_of_sines_diameter((3, 4, 5))
        assert check.d_corrected == pytest.approx(5.0, rel=1e-14)
        assert check.per_branch == pytest.approx((5.0,) * 3, rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(WeightDomainError):
            law_of_sines_diameter((1, 1, 2))

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_scales_with_the_weights(self, k):
        """Weights times ``2**k`` give lengths exactly ``2**k`` times as
        long, and the printed value, of degree 3/2 in the weights,
        ``2**(3 k / 2)`` times, where a float holds it."""
        b = (1.2, 1.0, 1.1)
        want = law_of_sines_diameter(b)
        got = law_of_sines_diameter(tuple(math.ldexp(bi, k) for bi in b))
        assert got.d_corrected == math.ldexp(want.d_corrected, k)
        assert got.per_branch == tuple(math.ldexp(d, k)
                                       for d in want.per_branch)
        if abs(k) < 1000:
            assert got.d_printed == math.ldexp(want.d_printed, 3 * k // 2)
        else:
            assert got.d_printed == (math.inf if k > 0 else 0.0)


class TestWeightScale:
    @pytest.mark.parametrize("b", [(1e-300, 1e-300, 1.0),
                                   (5e-324, 1.0, 1.0)])
    def test_weight_too_small_is_the_vertex_regime(self, b):
        """A weight so small against the largest that its product with
        another underflows to 0 is the vertex regime, not a division by
        zero."""
        with pytest.raises(WeightDomainError, match="vertex regime"):
            sector_angles_from_weights(b)
        with pytest.raises(WeightDomainError):
            law_of_sines_diameter(b)

    @pytest.mark.parametrize("k", [-1020, -1000, 1000])
    def test_ratios_do_not_depend_on_the_scale(self, k):
        """Sector angles, normalized weights and the prediction are the
        same, bit for bit, for the weights times ``2**k``."""
        b = (1.2, 1.0, 1.1)
        scaled = tuple(math.ldexp(bi, k) for bi in b)
        assert sector_angles_from_weights(scaled) == (
            sector_angles_from_weights(b))
        assert WeightTriple(*scaled).normalized() == WeightTriple(
            *b).normalized()
        assert (predict_clairaut_constants(scaled, 1.9, 0.8)
                == predict_clairaut_constants(b, 1.9, 0.8))


class TestBranchReport:
    def test_launch_constants_match_paths(self, paraboloid):
        center = SurfacePoint(1.0, 0.0)
        headings = [math.radians(a) for a in (100.0, 220.0, 340.0)]
        paths = [shoot(paraboloid, center, th, 0.4) for th in headings]
        rep = branch_report(paraboloid, center, paths, (1, 1, 1))
        assert rep.rho0 == pytest.approx(1.0)
        for br, th, path in zip(rep.branches, headings, paths):
            assert br.c_cos == pytest.approx(math.cos(th), abs=1e-15)
            assert abs(br.c_cos - path.c_nominal) <= max(path.c_drift, 1e-15)
            assert abs(abs(br.c_cos) - abs(br.c_sin)) <= 1e-12

    def test_parallel_and_meridian_branches(self, paraboloid):
        center = SurfacePoint(1.0, 0.0)
        paths = [shoot(paraboloid, center, th, 0.3)
                 for th in (0.0, math.pi / 2, 3.5)]
        rep = branch_report(paraboloid, center, paths, (1, 1, 1))
        assert rep.branches[0].c_cos == pytest.approx(rep.rho0)
        assert abs(rep.branches[1].c_cos) <= 1e-15

    def test_clockwise_planted_tree_prediction(self, catenoid):
        b = (1.2, 1.0, 1.1)
        phi = sector_angles_from_weights(b)
        theta1 = math.radians(100.0)
        headings = (theta1, theta1 - phi[0], theta1 - phi[0] - phi[1])
        center = SurfacePoint(0.2, 0.3)
        paths = [shoot(catenoid, center, th, L)
                 for th, L in zip(headings, (0.3, 0.4, 0.35))]
        rep = branch_report(catenoid, center, paths, b)
        assert rep.orientation == "clockwise"
        assert rep.predicted is not None
        assert rep.predicted.alpha1 == pytest.approx(theta1, abs=1e-12)
        assert max(rep.predicted_deviation) <= 1e-9
        # branch 1 keeps its sign; branches 2 and 3 flip between the
        # departure frame and the classical layout
        assert rep.measured_layout_frame[0] == pytest.approx(
            rep.branches[0].c_cos, abs=1e-12)
        assert rep.measured_layout_frame[1] == pytest.approx(
            -rep.branches[1].c_cos, abs=1e-12)
        assert rep.measured_layout_frame[2] == pytest.approx(
            -rep.branches[2].c_cos, abs=1e-12)

    def test_window_violation_noted(self, paraboloid):
        center = SurfacePoint(1.0, 0.0)
        headings = [math.radians(a) for a in (10.0, 130.0, 250.0)]
        paths = [shoot(paraboloid, center, th, 0.3) for th in headings]
        rep = branch_report(paraboloid, center, paths, (1, 1, 1))
        assert rep.predicted is None
        assert "window" in rep.predicted_note

    def test_unanchored_branch_rejected(self, paraboloid):
        center = SurfacePoint(1.0, 0.0)
        good = [shoot(paraboloid, center, th, 0.3) for th in (0.5, 2.5)]
        stray = shoot(paraboloid, SurfacePoint(1.3, 0.4), 1.0, 0.3)
        # the offset is measured on the branches, so it is a numerical
        # failure (exit 2 in the CLI), not a configuration error
        with pytest.raises(SolveError, match="does not depart"):
            branch_report(paraboloid, center, good + [stray], (1, 1, 1))


class TestSphereProbe:
    def test_proportional_construction(self, sphere):
        center = SurfacePoint(1.2, 0.3)
        b = (2.0, 3.0, 4.0)
        kappa = 0.2
        thetas = [math.acos(kappa * bi) for bi in b]
        thetas[1] = -thetas[1]
        paths = [shoot(sphere, center, th, 0.3) for th in thetas]
        rep = branch_report(sphere, center, paths, b)
        assert rep.sphere_probe is not None
        assert max(rep.sphere_probe.deviations) <= 1e-6
        assert rep.sphere_probe.all_positive

    def test_positivity_violation_reported_not_asserted(self, sphere):
        center = SurfacePoint(1.2, 0.3)
        betas = [math.radians(x) for x in (30.0, 150.0, 270.0)]
        paths = [shoot(sphere, center, 0.5 * math.pi - be, 0.3)
                 for be in betas]
        rep = branch_report(sphere, center, paths, (1, 1, 1))
        rho0 = rep.rho0
        got = [br.c_sin / rho0 for br in rep.branches]
        assert got == pytest.approx((0.5, 0.5, -1.0), abs=1e-12)
        assert rep.sphere_probe is not None
        assert not rep.sphere_probe.all_positive

    def test_all_meridian_undefined(self, sphere):
        synth = tuple(BranchConstants(math.pi / 2, math.pi / 2, 0.0,
                                      6e-17, 0.0) for _ in range(3))
        with pytest.raises(UndefinedRatioError):
            sphere_sine_ratio_probe(sphere, synth, (1, 1, 1))

    def test_non_sphere_rejected(self, paraboloid, sphere):
        center = SurfacePoint(1.0, 0.0)
        paths = [shoot(paraboloid, center, th, 0.3) for th in (0.5, 2.5, 4.5)]
        rep = branch_report(paraboloid, center, paths, (1, 1, 1))
        assert rep.sphere_probe is None
        with pytest.raises(ValueError):
            sphere_sine_ratio_probe(paraboloid, rep.branches, (1, 1, 1))


class TestRotationExperiment:
    def test_paraboloid_protocol(self, paraboloid):
        center = SurfacePoint(1.0, 0.2)
        deltas = [math.radians(d) for d in (0.0, 15.0, 30.0)]
        exp = rotate_tree_experiment(paraboloid, center, (2, 3, 4),
                                     (0.3, 0.4, 0.5), 1.9, deltas)
        assert exp.weight_spread <= 1e-6
        rho0 = float(paraboloid.metric_terms_batch(center.u)[4])
        assert all(s > 1e-3 * rho0 for s in exp.clairaut_spread)
        # the zero rotation reproduces the base planted tree exactly
        base = [shoot(paraboloid, center, th, L).end()
                for th, L in zip((1.9, 1.9 + exp.steps[0].headings[1] - 1.9,
                                  exp.steps[0].headings[2]),
                                 (0.3, 0.4, 0.5))]
        for got, want in zip(exp.steps[0].endpoints, base):
            assert got.u == pytest.approx(want.u, abs=1e-14)
            assert got.v == pytest.approx(want.v, abs=1e-14)

    def test_shots_use_the_options_tolerance(self, paraboloid):
        """The rotated branches used to be shot at the default tolerance,
        whatever ``shoot_tol`` the connect options gave."""
        center = SurfacePoint(1.0, 0.2)
        exp = rotate_tree_experiment(paraboloid, center, (2, 3, 4),
                                     (0.3, 0.4, 0.5), 1.9, [0.0],
                                     ConnectOptions(shoot_tol=1e-5))
        step = exp.steps[0]
        for th, L, got in zip(step.headings, (0.3, 0.4, 0.5),
                              step.endpoints):
            assert got == shoot(paraboloid, center, th, L, 1e-5).end()
            assert got != shoot(paraboloid, center, th, L).end()

    def test_sphere_protocol(self, sphere):
        center = SurfacePoint(1.2, 0.5)
        deltas = [math.radians(d) for d in (0.0, 25.0, 50.0)]
        exp = rotate_tree_experiment(sphere, center, (2, 3, 4),
                                     (0.3, 0.4, 0.5), 0.7, deltas)
        assert exp.weight_spread <= 1e-6
        for step in exp.steps:
            assert len(step.clairaut) == 3

    def test_chart_exit_propagates(self):
        surface = make_surface("paraboloid", a=1.0, u_max=1.4)
        with pytest.raises(ChartExitError):
            rotate_tree_experiment(surface, SurfacePoint(1.0, 0.0),
                                   (2, 3, 4), (1.2, 1.2, 1.2), 1.5,
                                   [0.0, 0.3])

    def test_invalid_lengths(self, paraboloid):
        with pytest.raises(ValueError):
            rotate_tree_experiment(paraboloid, SurfacePoint(1.0, 0.0),
                                   (2, 3, 4), (0.3, -0.1, 0.5), 0.0, [0.0])

    def test_no_rotations_rejected(self, paraboloid):
        """An empty rotation list used to fail in the spread with
        ``max() arg is an empty sequence``."""
        with pytest.raises(ValueError, match="at least one rotation"):
            rotate_tree_experiment(paraboloid, SurfacePoint(1.0, 0.0),
                                   (2, 3, 4), (0.3, 0.4, 0.5), 0.0, [])
