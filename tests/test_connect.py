import math

import numpy as np
import pytest

import geofermat.connect as connect_mod
import geofermat.geodesics as geodesics_mod
from geofermat import (ConnectOptions, OffChartError, SolveError, SurfacePoint,
                       connect_geodesic, connect_geodesics, distance,
                       make_surface, shoot)
from geofermat.verify import _sphere_pair


class TestExamples:
    def test_sphere_quarter_equator(self, sphere):
        path = connect_geodesic(sphere, SurfacePoint(math.pi / 2, 0.0),
                                SurfacePoint(math.pi / 2, math.pi / 2))
        assert path.length == pytest.approx(math.pi / 2, abs=1e-10)
        assert path.theta_start == pytest.approx(0.0, abs=1e-10)

    def test_cylinder_unroll(self, cylinder):
        path = connect_geodesic(cylinder, SurfacePoint(0.0, 0.0),
                                SurfacePoint(1.0, math.pi / 2))
        assert path.length == pytest.approx(math.hypot(1.0, math.pi / 2),
                                            rel=1e-10)

    def test_cylinder_winding_wrap(self, cylinder):
        # dv = 3pi/2 on the cover; the short helix uses the wrapped pi/2
        path = connect_geodesic(cylinder, SurfacePoint(0.0, 0.0),
                                SurfacePoint(1.0, 1.5 * math.pi))
        assert path.length == pytest.approx(math.hypot(1.0, math.pi / 2),
                                            rel=1e-10)
        assert path.winding == -1

    def test_plane_law_of_cosines(self, plane):
        path = connect_geodesic(plane, SurfacePoint(1.0, 0.0),
                                SurfacePoint(2.0, math.pi / 3))
        assert path.length == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_identical_points(self, sphere):
        p = SurfacePoint(1.0, 0.3)
        assert distance(sphere, p, p) == 0.0
        path = connect_geodesic(sphere, p, p)
        assert path.length == 0.0

    def test_identical_off_chart_points_rejected(self, sphere):
        p = SurfacePoint(-1.0, 0.0)
        with pytest.raises(OffChartError):
            distance(sphere, p, p)
        with pytest.raises(OffChartError):
            connect_geodesic(sphere, p, p)

    def test_sphere_random_pairs_against_closed_form(self, sphere):
        rng = np.random.default_rng(5)
        for _ in range(25):
            A, B, sep = _sphere_pair(rng)
            length = distance(sphere, A, B)
            assert abs(length - sep) / sep <= 1e-7

    def test_unreachable_budget(self, cylinder):
        opts = ConnectOptions(max_len=0.5)
        with pytest.raises(SolveError):
            connect_geodesic(cylinder, SurfacePoint(0.0, 0.0),
                             SurfacePoint(5.0, 1.0), opts)


class TestAmbiguity:
    def test_cylinder_half_turn_tie(self, cylinder):
        # two helices of exactly equal length wind opposite ways
        path = connect_geodesic(cylinder, SurfacePoint(0.0, 0.0),
                                SurfacePoint(0.7, math.pi))
        assert path.ambiguous
        assert path.length == pytest.approx(math.hypot(0.7, math.pi),
                                            rel=1e-10)

    def test_generic_pair_not_ambiguous(self, sphere):
        path = connect_geodesic(sphere, SurfacePoint(1.2, 0.0),
                                SurfacePoint(1.4, 1.0))
        assert not path.ambiguous


class TestInvariants:
    SAMPLERS = {
        "sphere": (lambda: make_surface("sphere", radius=1.0),
                   lambda rng: _sphere_pair(rng)[:2]),
        "cylinder": (lambda: make_surface("cylinder", radius=1.0),
                     lambda rng: (
                         SurfacePoint(rng.uniform(-3, 3),
                                      rng.uniform(-math.pi, math.pi)),
                         SurfacePoint(rng.uniform(-3, 3),
                                      rng.uniform(-2.5 * math.pi,
                                                  2.5 * math.pi)))),
        "cone": (lambda: make_surface("cone", slope=0.8),
                 lambda rng: (
                     SurfacePoint(rng.uniform(0.5, 3.0), rng.uniform(-1, 1)),
                     SurfacePoint(rng.uniform(0.5, 3.0),
                                  rng.uniform(-1, 1)))),
        "paraboloid": (lambda: make_surface("paraboloid", a=1.0),
                       lambda rng: (
                           SurfacePoint(rng.uniform(0.7, 2.2),
                                        rng.uniform(-0.8, 0.8)),
                           SurfacePoint(rng.uniform(0.7, 2.2),
                                        rng.uniform(-0.8, 0.8)))),
        "catenoid": (lambda: make_surface("catenoid", a=1.0),
                     lambda rng: (
                         SurfacePoint(rng.uniform(-1.2, 1.2),
                                      rng.uniform(-1.2, 1.2)),
                         SurfacePoint(rng.uniform(-1.2, 1.2),
                                      rng.uniform(-1.2, 1.2)))),
        "torus": (lambda: make_surface("torus", R=2.0, r=0.7),
                  lambda rng: (
                      SurfacePoint(rng.uniform(-math.pi, math.pi),
                                   rng.uniform(-0.7, 0.7)),
                      SurfacePoint(rng.uniform(-math.pi, math.pi),
                                   rng.uniform(-0.7, 0.7)))),
        "plane": (lambda: make_surface("plane"),
                  lambda rng: (
                      SurfacePoint(rng.uniform(0.5, 3.0),
                                   rng.uniform(-0.6, 0.6)),
                      SurfacePoint(rng.uniform(0.5, 3.0),
                                   rng.uniform(-0.6, 0.6)))),
    }

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_symmetry_and_chord_bound(self, name):
        build, draw = self.SAMPLERS[name]
        surface = build()
        rng = np.random.default_rng(17)
        for _ in range(100):
            A, B = draw(rng)
            if A.u == B.u and A.v == B.v:
                continue
            forward = distance(surface, A, B)
            backward = distance(surface, B, A)
            assert abs(forward - backward) <= 1e-9 * max(1.0, forward)
            chord = float(np.linalg.norm(surface.embed(A)
                                         - surface.embed(B)))
            assert forward >= chord - 1e-9 * max(1.0, chord)

    @pytest.mark.parametrize("name", ["sphere", "cylinder"])
    def test_triangle_inequality(self, name):
        build, draw = self.SAMPLERS[name]
        surface = build()
        rng = np.random.default_rng(23)
        for _ in range(100):
            A, B = draw(rng)
            C, _ = draw(rng)
            ab = distance(surface, A, B)
            bc = distance(surface, B, C)
            ac = distance(surface, A, C)
            assert ac <= ab + bc + 1e-8

    def test_reversed_path_equal_length(self, paraboloid):
        rng = np.random.default_rng(31)
        for _ in range(10):
            A = SurfacePoint(rng.uniform(0.8, 1.8), rng.uniform(-0.6, 0.6))
            B = SurfacePoint(rng.uniform(0.8, 1.8), rng.uniform(-0.6, 0.6))
            path = connect_geodesic(paraboloid, A, B)
            back = shoot(paraboloid, path.end(), path.reversed_heading(),
                         path.length)
            gap = np.linalg.norm(paraboloid.embed(back.end())
                                 - paraboloid.embed(A))
            assert gap <= 1e-9 * max(1.0, path.length)

    def test_warm_start_matches_cold(self, sphere, monkeypatch):
        A = SurfacePoint(1.1, 0.2)
        B = SurfacePoint(1.5, 1.1)
        cold = connect_geodesic(sphere, A, B)
        calls = []
        real = geodesics_mod._integrate

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(geodesics_mod, "_integrate", counted)
        monkeypatch.setattr(connect_mod, "_integrate", counted, raising=False)
        warm = connect_geodesic(sphere, A, B,
                                initial=(cold.theta_start, cold.length))
        assert warm.length == pytest.approx(cold.length, abs=1e-12)
        # the converged Newton shot is the returned path, not shot again
        assert len(calls) == 1
        assert np.array_equal(warm.samples, cold.samples)

    def test_newton_makes_one_shot_per_iteration(self, sphere, monkeypatch):
        """The heading column comes from the Jacobi field of the last shot,
        so each iteration makes one shot: from a start 1e-3 off, Newton
        converges within four shots, each at a new length."""
        A, B = SurfacePoint(1.1, 0.2), SurfacePoint(1.5, 1.1)
        cold = connect_geodesic(sphere, A, B)
        shots = []
        real = connect_mod.shoot

        def counted(surface, p, theta, length, *rest):
            shots.append((theta, length))
            return real(surface, p, theta, length, *rest)

        monkeypatch.setattr(connect_mod, "shoot", counted)
        warm = connect_geodesic(sphere, A, B, initial=(
            cold.theta_start + 1e-3, cold.length - 1e-3))
        assert warm.length == pytest.approx(cold.length, abs=1e-12)
        assert len(shots) <= 4
        assert len({length for _, length in shots}) == len(shots)


class TestChartCopy:
    """A cold connect counts windings from the copy of B nearest A, so B
    given whole turns away gives the same geodesic with its winding
    shifted by those turns."""
    SURFACES = {"sphere": dict(radius=1.0), "cylinder": dict(radius=1.0),
                "torus": dict(R=2.0, r=0.7)}
    # per surface: a pair inside one turn and a pair across v = +-pi
    PAIRS = {
        "sphere": [((1.2, 0.3), (1.5, 1.0)),
                   ((2.0575125857866254, 2.932839280621671),
                    (2.1447960299637048, -2.1063221042765794))],
        "cylinder": [((0.0, 0.0), (1.0, 0.5 * math.pi)),
                     ((0.6193384289577564, 2.8080903072770056),
                      (1.4368868490089848, -1.3987718694167557))],
        "torus": [((0.3, -0.5), (-1.0, 0.6)), ((2.5, 2.9), (1.0, -2.8))],
    }

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_target_copy_invariance(self, name):
        surface = make_surface(name, **self.SURFACES[name])
        for a, b in self.PAIRS[name]:
            A, B = SurfacePoint(*a), SurfacePoint(*b)
            base = connect_geodesic(surface, A, B)
            for n in (-2, -1, 1, 2):
                far = connect_geodesic(
                    surface, A, SurfacePoint(B.u, B.v + 2 * math.pi * n))
                assert far.length == pytest.approx(base.length, abs=1e-9)
                assert far.theta_start == pytest.approx(base.theta_start,
                                                        abs=1e-9)
                assert far.winding == base.winding - n

    # cylinder pairs given across the seam on which the shortest winding
    # was once missed (the screening cutoff dropped it)
    @pytest.mark.parametrize("a, b", [
        ((0.6193384289577564, 2.8080903072770056),
         (1.4368868490089848, -1.3987718694167557)),
        ((-1.446005574164814, 2.542625196892409),
         (1.2542789105622223, -1.4332220802118936)),
        ((-0.025937113731029804, 2.9981488908685154),
         (-0.8000399823716067, -0.8784906958549721)),
    ])
    def test_cylinder_shortest_winding_across_the_seam(self, cylinder, a, b):
        path = connect_geodesic(cylinder, SurfacePoint(*a), SurfacePoint(*b))
        # the unrolled strip: the shortest of the straight lines to B's copies
        dv = math.remainder(b[1] - a[1], 2 * math.pi)
        assert path.length == pytest.approx(math.hypot(b[0] - a[0], dv),
                                            rel=1e-7)

    def test_seam_pair_takes_few_shots(self, sphere, monkeypatch):
        """A sphere pair across v = +-pi: aimed at B as given, the chord
        seed chased a target 5 rad away and the connect took 89 shots."""
        A = SurfacePoint(2.0575125857866254, 2.932839280621671)
        B = SurfacePoint(2.1447960299637048, -2.1063221042765794)
        shots = []
        real = connect_mod.shoot

        def counted(surface, p, theta, length, *rest):
            shots.append((theta, length))
            return real(surface, p, theta, length, *rest)

        monkeypatch.setattr(connect_mod, "shoot", counted)
        path = connect_geodesic(sphere, A, B)
        want = math.acos(math.cos(A.u) * math.cos(B.u) + math.sin(A.u)
                         * math.sin(B.u) * math.cos(A.v - B.v))
        assert path.length == pytest.approx(want, rel=1e-7)
        assert path.winding == 1
        assert len(shots) <= 10

    def test_non_finite_v_difference_is_a_solve_error(self, sphere):
        A, B = SurfacePoint(1.0, 1e308), SurfacePoint(1.0, -1e308)
        with pytest.raises(SolveError, match="not finite"):
            connect_geodesic(sphere, A, B)
        assert not A.coincides(B)


class TestBatch:
    # per surface: pairs from several starts with fans of 80 and more
    # steps, a coincident pair and (on the cylinder) an ambiguous tie
    PAIRS = {
        "sphere": [((1.2, 0.3), (1.5, 1.0)), ((1.2, 0.3), (0.9, -0.4)),
                   ((0.8, 0.0), (2.3, 2.0)), ((1.0, 0.3), (1.0, 0.3)),
                   ((2.0, -1.0), (1.4, -0.2))],
        "cylinder": [((0.0, 0.0), (1.0, 0.5 * math.pi)),
                     ((0.0, 0.0), (3.0, 1.0)), ((-1.0, 0.5), (-1.0, 0.5)),
                     ((0.0, 0.0), (0.7, math.pi)),
                     ((1.0, 2.0), (-2.5, 0.0))],
    }

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_batch_equals_single_pairs(self, name, request, monkeypatch):
        surface = request.getfixturevalue(name)
        pairs = [(SurfacePoint(*a), SurfacePoint(*b))
                 for a, b in self.PAIRS[name]]
        alone = [connect_geodesic(surface, A, B) for A, B in pairs]
        steps = []
        real = connect_mod.shoot_fan

        def counted(surface, starts, thetas, lengths, n_steps):
            steps.append(n_steps)
            return real(surface, starts, thetas, lengths, n_steps)

        monkeypatch.setattr(connect_mod, "shoot_fan", counted)
        batch = connect_geodesics(surface, pairs)
        assert len(steps) == len(set(steps)) >= 2   # one fan per step count
        assert len(batch) == len(pairs)
        for got, want in zip(batch, alone):
            assert ((got.theta_start, got.length, got.winding, got.ambiguous)
                    == (want.theta_start, want.length, want.winding,
                        want.ambiguous))
        assert any(path.length == 0.0 for path in batch)
        assert any(path.ambiguous for path in batch) == (name == "cylinder")

    def test_first_failing_check_raises(self, sphere):
        ok = (SurfacePoint(1.0, 0.0), SurfacePoint(1.2, 0.5))
        far = (SurfacePoint(0.5, 0.0), SurfacePoint(2.6, 1.0))
        off = (SurfacePoint(1.0, 0.0), SurfacePoint(-1.0, 0.5))
        opts = ConnectOptions(max_len=1.0)
        with pytest.raises(SolveError):
            connect_geodesics(sphere, [ok, far, off], opts)
        with pytest.raises(OffChartError):
            connect_geodesics(sphere, [ok, off, far], opts)
        assert connect_geodesics(sphere, []) == []


class TestOptions:
    def test_option_validation(self):
        with pytest.raises(ValueError):
            ConnectOptions(n_starts=3)
        with pytest.raises(ValueError):
            ConnectOptions(max_len=0.0)
        with pytest.raises(ValueError):
            ConnectOptions(resid_tol=-1.0)
        with pytest.raises(ValueError):
            ConnectOptions(shoot_tol=0.0)
        with pytest.raises(ValueError):
            ConnectOptions(windings=())
