import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import geofermat.connect as connect_mod
from geofermat import (DegenerateTreeError, FermatOptions, SolveError,
                       SurfacePoint, WeightDomainError, WeightTriple,
                       connect_geodesic, floating_test, make_surface,
                       measure_sector_angles,
                       sector_angles_from_weights, sector_partition, shoot,
                       solve_fermat, weights_from_sector_angles)
import geofermat.fermat as fermat_mod
from geofermat.clairaut import triangle_cosine

TWO_PI = 2.0 * math.pi


def equilateral_plane_points(cx=2.0, cy=0.0, side=1.0):
    r = side / math.sqrt(3.0)
    pts = []
    for ang in (math.pi / 2, math.pi / 2 + TWO_PI / 3,
                math.pi / 2 + 2 * TWO_PI / 3):
        x, y = cx + r * math.cos(ang), cy + r * math.sin(ang)
        pts.append(SurfacePoint(math.hypot(x, y), math.atan2(y, x)))
    return pts


weights_strategy = st.tuples(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
)


class TestSectorAngles:
    def test_equal_weights(self):
        angles = sector_angles_from_weights((1, 1, 1))
        assert angles == pytest.approx((TWO_PI / 3,) * 3)

    def test_3_4_5(self):
        phi_12, phi_23, phi_31 = sector_angles_from_weights((3, 4, 5))
        assert phi_12 == pytest.approx(math.pi / 2, abs=1e-15)
        assert phi_23 == pytest.approx(math.acos(-0.8), abs=1e-15)
        assert phi_31 == pytest.approx(math.acos(-0.6), abs=1e-15)
        assert phi_12 + phi_23 + phi_31 == pytest.approx(TWO_PI, abs=1e-12)

    def test_dominant_weight_rejected(self):
        with pytest.raises(WeightDomainError) as err:
            sector_angles_from_weights((1, 1, 3))
        assert err.value.dominant == 2
        assert "b3" in str(err.value)

    @given(weights_strategy)
    @settings(max_examples=200)
    def test_cosine_duality(self, b):
        w = WeightTriple(*b)
        assume(min(b[0] + b[1] - b[2], b[1] + b[2] - b[0],
                   b[0] + b[2] - b[1]) > 1e-3 * w.total)
        phi = sector_angles_from_weights(w)
        for ang, (i, j, k) in zip(phi, ((0, 1, 2), (1, 2, 0), (2, 0, 1))):
            assert abs(math.cos(ang)
                       + triangle_cosine(b[i], b[j], b[k])) <= 1e-12


class TestInverseWeights:
    def test_symmetric(self):
        w = weights_from_sector_angles((TWO_PI / 3,) * 3, total=1.0)
        assert w.astuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_round_trip_3_4_5(self):
        angles = sector_angles_from_weights((3, 4, 5))
        w = weights_from_sector_angles(angles, total=12.0)
        assert w.astuple() == pytest.approx((3.0, 4.0, 5.0), abs=1e-10)

    def test_right_angle_case(self):
        w = weights_from_sector_angles((math.pi / 2, 3 * math.pi / 4,
                                        3 * math.pi / 4), total=1.0)
        s = math.sqrt(2.0) / 2.0
        den = 2.0 * s + 1.0
        assert w.astuple() == pytest.approx((s / den, s / den, 1.0 / den),
                                            abs=1e-15)

    def test_bad_angles_rejected(self):
        with pytest.raises(WeightDomainError):
            weights_from_sector_angles((math.pi, math.pi / 2, math.pi / 2))
        with pytest.raises(WeightDomainError):
            weights_from_sector_angles((2.0, 2.0, 2.0))

    @given(weights_strategy)
    @settings(max_examples=300)
    def test_round_trip_property(self, b):
        w = WeightTriple(*b)
        assume(min(b[0] + b[1] - b[2], b[1] + b[2] - b[0],
                   b[0] + b[2] - b[1]) > 1e-3 * w.total)
        angles = sector_angles_from_weights(w)
        assert abs(sum(angles) - TWO_PI) <= 1e-12
        back = weights_from_sector_angles(angles, total=w.total)
        assert back.astuple() == pytest.approx(b, abs=1e-10)

    def test_weight_validation(self):
        with pytest.raises(WeightDomainError):
            WeightTriple(1.0, -2.0, 1.0)
        with pytest.raises(WeightDomainError):
            weights_from_sector_angles((TWO_PI / 3,) * 3, total=0.0)


class TestSectorPartition:
    def test_symmetric_partition(self):
        assert sector_partition((0.0, TWO_PI / 3, 2 * TWO_PI / 3)) == \
            pytest.approx((TWO_PI / 3,) * 3)

    def test_right_angle_partition(self):
        phi = sector_partition((0.0, math.pi / 2, math.pi))
        assert phi == pytest.approx((math.pi / 2, math.pi / 2, math.pi))

    def test_coincident_directions_rejected(self):
        with pytest.raises(DegenerateTreeError):
            sector_partition((0.3, 0.3, 2.0))

    @given(st.floats(-math.pi, math.pi), st.floats(0.05, 3.0),
           st.floats(0.05, 3.0))
    @settings(max_examples=200)
    def test_partition_sums_to_full_turn(self, t1, d2, d3):
        assume(abs(d2 - d3) > 1e-6 and d2 + d3 < TWO_PI - 0.05)
        phi = sector_partition((t1, t1 + d2, t1 + d2 + d3))
        assert sum(phi) == pytest.approx(TWO_PI, abs=1e-9)
        assert all(0.0 < a < TWO_PI for a in phi)


class TestFloatingTest:
    def test_plane_equilateral_interior(self, plane):
        pts = equilateral_plane_points()
        res = floating_test(plane, pts, (1, 1, 1))
        assert res.mode == "interior"
        # |U + U'| with a 60 degree vertex angle is sqrt(3)
        assert res.margins == pytest.approx((math.sqrt(3.0) - 1.0,) * 3,
                                            abs=1e-9)

    def test_dominant_weight_vertex(self, plane):
        pts = equilateral_plane_points()
        res = floating_test(plane, pts, (1, 1, 3))
        assert res.mode == "vertex"
        assert res.vertex_index == 2

    def test_sphere_near_equilateral_interior(self, sphere):
        center = SurfacePoint(math.pi / 2, 0.5)
        pts = [shoot(sphere, center, th, 0.4).end()
               for th in (0.3, 0.3 + TWO_PI / 3, 0.3 + 2 * TWO_PI / 3)]
        res = floating_test(sphere, pts, (1, 1, 1))
        assert res.mode == "interior"

    def test_collinear_points_rejected(self, plane):
        pts = [SurfacePoint(1.0, 0.2), SurfacePoint(1.5, 0.2),
               SurfacePoint(2.2, 0.2)]
        with pytest.raises(DegenerateTreeError):
            floating_test(plane, pts, (1, 1, 1))

    def test_duplicate_points_rejected(self, plane):
        p = SurfacePoint(1.0, 0.1)
        with pytest.raises(DegenerateTreeError):
            floating_test(plane, [p, p, SurfacePoint(2.0, 0.5)], (1, 1, 1))


def planted_triangle(surface, center, headings, lengths):
    return [shoot(surface, center, th, L).end()
            for th, L in zip(headings, lengths)]


def direct_margins(surface, pts, b):
    """Floating-test margins from six direct connects, one per ordered
    pair of terminals."""
    tangents = {(i, j): connect_geodesic(surface, pts[i], pts[j])
                .start_unit_tangent()
                for i in range(3) for j in range(3) if i != j}
    margins = []
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        tj, tk = tangents[i, j], tangents[i, k]
        margins.append(math.hypot(b[j] * tj[0] + b[k] * tk[0],
                                  b[j] * tj[1] + b[k] * tk[1]) - b[i])
    return margins


class TestFloatingTestArcs:
    TRIANGLES = {
        "sphere": (lambda: make_surface("sphere", radius=1.0),
                   SurfacePoint(1.2, 0.5), (0.2, 2.3, 4.4), (0.4, 0.35, 0.45)),
        "torus": (lambda: make_surface("torus", R=2.0, r=0.7),
                  SurfacePoint(0.5, 0.2), (0.4, 2.6, 4.3), (0.5, 0.6, 0.45)),
        "catenoid": (lambda: make_surface("catenoid", a=1.0),
                     SurfacePoint(0.2, 0.1), (0.7, 2.6, 4.6),
                     (0.3, 0.45, 0.35)),
    }

    @pytest.mark.parametrize("name", sorted(TRIANGLES))
    @pytest.mark.parametrize("b", [(1.0, 1.0, 1.0), (1.0, 1.2, 2.1)])
    def test_margins_match_six_direct_connects(self, name, b):
        build, center, headings, lengths = self.TRIANGLES[name]
        surface = build()
        pts = planted_triangle(surface, center, headings, lengths)
        res = floating_test(surface, pts, b)
        want = direct_margins(surface, pts, b)
        assert max(abs(g - w) for g, w in zip(res.margins, want)) <= 1e-8
        worst = min(range(3), key=lambda i: want[i])
        assert res.mode == ("interior" if want[worst] > 0.0 else "vertex")
        assert sorted(res.arcs) == [(0, 1), (0, 2), (1, 2)]

    def test_one_fan_per_floating_test(self, sphere, monkeypatch):
        pts = planted_triangle(sphere, SurfacePoint(1.2, 0.5),
                               (0.2, 2.3, 4.4), (0.4, 0.35, 0.45))
        lanes = []
        real = connect_mod.shoot_fan

        def counted(surface, starts, thetas, lengths, n_steps):
            lanes.append(len(thetas))
            return real(surface, starts, thetas, lengths, n_steps)

        monkeypatch.setattr(connect_mod, "shoot_fan", counted)
        floating_test(sphere, pts, (1, 1, 1))
        assert lanes == [3 * 17]    # three pairs of 16 fan headings + chord
        floating_test(sphere, pts, (1, 1, 2.5))
        assert lanes == [3 * 17] * 2


class TestSolveFermat:
    def test_plane_equilateral_center(self, plane):
        pts = equilateral_plane_points()
        res = solve_fermat(plane, pts, (1, 1, 1))
        assert res.mode == "interior"
        got = plane.embed(res.point)[:2]
        assert np.allclose(got, [2.0, 0.0], atol=1e-7)
        assert res.sector_angles == pytest.approx((TWO_PI / 3,) * 3,
                                                  abs=1e-7)
        assert sum(res.sector_angles) == pytest.approx(TWO_PI, abs=1e-9)
        assert res.residual <= 1e-8 * 3.0

    def test_plane_matches_weiszfeld(self, plane):
        from geofermat.verify import _weiszfeld
        rng = np.random.default_rng(12)
        done = 0
        while done < 5:
            radii = rng.uniform(0.8, 2.0, 3)
            vs = np.cumsum([rng.uniform(-0.4, 0.4),
                            rng.uniform(0.6, 1.0), rng.uniform(0.6, 1.0)])
            pts = [SurfacePoint(float(r), float(v))
                   for r, v in zip(radii, vs)]
            b = (1.1, 0.9, 1.3)
            if floating_test(plane, pts, b).mode != "interior":
                continue
            xy = np.array([[p.u * math.cos(p.v), p.u * math.sin(p.v)]
                           for p in pts])
            oracle = _weiszfeld(xy, b)
            res = solve_fermat(plane, pts, b)
            assert np.linalg.norm(plane.embed(res.point)[:2] - oracle) <= 1e-6
            done += 1

    def test_planted_tree_paraboloid(self, paraboloid):
        b = (2.0, 3.0, 4.0)
        center = SurfacePoint(1.0, 0.2)
        phi = sector_angles_from_weights(b)
        headings = (1.9, 1.9 + phi[0], 1.9 + phi[0] + phi[1])
        pts = [shoot(paraboloid, center, th, L).end()
               for th, L in zip(headings, (0.3, 0.4, 0.5))]
        res = solve_fermat(paraboloid, pts, b)
        E, G, _, _, _ = paraboloid.metric_terms(center.u)
        gap = math.hypot(math.sqrt(E) * (res.point.u - center.u),
                         math.sqrt(G) * (res.point.v - center.v))
        assert gap <= 1e-5
        assert res.sector_angles == pytest.approx(phi, abs=1e-5)

    @staticmethod
    def interior_points(surface):
        center = SurfacePoint(1.1, 0.1)
        return [shoot(surface, center, th, L).end()
                for th, L in zip((0.4, 2.5, 4.3), (0.45, 0.4, 0.5))]

    def test_monotone_descent(self, paraboloid):
        pts = self.interior_points(paraboloid)
        b = (1.0, 1.2, 0.8)
        res = solve_fermat(paraboloid, pts, b)
        assert res.mode == "interior"
        f = res.f_history
        assert len(f) >= 3 and res.iterations == len(f) - 1
        assert f[-1] < f[0]
        # a Newton step may raise f by the geodesic-length noise at most
        noise = sum(b) * FermatOptions().connect.resid_tol
        assert all(f[i + 1] <= f[i] + noise for i in range(len(f) - 1))

    def test_near_terminal_minimiser(self, plane):
        """A0 lies 0.0017 from A2, whose floating-test margin is 0.0026,
        so f is nearly flat along the way in."""
        from geofermat.verify import _weiszfeld
        pts = [SurfacePoint(1.5064130764675254, 0.834562974951244),
               SurfacePoint(1.8840350306168903, 0.27272155901390893),
               SurfacePoint(1.5129990804517774, -0.480490807067919)]
        b = (1.2771507527800923, 1.6545154790832424, 1.458972738964845)
        xy = np.array([[p.u * math.cos(p.v), p.u * math.sin(p.v)]
                       for p in pts])
        res = solve_fermat(plane, pts, b)
        assert res.mode == "interior"
        assert np.linalg.norm(plane.embed(res.point)[:2]
                              - _weiszfeld(xy, b)) <= 1e-6

    def test_trial_on_terminal_rejected(self, plane):
        pts = equilateral_plane_points()
        assert fermat_mod._trial(plane, pts[0], 0.0, 0.0, pts, None,
                                 (1, 1, 1), FermatOptions()) is None

    def test_vertex_mode_result(self, plane):
        pts = equilateral_plane_points()
        res = solve_fermat(plane, pts, (1, 1, 3))
        assert res.mode == "vertex" and res.vertex_index == 2
        assert res.point == pts[2]
        assert res.sector_angles is None
        assert res.residual >= 1.0  # two unit pulls cannot reach weight 3
        d12 = np.linalg.norm(plane.embed(pts[2]) - plane.embed(pts[0]))
        d22 = np.linalg.norm(plane.embed(pts[2]) - plane.embed(pts[1]))
        assert res.f_value == pytest.approx(d12 + d22, rel=1e-9)

    def test_vertex_mode_reuses_floating_test_arcs(self, sphere,
                                                   monkeypatch):
        pts = planted_triangle(sphere, SurfacePoint(1.2, 0.5),
                               (0.2, 2.3, 4.4), (0.4, 0.35, 0.45))
        b = (1.0, 1.0, 2.5)
        batches = []
        real = fermat_mod.connect_geodesics

        def counted(surface, pairs, *args, **kwargs):
            batches.append(list(pairs))
            return real(surface, batches[-1], *args, **kwargs)

        def no_single(*args, **kwargs):
            raise AssertionError("vertex mode made a single connect")

        monkeypatch.setattr(fermat_mod, "connect_geodesics", counted)
        monkeypatch.setattr(fermat_mod, "connect_geodesic", no_single)
        res = solve_fermat(sphere, pts, b)
        # the floating test's three pairs, in one batch, and nothing else
        assert batches == [[(pts[0], pts[1]), (pts[0], pts[2]),
                            (pts[1], pts[2])]]
        assert res.mode == "vertex" and res.vertex_index == 2
        assert res.point == pts[2]
        # both branches from the vertex were stored the other way round
        expected = [connect_geodesic(sphere, pts[2], pts[j],
                                     FermatOptions().connect) for j in (0, 1)]
        for j, (got, want) in enumerate(zip(res.branches[:2], expected)):
            assert got.start() == pts[2]
            assert abs(got.theta_start - want.theta_start) <= 1e-8
            assert abs(got.length - want.length) <= 1e-8
            gap = np.linalg.norm(sphere.embed(got.end())
                                 - sphere.embed(want.end()))
            assert gap <= 1e-8
            assert got.winding == want.winding
        assert res.branches[2].length == 0.0
        assert res.f_value == pytest.approx(
            b[0] * expected[0].length + b[1] * expected[1].length, abs=1e-8)

    def test_iteration_cap(self, paraboloid):
        pts = self.interior_points(paraboloid)
        with pytest.raises(SolveError):
            solve_fermat(paraboloid, pts, (1, 1, 1),
                         FermatOptions(max_iter=1, grad_tol=1e-15))

    def test_option_validation(self):
        for bad in ({"max_iter": 0}, {"grad_tol": 0.0}, {"angle_tol": -1.0},
                    {"angle_tol": math.nan}):
            with pytest.raises(ValueError):
                FermatOptions(**bad)

    def test_explicit_initial_point(self, paraboloid):
        pts = self.interior_points(paraboloid)
        res = solve_fermat(paraboloid, pts, (1, 1, 1),
                           FermatOptions(initial=SurfacePoint(1.2, 0.1)))
        base = solve_fermat(paraboloid, pts, (1, 1, 1))
        assert res.point.u == pytest.approx(base.point.u, abs=1e-7)
        assert res.point.v == pytest.approx(base.point.v, abs=1e-7)


class TestVertexRegimeBruteForce:
    def _grid_argmin(self, embeds, b, grid_xy):
        f = sum(bi * np.linalg.norm(grid_xy - e[None, :], axis=1)
                for bi, e in zip(b, embeds))
        return grid_xy[int(np.argmin(f))]

    def test_plane_grid(self, plane):
        pts = equilateral_plane_points()
        b = (1.0, 1.0, 3.0)
        res = floating_test(plane, pts, b)
        assert res.mode == "vertex" and res.vertex_index == 2
        embeds = [plane.embed(p)[:2] for p in pts]
        lo = np.min(embeds, axis=0) - 0.3
        hi = np.max(embeds, axis=0) + 0.3
        xs = np.linspace(lo[0], hi[0], 200)
        ys = np.linspace(lo[1], hi[1], 200)
        grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
        best = self._grid_argmin(embeds, b, grid)
        cell = max(hi[0] - lo[0], hi[1] - lo[1]) / 199
        assert np.linalg.norm(best - embeds[2]) <= cell * math.sqrt(2.0)

    def test_sphere_grid(self, sphere):
        center = SurfacePoint(1.2, 0.5)
        pts = [shoot(sphere, center, th, L).end()
               for th, L in zip((0.2, 2.3, 4.4), (0.4, 0.35, 0.45))]
        b = (1.0, 1.0, 2.5)
        res = floating_test(sphere, pts, b)
        assert res.mode == "vertex" and res.vertex_index == 2
        embeds = [sphere.embed(p) for p in pts]
        us = np.linspace(min(p.u for p in pts) - 0.3,
                         max(p.u for p in pts) + 0.3, 200)
        vs = np.linspace(min(p.v for p in pts) - 0.3,
                         max(p.v for p in pts) + 0.3, 200)
        uu, vv = np.meshgrid(us, vs)
        xyz = sphere.embed_batch(uu.ravel(), vv.ravel())
        f = sum(bi * np.arccos(np.clip(xyz @ e, -1.0, 1.0))
                for bi, e in zip(b, embeds))
        best = xyz[int(np.argmin(f))]
        cell = max(us[1] - us[0], vs[1] - vs[0])
        assert np.linalg.norm(best - embeds[2]) <= 2.0 * cell


class TestMeasureSectorAngles:
    def test_planted_angles_recovered(self, catenoid):
        b = (2.0, 3.0, 4.0)
        phi = sector_angles_from_weights(b)
        center = SurfacePoint(0.2, 0.1)
        headings = (0.7, 0.7 + phi[0], 0.7 + phi[0] + phi[1])
        pts = [shoot(catenoid, center, th, L).end()
               for th, L in zip(headings, (0.3, 0.45, 0.35))]
        angles = measure_sector_angles(catenoid, center, pts)
        assert angles == pytest.approx(phi, abs=1e-5)

    def test_center_equal_terminal_rejected(self, plane):
        c = SurfacePoint(1.0, 0.0)
        with pytest.raises(DegenerateTreeError):
            measure_sector_angles(plane, c,
                                  [c, SurfacePoint(2, 0.3),
                                   SurfacePoint(2, -0.3)])
