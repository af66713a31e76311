import io
import math

import numpy as np
import pytest

from geofermat import (ChartExitError, SurfacePoint, clairaut_constant,
                       make_surface, shoot, write_path_csv)
from geofermat.geodesics import CSV_COLUMNS, shoot_fan


class TestDerivative:
    """The geodesic right-hand side, observed through integrated shots."""

    @staticmethod
    def _max_offset(surface, u0, theta, column, fixed):
        path = shoot(surface, SurfacePoint(u0, 0.4), theta, 2.0)
        assert len(path.samples) > 2          # integrated, not special-cased
        return np.max(np.abs(path.samples[:, column] - fixed))

    def test_meridians_stay_meridians(self, paraboloid):
        # a near-meridian launch, not the exact-meridian special case:
        # v'' = -(G_u / G) u' v' keeps v where it started
        assert self._max_offset(paraboloid, 1.3, math.pi / 2 - 1e-13,
                                2, 0.4) <= 1e-12

    def test_catenoid_waist_parallel(self, catenoid):
        # G_u = 0 at the waist, so the waist parallel is a geodesic
        assert self._max_offset(catenoid, 0.0, 0.0, 1, 0.0) <= 1e-12

    def test_sphere_equator_state(self, sphere):
        assert self._max_offset(sphere, math.pi / 2, 0.0, 1,
                                math.pi / 2) <= 1e-12


class TestShoot:
    def test_equator(self, sphere):
        path = shoot(sphere, SurfacePoint(math.pi / 2, 0.0), 0.0, math.pi)
        end = path.end()
        assert end.u == pytest.approx(math.pi / 2, abs=1e-9)
        assert end.v == pytest.approx(math.pi, abs=1e-9)
        assert path.c_nominal == pytest.approx(1.0)
        assert path.c_drift <= 1e-9

    def test_meridian_up_and_down(self, sphere):
        # theta = pi/2 points along increasing u (the frame convention)
        path = shoot(sphere, SurfacePoint(math.pi / 2, 0.0), math.pi / 2,
                     math.pi / 4)
        assert path.end().u == pytest.approx(3 * math.pi / 4, abs=1e-12)
        assert path.end().v == 0.0
        assert path.c_nominal == 0.0
        path = shoot(sphere, SurfacePoint(math.pi / 2, 0.0), -math.pi / 2,
                     math.pi / 4)
        assert path.end().u == pytest.approx(math.pi / 4, abs=1e-12)

    def test_meridian_through_pole(self, sphere):
        path = shoot(sphere, SurfacePoint(math.pi / 2, 0.0), math.pi / 2,
                     math.pi)
        end = path.end()
        assert end.u == pytest.approx(math.pi / 2, abs=1e-12)
        assert end.v == pytest.approx(math.pi)
        assert np.allclose(sphere.embed(end), [-1.0, 0.0, 0.0], atol=1e-12)

    def test_great_circle_closed_form(self, sphere):
        # rotate the equator solution in the embedding: the geodesic from p
        # with unit tangent T is  p cos(s) + T sin(s)
        p = SurfacePoint(math.pi / 2, 0.0)
        theta, length = math.pi / 4, 1.0
        path = shoot(sphere, p, theta, length)
        e_par, e_mer = sphere.embedding_frame(p)
        expected = (sphere.embed(p) * math.cos(length)
                    + (math.cos(theta) * e_par + math.sin(theta) * e_mer)
                    * math.sin(length))
        assert np.linalg.norm(sphere.embed(path.end()) - expected) <= 1e-8

    def test_error_estimate_overflow_rejects_step(self):
        # launched 1e-7 from the pole, the first trial step's error
        # estimate overflows a float square; the step must be retried
        sphere = make_surface("sphere", radius=1.0, axis_guard=1e-12)
        p = SurfacePoint(1e-7, 0.0)
        theta, length = 1.0, 1.0
        path = shoot(sphere, p, theta, length)
        e_par, e_mer = sphere.embedding_frame(p)
        expected = (sphere.embed(p) * math.cos(length)
                    + (math.cos(theta) * e_par + math.sin(theta) * e_mer)
                    * math.sin(length))
        assert np.linalg.norm(sphere.embed(path.end()) - expected) <= 1e-9
        assert path.end().v == pytest.approx(math.pi / 2 - 1.0, abs=1e-7)

    def test_paraboloid_apex_crossing(self, paraboloid):
        from scipy.integrate import quad
        path = shoot(paraboloid, SurfacePoint(1.0, 0.0), -math.pi / 2, 3.0)
        end = path.end()
        assert end.v == pytest.approx(math.pi)
        speed = lambda q: math.sqrt(1.0 + q * q)
        s_down, _ = quad(speed, 0.0, 1.0)
        s_up, _ = quad(speed, 0.0, end.u)
        assert s_down + s_up == pytest.approx(3.0, abs=1e-9)

    def test_cone_apex_exit(self):
        cone = make_surface("cone", slope=1.0)
        with pytest.raises(ChartExitError) as err:
            shoot(cone, SurfacePoint(1.0, 0.0), -math.pi / 2, 3.0)
        assert err.value.arc_length == pytest.approx(math.sqrt(2.0), abs=1e-5)

    def test_chart_exit_general_path(self):
        # a restricted chart makes the trajectory hit the u bound; the
        # error reports the exit arc length
        surface = make_surface("paraboloid", a=1.0, u_max=2.0)
        with pytest.raises(ChartExitError) as err:
            shoot(surface, SurfacePoint(1.5, 0.0), 1.2, 2.0)
        assert 0.0 < err.value.arc_length < 2.0

    def test_near_meridian_turns_at_clairaut_barrier(self, paraboloid):
        # not an exact meridian: the path turns at phi = |c| above the
        # axis guard instead of exiting
        path = shoot(paraboloid, SurfacePoint(0.2, 0.0),
                     -math.pi / 2 + 1e-2, 1.0)
        u_min = float(np.min(path.samples[:, 1]))
        assert u_min >= abs(path.c_nominal) - 1e-6
        assert u_min > paraboloid.axis_guard

    def test_zero_length(self, sphere):
        path = shoot(sphere, SurfacePoint(1.0, 2.0), 0.7, 0.0)
        assert path.length == 0.0
        assert path.samples.shape[0] == 1
        assert path.end() == SurfacePoint(1.0, 2.0)

    @pytest.mark.parametrize("length,tol", [
        (-1.0, 1e-10), (math.inf, 1e-10), (math.nan, 1e-10),
        (1.0, math.nan), (1.0, math.inf), (1.0, 0.0),
    ], ids=["negative-length", "inf-length", "nan-length", "nan-tol",
            "inf-tol", "zero-tol"])
    def test_rejects_input_it_cannot_integrate(self, sphere, length, tol):
        """A NaN tol used to accept every step (c_drift 3.7e-4) and an
        infinite length to return a path ending at its start."""
        with pytest.raises(ValueError):
            shoot(sphere, SurfacePoint(1.0, 0.0), 0.7, length, tol)

    def test_sample_ordering(self, catenoid):
        path = shoot(catenoid, SurfacePoint(0.2, 0.0), 0.8, 2.5)
        s = path.samples[:, 0]
        assert s[0] == 0.0 and s[-1] == path.length
        assert np.all(np.diff(s) > 0.0)


class TestShootFan:
    def test_batched_lanes_equal_one_fan_per_start(self, sphere):
        # three starts, two lengths, and a lane that dies at the pole
        starts = [SurfacePoint(1.2, 0.3), SurfacePoint(0.3, -1.0),
                  SurfacePoint(2.0, 2.5)]
        thetas = [(-0.4, 1.1, 2.9), (-math.pi / 2, 0.2, 3.0), (0.5, -2.2)]
        lengths = [(1.5, 1.5, 0.8), (1.5, 0.8, 0.8), (0.8, 1.5)]
        batch = shoot_fan(sphere,
                          [p for p, ths in zip(starts, thetas) for _ in ths],
                          [t for ths in thetas for t in ths],
                          [L for ls in lengths for L in ls], 60)
        row = 0
        for p, ths, ls in zip(starts, thetas, lengths):
            alone = shoot_fan(sphere, [p] * len(ths), ths, ls, 60)
            rows = slice(row, row + len(ths))
            for got, want in zip(batch, alone):
                assert got[rows].shape == want.shape
                assert np.array_equal(got[rows], want)
            row += len(ths)
        s_grid, us, _, alive = batch
        assert s_grid[0, -1] == 1.5 and s_grid[1, -1] == 1.5
        assert s_grid[2, -1] == 0.8
        assert not alive[3, -1] and alive[0, -1]   # the pole lane dies
        assert np.all(us[:, 0] == [1.2] * 3 + [0.3] * 3 + [2.0] * 2)


class TestClairautConstant:
    def test_equator(self, sphere):
        assert clairaut_constant(sphere, SurfacePoint(math.pi / 2, 0.0),
                                 0.0) == pytest.approx(1.0)

    def test_meridian(self, paraboloid):
        c = clairaut_constant(paraboloid, SurfacePoint(1.0, 0.0), math.pi / 2)
        assert abs(c) < 1e-15

    def test_catenoid_value(self, catenoid):
        c = clairaut_constant(catenoid, SurfacePoint(1.0, 0.0), math.pi / 3)
        assert c == pytest.approx(math.cosh(1.0) / 2.0, rel=1e-14)


class TestConservation:
    @pytest.mark.parametrize("kind,kwargs,u_lo,u_hi", [
        ("sphere", {"radius": 1.0}, 0.7, math.pi - 0.7),
        ("paraboloid", {"a": 1.0}, 0.8, 1.8),
        ("catenoid", {"a": 1.0}, -1.0, 1.0),
    ])
    def test_drift_and_unit_speed(self, kind, kwargs, u_lo, u_hi):
        surface = make_surface(kind, **kwargs)
        rng = np.random.default_rng(42)
        for _ in range(8):
            u0 = rng.uniform(u_lo, u_hi)
            theta = rng.uniform(0.15, math.pi / 2 - 0.15)
            length = rng.uniform(0.5, 3.0)
            path = shoot(surface, SurfacePoint(u0, 0.0), theta, length)
            bound = 1e-8 * max(1.0, path.rho_max())
            assert path.c_drift <= bound
            assert path.unit_defect <= bound
            cvals = path.clairaut_values()
            assert np.max(np.abs(cvals - path.c_nominal)) <= bound

    def test_reversibility(self):
        rng = np.random.default_rng(7)
        for kind, kwargs, u_lo, u_hi in [
            ("sphere", {"radius": 1.0}, 0.8, math.pi - 0.8),
            ("paraboloid", {"a": 1.0}, 0.9, 1.6),
            ("catenoid", {"a": 1.0}, -0.8, 0.8),
        ]:
            surface = make_surface(kind, **kwargs)
            for _ in range(6):
                p = SurfacePoint(rng.uniform(u_lo, u_hi),
                                 rng.uniform(-math.pi, math.pi))
                theta = rng.uniform(0.2, 1.2)
                length = rng.uniform(0.5, 2.0)
                path = shoot(surface, p, theta, length)
                back = shoot(surface, path.end(), path.reversed_heading(),
                             length)
                gap = np.linalg.norm(surface.embed(back.end())
                                     - surface.embed(p))
                assert gap <= 1e-7 * length

    def test_sine_cosine_equivalence(self, sphere):
        path = shoot(sphere, SurfacePoint(1.1, 0.0), 0.6, 2.0)
        E, G, _, _, _ = sphere.metric_terms_batch(path.samples[:, 1])
        theta = np.arctan2(np.sqrt(E) * path.samples[:, 3],
                           np.sqrt(G) * path.samples[:, 4])
        assert np.max(np.abs(np.cos(theta) - np.sin(math.pi / 2 - theta))) \
            <= 1e-12


class TestCsv:
    def test_columns_and_values(self, sphere):
        path = shoot(sphere, SurfacePoint(1.0, 0.2), 0.5, 1.0)
        buf = io.StringIO()
        write_path_csv(path, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(path.samples)
        first = [float(x) for x in lines[1].split(",")]
        assert len(first) == 9
        assert first[0] == 0.0
        assert first[8] == pytest.approx(path.c_nominal, abs=1e-12)
        emb = sphere.embed(path.start())
        assert first[5:8] == pytest.approx(list(emb), abs=1e-12)
