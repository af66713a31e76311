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

    def test_one_metric_call_at_launch_and_per_stage(self, monkeypatch):
        """The launch terms serve the first stage and the FSAL terms of the
        last step give theta_end: one call at launch, then 6 per accepted
        step (this shot rejects none), and none repeated at either end."""
        torus = make_surface("torus", R=2.0, r=0.7)
        calls = []
        real = torus.metric_terms

        def counted(u):
            calls.append(u)
            return real(u)

        monkeypatch.setattr(torus, "metric_terms", counted)
        path = shoot(torus, SurfacePoint(0.3, 0.0), 0.7, 8.0)
        assert len(calls) == 1 + 6 * (len(path.samples) - 1) == 811

    def test_sample_ordering(self, catenoid):
        path = shoot(catenoid, SurfacePoint(0.2, 0.0), 0.8, 2.5)
        s = path.samples[:, 0]
        assert s[0] == 0.0 and s[-1] == path.length
        assert np.all(np.diff(s) > 0.0)


def _reference_fan(surface, starts, thetas, lengths, n_steps):
    """The fan as four separate lane arrays with per-step liveness: lane j
    runs ``n_steps`` equal steps over ``lengths[j]`` and a dead lane is
    frozen at its last live sample.  ``shoot_fan`` must match it bit for
    bit.  Returns (u, v, alive)."""
    thetas = np.asarray(thetas, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    k = len(thetas)
    scales = {}
    for p in starts:
        if p.u not in scales:
            E0, G0, _, _, _ = surface.metric_terms(p.u)
            scales[p.u] = (math.sqrt(E0), math.sqrt(G0))
    u = np.array([p.u for p in starts], dtype=float)
    v = np.array([p.v for p in starts], dtype=float)
    s_e, s_g = np.array([scales[p.u] for p in starts]).T
    du = np.sin(thetas) / s_e
    dv = np.cos(thetas) / s_g
    h = lengths / n_steps

    def rhs(terms, du_, dv_):
        E, G, E_u, G_u, _ = terms
        ddu = (-E_u * du_ * du_ + G_u * dv_ * dv_) / (2.0 * E)
        ddv = -(G_u / G) * du_ * dv_
        return ddu, ddv

    us = np.empty((k, n_steps + 1))
    vs = np.empty((k, n_steps + 1))
    alive = np.empty((k, n_steps + 1), dtype=bool)
    us[:, 0] = u
    vs[:, 0] = v
    alive[:, 0] = True
    live = np.ones(k, dtype=bool)
    batch = surface.metric_terms_batch
    terms = batch(u)
    with np.errstate(all="ignore"):
        for i in range(n_steps):
            ka1, kb1 = rhs(terms, du, dv)
            u2 = u + 0.5 * h * du
            du2 = du + 0.5 * h * ka1
            dv2 = dv + 0.5 * h * kb1
            ka2, kb2 = rhs(batch(u2), du2, dv2)
            u3 = u + 0.5 * h * du2
            du3 = du + 0.5 * h * ka2
            dv3 = dv + 0.5 * h * kb2
            ka3, kb3 = rhs(batch(u3), du3, dv3)
            u4 = u + h * du3
            du4 = du + h * ka3
            dv4 = dv + h * kb3
            ka4, kb4 = rhs(batch(u4), du4, dv4)
            v = v + (h / 6.0) * (dv + 2.0 * dv2 + 2.0 * dv3 + dv4)
            u = u + (h / 6.0) * (du + 2.0 * du2 + 2.0 * du3 + du4)
            du = du + (h / 6.0) * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4)
            dv = dv + (h / 6.0) * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
            terms = batch(u)
            good = (np.isfinite(u) & np.isfinite(v) & np.isfinite(du)
                    & np.isfinite(dv) & (u >= surface.u_min)
                    & (u <= surface.u_max) & (terms[4] > surface.axis_guard))
            live = live & good
            u = np.where(live, u, us[:, i])
            v = np.where(live, v, vs[:, i])
            du = np.where(live, du, 0.0)
            dv = np.where(live, dv, 0.0)
            us[:, i + 1] = u
            vs[:, i + 1] = v
            alive[:, i + 1] = live
    return us, vs, alive


def _fan(surface, starts, thetas, lengths, n_steps):
    """``shoot_fan`` with each lane's step size ``lengths[j] / n_steps``."""
    steps = np.asarray(lengths, dtype=float) / n_steps
    return shoot_fan(surface, starts, thetas, steps, n_steps)


class TestShootFan:
    def test_batched_lanes_equal_one_fan_per_start(self, sphere):
        # three starts, two lengths, and a lane that dies at the pole
        starts = [SurfacePoint(1.2, 0.3), SurfacePoint(0.3, -1.0),
                  SurfacePoint(2.0, 2.5)]
        thetas = [(-0.4, 1.1, 2.9), (-math.pi / 2, 0.2, 3.0), (0.5, -2.2)]
        lengths = [(1.5, 1.5, 0.8), (1.5, 0.8, 0.8), (0.8, 1.5)]
        batch = _fan(sphere,
                     [p for p, ths in zip(starts, thetas) for _ in ths],
                     [t for ths in thetas for t in ths],
                     [L for ls in lengths for L in ls], 60)
        row = 0
        for p, ths, ls in zip(starts, thetas, lengths):
            alone = _fan(sphere, [p] * len(ths), ths, ls, 60)
            rows = slice(row, row + len(ths))
            for got, want in zip(batch, alone):
                assert got[rows].shape == want.shape
                assert np.array_equal(got[rows], want)
            row += len(ths)
        us, _, alive = batch
        assert not alive[3, -1] and alive[0, -1]   # the pole lane dies
        assert np.all(us[:, 0] == [1.2] * 3 + [0.3] * 3 + [2.0] * 2)

    @pytest.mark.parametrize("n_steps", [40, 60])
    def test_one_metric_call_per_stage_first_same_as_last(self, n_steps,
                                                           monkeypatch):
        """The metric at a step's end checks the lanes and is the next
        step's first stage: 4 batch calls per step, plus 1 at the start."""
        sphere = make_surface("sphere", radius=1.0)
        calls = []
        real = sphere.metric_terms_batch

        def counted(u):
            calls.append(len(u))
            return real(u)

        monkeypatch.setattr(sphere, "metric_terms_batch", counted)
        _, _, alive = _fan(sphere, [SurfacePoint(0.3, 0.0)] * 3,
                           [-math.pi / 2, 0.2, 3.0], [1.5] * 3, n_steps)
        assert len(calls) == 4 * n_steps + 1
        assert calls == [3] * len(calls)
        assert not alive[0, -1] and alive[1, -1]   # the pole lane dies


# a wavy vase: 17 knots on u in [0, 8]
_VASE_U = np.linspace(0.0, 8.0, 17)
VASE = np.column_stack([_VASE_U, 1.2 + 0.35 * np.sin(1.3 * _VASE_U) + 0.05 * _VASE_U,
                        _VASE_U + 0.2 * np.sin(_VASE_U)])

# per kind: surface parameters, and starts whose 12 lanes of length 3 include
# some that leave the chart or (on the sphere) cross the pole
_FAN_CASES = {
    "sphere": ({"radius": 1.0}, (0.05, 1.3, 2.9)),
    "cylinder": ({"radius": 1.0}, (-19.0, 0.0)),
    "cone": ({"slope": 1.0}, (0.3, 19.0)),
    "paraboloid": ({"a": 1.0}, (0.2, 9.9)),
    "catenoid": ({"a": 1.0}, (-2.8, 0.0, 2.8)),
    "torus": ({"R": 2.0, "r": 0.7}, (-12.0, 0.5, 12.0)),
    "plane": ({}, (0.1, 49.0)),
    "custom": ({"samples": VASE}, (0.5, 4.0, 7.5)),
}


class TestShootFanReference:
    @pytest.mark.parametrize("kind", sorted(_FAN_CASES))
    def test_equals_reference_bit_for_bit(self, kind):
        params, us0 = _FAN_CASES[kind]
        surface = make_surface(kind, **params)
        starts = [SurfacePoint(u0, 0.4) for u0 in us0 for _ in range(12)]
        thetas = [-math.pi + 2.0 * math.pi * (j + 0.5) / 12
                  for _ in us0 for j in range(12)]
        got = _fan(surface, starts, thetas, [3.0] * len(starts), 80)
        want = _reference_fan(surface, starts, thetas, [3.0] * len(starts), 80)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)
        alive = got[2]
        assert alive[:, 0].all() and not alive[:, -1].all()

    @pytest.mark.parametrize("kind, u0, theta, dies_below", [
        ("sphere", 0.05, -math.pi / 2, True),       # the pole
        ("catenoid", 2.8, math.pi / 2, False),      # the chart edge u = 3
        ("custom", 7.5, math.pi / 2, False),        # past the last knot
    ])
    def test_dead_lane_repeats_its_last_live_sample(self, kind, u0, theta,
                                                    dies_below):
        params, _ = _FAN_CASES[kind]
        surface = make_surface(kind, **params)
        starts = [SurfacePoint(u0, 0.4)] * 2
        us, vs, alive = _fan(surface, starts, [theta, 0.0], [2.0, 2.0], 60)
        want = _reference_fan(surface, starts, [theta, 0.0], [2.0, 2.0], 60)
        for a, b in zip((us, vs, alive), want):
            assert np.array_equal(a, b)
        n_live = int(alive[0].sum())
        assert 1 < n_live < 61 and alive[1].all()
        assert not alive[0, n_live:].any()
        assert np.all(us[0, n_live:] == us[0, n_live - 1])
        assert np.all(vs[0, n_live:] == vs[0, n_live - 1])
        last = us[0, n_live - 1]
        assert (last < u0) == dies_below

    def test_two_step_sizes_in_one_fan(self, sphere):
        """Lanes of 40 steps ride along in a fan of 60: their first 41
        samples are those of a lone 40-step fan."""
        starts = [SurfacePoint(1.2, 0.3)] * 3 + [SurfacePoint(0.4, -1.0)] * 3
        thetas = [-0.4, 1.1, 2.9, -math.pi / 2, 0.2, 3.0]
        short = _fan(sphere, starts[:3], thetas[:3], [0.8] * 3, 40)
        long_ = _fan(sphere, starts[3:], thetas[3:], [1.5] * 3, 60)
        steps = [0.8 / 40] * 3 + [1.5 / 60] * 3
        both = shoot_fan(sphere, starts, thetas, steps, 60)
        for got, a, b in zip(both, short, long_):
            assert np.array_equal(got[:3, :41], a)
            assert np.array_equal(got[3:], b)
        ref = _reference_fan(sphere, starts[:3], thetas[:3], [0.8] * 3, 40)
        for a, b in zip(short, ref):
            assert np.array_equal(a, b)
        assert not both[2][3, -1]       # the pole lane dies


class TestJacobi:
    @pytest.mark.parametrize("u0,theta,length", [
        (1.0, 0.3, 2.0), (1.2, -2.0, 0.4), (0.6, 1.1, 3.0),
        (0.5, -math.pi / 2, 2.0),       # a meridian through the pole
        (1.0, math.pi / 2, 1.5),
    ])
    def test_unit_sphere_closed_form(self, sphere, u0, theta, length):
        """On the unit sphere m1 = sin L and m2 = cos L."""
        path = shoot(sphere, SurfacePoint(u0, 0.3), theta, length)
        m1, dm1, m2, dm2 = path.jacobi()
        want = (math.sin(length), math.cos(length), math.cos(length),
                -math.sin(length))
        assert np.allclose((m1, dm1, m2, dm2), want, rtol=0.0, atol=1e-6)

    def test_zero_length(self, sphere):
        path = shoot(sphere, SurfacePoint(1.0, 0.0), 0.3, 0.0)
        assert path.jacobi() == (0.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("kind,params,u0,theta,length", [
        ("torus", {"R": 2.0, "r": 0.7}, 0.5, 0.8, 3.0),
        ("catenoid", {"a": 1.0}, 0.3, 0.4, 2.5),
        ("custom", {"samples": VASE}, 2.0, 0.6, 2.5),
    ])
    def test_m1_is_the_heading_derivative(self, kind, params, u0, theta,
                                          length):
        """m1 against a central difference of two shots: the end point
        moves by m1 d(theta) along the end normal and not along the end
        tangent."""
        surface = make_surface(kind, **params)
        p = SurfacePoint(u0, 0.1)
        path = shoot(surface, p, theta, length, tol=1e-12)
        d = 1e-5
        plus = shoot(surface, p, theta + d, length, tol=1e-12).end()
        minus = shoot(surface, p, theta - d, length, tol=1e-12).end()
        E, G, _, _, _ = surface.metric_terms(path.end().u)
        move_par = math.sqrt(G) * (plus.v - minus.v) / (2 * d)
        move_mer = math.sqrt(E) * (plus.u - minus.u) / (2 * d)
        th = path.theta_end
        normal = -math.sin(th) * move_par + math.cos(th) * move_mer
        along = math.cos(th) * move_par + math.sin(th) * move_mer
        m1 = path.jacobi()[0]
        assert abs(m1) > 0.1
        assert abs(m1 - normal) <= 1e-5 * abs(m1)
        assert abs(along) <= 1e-5 * abs(m1)


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
