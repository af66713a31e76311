"""Arc-length geodesic integration with first-integral monitoring.

The geodesic equations of the diagonal metric ``E du^2 + G dv^2`` (E, G
functions of u only) are

    u'' = -(E_u / 2E) u'^2 + (G_u / 2E) v'^2
    v'' = -(G_u / G) u' v'

Meridians (v' = 0) are geodesics of every surface of revolution, and the
quantity ``G v' = rho cos(alpha)`` (alpha the angle with the parallel) is
conserved along every geodesic.  The integrator treats that conservation
law, together with unit speed ``E u'^2 + G v'^2 = 1``, as correctness
monitors: a step that violates either budget is rejected, not patched.

Exact meridian launches are integrated as a one-dimensional profile
arc-length problem.  When the profile closes smoothly on the rotation
axis (|d phi / d s| -> 1 where phi -> 0, as on a sphere cap or a
paraboloid apex) a meridian passes through the axis with ``v`` jumping by
pi; for any other chart exit a :class:`ChartExitError` reports the exit
arc length.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import ChartExitError, SolveError
from .surfaces import ProfileSurface, SurfacePoint, TWO_PI

__all__ = [
    "GeodesicPath",
    "shoot",
    "clairaut_constant",
    "write_path_csv",
    "CSV_COLUMNS",
]

DEFAULT_TOL = 1e-10
_MERIDIAN_SNAP = 1e-14
_MAX_STEPS = 200_000

CSV_COLUMNS = ("s", "u", "v", "du", "dv", "x", "y", "z", "clairaut_c")


@dataclass
class GeodesicPath:
    """An arc-length sampled geodesic.

    ``samples`` has one row ``(s, u, v, du, dv)`` per accepted integrator
    step plus the endpoint, ordered by strictly increasing ``s`` starting
    at 0.  ``c_nominal`` is the conserved quantity ``G(u) v'`` at launch
    and ``c_drift`` the largest observed deviation from it.
    """

    surface: ProfileSurface
    samples: np.ndarray
    length: float
    c_nominal: float
    c_drift: float
    theta_start: float
    theta_end: float
    unit_defect: float = 0.0
    ambiguous: bool = False
    winding: int = 0

    def start(self) -> SurfacePoint:
        return SurfacePoint(float(self.samples[0, 1]), float(self.samples[0, 2]))

    def end(self) -> SurfacePoint:
        return SurfacePoint(float(self.samples[-1, 1]), float(self.samples[-1, 2]))

    def start_unit_tangent(self):
        """Departure tangent components (a_par, a_mer) in the unit frame."""
        return math.cos(self.theta_start), math.sin(self.theta_start)

    def reversed_heading(self) -> float:
        """Heading at the endpoint that retraces the path backwards."""
        theta = self.theta_end + math.pi
        if theta > math.pi:
            theta -= TWO_PI
        return theta

    def clairaut_values(self) -> np.ndarray:
        """Conserved quantity G(u) v' at every sample."""
        _, G, _, _, _ = self.surface.metric_terms_batch(self.samples[:, 1])
        return G * self.samples[:, 4]

    def rho_max(self) -> float:
        return float(np.max(self.surface.metric_terms_batch(self.samples[:, 1])[4]))

    def embed_samples(self) -> np.ndarray:
        return self.surface.embed_batch(self.samples[:, 1], self.samples[:, 2])

    def jacobi(self):
        """Jacobi scalars at the end, ``(m1, m1', m2, m2')``: the solutions
        of ``m'' + K m = 0`` that start as ``(m, m') = (0, 1)`` and ``(1, 0)``.

        A heading change d(theta) at the start moves the end point by
        ``m1 d(theta)`` along the end normal (the end tangent turned by
        +pi/2).  RK4 runs over the path's own samples, one scalar step per
        sample interval; mid-step ``u`` comes from the cubic Hermite
        interpolant of ``(u, du)``, and K at a step's start is the previous
        step's end value.
        """
        curvature = self.surface.curvature
        rows = self.samples.tolist()
        # a meridian's du flips sign where it crosses the axis
        meridian = not self.samples[:, 4].any()
        s0, u0, _, du0, _ = rows[0]
        k0 = curvature(u0)
        m1, p1, m2, p2 = 0.0, 1.0, 1.0, 0.0
        for s1, u1, _, du1, _ in rows[1:]:
            h = s1 - s0
            if meridian:
                du0 = math.copysign(du0, du1)
            k_mid = curvature(0.5 * (u0 + u1) + 0.125 * h * (du0 - du1))
            k1 = curvature(u1)
            # one RK4 step maps linearly: (m, m') <- [[a, b], [c, d]] (m, m')
            q = h * h
            a = 1.0 - q * (k0 + 2.0 * k_mid) / 6.0 + q * q * k0 * k_mid / 24.0
            b = h * (1.0 - q * k_mid / 6.0)
            c = h * (q * k_mid * (k0 + k1) / 12.0 - (k0 + 4.0 * k_mid + k1) / 6.0)
            d = 1.0 - q * (2.0 * k_mid + k1) / 6.0 + q * q * k_mid * k1 / 24.0
            m1, p1 = a * m1 + b * p1, c * m1 + d * p1
            m2, p2 = a * m2 + b * p2, c * m2 + d * p2
            s0, u0, du0, k0 = s1, u1, du1, k1
        return m1, p1, m2, p2


def clairaut_constant(surface: ProfileSurface, p: SurfacePoint, theta: float) -> float:
    """Conserved value ``phi(u) cos(theta)`` for a unit launch at heading theta."""
    surface.check_point(p)
    return float(surface.metric_terms(p.u)[4] * math.cos(theta))


# -- adaptive embedded 5(4) pair ------------------------------------------

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)


def _integrate(surface, u0, v0, du0, dv0, length, tol, launch):
    """Core stepper; ``launch`` is ``metric_terms(u0)``.  Returns (sample
    rows, drift, unit defect, end terms); the last row holds the end state
    and the end terms are ``metric_terms`` at its u.

    Raises ChartExitError when the trajectory reaches the chart boundary
    and SolveError when the conservation budget cannot be met.
    """
    terms = surface.metric_terms
    u_lo, u_hi, guard = surface.u_min, surface.u_max, surface.axis_guard

    E, G, E_u, G_u, phi = end_terms = launch
    c0 = G * dv0
    rho_max = max(1.0, phi)
    budget_factor = 10.0 * tol

    s = 0.0
    u, v, du, dv = u0, v0, du0, dv0
    drift = 0.0
    unit_defect = 0.0
    rows = [(0.0, u0, v0, du0, dv0)]
    s_eps = 1e-15 * max(1.0, length)

    # FSAL stage cache
    a1 = (-E_u * du * du + G_u * dv * dv) / (2.0 * E)
    b1 = -(G_u / G) * du * dv

    h = min(length, 1e-2)
    chart_rejects = 0
    for _step in range(_MAX_STEPS):
        if length - s <= s_eps:
            break
        if h > length - s:
            h = length - s

        # stage k evaluates the metric at u + h * sum(A_kj du_j) and the
        # acceleration at the velocity (du_k, dv_k)
        try:
            du2 = du + h * _A21 * a1
            dv2 = dv + h * _A21 * b1
            E, G, E_u, G_u, _ = terms(u + h * _A21 * du)
            a2 = (-E_u * du2 * du2 + G_u * dv2 * dv2) / (2.0 * E)
            b2 = -(G_u / G) * du2 * dv2
            du3 = du + h * (_A31 * a1 + _A32 * a2)
            dv3 = dv + h * (_A31 * b1 + _A32 * b2)
            E, G, E_u, G_u, _ = terms(u + h * (_A31 * du + _A32 * du2))
            a3 = (-E_u * du3 * du3 + G_u * dv3 * dv3) / (2.0 * E)
            b3 = -(G_u / G) * du3 * dv3
            du4 = du + h * (_A41 * a1 + _A42 * a2 + _A43 * a3)
            dv4 = dv + h * (_A41 * b1 + _A42 * b2 + _A43 * b3)
            E, G, E_u, G_u, _ = terms(u + h * (_A41 * du + _A42 * du2
                                               + _A43 * du3))
            a4 = (-E_u * du4 * du4 + G_u * dv4 * dv4) / (2.0 * E)
            b4 = -(G_u / G) * du4 * dv4
            du5 = du + h * (_A51 * a1 + _A52 * a2 + _A53 * a3 + _A54 * a4)
            dv5 = dv + h * (_A51 * b1 + _A52 * b2 + _A53 * b3 + _A54 * b4)
            E, G, E_u, G_u, _ = terms(u + h * (_A51 * du + _A52 * du2
                                               + _A53 * du3 + _A54 * du4))
            a5 = (-E_u * du5 * du5 + G_u * dv5 * dv5) / (2.0 * E)
            b5 = -(G_u / G) * du5 * dv5
            du6 = du + h * (_A61 * a1 + _A62 * a2 + _A63 * a3 + _A64 * a4
                            + _A65 * a5)
            dv6 = dv + h * (_A61 * b1 + _A62 * b2 + _A63 * b3 + _A64 * b4
                            + _A65 * b5)
            E, G, E_u, G_u, _ = terms(u + h * (_A61 * du + _A62 * du2
                                               + _A63 * du3 + _A64 * du4
                                               + _A65 * du5))
            a6 = (-E_u * du6 * du6 + G_u * dv6 * dv6) / (2.0 * E)
            b6 = -(G_u / G) * du6 * dv6
            # 5th order solution (b7 = 0)
            u_n = u + h * (_B1 * du + _B3 * du3 + _B4 * du4 + _B5 * du5
                           + _B6 * du6)
            du_n = du + h * (_B1 * a1 + _B3 * a3 + _B4 * a4 + _B5 * a5
                             + _B6 * a6)
            dv_n = dv + h * (_B1 * b1 + _B3 * b3 + _B4 * b4 + _B5 * b5
                             + _B6 * b6)
            v_n = v + h * (_B1 * dv + _B3 * dv3 + _B4 * dv4 + _B5 * dv5
                           + _B6 * dv6)
            # FSAL stage 7 at the new point
            E_n, G_n, E_u7, G_u7, phi_n = fsal = terms(u_n)
            a7 = (-E_u7 * du_n * du_n + G_u7 * dv_n * dv_n) / (2.0 * E_n)
            b7 = -(G_u7 / G_n) * du_n * dv_n
        except (ValueError, OverflowError, ZeroDivisionError):
            h *= 0.5
            chart_rejects += 1
            if chart_rejects > 60:
                raise ChartExitError("geodesic left the chart", s) from None
            continue

        err_u = h * (_E1 * du + _E3 * du3 + _E4 * du4 + _E5 * du5
                     + _E6 * du6 + _E7 * du_n)
        err_v = h * (_E1 * dv + _E3 * dv3 + _E4 * dv4 + _E5 * dv5
                     + _E6 * dv6 + _E7 * dv_n)
        err_du = h * (_E1 * a1 + _E3 * a3 + _E4 * a4 + _E5 * a5
                      + _E6 * a6 + _E7 * a7)
        err_dv = h * (_E1 * b1 + _E3 * b3 + _E4 * b4 + _E5 * b5
                      + _E6 * b6 + _E7 * b7)

        ok = (math.isfinite(u_n) and math.isfinite(v_n)
              and math.isfinite(du_n) and math.isfinite(dv_n))
        if ok:
            sc_u = tol * (1.0 + max(abs(u), abs(u_n)))
            sc_v = tol * (1.0 + max(abs(v), abs(v_n)))
            sc_d = tol * (1.0 + max(abs(du), abs(du_n)))
            sc_e = tol * (1.0 + max(abs(dv), abs(dv_n)))
            # float ** 2 raises OverflowError where x * x gives inf; ** is
            # kept because libm pow and * differ in the last bit sometimes
            try:
                errnorm = 0.5 * math.sqrt((err_u / sc_u) ** 2
                                          + (err_v / sc_v) ** 2
                                          + (err_du / sc_d) ** 2
                                          + (err_dv / sc_e) ** 2)
            except OverflowError:
                errnorm = math.inf
        else:
            errnorm = math.inf

        if errnorm > 1.0:
            h *= max(0.2, 0.9 * errnorm ** -0.2) if math.isfinite(errnorm) else 0.25
            chart_rejects += 1
            if chart_rejects > 200:
                raise SolveError("integrator cannot satisfy the error tolerance")
            continue

        # chart boundary check on the accepted candidate
        if not (u_lo <= u_n <= u_hi) or phi_n <= guard:
            h *= 0.5
            chart_rejects += 1
            if chart_rejects > 60 or h < 1e-13 * max(1.0, length):
                raise ChartExitError("geodesic left the chart", s)
            continue

        # conservation monitors
        rho_here = max(rho_max, phi_n)
        budget = budget_factor * rho_here
        defect_c = abs(G_n * dv_n - c0)
        defect_s = abs(E_n * du_n * du_n + G_n * dv_n * dv_n - 1.0)
        if (defect_c > 0.7 * budget or defect_s > 0.7 * budget) and h > 1e-13:
            h *= 0.5
            chart_rejects += 1
            if chart_rejects > 120:
                raise SolveError(
                    "conservation monitors reject every step "
                    f"(drift {defect_c:.3e}, unit defect {defect_s:.3e})")
            continue

        chart_rejects = 0
        s += h
        u, v, du, dv = u_n, v_n, du_n, dv_n
        a1, b1, end_terms = a7, b7, fsal
        rho_max = rho_here
        drift = max(drift, defect_c)
        unit_defect = max(unit_defect, defect_s)
        rows.append((s, u, v, du, dv))
        if errnorm > 0.0:
            h *= min(5.0, max(0.2, 0.9 * errnorm ** -0.2))
        else:
            h *= 5.0
    else:
        raise SolveError("integrator exceeded the step budget")

    if rows[-1][0] != length:
        last = rows[-1]
        rows[-1] = (length, last[1], last[2], last[3], last[4])
    return rows, drift, unit_defect, end_terms


# -- meridian special case --------------------------------------------------


def _meridian_shoot(surface, p, sigma, length):
    """Integrate an exact meridian (dv = 0) as a 1-D arc-length problem."""
    terms = surface.metric_terms

    def speed(uq):
        return math.sqrt(terms(uq)[0])

    def arc(ua, ub):
        if ua == ub:
            return 0.0
        # full_output keeps quad from warning when roundoff stops it short
        # of the 1e-13 target; the value it reached is used as it stands
        return abs(quad(speed, ua, ub, epsabs=1e-13, epsrel=1e-13,
                        limit=200, full_output=1)[0])

    def guard_stop(ua, direction):
        """First chart exit along the travel direction.

        Returns (u_stop, crosses).  ``crosses`` is True when the exit is a
        smoothly closing axis end, which a meridian may pass through.  A
        start inside the guard cap (just after an axis crossing) is skipped
        before searching for the next exit.
        """
        bound = surface.u_max if direction > 0 else surface.u_min
        closes = surface.closes_at_max if direction > 0 else surface.closes_at_min
        grid = np.linspace(ua, bound, 513)
        g = surface.metric_terms_batch(grid)[4] - surface.axis_guard
        started = g[0] > 0.0
        for i in range(1, len(grid)):
            if not started:
                started = g[i] > 0.0
                continue
            if g[i] <= 0.0:
                if closes and np.all(g[i:] <= 0.0):
                    return bound, True
                lo, hi = sorted((grid[i - 1], grid[i]))
                f = lambda x: (float(surface.metric_terms_batch(x)[4])
                               - surface.axis_guard)
                return brentq(f, lo, hi, xtol=1e-14), False
        return bound, False

    rows = [(0.0, p.u, p.v, sigma / speed(p.u), 0.0)]
    s_done = 0.0
    u_cur, v_cur = p.u, p.v
    sig = sigma
    for _leg in range(16):
        u_stop, crosses = guard_stop(u_cur, sig)
        s_leg = arc(u_cur, u_stop)
        remaining = length - s_done
        ends = remaining <= s_leg + 1e-15
        if not (ends or crosses):
            raise ChartExitError("meridian left the chart", s_done + s_leg)
        u_end = u_stop
        if ends and remaining < s_leg - 1e-13:    # endpoint inside this leg
            lo, hi = (u_cur, u_stop) if sig > 0 else (u_stop, u_cur)
            u_end = u_cur if hi - lo < 1e-15 else brentq(
                lambda x: arc(u_cur, x) - remaining, lo, hi, xtol=1e-14)
        # 24 rows per leg; an ending leg's last row is its exact endpoint
        for k in range(1, 24 if ends else 25):
            u_k = u_cur + (u_end - u_cur) * k / 24
            rows.append((s_done + arc(u_cur, u_k), u_k, v_cur,
                         sig / speed(u_k), 0.0))
        if ends:
            rows.append((s_done + remaining, u_end, v_cur,
                         sig / speed(u_end), 0.0))
            return np.asarray(rows), 0.5 * math.pi * sig
        # pass through the axis: reflect and rotate the chart by pi
        s_done += s_leg
        u_cur = u_stop
        v_cur += math.pi
        sig = -sig
    raise SolveError("meridian crossed the axis too many times")


def shoot(surface: ProfileSurface, p: SurfacePoint, theta: float, length: float,
          tol: float = DEFAULT_TOL) -> GeodesicPath:
    """Exponential map: follow the geodesic from ``p`` at heading ``theta``.

    The integration is adaptive with an embedded error estimate; along the
    accepted path both the unit-speed defect and the drift of the
    conserved quantity ``G v'`` stay below ``10 * tol * max(1, rho)``.
    Every adaptive integration of the package runs through here, the
    Newton shots of ``connect`` included; the last sample row holds the
    end state ``(u, v, du, dv)``.
    """
    surface.check_point(p)
    if not 0.0 <= length < math.inf:
        raise ValueError(f"length must be finite and nonnegative, got {length!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not math.isfinite(theta):
        raise ValueError(f"heading must be finite, got {theta!r}")
    E0, G0, _, _, phi0 = launch = surface.metric_terms(p.u)
    a_par, a_mer = math.cos(theta), math.sin(theta)
    c0 = phi0 * a_par
    du0 = a_mer / math.sqrt(E0)
    dv0 = a_par / math.sqrt(G0)

    if length == 0.0:
        samples = np.array([[0.0, p.u, p.v, du0, dv0]])
        return GeodesicPath(surface, samples, 0.0, c0, 0.0, theta, theta)

    if abs(a_par) <= _MERIDIAN_SNAP:
        sigma = 1.0 if a_mer > 0 else -1.0
        samples, theta_end = _meridian_shoot(surface, p, sigma, length)
        return GeodesicPath(surface, samples, length, 0.0, 0.0,
                            0.5 * math.pi * sigma, theta_end)

    rows, drift, unit_defect, (E1, G1, _, _, _) = _integrate(
        surface, p.u, p.v, du0, dv0, length, tol, launch)
    samples = np.asarray(rows, dtype=float)
    _, _, _, du1, dv1 = rows[-1]
    theta_end = math.atan2(math.sqrt(E1) * du1, math.sqrt(G1) * dv1)
    return GeodesicPath(surface, samples, length, c0, drift, theta,
                        theta_end, unit_defect=unit_defect)


# -- batched fixed-step screening integrator ---------------------------------


def shoot_fan(surface, starts, thetas, steps, n_steps):
    """Fixed-step RK4 trajectories, used as cheap screening for
    boundary-value solves.  Lane j starts at ``starts[j]`` with heading
    ``thetas[j]`` and takes ``n_steps`` steps of its own size
    ``steps[j]``.  Returns (u, v, alive), each of shape
    (lanes, n_steps + 1).  A lane dies at its first sample that is off the
    chart, inside the axis guard or not finite; sample 0 is always live,
    and every sample after a lane's death repeats its last live sample.
    Lanes do not interact: a lane gives the same samples in any fan.
    """
    thetas = np.asarray(thetas, dtype=float)
    h = np.asarray(steps, dtype=float)
    scales = {}          # start u -> (sqrt(E), sqrt(G)), one metric call each
    for p in starts:
        if p.u not in scales:
            E0, G0, _, _, _ = surface.metric_terms(p.u)
            scales[p.u] = (math.sqrt(E0), math.sqrt(G0))
    s_e, s_g = np.array([scales[p.u] for p in starts]).T
    # one (4, lanes) state (u, v, du, dv) and its slope (du, dv, du', dv')
    y = np.array([[p.u for p in starts], [p.v for p in starts],
                  np.sin(thetas) / s_e, np.cos(thetas) / s_g])
    batch = surface.metric_terms_batch

    def slope(y_, terms):
        du, dv = y_[2], y_[3]
        E, G, E_u, G_u, _ = terms
        return np.array([du, dv, (-E_u * du * du + G_u * dv * dv) / (2.0 * E),
                         -(G_u / G) * du * dv])

    ys = np.empty((n_steps + 1, 4, len(thetas)))
    phis = np.empty((n_steps + 1, len(thetas)))
    ys[0] = y
    # first same as last: the metric at a step's end, whose phi decides
    # which lanes stay alive, is also the next step's first stage.  Dead
    # lanes keep integrating; their samples are replaced after the loop
    terms = batch(y[0])
    phis[0] = terms[4]
    half, sixth = 0.5 * h, h / 6.0
    with np.errstate(all="ignore"):
        for i in range(n_steps):
            k1 = slope(y, terms)
            y2 = y + half * k1
            k2 = slope(y2, batch(y2[0]))
            y3 = y + half * k2
            k3 = slope(y3, batch(y3[0]))
            y4 = y + h * k3
            k4 = slope(y4, batch(y4[0]))
            y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            terms = batch(y[0])
            ys[i + 1] = y
            phis[i + 1] = terms[4]
    u = ys[:, 0]
    good = (np.isfinite(ys).all(axis=1) & (u >= surface.u_min)
            & (u <= surface.u_max) & (phis > surface.axis_guard))
    good[0] = True
    alive = np.logical_and.accumulate(good, axis=0)
    # sample i of a lane reads its sample min(i, last live)
    last = np.minimum(np.arange(n_steps + 1)[:, None], alive.sum(axis=0) - 1)
    lanes = np.arange(len(thetas))
    return ys[last, 0, lanes].T, ys[last, 1, lanes].T, alive.T


def write_path_csv(path: GeodesicPath, fileobj) -> None:
    """Serialize a path as CSV with columns s,u,v,du,dv,x,y,z,clairaut_c."""
    xyz = path.embed_samples()
    cvals = path.clairaut_values()
    fileobj.write(",".join(CSV_COLUMNS) + "\n")
    for row, (x, y, z), c in zip(path.samples, xyz, cvals):
        cells = (row[0], row[1], row[2], row[3], row[4], x, y, z, c)
        fileobj.write(",".join(repr(float(val)) for val in cells) + "\n")
