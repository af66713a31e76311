"""Independent geodesic reference used to build inputs and check answers.

Nothing here calls into ``geofermat``: the profiles are written out again
from their textbook definitions and geodesics are integrated with scipy's
DOP853 at a tolerance far below the program's, so the benchmark's inputs
and oracles do not move when the program's integrator changes.

A surface of revolution has profile ``(phi(u), psi(u))``, metric
``E du^2 + G dv^2`` with ``E = phi'^2 + psi'^2`` and ``G = phi^2``, and
embedding ``(phi cos v, phi sin v, psi)``.  A heading ``theta`` is measured
from the parallel direction toward increasing ``u``.
"""

import bisect
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

RTOL = 1e-12
ATOL = 1e-12
# how close a reference trajectory may come to the chart edge before the
# input is dropped: near-edge launches are legal but fragile to generate
EDGE_MARGIN = 1e-3


class Profile:
    """Profile curve with its first two derivatives and the chart bounds.

    ``spec`` is the surface object a scenario file would carry, e.g.
    ``{"kind": "torus", "R": 2.0, "r": 0.7}``; ``derivs(u)`` returns
    ``(phi, phi', phi'', psi, psi', psi'')`` for scalar or array ``u``.
    """

    def __init__(self, spec):
        self.spec = dict(spec)
        kind = spec["kind"]
        self.kind = kind
        if kind == "sphere":
            R = spec["radius"]
            self.u_min, self.u_max = 0.0, math.pi
            self.derivs = lambda u: (R * np.sin(u), R * np.cos(u),
                                     -R * np.sin(u), R * np.cos(u),
                                     -R * np.sin(u), -R * np.cos(u))
        elif kind == "cylinder":
            R = spec["radius"]
            self.u_min, self.u_max = -20.0, 20.0
            self.derivs = lambda u: (R + 0 * u, 0 * u, 0 * u, u, 1 + 0 * u,
                                     0 * u)
        elif kind == "cone":
            s = spec["slope"]
            self.u_min, self.u_max = 0.0, 20.0
            self.derivs = lambda u: (u, 1 + 0 * u, 0 * u, s * u, s + 0 * u,
                                     0 * u)
        elif kind == "paraboloid":
            a = spec["a"]
            self.u_min, self.u_max = 0.0, 10.0
            self.derivs = lambda u: (u, 1 + 0 * u, 0 * u, u * u / (2 * a),
                                     u / a, 1 / a + 0 * u)
        elif kind == "catenoid":
            a = spec["a"]
            self.u_min, self.u_max = -3.0 * a, 3.0 * a
            self.derivs = lambda u: (a * np.cosh(u / a), np.sinh(u / a),
                                     np.cosh(u / a) / a, u, 1 + 0 * u, 0 * u)
        elif kind == "torus":
            R, r = spec["R"], spec["r"]
            self.u_min, self.u_max = -4.0 * math.pi, 4.0 * math.pi
            self.derivs = lambda u: (R + r * np.cos(u), -r * np.sin(u),
                                     -r * np.cos(u), r * np.sin(u),
                                     r * np.cos(u), -r * np.sin(u))
        elif kind == "custom":
            rows = np.asarray(spec["samples"], dtype=float)
            phi = CubicSpline(rows[:, 0], rows[:, 1], bc_type="not-a-knot")
            psi = CubicSpline(rows[:, 0], rows[:, 2], bc_type="not-a-knot")
            self.u_min, self.u_max = float(rows[0, 0]), float(rows[-1, 0])
            knots = phi.x.tolist()
            coef = [(phi.c[:, i].tolist(), psi.c[:, i].tolist())
                    for i in range(len(knots) - 1)]

            def derivs(u):
                if np.ndim(u):
                    return (phi(u), phi(u, 1), phi(u, 2), psi(u), psi(u, 1),
                            psi(u, 2))
                # scalar u, as the ODE right-hand side asks: Horner on the
                # piece's coefficients, ten times faster than six spline calls
                i = min(max(bisect.bisect_right(knots, u) - 1, 0), len(coef) - 1)
                t = u - knots[i]
                out = []
                for a, b, c, d in coef[i]:
                    out += [((a * t + b) * t + c) * t + d,
                            (3.0 * a * t + 2.0 * b) * t + c, 6.0 * a * t + 2.0 * b]
                return tuple(out)

            self.derivs = derivs
        else:
            raise ValueError(f"no reference profile for {kind!r}")

    def metric(self, u):
        """``(E, G, E_u, G_u)`` at ``u``."""
        ph, dph, d2ph, _, dps, d2ps = self.derivs(u)
        return (dph * dph + dps * dps, ph * ph,
                2.0 * (dph * d2ph + dps * d2ps), 2.0 * ph * dph)

    def embed(self, u, v):
        ph, _, _, ps, _, _ = self.derivs(u)
        return np.array([float(ph) * math.cos(v), float(ph) * math.sin(v),
                         float(ps)])

    def chart_gap(self, u, v, u_ref, v_ref):
        """Metric length of a small chart offset, measured at ``u_ref``;
        ``v`` is compared modulo 2 pi."""
        E, G, _, _ = self.metric(u_ref)
        dv = math.remainder(v - v_ref, 2.0 * math.pi)
        return math.hypot(math.sqrt(E) * (u - u_ref), math.sqrt(G) * dv)


def _rhs(profile):
    def f(_s, y):
        u, _v, du, dv = y
        E, G, E_u, G_u = profile.metric(u)
        return (du, dv, (-E_u * du * du + G_u * dv * dv) / (2.0 * E),
                -(G_u / G) * du * dv)
    return f


def geodesic_end(profile, u0, v0, theta, length, margin=EDGE_MARGIN):
    """Endpoint ``(u, v)`` of the unit-speed geodesic from ``(u0, v0)`` at
    heading ``theta``, or None when the trajectory comes within ``margin``
    of the chart edge or the rotation axis."""
    E0, G0, _, _ = profile.metric(u0)
    y0 = [u0, v0, math.sin(theta) / math.sqrt(E0),
          math.cos(theta) / math.sqrt(G0)]
    lo, hi = profile.u_min + margin, profile.u_max - margin

    def below(_s, y):
        return y[0] - lo

    def above(_s, y):
        return hi - y[0]

    def axis(_s, y):
        return float(profile.derivs(y[0])[0]) - max(margin, 1e-6)

    events = [below, above, axis]
    for ev in events:
        ev.terminal = True
    sol = solve_ivp(_rhs(profile), (0.0, length), y0, method="DOP853",
                    rtol=RTOL, atol=ATOL, events=events)
    if sol.status != 0:
        return None
    return float(sol.y[0, -1]), float(sol.y[1, -1])


def heading_sensitivity(profile, u0, v0, theta, length, d_theta=1e-6):
    """|d X_end / d theta|: how far the embedded endpoint moves per radian
    of launch heading (the Jacobi field at the end), by a central
    difference of two reference shots; None when either leaves the chart."""
    ends = [geodesic_end(profile, u0, v0, theta + s * d_theta, length,
                         margin=0.0) for s in (1.0, -1.0)]
    if None in ends:
        return None
    return float(np.linalg.norm(profile.embed(*ends[0])
                                - profile.embed(*ends[1]))) / (2.0 * d_theta)


def sphere_meridian_end(radius, u0, v0, sigma, length):
    """Embedded endpoint of a sphere meridian launched toward increasing
    (``sigma = 1``) or decreasing (``sigma = -1``) colatitude; it may pass
    through either pole."""
    c = u0 + sigma * length / radius
    return radius * np.array([math.sin(c) * math.cos(v0),
                              math.sin(c) * math.sin(v0), math.cos(c)])


def great_circle(radius, a, b):
    """Great-circle distance between chart points ``(u, v)`` (colatitude,
    longitude) on a sphere."""
    pa = np.array([math.sin(a[0]) * math.cos(a[1]),
                   math.sin(a[0]) * math.sin(a[1]), math.cos(a[0])])
    pb = np.array([math.sin(b[0]) * math.cos(b[1]),
                   math.sin(b[0]) * math.sin(b[1]), math.cos(b[0])])
    return radius * math.atan2(float(np.linalg.norm(np.cross(pa, pb))),
                               float(pa @ pb))


def cylinder_distance(radius, a, b, windings=(-1, 0, 1)):
    """Shortest unrolled-strip length over the given windings."""
    du = b[0] - a[0]
    return min(math.hypot(du, radius * (b[1] - a[1] + 2.0 * math.pi * k))
               for k in windings)


def sector_angles(weights):
    """Weight-determined sector angles (phi_12, phi_23, phi_31) of an
    interior tree: the angle between branches i and j is
    ``arccos((b_k^2 - b_i^2 - b_j^2) / (2 b_i b_j))``."""
    b1, b2, b3 = weights

    def ang(bi, bj, bk):
        return math.acos((bk * bk - bi * bi - bj * bj) / (2.0 * bi * bj))

    return ang(b1, b2, b3), ang(b2, b3, b1), ang(b3, b1, b2)
