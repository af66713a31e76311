"""Weighted Fermat-Torricelli trees with three terminals.

Given terminals A1, A2, A3 on a surface and positive weights b1, b2, b3,
the branching point A0 minimises ``f(P) = sum_i b_i d(P, A_i)`` over the
surface.  When the weights satisfy the strict triangle inequalities and
the balance test below passes, A0 is interior and the three branch
departure directions balance: ``sum_i b_i U_i = 0`` with U_i the unit
tangent at A0 toward A_i.  The sector angles between branches then depend
on the weights alone:

    angle between branches i and j = arccos((b_k^2 - b_i^2 - b_j^2) / (2 b_i b_j))

and conversely the normalised weights are recovered from measured sector
angles through the law of sines (each weight is proportional to the sine
of the sector opposite its branch).

The solver is a Riemannian descent: the residual ``R = sum b_i U_i`` is
the negative gradient of f wherever the minimal geodesics are unique, so
stepping along R with an Armijo backtracking line search decreases f
monotonically until the balance residual is below tolerance.
"""

import math
from dataclasses import dataclass, field

from .connect import ConnectOptions, connect_geodesic, connect_geodesics
from .errors import (ChartExitError, DegenerateTreeError, OffChartError,
                     SolveError, WeightDomainError)
from .geodesics import shoot
from .surfaces import ProfileSurface, SurfacePoint, TWO_PI

__all__ = [
    "WeightTriple",
    "FloatingTest",
    "FermatOptions",
    "FermatResult",
    "sector_angles_from_weights",
    "weights_from_sector_angles",
    "sector_partition",
    "measure_sector_angles",
    "floating_test",
    "solve_fermat",
]

_MAX_BACKTRACKS = 60     # step halvings per descent line search
_ARMIJO = 1e-4           # sufficient-decrease factor of the line search


@dataclass(frozen=True)
class WeightTriple:
    """Three positive weights, one per terminal."""

    b1: float
    b2: float
    b3: float

    def __post_init__(self):
        for name, b in zip(("b1", "b2", "b3"), self.astuple()):
            if not (math.isfinite(b) and b > 0.0):
                raise WeightDomainError(f"{name} must be positive, got {b!r}")

    def astuple(self):
        return (self.b1, self.b2, self.b3)

    @property
    def total(self) -> float:
        return self.b1 + self.b2 + self.b3

    def normalized(self):
        t = self.total
        return (self.b1 / t, self.b2 / t, self.b3 / t)


def as_weights(w) -> WeightTriple:
    if isinstance(w, WeightTriple):
        return w
    b1, b2, b3 = w
    return WeightTriple(float(b1), float(b2), float(b3))


def sector_angles_from_weights(weights):
    """Interior-tree sector angles (phi_12, phi_23, phi_31) from weights.

    Raises WeightDomainError naming the dominant weight when the
    configuration admits no interior branching point (some arccos argument
    leaves (-1, 1), exactly the failure of a strict triangle inequality).
    """
    b1, b2, b3 = as_weights(weights).astuple()

    def ang(bi, bj, bk):
        arg = (bk * bk - bi * bi - bj * bj) / (2.0 * bi * bj)
        if not -1.0 < arg < 1.0:
            dom = 1 + max(range(3), key=lambda i: (b1, b2, b3)[i])
            raise WeightDomainError(
                f"vertex regime: weight b{dom} dominates, no interior tree",
                dominant=dom - 1)
        return math.acos(arg)

    return ang(b1, b2, b3), ang(b2, b3, b1), ang(b3, b1, b2)


def weights_from_sector_angles(angles, total: float = 1.0) -> WeightTriple:
    """Unique positive weights reproducing the given sector angles.

    ``angles`` are (phi_12, phi_23, phi_31), each in (0, pi), summing to
    2*pi.  Each weight is proportional to the sine of the opposite sector;
    the triple is scaled so the weights sum to ``total``.
    """
    phi_12, phi_23, phi_31 = (float(a) for a in angles)
    if total <= 0.0:
        raise WeightDomainError(f"total must be positive, got {total!r}")
    for name, a in (("angles[0]", phi_12), ("angles[1]", phi_23),
                    ("angles[2]", phi_31)):
        if not 0.0 < a < math.pi:
            raise WeightDomainError(
                f"{name} = {a!r} outside (0, pi); weights would not be positive")
    if abs(phi_12 + phi_23 + phi_31 - TWO_PI) > 1e-9:
        raise WeightDomainError(
            f"sector angles sum to {phi_12 + phi_23 + phi_31!r}, expected 2*pi")
    s12, s23, s31 = math.sin(phi_12), math.sin(phi_23), math.sin(phi_31)
    den = s12 + s23 + s31
    return WeightTriple(total * s23 / den, total * s31 / den, total * s12 / den)


def sector_partition(headings):
    """Sector angles (phi_12, phi_23, phi_31) of three branch headings.

    Each sector is the angle between two branches on the side not
    containing the third; the three sum to 2*pi by construction.
    """
    t1, t2, t3 = headings
    d2 = (t2 - t1) % TWO_PI
    d3 = (t3 - t1) % TWO_PI
    if min(d2, d3, abs(d2 - d3)) < 1e-12 or max(d2, d3) > TWO_PI - 1e-12:
        raise DegenerateTreeError("two branch directions coincide")
    if d2 < d3:
        phi_12 = d2
        phi_23 = d3 - d2
        phi_31 = TWO_PI - d3
    else:
        phi_31 = d3
        phi_23 = d2 - d3
        phi_12 = TWO_PI - d2
    return phi_12, phi_23, phi_31


def measure_sector_angles(surface: ProfileSurface, center: SurfacePoint,
                          points, opts: ConnectOptions | None = None):
    """Sector angles at ``center`` between the geodesic branches to three
    points, from the connect departure headings."""
    points = list(points)
    if any(p.u == center.u and p.v == center.v for p in points):
        raise DegenerateTreeError("a terminal coincides with the center")
    paths = connect_geodesics(surface, [(center, p) for p in points], opts)
    return sector_partition([path.theta_start for path in paths])


@dataclass(frozen=True)
class FloatingTest:
    """Outcome of the interior-versus-vertex regime test.

    ``margins[i]`` is ``|b_j U_ij + b_k U_ik| - b_i`` evaluated at terminal
    i with unit departure tangents toward the other two terminals; the
    minimiser is interior exactly when every margin is positive.
    ``arcs[i, j]`` (i < j) is the geodesic from terminal i to terminal j;
    the tangent at j toward i is its reversed end heading.
    """

    mode: str                    # "interior" or "vertex"
    vertex_index: int | None     # 0-based, set in vertex mode
    margins: tuple
    arcs: dict


def floating_test(surface: ProfileSurface, points, weights,
                  opts: ConnectOptions | None = None) -> FloatingTest:
    """Decide whether the weighted minimiser is interior or sits at a
    terminal, from the weighted unit-tangent inequalities."""
    b = as_weights(weights).astuple()
    pts = list(points)
    if len(pts) != 3:
        raise ValueError("exactly three terminals are required")
    for i in range(3):
        for j in range(i + 1, 3):
            if pts[i].u == pts[j].u and pts[i].v == pts[j].v:
                raise DegenerateTreeError("terminals must be pairwise distinct")

    keys = [(0, 1), (0, 2), (1, 2)]
    arcs = dict(zip(keys, connect_geodesics(
        surface, [(pts[i], pts[j]) for i, j in keys], opts)))
    tangents = {}
    for (i, j), arc in arcs.items():
        tangents[i, j] = arc.start_unit_tangent()
        back = arc.reversed_heading()
        tangents[j, i] = (math.cos(back), math.sin(back))

    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        tj, tk = tangents[i, j], tangents[i, k]
        cross = tj[0] * tk[1] - tj[1] * tk[0]
        if abs(cross) <= 1e-9:
            raise DegenerateTreeError(
                "terminals lie on one geodesic (departure tangents are "
                f"parallel at terminal {i + 1})")

    margins = []
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        tj, tk = tangents[i, j], tangents[i, k]
        pull = math.hypot(b[j] * tj[0] + b[k] * tk[0],
                          b[j] * tj[1] + b[k] * tk[1])
        margins.append(pull - b[i])

    worst = min(range(3), key=lambda i: margins[i])
    if margins[worst] > 0.0:
        return FloatingTest("interior", None, tuple(margins), arcs)
    return FloatingTest("vertex", worst, tuple(margins), arcs)


@dataclass(frozen=True)
class FermatOptions:
    grad_tol: float | None = None      # default 1e-8 * (b1 + b2 + b3)
    angle_tol: float = 1e-5
    max_iter: int = 500
    initial: SurfacePoint | None = None
    connect: ConnectOptions = field(
        default_factory=lambda: ConnectOptions(resid_tol=1e-12))

    def __post_init__(self):
        if self.grad_tol is not None and not self.grad_tol > 0.0:
            raise ValueError("grad_tol must be positive")
        if not self.angle_tol > 0.0:
            raise ValueError("angle_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class FermatResult:
    """Solution of the weighted three-terminal problem.

    In interior mode ``residual`` is the final balance norm
    ``|sum b_i U_i|`` and ``sector_angles`` the measured branch sectors.
    In vertex mode the minimiser is the named terminal, ``residual`` is
    the margin by which the balance inequality fails there, and
    ``sector_angles`` is None.
    """

    point: SurfacePoint
    branches: tuple
    f_value: float
    residual: float
    sector_angles: tuple | None
    mode: str
    vertex_index: int | None
    iterations: int
    f_history: tuple


def _initial_point(surface, pts, weights):
    b = weights.astuple()
    total = sum(b)
    v0 = pts[0].v
    vs = []
    for p in pts:
        dv = math.remainder(p.v - v0, TWO_PI)
        vs.append(v0 + dv)
    u = sum(bi * p.u for bi, p in zip(b, pts)) / total
    v = sum(bi * vv for bi, vv in zip(b, vs)) / total
    u = min(max(u, surface.u_min), surface.u_max)
    p = SurfacePoint(u, v)
    if not surface.on_chart(u):
        raise SolveError(
            "default initial point falls outside the chart; "
            "pass FermatOptions(initial=...)")
    return p


def _branch_data(surface, p, pts, warm, opts):
    """Connect p to each terminal and return the paths: cold in one batch,
    or from the warm starts ``warm[i]`` (a start that fails to converge
    falls back to a cold connect)."""
    if warm is None:
        return connect_geodesics(surface, [(p, t) for t in pts], opts.connect)
    return [connect_geodesic(surface, p, t, opts.connect, initial=init)
            for t, init in zip(pts, warm)]


def _residual(paths, b):
    tangents = [path.start_unit_tangent() for path in paths]
    r_par = sum(bi * t[0] for bi, t in zip(b, tangents))
    r_mer = sum(bi * t[1] for bi, t in zip(b, tangents))
    return r_par, r_mer


def _polish_balance(surface, p, pts, b, paths, grad_tol, opts):
    """Damped quasi-Newton on the balance residual R(p) = sum b_i U_i.

    The descent phase stalls once objective differences fall below the
    geodesic-length noise floor; the residual, read from departure
    headings, stays accurate far deeper, so the endgame solves R = 0
    directly with a finite-difference Jacobian in chart coordinates.
    """
    def r_at(q, warm):
        qp = _branch_data(surface, q, pts, warm, opts)
        return _residual(qp, b), qp

    (r1, r2), paths = r_at(p, [(pa.theta_start, pa.length) for pa in paths])
    r_norm = math.hypot(r1, r2)
    for _ in range(30):
        if r_norm <= grad_tol:
            return p, paths, r_norm
        E, G, _, _, _ = surface.metric_terms(p.u)
        fd_u = 1e-6 / math.sqrt(E)
        if not surface.on_chart(p.u + fd_u):
            fd_u = -fd_u
        fd_v = 1e-6 / math.sqrt(G)
        warm = [(pa.theta_start, pa.length) for pa in paths]
        try:
            (a1, a2), _ = r_at(SurfacePoint(p.u + fd_u, p.v), warm)
            (c1, c2), _ = r_at(SurfacePoint(p.u, p.v + fd_v), warm)
        except (SolveError, ChartExitError, OffChartError):
            break
        j11, j21 = (a1 - r1) / fd_u, (a2 - r2) / fd_u
        j12, j22 = (c1 - r1) / fd_v, (c2 - r2) / fd_v
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            break
        du = (-r1 * j22 + r2 * j12) / det
        dv = (-j11 * r2 + j21 * r1) / det
        lam = 1.0
        moved = False
        for _halve in range(12):
            q = SurfacePoint(p.u + lam * du, p.v + lam * dv)
            if surface.on_chart(q.u):
                try:
                    (n1, n2), q_paths = r_at(q, warm)
                except (SolveError, ChartExitError, OffChartError):
                    lam *= 0.5
                    continue
                n_norm = math.hypot(n1, n2)
                if n_norm <= (1.0 - 1e-4 * lam) * r_norm:
                    p, paths, r1, r2, r_norm = q, q_paths, n1, n2, n_norm
                    moved = True
                    break
            lam *= 0.5
        if not moved:
            break
    return p, paths, r_norm


def _vertex_branch(surface, pts, arcs, i, j, opts):
    """Branch from the vertex terminal i to terminal j, taken from the
    floating test's arcs; an arc stored toward i is re-shot from i at its
    reversed end heading."""
    if j == i:
        return shoot(surface, pts[i], 0.0, 0.0)
    if i < j:
        return arcs[i, j]
    arc = arcs[j, i]
    path = shoot(surface, pts[i], arc.reversed_heading(), arc.length,
                 opts.shoot_tol)
    path.winding = -arc.winding
    path.ambiguous = arc.ambiguous
    return path


def solve_fermat(surface: ProfileSurface, points, weights,
                 opts: FermatOptions | None = None) -> FermatResult:
    """Locate the weighted Fermat-Torricelli point of three terminals.

    Runs the interior-versus-vertex test first; in the vertex regime the
    winning terminal is returned directly.  Otherwise a Riemannian descent
    on ``f = sum b_i d(P, A_i)`` iterates until the balance residual
    ``|sum b_i U_i|`` drops below ``grad_tol``; the accepted objective
    values decrease monotonically (Armijo backtracking).
    """
    opts = opts or FermatOptions()
    w = as_weights(weights)
    b = w.astuple()
    pts = [surface.check_point(p) for p in points]
    grad_tol = opts.grad_tol if opts.grad_tol is not None else 1e-8 * w.total

    regime = floating_test(surface, pts, w, opts.connect)
    if regime.mode == "vertex":
        i = regime.vertex_index
        # the floating test already connected the winner to the others
        branches = [_vertex_branch(surface, pts, regime.arcs, i, j,
                                   opts.connect) for j in range(3)]
        f_val = sum(b[j] * branches[j].length for j in range(3) if j != i)
        return FermatResult(pts[i], tuple(branches), f_val,
                            -regime.margins[i], None, "vertex", i, 0, (f_val,))

    p = opts.initial or _initial_point(surface, pts, w)
    paths = _branch_data(surface, p, pts, None, opts)
    f_cur = sum(bi * path.length for bi, path in zip(b, paths))
    history = [f_cur]
    # step per unit residual; self-calibrates against the local curvature
    gamma = 2.0 * min(path.length for path in paths) / w.total
    # below this residual, objective differences drown in geodesic-length
    # noise: hand over to the balance polish
    switch = max(1e-4 * w.total, grad_tol)

    for iteration in range(opts.max_iter):
        r_par, r_mer = _residual(paths, b)
        r_norm = math.hypot(r_par, r_mer)
        if r_norm <= grad_tol:
            break
        if r_norm <= switch:
            p, paths, r_norm = _polish_balance(surface, p, pts, b, paths,
                                               grad_tol, opts)
            if r_norm <= grad_tol:
                break
            raise SolveError(
                f"balance polish stalled at residual {r_norm:.3e} "
                f"(tolerance {grad_tol:.3e})")
        theta_step = math.atan2(r_mer, r_par)
        min_len = min(path.length for path in paths)
        lam = min(0.1 * min_len, gamma * r_norm)
        lam0 = lam
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            try:
                trial = shoot(surface, p, theta_step, lam,
                              opts.connect.shoot_tol).end()
                surface.check_point(trial)
                warm_guess = [(path.theta_start, path.length) for path in paths]
                trial_paths = _branch_data(surface, trial, pts, warm_guess, opts)
            except (SolveError, ChartExitError, OffChartError):
                lam *= 0.5
                continue
            f_trial = sum(bi * path.length
                          for bi, path in zip(b, trial_paths))
            if f_trial <= f_cur - _ARMIJO * lam * r_norm:
                p, paths, f_cur = trial, trial_paths, f_trial
                history.append(f_cur)
                gamma = (1.6 * gamma) if lam == lam0 else (lam / r_norm)
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            p, paths, r_norm = _polish_balance(surface, p, pts, b, paths,
                                               grad_tol, opts)
            if r_norm <= grad_tol:
                break
            raise SolveError(
                f"line search exhausted {_MAX_BACKTRACKS} halvings at "
                f"residual {r_norm:.3e}")
    else:
        raise SolveError(
            f"no convergence in {opts.max_iter} iterations "
            f"(residual {r_norm:.3e}, tolerance {grad_tol:.3e})")
    f_cur = sum(bi * path.length for bi, path in zip(b, paths))

    sectors = sector_partition([path.theta_start for path in paths])
    expected = sector_angles_from_weights(w)
    worst = max(abs(a - e) for a, e in zip(sectors, expected))
    if worst > opts.angle_tol:
        raise SolveError(
            f"balance converged but sector angles deviate by {worst:.3e} rad "
            f"from the weight-determined values (tolerance {opts.angle_tol})")

    return FermatResult(p, tuple(paths), f_cur, r_norm, sectors,
                        "interior", None, iteration + 1, tuple(history))
