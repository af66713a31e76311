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

The solve starts at the heaviest terminal A_i, where the floating test's
arcs map the terminals into the tangent plane, to ``{0, L_ij U_ij,
L_ik U_ik}``; the first step aims at their weighted Fermat point for the
normal-coordinate distance to second order in the mean curvature K of the
terminals, ``|y - z|^2 - (K / 3) Im(conj(y) z)^2``, or for the planar
distance when the triangle is too wide for that expansion.
It then iterates on the residual ``R = sum b_i U_i``, the negative
gradient of f wherever the minimal geodesics are unique.  Each step is
the Newton step of the exact Hessian ``sum b_i (m2_i / m1_i)(I - U_i U_i^T)``,
with ``m1``, ``m2`` the Jacobi scalars at the end of branch i (``1 / L_i``
on a flat surface, ``cot L_i`` on the unit sphere), or, when that fails
to lower ``|R|``, the Weiszfeld step ``R / sum(b_i / L_i)`` halved until
f drops.

After a step d from P to Q, each branch is re-connected warm, from the
prediction of its new start rather than its old one.  With U_i the
branch's unit departure tangent at P, N_i that tangent turned by +pi/2
and ``z_i = L_i U_i`` its terminal in P's tangent plane, the new start
is the planar one, heading ``arg(z_i - d)`` and length ``|z_i - d|``,
with the heading turned by ``-(m2_i / m1_i - 1 / L_i) <N_i, d>``, the
curvature's share of the Jacobi field, and by the turn of the chart
frame along the step shot, its ``theta_end - theta_start``.  The Jacobi
scalars of each branch are computed once per accepted point and shared
by its Newton step and by the prediction of every trial from it.
"""

import cmath
import math
from dataclasses import dataclass, replace

from .connect import ConnectOptions, connect_geodesic, connect_geodesics
from .errors import (ChartExitError, DegenerateTreeError, OffChartError,
                     SolveError, WeightDomainError)
from .geodesics import shoot
from .surfaces import ProfileSurface, SurfacePoint, TWO_PI

__all__ = [
    "WeightTriple",
    "FloatingTest",
    "FermatResult",
    "sector_angles_from_weights",
    "weights_from_sector_angles",
    "sector_partition",
    "measure_sector_angles",
    "floating_test",
    "solve_fermat",
]

_MAX_BACKTRACKS = 60     # halvings of a Weiszfeld step
_WEISZFELD_ITER = 100    # Weiszfeld iterations of the first step's aim
_MAX_ITER = 500          # accepted steps of the interior solve
_ANGLE_TOL = 1e-5        # converged sector angles against the weights' (rad)
_RESID_TOL = 1e-12       # loosest connect residual of a solve's branches


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
        (b1, b2, b3), _ = unit_weights(self)
        t = b1 + b2 + b3
        return (b1 / t, b2 / t, b3 / t)


def as_weights(w) -> WeightTriple:
    if isinstance(w, WeightTriple):
        return w
    b1, b2, b3 = w
    return WeightTriple(float(b1), float(b2), float(b3))


def unit_weights(weights):
    """The weights over ``2**e`` and e, the largest's exponent rounded up
    to even, so the largest lands in [0.25, 1) and no product of three
    overflows.  The exact scaling leaves any value of their ratios alone,
    and the square root of a product of them, bit for bit the same."""
    b = as_weights(weights).astuple()
    e = 2 * math.ceil(math.frexp(max(b))[1] / 2)
    return tuple(math.ldexp(bi, -e) for bi in b), e


def sector_angles_from_weights(weights):
    """Interior-tree sector angles (phi_12, phi_23, phi_31) from weights.

    Raises WeightDomainError naming the dominant weight when the
    configuration admits no interior branching point (some arccos argument
    leaves (-1, 1), exactly the failure of a strict triangle inequality).
    """
    (b1, b2, b3), _ = unit_weights(weights)

    def ang(bi, bj, bk):
        # a product that underflows to 0 leaves no interior tree
        arg = (bk * bk - bi * bi - bj * bj) / (2.0 * bi * bj or math.nan)
        if not -1.0 < arg < 1.0:
            dom = 1 + max(range(3), key=lambda i: (b1, b2, b3)[i])
            raise WeightDomainError(
                f"vertex regime: weight b{dom} dominates, no interior tree")
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
    if any(p.coincides(center) for p in points):
        raise DegenerateTreeError("a terminal coincides with the center")
    paths = connect_geodesics(surface, [(center, p) for p in points], opts)
    return sector_partition([path.theta_start for path in paths])


@dataclass(frozen=True)
class FloatingTest:
    """Outcome of the interior-versus-vertex regime test.

    ``margins[i]`` is ``|b_j U_ij + b_k U_ik| - b_i`` evaluated at terminal
    i with unit departure tangents toward the other two terminals; the
    minimiser is interior exactly when every margin is positive.  In
    vertex mode ``vertex_index`` is the terminal of least f among those
    whose margin is at most 0.
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
            if pts[i].coincides(pts[j]):
                raise DegenerateTreeError("terminals must be pairwise distinct")

    keys = [(0, 1), (0, 2), (1, 2)]
    arcs = dict(zip(keys, connect_geodesics(
        surface, [(pts[i], pts[j]) for i, j in keys], opts)))
    tangents = {}
    for (i, j), arc in arcs.items():
        tangents[i, j] = arc.start_unit_tangent()
        back = arc.reversed_heading()
        tangents[j, i] = (math.cos(back), math.sin(back))

    margins = []
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        tj, tk = tangents[i, j], tangents[i, k]
        if abs(tj[0] * tk[1] - tj[1] * tk[0]) <= 1e-9:
            raise DegenerateTreeError(
                "terminals lie on one geodesic (departure tangents are "
                f"parallel at terminal {i + 1})")
        pull = math.hypot(b[j] * tj[0] + b[k] * tk[0],
                          b[j] * tj[1] + b[k] * tk[1])
        margins.append(pull - b[i])

    vertices = [i for i in range(3) if margins[i] <= 0.0]
    if not vertices:
        return FloatingTest("interior", None, tuple(margins), arcs)

    def f(i):       # b_j L_ij + b_k L_ik, from the arcs in hand
        return sum(b[j] * arcs[min(i, j), max(i, j)].length
                   for j in range(3) if j != i)

    # on a curved surface several terminals can pass the vertex test
    return FloatingTest("vertex", min(vertices, key=f), tuple(margins), arcs)


@dataclass
class FermatResult:
    """Solution of the weighted three-terminal problem.

    In interior mode ``residual`` is the final balance norm
    ``|sum b_i U_i|`` and ``sector_angles`` the measured branch sectors.
    In vertex mode the minimiser is the named terminal, ``residual`` is
    the margin by which the balance inequality fails there, and
    ``sector_angles`` is None.

    ``f_history`` holds f at the start and after each accepted step, and
    ``iterations`` counts those steps.  Branch lengths, and so f, are
    accurate to the length noise ``(b1 + b2 + b3) * resid_tol``.  A Newton
    step lowers ``|R|`` and raises f by at most that noise.  A Weiszfeld
    step strictly lowers f wherever its predicted drop, its length times
    ``|R| / 2``, exceeds the noise; below it, where no drop can show, it
    lowers ``|R|`` and raises f by at most the noise.  So f never rises
    by more than the noise in one step.
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


def _predicted_start(path, jac, d_par, d_mer, turn):
    """Start ``(theta, length)`` of the branch ``path`` from P once P moves
    by ``d = (d_par, d_mer)``, in the unit frame at P, along a step shot
    whose chart frame turns by ``turn``.

    The terminal sits at ``z = L U`` in P's tangent plane, so the planar
    start is the heading of ``z - d`` and the length ``|z - d|``; both are
    exact on a flat surface.  The Jacobi field that vanishes at the
    terminal and equals ``<N, d>`` at P has slope ``-(m2 / m1) <N, d>``
    there (``jac`` is ``path.jacobi()``), against ``-<N, d> / L`` in the
    plane, so the heading turns by the difference ``-(m2 / m1 - 1 / L)
    <N, d>`` more; ``turn`` carries it into the chart frame at the moved
    point.  A branch at or past its conjugate point (``m1 <= 0``) keeps its
    old heading, and its length drops by ``<U, d>``.  A branch of length
    0, to the point the step leaves, has z = 0: it is the step reversed."""
    length = path.length
    t_par, t_mer = path.start_unit_tangent()
    gap = complex(length * t_par - d_par, length * t_mer - d_mer)    # z - d
    if not length > 0.0:
        return cmath.phase(gap) + turn, abs(gap)
    m1, _, m2, _ = jac
    if not m1 > 0.0:
        return path.theta_start, length - (t_par * d_par + t_mer * d_mer)
    normal = t_par * d_mer - t_mer * d_par
    return (cmath.phase(gap) - (m2 / m1 - 1.0 / length) * normal + turn,
            abs(gap))


def _residual(paths, b):
    tangents = [path.start_unit_tangent() for path in paths]
    r_par = sum(bi * t[0] for bi, t in zip(b, tangents))
    r_mer = sum(bi * t[1] for bi, t in zip(b, tangents))
    return r_par, r_mer


def _newton_step(paths, jac, b, r_par, r_mer):
    """Solve ``H d = R`` for the Hessian of f at P,
    ``H = sum b_i (m2_i / m1_i)(I - U_i U_i^T)`` in the unit frame, where
    ``m2_i / m1_i`` is the curvature of the distance circle about A_i
    through P (``jac[i]``, the ``GeodesicPath.jacobi`` of the branch from
    P).  None when H is not positive definite (all branches leave along
    one geodesic, or a branch nears or passes its conjugate point) or the
    step overflows."""
    h11 = h12 = h22 = 0.0
    for bi, path, (m1, _, m2, _) in zip(b, paths, jac):
        if not m1 > 0.0:
            return None
        k = bi * m2 / m1
        t_par, t_mer = path.start_unit_tangent()
        h11 += k * (1.0 - t_par * t_par)
        h12 -= k * t_par * t_mer
        h22 += k * (1.0 - t_mer * t_mer)
    det = h11 * h22 - h12 * h12
    if not (det > 0.0 and h11 > 0.0):
        return None
    d = (h22 * r_par - h12 * r_mer) / det, (h11 * r_mer - h12 * r_par) / det
    return d if math.isfinite(math.hypot(*d)) else None


def _trial(surface, p, theta, length, pts, warm, b, opts):
    """Shoot from p and connect the end point q to each terminal, warm
    from ``warm = (paths, jac)``, the branches at p and their Jacobi
    scalars: each aims at the copy of the terminal its branch reached,
    from where ``_predicted_start`` puts it, bounded by the step shot
    reversed plus the old branch; it reads no chord, and falls back to a
    cold connect if it fails.  Returns ``(point, paths, f)``, or None
    when q leaves the chart, lands on a terminal or fails to connect."""
    try:
        step = shoot(surface, p, theta, length, opts.shoot_tol)
        q = step.end()
        surface.check_point(q)
        if any(q.coincides(t) for t in pts):
            return None
        d_par, d_mer = length * math.cos(theta), length * math.sin(theta)
        # both headings lie in [-pi, pi]; wrapped, their difference is the
        # small turn, not the turn plus or minus 2 pi
        turn = math.remainder(step.theta_end - step.theta_start, TWO_PI)
        paths = []
        for t, path, jac in zip(pts, *warm):
            start = _predicted_start(path, jac, d_par, d_mer, turn)
            got = connect_geodesic(
                surface, q, SurfacePoint(t.u, t.v + TWO_PI * path.winding),
                opts, initial=(*start, path.length + length))
            got.winding += path.winding
            paths.append(got)
    except (SolveError, ChartExitError, OffChartError):
        return None
    return q, paths, sum(bi * path.length for bi, path in zip(b, paths))


def _noise_step(step, f_cur, f_noise, r_norm, b):
    """Whether a trial whose drop of f the length noise can hide is taken:
    f rises by at most ``f_noise`` and ``|R|`` falls below ``r_norm``."""
    return (step is not None and step[2] <= f_cur + f_noise
            and math.hypot(*_residual(step[1], b)) < r_norm)


def _descend(surface, p, theta, lam, f_cur, r_norm, pts, warm, b, opts):
    """Trial step of length lam, halved until f strictly drops below
    f_cur.  A trial of length t whose predicted drop ``t |R| / 2`` is at
    most the length noise cannot show that drop, and is taken by the rule
    of ``_noise_step`` instead.  ``r_norm`` is ``|R|`` at p; the first
    step, from a terminal where R is undefined, passes infinity, so only a
    strict drop counts there."""
    f_noise = sum(b) * opts.resid_tol
    for halving in range(_MAX_BACKTRACKS):
        length = lam * 0.5 ** halving
        step = _trial(surface, p, theta, length, pts, warm, b, opts)
        if step is not None and step[2] < f_cur:
            return step
        if (0.5 * length * r_norm <= f_noise
                and _noise_step(step, f_cur, f_noise, r_norm, b)):
            return step
    raise SolveError(
        f"Weiszfeld step of length {lam:.3e} lowers f below {f_cur:.12g} "
        f"in none of {_MAX_BACKTRACKS} halvings")


def _tangent_fermat_point(zs, b, k3):
    """The weighted Fermat point of ``zs`` in a tangent plane, taken as the
    complex plane, by Weiszfeld's iteration from their weighted centroid.
    The distance is the normal-coordinate one to second order in the
    curvature, ``D_j(y) = sqrt(|y - z_j|^2 - (K / 3) c_j^2)`` with ``c_j =
    Im(conj(y) z_j)`` and ``k3 = K / 3``.  Setting the gradient of ``sum
    b_j D_j`` to 0 gives the update ``y = sum w_j z_j (1 - i k3 c_j) / sum
    w_j``, ``w_j = b_j / D_j``; with ``k3 = 0`` it is the planar one."""
    y = sum(bj * z for bj, z in zip(b, zs)) / sum(b)
    for _ in range(_WEISZFELD_ITER):
        if y in zs:
            break
        cs = [(y.conjugate() * z).imag for z in zs]
        w = [bj / math.sqrt(abs(y - z) ** 2 - k3 * c * c)
             for bj, z, c in zip(b, zs, cs)]
        y, y_old = sum(wj * z * complex(1.0, -k3 * c)
                       for wj, z, c in zip(w, zs, cs)) / sum(w), y
        if abs(y - y_old) <= 1e-12 * abs(y):
            break
    return y


def _leave_terminal(surface, pts, b, i, arms, f_i, opts):
    """The first step, off terminal i toward the weighted Fermat point of
    its ``arms`` in its tangent plane, halved until f drops below its
    value ``f_i`` at A_i.  The point is ``_tangent_fermat_point`` with K
    the mean curvature at the three terminals.  Its expansion holds for
    small triangles only: when ``|K| max |z_j|^2 > 1`` K is taken as 0,
    the planar point, and the square root stays real, as ``|c_j| <= |y -
    z_j| |z_j|``.  The branches to A_j and A_k start where
    ``_predicted_start`` moves the arms, the one back to A_i at the step
    reversed."""
    # the tangent plane's unit frame as the complex plane, par + i mer
    zs = [arm.length * cmath.exp(1j * arm.theta_start) for arm in arms]
    k3 = sum(surface.curvature(t.u) for t in pts) / 9.0     # K / 3
    if 3.0 * abs(k3) * max(abs(z) for z in zs) ** 2 > 1.0:
        k3 = 0.0
    y = _tangent_fermat_point(zs, b, k3)
    return _descend(surface, pts[i], cmath.phase(y), abs(y), f_i, math.inf,
                    pts, (arms, [arm.jacobi() for arm in arms]), b, opts)


def _vertex_branch(surface, pts, arcs, i, j, opts):
    """Branch from terminal i to terminal j, taken from the floating
    test's arcs; an arc stored toward i is re-shot from i at its reversed
    end heading."""
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
                 opts: ConnectOptions | None = None) -> FermatResult:
    """Locate the weighted Fermat-Torricelli point of three terminals.

    Every connect of the solve uses ``opts`` with ``resid_tol`` tightened
    to at most 1e-12: the branch lengths make f and their headings the
    residual.  Runs the interior-versus-vertex test first; in the vertex
    regime the winning terminal is returned directly.  Otherwise one
    iteration runs until the balance residual ``|sum b_i U_i|`` drops
    below ``1e-8 * (b1 + b2 + b3)``, for at most 500 steps.
    Each iteration keeps the Newton step of the exact Hessian (from the
    branches' Jacobi scalars) when it lowers the residual without raising
    ``f = sum b_i d(P, A_i)`` beyond the length noise, and otherwise takes
    the Weiszfeld step, halved until f strictly drops or, once its
    predicted drop is within the noise, until it lowers the residual
    without raising f beyond the noise.  The first step leaves the
    heaviest terminal toward the Fermat point of the floating test's arcs
    from it, mapped into its tangent plane, for the distance corrected by
    the mean curvature at the terminals (``_leave_terminal``).
    """
    opts = opts or ConnectOptions()
    opts = replace(opts, resid_tol=min(opts.resid_tol, _RESID_TOL))
    w = as_weights(weights)
    b = w.astuple()
    pts = [surface.check_point(p) for p in points]
    grad_tol = 1e-8 * w.total
    # geodesic lengths are accurate to resid_tol, so f only to this much
    f_noise = w.total * opts.resid_tol

    regime = floating_test(surface, pts, w, opts)
    # the vertex, or the heaviest terminal, where the interior solve starts;
    # the floating test already connected it to the others
    i = (regime.vertex_index if regime.mode == "vertex"
         else max(range(3), key=b.__getitem__))
    arms = [_vertex_branch(surface, pts, regime.arcs, i, j, opts)
            for j in range(3)]
    f_i = sum(bj * arm.length for bj, arm in zip(b, arms))
    if regime.mode == "vertex":
        return FermatResult(pts[i], tuple(arms), f_i, -regime.margins[i],
                            None, "vertex", i, 0, (f_i,))

    p, paths, f_cur = _leave_terminal(surface, pts, b, i, arms, f_i, opts)
    history = [f_i, f_cur]

    for _ in range(_MAX_ITER):
        r_par, r_mer = _residual(paths, b)
        r_norm = math.hypot(r_par, r_mer)
        if r_norm <= grad_tol:
            break
        # each branch's Jacobi scalars, once per point: the Newton step and
        # the predicted starts of every trial from p share them
        warm = paths, [path.jacobi() for path in paths]
        d = _newton_step(*warm, b, r_par, r_mer)
        step = None if d is None else _trial(
            surface, p, math.atan2(d[1], d[0]), math.hypot(*d), pts, warm, b,
            opts)
        if not _noise_step(step, f_cur, f_noise, r_norm, b):
            lam = r_norm / sum(bi / path.length for bi, path in zip(b, paths))
            step = _descend(surface, p, math.atan2(r_mer, r_par), lam, f_cur,
                            r_norm, pts, warm, b, opts)
        p, paths, f_cur = step
        history.append(f_cur)
    else:
        raise SolveError(
            f"no convergence in {_MAX_ITER} iterations "
            f"(residual {r_norm:.3e}, tolerance {grad_tol:.3e})")

    try:
        sectors = sector_partition([path.theta_start for path in paths])
    except DegenerateTreeError as exc:
        raise SolveError(f"converged branches are degenerate: {exc}") from exc
    expected = sector_angles_from_weights(w)
    worst = max(abs(a - e) for a, e in zip(sectors, expected))
    if worst > _ANGLE_TOL:
        raise SolveError(
            f"balance converged but sector angles deviate by {worst:.3e} rad "
            f"from the weight-determined values (tolerance {_ANGLE_TOL})")

    return FermatResult(p, tuple(paths), f_cur, r_norm, sectors, "interior",
                        None, len(history) - 1, tuple(history))
