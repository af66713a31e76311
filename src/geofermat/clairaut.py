"""Clairaut constants of branching geodesic trees.

Every geodesic on a surface of revolution conserves
``c = rho cos(alpha) = rho sin(beta)`` (rho the distance to the axis,
alpha/beta the angles with parallel/meridian).  For the three branches
meeting at a weighted branching point this module measures those
constants, predicts them from the weights and one launch angle through
the closed-form angular relations, checks the quadratic-root sign of the
printed closed forms, evaluates the law-of-sines identity on the weight
triangle (in corrected and as-printed form, which disagree), probes the
sphere-only ratio claim ``c_i / sum(c) = b_i / sum(b)``, and runs the
rotation experiment showing that recovered weights are rotation-invariant
while the constants themselves change.

Angle frame: branch headings are measured as in
:mod:`geofermat.surfaces`.  The closed-form predictions assume the
classical quadrant layout: branch 1 in the upper half plane
(``alpha1 in (pi/2, pi)``) and the tree ordered clockwise.  For a
counterclockwise tree the report reflects the frame (``theta -> -theta``)
first; sector angles are unchanged by the reflection.
"""

import math
from dataclasses import dataclass

from .errors import (DegenerateTreeError, SolveError, UndefinedRatioError,
                     WeightDomainError)
from .fermat import (as_weights, measure_sector_angles, sector_angles_from_weights,
                     sector_partition, unit_weights, weights_from_sector_angles)
from .geodesics import DEFAULT_TOL, shoot
from .surfaces import ProfileSurface, SurfacePoint, TWO_PI, mod_two_pi

__all__ = [
    "triangle_cosine",
    "BranchConstants",
    "PredictedConstants",
    "DiameterCheck",
    "SineRatioProbe",
    "ClairautReport",
    "RotationStep",
    "RotationExperiment",
    "predict_clairaut_constants",
    "law_of_sines_diameter",
    "sphere_sine_ratio_probe",
    "branch_report",
    "rotate_tree_experiment",
]

_WEIGHT_TOL = 1e-6       # largest recovered-weight error of a rotated tree


def triangle_cosine(x: float, y: float, z: float) -> float:
    """Law-of-cosines value ``(x^2 + y^2 - z^2) / (2 x y)``.

    For a triangle with side lengths x, y, z this is the cosine of the
    angle opposite z; it equals minus the cosine of the branch sector
    angle when x, y, z are the weights of an interior tree.
    """
    if x == 0.0 or y == 0.0:
        raise ValueError("zero denominator in triangle cosine")
    return (x * x + y * y - z * z) / (2.0 * x * y)


@dataclass(frozen=True)
class BranchConstants:
    """Per-branch angles and conserved values at the branching point."""

    theta: float    # heading
    alpha: float    # angle with the parallel (= theta)
    beta: float     # angle with the meridian (= pi/2 - theta)
    c_cos: float    # rho0 * cos(alpha)
    c_sin: float    # rho0 * sin(beta)


@dataclass(frozen=True)
class PredictedConstants:
    """Constants of the three branches predicted from the weights and the
    first branch angle, plus the quadratic-root bookkeeping.

    ``c2_roots``/``c3_roots`` hold (minus, plus) root values of the ratio
    closed forms ``w -/+ |tan(alpha1)| sqrt(1 - w^2)``; ``c2_root`` and
    ``c3_root`` name the root that reproduces the angular relations.  The
    published closed forms pair both ratios with the minus root, so
    ``printed_sign_ok_*`` records whether that printed sign agrees.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    c1: float
    c2: float
    c3: float
    c2_roots: tuple
    c3_roots: tuple
    c2_root: str
    c3_root: str
    c2_match_err: float
    c3_match_err: float

    @property
    def printed_sign_ok_c2(self) -> bool:
        return self.c2_root == "minus"

    @property
    def printed_sign_ok_c3(self) -> bool:
        return self.c3_root == "minus"


def alpha1_window(weights) -> tuple:
    """Open interval of admissible first-branch angles for the clockwise
    quadrant layout (branch 2 below the parallel, branch 3 opposite)."""
    phi_12, _, phi_31 = sector_angles_from_weights(weights)
    lo = max(0.5 * math.pi, phi_12 - 0.5 * math.pi, math.pi - phi_31)
    hi = min(math.pi, phi_12, 1.5 * math.pi - phi_31)
    return lo, hi


def _layout_constants(alpha1, phi_12, phi_31, rho0):
    """The three branch angles of the clockwise layout,
    ``(alpha1, pi + alpha1 - phi_12, alpha1 - pi + phi_31)``, and their
    constants ``c_i = rho0 cos(alpha_i)``."""
    alphas = (alpha1, math.pi + alpha1 - phi_12, alpha1 - math.pi + phi_31)
    return alphas, tuple(rho0 * math.cos(a) for a in alphas)


def predict_clairaut_constants(weights, alpha1: float,
                               rho0: float) -> PredictedConstants:
    """Branch constants from the weights and the first branch angle.

    The angular relations fix the other two branch angles:
    ``alpha2 = pi + alpha1 - phi_12`` and ``alpha3 = alpha1 - pi + phi_31``
    with sector angles from the weights; then ``c_i = rho0 cos(alpha_i)``.
    Both quadratic roots of each ratio closed form are evaluated and the
    one consistent with the angular relations is recorded.
    """
    (b1, b2, b3), _ = unit_weights(weights)
    if not 0.5 * math.pi < alpha1 < math.pi:
        raise ValueError(
            f"alpha1 = {alpha1!r} outside the admissible window (pi/2, pi)")
    phi_12, _, phi_31 = sector_angles_from_weights((b1, b2, b3))
    alphas, constants = _layout_constants(alpha1, phi_12, phi_31, rho0)
    _, alpha2, alpha3 = alphas

    tan1 = abs(math.tan(alpha1))
    w21 = triangle_cosine(b1, b2, b3)
    w31 = triangle_cosine(b1, b3, b2)
    disc21 = tan1 * math.sqrt(max(0.0, 1.0 - w21 * w21))
    disc31 = tan1 * math.sqrt(max(0.0, 1.0 - w31 * w31))
    c2_roots = (w21 - disc21, w21 + disc21)
    c3_roots = (w31 - disc31, w31 + disc31)

    ratio2 = math.cos(alpha2) / math.cos(alpha1)
    ratio3 = math.cos(alpha3) / math.cos(alpha1)
    e2 = (abs(c2_roots[0] - ratio2), abs(c2_roots[1] - ratio2))
    e3 = (abs(c3_roots[0] - ratio3), abs(c3_roots[1] - ratio3))
    c2_root = "minus" if e2[0] <= e2[1] else "plus"
    c3_root = "minus" if e3[0] <= e3[1] else "plus"

    return PredictedConstants(*alphas, *constants, c2_roots, c3_roots,
                              c2_root, c3_root, min(e2), min(e3))


@dataclass(frozen=True)
class DiameterCheck:
    """Law-of-sines circumdiameter of the weight triangle.

    ``d_corrected`` is ``2 b1 b2 b3 / sqrt((b1+b2+b3)(b1+b2-b3)
    (b2+b3-b1)(b1+b3-b2))``, the circumdiameter; ``per_branch`` holds
    ``b_i / sin(opposite sector angle)``, which all equal it.
    ``d_printed`` evaluates the published right-hand side literally
    (missing the ``(b1+b2+b3)`` factor, with ``(b2+b3-b1)`` repeated);
    at equal weights it gives 2 instead of 2/sqrt(3), so
    ``printed_matches`` is generally False.
    """

    d_corrected: float
    d_printed: float
    per_branch: tuple

    @property
    def printed_matches(self) -> bool:
        return abs(self.d_printed - self.d_corrected) <= 1e-12 * max(
            1.0, abs(self.d_corrected))


def _times_pow2(x, e):
    """``x * 2**e``, exact, and infinite where it overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def law_of_sines_diameter(weights) -> DiameterCheck:
    """The diameters, evaluated on ``unit_weights`` and scaled back: the
    lengths by ``2**e``, the printed value, of degree 3/2 in the weights,
    by ``2**(3 e / 2)``."""
    (b1, b2, b3), e = unit_weights(weights)
    f0 = b1 + b2 + b3
    f1 = b1 + b2 - b3
    f2 = b2 + b3 - b1
    f3 = b1 + b3 - b2
    if min(f1, f2, f3) <= 0.0:
        raise WeightDomainError(
            "degenerate weight triple: a triangle-inequality factor is <= 0")
    d_corr = 2.0 * b1 * b2 * b3 / math.sqrt(f0 * f1 * f2 * f3)
    # literal published denominator: (b1+b2-b3)(b2+b3-b1)(b3+b2-b1)
    d_printed = 2.0 * b1 * b2 * b3 / math.sqrt(f1 * f2 * (b3 + b2 - b1))
    phi_12, phi_23, phi_31 = sector_angles_from_weights((b1, b2, b3))
    per_branch = (b1 / math.sin(phi_23), b2 / math.sin(phi_31),
                  b3 / math.sin(phi_12))
    return DiameterCheck(_times_pow2(d_corr, e),
                         _times_pow2(d_printed, 3 * e // 2),
                         tuple(_times_pow2(d, e) for d in per_branch))


@dataclass(frozen=True)
class SineRatioProbe:
    """Measured test of the sphere claim ``c_i / sum(c) = b_i / sum(b)``.

    ``all_positive`` reports the positivity hypothesis ``c_i > 0``; when
    it fails the deviations are still reported, never asserted.
    """

    ratios: tuple
    weight_fractions: tuple
    deviations: tuple
    all_positive: bool
    sine_sum: float


@dataclass(frozen=True)
class ClairautReport:
    """Per-branch Clairaut data at a branching point, with the closed-form
    prediction and (on spheres) the sine-ratio probe attached when their
    hypotheses hold; the note fields say why one is absent."""

    rho0: float
    branches: tuple
    weights: tuple
    sector_angles: tuple
    orientation: str               # "clockwise" or "counterclockwise"
    predicted: PredictedConstants | None
    predicted_note: str
    measured_layout_frame: tuple | None
    predicted_deviation: tuple | None
    sphere_probe: SineRatioProbe | None
    sphere_note: str


def sphere_sine_ratio_probe(surface: ProfileSurface, branches,
                            weights) -> SineRatioProbe:
    """Compare sine-constant fractions with weight fractions on a sphere.

    ``branches`` are the three :class:`BranchConstants`.  Raises
    UndefinedRatioError when every branch is a meridian (all sine
    constants vanish) or the constants sum to exactly zero.
    """
    if surface.kind != "sphere":
        raise ValueError("the sine-ratio probe is defined on spheres only")
    c_sin = [br.c_sin for br in branches]
    c_max = max(abs(c) for c in c_sin)
    if c_max <= 1e-13 * max(1.0, c_max):
        raise UndefinedRatioError(
            "all branch sine constants vanish (meridian branches); "
            "ratios are undefined")
    total = math.fsum(c_sin)
    if total == 0.0:
        raise UndefinedRatioError("sine constants sum to zero")
    w = as_weights(weights)
    fractions = w.normalized()
    ratios = tuple(c / total for c in c_sin)
    deviations = tuple(abs(r - f) for r, f in zip(ratios, fractions))
    return SineRatioProbe(ratios, fractions, deviations,
                          all(c > 0.0 for c in c_sin), total)


def _anchored(surface, center, path):
    E, G, _, _, _ = surface.metric_terms(center.u)
    start = path.start()
    gap = math.hypot(math.sqrt(E) * (start.u - center.u),
                     math.sqrt(G) * (start.v - center.v))
    if gap > 1e-9 * max(1.0, path.length):
        raise SolveError(
            f"branch does not depart from the branching point (offset {gap:.3e})")


def branch_report(surface: ProfileSurface, center: SurfacePoint, branches,
                  weights) -> ClairautReport:
    """Clairaut constants, angles, and closed-form comparisons for three
    branch paths departing from ``center``.  Raises SolveError when a
    branch does not depart from ``center`` or two headings coincide."""
    branches = tuple(branches)
    if len(branches) != 3:
        raise ValueError("exactly three branches are required")
    for path in branches:
        _anchored(surface, center, path)
    surface.check_point(center)
    rho0 = float(surface.metric_terms(center.u)[4])

    data = []
    for path in branches:
        theta = path.theta_start
        beta = 0.5 * math.pi - theta
        data.append(BranchConstants(theta, theta, beta,
                                    rho0 * math.cos(theta),
                                    rho0 * math.sin(beta)))
    data = tuple(data)

    thetas = [br.theta for br in data]
    try:
        sectors = sector_partition(thetas)
    except DegenerateTreeError as exc:
        raise SolveError(f"measured branch headings: {exc}") from exc
    d2 = (thetas[1] - thetas[0]) % TWO_PI
    d3 = (thetas[2] - thetas[0]) % TWO_PI
    ccw = d2 < d3
    orientation = "counterclockwise" if ccw else "clockwise"
    # map to the clockwise layout; reflection negates headings and keeps
    # the sector angles
    alpha1_eff = mod_two_pi(-thetas[0] if ccw else thetas[0])

    predicted = None
    note = ""
    measured_pf = None
    deviation = None
    if not 0.5 * math.pi < alpha1_eff < math.pi:
        note = (f"branch-1 angle {alpha1_eff:.6f} outside the (pi/2, pi) "
                "layout window; closed-form prediction skipped")
    else:
        try:
            predicted = predict_clairaut_constants(weights, alpha1_eff, rho0)
        except WeightDomainError as exc:
            note = f"prediction unavailable: {exc}"
        else:
            _, measured_pf = _layout_constants(alpha1_eff, sectors[0],
                                               sectors[2], rho0)
            deviation = tuple(abs(m - c) for m, c in zip(
                measured_pf, (predicted.c1, predicted.c2, predicted.c3)))

    probe = None
    sphere_note = ""
    if surface.kind == "sphere":
        try:
            probe = sphere_sine_ratio_probe(surface, data, weights)
        except UndefinedRatioError as exc:
            sphere_note = str(exc)
    else:
        sphere_note = "sine-ratio probe applies to spheres only"

    return ClairautReport(rho0, data, as_weights(weights).astuple(), sectors,
                          orientation, predicted, note, measured_pf,
                          deviation, probe, sphere_note)


@dataclass(frozen=True)
class RotationStep:
    delta: float
    headings: tuple
    endpoints: tuple
    recovered_weights: tuple      # normalised
    recovery_error: float
    clairaut: tuple               # launch constant per branch


@dataclass(frozen=True)
class RotationExperiment:
    """Planted trees rotated rigidly about the branching point.

    The recovered normalised weights stay constant across rotations (they
    depend only on the sector angles) while the per-branch Clairaut
    constants change with the launch angles; ``clairaut_spread`` holds the
    max-minus-min of each branch constant across the rotations.
    """

    center: SurfacePoint
    weights: tuple                 # normalised
    theta0: float
    lengths: tuple
    deltas: tuple
    steps: tuple
    weight_spread: float
    clairaut_spread: tuple


def _spread(rows):
    """Max minus min of each column of ``rows``."""
    return tuple(max(col) - min(col) for col in zip(*rows))


def rotate_tree_experiment(surface: ProfileSurface, center: SurfacePoint,
                           weights, lengths, theta0: float, delta_list,
                           connect_opts=None) -> RotationExperiment:
    """Shoot the weight-determined tree at a sequence of rotations and
    recover the weights from each rotated copy.  The branches are shot at
    ``connect_opts.shoot_tol``.

    Raises ValueError unless there are three positive lengths and at least
    one rotation; raises SolveError if any recovered weight triple deviates
    from the normalised input by more than 1e-6 or a rotated tree's
    measured headings are degenerate; raises ChartExitError if a rotated
    branch leaves the chart.
    """
    w = as_weights(weights)
    lengths = tuple(float(x) for x in lengths)
    if len(lengths) != 3 or min(lengths) <= 0.0:
        raise ValueError("three positive branch lengths are required")
    deltas = tuple(float(d) for d in delta_list)
    if not deltas:
        raise ValueError("at least one rotation is required")
    phi_12, phi_23, _ = sector_angles_from_weights(w)
    fractions = w.normalized()
    tol = DEFAULT_TOL if connect_opts is None else connect_opts.shoot_tol

    steps = []
    for delta in deltas:
        headings = (theta0 + delta,
                    theta0 + delta + phi_12,
                    theta0 + delta + phi_12 + phi_23)
        paths = [shoot(surface, center, th, L, tol)
                 for th, L in zip(headings, lengths)]
        endpoints = tuple(path.end() for path in paths)
        try:
            angles = measure_sector_angles(surface, center, endpoints,
                                           connect_opts)
        except DegenerateTreeError as exc:
            raise SolveError(f"rotation {delta!r}: {exc}") from exc
        recovered = weights_from_sector_angles(angles, 1.0).astuple()
        err = max(abs(r - f) for r, f in zip(recovered, fractions))
        if err > _WEIGHT_TOL:
            raise SolveError(
                f"recovered weights deviate by {err:.3e} at rotation "
                f"{delta!r} (tolerance {_WEIGHT_TOL})")
        steps.append(RotationStep(delta, headings, endpoints,
                                  recovered, err,
                                  tuple(path.c_nominal for path in paths)))

    return RotationExperiment(
        center, fractions, theta0, lengths, deltas, tuple(steps),
        max(_spread(st.recovered_weights for st in steps)),
        _spread(st.clairaut for st in steps))
