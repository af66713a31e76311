"""Scenario files: JSON descriptions of a surface, points, weights, and
solver options consumed by the command-line interface.

Angles are radians; any angle-valued field also accepts ``{"deg": x}``.
The profile parameter ``u`` is not an angle and is always a plain number.
Every number must be finite: JSON parsers accept ``NaN`` and ``Infinity``.
"""

import json
import math
from dataclasses import dataclass

from .connect import ConnectOptions
from .errors import ProfileError, ScenarioError
from .fermat import FermatOptions, WeightTriple
from .surfaces import ProfileSurface, SurfacePoint, make_surface

__all__ = ["Scenario", "load_scenario", "scenario_from_dict",
           "parse_angle", "parse_number"]

SCHEMA = "geofermat/1"

_SURFACE_KEYS = {"kind", "radius", "slope", "a", "R", "r", "samples",
                 "u_min", "u_max", "axis_guard"}


def parse_angle(value, where: str) -> float:
    """An angle in radians from a number or ``{"deg": number}``."""
    if isinstance(value, dict) and set(value) == {"deg"}:
        return math.radians(parse_number(value["deg"], f"{where}.deg"))
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return parse_number(value, where)
    raise ScenarioError("angle must be a number or {\"deg\": number}", where)


def parse_number(value, where: str, positive: bool = False) -> float:
    """A finite number, optionally required to be positive."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError("expected a number", where)
    val = float(value)
    if not math.isfinite(val):
        raise ScenarioError(f"must be finite, got {val!r}", where)
    if positive and val <= 0.0:
        raise ScenarioError(f"must be positive, got {val!r}", where)
    return val


@dataclass
class Scenario:
    raw: dict
    surface: ProfileSurface
    points: dict
    weights: WeightTriple | None
    connect_opts: ConnectOptions
    fermat_opts: FermatOptions
    shoot_tol: float
    shoot_spec: dict | None = None
    connect_spec: dict | None = None
    inverse_spec: dict | None = None
    experiment_spec: dict | None = None
    fermat_point_names: tuple = ("A1", "A2", "A3")

    def point(self, ref, where: str) -> SurfacePoint:
        """Resolve a point reference: a name or an inline {u, v} object."""
        if isinstance(ref, str):
            if ref not in self.points:
                raise ScenarioError(f"unknown point name {ref!r}", where)
            return self.points[ref]
        if isinstance(ref, dict):
            return _parse_point(self.surface, ref, where)
        raise ScenarioError("expected a point name or {u, v} object", where)

    def terminals(self):
        pts = []
        for name in self.fermat_point_names:
            if name not in self.points:
                raise ScenarioError(f"missing point {name!r}", "points")
            pts.append(self.points[name])
        return pts


def _parse_point(surface, obj, where):
    if not isinstance(obj, dict) or not {"u", "v"} <= set(obj):
        raise ScenarioError("point needs fields u and v", where)
    u = parse_number(obj["u"], f"{where}.u")
    v = parse_angle(obj["v"], f"{where}.v")
    p = SurfacePoint(u, v)
    if not (surface.u_min <= u <= surface.u_max):
        raise ScenarioError(
            f"u={u!r} outside chart [{surface.u_min}, {surface.u_max}]",
            f"{where}.u")
    if float(surface.phi(u)) <= surface.axis_guard:
        raise ScenarioError("point on axis guard", f"{where}.u")
    return p


def _parse_surface(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioError("surface needs a 'kind' field", "surface")
    extra = set(obj) - _SURFACE_KEYS
    if extra:
        raise ScenarioError(f"unknown surface fields {sorted(extra)}",
                            "surface")
    kwargs = {k: v for k, v in obj.items() if k != "kind"}
    try:
        return make_surface(obj["kind"], **kwargs)
    except ProfileError as exc:
        raise ScenarioError(str(exc), "surface") from exc


def _parse_weights(values):
    if not isinstance(values, (list, tuple)) or len(values) != 3:
        raise ScenarioError("weights must be a list of three numbers",
                            "weights")
    out = []
    for i, w in enumerate(values):
        out.append(parse_number(w, f"weights[{i}]", positive=True))
    return WeightTriple(*out)


_OPTION_FIELDS = {
    "grad_tol": ("fermat", True), "angle_tol": ("fermat", True),
    "max_iter": ("fermat", True), "n_starts": ("connect", True),
    "windings": ("connect", False), "max_len": ("connect", True),
    "resid_tol": ("connect", True), "shoot_tol": (None, True),
}


def _parse_options(obj):
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise ScenarioError("options must be an object", "options")
    extra = set(obj) - set(_OPTION_FIELDS)
    if extra:
        raise ScenarioError(f"unknown options {sorted(extra)}", "options")

    shoot_tol = parse_number(obj.get("shoot_tol", 1e-10), "options.shoot_tol",
                             positive=True)
    con_kw = {"shoot_tol": shoot_tol}
    if "n_starts" in obj:
        n = obj["n_starts"]
        if not isinstance(n, int) or n < 4:
            raise ScenarioError("n_starts must be an integer >= 4",
                                "options.n_starts")
        con_kw["n_starts"] = n
    if "windings" in obj:
        ws = obj["windings"]
        if (not isinstance(ws, list) or not ws
                or not all(isinstance(k, int) for k in ws)):
            raise ScenarioError("windings must be a nonempty integer list",
                                "options.windings")
        con_kw["windings"] = tuple(ws)
    for key in ("max_len", "resid_tol"):
        if key in obj:
            con_kw[key] = parse_number(obj[key], f"options.{key}",
                                       positive=True)
    try:
        connect_opts = ConnectOptions(**con_kw)
    except ValueError as exc:
        raise ScenarioError(str(exc), "options") from exc

    fer_kw = {"connect": ConnectOptions(**{**con_kw,
                                           "resid_tol": min(
                                               con_kw.get("resid_tol", 1e-10),
                                               1e-12)})}
    if "grad_tol" in obj:
        fer_kw["grad_tol"] = parse_number(obj["grad_tol"], "options.grad_tol",
                                          positive=True)
    if "angle_tol" in obj:
        fer_kw["angle_tol"] = parse_number(obj["angle_tol"],
                                           "options.angle_tol", positive=True)
    if "max_iter" in obj:
        n = obj["max_iter"]
        if not isinstance(n, int):
            raise ScenarioError("max_iter must be an integer",
                                "options.max_iter")
        fer_kw["max_iter"] = n
    try:
        fermat_opts = FermatOptions(**fer_kw)
    except ValueError as exc:
        raise ScenarioError(str(exc), "options") from exc
    return connect_opts, fermat_opts, shoot_tol


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    schema = data.get("schema")
    if schema != SCHEMA:
        raise ScenarioError(f"unsupported schema {schema!r}; expected "
                            f"{SCHEMA!r}", "schema")
    if "surface" not in data:
        raise ScenarioError("missing 'surface' section", "surface")
    surface = _parse_surface(data["surface"])

    points = {}
    pts_obj = data.get("points", {})
    if not isinstance(pts_obj, dict):
        raise ScenarioError("points must be an object of named points",
                            "points")
    for name, obj in pts_obj.items():
        points[name] = _parse_point(surface, obj, f"points.{name}")

    weights = None
    if "weights" in data:
        weights = _parse_weights(data["weights"])

    connect_opts, fermat_opts, shoot_tol = _parse_options(data.get("options"))

    scn = Scenario(raw=data, surface=surface, points=points, weights=weights,
                   connect_opts=connect_opts, fermat_opts=fermat_opts,
                   shoot_tol=shoot_tol,
                   shoot_spec=data.get("shoot"),
                   connect_spec=data.get("connect"),
                   inverse_spec=data.get("inverse"),
                   experiment_spec=data.get("experiment"))
    if "fermat_points" in data:
        names = data["fermat_points"]
        if (not isinstance(names, list) or len(names) != 3
                or not all(isinstance(n, str) for n in names)):
            raise ScenarioError("fermat_points must be three point names",
                                "fermat_points")
        scn.fermat_point_names = tuple(names)
    return scn


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)
