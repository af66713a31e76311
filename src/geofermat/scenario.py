"""Scenario files: JSON descriptions of a surface, points, weights, and
solver options consumed by the command-line interface.

Angles are radians; any angle-valued field also accepts ``{"deg": x}``.
The profile parameter ``u`` is not an angle and is always a plain number.
Every number must be finite: JSON parsers accept ``NaN`` and ``Infinity``.
"""

import json
import math
from dataclasses import dataclass, fields
from functools import partial

from .connect import ConnectOptions
from .errors import OffChartError, ScenarioError
from .fermat import WeightTriple
from .surfaces import ProfileSurface, SurfacePoint, make_surface

__all__ = ["Scenario", "load_scenario", "scenario_from_dict",
           "parse_angle", "parse_list", "parse_number"]

SCHEMA = "geofermat/1"


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
    try:
        val = float(value)
    except OverflowError:       # an integer beyond the float range
        val = math.inf if value > 0 else -math.inf
    if not math.isfinite(val):
        raise ScenarioError(f"must be finite, got {val!r}", where)
    if positive and val <= 0.0:
        raise ScenarioError(f"must be positive, got {val!r}", where)
    return val


def parse_list(value, where: str, item, length=None) -> list:
    """A list of ``length`` values (any number when None), each parsed by
    ``item(value, f"{where}[i]")``."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        raise ScenarioError("expected a list" if length is None
                            else f"expected a list of {length} values", where)
    return [item(x, f"{where}[{i}]") for i, x in enumerate(value)]


@dataclass
class Scenario:
    raw: dict
    surface: ProfileSurface
    points: dict
    weights: WeightTriple | None
    connect_opts: ConnectOptions
    fermat_point_names: tuple = ("A1", "A2", "A3")

    def section(self, name: str, optional: bool = False) -> dict:
        """The command section ``name``; an optional one defaults to {}."""
        if name not in self.raw:
            if optional:
                return {}
            raise ScenarioError(f"missing '{name}' section", name)
        spec = self.raw[name]
        if not isinstance(spec, dict):
            raise ScenarioError("section must be a JSON object", name)
        return spec

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
    p = SurfacePoint(parse_number(obj["u"], f"{where}.u"),
                     parse_angle(obj["v"], f"{where}.v"))
    try:
        return surface.check_point(p)
    except OffChartError as exc:
        raise ScenarioError(str(exc), f"{where}.u") from exc


def _parse_surface(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ScenarioError("surface needs a 'kind' field", "surface")
    # make_surface decides which fields a kind takes; here only JSON types
    kwargs = {k: v if k == "samples" else parse_number(v, f"surface.{k}")
              for k, v in obj.items() if k != "kind"}
    try:
        return make_surface(obj["kind"], **kwargs)
    except (ValueError, TypeError) as exc:    # ProfileError is a ValueError
        raise ScenarioError(str(exc), "surface") from exc


_OPTION_FIELDS = {f.name for f in fields(ConnectOptions)}


def _parse_int(value, where):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError("expected an integer", where)
    return value


def _parse_options(obj):
    """The ``ConnectOptions`` of the scenario's ``options`` section, which
    every command uses (``solve_fermat`` tightens its ``resid_tol``).
    Only JSON types and finiteness are checked here; ConnectOptions checks
    the ranges."""
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise ScenarioError("options must be an object", "options")
    extra = set(obj) - _OPTION_FIELDS
    if extra:
        raise ScenarioError(f"unknown options {sorted(extra)}", "options")

    kwargs = {}
    for key, value in obj.items():
        where = f"options.{key}"
        if key == "windings":
            kwargs[key] = tuple(parse_list(value, where, _parse_int))
        else:
            kwargs[key] = parse_number(value, where)
    try:
        return ConnectOptions(**kwargs)
    except ValueError as exc:
        raise ScenarioError(str(exc), "options") from exc


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

    weights = None if "weights" not in data else WeightTriple(*parse_list(
        data["weights"], "weights", partial(parse_number, positive=True), 3))

    scn = Scenario(raw=data, surface=surface, points=points, weights=weights,
                   connect_opts=_parse_options(data.get("options")))
    if "fermat_points" in data:
        names = tuple(parse_list(data["fermat_points"], "fermat_points",
                                 lambda name, _: name, 3))
        if not all(isinstance(name, str) for name in names):
            raise ScenarioError("expected point names", "fermat_points")
        scn.fermat_point_names = names
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
