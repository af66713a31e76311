"""Scenario files: JSON descriptions of a surface, points, weights, and
solver options consumed by the command-line interface.

A scenario holds only the keys listed in ``_SECTIONS`` and ``_TOP_KEYS``,
each command section is an object of only its own keys, and each point
object holds only ``u`` and ``v``: a misspelled or retired key is a
configuration error, never silently ignored.  The Fermat terminals are
the points named ``A1``, ``A2`` and ``A3``.

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
# the keys of each command section
_SECTIONS = {
    "shoot": {"from", "heading", "length"},
    "connect": {"from", "to"},
    "inverse": {"angles", "center", "total"},
    "clairaut": {"center"},
    "experiment": {"center", "theta0", "lengths", "deltas"},
}
_TOP_KEYS = {"schema", "surface", "points", "weights", "options", *_SECTIONS}
_TERMINALS = ("A1", "A2", "A3")


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

    def section(self, name: str, optional: bool = False) -> dict:
        """The command section ``name``, an object whose keys were checked
        when the scenario loaded; an optional one defaults to {}."""
        if name not in self.raw:
            if optional:
                return {}
            raise ScenarioError(f"missing '{name}' section", name)
        return self.raw[name]

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
        """The Fermat terminals, the points A1, A2 and A3."""
        for name in _TERMINALS:
            if name not in self.points:
                raise ScenarioError(f"missing point {name!r}", "points")
        return [self.points[name] for name in _TERMINALS]


def _check_keys(obj, allowed, prefix=""):
    """Reject the first key of ``obj`` not in ``allowed``, naming it."""
    extra = sorted(set(obj) - allowed)
    if extra:
        raise ScenarioError(f"unknown key; expected one of {sorted(allowed)}",
                            prefix + extra[0])


def _parse_point(surface, obj, where):
    if not isinstance(obj, dict) or not {"u", "v"} <= set(obj):
        raise ScenarioError("point needs fields u and v", where)
    _check_keys(obj, {"u", "v"}, f"{where}.")
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


def _parse_options(obj):
    """The ``ConnectOptions`` of the scenario's ``options`` section, which
    every command uses (``solve_fermat`` tightens its ``resid_tol``).
    Only JSON types and finiteness are checked here; ConnectOptions checks
    the ranges, and an error names the option it found out of range."""
    if not isinstance(obj, dict):
        raise ScenarioError("options must be an object", "options")
    _check_keys(obj, _OPTION_FIELDS, "options.")

    kwargs = {key: parse_number(value, f"options.{key}")
              for key, value in obj.items()}
    for key, value in kwargs.items():
        # each check of ConnectOptions is on one field, so a record with
        # this key alone fails exactly when the key is out of range
        try:
            ConnectOptions(**{key: value})
        except ValueError as exc:
            raise ScenarioError(str(exc), f"options.{key}") from exc
    return ConnectOptions(**kwargs)


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    schema = data.get("schema")
    if schema != SCHEMA:
        raise ScenarioError(f"unsupported schema {schema!r}; expected "
                            f"{SCHEMA!r}", "schema")
    _check_keys(data, _TOP_KEYS)
    for name, keys in _SECTIONS.items():
        if name in data:
            if not isinstance(data[name], dict):
                raise ScenarioError("section must be a JSON object", name)
            _check_keys(data[name], keys, f"{name}.")
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

    return Scenario(raw=data, surface=surface, points=points,
                    weights=weights,
                    connect_opts=_parse_options(data.get("options", {})))


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
