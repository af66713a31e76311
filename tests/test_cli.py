import contextlib
import dataclasses
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import geofermat.cli as cli
import geofermat.connect as connect_mod
import geofermat.fermat as fermat_mod
import geofermat.geodesics as geodesics_mod
import geofermat.verify as verify_mod
from geofermat import (ChartExitError, ConnectOptions, DegenerateTreeError,
                       ScenarioError, SolveError, SurfacePoint, load_scenario,
                       shoot)
from geofermat.scenario import Scenario, scenario_from_dict


def minimal_scenario(**extra):
    data = {
        "schema": "geofermat/1",
        "surface": {"kind": "sphere", "radius": 1.0},
        "points": {
            "A1": {"u": 1.0, "v": 0.1},
            "A2": {"u": 1.5, "v": 0.9},
            "A3": {"u": 1.8, "v": -0.4},
        },
        "weights": [2.0, 3.0, 4.0],
    }
    data.update(extra)
    return data


def all_sections_scenario():
    """The minimal scenario with a section for each of the six commands."""
    data = minimal_scenario(
        shoot={"from": "A1", "heading": 0.3, "length": 0.5},
        connect={"from": "A1", "to": "A2"},
        inverse={"angles": [{"deg": 120.0}] * 3},
        experiment={"center": "C", "theta0": 0.7, "lengths": [0.3, 0.4, 0.5],
                    "deltas": [0.0]})
    data["points"]["C"] = {"u": 1.2, "v": 0.5}
    return data


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestScenarioLoading:
    def test_minimal_defaults(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_scenario()))
        scn = load_scenario(path)
        assert scn.surface.kind == "sphere"
        assert scn.weights.astuple() == (2.0, 3.0, 4.0)
        assert scn.connect_opts == ConnectOptions()

    def test_negative_weight_names_field(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(minimal_scenario(weights=[-1.0, 2.0, 3.0]))
        assert err.value.field == "weights[0]"

    def test_point_on_axis_guard(self):
        data = minimal_scenario()
        data["points"]["A1"] = {"u": 1e-9, "v": 0.0}
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(data)
        assert "axis guard" in str(err.value)

    def test_unknown_surface_kind(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(minimal_scenario(surface={"kind": "moebius"}))
        assert err.value.field == "surface"

    def test_degrees_accepted(self):
        data = minimal_scenario()
        data["points"]["A1"] = {"u": 1.0, "v": {"deg": 90.0}}
        scn = scenario_from_dict(data)
        assert scn.points["A1"].v == pytest.approx(math.pi / 2)

    def test_schema_required(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(minimal_scenario(schema="other/9"))

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_invalid_fermat_options_named(self):
        """The retired solver settings are unknown options, named in the
        error."""
        for key in ("n_starts", "grad_tol", "angle_tol", "max_iter",
                    "windings", "max_len"):
            with pytest.raises(ScenarioError) as err:
                scenario_from_dict(minimal_scenario(options={key: 1}))
            assert err.value.field == f"options.{key}"
            assert "unknown key; expected one of ['resid_tol', " \
                "'shoot_tol']" in str(err.value)

    @pytest.mark.parametrize("field,value", [
        ("shoot.length", math.inf),
        ("shoot.length", math.nan),
        ("shoot.heading", math.inf),
        ("points.A1.v", math.nan),
    ], ids=["inf-length", "nan-length", "inf-heading", "nan-point-v"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys,
                                               field, value):
        data = minimal_scenario(
            shoot={"from": "A1", "heading": 0.3, "length": 0.5})
        *parents, key = field.split(".")
        target = data
        for name in parents:
            target = target[name]
        target[key] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))   # emits NaN / Infinity tokens
        code = cli.main(["shoot", "--scenario", str(path)])
        out = capsys.readouterr()
        assert code == 1
        assert f"{field}: must be finite" in out.out + out.err

    @pytest.mark.parametrize("surface", [
        {"kind": "sphere", "radius": "abc"},
        {"kind": "sphere", "radius": [1]},
        {"kind": "sphere", "radius": 1.0, "u_max": "x"},
        {"kind": "custom", "samples": "abc"},
        {"kind": "sphere", "radius": 1.0, "axis_guard": math.nan},
        {"kind": "custom", "radius": 9.0, "samples": [
            [u, math.sin(u), math.cos(u)] for u in (0.5, 1.0, 1.5, 2.0, 2.5)]},
        {"kind": "custom", "samples": [[10 ** 400, 1.0, 0.0]] * 4},
        {"kind": "cylinder", "radius": 1.9494548477577465e-283},
        {"kind": "paraboloid", "a": 1e-300},
        {"kind": "custom",
         "samples": [[0, 1, 0], [1e-300, 1, 1e10], [1, 1, 1], [2, 1, 2]]},
    ], ids=["radius-text", "radius-list", "u_max-text", "samples-text",
            "axis_guard-nan", "custom-extra-field", "samples-overflow",
            "radius-underflow", "a-tiny", "spline-overflow"])
    # a warning printed beside the stderr report would break its JSON
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_surface_field_is_config_error(self, tmp_path, capsys,
                                               surface):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_scenario(
            surface=surface,
            shoot={"from": "A1", "heading": 0.3, "length": 0.5})))
        code = cli.main(["shoot", "--scenario", str(path)])
        out = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in out.out + out.err
        err = json.loads(out.err)["error"]
        assert err["kind"] == "ScenarioError"
        assert err["field"].startswith("surface")

    @pytest.mark.parametrize("options,field", [
        ({"windings": [0, True]}, "options.windings"),
    ], ids=["windings"])
    def test_bool_is_not_an_integer_option(self, options, field):
        """``windings`` was the one integer option; retired, it is an
        unknown key whatever its items, a bool among them."""
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(minimal_scenario(options=options))
        assert err.value.field == field
        assert "unknown key" in str(err.value)

    # the windings and max_len rows: retired keys, rejected before any
    # range check
    @pytest.mark.parametrize("options", [
        {"shoot_tol": 0.0}, {"windings": []}, {"resid_tol": -1.0},
        {"max_len": 0.0}, {"windings": [0, 2 ** 31 + 1]},
    ], ids=["shoot_tol", "windings", "resid_tol", "max_len",
            "windings-bound"])
    def test_option_range_checked_by_options_class(self, options):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(minimal_scenario(options=options))
        key = next(iter(options))
        assert err.value.field == f"options.{key}"
        assert key in str(err.value)

    @staticmethod
    def _connect_error(data, tmp_path, capsys):
        """``connect`` on ``data`` through ``cli.main --out``: exit 1 with
        the same strict-JSON error report in --out and on stderr, which is
        returned."""
        scn_path, out = tmp_path / "s.json", tmp_path / "r.json"
        scn_path.write_text(json.dumps(data))
        code = cli.main(["connect", "--scenario", str(scn_path),
                         "--out", str(out)])
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert code == 1
        assert json.loads(capsys.readouterr().err) == report
        return report["error"]

    @pytest.mark.parametrize("windings", [[1], [-1, 1], [2]])
    def test_windings_without_0_exit_1(self, windings, tmp_path, capsys):
        """The search windings are fixed, so ``windings`` is a retired
        option: any value is a configuration error, not a search that
        ignores it."""
        error = self._connect_error(json.loads(
            (TestBundledScenarios.SCENARIOS / "cylinder_pair.json").read_text())
            | {"options": {"windings": windings}}, tmp_path, capsys)
        assert error["field"] == "options.windings"
        assert "unknown key" in error["message"]

    @pytest.mark.parametrize("surface,options,message,field", [
        ({"kind": "cylinder", "radius": 1.0}, {"windings": [0, 10 ** 400]},
         "unknown key", "options.windings"),
        ({"kind": "paraboloid", "a": 1.0}, {"windings": [0, 10 ** 300]},
         "unknown key", "options.windings"),
        ({"kind": "cylinder", "radius": 1.0}, {"n_starts": 10 ** 400},
         "unknown key", "options.n_starts"),
    ], ids=["cylinder-10**400", "paraboloid-10**300", "retired-n_starts"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejected_options_exit_1(self, surface, options, message, field,
                                     tmp_path, capsys):
        """A retired solver setting is a configuration error, whatever its
        value, not an overflow from the search."""
        data = json.loads(
            (TestBundledScenarios.SCENARIOS / "cylinder_pair.json").read_text())
        data["surface"] = surface
        data["points"]["A1"]["u"] = 1.0     # off the paraboloid's vertex
        data["options"] = options
        error = self._connect_error(data, tmp_path, capsys)
        assert error["field"] == field
        assert message in error["message"]

    @pytest.mark.parametrize("options,message", [
        ({"resid_tol": 1e300}, "resid_tol must be positive and at most 1e-06"),
        ({"shoot_tol": 1e-300}, "shoot_tol must be at least 1e-16"),
    ], ids=["resid_tol", "shoot_tol"])
    def test_unanswerable_tolerances_exit_1(self, options, message,
                                            tmp_path, capsys):
        """A residual tolerance that takes a shot 0.03 short of B as
        converged, or an integrator tolerance below what double precision
        meets, is a configuration error that names the option."""
        data = json.loads(
            (TestBundledScenarios.SCENARIOS / "sphere_triangle.json")
            .read_text()) | {"options": options}
        scn_path = tmp_path / "s.json"
        scn_path.write_text(json.dumps(data))
        assert cli.main(["fermat-solve", "--scenario", str(scn_path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["field"] == f"options.{next(iter(options))}"
        assert message in error["message"]

    def test_options_feed_both_solvers(self, monkeypatch):
        """Every command gets the scenario's one options record; the Fermat
        solve connects with it at resid_tol 1e-12."""
        scn = scenario_from_dict(minimal_scenario(
            options={"shoot_tol": 1e-9, "resid_tol": 1e-8}))
        assert scn.connect_opts == ConnectOptions(resid_tol=1e-8,
                                                  shoot_tol=1e-9)
        seen = []
        real = fermat_mod.connect_geodesics

        def recorded(surface, pairs, opts):
            seen.append(opts)
            return real(surface, pairs, opts)

        monkeypatch.setattr(fermat_mod, "connect_geodesics", recorded)
        code, _ = cli.run("fermat-solve", scn)
        assert code == 0
        assert seen == [ConnectOptions(resid_tol=1e-12, shoot_tol=1e-9)]

    @pytest.mark.parametrize("key,value", [
        ("options.windings", [-1, 0, 1]),
        ("fermat_points", ["A1", "A2", "A3"]),
        ("optoins", {"resid_tol": 1e-9}),
        ("options.max_len", 20.0),
    ], ids=["options.windings", "fermat_points", "optoins",
            "options.max_len"])
    def test_unknown_keys_exit_1(self, key, value, tmp_path, capsys):
        """A retired or misspelled key is a configuration error that names
        the key.  "optoins" used to be ignored: connect from A1 to A2
        answered with the default options and exit 0."""
        data = json.loads(
            (TestBundledScenarios.SCENARIOS / "sphere_triangle.json")
            .read_text()) | {"connect": {"from": "A1", "to": "A2"}}
        *parents, last = key.split(".")
        target = data
        for name in parents:
            target = target.setdefault(name, {})
        target[last] = value
        error = self._connect_error(data, tmp_path, capsys)
        assert error["field"] == key
        assert "unknown key" in error["message"]

    @pytest.mark.parametrize("command,section,key,value", [
        ("shoot", "shoot", "tol", 1e-6),
        ("connect", "connect", "via", "A3"),
        ("fermat-inverse", "inverse", "totl", 9.0),
        ("clairaut-report", "clairaut", "centre", "C"),
        ("rotate-experiment", "experiment", "theta_0", 0.2),
    ], ids=["shoot", "connect", "inverse", "clairaut", "experiment"])
    def test_unknown_section_key_exit_1(self, command, section, key, value,
                                        tmp_path, capsys):
        """A key that its command section does not take exits 1 and names
        itself.  Each used to exit 0 with a wrong answer: clairaut.centre
        ran the Fermat solve instead of the report at the given center,
        experiment.theta_0 used theta0 = 0 and inverse.totl total = 1."""
        data = all_sections_scenario()
        data.setdefault(section, {})[key] = value
        scn_path = tmp_path / "s.json"
        scn_path.write_text(json.dumps(data))
        assert cli.main([command, "--scenario", str(scn_path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["field"] == f"{section}.{key}"
        assert "unknown key" in error["message"]

    def test_readme_options_table_lists_the_options(self):
        """The README's table of the ``options`` keys has one row per
        ConnectOptions field, in field order."""
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        table = readme.split("\n| key ", 1)[1].split("\n\n", 1)[0]
        assert re.findall(r"^\| `(\w+)`", table, flags=re.M) == [
            f.name for f in dataclasses.fields(ConnectOptions)]


# any JSON value, NaN and integers beyond the float range included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)


def _field_paths(obj, prefix=()):
    """Every key path of a nested dict/list, containers included."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


_FUZZ_OPTIONS = {"shoot_tol": 1e-10}
_FUZZ_BASES = [
    minimal_scenario(
        surface={"kind": "sphere", "radius": 1.0, "u_min": 0.01,
                 "u_max": 3.1, "axis_guard": 1e-6},
        options=_FUZZ_OPTIONS),
    minimal_scenario(
        surface={"kind": "custom", "samples": [
            [u, math.sin(u), math.cos(u)] for u in (0.5, 1.0, 1.5, 2.0, 2.5)]},
        options=_FUZZ_OPTIONS),
]
# every key path of each base, plus keys the bases lack
_FUZZ_CASES = [(base, path) for base in _FUZZ_BASES
               for path in [*_field_paths(base), ("surface", "slope"),
                            ("points", "A4")]]


class TestScenarioFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.sampled_from(_FUZZ_CASES), value=json_values)
    def test_any_json_value_is_accepted_or_scenario_error(self, case,
                                                          value):
        base, path = case
        data = json.loads(json.dumps(base))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        try:
            scn = scenario_from_dict(data)
        except ScenarioError:
            return
        assert isinstance(scn, Scenario)


class TestRun:
    def test_shoot(self):
        scn = scenario_from_dict(minimal_scenario(
            shoot={"from": "A1", "heading": {"deg": 45.0}, "length": 1.0}))
        code, report = cli.run("shoot", scn)
        assert code == 0
        assert report["results"]["path"]["length"] == 1.0
        assert report["results"]["path"]["clairaut_c"] == pytest.approx(
            math.sin(1.0) * math.cos(math.pi / 4))

    def test_connect_with_ambiguity_warning(self):
        scn = scenario_from_dict({
            "schema": "geofermat/1",
            "surface": {"kind": "cylinder", "radius": 1.0},
            "points": {"P": {"u": 0.0, "v": 0.0},
                       "Q": {"u": 0.7, "v": {"deg": 180.0}}},
            "connect": {"from": "P", "to": "Q"},
        })
        code, report = cli.run("connect", scn)
        assert code == 0
        assert report["results"]["path"]["ambiguous"]
        assert any(w["kind"] == "ambiguous" for w in report["warnings"])
        assert report["results"]["path"]["length"] == pytest.approx(
            math.hypot(0.7, math.pi), rel=1e-10)

    def test_fermat_solve_and_paths(self, tmp_path):
        scn = scenario_from_dict(minimal_scenario())
        code, report = cli.run("fermat-solve", scn, paths_dir=tmp_path / "p")
        assert code == 0
        fer = report["results"]["fermat"]
        assert fer["mode"] == "interior"
        assert sum(fer["sector_angles"]) == pytest.approx(2 * math.pi,
                                                          abs=1e-9)
        for i in (1, 2, 3):
            csv = (tmp_path / "p" / f"branch_{i}.csv").read_text()
            assert csv.splitlines()[0] == \
                "s,u,v,du,dv,x,y,z,clairaut_c"

    @pytest.mark.parametrize("command,files", [
        ("shoot", ["shoot.csv"]),
        ("connect", ["connect.csv"]),
        ("fermat-solve", ["branch_1.csv", "branch_2.csv", "branch_3.csv"]),
        ("clairaut-report", ["branch_1.csv", "branch_2.csv", "branch_3.csv"]),
        ("fermat-inverse", []),
        ("rotate-experiment", []),
    ])
    def test_paths_written_for_each_command(self, tmp_path, command, files):
        scn = scenario_from_dict(all_sections_scenario())
        code, _ = cli.run(command, scn, paths_dir=tmp_path / "p")
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "p").glob("*")) == files
        for name in files:
            header = (tmp_path / "p" / name).read_text().splitlines()[0]
            assert header == "s,u,v,du,dv,x,y,z,clairaut_c"

    @pytest.mark.parametrize("command", ["fermat-solve", "clairaut-report",
                                         "rotate-experiment"])
    def test_missing_weights_is_config_error(self, command):
        data = all_sections_scenario()
        del data["weights"]
        code, report = cli.run(command, scenario_from_dict(data))
        assert code == 1
        assert report["error"]["kind"] == "ScenarioError"
        assert report["error"]["message"].startswith("weights: ")

    @pytest.mark.parametrize("path,command,wrong_length,length_field", [
        (("weights",), "fermat-solve", [1.0, 2.0], "weights"),
        # retired keys: rejected whatever their value, the key named
        (("fermat_points",), "fermat-solve", ["A1", "A2"], "fermat_points"),
        (("options", "windings"), "connect", [], "options.windings"),
        (("inverse", "angles"), "fermat-inverse", [0.1, 0.2],
         "inverse.angles"),
        (("experiment", "lengths"), "rotate-experiment", [0.3, 0.4],
         "experiment.lengths"),
        (("experiment", "deltas"), "rotate-experiment", [],
         "experiment.deltas"),
    ], ids=["weights", "fermat_points", "windings", "inverse.angles",
            "experiment.lengths", "experiment.deltas"])
    def test_list_field_errors_name_the_field(self, path, command,
                                              wrong_length, length_field):
        def error_field(value):
            data = all_sections_scenario()
            data.setdefault("options", {})
            target = data
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            try:
                scn = scenario_from_dict(data)
            except ScenarioError as exc:
                return exc.field
            code, report = cli.run(command, scn)
            assert code == 1
            return report["error"]["field"]

        assert error_field(5) == ".".join(path)
        assert error_field(wrong_length) == length_field

    def test_fermat_inverse_angles(self):
        scn = scenario_from_dict(minimal_scenario(
            inverse={"angles": [{"deg": 120.0}] * 3, "total": 1.0}))
        code, report = cli.run("fermat-inverse", scn)
        assert code == 0
        assert report["results"]["inverse"]["weights"] == pytest.approx(
            [1 / 3] * 3)

    def test_fermat_inverse_measured(self):
        scn = scenario_from_dict(minimal_scenario(
            inverse={"center": {"u": 1.4, "v": 0.3}, "total": 9.0}))
        code, report = cli.run("fermat-inverse", scn)
        assert code == 0
        w = report["results"]["inverse"]["weights"]
        assert sum(w) == pytest.approx(9.0, abs=1e-9)
        assert all(x > 0 for x in w)

    def test_clairaut_report(self):
        scn = scenario_from_dict(minimal_scenario())
        code, report = cli.run("clairaut-report", scn)
        assert code == 0
        rep = report["results"]["clairaut"]
        assert len(rep["branches"]) == 3
        assert rep["sphere_probe"] is not None
        for br in rep["branches"]:
            assert abs(abs(br["c_cos"]) - abs(br["c_sin"])) <= 1e-12

    def test_rotate_experiment(self):
        scn = scenario_from_dict(minimal_scenario(
            points={"C": {"u": 1.2, "v": 0.5}},
            experiment={"center": "C", "theta0": 0.7,
                        "lengths": [0.3, 0.4, 0.5],
                        "deltas": [{"deg": d} for d in (0, 10, 20)]}))
        code, report = cli.run("rotate-experiment", scn)
        assert code == 0
        exp = report["results"]["experiment"]
        assert exp["weight_spread"] <= 1e-6
        assert len(exp["steps"]) == 3

    def test_missing_section_is_config_error(self):
        scn = scenario_from_dict(minimal_scenario())
        code, report = cli.run("shoot", scn)
        assert code == 1
        assert report["error"]["kind"] == "ScenarioError"
        assert report["error"]["field"] == "shoot"

    def test_scenario_error_without_field_reports_empty_field(self):
        """A ScenarioError raised while a command runs carries ``field``
        like one raised while the scenario loads; it used to be missing."""
        code, report = cli.run("shoot", None)
        assert code == 1
        assert report["error"] == {"kind": "ScenarioError", "field": "",
                                   "message": "this command requires "
                                              "--scenario"}

    @pytest.mark.parametrize("command,section,value", [
        ("shoot", "shoot", []),
        ("connect", "connect", 5),
        ("fermat-inverse", "inverse", "x"),
        ("rotate-experiment", "experiment", []),
        ("clairaut-report", "clairaut", [1]),
        ("connect", "shoot", 5),
    ])
    def test_non_object_section_is_config_error(self, command, section,
                                                value, tmp_path, capsys):
        """A command section that is not a JSON object is rejected when the
        scenario loads, whichever command runs: with ``"shoot": 5``,
        connect used to answer with exit 0."""
        data = all_sections_scenario() | {section: value}
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(data)
        assert err.value.field == section
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        assert cli.main([command, "--scenario", str(path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert (error["kind"], error["field"], error["message"]) == (
            "ScenarioError", section,
            f"{section}: section must be a JSON object")

    @pytest.mark.parametrize("options", [None, []], ids=["null", "list"])
    def test_non_object_options_is_config_error(self, options, tmp_path,
                                                capsys):
        """``options`` must be an object; ``null`` used to run connect with
        the default options and exit 0."""
        data = all_sections_scenario() | {"options": options}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        assert cli.main(["connect", "--scenario", str(path)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["field"] == "options"
        assert "options must be an object" in error["message"]

    @pytest.mark.parametrize("where,field", [
        ("points", "points.A1.w"), ("connect", "connect.to.deg")],
        ids=["named", "inline"])
    def test_extra_point_key_is_config_error(self, where, field, tmp_path):
        """A point object holds only u and v.  Each of these used to
        answer connect with exit 0, the extra key ignored."""
        data = json.loads(
            (TestBundledScenarios.SCENARIOS / "cylinder_pair.json").read_text())
        if where == "points":
            data["points"]["A1"] = {"u": 0.0, "v": 0.0, "w": 3.0}
        else:
            data["connect"]["to"] = {"u": 0.5, "v": 1.0, "deg": 30}
        path, out = tmp_path / "s.json", tmp_path / "r.json"
        path.write_text(json.dumps(data))
        assert cli.main(["connect", "--scenario", str(path),
                         "--out", str(out)]) == 1
        error = json.loads(out.read_text())["error"]
        assert error["field"] == field
        assert "unknown key; expected one of ['u', 'v']" in error["message"]

    def test_numerical_failure_exit_code(self):
        scn = scenario_from_dict({
            "schema": "geofermat/1",
            "surface": {"kind": "cone", "slope": 1.0},
            "points": {"P": {"u": 1.0, "v": 0.0}},
            "shoot": {"from": "P", "heading": {"deg": -90.0}, "length": 3.0},
        })
        code, report = cli.run("shoot", scn)
        assert code == 2
        assert report["error"]["kind"] == "ChartExitError"

    def test_start_on_terminal(self):
        """The default start, the weighted mean of the terminals, is A2
        itself here; the solve steps off it toward A0."""
        scn = scenario_from_dict({
            "schema": "geofermat/1",
            "surface": {"kind": "plane"},
            "points": {"A1": {"u": 1.0, "v": 0.0}, "A2": {"u": 2.0, "v": 1.0},
                       "A3": {"u": 3.0, "v": 2.0}},
            "weights": [1.0, 1.0, 1.0],
        })
        code, report = cli.run("fermat-solve", scn)
        assert code == 0
        point = report["results"]["fermat"]["point"]
        # the Weiszfeld point of the embedded terminals
        assert point["u"] == pytest.approx(1.8424466461, abs=1e-6)
        assert point["v"] == pytest.approx(1.0400190756, abs=1e-6)

    def test_terminal_given_a_turn_away(self):
        """A2 given 2*pi away is the same surface point: the default start
        lands on it and the solve steps off it as for A2 = (2, 1).  It used
        to exit 2, 'unreachable within search budget'."""
        def solve(v2):
            scn = scenario_from_dict({
                "schema": "geofermat/1",
                "surface": {"kind": "plane"},
                "points": {"A1": {"u": 1.0, "v": 0.0},
                           "A2": {"u": 2.0, "v": v2},
                           "A3": {"u": 3.0, "v": 2.0}},
                "weights": [1.0, 1.0, 1.0],
            })
            code, report = cli.run("fermat-solve", scn)
            assert code == 0, report.get("error")
            return report["results"]["fermat"]["point"]

        got, want = solve(1.0 + 2 * math.pi), solve(1.0)
        assert got["u"] == pytest.approx(want["u"], abs=1e-6)
        assert math.remainder(got["v"] - want["v"], 2 * math.pi) == \
            pytest.approx(0.0, abs=1e-6)

    @staticmethod
    def _bundled_triangle(command, name, v):
        data = json.loads((TestBundledScenarios.SCENARIOS
                           / "sphere_triangle.json").read_text())
        data["points"][name]["v"] = v
        return cli.run(command, scenario_from_dict(data))

    def test_terminal_many_turns_away_solves_as_its_nearest_copy(self):
        """A3 given 166 turns away used to exit 2 after seconds: every
        connect to it searched windings counted from the copy given."""
        code, far = self._bundled_triangle("fermat-solve", "A3", 1044.0)
        assert code == 0, far.get("error")
        _, near = self._bundled_triangle(
            "fermat-solve", "A3", math.remainder(1044.0, 2 * math.pi))
        got, want = far["results"]["fermat"], near["results"]["fermat"]
        assert got["f_value"] == pytest.approx(want["f_value"], abs=1e-9)
        for key in ("u", "v"):
            assert got["point"][key] == pytest.approx(want["point"][key],
                                                      abs=1e-9)

    def test_clairaut_report_with_a_far_terminal_matches_its_copy(self):
        """A2 at v = 11 is the vertex-regime error of A2 at 11 - 4 pi; it
        used to be a Weiszfeld SolveError after seconds."""
        code, far = self._bundled_triangle("clairaut-report", "A2", 11.0)
        near_code, near = self._bundled_triangle("clairaut-report", "A2",
                                                 11.0 - 4 * math.pi)
        assert code == near_code == 2
        assert far["error"] == near["error"]
        assert "vertex-regime" in far["error"]["message"]

    def test_determinism_modulo_wall_time(self):
        scn = scenario_from_dict(minimal_scenario())
        code1, rep1 = cli.run("fermat-solve", scn)
        code2, rep2 = cli.run("fermat-solve", scn)
        rep1.pop("wall_time_ms")
        rep2.pop("wall_time_ms")
        assert code1 == code2 == 0
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2,
                                                              sort_keys=True)


def _plane_report(points, center, command="clairaut-report"):
    """clairaut-report (or fermat-inverse) on the plane at a given center,
    equal weights."""
    section = {"clairaut-report": "clairaut", "fermat-inverse": "inverse"}
    return cli.run(command, scenario_from_dict({
        "schema": "geofermat/1", "surface": {"kind": "plane"},
        "points": {f"A{i + 1}": {"u": u, "v": v}
                   for i, (u, v) in enumerate(points)},
        "weights": [1.0, 1.0, 1.0],
        section[command]: {"center": {"u": center[0], "v": center[1]}}}))


class TestMeasuredFailureExitCodes:
    """A failure found in measured values (connect headings, branch
    offsets) is numerical and exits 2; terminals given coincident in the
    scenario stay a configuration error, exit 1."""

    @staticmethod
    def _numerical(code, report, message):
        assert code == 2
        assert report["error"]["kind"] == "SolveError"
        assert message in report["error"]["message"]
        json.dumps(report, allow_nan=False)

    def test_branch_offset(self, monkeypatch):
        real = cli.connect_geodesics

        def offset(surface, pairs, opts):
            paths = real(surface, pairs, opts)
            A = pairs[0][0]
            stray = shoot(surface, SurfacePoint(A.u + 0.1, A.v),
                          paths[0].theta_start, paths[0].length)
            return [stray, *paths[1:]]

        monkeypatch.setattr(cli, "connect_geodesics", offset)
        code, report = _plane_report([(2.0, 0.3), (1.5, 1.0), (2.5, -0.5)],
                                     (1.8, 0.2))
        self._numerical(code, report, "does not depart")

    def test_report_headings_coincide(self):
        """A1 and A2 lie on one ray from the center: their measured
        headings coincide."""
        code, report = _plane_report([(2.0, 0.0), (3.0, 0.0), (1.5, 1.0)],
                                     (1.0, 0.0))
        self._numerical(code, report, "two branch directions coincide")

    def test_solve_headings_coincide(self, monkeypatch):
        def coincide(headings):
            raise DegenerateTreeError("two branch directions coincide")

        monkeypatch.setattr(fermat_mod, "sector_partition", coincide)
        code, report = cli.run("fermat-solve",
                               scenario_from_dict(minimal_scenario()))
        self._numerical(code, report, "converged branches are degenerate")

    def test_rotation_headings_coincide(self, monkeypatch):
        real = fermat_mod.connect_geodesics

        def first_thrice(surface, pairs, opts):
            return real(surface, pairs[:1], opts) * 3

        monkeypatch.setattr(fermat_mod, "connect_geodesics", first_thrice)
        code, report = cli.run("rotate-experiment", scenario_from_dict(
            minimal_scenario(
                points={"C": {"u": 1.2, "v": 0.5}},
                experiment={"center": "C", "theta0": 0.7,
                            "lengths": [0.3, 0.4, 0.5], "deltas": [0.0]})))
        self._numerical(code, report, "rotation 0.0: two branch directions")

    @pytest.mark.parametrize("points, center", [
        ([(2.0, 0.3), (2.0, 0.3), (1.5, 1.0)], (1.0, 0.0)),
        ([(1.0, 0.0), (2.0, 0.3), (1.5, 1.0)], (1.0, 0.0)),
    ])
    def test_coincident_points_given_stay_config_errors(self, points,
                                                        center):
        code, report = _plane_report(points, center)
        assert code == 1
        assert report["error"]["kind"] == "DegenerateTreeError"

    def test_inverse_measured_angle_outside_open_half_turn(self):
        """The center lies outside the triangle, so one measured sector
        exceeds pi.  This used to exit 1 as a ScenarioError on the field
        inverse.angles, which the scenario never gave."""
        code, report = _plane_report([(2.0, 0.3), (2.5, 0.2), (1.5, 1.0)],
                                     (1.0, 0.0), "fermat-inverse")
        self._numerical(code, report, "measured sector angles [")
        assert "outside (0, pi)" in report["error"]["message"]

    def test_inverse_headings_coincide(self):
        """A1 and A2 lie on one ray from the center."""
        code, report = _plane_report([(2.0, 0.0), (3.0, 0.0), (1.5, 1.0)],
                                     (1.0, 0.0), "fermat-inverse")
        self._numerical(code, report, "two branch directions coincide")

    def test_inverse_coincident_terminals_given(self, monkeypatch):
        """Rejected before any connect, not after as coinciding
        headings."""
        monkeypatch.setattr(fermat_mod, "connect_geodesics", None)
        code, report = _plane_report([(2.0, 0.3), (2.0, 0.3), (1.5, 1.0)],
                                     (1.0, 0.0), "fermat-inverse")
        assert code == 1
        assert report["error"]["kind"] == "DegenerateTreeError"
        assert "pairwise distinct" in report["error"]["message"]
        json.dumps(report, allow_nan=False)

    @pytest.mark.parametrize("error,head,surface", [
        (SolveError("integrator cannot satisfy the error tolerance"),
         "every Newton start failed in the integrator at shoot_tol 1e-10: "
         "integrator cannot satisfy the error tolerance; ", None),
        (ChartExitError("left the chart", 0.5),
         "unreachable within search budget: the closed-form seed did not "
         "converge; ", None),
        (ChartExitError("left the chart", 0.5),
         "unreachable within search budget: the chord seed did not "
         "converge; ", {"kind": "torus", "R": 2.0, "r": 0.7}),
    ], ids=["integrator", "chart-exit", "chart-exit-torus"])
    def test_integrator_failure_is_named(self, monkeypatch, error, head,
                                         surface):
        """When every Newton start of a pair fails in the integrator, the
        report names the integrator's message and tolerance instead of
        the search budget alone; a chart exit is no integrator fault, and
        the message names the seed that failed: the sphere's great circle
        or, on the torus, the chord."""
        def failing(*args):
            raise error

        monkeypatch.setattr(connect_mod, "shoot", failing)
        data = minimal_scenario(connect={"from": "A1", "to": "A2"})
        if surface is not None:
            data["surface"] = surface
        code, report = cli.run("connect", scenario_from_dict(data))
        self._numerical(code, report, head)
        assert report["error"]["message"].startswith(head)


class TestVerifyCommand:
    def test_subset_passes(self):
        code, report = cli.run("verify", None,
                               suites=["inverse-round-trip",
                                       "sine-rule-diameter"])
        assert code == 0
        names = [r["name"] for r in report["results"]["verify"]]
        assert names == ["inverse-round-trip", "sine-rule-diameter"]
        assert all(r["passed"] for r in report["results"]["verify"])

    def test_failing_suite_maps_to_exit_3(self, monkeypatch):
        def broken():
            return False, "synthetic failure", {}
        monkeypatch.setitem(verify_mod.SUITES, "broken", broken)
        code, report = cli.run("verify", None, suites=["broken"])
        assert code == 3
        row = report["results"]["verify"][0]
        assert not row["passed"]
        # named by its key and numbered by its place in SUITES
        assert (row["name"], row["criterion"]) == ("broken",
                                                   len(verify_mod.SUITES))

    def test_unknown_suite_is_config_error(self):
        code, report = cli.run("verify", None, suites=["no-such-suite"])
        assert code == 1

    def test_empty_suite_selection_is_config_error(self, capsys):
        """``--suite ,`` used to run no suite and pass."""
        assert cli.main(["verify", "--suite", ","]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["error"]["kind"] == "ValueError"
        assert report["results"] == {}

    def test_empty_suite_option_means_all(self, monkeypatch, capsys):
        monkeypatch.setattr(verify_mod, "SUITES",
                            {"only": lambda: (True, "fine", {"n": 1})})
        assert cli.main(["verify", "--suite", ""]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]["verify"]
        assert [(r["name"], r["criterion"]) for r in rows] == [("only", 1)]


class TestBundledScenarios:
    SCENARIOS = __import__("pathlib").Path(__file__).parent.parent / "scenarios"

    def test_plane_equilateral_fixture(self):
        scn = load_scenario(self.SCENARIOS / "plane_equilateral.json")
        code, report = cli.run("fermat-solve", scn)
        assert code == 0
        fer = report["results"]["fermat"]
        u, v = fer["point"]["u"], fer["point"]["v"]
        assert u * math.cos(v) == pytest.approx(2.0, abs=1e-7)
        assert u * math.sin(v) == pytest.approx(0.0, abs=1e-7)
        assert fer["sector_angles"] == pytest.approx([2 * math.pi / 3] * 3,
                                                     abs=1e-7)

    @pytest.mark.parametrize("name,command", [
        ("sphere_triangle.json", "fermat-solve"),
        ("cylinder_pair.json", "connect"),
        ("rotate_paraboloid.json", "rotate-experiment"),
        ("shoot_sphere.json", "shoot"),
        ("sphere_planted.json", "fermat-inverse"),
        ("sphere_planted.json", "clairaut-report"),
        ("sphere_near_axis.json", "fermat-solve"),
        ("sphere_options.json", "fermat-solve"),
        ("cone_pair.json", "connect"),
        ("sphere_large.json", "connect"),
        ("sphere_large.json", "clairaut-report"),
        ("torus_planted.json", "fermat-solve"),
        ("torus_planted.json", "clairaut-report"),
        ("torus_pair.json", "connect"),
    ])
    def test_fixtures_run_clean(self, name, command):
        scn = load_scenario(self.SCENARIOS / name)
        code, report = cli.run(command, scn)
        assert code == 0
        json.dumps(report, allow_nan=False)

    def test_torus_planted_tree_is_recovered(self):
        """``torus_planted.json``'s terminals end geodesics of 0.5, 0.6 and
        0.45 from (1.45, 0.2), at the sector angles of its weights.  They
        lie on both sides of the top circle u = pi / 2, where K changes
        sign.  Both commands that solve it answer that centre."""
        scn = load_scenario(self.SCENARIOS / "torus_planted.json")
        assert len({math.copysign(1.0, scn.surface.curvature(p.u))
                    for p in scn.terminals()}) == 2
        for command in ("fermat-solve", "clairaut-report"):
            code, report = cli.run(command, scn)
            assert code == 0
            fer = report["results"]["fermat"]
            assert fer["mode"] == "interior"
            E, G, _, _, _ = scn.surface.metric_terms(1.45)
            gap = math.hypot(math.sqrt(E) * (fer["point"]["u"] - 1.45),
                             math.sqrt(G) * (fer["point"]["v"] - 0.2))
            assert gap <= 1e-6

    def test_seam_answer_reads_zero(self):
        """The plane's equilateral answer sits on the v = 0 seam, some
        1e-11 below it: its rotation angles and branch-1 heading read 0,
        not 2 pi."""
        scn = load_scenario(self.SCENARIOS / "plane_equilateral.json")
        code, report = cli.run("clairaut-report", scn)
        assert code == 0
        res = report["results"]
        assert res["center"]["v_mod_2pi"] == pytest.approx(0.0, abs=1e-9)
        assert res["fermat"]["point"]["v_mod_2pi"] == pytest.approx(
            0.0, abs=1e-9)
        for branch in res["fermat"]["branches"]:
            assert branch["start"]["v_mod_2pi"] == pytest.approx(0.0,
                                                                 abs=1e-9)
        assert res["clairaut"]["prediction_note"].startswith(
            "branch-1 angle 0.000000 outside")

    def test_near_axis_solve_takes_few_shots(self, monkeypatch):
        """A3 sits 8.6e-5 from the pole.  Every arc of the tree is shorter
        than pi, the sphere's injectivity radius, so each cold connect is
        its chord seed's geodesic, with no fan or further Newton start:
        the solve makes at most 370 adaptive shots (121 when this was
        written, 1221 before the injectivity-radius settle)."""
        calls = []
        real = geodesics_mod._integrate

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(geodesics_mod, "_integrate", counted)
        scn = load_scenario(self.SCENARIOS / "sphere_near_axis.json")
        code, report = cli.run("fermat-solve", scn)
        assert code == 0
        assert report["results"]["fermat"]["mode"] == "interior"
        assert len(calls) <= 370

    def test_sphere_answers_scale_with_the_radius(self):
        """``sphere_large.json`` is ``sphere_triangle.json`` on a sphere of
        radius 100: the connect length and the Fermat value f scale by
        100, and the sphere probe's ratios, which do not depend on scale,
        agree.  The fixed 20-long search cap used to reject every pair."""
        large = load_scenario(self.SCENARIOS / "sphere_large.json")
        small = scenario_from_dict(large.raw | {
            "surface": {"kind": "sphere", "radius": 1.0}})
        got = []
        for scn in (small, large):
            code, connect = cli.run("connect", scn)
            assert code == 0
            code, report = cli.run("clairaut-report", scn)
            assert code == 0
            res = report["results"]
            got.append((connect["results"]["path"]["length"],
                        res["fermat"]["f_value"],
                        res["clairaut"]["sphere_probe"]["ratios"]))
        (l1, f1, r1), (l100, f100, r100) = got
        assert l100 == pytest.approx(100.0 * l1, rel=1e-9)
        assert f100 == pytest.approx(100.0 * f1, rel=1e-9)
        assert r100 == pytest.approx(r1, abs=1e-8)

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_report_does_not_depend_on_the_weights_scale(self, k):
        """The planted tree's sector angles, prediction and sphere probe
        depend only on the weights' ratios: with the weights times
        ``2**k`` the report is the same, with no division by zero or
        overflow at either end."""
        raw = json.loads((self.SCENARIOS / "sphere_planted.json").read_text())
        reports = []
        for scale in (0, k):
            scn = scenario_from_dict(raw | {
                "weights": [math.ldexp(b, scale) for b in raw["weights"]]})
            code, report = cli.run("clairaut-report", scn)
            reports.append((code, report["warnings"], report["results"]))
        assert reports[0][0] == 0
        assert reports[1] == reports[0]

    def test_cone_pair_runs_no_fan(self, monkeypatch):
        """No curve from A1 to A2 as short as the chord seed's geodesic
        comes nearer the apex than u = 0.86, so windings -1 and 1 are
        settled, as K = 0 settles 0, and the answer is the chord seed's
        geodesic: the chord of the unrolled cone, slant radius ``u sqrt 2``
        and sector angle ``v / sqrt 2``."""
        fans = []
        monkeypatch.setattr(connect_mod, "shoot_fan",
                            lambda *args: fans.append(args))
        scn = load_scenario(self.SCENARIOS / "cone_pair.json")
        code, report = cli.run("connect", scn)
        assert (code, fans) == (0, [])
        r1, r2 = math.sqrt(2.0), 2.5 * math.sqrt(2.0)
        turn = (math.pi / 3.0 - 0.2) / math.sqrt(2.0)
        assert report["results"]["path"]["length"] == pytest.approx(
            math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(turn)),
            abs=1e-9)

    def test_planted_tree_report_schema(self):
        """The planted sphere tree (branch 1 at 100 degrees, clockwise) is
        in the layout window, so its report carries the prediction and
        the sphere probe; the keys of ``branches``, ``sphere_probe`` and
        ``steps`` are the fields of their result types, pinned here."""
        scn = load_scenario(self.SCENARIOS / "sphere_planted.json")
        code, report = cli.run("clairaut-report", scn)
        assert code == 0
        rep = report["results"]["clairaut"]
        assert rep["orientation"] == "clockwise"
        assert rep["prediction_note"] == ""
        assert max(rep["prediction"]["deviation"]) <= 1e-9
        for branch in rep["branches"]:
            assert set(branch) == {"theta", "alpha", "beta", "c_cos",
                                   "c_sin"}
        assert set(rep["sphere_probe"]) == {
            "ratios", "weight_fractions", "deviations", "all_positive",
            "sine_sum"}

        code, report = cli.run("fermat-inverse", scn)
        assert code == 0
        assert report["results"]["inverse"]["normalized"] == pytest.approx(
            scn.weights.normalized(), abs=1e-6)

        code, report = cli.run(
            "rotate-experiment",
            load_scenario(self.SCENARIOS / "rotate_paraboloid.json"))
        assert code == 0
        for step in report["results"]["experiment"]["steps"]:
            assert set(step) == {"delta", "headings", "endpoints",
                                 "recovered_weights", "recovery_error",
                                 "clairaut"}
            for point in step["endpoints"]:
                assert set(point) == {"u", "v", "v_mod_2pi"}


class TestMain:
    def test_out_file_and_exit(self, tmp_path):
        scn_path = tmp_path / "s.json"
        scn_path.write_text(json.dumps(minimal_scenario(
            shoot={"from": "A1", "heading": 0.3, "length": 0.5})))
        out = tmp_path / "report.json"
        code = cli.main(["shoot", "--scenario", str(scn_path),
                         "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["command"] == "shoot"
        assert report["scenario_digest"]

    def test_non_finite_report_is_numerical_failure(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setitem(cli._HANDLERS, "shoot",
                            lambda scn, warnings:
                            ({"path": {"length": float("nan")}}, []))
        scn_path = tmp_path / "s.json"
        scn_path.write_text(json.dumps(minimal_scenario(
            shoot={"from": "A1", "heading": 0.3, "length": 0.5})))
        code = cli.main(["shoot", "--scenario", str(scn_path)])
        out = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in out.out + out.err
        report = json.loads(out.out, parse_constant=_reject_constant)
        assert report["error"]["kind"] == "NonFiniteResult"
        assert report["results"] == {}

    def test_out_into_missing_directory_exits_1(self, tmp_path, capsys):
        """An --out that cannot be written used to end in a traceback."""
        scn_path = tmp_path / "s.json"
        scn_path.write_text(json.dumps(all_sections_scenario()))
        code = cli.main(["shoot", "--scenario", str(scn_path),
                         "--out", str(tmp_path / "missing" / "r.json")])
        out = capsys.readouterr()
        assert code == 1
        assert out.out == ""
        err = json.loads(out.err, parse_constant=_reject_constant)["error"]
        assert err["kind"] == "FileNotFoundError"

    def test_paths_naming_a_file_exits_1(self, tmp_path, capsys):
        """A --paths that names a regular file used to end in a traceback."""
        scn_path = tmp_path / "s.json"
        scn_path.write_text(json.dumps(all_sections_scenario()))
        code = cli.main(["shoot", "--scenario", str(scn_path),
                         "--paths", str(scn_path)])
        out = capsys.readouterr()
        assert code == 1
        report = json.loads(out.out, parse_constant=_reject_constant)
        assert report["error"]["kind"] == "FileExistsError"
        assert report["results"] == {}

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = cli.main(["connect", "--scenario",
                         str(tmp_path / "nope.json")])
        assert code == 1

    def test_load_error_is_written_to_out(self, tmp_path, capsys):
        """A scenario that fails to load used to leave --out unwritten (or
        stale): its error report went to stderr only."""
        scn_path = tmp_path / "s.json"
        scn_path.write_text(json.dumps(minimal_scenario(weights=[-1, 2, 3])))
        out = tmp_path / "report.json"
        out.write_text("stale")
        code = cli.main(["fermat-solve", "--scenario", str(scn_path),
                         "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert report["error"]["kind"] == "ScenarioError"
        assert report["error"]["field"] == "weights[0]"
        assert json.loads(capsys.readouterr().err) == report

    @pytest.mark.parametrize("u2", [1.5, 1.0])
    def test_non_finite_v_difference_is_numerical_failure(self, tmp_path,
                                                          capsys, u2):
        """A1.v = 1e308 and A2.v = -1e308 differ by more than the float
        range: a SolveError naming the difference, not numpy overflow
        warnings (or a 'math domain error' exit 1 when the u are equal)."""
        data = minimal_scenario()
        data["points"]["A1"]["v"] = 1e308
        data["points"]["A2"] = {"u": u2, "v": -1e308}
        scn_path = tmp_path / "s.json"
        scn_path.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["fermat-solve", "--scenario", str(scn_path),
                             "--out", str(out)])
        assert code == 2
        assert not caught, [str(w.message) for w in caught]
        report = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert report["error"]["kind"] == "SolveError"
        assert "not finite" in report["error"]["message"]

    def test_scenario_required_for_solves(self, capsys):
        assert cli.main(["fermat-solve"]) == 1

    def test_vase_meridian_shoot_is_quiet(self):
        """An exact meridian on the vase whose arc quadrature stops at
        roundoff short of its 1e-13 target used to print scipy's
        IntegrationWarning beside an exit-0 report."""
        data = {**_VASE_SCENARIO,
                "points": {"P": {"u": 2.588204360826584, "v": 0.1}},
                "shoot": {"from": "P", "heading": math.pi / 2,
                          "length": 2.180196746879833}}
        del data["connect"]
        assert _run_fuzz_case(data, "shoot") == 0

    def test_shoot_without_scenario(self, capsys):
        assert cli.main(["shoot"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["error"]["kind"] == "ScenarioError"


# each bundled scenario with the command it is written for, and one with
# an inverse section so that all six commands run
_CLI_BASES = [
    (json.loads((TestBundledScenarios.SCENARIOS / name).read_text()), command)
    for name, command in [("cylinder_pair.json", "connect"),
                          ("plane_equilateral.json", "fermat-solve"),
                          ("rotate_paraboloid.json", "rotate-experiment"),
                          ("shoot_sphere.json", "shoot"),
                          ("sphere_triangle.json", "clairaut-report"),
                          ("sphere_triangle.json", "fermat-inverse")]]
_CLI_BASES[-1][0]["inverse"] = {"center": {"u": 1.4, "v": 0.3}, "total": 9.0}
_CLI_CASES = [(data, command, path) for data, command in _CLI_BASES
              for path in [*_field_paths(data), ("surface", "slope"),
                           ("points", "A4")]]
# JSON values that keep every run short: NaN, infinities, 1e-300 and an
# integer beyond the float range, but no number far from the bundled ones
# (a shoot of length 1e300 runs to the integrator's step budget, and a point
# many turns away or next to the axis takes seconds to solve or give up on)
_cli_numbers = (st.integers(-2, 2) | st.floats(-2.0, 2.0).map(lambda x: round(x, 1))
                | st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400,
                                   1e-300]))
cli_values = _cli_numbers | st.recursive(
    st.none() | st.booleans() | _cli_numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


# a wavy vase: 17 knots on u in [0, 8], and a connect between two points on it
_VASE_SCENARIO = {
    "schema": "geofermat/1",
    "surface": {"kind": "custom", "samples": [
        [0.5 * k, round(1.2 + 0.35 * math.sin(0.65 * k) + 0.025 * k, 12),
         round(0.5 * k + 0.2 * math.sin(0.5 * k), 12)] for k in range(17)]},
    "points": {"A": {"u": 2.0, "v": 0.0}, "B": {"u": 3.0, "v": 0.8}},
    "connect": {"from": "A", "to": "B"},
}


class TestCliFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.sampled_from(_CLI_CASES), value=cli_values)
    def test_any_field_value_gives_exit_code_and_strict_json(self, case,
                                                             value):
        """One field of a bundled scenario set to any JSON value: the
        matching command answers or rejects it with exit 0, 1 or 2, no
        warning, and strict JSON in --out (a scenario that fails to load
        goes to stderr as well).  Derandomized so that tier-1 time stays
        fixed."""
        base, command, path = case
        data = json.loads(json.dumps(base))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        _run_fuzz_case(data, command)

    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edit=st.sampled_from(["cell", "row", "drop", "duplicate"]),
           row=st.integers(0, 16), col=st.integers(0, 2), value=cli_values)
    def test_any_custom_sample_edit_gives_exit_code_and_strict_json(
            self, edit, row, col, value):
        """One cell or row of a custom surface's samples set to any JSON
        value, or one row dropped or duplicated: ``connect`` answers or
        rejects the scenario with exit 0, 1 or 2, strict JSON and no
        warning."""
        data = json.loads(json.dumps(_VASE_SCENARIO))
        rows = data["surface"]["samples"]
        if edit == "cell":
            rows[row][col] = value
        elif edit == "row":
            rows[row] = value
        elif edit == "drop":
            del rows[row]
        else:
            rows.insert(row, list(rows[row]))
        _run_fuzz_case(data, "connect")


def _run_fuzz_case(data, command):
    """Run ``command`` on ``data`` through ``cli.main --out``: exit 0, 1 or
    2, no warning, strict JSON in --out, and stderr empty or the same
    report.  Returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        scn_path, out = Path(tmp) / "s.json", Path(tmp) / "r.json"
        scn_path.write_text(json.dumps(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command, "--scenario", str(scn_path),
                             "--out", str(out)])
        text = out.read_text()
    assert code in (0, 1, 2)
    report = json.loads(text, parse_constant=_reject_constant)
    assert not caught, [str(w.message) for w in caught]
    if err.getvalue():      # a load error goes to stderr as well
        assert json.loads(err.getvalue()) == report
    return code
