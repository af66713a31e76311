"""Acceptance gate: one test per criterion, at the stated tolerances.

The command-line ``verify`` runs the ten built-in verification suites
(each seeded and deterministic) once per module.  Criteria 1-10 check
their suite's row of that report; criterion 11 checks the command's exit
code, its time budget and that every suite passed.
"""

import json
import time

import pytest

import geofermat.cli as cli
from geofermat.verify import SUITES


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "verify.json"
    t0 = time.perf_counter()
    code = cli.main(["verify", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    rows = json.loads(out.read_text())["results"]["verify"]
    return code, elapsed, rows


def _check(verify_run, criterion):
    _, _, rows = verify_run
    row = next(r for r in rows if r["criterion"] == criterion)
    status = "PASS" if row["passed"] else "FAIL"
    print(f"{status} criterion {criterion}: {row['name']}: {row['detail']}")
    assert row["passed"], row["detail"]


def test_criterion_01_sphere_distance_oracle(verify_run):
    _check(verify_run, 1)


def test_criterion_02_cylinder_unrolling_oracle(verify_run):
    _check(verify_run, 2)


def test_criterion_03_clairaut_first_integral_drift(verify_run):
    _check(verify_run, 3)


def test_criterion_04_plane_fermat_vs_weiszfeld(verify_run):
    _check(verify_run, 4)


def test_criterion_05_planted_tree_recovery(verify_run):
    _check(verify_run, 5)


def test_criterion_06_inverse_round_trip(verify_run):
    _check(verify_run, 6)


def test_criterion_07_root_consistency(verify_run):
    _check(verify_run, 7)


def test_criterion_08_sine_rule_identity(verify_run):
    _check(verify_run, 8)


def test_criterion_09_rotation_experiment(verify_run):
    _check(verify_run, 9)


def test_criterion_10_sphere_ratio_probe(verify_run):
    _check(verify_run, 10)


def test_criterion_11_verify_command(verify_run):
    code, elapsed, rows = verify_run
    status = "PASS" if code == 0 else "FAIL"
    print(f"{status} criterion 11: verify exit code {code}, "
          f"{elapsed:.1f}s (budget 300s)")
    assert code == 0
    assert elapsed <= 300.0
    assert len(rows) == len(SUITES)
    assert all(r["passed"] for r in rows)
    # each row carries its suite's stats as plain JSON scalars
    for r in rows:
        assert r["stats"] and all(isinstance(val, (bool, int, float))
                                  for val in r["stats"].values())
