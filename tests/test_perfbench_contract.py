"""The benchmark harness still runs against the package.

perfbench/traced.py wraps public functions by name and reads keys of their
results; these smoke runs fail when a rename or a dropped key breaks it.
perfbench/run.py checks each command's output against
perfbench/reference.json; the same checks run here in process.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rspacelab import atlas, capacity, reporting
from rspacelab.cli import SUITE_NAMES

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


@pytest.mark.parametrize("argv,names", [
    (["report", "--space", "sphere", "--params", "2", "--seed", "1",
      "--format", "json"],
     {"capacity.systole_details", "reporting.capacity_table",
      "reporting.render"}),
    (["verify", "--suite", "capacity", "--space",
      "grassmann_complex_hermitian", "--params", "1,1", "--seed", "1"],
     {"capacity.systole_details"}),
], ids=["report", "verify"])
def test_traced_harness_records_the_systole(tmp_path, argv, names):
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(TRACED), str(spans), "0",
                           *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["exit_code"] == 0
    assert names <= {s[1] for s in record["spans"]}
    assert record["counts"]["capacity.systole_details.tested"] >= 1


def test_every_trace_target_resolves():
    # a moved or renamed function would silently drop its per-layer metric
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)  # defines TARGETS; installs nothing
    for name, mod, attr in traced.TARGETS:
        assert callable(getattr(mod, attr, None)), (name, attr)


@pytest.mark.parametrize("attr", ["capacity_table", "table_json",
                                  "table_csv", "table_text"])
def test_reporting_reexports_the_capacity_table(attr):
    # the same function object, so the tracer rebinds both names
    assert getattr(reporting, attr) is getattr(capacity, attr)


# --- the outputs the benchmark checks against perfbench/reference.json ------
# perfbench/run.py refuses a run whose outputs leave these bounds; checking
# them here finds such a change before the benchmark does

REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())
REL_TOL = 1e-9  # run.py REL_TOL: the reference values are exact to rounding
PIN_TOL = 1e-6  # run.py PIN_TOL: the closed-form systole pins


@pytest.mark.parametrize("ref", REFERENCE["catalogue"],
                         ids=lambda r: r["label"])
def test_capacity_table_matches_the_reference_catalogue(ref):
    row, = capacity.capacity_table([atlas.descriptor(ref["id"],
                                                     *ref["params"])])
    assert row["space"] == ref["label"]
    for key in ("sys", "ratio", "c_G_U1", "c_HZ_U1", "c_HZ_D1"):
        want, got = ref[key], row[key]
        if isinstance(want, str):
            assert got == want, key
        else:
            assert abs(got - want) <= REL_TOL * max(1.0, abs(want)), key
    if ref["sys_pin"] is not None:
        assert abs(row["sys"] - ref["sys_pin"]) <= PIN_TOL


def _ids_all_pass(report, want_ids):
    checks = {c["id"]: c["status"] for c in report["checks"]}
    assert sorted(set(want_ids) - set(checks)) == []
    assert [i for i, status in checks.items() if status != "pass"] == []


def test_every_suite_holds_the_reference_check_ids():
    _ids_all_pass(reporting.run_suites(list(SUITE_NAMES), seed=0),
                  REFERENCE["verify_ids"])


@pytest.mark.parametrize("label", sorted(REFERENCE["large_ids"]))
def test_large_algebra_points_hold_the_reference_check_ids(label):
    rid, n = label[:-1].split("(")
    report = reporting.run_suites(["algebra", "roots"], seed=0, space=rid,
                                  params=(int(n),))
    _ids_all_pass(report, REFERENCE["large_ids"][label])
