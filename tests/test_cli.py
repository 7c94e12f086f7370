"""Exit codes, formats and determinism of the command line front end."""

import csv
import io
import json
import linecache
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rspacelab import cli, reporting


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_atlas_passes_by_default(capsys):
    code, out, _ = run(capsys, "atlas")
    assert code == cli.EX_OK
    assert "sphere(2)" in out and "skip" in out


def test_atlas_filter_selects_one_row(capsys):
    code, out, _ = run(capsys, "atlas", "--space", "sphere")
    assert code == cli.EX_OK
    rows = [ln for ln in out.splitlines() if "sphere" in ln]
    assert len(rows) == 1 and " ok" in rows[0]


def test_atlas_unknown_row_is_a_usage_error(capsys):
    code, _, err = run(capsys, "atlas", "--space", "nonsense")
    assert code == cli.EX_USAGE
    assert "nonsense" in err


def test_atlas_json_round_trips(capsys):
    code, out, _ = run(capsys, "atlas", "--format", "json",
                       "--space", "sphere")
    assert code == cli.EX_OK
    rows = json.loads(out)["rows"]
    assert rows[0]["computed_ratio"] == 2


def test_verify_requires_a_seed(capsys):
    code, _, _ = run(capsys, "verify")
    assert code == cli.EX_USAGE


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--seed", "1", "--suite", "nope")
    assert code == cli.EX_USAGE and "nope" in err


@pytest.mark.parametrize("suite", [",", ""])
def test_verify_rejects_an_empty_suite_list(capsys, suite):
    code, out, err = run(capsys, "verify", "--seed", "1", "--suite", suite)
    assert code == cli.EX_USAGE and "--suite" in err and out == ""


@pytest.mark.parametrize("seed,code", [("-1", cli.EX_USAGE),
                                       ("-100", cli.EX_USAGE),
                                       ("0", cli.EX_OK)])
def test_verify_seed_must_be_non_negative(capsys, seed, code):
    got, _, err = run(capsys, "verify", "--seed", seed, "--suite", "roots",
                      "--space", "sphere", "--params", "2")
    assert got == code
    assert ("--seed" in err) == (code == cli.EX_USAGE)


def test_verify_rejects_unknown_space(capsys):
    code, _, _ = run(capsys, "verify", "--seed", "1", "--space", "nope")
    assert code == cli.EX_USAGE


def test_verify_rejects_empty_selection(capsys):
    code, _, err = run(capsys, "verify", "--seed", "1", "--suite",
                       "critical", "--space", "cp1")
    assert code == cli.EX_USAGE and "selects nothing" in err


def test_verify_delta_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "5", "--suite", "delta")
    assert code == cli.EX_OK
    report = json.loads(out)
    assert {c["status"] for c in report["checks"]} == {"pass"}
    assert report["meta"]["seed"] == 5


def test_verify_csv_has_one_line_per_check(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "5", "--suite", "delta",
                       "--format", "csv")
    assert code == cli.EX_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][2] == "id"
    assert len(rows) == 3  # header + the two models


def test_absurd_tolerance_forces_a_verification_failure(capsys, tmp_path):
    # the Killing eigenvalues of sphere(2) miss -f by round-off, a nonzero
    # residual that a tolerance of 1e-30 fails
    code, out, _ = run(capsys, "verify", "--seed", "5", "--suite", "algebra",
                       "--space", "sphere", "--params", "2",
                       "--tol", "killing=1e-30")
    assert code == cli.EX_VERIFY
    (failed,) = [c for c in json.loads(out)["checks"] if c["status"] != "pass"]
    assert failed["id"] == "algebra.killing[sphere(2)]"
    assert failed["computed"] > 1e-30


def test_bad_tolerance_syntax_is_a_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--seed", "5", "--tol", "alg=soft")
    assert code == cli.EX_USAGE
    code, _, _ = run(capsys, "verify", "--seed", "5", "--tol", "zzz=1.0")
    assert code == cli.EX_USAGE


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_a_tolerance_off_the_finite_non_negatives_is_a_usage_error(capsys,
                                                                   value):
    # nan and -1 would fail passing checks; inf and nan would write NaN and
    # Infinity, which are not JSON
    code, out, err = run(capsys, "verify", "--seed", "5", "--suite", "algebra",
                         "--space", "sphere", "--params", "2",
                         "--tol", f"alg={value}")
    assert code == cli.EX_USAGE and out == ""
    assert "'alg'" in err and "finite, non-negative" in err


def test_a_zero_tolerance_is_accepted(capsys):
    code, _, _ = run(capsys, "verify", "--seed", "5", "--suite", "roots",
                     "--space", "sphere", "--params", "2", "--tol", "sl2=0")
    assert code in (cli.EX_OK, cli.EX_VERIFY)


def _statuses(tol=None):
    report = reporting.run_suites(cli.SUITE_NAMES, 7, tol=tol)
    return {c["id"]: c["status"] for c in report["checks"]}


def test_loosening_a_tolerance_never_fails_a_passing_check():
    # a larger tolerance accepts more, so every check that passes at the
    # defaults passes at 1000 times any one of them
    default = _statuses()
    assert len(default) == 122 and set(default.values()) == {"pass"}
    for name, value in cli.DEFAULT_TOL.items():
        assert _statuses({name: 1000 * value}) == default, name


def test_a_cluster_takes_the_indices_of_its_nearest_level(capsys):
    # at gap_rel=1 every level of sphere(2) lies within tolerance of every
    # cluster
    code, out, _ = run(capsys, "verify", "--seed", "1", "--suite", "critical",
                       "--space", "sphere", "--params", "2",
                       "--tol", "gap_rel=1")
    assert code == cli.EX_OK
    (indices,) = [c for c in json.loads(out)["checks"]
                  if c["id"] == "critical.indices[sphere(2)]"]
    assert indices["expected"] == [[0], [2], [4]]


def test_same_seed_reports_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "verify", "--seed", "9", "--suite",
                         "roots,finsler", "--space", "sphere",
                         "--params", "2", "--out", str(path))
        assert code == cli.EX_OK
    assert a.read_bytes() == b.read_bytes()


def test_different_seeds_change_the_report(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path, seed in ((a, "9"), (b, "10")):
        run(capsys, "verify", "--seed", seed, "--suite", "finsler",
            "--space", "sphere", "--params", "2", "--out", str(path))
    assert a.read_bytes() != b.read_bytes()


def test_report_renders_the_sphere_row(capsys):
    code, out, _ = run(capsys, "report", "--space", "sphere",
                       "--params", "2")
    assert code == cli.EX_OK
    row = [ln for ln in out.splitlines() if "sphere(2)" in ln][0]
    assert row.count("2.000000*pi") == 4  # sys and all three capacities


@pytest.mark.parametrize("command", ["atlas", "report"])
@pytest.mark.parametrize("label,space", [("8a", "sphere"),
                                         ("8bc", "quadric_real")])
def test_a_table_row_label_selects_the_rows_of_its_id(capsys, command,
                                                      label, space):
    spaces = []
    for key in (label, space):
        code, out, _ = run(capsys, command, "--space", key, "--format", "json")
        assert code == cli.EX_OK
        spaces.append([r["space"] for r in json.loads(out)["rows"]])
    assert spaces[0] == spaces[1]
    assert all(sp.startswith(space + "(") for sp in spaces[0])
    if command == "report":  # every sweep row: two quadrics, three spheres
        assert len(spaces[0]) == {"sphere": 3, "quadric_real": 2}[space]


@pytest.mark.parametrize("command", ["atlas", "report"])
def test_a_table_row_label_takes_params(capsys, command):
    outs = []
    for key in ("8a", "sphere"):
        code, out, err = run(capsys, command, "--space", key, "--params", "3")
        assert code == cli.EX_OK and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert "sphere(3)" in outs[0]


@pytest.mark.parametrize("label,space", [("8a", "sphere"),
                                         ("H1", "grassmann_complex_hermitian")])
def test_verify_takes_a_table_row_label_for_its_id(capsys, label, space):
    outs = []
    for key in (label, space):
        code, out, err = run(capsys, "verify", "--seed", "1", "--space", key,
                             "--suite", "algebra")
        assert code == cli.EX_OK and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert f"algebra.jacobi[{space}(" in outs[0]


@pytest.mark.parametrize("label", ["8z", "H9"])
def test_verify_rejects_an_unknown_label(capsys, label):
    code, out, err = run(capsys, "verify", "--seed", "1", "--space", label,
                         "--suite", "algebra")
    assert code == cli.EX_USAGE and out == ""
    assert err == f"rspacelab: unknown space {label!r}\n"


@pytest.mark.parametrize("argv", [
    ["atlas", "--space", "9", "--params", "3"],
    ["report", "--space", "9"],
    ["verify", "--seed", "1", "--space", "9"],
], ids=["atlas", "report", "verify"])
def test_an_exceptional_row_is_named_as_such(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.EX_USAGE and out == ""
    assert err == ("rspacelab: row 9 (quaternionic_grassmann_z2) is "
                   "exceptional: listed, not instantiable, and takes no "
                   "parameters\n")


@pytest.mark.parametrize("argv,message", [
    (["atlas", "--params", "1,2"], "--params needs --space"),
    (["report", "--params", "2"], "--params needs --space"),
    (["verify", "--seed", "1", "--suite", "capacity", "--params", "2"],
     "--params needs --space"),
    (["verify", "--seed", "1", "--space", "cp1", "--params", "2"],
     "cut model 'cp1' takes no parameters"),
], ids=["atlas", "report", "verify", "verify-cut-model"])
def test_params_without_a_row_to_apply_to_is_a_usage_error(capsys, argv,
                                                           message):
    code, out, err = run(capsys, *argv)
    assert code == cli.EX_USAGE and out == ""
    assert err == f"rspacelab: {message}\n"


def _csv_cell(key, value):
    # verify writes computed and expected as JSON; csv writes None as ""
    if key in ("computed", "expected"):
        return json.dumps(value)
    return "" if value is None else str(value)


@pytest.mark.parametrize("argv,rows_key,label_key", [
    (["atlas"], "rows", "space"),
    (["report"], "rows", "space"),
    (["verify", "--seed", "7"], "checks", "id"),
], ids=["atlas", "report", "verify"])
def test_csv_text_and_json_agree(capsys, argv, rows_key, label_key):
    outs = {}
    for fmt in ("json", "csv", "text"):
        code, outs[fmt], _ = run(capsys, *argv, "--format", fmt)
        assert code == cli.EX_OK
    jrows = json.loads(outs["json"])[rows_key]
    crows = list(csv.DictReader(io.StringIO(outs["csv"])))
    assert len(crows) == len(jrows) > 0
    for jrow, crow in zip(jrows, crows):
        for key, cell in crow.items():
            if key in jrow:
                assert cell == _csv_cell(key, jrow[key]), key
    # a table has a header and a rule above its rows; the verify log has
    # a summary line below them
    lines = outs["text"].splitlines()
    lines = lines[:-1] if rows_key == "checks" else lines[2:]
    assert len(lines) == len(jrows)
    for jrow, line in zip(jrows, lines):
        assert jrow[label_key] in line


def test_unwritable_output_path_is_an_io_error(capsys):
    code, _, err = run(capsys, "report", "--space", "sphere", "--params", "2",
                       "--out", "/nonexistent/d/x.csv")
    assert code == cli.EX_IO and "cannot write" in err


def test_version_and_help_exit_cleanly(capsys):
    assert cli.main(["--version"]) == 0
    assert cli.main(["--help"]) == 0


ROOT = Path(__file__).resolve().parents[1]


def run_child(*args, stdout=subprocess.PIPE):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=300)


@pytest.mark.parametrize("argv", [
    ["atlas", "--space", "sphere", "--params", "30"],
    ["report", "--space", "grassmann_real", "--params", "7,7"],
    ["verify", "--seed", "1", "--suite", "algebra", "--space", "sphere",
     "--params", "30"],
], ids=["atlas", "report", "verify"])
def test_size_outside_the_window_is_a_usage_error(argv):
    proc = run_child("-m", "rspacelab", *argv)
    assert proc.returncode == cli.EX_USAGE
    assert proc.stderr.startswith("rspacelab: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def _assert_stdout_io_error(proc):
    assert proc.returncode == cli.EX_IO
    assert proc.stderr.startswith("rspacelab: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("argv", [["atlas"], ["report"],
                                  ["verify", "--seed", "7"]],
                         ids=["atlas", "report", "verify"])
def test_a_stdout_pipe_without_a_reader_is_an_io_error(argv):
    r, w = os.pipe()
    os.close(r)  # the reader is gone before the command writes
    try:
        proc = run_child("-m", "rspacelab", *argv, stdout=w)
    finally:
        os.close(w)
    _assert_stdout_io_error(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_is_an_io_error():
    with open("/dev/full", "w") as full:
        proc = run_child("-m", "rspacelab", "atlas", stdout=full)
    _assert_stdout_io_error(proc)


@pytest.mark.parametrize("argv,expected", [
    (["atlas", "--space", "sphere", "--params", ""], 1),
    (["atlas", "--space", "sphere", "--params", "1,2,3"], 1),
    (["report", "--space", "sphere", "--params", "2,3"], 1),
    (["report", "--space", "grassmann_real", "--params", "1"], 2),
    (["verify", "--seed", "1", "--suite", "algebra", "--space", "sphere",
      "--params", "2,3"], 1),
], ids=["atlas-none", "atlas-three", "report-two", "report-one", "verify-two"])
def test_wrong_parameter_count_is_a_usage_error(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == cli.EX_USAGE and out == ""
    assert err.startswith("rspacelab: ") and err.count("\n") == 1
    assert f"takes {expected} parameter(s)" in err


def test_commands_run_without_scipy():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    proc = run_child("-c", "import sys; from rspacelab import cli; "
                           "code = cli.main(sys.argv[1:]); "
                           "print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] == 'scipy'), file=sys.stderr); "
                           "sys.exit(code)",
                     "report", "--space", "sphere", "--params", "3")
    assert proc.returncode == cli.EX_OK, proc.stderr
    assert "sphere(3)" in proc.stdout
    assert proc.stderr.strip() == "[]"


def test_critical_ladders_script_prints_a_ladder_per_orbit():
    proc = run_child("scripts/critical_ladders.py", "--restarts", "10")
    assert proc.returncode == 0, proc.stderr
    blocks = proc.stdout.strip().split("\n\n")
    assert len(blocks) == 5
    for block in blocks:
        assert "predicted ladder:" in block
        assert "(indices {0})" in block
        assert "max gap" in block
        assert block.count("  value ") >= 2


@pytest.mark.parametrize("space,params", [("grassmann_real", "1,1"),
                                          ("quadric_real", "1,1")])
def test_verify_skips_the_vacuous_moment_claim(space, params):
    # no root lives on these flats, so the momentum box claim is vacuous:
    # it is named on stderr and left out of the report
    for seed in (1, 2, 3):
        proc = run_child("-m", "rspacelab", "verify", "--seed", str(seed),
                         "--space", space, "--params", params)
        assert proc.returncode == cli.EX_OK, proc.stderr
        label = f"{space}({params})"
        assert (f"rspacelab: skipped orbit.moment_membership[{label}]: "
                "flat carries no roots") in proc.stderr
        ids = [c["id"] for c in json.loads(proc.stdout)["checks"]]
        assert f"orbit.certificate[{label}]" in ids
        assert f"orbit.moment_membership[{label}]" not in ids


def test_report_builds_no_cascade(capsys, monkeypatch):
    from rspacelab import orbit, roots
    calls = {"structure": 0, "cascade": 0, "maximal": 0}

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(orbit, "structure",
                        count("structure", orbit.structure))
    monkeypatch.setattr(roots, "cascade_strongly_orthogonal",
                        count("cascade", roots.cascade_strongly_orthogonal))
    monkeypatch.setattr(roots, "find_maximal_abelian",
                        count("maximal", roots.find_maximal_abelian))
    code, out, _ = run(capsys, "report", "--format", "json")
    assert code == cli.EX_OK
    rows = json.loads(out)["rows"]
    assert len(rows) == 23
    # two searches per instance: the flat of l and the one of p_vee
    assert calls == {"structure": 0, "cascade": 0, "maximal": 2 * len(rows)}


def test_size_error_names_the_row(capsys):
    code, out, err = run(capsys, "report", "--space", "symplectic_group",
                         "--params", "4")
    assert code == cli.EX_USAGE and out == ""
    assert err == ("rspacelab: symplectic_group(4) outside the window "
                   "1 <= n <= 3\n")


def test_a_suite_that_raises_becomes_an_error_record(capsys, monkeypatch):
    from rspacelab import reporting as rep

    def broken(spaces, seed, tol):
        raise ZeroDivisionError("no luck")

    monkeypatch.setitem(rep._SUITES, "roots", (broken, rep._SUITES["roots"][1]))
    code, out, err = run(capsys, "verify", "--seed", "1", "--suite",
                         "algebra,roots,capacity", "--space", "sphere",
                         "--params", "2", "--format", "json")
    assert code == cli.EX_VERIFY and "Traceback" not in err
    # the innermost rspacelab frame is the suite runner's; the raise is here
    assert re.fullmatch(r"rspacelab: suite roots raised in run_suites at "
                        r"reporting\.py:\d+ \(innermost frame "
                        r"test_cli\.py:\d+\)\n", err)
    checks = json.loads(out)["checks"]
    errors = [c for c in checks if c["status"] == "error"]
    assert errors == [{"id": "roots.error",
                       "claim": "suite roots ran to the end",
                       "status": "error",
                       "computed": "ZeroDivisionError: no luck",
                       "expected": "no exception", "tolerance": 0.0}]
    # the suites before and after it still run and pass
    others = [c for c in checks if c["status"] != "error"]
    assert {c["id"].split(".")[0] for c in others} == {"algebra", "capacity"}
    assert {c["status"] for c in others} == {"pass"}
    code, out, _ = run(capsys, "verify", "--seed", "1", "--suite", "roots",
                       "--space", "sphere", "--params", "2",
                       "--format", "text")
    assert code == cli.EX_VERIFY
    assert out.startswith("ERROR roots.error  computed=ZeroDivisionError")


def test_a_suite_error_names_its_innermost_rspacelab_frame(capsys,
                                                           monkeypatch):
    # NaN root covectors make numpy's SVD fail inside roots._kernel_within,
    # which finsler.norm_kernel calls
    import numpy as np

    from rspacelab import atlas
    from rspacelab import orbit as ob
    from rspacelab import roots as rt

    s = atlas.instance("sphere", 2)
    st_ = ob.structure(s)
    nan = rt.RestrictedRootSystem(**{
        **vars(st_.sigma_roots),
        "covectors": np.full_like(st_.sigma_roots.covectors, np.nan)})
    bad = ob.InstanceStructure(**{**vars(st_), "sigma_roots": nan})
    real = ob.structure
    monkeypatch.setattr(ob, "structure", lambda x: bad if x is s else real(x))
    code, out, err = run(capsys, "verify", "--seed", "1", "--suite",
                         "finsler", "--space", "sphere", "--params", "2",
                         "--format", "json")
    assert code == cli.EX_VERIFY and "Traceback" not in err
    m = re.fullmatch(r"rspacelab: suite finsler raised in _kernel_within "
                     r"at roots\.py:(\d+) \(innermost frame "
                     r"_linalg\.py:\d+\)\n", err)
    assert m is not None, err
    assert "np.linalg.svd" in linecache.getline(rt.__file__,
                                                int(m.group(1)))
    assert [c["id"] for c in json.loads(out)["checks"]] == ["finsler.error"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_the_tangent_frame_converges_on_a_large_hermitian_orbit(threads):
    # its SVD failed here; the eigh frame runs the suite to the end, whose
    # level gates still fail on this row
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run(
        [sys.executable, "-m", "rspacelab", "verify", "--seed", "1",
         "--suite", "critical", "--space", "grassmann_complex_hermitian",
         "--params", "3,3", "--format", "json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode in (cli.EX_OK, cli.EX_VERIFY), proc.stderr
    ids = [c["id"] for c in json.loads(proc.stdout)["checks"]]
    assert "critical.error" not in ids
    assert len(ids) == 3


@pytest.mark.parametrize("threads", ["1", "2"])
def test_the_gauss_newton_step_converges_on_unitary_group_4(threads):
    # a stacked SVD of the descent failed here at one BLAS thread, when
    # each step solved a least-squares system; the step now solves none,
    # and the suite must still run to the end on this row
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run(
        [sys.executable, "-m", "rspacelab", "verify", "--seed", "1",
         "--suite", "critical", "--space", "unitary_group", "--params", "4",
         "--format", "json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode in (cli.EX_OK, cli.EX_VERIFY), proc.stderr
    ids = [c["id"] for c in json.loads(proc.stdout)["checks"]]
    assert "critical.error" not in ids
    assert len(ids) == 3


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("seed,space,params", [
    ("5", "unitary_group", "3"), ("29", "unitary_group", "3"),
    ("30", "symplectic_group", "2")])
def test_the_least_squares_eigh_converges_on_the_critical_suite(
        threads, seed, space, params):
    # the divide-and-conquer eigh of a least-squares descent step failed
    # here; the step now solves no system, and the suite must still run to
    # the end on these rows
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run(
        [sys.executable, "-m", "rspacelab", "verify", "--seed", seed,
         "--suite", "critical", "--space", space, "--params", params,
         "--format", "json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode in (cli.EX_OK, cli.EX_VERIFY), proc.stderr
    ids = [c["id"] for c in json.loads(proc.stdout)["checks"]]
    assert "critical.error" not in ids
    assert len(ids) == 3


@pytest.mark.parametrize("argv", [["atlas"],
                                  ["report", "--space", "sphere",
                                   "--params", "2"]],
                         ids=["atlas", "report"])
def test_no_output_depends_on_an_assert(argv):
    # python -O strips every assert statement; what a command prints must
    # not change with it
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "rspacelab", *argv],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, timeout=300)
        assert proc.returncode == cli.EX_OK, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [["verify", "--seed", "7"], ["report"]],
                         ids=["verify", "report"])
def test_outputs_do_not_depend_on_the_blas_thread_count(argv):
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "rspacelab", *argv, "--format", "json"],
            cwd=ROOT, env=env, capture_output=True, timeout=300)
        assert proc.returncode == cli.EX_OK, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def _algebra_and_roots_pass_at(capsys, rid, *params):
    code, out, _ = run(capsys, "verify", "--seed", "1", "--suite",
                       "algebra,roots", "--space", rid, "--params",
                       ",".join(map(str, params)), "--format", "json")
    assert code == cli.EX_OK
    checks = json.loads(out)["checks"]
    assert len(checks) == 8
    assert all(c["status"] == "pass" for c in checks)


def test_algebra_and_roots_pass_at_the_top_of_the_su_window(capsys):
    # unitary_group(6) lives in su(12), dim 143: every kernel reads the
    # nonzero structure constants, so this runs in about half a second
    _algebra_and_roots_pass_at(capsys, "unitary_group", 6)


def test_algebra_and_roots_pass_at_the_top_of_the_doubled_sp_window(capsys):
    # sp(6) + sp(6), dim 156, where the dense constants took 3 s and 0.9 GB
    _algebra_and_roots_pass_at(capsys, "symplectic_mod_unitary_hermitian", 6)
