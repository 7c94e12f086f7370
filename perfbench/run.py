"""rspacelab benchmark: CLI time to solution, one fresh interpreter per command.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload is a closed loop with one
client: run.py starts one `python -m rspacelab ...` child (PYTHONPATH=src)
at a time, waits for it, checks its output against perfbench/reference.json
and starts the next.  The workload's command list is one pass; passes repeat
while the next one is expected to finish inside --seconds, and at least one
pass always runs.  The last stdout line is the result object; the lines
before it are a readable summary with sample counts and the environment.

With --trace 1 every command runs twice, untraced and then under
perfbench/traced.py, which records spans around the public functions of
each module; the result then holds the per-layer metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# BLAS/OpenMP threads per child; one child runs at a time, so the load
# stays on one core of the two this was tuned on
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread pin)

SETUP_SAMPLES = 5
# children and the calibration kernel share one core (see Calibrated)
PINNED_CORE = max(os.sched_getaffinity(0))
RUN_LIMIT_S = 170.0          # every child is killed past this point of a run
VERIFY_SEEDS_PER_PASS = 6
# unitary_group(4), dim 63, would be one 12-15 s command that the run could
# not repeat; alone it spread wall_s by 0.23 (IQR/median) over five seeds
LARGE_POINTS = [("sphere", 6), ("sphere", 7), ("sphere", 8),
                ("unitary_group", 2), ("unitary_group", 3)]
REL_TOL = 1e-9               # reference values are exact up to rounding
PIN_TOL = 1e-6               # reporting.DEFAULT_TOL["sys_abs"]


def ambient_dim(row, n):
    """Dimension of the ambient algebra of a large_algebra point."""
    if row == "sphere":                       # so(n + 2)
        return (n + 2) * (n + 1) // 2
    if row == "unitary_group":                # su(2n)
        return 4 * n * n - 1
    raise ValueError(row)


def estimated_peak_bytes(dim):
    """Upper estimate of a point's peak RSS: interpreter and libraries, the
    dense dim^3 structure constants with copies, and the dim^4 Jacobi
    tensor of suite_algebra with one temporary.  Measured: unitary_group(4),
    dim 63, peaks at 312 MB against an estimate of 486 MB."""
    return 100e6 + 8 * (4 * dim ** 3 + 3 * dim ** 4)


def available_bytes():
    """MemAvailable, lowered to the cgroup's headroom when one is set."""
    with open("/proc/meminfo") as fh:
        avail = next(int(line.split()[1]) * 1024 for line in fh
                     if line.startswith("MemAvailable:"))
    try:
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        used = int(Path("/sys/fs/cgroup/memory.current").read_text())
    except OSError:
        return avail
    return avail if limit == "max" else min(avail, int(limit) - used)


# ---- commands and their checks ----------------------------------------


@dataclass
class Command:
    argv: list
    check: Callable             # stdout -> None if right, else a message
    guard: Callable | None = None   # () -> None to run, else a refusal


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def check_report(ref):
    def check(stdout):
        rows = json.loads(stdout)["rows"]
        if len(rows) != 1:
            return f"expected one row, got {len(rows)}"
        row = rows[0]
        for key in ("sys", "ratio", "c_G_U1", "c_HZ_U1", "c_HZ_D1"):
            want, got = ref[key], row.get(key)
            same = (got == want if isinstance(want, str)
                    else isinstance(got, (int, float)) and _close(got, want))
            if not same:
                return f"{ref['label']} {key}: {got!r} != {want!r}"
        if ref["sys_pin"] is not None and \
                abs(row["sys"] - ref["sys_pin"]) > PIN_TOL:
            return f"{ref['label']} sys {row['sys']} != pin {ref['sys_pin']}"
        return None
    return check


def check_atlas(stdout):
    bad = [r["space"] for r in json.loads(stdout)["rows"] if not r["ok"]]
    return f"rows not ok: {bad}" if bad else None


def check_verify(want_ids):
    def check(stdout):
        checks = json.loads(stdout)["checks"]
        bad = [c["id"] for c in checks if c["status"] != "pass"]
        if bad:
            return f"checks not passing: {bad}"
        missing = sorted(set(want_ids) - {c["id"] for c in checks})
        return f"check ids missing: {missing}" if missing else None
    return check


def memory_guard(row, n):
    def guard():
        need = estimated_peak_bytes(ambient_dim(row, n))
        have = available_bytes()
        if need > have:
            return (f"{row}({n}) needs about {need / 1e6:.0f} MB, "
                    f"{have / 1e6:.0f} MB available")
        return None
    return guard


def command_seeds(seed, count):
    """Per-command seeds spawned from the workload seed."""
    return [int(c.generate_state(1)[0])
            for c in np.random.SeedSequence(seed).spawn(count)]


def workload_commands(name, seed, ref):
    if name == "catalogue":
        rows = ref["catalogue"]
        cmds = [Command(["report", "--space", r["id"], "--params",
                         ",".join(map(str, r["params"])), "--seed", str(s),
                         "--format", "json"], check_report(r))
                for r, s in zip(rows, command_seeds(seed, len(rows)))]
        return cmds + [Command(["atlas", "--format", "json"], check_atlas)]
    if name == "verify":
        return [Command(["verify", "--seed", str(s), "--format", "json"],
                        check_verify(ref["verify_ids"]))
                for s in command_seeds(seed, VERIFY_SEEDS_PER_PASS)]
    if name == "large_algebra":
        cmds = []
        seeds = command_seeds(seed, len(LARGE_POINTS))
        for (row, n), s in zip(LARGE_POINTS, seeds):
            guard = memory_guard(row, n)
            label = f"{row}({n})"
            cmds.append(Command(["atlas", "--space", row, "--params", str(n),
                                 "--format", "json"], check_atlas, guard))
            cmds.append(Command(["verify", "--suite", "algebra,roots",
                                 "--space", row, "--params", str(n),
                                 "--seed", str(s), "--format", "json"],
                                check_verify(ref["large_ids"][label]), guard))
        return cmds
    raise ValueError(name)


# ---- children -----------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, deadline):
    """Run argv to completion; returns (wall_s, cpu_s, exit code,
    max RSS MB, stdout, stderr).  The child is killed at the deadline."""
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        lock = threading.Lock()
        done = False

        def kill():
            with lock:
                if not done:
                    proc.kill()
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            # wait without reaping, so that the timer can never signal a
            # reused pid, then reap with the child's resource usage
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                done = True
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (wall, usage.ru_utime + usage.ru_stime, proc.returncode,
                usage.ru_maxrss / 1024.0,
                out.read().decode(), err.read().decode(errors="replace"))


class Calibrated:
    """Child timings scaled to a reference machine speed.

    The speed of a shared machine drifts by tens of percent over seconds to
    minutes.
    A fixed kernel (small eigensolves in a Python loop, as in the program's
    searches, plus a dense einsum as in its structure constants) runs on
    the same pinned core before the first child and after every child; a
    child's reference time is its wall time times KERNEL_REF_S over the mean
    of the two kernel times around it.
    """

    KERNEL_REF_S = 0.125

    def __init__(self, deadline):
        self.deadline = deadline
        rng = np.random.default_rng(0)
        a = rng.normal(size=(12, 12))
        self._sym = a + a.T
        self._cube = rng.normal(size=(28, 28, 28))
        self.last = self.kernel_s()

    def kernel_s(self):
        t0 = time.perf_counter()
        for _ in range(5000):
            np.linalg.eigvalsh(self._sym)
            sum(j * j for j in range(40))
        for _ in range(5):
            np.einsum("ijm,mkl->ijkl", self._cube, self._cube)
        return time.perf_counter() - t0

    def spawn(self, argv):
        """spawn() plus the scale factor applied to its wall time."""
        res = spawn(argv, self.deadline)
        k = self.kernel_s()
        scale = self.KERNEL_REF_S / (0.5 * (self.last + k))
        self.last = k
        return res, scale


def run_command(clock, cmd, traced_spans=None, op_id=0):
    """One command; returns a record with its timing and verdict."""
    rec = {"argv": cmd.argv, "wall_s": None, "raw_wall_s": None,
           "cpu_s": None, "rss_mb": None, "scale": None,
           "failed": False, "wrong": False, "why": None}
    refusal = cmd.guard() if cmd.guard else None
    if refusal:
        rec.update(failed=True, why="refused: " + refusal)
        return rec
    if traced_spans is None:
        argv = [sys.executable, "-m", "rspacelab"] + cmd.argv
    else:
        argv = [sys.executable, str(BENCH / "traced.py"), str(traced_spans),
                str(op_id)] + cmd.argv
    (wall, cpu, code, rss, stdout, stderr), scale = clock.spawn(argv)
    rec.update(wall_s=wall * scale, raw_wall_s=wall, cpu_s=cpu, rss_mb=rss,
               scale=scale)
    if code != 0 or "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1:] or [""]
        rec.update(failed=True, why=f"exit {code}: {last[0][:200]}")
        return rec
    try:
        why = cmd.check(stdout)
    except (ValueError, KeyError, TypeError) as e:
        why = f"unreadable output: {type(e).__name__}: {e}"
    if why:
        rec.update(failed=True, wrong=True, why=why)
    return rec


def measure_setup(clock):
    argv = [sys.executable, "-c", "import rspacelab.cli"]
    clock.spawn(argv)          # fills __pycache__ in a fresh checkout
    times = []
    for _ in range(SETUP_SAMPLES):
        (wall, _, code, _, _, stderr), scale = clock.spawn(argv)
        if code != 0:
            raise SystemExit("cannot import rspacelab.cli:\n" + stderr)
        times.append(wall * scale)
    return times


# ---- per-layer aggregation ---------------------------------------------


def self_times(spans):
    """Per span: duration minus the part of it covered by child spans."""
    children = {}
    for i, (_, _, _, _, parent) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for j in children.get(i, ()):        # in start order
            lo, hi = max(spans[j][2], reach), min(spans[j][3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(traces, names, overhead_s):
    """Reduce the traced commands' spans and counters to the named metrics.

    `traces` holds (span file contents, scale) per command; times are
    scaled like the command's wall time."""
    calls, self_s, total_s, counts, imports = {}, {}, {}, {}, []
    for t, scale in traces:
        imports.append(t["import_s"] * scale)
        for k, v in t["counts"].items():
            counts[k] = counts.get(k, 0) + v
        spans = t["spans"]
        for (_, name, start, end, _), own in zip(spans, self_times(spans)):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own * scale
            total_s[name] = total_s.get(name, 0.0) + (end - start) * scale
    cands = counts.get("capacity.systole_details.candidates", 0)
    predicted = counts.get("orbit.critical_levels_predicted", 0)
    derived = {
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "trace.overhead_s": overhead_s,
        "capacity.systole_details.useful_ratio":
            counts.get("capacity.systole_details.tested", 0) / cands
            if cands else 0.0,
        "orbit.critical_coverage":
            counts.get("orbit.critical_levels_found", 0) / predicted
            if predicted else 0.0,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name in counts:
            out[name] = counts[name]
        else:
            func, _, field = name.rpartition(".")
            table = {"calls": calls, "self_s": self_s, "total_s": total_s}
            out[name] = table[field].get(func, 0)
    return out


# ---- environment record -------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None                 # a plain export of the tree


def environment(load_at_start):
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
            "scipy_blas": f"{sblas.get('name')} {sblas.get('version')}",
            "blas_threads": BLAS_THREADS,
            "pinned_core": PINNED_CORE,
            "kernel_ref_s": Calibrated.KERNEL_REF_S,
            "git_commit": git_commit(),
            "loadavg_at_start": load_at_start}


# ---- main ---------------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("catalogue", "verify", "large_algebra"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load = os.getloadavg()
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (ROOT / "src" / "rspacelab" / "cli.py").is_file():
        raise SystemExit(f"no rspacelab sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = json.loads((BENCH / "reference.json").read_text())
    cmds = workload_commands(args.workload, args.seed, ref)
    OUT.mkdir(exist_ok=True)
    env = environment(load)

    os.sched_setaffinity(0, {PINNED_CORE})    # children inherit it
    clock = Calibrated(deadline)
    records, traces, pass_walls, untraced, traced = [], [], [], [], []
    if args.trace:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            for i, cmd in enumerate(cmds):
                plain = run_command(clock, cmd)
                path = Path(tmp) / f"{i}.json"
                rec = run_command(clock, cmd, path, i)
                records += [plain, rec]
                untraced.append(plain["wall_s"] or 0.0)
                traced.append(rec["wall_s"] or 0.0)
                if path.exists():
                    traces.append((json.loads(path.read_text()),
                                   rec["scale"]))
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(traces, names, sum(traced) - sum(untraced))
        samples = {}
    else:
        setup = measure_setup(clock)
        t_start = time.monotonic()
        while True:
            recs = [run_command(clock, cmd) for cmd in cmds]
            records += recs
            pass_walls.append(sum(r["wall_s"] or 0.0 for r in recs))
            elapsed = time.monotonic() - t_start
            if elapsed + elapsed / len(pass_walls) > args.seconds:
                break
        op = [r["wall_s"] for r in records if r["wall_s"] is not None]
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(pass_walls),
                  "op_p50_s": statistics.median(op) if op else 0.0,
                  "peak_rss_mb": max((r["rss_mb"] for r in records
                                      if r["rss_mb"] is not None),
                                     default=0.0)}
        names = [m["name"] for m in spec["end_to_end"]]
        samples = {"setup_s": f"median of {len(setup)} interpreter starts",
                   "wall_s": f"median of {len(pass_walls)} passes",
                   "op_p50_s": f"median of {len(op)} commands",
                   "peak_rss_mb": f"max of {len(op)} commands"}
    units = {m["name"]: m["unit"]
             for m in spec["per_layer"] + spec["end_to_end"]}

    failed = sum(r["failed"] for r in records)
    wrong = [r for r in records if r["wrong"]]
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "env": env,
               "commands_per_pass": len(cmds), "passes": len(pass_walls),
               "fail_frac": failed / len(records),
               "failures": [(r["argv"], r["why"]) for r in records
                            if r["failed"]]}
    if args.trace:
        summary.update(untraced_wall_s=sum(untraced),
                       traced_wall_s=sum(traced))
    else:
        summary.update(pass_wall_s=pass_walls, setup_samples_s=setup)
    tag = "trace" if args.trace else "run"
    (OUT / f"{args.workload}-{tag}-{args.seed}.json").write_text(
        json.dumps({**summary, "records": records, "metrics": values},
                   indent=1))

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(cmds)} commands per pass, {len(records)} commands run")
    for name in names:
        print(f"  {name:45s} {values[name]:>14.6g} {units[name]:6s} "
              f"{samples.get(name, '')}")
    print(f"  {'fail_frac':45s} {summary['fail_frac']:>14.6g} ratio  "
          f"({failed} of {len(records)} commands)")
    for argv, why in summary["failures"]:
        print(f"  failed: {' '.join(argv)}: {why}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not wrong, "attempted": len(records),
                      "failed": failed,
                      "metrics": {n: {"value": values[n], "unit": units[n]}
                                  for n in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
