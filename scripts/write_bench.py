#!/usr/bin/env python3
"""Write BENCH_<n>.json at the repo root from the unchanged benchmark harness.

The file has four parts:
- perfbench: `perfbench/run.py` on each workload at `--trace 0` and
  `--trace 1`, with its metrics, environment record, seed and run length;
- commands: wall time and child max RSS of `atlas`, `report` and
  `verify --seed 7`, each run as a fresh child of this script;
- scaling: `verify --suite algebra,roots` on sphere(n) and unitary_group(n)
  across each row's window, as wall time and child max RSS;
- harness_flaws: the known flaws of the harness, each beside the metrics it
  touches.

This script imports no numpy, so it is a small launcher: a child's max RSS
counts from this process's RSS when it forks (`launcher_rss_mb`), not from
that of `perfbench/run.py`.  Every child runs with one BLAS thread.

    python3 scripts/write_bench.py --out BENCH_<n>.json

takes about two and a half minutes on 2 cores.

The file is written before the change that adds it is committed, so
`base_commit` is that change's parent, `src_changed` lists the files of
src/ that differ from it, and `src_sha256` is the digest of the src/ that
was measured: that of the commit that adds the file.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
       "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}
WORKLOADS = ("catalogue", "verify", "large_algebra")
SEED = 1  # perfbench workload seed
SECONDS = 30.0  # perfbench measuring time of each --trace 0 run
COMMANDS = {"atlas": ["atlas"], "report": ["report"],
            "verify --seed 7": ["verify", "--seed", "7"]}
REPEATS = 3  # runs of each command in the commands part
SCALING = ("sphere", "unitary_group")

HARNESS_FLAWS = [
    {"flaw": "peak_rss_mb reads the RSS of run.py, not the command's: a "
             "child's wait4 max RSS starts at its parent's RSS when it forks, "
             "so every workload reads about 42.7 MB whatever the command "
             "holds; the commands and scaling parts spawn from this small "
             "launcher instead",
     "affects": ["peak_rss_mb"]},
    {"flaw": "each child runs with PYTHONDONTWRITEBYTECODE=1, so every "
             "command compiles all of src/ (25-50 ms) and the timings "
             "include the compiler",
     "affects": ["setup_s", "wall_s", "op_p50_s", "cli.import_s"]},
    {"flaw": "setup_s is the median of 5 interpreter starts and moved by "
             "8% between two checkouts with the same import path",
     "affects": ["setup_s"]},
    {"flaw": "traced.py counts a stacked ad_from_coords call once, and "
             "charges a lazy import to the first layer that calls it",
     "affects": ["algebra.ad_from_coords.calls", "cli.main.self_s"]},
    {"flaw": "the large_algebra memory guard budgets a dense dim^4 Jacobi "
             "that the program no longer forms, and the workload stops at "
             "dim 45",
     "affects": ["peak_rss_mb", "wall_s"]},
    {"flaw": "run.py imports scipy for its environment record only",
     "affects": []},
]


def spawn(argv):
    """Run argv as a child of this process: its exit code, wall time and
    max RSS from wait4."""
    t = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": time.perf_counter() - t,
            "rss_mb": usage.ru_maxrss / 1024}


def cli(*args):
    return [sys.executable, "-m", "rspacelab", *args]


def mem_available_mb():
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024
    return float("inf")


def git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest(rev=None):
    """sha256 over the path and bytes of each .py file of src/, in path
    order: those of the working tree, or of the commit rev."""
    if not rev:
        files = {p.relative_to(ROOT).as_posix(): p.read_bytes()
                 for p in (ROOT / "src").rglob("*.py")}
    else:
        names = git("ls-tree", "-r", "--name-only", rev, "--", "src")
        files = {n: subprocess.run(["git", "show", f"{rev}:{n}"], cwd=ROOT,
                                   capture_output=True, check=True).stdout
                 for n in names.splitlines() if n.endswith(".py")}
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0")
        h.update(files[name])
    return h.hexdigest()


def perfbench(workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    tag = "trace" if trace else "run"
    out = json.loads((ROOT / "perfbench" / "out" /
                      f"{workload}-{tag}-{SEED}.json").read_text())
    # the last line is the result object, with each metric's unit
    units = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    part = {"workload": workload, "trace": trace, "seed": SEED,
            "seconds": SECONDS, "argv": argv[1:], "env": out["env"],
            "commands_per_pass": out["commands_per_pass"],
            "passes": out["passes"], "fail_frac": out["fail_frac"],
            "failures": out["failures"],
            "metrics": {name: {"value": out["metrics"][name],
                               "unit": u["unit"]}
                        for name, u in units.items()}}
    if trace:
        part.update(untraced_wall_s=out["untraced_wall_s"],
                    traced_wall_s=out["traced_wall_s"])
    return part


def command_part():
    out = {}
    for name, args in COMMANDS.items():
        runs = [spawn(cli(*args)) for _ in range(REPEATS)]
        out[name] = {"argv": args, "exit": [r["exit"] for r in runs],
                     "wall_s": [r["wall_s"] for r in runs],
                     "rss_mb": [r["rss_mb"] for r in runs],
                     "median_wall_s": statistics.median(
                         r["wall_s"] for r in runs),
                     "max_rss_mb": max(r["rss_mb"] for r in runs)}
    return out


def window(row):
    """The window (low, top) of a one-parameter row, and the id and
    dimension of its ambient algebra at each n in it, read by a child."""
    code = ("from rspacelab import atlas\n"
            f"_, low, top = atlas.window({row!r})\n"
            "print(low, top)\n"
            "for n in range(low, top + 1):\n"
            f"    g = atlas.instance({row!r}, n).g_vee\n"
            "    print(n, g.algebra_id, g.dim)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, check=True)
    first, *rest = proc.stdout.splitlines()
    low, top = map(int, first.split())
    return low, top, [(int(n), a, int(d))
                      for n, a, d in map(str.split, rest)]


def scaling_part():
    """verify --suite algebra,roots up each window, stopping before a point
    whose RSS, grown from the last point at the last ratio, would pass
    MemAvailable."""
    out = {}
    for row in SCALING:
        low, top, ambient = window(row)
        points, stopped = [], None
        for n, algebra, dim in ambient:
            if len(points) >= 2:
                grow = max(1.0, points[-1]["rss_mb"] / points[-2]["rss_mb"])
                if points[-1]["rss_mb"] * grow > mem_available_mb():
                    stopped = f"n = {n}: projected RSS above MemAvailable"
                    break
            r = spawn(cli("verify", "--seed", "1", "--suite", "algebra,roots",
                          "--space", row, "--params", str(n),
                          "--format", "json"))
            points.append({"n": n, "algebra": algebra, "dim": dim, **r})
        out[row] = {"window": [low, top], "points": points,
                    "stopped": stopped}
    return out


def machine():
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
            "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE")
                                  * os.sysconf("SC_PHYS_PAGES") / 2 ** 20),
            "mem_available_mb": round(mem_available_mb()),
            "loadavg": os.getloadavg(), "blas_threads": 1}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True,
                    help="BENCH_<n>.json at the repo root, n the next number")
    args = ap.parse_args()

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    record = {
        "bench": Path(args.out).stem,
        "started_utc": started,
        "base_commit": git("rev-parse", "HEAD"),
        "src_changed": git("diff", "--name-only", "HEAD", "--",
                           "src").splitlines(),
        "src_sha256": src_digest(),
        "script": "scripts/write_bench.py " + " ".join(sys.argv[1:]),
        "machine": machine(),
        "launcher_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units": {"wall_s": "s", "rss_mb": "MB", "median_wall_s": "s",
                  "max_rss_mb": "MB"},
        "commands": command_part(),
        "scaling": scaling_part(),
        "perfbench": [perfbench(w, t) for w in WORKLOADS for t in (0, 1)],
        "harness_flaws": HARNESS_FLAWS,
    }
    (ROOT / args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
