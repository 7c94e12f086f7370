"""Run one rspacelab CLI command with spans around its public functions.

    PYTHONPATH=src python3 perfbench/traced.py SPANS_OUT OP_ID <rspacelab argv>

The functions listed in TARGETS are replaced, by module attribute, with
wrappers that record a span {op_id, name, start, end, parent} per call.
Every module-level name that is bound to a wrapped function is replaced,
which covers `from .algebra import ad_from_coords` in roots; the suite
functions held in `reporting._SUITES` are wrapped as `reporting.suite.<name>`.
Spans and counters stay in memory and are written to SPANS_OUT as JSON when
the command ends.  The command's stdout, stderr and exit code are unchanged.
"""

import functools
import json
import math
import sys
import time
import weakref

_t0 = time.perf_counter()
from rspacelab import cli  # noqa: E402  (the import is what import_s times)

IMPORT_S = time.perf_counter() - _t0

from rspacelab import (algebra, atlas, capacity, finsler, orbit,  # noqa: E402
                       reporting, roots)

MODULES = (cli, atlas, algebra, roots, orbit, capacity, finsler, reporting)

# span name -> (module, attribute); several attributes may share one name
TARGETS = [
    ("cli.main", cli, "main"),
    ("atlas.instantiate", atlas, "instantiate"),
    ("atlas.rank_ratio", atlas, "rank_ratio"),
    ("algebra.build_algebra", algebra, "build_algebra"),
    ("algebra.make_involution", algebra, "make_involution"),
    ("algebra.cartan_decompose", algebra, "cartan_decompose"),
    ("algebra.subalgebra", algebra, "subalgebra"),
    ("algebra.ad_from_coords", algebra, "ad_from_coords"),
    ("roots.find_maximal_abelian", roots, "find_maximal_abelian"),
    ("roots.compute_restricted_roots", roots, "compute_restricted_roots"),
    ("roots.cascade_strongly_orthogonal", roots,
     "cascade_strongly_orthogonal"),
    ("orbit.structure", orbit, "structure"),
    ("orbit.find_critical_points", orbit, "find_critical_points"),
    ("orbit.moment_image_spectrum_check", orbit,
     "moment_image_spectrum_check"),
    ("orbit.cut_locus_oracle_check", orbit, "cut_locus_oracle_check"),
    ("capacity.systole_details", capacity, "systole_details"),
    ("capacity.systole_scan_oracle", capacity, "systole_scan_oracle"),
    ("capacity.capacity_hermitian_ambient", capacity,
     "capacity_hermitian_ambient"),
    ("finsler.unit_ball_vs_box", finsler, "unit_ball_vs_box"),
    ("finsler.norm_monotonicity", finsler, "norm_monotonicity"),
    ("finsler.f2_vs_riemannian", finsler, "f2_vs_riemannian"),
    ("reporting.capacity_table", reporting, "capacity_table"),
    ("reporting.render", reporting, "report_json"),
    ("reporting.render", reporting, "report_csv"),
    ("reporting.render", reporting, "report_text"),
    ("reporting.render", reporting, "table_json"),
    ("reporting.render", reporting, "table_csv"),
    ("reporting.render", reporting, "table_text"),
    ("reporting.render", cli, "_render_atlas"),
]

# a critical level counts as found when a cluster value lies this close
LEVEL_TOL = 1e-3 * 4.0 * math.pi


class Tracer:
    """In-memory spans and counters for one command."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []          # [op_id, name, start, end, parent]
        self.stack = []
        self.paused = False
        self.counts = {"capacity.systole_details.candidates": 0,
                       "capacity.systole_details.tested": 0,
                       "orbit.find_critical_points.restarts": 0,
                       "orbit.critical_levels_found": 0,
                       "orbit.critical_levels_predicted": 0,
                       "orbit.structure.distinct_instances": 0}
        self.seen_instances = weakref.WeakSet()

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            rec = [self.op_id, name, time.perf_counter(), None,
                   self.stack[-1] if self.stack else None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                # bookkeeping runs in its own span so that it is not
                # charged to the caller's self time
                hook = self.wrap("trace.hook", after)
                hook(args, kwargs, out)
            return out
        return traced

    # ---- counters, read from arguments and return values ----------------

    def on_structure(self, args, kwargs):
        s = args[0] if args else kwargs["s"]
        if s not in self.seen_instances:
            self.seen_instances.add(s)
            self.counts["orbit.structure.distinct_instances"] += 1

    def on_systole(self, args, kwargs, out):
        self.counts["capacity.systole_details.candidates"] += (
            out["tested"] + out["skipped_irrational"])
        self.counts["capacity.systole_details.tested"] += out["tested"]

    def on_critical(self, args, kwargs, out, original_weyl):
        s = args[0] if args else kwargs["s"]
        restarts = args[1] if len(args) > 1 else kwargs.get("restarts", 50)
        self.counts["orbit.find_critical_points.restarts"] += restarts
        self.paused = True
        try:
            predicted = original_weyl(s)
        finally:
            self.paused = False
        found = [c.value for c in out]
        self.counts["orbit.critical_levels_predicted"] += len(predicted)
        self.counts["orbit.critical_levels_found"] += sum(
            any(abs(v - f) <= LEVEL_TOL for f in found) for v in predicted)

    def install(self):
        weyl = orbit.weyl_critical_values
        hooks = {
            "orbit.structure": dict(before=self.on_structure),
            "capacity.systole_details": dict(after=self.on_systole),
            "orbit.find_critical_points": dict(
                after=lambda a, k, o: self.on_critical(a, k, o, weyl)),
        }
        for name, mod, attr in TARGETS:
            fn = getattr(mod, attr)
            wrapped = self.wrap(name, fn, **hooks.get(name, {}))
            for m in MODULES:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapped)
        for suite, (fn, defaults) in list(reporting._SUITES.items()):
            reporting._SUITES[suite] = (
                self.wrap(f"reporting.suite.{suite}", fn), defaults)

    def dump(self, path, code):
        with open(path, "w") as fh:
            json.dump({"op_id": self.op_id, "exit_code": code,
                       "import_s": IMPORT_S, "counts": self.counts,
                       "spans": self.spans}, fh)


def main(argv):
    out_path, op_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(op_id)
    tracer.install()
    code = 1
    try:
        code = cli.main(cli_argv)
    finally:
        tracer.dump(out_path, code)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
