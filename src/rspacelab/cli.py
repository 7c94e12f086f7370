"""Command line front end.

Three subcommands: `atlas` recomputes the catalogue table, `verify` runs
invariant suites, `report` renders the capacity summary.  Exit codes follow
sysexits conventions: 0 on success, 2 when a verification fails, 64 for
usage errors, 74 for output I/O failures.  `render` writes every table in
every format, `_row_id` reads a table-row label for all three commands,
and `_entries` picks the catalogue rows `atlas` and `report` read.
`run` is the process entry: `main`, then a frozen heap for the exit.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys

from . import __version__
from . import atlas

EX_OK = 0
EX_VERIFY = 2
EX_USAGE = 64
EX_IO = 74

_FORMATS = ("json", "csv", "text")

# what verify accepts: its suites, and the tolerances --tol may override
SUITE_NAMES = ("algebra", "roots", "orbit", "delta", "critical",
               "capacity", "finsler")

DEFAULT_TOL = {
    "alg": 1e-10,       # exact algebraic identities
    "killing": 1e-9,    # Killing spectrum vs family multiple
    "j2": 1e-7,         # J^2 + id on orbit tangents
    "form": 1e-9,       # orbit two-form identities
    "sl2": 1e-8,        # bracket relations of cascade triples
    "gap_rel": 1e-3,    # optimizer-found level gaps, relative
    "cap_rel": 1e-6,    # capacity formulas, relative
    "sys_abs": 1e-6,    # pinned systoles, absolute
    "band": 1e-6,       # shell thickness for the cut predicate
    "spread": 1e-8,     # Schatten-2 vs root sum and metric, relative
    "mono": 1e-10,      # Schatten exponent monotonicity
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for
    # verification failures here, so route parse errors to 64 instead
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="rspacelab",
                description="orbit models of symmetric R-spaces: catalogue, "
                            "invariant suites, capacity tables")
    p.add_argument("--version", action="version",
                   version=f"rspacelab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("atlas", help="recompute the catalogue table")
    a.add_argument("--space", help="restrict to one catalogue row, by id or "
                                   "table-row label, e.g. 8a")
    a.add_argument("--params", help="comma separated integers for --space, "
                                    "e.g. 1,2")
    a.add_argument("--format", choices=_FORMATS, default="text",
                   help="output format (default: text)")
    a.add_argument("--out", help="write to this path instead of stdout")

    v = sub.add_parser("verify", help="run invariant suites")
    v.add_argument("--seed", type=int, required=True,
                   help="master seed, a non-negative integer; per-suite "
                        "seeds are fixed offsets")
    v.add_argument("--suite", action="append",
                   help="suite name, repeatable or comma separated "
                        f"(default: all of {', '.join(SUITE_NAMES)})")
    v.add_argument("--space", help="restrict suites to one catalogue row, by "
                                   "id or table-row label, or to one cut "
                                   "model")
    v.add_argument("--params", help="comma separated integers for --space")
    v.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a tolerance, repeatable "
                        f"(names: {', '.join(sorted(DEFAULT_TOL))})")
    v.add_argument("--format", choices=_FORMATS, default="json",
                   help="output format (default: json)")
    v.add_argument("--out", help="write to this path instead of stdout")

    r = sub.add_parser("report", help="render the capacity summary table")
    r.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: systoles are exact, so the "
                        "report does not depend on a seed")
    r.add_argument("--space", help="restrict to one catalogue row, by id or "
                                   "table-row label, e.g. 8bc")
    r.add_argument("--params", help="comma separated integers for --space")
    r.add_argument("--format", choices=_FORMATS, default="text",
                   help="output format (default: text)")
    r.add_argument("--out", help="write to this path instead of stdout")
    return p


def _parse_params(text):
    if text is None:
        return None
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise _UsageError(f"--params expects integers, got {text!r}")


def _parse_tol(pairs):
    out = {}
    for item in pairs or []:
        name, _, value = item.partition("=")
        if name not in DEFAULT_TOL:
            raise _UsageError(f"unknown tolerance {name!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise _UsageError(f"tolerance {name!r} needs a number")
        # nan or a negative value fails checks that pass, inf or nan
        # writes a report that is not JSON
        if not 0.0 <= out[name] < float("inf"):
            raise _UsageError(f"tolerance {name!r} needs a finite, "
                              f"non-negative number, got {value!r}")
    return out


def _emit(text: str, out) -> int:
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w") as fh:
                fh.write(text)
    except OSError as e:  # a closed pipe, a full disk
        print(f"rspacelab: cannot write {out or 'stdout'}: {e}",
              file=sys.stderr)
        if out is None:
            # the text is still buffered: send it to devnull, so the flush
            # at exit succeeds instead of reporting the error again
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        return EX_IO
    return EX_OK


class _Labels(dict):
    def __missing__(self, key):  # a key without a label labels itself
        return key


def render(rows, fmt, columns=(), line="", labels=None, cells=dict) -> str:
    """Every table the commands print: json {"rows": rows}; csv over the
    columns; text fills the format line with labels for the header and with
    cells(row), which may derive cells, for each row."""
    if fmt == "json":
        return json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        w.writerows([r[c] for c in columns] for r in rows)
        return buf.getvalue()
    header = line.format_map(_Labels(labels or {}))
    lines = [header, "-" * len(header)]
    lines.extend(line.format_map(cells(r)) for r in rows)
    return "\n".join(lines) + "\n"


def _row_id(space):
    """The row id that --space names: a table-row label (8a) names the id
    of its row, and anything else names itself."""
    labels = {d.table_row: d.id for d in atlas.default_entries()}
    return labels.get(space, space)


def _entries(pool, space, params):
    """The catalogue rows a command reads: pool, its rows of the id that
    space names, or the one row of that id with params."""
    if space is None:
        if params is not None:
            raise _UsageError("--params needs --space")
        return pool
    rid = _row_id(space)
    if params is not None:
        return [atlas.descriptor(rid, *params)]
    hits = [d for d in pool if d.id == rid]
    if not hits:
        atlas.refuse_exceptional(rid)
        raise _UsageError(f"no catalogue row matches {space!r}")
    return hits


def _atlas_cells(r):
    found = "-" if r["computed_ratio"] is None else str(r["computed_ratio"])
    status = "skip" if r["skipped"] else ("ok" if r["ok"] else "FAIL")
    return {**r, "found": found, "status": status}


def _render_atlas(records, fmt: str) -> str:
    return render(records, fmt,
                  ["row", "space", "table_ratio", "computed_ratio", "pi1",
                   "ok"],
                  "{row:4} {space:40} {table_ratio:>5} {found:>5} {pi1:>8} "
                  "{status}", {"table_ratio": "table"}, _atlas_cells)


def cmd_atlas(args) -> int:
    records = atlas.verify_table(_entries(
        atlas.default_entries(), args.space, _parse_params(args.params)))
    code = _emit(_render_atlas(records, args.format), args.out)
    if code != EX_OK:
        return code
    return EX_OK if all(r["ok"] for r in records) else EX_VERIFY


def _parse_suites(items):
    if not items:
        return list(SUITE_NAMES)
    names = []
    for item in items:
        names.extend(t.strip() for t in item.split(",") if t.strip())
    if not names:  # running nothing would pass the gate unevaluated
        raise _UsageError(f"--suite names no suite in {items!r}")
    return names


def cmd_verify(args) -> int:
    from . import reporting as rep  # atlas never loads the suites

    if args.seed < 0:  # numpy refuses a negative seed + suite offset
        raise _UsageError(f"--seed must be non-negative, got {args.seed}")
    suites = _parse_suites(args.suite)
    space = _row_id(args.space)
    known = set(atlas._ROWS) | set(rep._DELTA_MODELS)
    if space is not None and space not in known:
        atlas.refuse_exceptional(space)
        raise _UsageError(f"unknown space {args.space!r}")
    params = _parse_params(args.params)
    if params is not None and space is None:
        raise _UsageError("--params needs --space")
    if params is not None and space in rep._DELTA_MODELS:
        raise _UsageError(f"cut model {space!r} takes no parameters")
    try:
        report = rep.run_suites(suites, seed=args.seed, space=space,
                                params=params, tol=_parse_tol(args.tol))
    except rep.UnknownSuite as e:
        raise _UsageError(str(e))
    if space is not None and not report["checks"]:
        raise _UsageError(
            f"space {space!r} selects nothing in suites {', '.join(suites)}")
    write = {"json": rep.report_json, "csv": rep.report_csv,
             "text": rep.report_text}[args.format]
    code = _emit(write(report), args.out)
    if code != EX_OK:
        return code
    return EX_OK if rep.all_passed(report) else EX_VERIFY


def cmd_report(args) -> int:
    from . import capacity as cap  # the table path, without the suites

    pool = [d for d in atlas.list_entries() if d.instantiable]
    rows = cap.capacity_table(_entries(pool, args.space,
                                       _parse_params(args.params)))
    write = {"json": cap.table_json, "csv": cap.table_csv,
             "text": cap.table_text}[args.format]
    return _emit(write(rows), args.out)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return {"atlas": cmd_atlas, "verify": cmd_verify,
                "report": cmd_report}[args.command](args)
    # a row or size outside the catalogue surfaces while instantiating
    except (_UsageError, atlas.UnsupportedRow, atlas.SizeOutOfRange) as e:
        print(f"rspacelab: {e}", file=sys.stderr)
        return EX_USAGE
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)


def run() -> int:
    """The process entry of `python -m rspacelab` and of the console
    script: main(), then a frozen heap."""
    code = main()
    # main() has flushed its output, or closed its --out file, and the
    # process is about to exit: freeze the heap, so that the collections
    # the interpreter runs at exit do not walk the ~22,000 objects that
    # numpy and the imports made, only to drop them.  Exit still runs the
    # atexit handlers and flushes the standard streams.  main() alone, as
    # the tests and library callers call it, leaves the collector as it is
    gc.freeze()
    return code
