"""Command line front end.

Three subcommands: `atlas` recomputes the catalogue table, `verify` runs
invariant suites, `report` renders the capacity summary.  Exit codes follow
sysexits conventions: 0 on success, 2 when a verification fails, 64 for
usage errors, 74 for output I/O failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__
from . import atlas
from .verify_options import DEFAULT_TOL, SUITE_NAMES

EX_OK = 0
EX_VERIFY = 2
EX_USAGE = 64
EX_IO = 74

_FORMATS = ("json", "csv", "text")


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
    a.add_argument("--space", help="restrict to one catalogue row id")
    a.add_argument("--params", help="comma separated integers, e.g. 1,2")
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
    v.add_argument("--space", help="restrict suites to one row id or model")
    v.add_argument("--params", help="comma separated integers")
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
    r.add_argument("--space", help="restrict to one catalogue row id")
    r.add_argument("--params", help="comma separated integers")
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
    if out is None:
        sys.stdout.write(text)
        return EX_OK
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        print(f"rspacelab: cannot write {out}: {e}", file=sys.stderr)
        return EX_IO
    return EX_OK


def _atlas_entries(space, params):
    if space is None:
        return atlas.default_entries()
    if params is not None:
        return [atlas.descriptor(space, *params)]
    hits = [d for d in atlas.default_entries()
            if space == d.id or space == d.table_row]
    if not hits:
        raise _UsageError(f"no catalogue row matches {space!r}")
    return hits


def _render_atlas(records, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"rows": records}, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        cols = ["row", "space", "table_ratio", "computed_ratio", "pi1", "ok"]
        w.writerow(cols)
        for r in records:
            w.writerow([r[c] if c in r else "" for c in cols])
        return buf.getvalue()
    header = (f"{'row':4s} {'space':40s} {'table':>5s} {'found':>5s} "
              f"{'pi1':>8s} status")
    lines = [header, "-" * len(header)]
    for r in records:
        found = "-" if r["computed_ratio"] is None else str(r["computed_ratio"])
        status = "skip" if r["skipped"] else ("ok" if r["ok"] else "FAIL")
        lines.append(f"{r['row']:4s} {r['space']:40s} {r['table_ratio']:5d} "
                     f"{found:>5s} {r['pi1']:>8s} {status}")
    return "\n".join(lines) + "\n"


def cmd_atlas(args) -> int:
    records = atlas.verify_table(_atlas_entries(args.space,
                                                _parse_params(args.params)))
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
    space = args.space
    known = set(atlas._ROWS) | set(rep._DELTA_MODELS)
    if space is not None and space not in known:
        raise _UsageError(f"unknown space {space!r}")
    try:
        report = rep.run_suites(suites, seed=args.seed, space=space,
                                params=_parse_params(args.params),
                                tol=_parse_tol(args.tol))
    except rep.UnknownSuite as e:
        raise _UsageError(str(e))
    if space is not None and not report["checks"]:
        raise _UsageError(
            f"space {space!r} selects nothing in suites {', '.join(suites)}")
    render = {"json": rep.report_json, "csv": rep.report_csv,
              "text": rep.report_text}[args.format]
    code = _emit(render(report), args.out)
    if code != EX_OK:
        return code
    return EX_OK if rep.all_passed(report) else EX_VERIFY


def cmd_report(args) -> int:
    from . import capacity as cap  # the table path, without the suites

    space = args.space
    params = _parse_params(args.params)
    if space is None:
        entries = None
    elif params is not None:
        entries = [atlas.descriptor(space, *params)]
    else:
        entries = [d for d in atlas.list_entries()
                   if d.instantiable and d.id == space]
        if not entries:
            raise _UsageError(f"no catalogue row matches {space!r}")
    rows = cap.capacity_table(entries)
    render = {"json": cap.table_json, "csv": cap.table_csv,
              "text": cap.table_text}[args.format]
    return _emit(render(rows), args.out)


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


if __name__ == "__main__":
    raise SystemExit(main())
