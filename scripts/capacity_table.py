#!/usr/bin/env python3
"""Symplectic capacities of the unit tangent and disc bundles, per space."""

import argparse

from rspacelab import reporting as rep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--format", choices=("text", "csv", "json"),
                    default="text")
    ap.add_argument("--out", default=None, help="write here instead of stdout")
    args = ap.parse_args()

    rows = rep.capacity_table()
    render = {"text": rep.table_text, "csv": rep.table_csv,
              "json": rep.table_json}[args.format]
    body = render(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    else:
        print(body, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
