"""Write perfbench/reference.json, the values run.py checks outputs against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run once at a commit whose outputs are trusted.  The catalogue rows are the
instantiable rows of atlas.list_entries(); `sys_pin` is the closed-form
systole from reporting._SYS_PINS where one exists.  The check ids are those
of `verify` over all suites and of `verify --suite algebra,roots` at each
large_algebra point; they do not depend on the seed.
"""

import json
from pathlib import Path

from rspacelab import atlas
from rspacelab import reporting as rep

from run import LARGE_POINTS


def main():
    rows = []
    for d in atlas.list_entries():
        if not d.instantiable:
            continue
        row, = rep.capacity_table([d], seed=0)
        pin = rep._SYS_PINS.get(d.id, lambda *p: None)(*d.params)
        rows.append({"id": d.id, "params": list(d.params), "label": d.label,
                     **{k: row[k] for k in ("sys", "ratio", "c_G_U1",
                                            "c_HZ_U1", "c_HZ_D1")},
                     "sys_pin": None if pin is None else float(pin)})
    full = rep.run_suites(list(rep.SUITE_NAMES), seed=0)
    large = {}
    for rid, n in LARGE_POINTS:
        r = rep.run_suites(["algebra", "roots"], seed=0, space=rid,
                           params=(n,))
        large[f"{rid}({n})"] = [c["id"] for c in r["checks"]]
    out = {"catalogue": rows,
           "verify_ids": [c["id"] for c in full["checks"]],
           "large_ids": large}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
