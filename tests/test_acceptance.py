"""Top-level acceptance gate.

One test per shipped guarantee, each printing a single PASS/FAIL line, so
`pytest -v tests/test_acceptance.py` doubles as the sign-off protocol.
"""

import time

import numpy as np
import pytest

from rspacelab import atlas, capacity as cap, finsler as fin
from rspacelab import orbit as ob, reporting as rep
from rspacelab import roots as rt

PI = np.pi


def _verdict(num, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {label}{tail}")
    assert ok, f"criterion {num}: {label}{tail}"


# 1. catalogue reproduction: every instantiable row, exact ratio match -----

def test_criterion_1_catalogue_table():
    t0 = time.monotonic()
    records = atlas.verify_table(atlas.default_entries())
    dt = time.monotonic() - t0
    live = [r for r in records if not r["skipped"]]
    ok = (len(live) >= 10 and all(r["ok"] for r in live) and dt < 60.0)
    _verdict(1, "rank ratio table reproduced exactly", ok,
             f"{len(live)} instances in {dt:.1f}s")


# 2. critical value ladders on the five benchmark orbits ------------------

_LADDER = [
    ("grassmann_real", (1, 1), 1),           # projective line
    ("grassmann_complex_hermitian", (1, 1), 2),
    ("sphere", (2,), 2),
    ("sphere", (3,), 2),
    ("grassmann_real", (1, 2), 1),            # ambient projective plane
]


def test_criterion_2_energy_ladders():
    t0 = time.monotonic()
    worst = 0.0
    for rid, params, rank in _LADDER:
        s = atlas.instance(rid, *params)
        rpt = ob.critical_gap_report(s, restarts=50, seed=3)
        worst = max(worst,
                    abs(rpt["max_gap"] - 4.0 * PI * rank) / (4.0 * PI * rank),
                    abs(rpt["smin_gap"] - 4.0 * PI) / (4.0 * PI))
    dt = time.monotonic() - t0
    ok = worst < 1e-3 and dt < 300.0
    _verdict(2, "gap 4*pi*rank and lowest step 4*pi on all five orbits", ok,
             f"worst rel err {worst:.2e}, {dt:.1f}s")


# 3. cut shell oracle ------------------------------------------------------

def test_criterion_3_cut_shell_oracle():
    bad = 0
    tested = 0
    for model in ("cp1", "cp1xcp1"):
        rpt = ob.cut_locus_oracle_check(model, samples=1000, seed=7,
                                        band=1e-6)
        bad += rpt["mismatches"]
        tested += rpt["tested"]
    ok = bad == 0 and tested >= 1500
    _verdict(3, "shell predicate matches cut condition on both models", ok,
             f"{tested} samples, {bad} mismatches")


# 4. momentum image membership --------------------------------------------

_MOMENT_ROWS = [("sphere", (2,)), ("quadric_real", (1, 2)),
                ("unitary_group", (2,)), ("grassmann_real", (1, 2)),
                ("grassmann_complex_hermitian", (1, 1))]


def test_criterion_4_momentum_box():
    total_in = total_out = pass_in = pass_out = 0
    for rid, params in _MOMENT_ROWS:
        rpt = ob.moment_image_spectrum_check(atlas.instance(rid, *params),
                                             samples=2000, seed=13)
        pass_in += rpt["interior_pass"]
        total_in += rpt["interior_total"]
        pass_out += rpt["exterior_pass"]
        total_out += rpt["exterior_total"]
    ok = (total_in >= 1000 and total_out >= 1000
          and pass_in == total_in and pass_out == total_out)
    _verdict(4, "momentum lands in the open box iff the flat vector does",
             ok, f"{pass_in}/{total_in} interior, {pass_out}/{total_out} exterior")


# 5. capacity dichotomy and disc dispatch over the full sweep --------------

def test_criterion_5_capacity_calculator():
    worst = 0.0
    checked = 0
    for d in atlas.list_entries():
        try:
            s = atlas.instance(d.id, *d.params)
        except atlas.UnsupportedRow:
            continue
        sys_flat = cap.systole_details(s)["systole"]
        u1 = cap.capacities_U(s, sys_flat)
        ratio = atlas.rank_ratio(s)
        want = sys_flat * (1.0 if ratio == 2 else 2.0)
        cross = ratio * cap.capacities_U(s, 2.0 * PI)
        worst = max(worst, abs(u1 - want) / want,
                    abs(cross - 4 * PI) / (4 * PI))
        c_hz, tag = cap.chz_disc(s, sys_flat)
        factor = {"disc_simply_connected": 1.0, "disc_rp": 2.0,
                  "disc_quadric": np.sqrt(2.0)}.get(tag)
        if factor is None:
            assert tag == "disc_unknown" and c_hz == "unknown"
        else:
            worst = max(worst, abs(c_hz - factor * sys_flat) / c_hz)
        checked += 1
    ok = checked >= 10 and worst < 1e-6
    _verdict(5, "U_1 dichotomy and D_1 dispatch on every instance", ok,
             f"{checked} instances, worst rel err {worst:.2e}")


# 6. systole pins with an independent scan ---------------------------------

_SYS_PINS = [("sphere", (2,), 2.0 * PI), ("sphere", (3,), 2.0 * PI),
             ("quadric_real", (1, 2), np.sqrt(2.0) * PI),
             ("quadric_real", (2, 2), np.sqrt(2.0) * PI)]


def test_criterion_6_systole_values():
    worst = 0.0
    for rid, params, want in _SYS_PINS:
        s = atlas.instance(rid, *params)
        det = cap.systole_details(s)
        scan = cap.systole_scan_oracle(s, np.asarray(det["direction"]))
        worst = max(worst, abs(det["systole"] - want),
                    abs(scan - det["systole"]))
    ok = worst < 1e-6
    _verdict(6, "sphere and quadric systoles hit 2*pi and sqrt(2)*pi", ok,
             f"worst abs err {worst:.2e}")


# 7. structural identities everywhere --------------------------------------

def test_criterion_7_structural_suite():
    report = rep.run_suites(["algebra", "roots", "orbit", "critical"],
                            seed=2024)
    suite_ok = rep.all_passed(report)
    cascade_ok = True
    for d in atlas.list_entries():
        try:
            s = atlas.instance(d.id, *d.params)
        except atlas.UnsupportedRow:
            continue
        st = ob.structure(s)
        cascade_ok &= len(st.gammas) == len(s.abar)
    idx_checks = [c for c in report["checks"]
                  if c["id"].startswith("critical.indices[")]
    idx_ok = bool(idx_checks) and all(i % 2 == 0 for c in idx_checks
                                      for i in c["computed"])
    n = len(report["checks"])
    ok = suite_ok and cascade_ok and idx_ok
    _verdict(7, "algebra, root and orbit identities hold at tolerance", ok,
             f"{n} checks, {len(idx_checks)} even index lists, cascades fill "
             "the rank on every instance")


# 8. Finsler geometry of the momentum body ---------------------------------

_FINSLER_ROWS = [("sphere", (2,)), ("sphere", (3,)), ("quadric_real", (1, 2)),
                 ("grassmann_real", (1, 2)), ("unitary_group", (2,)),
                 ("grassmann_quaternionic", (1, 1)), ("symplectic_group", (1,)),
                 ("grassmann_complex_hermitian", (1, 1))]


def test_criterion_8_finsler_norms():
    frac_min = 1.0
    spread_max = 0.0
    mono_max = 0.0
    for rid, params in _FINSLER_ROWS:
        s = atlas.instance(rid, *params)
        box = fin.unit_ball_vs_box(s, samples=1000, seed=29)
        frac_min = min(frac_min, box["fraction"])
        if fin.norm_kernel(s).shape[0] == 0:
            spread_max = max(spread_max,
                             fin.f2_vs_riemannian(s, seed=29)["spread"])
        mono_max = max(mono_max,
                       fin.norm_monotonicity(s, samples=100,
                                             seed=29)["worst_violation"])
    ok = frac_min == 1.0 and spread_max <= 1e-8 and mono_max <= 1e-10
    _verdict(8, "box criterion, quadratic constancy and p-monotonicity", ok,
             f"box {frac_min:.0%}, spread {spread_max:.1e}, mono {mono_max:.1e}")


# 9. deterministic reporting ------------------------------------------------

def test_criterion_9_byte_identical_reports():
    r1 = rep.run_suites(list(rep.SUITE_NAMES), seed=77)
    r2 = rep.run_suites(list(rep.SUITE_NAMES), seed=77)
    j_ok = rep.report_json(r1).encode() == rep.report_json(r2).encode()
    c_ok = rep.report_csv(r1) == rep.report_csv(r2)
    r3 = rep.run_suites(list(rep.SUITE_NAMES), seed=78)
    differs = rep.report_json(r3) != rep.report_json(r1)
    ok = j_ok and c_ok and differs and rep.all_passed(r1)
    _verdict(9, "same master seed gives byte-identical reports", ok,
             f"{len(r1['checks'])} checks, seed change alters the bytes")
