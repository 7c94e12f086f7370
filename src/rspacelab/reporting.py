"""Invariant suites and deterministic report rendering.

Each suite re-derives a batch of structural facts on a handful of catalogue
rows and emits flat check records {id, claim, status, computed, expected,
tolerance}.  Rendering is pure: the same master seed always produces the
same bytes, so reports can be diffed across machines.  Per-suite seeds are
the master seed plus a fixed offset, which keeps suites independent of the
order they run in.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from . import __version__
from . import algebra as al
from . import atlas
from . import orbit as ob
from .cli import DEFAULT_TOL, SUITE_NAMES, render


class UnknownSuite(ValueError):
    """Suite name outside the published set."""


def __getattr__(name):
    """The capacity table and its renderers, re-exported from capacity;
    served on first use, so verify loads capacity only for its suite."""
    if name in ("capacity_table", "table_csv", "table_json", "table_text"):
        from . import capacity
        return getattr(capacity, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# master seed -> per-suite stream; offsets fixed so partial runs reproduce
SUITE_OFFSETS = {"algebra": 11, "roots": 23, "orbit": 37, "delta": 41,
                 "critical": 53, "capacity": 67, "finsler": 79}

# default rows per suite; small enough that a full run stays interactive
_STRUCTURAL_SPACES = [("sphere", (2,)), ("quadric_real", (1, 2)),
                      ("unitary_group", (2,)), ("grassmann_real", (1, 2)),
                      ("grassmann_complex_hermitian", (1, 1))]
_CRITICAL_SPACES = [("grassmann_real", (1, 1)),
                    ("grassmann_complex_hermitian", (1, 1))]
_DELTA_MODELS = list(ob.CUT_MODEL_ROWS)
_DELTA_SAMPLES = 400  # cut-locus oracle samples per model
_CRITICAL_RESTARTS = 50  # descent restarts per row
_ORACLE_ROWS = {"sphere", "quadric_real"}

# rows with a closed-form shortest period (verified against the scan oracle)
_SYS_PINS = {
    "sphere": lambda *p: 2.0 * np.pi,
    "quadric_real": lambda *p: np.sqrt(2.0) * np.pi,
    "grassmann_real": lambda p, q: np.pi if p == 1 else None,
    "unitary_group": lambda n: 2.0 * np.pi,
}

_KILLING_FACTOR = {"so": lambda n: n - 2, "su": lambda n: n,
                   "sp": lambda n: n + 1}


def _native(v):
    """Recursively coerce numpy scalars/arrays for json emission."""
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, np.ndarray):
        return [_native(x) for x in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_native(x) for x in v]
    return v


def _check(cid, claim, ok, computed, expected, tol):
    return {"id": cid, "claim": claim, "status": "pass" if ok else "fail",
            "computed": _native(computed), "expected": _native(expected),
            "tolerance": float(tol)}


def _skip(cid, why):
    """Name a check whose claim is vacuous on a row.  The note goes to
    stderr, so the report itself stays a function of the seed."""
    print(f"rspacelab: skipped {cid}: {why}", file=sys.stderr)


def _error(suite, e):
    """The check record of an exception that escaped a suite.  Where it was
    raised goes to stderr, so the report stays a function of the seed: the
    innermost frame in rspacelab, then the innermost frame of all when that
    lies outside, say in numpy."""
    import traceback  # on the error path only

    frames = traceback.extract_tb(e.__traceback__)
    here = os.path.dirname(os.path.abspath(__file__))
    # the frame of run_suites, which caught e, is always one of ours
    where = [f for f in frames
             if os.path.dirname(os.path.abspath(f.filename)) == here][-1]
    msg = (f"rspacelab: suite {suite} raised in {where.name} at "
           f"{os.path.basename(where.filename)}:{where.lineno}")
    site = frames[-1]
    if site is not where:
        msg += (f" (innermost frame {os.path.basename(site.filename)}:"
                f"{site.lineno})")
    print(msg, file=sys.stderr)
    return {"id": f"{suite}.error", "claim": f"suite {suite} ran to the end",
            "status": "error", "computed": f"{type(e).__name__}: {e}",
            "expected": "no exception", "tolerance": 0.0}


def suite_algebra(spaces, seed, tol):
    checks = []
    for rid, params in spaces:
        s = atlas.instance(rid, *params)
        g = s.g_vee
        lab = s.descriptor.label
        jac = al.jacobi_residual(g)
        checks.append(_check(
            f"algebra.jacobi[{lab}]",
            "structure constants satisfy the Jacobi identity",
            jac <= tol["alg"], jac, 0.0, tol["alg"]))

        # the dense Killing matrix B[i,j] = sum_kl c[i,k,l] c[j,l,k]
        (i, j, k, v), d = g.structure_constants, g.dim
        kj = np.argsort(k * d + j, kind="stable")
        a, b = al._join(j * d + k, (k * d + j)[kj])  # (k, l) = (l', k')
        bmat = np.bincount(i[a] * d + i[kj[b]], v[a] * v[kj[b]], d * d)
        ev = np.linalg.eigvalsh(bmat.reshape(d, d))
        if g.family in _KILLING_FACTOR:
            f = float(_KILLING_FACTOR[g.family](g.n))
            res = float(np.abs(ev + f).max())
            claim = "Killing form is the family multiple of the trace form"
        else:
            # doubled simple factor: still a negative scalar form
            res = float(max(ev.max() - ev.min(), max(ev.max(), 0.0)))
            claim = "Killing form is a negative scalar on the doubled factor"
        checks.append(_check(
            f"algebra.killing[{lab}]", claim, res <= tol["killing"],
            res, 0.0, tol["killing"]))

        for name, (k, p) in (("order2", s.theta_decomp),
                             ("real", s.sigma_decomp)):
            # <[x, y], z> is totally antisymmetric: [k,k] in k and [k,p]
            # in p are both <[k,p],k> = 0, and [p,p] in k is <[p,p],p> = 0
            res = max(al.bracket_residual(g, k, p, k),
                      al.bracket_residual(g, p, p, p))
            checks.append(_check(
                f"algebra.grading.{name}[{lab}]",
                "brackets respect the +/-1 eigenspace splitting",
                res <= tol["alg"], res, 0.0, tol["alg"]))
    return checks


def suite_roots(spaces, seed, tol):
    checks = []
    for rid, params in spaces:
        s = atlas.instance(rid, *params)
        lab = s.descriptor.label
        st = ob.structure(s)
        k, _ = s.sigma_decomp

        total = int(st.sigma_roots.multiplicities.sum())
        total += st.sigma_roots.zero_multiplicity
        checks.append(_check(
            f"roots.count[{lab}]",
            "root multiplicities and the zero space fill the algebra",
            total == len(k), int(total), len(k), 0.0))

        covs = st.sigma_roots.covectors
        worst = 0.0
        for a in covs:
            best = min(float(np.linalg.norm(a + b)) for b in covs)
            worst = max(worst, best)
        checks.append(_check(
            f"roots.pairing[{lab}]",
            "covectors occur in opposite pairs",
            worst <= 1e-8, worst, 0.0, 1e-8))

        checks.append(_check(
            f"roots.cascade.count[{lab}]",
            "strongly orthogonal family has one member per complex rank",
            len(st.gammas) == len(s.abar), len(st.gammas),
            len(s.abar), 0.0))

        # relative Frobenius residuals of the complex triples
        res = 0.0
        for h, x, y in st.triples:
            for a, b, c, f in ((h, x, x, 2.0), (h, y, y, -2.0),
                               (x, y, h, 1.0)):
                res = max(res, float(np.linalg.norm(al.bracket(a, b) - f * c)
                                     / np.linalg.norm(c)))
        checks.append(_check(
            f"roots.sl2[{lab}]",
            "cascade triples satisfy the standard bracket relations",
            res <= tol["sl2"], res, 0.0, tol["sl2"]))
    return checks


def suite_orbit(spaces, seed, tol):
    checks = []
    for k, (rid, params) in enumerate(spaces):
        s = atlas.instance(rid, *params)
        lab = s.descriptor.label
        g = s.g_vee
        # the certificate point, then the 40 height points: one walk each
        pts = ob.random_orbit_points(
            s, [seed + 100 * k] + [seed + 100 * k + 2 + j for j in range(40)])
        x = pts[0]

        cert = ob.certificate_residual(s, x)
        checks.append(_check(
            f"orbit.certificate[{lab}]",
            "sample points stay on the orbit",
            cert <= 1e-9, cert, 0.0, 1e-9))

        j2 = ob.complex_structure_check(s, x)
        checks.append(_check(
            f"orbit.complex_structure[{lab}]",
            "the squared tangent rotation is minus the identity",
            j2 <= tol["j2"], j2, 0.0, tol["j2"]))

        # the two-form on every pair of generators of an orthonormal
        # tangent frame: <x, [a_i, a_j]> = <[x, a_i], a_j> by invariance of
        # the trace form, so r brackets and one product, not r^2 brackets
        gens = g.from_coords(ob._tangent_frames(s, g.coords(x)))
        r = len(gens)
        vel = al.bracket(x, gens).reshape(r, -1)
        omega = vel @ gens.reshape(r, -1).T
        anti = float(np.abs(omega + omega.T).max())
        sv = np.linalg.svd(omega, compute_uv=False)
        checks.append(_check(
            f"orbit.form.antisymmetric[{lab}]",
            "the orbit two-form changes sign under swap",
            anti <= tol["form"], anti, 0.0, tol["form"]))
        checks.append(_check(
            f"orbit.form.nondegenerate[{lab}]",
            "the orbit two-form has no kernel on the tangent space",
            sv.min() > 1e-9 * max(1.0, sv.max()), float(sv.min()),
            "positive", 1e-9))

        rng = np.random.default_rng(seed + 100 * k + 1)
        eta = g.from_coords(rng.normal(size=g.dim) * 0.3)
        # the two-form on the first two generators, moved by exp(eta)
        moved = ob.kks(s, al.conjugate(x, eta), *al.conjugate(gens[:2], eta))
        drift = float(abs(moved - omega[0, 1]))
        checks.append(_check(
            f"orbit.form.invariant[{lab}]",
            "the orbit two-form is preserved by the group flow",
            drift <= tol["form"], drift, 0.0, tol["form"]))

        h0 = ob.hamiltonian(s, s.xi)
        hs = ob.hamiltonian(s, pts[1:])
        checks.append(_check(
            f"orbit.height_minimum[{lab}]",
            "the height function is minimized at the distinguished point",
            hs.min() >= h0 - 1e-9, float(hs.min() - h0), "nonnegative",
            1e-9))

        cid = f"orbit.moment_membership[{lab}]"
        try:
            mi = ob.moment_image_spectrum_check(s, samples=200,
                                                seed=seed + 100 * k + 3)
        except ob.NotOnRealForm as e:  # no root on the flat, no box
            _skip(cid, str(e))
            _skip(f"orbit.moment_radius[{lab}]", str(e))
            continue
        ok = (mi["interior_pass"] == mi["interior_total"]
              and mi["exterior_pass"] == mi["exterior_total"])
        checks.append(_check(
            cid,
            "spectral membership separates image interior from exterior",
            ok,
            [mi["interior_pass"], mi["exterior_pass"]],
            [mi["interior_total"], mi["exterior_total"]], 0.0))
        mis = mi["max_spectral_mismatch"]
        checks.append(_check(
            f"orbit.moment_radius[{lab}]",
            "the spectral radius of the momentum is max |alpha(X)|",
            mis <= 1e-9, mis, 0.0, 1e-9))
    return checks


def suite_delta(models, seed, tol):
    checks = []
    for model in models:
        r = ob.cut_locus_oracle_check(model, samples=_DELTA_SAMPLES,
                                      seed=seed, band=tol["band"])
        checks.append(_check(
            f"delta.oracle[{model}]",
            "flat shell predicate matches the brute-force cut condition",
            r["mismatches"] == 0 and r["tested"] > 0,
            r["mismatches"], 0, tol["band"]))
    return checks


def suite_critical(spaces, seed, tol):
    checks = []
    for rid, params in spaces:
        s = atlas.instance(rid, *params)
        lab = s.descriptor.label
        rep = ob.critical_gap_report(s, restarts=_CRITICAL_RESTARTS,
                                     seed=seed)

        want = 4.0 * np.pi * len(s.abar)
        checks.append(_check(
            f"critical.spread[{lab}]",
            "total level spread is 4 pi per unit of complex rank",
            abs(rep["max_gap"] - want) <= tol["gap_rel"] * want,
            rep["max_gap"], want, tol["gap_rel"]))

        checks.append(_check(
            f"critical.step[{lab}]",
            "the lowest nonzero level sits 4 pi above the bottom",
            abs(rep["smin_gap"] - 4.0 * np.pi) <= tol["gap_rel"] * 4.0 * np.pi,
            rep["smin_gap"], 4.0 * np.pi, tol["gap_rel"]))

        # the closed-form indices of the components at the ladder level
        # nearest each cluster, and none for a cluster off the ladder
        ladder = ob.critical_ladder(s)
        want = []
        for c in rep["values"]:
            v, ix = min(ladder, key=lambda step: abs(step[0] - c))
            want.append(ix if abs(v - c) <= tol["gap_rel"] * 4.0 * np.pi
                        else [])
        checks.append(_check(
            f"critical.indices[{lab}]",
            "each descent index is the index of a component at its "
            "level, and is even",
            all(i in ix and i % 2 == 0
                for i, ix in zip(rep["indices"], want)),
            list(rep["indices"]), want, 0.0))
    return checks


def suite_capacity(spaces, seed, tol):
    from . import capacity as cap  # loaded for this suite only

    checks = []
    for rid, params in spaces:
        s = atlas.instance(rid, *params)
        lab = s.descriptor.label
        sd = cap.systole_details(s)
        sys_flat = sd["systole"]

        pin = _SYS_PINS.get(rid, lambda *p: None)(*params)
        if pin is not None:
            checks.append(_check(
                f"capacity.systole[{lab}]",
                "flat frequency systole matches the closed form",
                abs(sys_flat - pin) <= tol["sys_abs"], sys_flat, pin,
                tol["sys_abs"]))

        if rid in _ORACLE_ROWS:
            scan = cap.systole_scan_oracle(s, np.asarray(sd["direction"]))
            checks.append(_check(
                f"capacity.scan_oracle[{lab}]",
                "period-scan recurrence confirms the flat systole",
                abs(scan - sys_flat) <= 1e-6 * sys_flat, scan, sys_flat,
                1e-6))

        ratio = atlas.rank_ratio(s)
        cross = ratio * cap.capacities_U(s, 2.0 * np.pi)
        checks.append(_check(
            f"capacity.normalized[{lab}]",
            "rank ratio times the normalized branch equals 4 pi",
            abs(cross - 4.0 * np.pi) <= tol["cap_rel"] * 4.0 * np.pi,
            cross, 4.0 * np.pi, tol["cap_rel"]))

        c_u = cap.capacities_U(s, sys_flat)
        want = sys_flat * (2.0 if ratio == 1 else 1.0)
        checks.append(_check(
            f"capacity.dichotomy[{lab}]",
            "unit-bundle capacities collapse to the systole dichotomy",
            abs(c_u - want) <= tol["cap_rel"] * want, c_u, want,
            tol["cap_rel"]))

        c_hz, tag = cap.chz_disc(s, sys_flat)
        if tag != "disc_unknown":
            factor = {"disc_simply_connected": 1.0, "disc_rp": 2.0,
                      "disc_quadric": np.sqrt(2.0)}[tag]
            dw = factor * sys_flat
            checks.append(_check(
                f"capacity.disc[{lab}]",
                "disc capacity follows the fundamental-group dispatch",
                abs(c_hz - dw) <= tol["cap_rel"] * dw, c_hz, dw,
                tol["cap_rel"]))

        if s.descriptor.hermitian:
            h = cap.capacity_hermitian_ambient(s)
            vals = ob.weyl_critical_values(s)  # the enumeration oracle
            want = [vals[1] - vals[0], vals[-1] - vals[0]]
            ok = all(abs(c - w) <= tol["gap_rel"] * w
                     for c, w in zip(h, want))
            checks.append(_check(
                f"capacity.ambient[{lab}]",
                "ambient orbit capacities come from the level ladder",
                ok, list(h), want, tol["gap_rel"]))
    return checks


def suite_finsler(spaces, seed, tol):
    from . import finsler as fin  # loaded for this suite only

    checks = []
    for rid, params in spaces:
        s = atlas.instance(rid, *params)
        lab = s.descriptor.label

        ub = fin.unit_ball_vs_box(s, samples=400, seed=seed)
        checks.append(_check(
            f"finsler.box[{lab}]",
            "the spectral-radius unit ball is the open root box",
            ub["fraction"] == 1.0, ub["fraction"], 1.0, 0.0))

        try:
            f2 = fin.f2_vs_riemannian(s, samples=120, seed=seed)
        except fin.DegenerateNorm as e:  # every root vanishes on the flat
            _skip(f"finsler.quadratic[{lab}]", str(e))
        else:
            # the constant multiple holds only where the roots weigh every
            # direction of their span alike
            res = max(f2["identity"], f2["spread"] if f2["isotropic"] else 0.0)
            checks.append(_check(
                f"finsler.quadratic[{lab}]",
                "the squared Schatten-2 norm is the multiplicity-weighted "
                "sum of squared roots, and a constant multiple of the "
                "metric where that sum is isotropic",
                res <= tol["spread"], res, 0.0, tol["spread"]))

        mo = fin.norm_monotonicity(s, samples=80, seed=seed)
        checks.append(_check(
            f"finsler.monotone[{lab}]",
            "Schatten norms decrease as the exponent grows",
            mo["worst_violation"] <= tol["mono"], mo["worst_violation"],
            0.0, tol["mono"]))

        if len(s.a_flat) == 1 and mo.get("rank1_single_magnitude"):
            checks.append(_check(
                f"finsler.trace_multiple[{lab}]",
                "on one-dimensional flats the trace norm is an integer "
                "multiple of the spectral radius",
                abs(mo["rank1_multiplier"] - mo["rank1_nonzero_count"])
                <= 1e-9,
                mo["rank1_multiplier"], mo["rank1_nonzero_count"], 1e-9))
    return checks


_SUITES = {
    "algebra": (suite_algebra, _STRUCTURAL_SPACES),
    "roots": (suite_roots, _STRUCTURAL_SPACES),
    "orbit": (suite_orbit, _STRUCTURAL_SPACES),
    "delta": (suite_delta, _DELTA_MODELS),
    "critical": (suite_critical, _CRITICAL_SPACES),
    "capacity": (suite_capacity, _STRUCTURAL_SPACES),
    "finsler": (suite_finsler, _STRUCTURAL_SPACES),
}


def _filtered(defaults, space, params):
    if space is None:
        return defaults
    if defaults is _DELTA_MODELS:
        return [m for m in defaults if m == space]
    if params is not None:
        return [(space, tuple(params))] if space in atlas._ROWS else []
    return [(rid, p) for rid, p in defaults if rid == space]


def run_suites(names, seed, space=None, params=None, tol=None) -> dict:
    """Run the named suites and assemble the report dictionary; a suite
    that raises gives one `<suite>.error` record and the rest still run."""
    for n in names:
        if n not in _SUITES:
            raise UnknownSuite(f"unknown suite {n!r}")
    tol = {**DEFAULT_TOL, **(tol or {})}
    checks = []
    for n in SUITE_NAMES:
        if n not in names:
            continue
        fn, defaults = _SUITES[n]
        members = _filtered(defaults, space, params)
        try:
            checks.extend(fn(members, seed + SUITE_OFFSETS[n], tol))
        except (atlas.UnsupportedRow, atlas.SizeOutOfRange):
            raise  # a row outside the catalogue is a usage error
        except Exception as e:
            checks.append(_error(n, e))
    return {"meta": {"version": __version__, "seed": int(seed)},
            "checks": checks}


def all_passed(report: dict) -> bool:
    return all(c["status"] == "pass" for c in report["checks"])


# --- rendering ---------------------------------------------------------

def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_csv(report: dict) -> str:
    return render([{**report["meta"], **c,
                    "computed": json.dumps(c["computed"]),
                    "expected": json.dumps(c["expected"])}
                   for c in report["checks"]], "csv",
                  ["version", "seed", "id", "claim", "status", "computed",
                   "expected", "tolerance"])


def report_text(report: dict) -> str:
    lines = []
    for c in report["checks"]:
        lines.append(f"{c['status'].upper():4s} {c['id']}  "
                     f"computed={c['computed']} expected={c['expected']} "
                     f"tol={c['tolerance']:g}")
    n = len(report["checks"])
    good = sum(c["status"] == "pass" for c in report["checks"])
    lines.append(f"{good}/{n} checks passed (seed {report['meta']['seed']})")
    return "\n".join(lines) + "\n"
