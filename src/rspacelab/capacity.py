"""Systoles and symplectic capacities of unit disc and sphere bundles.

Two metric scales coexist deliberately.  The trace form tr(x^T y), the
orbit metric, makes the generator sphere have area 4 pi and drives the
symplectic side; the flat scale tr(x^T y)/c_model reproduces each row's
textbook metric (unit sphere, principal angles, bi-invariant Frobenius)
and drives the reported systoles.

The capacity table that `report` prints is built here, and its formats
are laid out for `cli.render`.  Nothing here loads the oracles in `orbit`
and `finsler` or the verify suites (`reporting`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from . import algebra as al
from . import atlas
from . import roots as rt
from .atlas import SpaceInstance, rank_ratio
from .cli import render


class LatticeError(RuntimeError):
    """Active weights are incommensurable, or the shortest vector misses xi."""


# ---------------------------------------------------------------------------
# flat (textbook) metric scale per row


def c_model(s: SpaceInstance) -> float:
    """Scale of the textbook metric tr(x^T y)/c_model on N.

    Unit-radius quadrics keep the trace length of xi; real and
    quaternionic Grassmannians use the principal-angle normalization, and
    U(n) the bi-invariant Frobenius metric.
    """
    d = s.descriptor
    if d.id == "grassmann_real":
        return 4.0
    if d.id == "unitary_group":
        return 1.0
    return float(np.sum(s.xi * s.xi))


def _active_weights(s: SpaceInstance) -> np.ndarray:
    """Every nonzero weight of the flat on an entry of xi, one row per
    entry; alpha and 2 alpha both stay.

    With X v_r = i lambda_r(X) v_r jointly on the n x n flat matrices,
    exp(X) xi exp(-X) scales the entry M_rs of M = V^H xi V by
    exp(i (lambda_r - lambda_s)(X)).
    """
    lams, vecs = rt._joint_eigen(s.g_vee.from_coords(s.a_flat))
    m = np.conj(vecs.T) @ s.xi @ vecs
    on = np.abs(m) ** 2 > 1e-12 * np.sum(s.xi * s.xi)
    ws = (lams[:, None] - lams[None])[on]
    return ws[np.linalg.norm(ws, axis=1) > 1e-9]


def _unit_lattice(s: SpaceInstance) -> dict:
    """Closing vectors of the flat as an integer lattice with its speed form.

    X in the flat closes, Ad(exp X) xi = xi, iff w(X) is in 2 pi Z for every
    active weight w.  In coordinates z, where basis weight j takes the value
    2 pi z_j, every active weight is a rational combination num/den of the
    basis, so the closing vectors are the z in Z^k with num z = 0 mod den.
    gram is the speed form |[X, xi]|^2 / c_model in these coordinates and
    lift maps z to flat coordinates.
    """
    g = s.g_vee
    ws = _active_weights(s)
    basis = []
    for w in ws[np.argsort(np.linalg.norm(ws, axis=1), kind="stable")]:
        if np.linalg.matrix_rank(np.array(basis + [w]), tol=1e-8) > len(basis):
            basis.append(w)
    basis = np.array(basis)
    coeffs = ws @ np.linalg.pinv(basis)
    fracs = [Fraction(float(c)).limit_denominator(64) for c in coeffs.ravel()]
    den = lcm(*(f.denominator for f in fracs))
    num = np.array([int(f * den) for f in fracs]).reshape(coeffs.shape)
    if np.abs(num @ basis / den - ws).max() > 1e-8:
        raise LatticeError("active weights are not commensurable")
    # row j is the flat vector on which basis weight i takes 2 pi delta_ij
    lift = 2.0 * np.pi * np.linalg.pinv(basis).T
    # the trace form of the n x n brackets is their coordinate product
    vel = al.bracket(g.from_coords(lift @ s.a_flat), s.xi)
    vel = vel.reshape(len(lift), -1)
    gram = (vel @ vel.T) / c_model(s)
    return {"weights": basis, "num": num, "den": den, "gram": gram,
            "lift": lift}


def _proven_box(lat: dict) -> np.ndarray:
    """Half-widths b with every closing z no longer than den * e_j in the box.

    den * e_j always closes; any z with z^T G z <= R^2 has
    |z_i| <= R sqrt((G^-1)_ii) by Cauchy-Schwarz.
    """
    gram = lat["gram"]
    r2 = lat["den"] ** 2 * np.diag(gram).min()
    reach = np.sqrt(r2 * np.diag(np.linalg.inv(gram)))
    return np.floor(reach + 1e-9).astype(int)


def _shortest_in_box(lat: dict, box) -> tuple:
    """Shortest nonzero closing z with |z_i| <= box_i: (z, length, count)."""
    axes = [np.arange(-b, b + 1) for b in box]
    zs = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))
    zs = zs[np.any(zs != 0, axis=1)]
    closes = np.all((zs @ lat["num"].T) % lat["den"] == 0, axis=1)
    q = np.einsum("ni,ij,nj->n", zs, lat["gram"], zs)
    q[~closes] = np.inf
    best = int(np.argmin(q))
    return zs[best], float(np.sqrt(q[best])), len(zs)


def systole_details(s: SpaceInstance) -> dict:
    """Exact flat systole: the shortest nonzero vector of the unit lattice.

    `tested` counts the integer vectors evaluated inside the proven box;
    nothing is skipped, so `skipped_irrational` is always 0.
    """
    lat = _unit_lattice(s)
    box = _proven_box(lat)
    z, length, count = _shortest_in_box(lat, box)
    x = z @ lat["lift"]
    moved = al.conjugate(s.xi, s.g_vee.from_coords(x @ s.a_flat), 1.0)
    if np.abs(moved - s.xi).max() > 1e-8:
        raise LatticeError("the shortest lattice vector does not close")
    return {"systole": length, "direction": x / np.linalg.norm(x),
            "closing": z, "box": box, "lattice": lat,
            "skipped_irrational": 0, "tested": count}


def systole_scan_oracle(s: SpaceInstance, direction: np.ndarray,
                        t_max: float = 30.0, grid: int = 60000) -> float:
    """Brute-force first recurrence time of the orbit curve along a
    direction; independent of the frequency logic.

    The distance at time t is |r xi r^T - xi|_F with r = exp(t x), and the
    thresholds are relative to |xi|_F.  The grid is walked block by block
    and each block is searched for dips as soon as it is computed; a dip is
    refined by _zoom, and the scan stops at the first one that is a true
    recurrence.
    """
    x = s.g_vee.from_coords(np.asarray(direction, float) @ s.a_flat)
    xi_m = s.xi
    flow = al.skew_flow(x)  # one decomposition serves every t
    ts = np.linspace(0.0, t_max, grid + 1)[1:]
    # P^k for k = 1..block by doubling, with P one grid step, and the
    # conjugates M_k = P^k xi P^-k, made once
    block = min(grid, 1024)
    pows = flow(t_max / grid)[None]
    while len(pows) < block:
        pows = np.concatenate([pows, pows[-1] @ pows])
    pows = pows[:block]
    conj = pows @ xi_m @ pows.transpose(0, 2, 1)
    scale = np.linalg.norm(xi_m)

    def dist(t):
        r = flow(t)
        return np.linalg.norm(r @ xi_m @ r.swapaxes(-1, -2) - xi_m,
                              axis=(-2, -1))

    v = al.bracket(x, s.xi)
    speed = np.sqrt(np.sum(v * v) / c_model(s))

    base = np.eye(len(xi_m))  # B = P^start, orthogonal
    left = False  # the curve has left the departure basin around t = 0
    run = None  # first index of a dip still open at the end of the last block
    for start in range(0, grid, block):
        stop = min(start + block, grid)
        dists = _block_distances(conj[:stop - start], base, xi_m)
        base = base @ pows[stop - start - 1]
        off = 0
        if not left:
            risen = np.flatnonzero(dists > 0.1 * scale)
            if len(risen) == 0:
                continue
            left, off = True, int(risen[0])
        # +1 where a dip starts, -1 one past where it ends
        edge = np.diff((dists[off:] < 1e-2 * scale).astype(np.int8),
                       prepend=int(run is not None), append=0)
        starts = np.flatnonzero(edge > 0) + start + off
        ends = np.flatnonzero(edge < 0) + start + off - 1
        if run is not None:
            starts = np.r_[run, starts]
        run = None
        for i, j in zip(starts.tolist(), ends.tolist()):
            if j + 1 == stop and stop < grid:
                run = i  # the dip goes on into the next block
                break
            # a dip starts after the curve has risen, so i >= 1
            lo = ts[i - 1]
            hi = ts[j + 1] if j + 1 < grid else ts[j]
            t_star = _zoom(dist, lo, hi)
            if dist(t_star) < 1e-6 * scale:  # true recurrence, not a near miss
                return float(t_star * speed)
    return np.inf


def _block_distances(conj: np.ndarray, base: np.ndarray,
                     xi_m: np.ndarray) -> np.ndarray:
    """|B M_k B^T - xi|_F for every matrix M_k of the stack conj, with B
    orthogonal: it is |M_k - B^T xi B|_F, so one product pair serves the
    whole stack."""
    d = (conj - base.T @ xi_m @ base).reshape(len(conj), -1)
    return np.sqrt(np.einsum("ki,ki->k", d, d))


def _zoom(dist, lo: float, hi: float) -> float:
    """The time of least dist in [lo, hi], for dist evaluated on a stack of
    times.  Each round evaluates dist once on 33 times spanning the bracket
    and keeps the two intervals around the least value, shrinking it
    16-fold; 14 rounds go below the rounding of t."""
    for _ in range(14):
        ts = np.linspace(lo, hi, 33)
        k = int(np.argmin(dist(ts)))
        lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, 32)]
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# capacities of the unit sphere bundle


def capacities_U(s: SpaceInstance, sys_flat: float) -> float:
    """c_G = c_HZ of U_1 N by the rank dichotomy: the systole at rank
    ratio 2, twice the systole at ratio 1."""
    return float(sys_flat if rank_ratio(s) == 2 else 2.0 * sys_flat)


def chz_disc(s: SpaceInstance, sys_flat: float) -> tuple:
    """(c_HZ, case_tag) of the unit disc bundle, c_HZ "unknown" where no
    value is known.

    Simply connected rows use the systole; real projective spaces double
    it; real quadrics gain a sqrt(2) from the shortest contractible loop.
    Other fundamental groups are reported as unknown.
    """
    d = s.descriptor
    if d.table_pi1 == "trivial":
        return float(sys_flat), "disc_simply_connected"
    if d.id == "grassmann_real" and d.params[0] == 1:
        return float(2.0 * sys_flat), "disc_rp"
    if d.id == "quadric_real":
        return float(np.sqrt(2.0) * sys_flat), "disc_quadric"
    return "unknown", "disc_unknown"


def capacity_hermitian_ambient(s: SpaceInstance) -> tuple:
    """(c_G, c_HZ) of the ambient Hermitian orbit: the lowest step of its
    critical ladder, 4 pi, and its spread, 4 pi rank N_C, in closed form;
    verify holds them against the levels of W . xi (orbit.critical_ladder)."""
    return 4.0 * np.pi, 4.0 * np.pi * len(s.abar)


# ---------------------------------------------------------------------------
# capacity summary table and its renderers


def capacity_table(entries, seed: int = 0) -> list:
    """One row of headline numbers per entry; every entry is instantiable.

    The systoles are exact, so seed changes nothing; it is accepted so that
    callers passing a seed keep working.
    """
    rows = []
    for d in entries:
        s = atlas.instantiate(d)
        sd = systole_details(s)
        c_u = capacities_U(s, sd["systole"])
        rows.append({"space": d.label,
                     "sys": float(sd["systole"]),
                     "ratio": rank_ratio(s),
                     "c_G_U1": c_u,
                     "c_HZ_U1": c_u,
                     "c_HZ_D1": chz_disc(s, sd["systole"])[0]})
    return rows


def _pi_cells(r):
    """The row with its lengths and capacities in units of pi."""
    return {k: f"{v / np.pi:.6f}*pi" if isinstance(v, float) else v
            for k, v in r.items()}


def table_json(rows: list) -> str:
    return render(rows, "json")


def table_csv(rows: list) -> str:
    return render(rows, "csv", ["space", "sys", "ratio", "c_G_U1", "c_HZ_U1",
                                "c_HZ_D1"])


def table_text(rows: list) -> str:
    return render(rows, "text", line="{space:36} {sys:>14} {ratio:>5} "
                  "{c_G_U1:>14} {c_HZ_U1:>14} {c_HZ_D1:>14}",
                  labels={"c_G_U1": "c_G(U1)", "c_HZ_U1": "c_HZ(U1)",
                          "c_HZ_D1": "c_HZ(D1)"}, cells=_pi_cells)
