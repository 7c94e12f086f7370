"""Systoles, the capacity dichotomy, disc dispatch and the quadric spectrum."""

from pathlib import Path

import numpy as np
import pytest

from rspacelab import algebra as al
from rspacelab import atlas
from rspacelab import capacity as cap
from rspacelab import orbit as ob
from rspacelab import reporting as rep
from rspacelab import roots as rt

SQRT2PI = np.sqrt(2.0) * np.pi


def _sys(s):
    return cap.systole_details(s)["systole"]

PINS = [
    ("sphere", (2,), 2.0 * np.pi),
    ("sphere", (3,), 2.0 * np.pi),
    ("sphere", (4,), 2.0 * np.pi),
    ("quadric_real", (1, 2), SQRT2PI),
    ("quadric_real", (2, 2), SQRT2PI),
    ("grassmann_real", (1, 2), np.pi),
    ("unitary_group", (2,), 2.0 * np.pi),
    ("unitary_group", (3,), 2.0 * np.pi),
    ("grassmann_quaternionic", (1, 1), 2.0 * np.pi),
    ("symplectic_group", (1,), 2.0 * np.pi),
    # the rest of the instantiable catalogue
    ("grassmann_real", (1, 1), np.pi),
    ("grassmann_real", (2, 2), np.pi),
    ("orthogonal_group", (3,), np.sqrt(8.0 / 3.0) * np.pi),
    ("orthogonal_group", (5,), np.sqrt(8.0 / 5.0) * np.pi),
    ("unitary_mod_symplectic", (2,), SQRT2PI),
    ("symplectic_group", (2,), SQRT2PI),
    ("unitary_mod_orthogonal", (2,), SQRT2PI),
    ("unitary_mod_orthogonal", (3,), 2.0 / np.sqrt(3.0) * np.pi),
    ("grassmann_complex_hermitian", (1, 1), 2.0 * np.pi),
    ("grassmann_complex_hermitian", (1, 2), np.sqrt(3.0) * np.pi),
    ("orthogonal_mod_unitary_hermitian", (3,), np.sqrt(8.0 / 3.0) * np.pi),
    ("symplectic_mod_unitary_hermitian", (1,), 2.0 * np.pi),
    ("quadric_complex_hermitian", (2,), SQRT2PI),
]


@pytest.mark.parametrize("rid,params,want", PINS)
def test_pinned_systoles(rid, params, want):
    sys_flat = cap.systole_details(atlas.instance(rid, *params))["systole"]
    assert abs(sys_flat - want) <= 1e-9 * want


SCAN_ROWS = [("sphere", (2,)), ("quadric_real", (1, 2)),
             ("unitary_group", (2,)), ("grassmann_real", (1, 2))]


def _ternary(dist, lo, hi):
    """Ternary search for the least dist in [lo, hi]: 80 steps on the
    V-shaped dip, two scalar dist calls each."""
    for _ in range(80):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if dist(m1) < dist(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


def _product_scan(s, direction, t_max=30.0, grid=60000):
    """The period scan with three n x n products per grid point, r = B P^k
    and r xi r^T, and the max-abs distance, its thresholds relative to the
    largest entry of xi; the same blocks, dip search and zoom as the
    oracle."""
    x = s.g_vee.from_coords(np.asarray(direction, float) @ s.a_flat)
    xi_m = s.xi
    flow = al.skew_flow(x)
    ts = np.linspace(0.0, t_max, grid + 1)[1:]
    block = min(grid, 1024)
    pows = flow(t_max / grid)[None]
    while len(pows) < block:
        pows = np.concatenate([pows, pows[-1] @ pows])
    pows = pows[:block]
    scale = np.abs(xi_m).max()

    def dist(t):
        r = flow(t)
        return np.abs(r @ xi_m @ r.swapaxes(-1, -2) - xi_m).max(axis=(-2, -1))

    v = al.bracket(x, s.xi)
    speed = np.sqrt(np.sum(v * v) / cap.c_model(s))
    base = np.eye(len(xi_m))
    left, run = False, None
    for start in range(0, grid, block):
        r = base @ pows[:grid - start]
        moved = r @ xi_m @ r.transpose(0, 2, 1)
        dists = np.abs(moved - xi_m).max(axis=(1, 2))
        base, stop = r[-1], start + len(r)
        off = 0
        if not left:
            risen = np.flatnonzero(dists > 0.1 * scale)
            if len(risen) == 0:
                continue
            left, off = True, int(risen[0])
        edge = np.diff((dists[off:] < 1e-2 * scale).astype(np.int8),
                       prepend=int(run is not None), append=0)
        starts = np.flatnonzero(edge > 0) + start + off
        ends = np.flatnonzero(edge < 0) + start + off - 1
        if run is not None:
            starts = np.r_[run, starts]
        run = None
        for i, j in zip(starts.tolist(), ends.tolist()):
            if j + 1 == stop and stop < grid:
                run = i
                break
            lo = ts[i - 1]
            hi = ts[j + 1] if j + 1 < grid else ts[j]
            t_star = cap._zoom(dist, lo, hi)
            if dist(t_star) < 1e-6 * scale:
                return float(t_star * speed)
    return np.inf


@pytest.mark.parametrize("rid,params", SCAN_ROWS)
def test_scan_oracle_zoom_agrees_with_a_ternary_search(rid, params,
                                                       monkeypatch):
    s = atlas.instance(rid, *params)
    d = cap.systole_details(s)
    zoomed = cap.systole_scan_oracle(s, d["direction"])
    calls = []

    def counted(dist, lo, hi):
        calls.append((lo, hi))
        return _ternary(dist, lo, hi)

    monkeypatch.setattr(cap, "_zoom", counted)
    ternary = cap.systole_scan_oracle(s, d["direction"])
    assert len(calls) == 1  # the one dip that recurs was refined
    assert abs(zoomed - ternary) <= 1e-12 * d["systole"]


@pytest.mark.parametrize("rid,params", SCAN_ROWS)
def test_scan_oracle_agrees_with_frequency_systole(rid, params):
    s = atlas.instance(rid, *params)
    d = cap.systole_details(s)
    scan = cap.systole_scan_oracle(s, np.asarray(d["direction"]))
    assert abs(scan - d["systole"]) < 1e-6 * d["systole"]
    # the ternary refinement lands on the recurrence to rounding
    assert abs(scan - d["systole"]) <= 1e-12 * d["systole"]


def test_scan_oracle_walks_the_whole_grid_when_nothing_recurs():
    # an irrational slope on the torus of quadric_real(1,2) never closes
    q = atlas.instance("quadric_real", 1, 2)
    irrational = np.array([1.0, np.sqrt(2.0)]) / np.sqrt(3.0)
    assert cap.systole_scan_oracle(q, irrational) == np.inf
    assert _product_scan(q, irrational) == np.inf
    # the sphere closes at t = 2 pi sqrt 2, past a window of 5
    s = atlas.instance("sphere", 2)
    d = cap.systole_details(s)
    assert cap.systole_scan_oracle(s, d["direction"], t_max=5.0) == np.inf
    assert _product_scan(s, d["direction"], t_max=5.0) == np.inf


# the grid points on either side of the edge between blocks 16 and 17 of
# 1024 points both lie in the dip that the oracle sees, its Frobenius
# distance below 1e-2 |xi|_F at t ~ 8.8716-8.8999, which bottoms out at
# t ~ 8.8858: after the edge (t ~ 8.8781-8.8786) for 30.6, before it
# (~ 8.8955-8.8960) for 30.66
@pytest.mark.parametrize("t_max", [30.6, 30.66])
def test_scan_oracle_follows_a_dip_across_a_block_edge(t_max):
    s = atlas.instance("sphere", 2)
    d = cap.systole_details(s)
    grid, edge = 60000, 17 * 1024
    ts = np.linspace(0.0, t_max, grid + 1)[1:]
    flow = al.skew_flow(s.g_vee.from_coords(d["direction"] @ s.a_flat))
    xi = s.xi
    for t in ts[edge - 1:edge + 1]:
        r = flow(t)
        assert np.linalg.norm(r @ xi @ r.T - xi) < 1e-2 * np.linalg.norm(xi)
    scan = cap.systole_scan_oracle(s, d["direction"], t_max=t_max, grid=grid)
    assert abs(scan - d["systole"]) <= 1e-12 * d["systole"]


def test_scan_oracle_finds_a_late_recurrence():
    # slope 1/2 first closes as the plain winding (2, 1), of length
    # 2 pi sqrt 5, past the midpoint of the grid
    q = atlas.instance("quadric_real", 1, 2)
    u = np.array([1.0, 0.5]) / np.hypot(1.0, 0.5)
    want = 2.0 * np.pi * np.sqrt(5.0)
    scan = cap.systole_scan_oracle(q, u)
    assert abs(scan - want) <= 1e-12 * want
    assert abs(scan - _product_scan(q, u)) <= 1e-12 * want


_CATALOGUE = [(rid, params) for rid, params, _ in PINS]


@pytest.mark.parametrize("rid,params", _CATALOGUE)
def test_scan_oracle_matches_the_product_scan(rid, params):
    s = atlas.instance(rid, *params)
    u = cap.systole_details(s)["direction"]
    want = _product_scan(s, u)
    assert abs(cap.systole_scan_oracle(s, u) - want) <= 1e-12 * want


@pytest.mark.parametrize("rid,params", [("sphere", (2,)),
                                        ("quadric_real", (1, 2)),
                                        ("orthogonal_group", (5,))])
def test_block_distances_are_the_conjugation_distances(rid, params,
                                                       monkeypatch):
    # |M_k - B^T xi B|_F is |B M_k B^T - xi|_F with products, on the first
    # two blocks: B = 1, then B = P^1024
    s = atlas.instance(rid, *params)
    calls = []
    block_distances = cap._block_distances

    def record(conj, base, xi_m):
        calls.append((conj, base, block_distances(conj, base, xi_m)))
        return calls[-1][2]

    monkeypatch.setattr(cap, "_block_distances", record)
    cap.systole_scan_oracle(s, cap.systole_details(s)["direction"])
    assert len(calls) >= 2
    xi = s.xi
    for conj, base, dists in calls[:2]:
        assert len(conj) == 1024
        want = np.linalg.norm(base @ conj @ base.T - xi, axis=(1, 2))
        assert np.abs(dists - want).max() <= 1e-13 * np.linalg.norm(xi)
    assert np.array_equal(calls[0][1], np.eye(len(xi)))


def test_systole_pins_cover_the_catalogue():
    rows = {(d.id, d.params) for d in atlas.list_entries() if d.instantiable}
    assert rows == {(rid, params) for rid, params, _ in PINS}


@pytest.mark.parametrize("rid,params,want", PINS)
def test_proven_box_agrees_with_a_wider_search(rid, params, want):
    d = cap.systole_details(atlas.instance(rid, *params))
    lat, box = d["lattice"], np.asarray(d["box"])
    z, length, count = cap._shortest_in_box(lat, box + 3)
    assert count > d["tested"]
    assert abs(length - d["systole"]) <= 1e-12 * d["systole"]


def test_unit_lattice_on_orthogonal_group():
    s = atlas.instance("orthogonal_group", 5)
    d = cap.systole_details(s)
    lat = d["lattice"]
    ws = cap._active_weights(s)
    basis = lat["weights"]
    # a basis of active weights that spans every active weight with
    # integer coefficients
    assert basis.shape == (2, 2)
    assert all(np.abs(ws - b).max(axis=1).min() < 1e-12 for b in basis)
    assert np.linalg.matrix_rank(ws, tol=1e-8) == 2
    coeffs = ws @ np.linalg.pinv(basis)
    assert np.abs(coeffs - np.rint(coeffs)).max() < 1e-9
    # so every z in Z^2 closes
    for z in [(1, 0), (0, 1), (1, 1), (2, -1), (-3, 2)]:
        x = s.g_vee.from_coords(np.array(z) @ lat["lift"] @ s.a_flat)
        assert np.abs(al.conjugate(s.xi, x, 1.0) - s.xi).max() < 1e-9
    # the box holds every z no longer than the shortest e_j
    radius = np.sqrt(np.diag(lat["gram"]).min())
    reach = radius * np.sqrt(np.diag(np.linalg.inv(lat["gram"])))
    box = np.asarray(d["box"])
    assert np.all(reach < box + 1)
    assert d["tested"] == np.prod(2 * box + 1) - 1
    assert d["skipped_irrational"] == 0
    z = np.asarray(d["closing"])
    assert abs(np.sqrt(z @ lat["gram"] @ z) - d["systole"]) < 1e-12
    scan = cap.systole_scan_oracle(s, d["direction"])
    assert abs(scan - d["systole"]) < 1e-6 * d["systole"]


def test_half_integer_weight_is_off_the_lattice(monkeypatch):
    # D4-type weights e_i +- e_j, listed so that the shortest-first basis
    # is {e1 - e2, e1 + e2, e3 - e4, e3 + e4}; then e2 - e3 has the
    # coefficients (-1/2, 1/2, -1/2, -1/2) and no integer lattice holds it
    s = atlas.instance("unitary_group", 4)
    assert s.a_flat.shape[0] == 4
    e = np.eye(4)
    ws = np.array([e[0] - e[1], e[0] + e[1], e[2] - e[3], e[2] + e[3],
                   e[1] - e[2], e[1] + e[2], e[0] - e[2], e[0] + e[2],
                   e[1] - e[3], e[1] + e[3], e[0] - e[3], e[0] + e[3]])
    monkeypatch.setattr(cap, "_active_weights", lambda _s: ws)
    with pytest.raises(cap.LatticeError, match="integer span"):
        cap._unit_lattice(s)


def _active_weights_by_ad(s):
    """The active weights read off ad on all of g: the joint frequencies of
    ad of the flat whose eigenvectors overlap the coordinates of xi."""
    g = s.g_vee
    alphas, vecs = rt._joint_eigen(al.ad_from_coords(g, s.a_flat))
    xc = g.coords(s.xi)
    overlap = np.abs(np.conj(vecs.T) @ xc) ** 2 > 1e-12 * (xc @ xc)
    return alphas[overlap & (np.linalg.norm(alphas, axis=1) > 1e-9)]


def _rows_within(a, b, tol):
    """Every row of a lies within tol of a row of b, in the max norm."""
    return np.abs(a[:, None] - b[None]).max(axis=2).min(axis=1).max() <= tol


@pytest.mark.parametrize("rid,params", sorted(atlas._DEFAULT_SWEEP) + [
    ("sphere", (22,)), ("unitary_group", (6,)),
    ("quadric_complex_hermitian", (22,))])
def test_active_weights_are_those_of_ad(rid, params):
    # the weights lambda_r - lambda_s on the nonzero entries of xi in the
    # joint eigenbasis of the n x n flat are the ad frequencies on xi
    s = atlas.instance(rid, *params)
    ws, ref = cap._active_weights(s), _active_weights_by_ad(s)
    assert len(ws) and len(ref)
    assert _rows_within(ws, ref, 1e-9) and _rows_within(ref, ws, 1e-9)


def test_capacity_table_solves_no_complex_eigenproblem_past_n(monkeypatch):
    # the closure condition exp(X) xi exp(-X) = xi is read on the n x n
    # matrices, so no complex eigh or eigvalsh is larger than n, and the
    # capacity module forms no ad matrix
    sizes = []
    for name in ("eigh", "eigvalsh"):
        def recorded(a, *args, _solve=getattr(np.linalg, name), **kw):
            if np.iscomplexobj(a):
                sizes.append(np.shape(a)[-1])
            return _solve(a, *args, **kw)
        monkeypatch.setattr(np.linalg, name, recorded)
    for d in atlas.list_entries():
        if d.instantiable:
            sizes.clear()
            cap.capacity_table([d])
            n = atlas.instance(d.id, *d.params).g_vee.size
            assert sizes and max(sizes) <= n, (d.label, max(sizes), n)
    text = Path(cap.__file__).read_text()
    assert "ad_operator" not in text and "ad_from_coords" not in text


def test_bc_row_keeps_alpha_beside_two_alpha(monkeypatch):
    s = atlas.instance("grassmann_complex_hermitian", 1, 2)
    covs = ob.structure(s).sigma_roots.covectors
    assert any(np.allclose(b, 2 * a) for a in covs for b in covs)
    d = cap.systole_details(s)
    scan = cap.systole_scan_oracle(s, d["direction"])
    assert abs(scan - d["systole"]) < 1e-6 * d["systole"]
    # xi carries alpha alone; with 2 alpha listed ahead of it the lattice
    # must not change, while 2 alpha alone gives a vector that does not close
    alpha = cap._active_weights(s)
    monkeypatch.setattr(cap, "_active_weights",
                        lambda _s: np.vstack([2 * alpha, alpha]))
    assert abs(cap.systole_details(s)["systole"] - d["systole"]) < 1e-12
    monkeypatch.setattr(cap, "_active_weights", lambda _s: 2 * alpha)
    with pytest.raises(cap.LatticeError):
        cap.systole_details(s)


def test_flat_metric_scale_per_family():
    # over the trace form: 4 on real Grassmannians, 1 on U(n), and the
    # squared length of xi, 2 on sphere(2), elsewhere
    assert cap.c_model(atlas.instance("grassmann_real", 1, 2)) == 4.0
    assert cap.c_model(atlas.instance("unitary_group", 2)) == 1.0
    sph = atlas.instance("sphere", 2)
    assert abs(cap.c_model(sph) - 2.0) < 1e-12
    assert abs(cap.c_model(sph) - np.linalg.norm(sph.xi) ** 2) < 1e-12


@pytest.mark.parametrize("rid,params", [
    ("sphere", (2,)), ("sphere", (3,)), ("quadric_real", (1, 2)),
    ("quadric_real", (2, 2)), ("grassmann_real", (1, 2)),
    ("unitary_group", (2,)), ("grassmann_quaternionic", (1, 1)),
    ("grassmann_complex_hermitian", (1, 1)),
])
def test_capacity_dichotomy(rid, params):
    s = atlas.instance(rid, *params)
    c = cap.capacities_U(s, _sys(s))
    ratio = atlas.rank_ratio(s)
    assert abs(ratio * cap.capacities_U(s, 2.0 * np.pi) - 4.0 * np.pi) < 1e-9
    row, = cap.capacity_table([s.descriptor])
    assert row["c_G_U1"] == row["c_HZ_U1"] == c
    want = _sys(s) * (2.0 if ratio == 1 else 1.0)
    assert abs(c - want) < 1e-6 * want
    assert row["ratio"] == ratio


@pytest.mark.parametrize("rid,params,tag,factor", [
    ("sphere", (2,), "disc_simply_connected", 1.0),
    ("sphere", (3,), "disc_simply_connected", 1.0),
    ("grassmann_real", (1, 2), "disc_rp", 2.0),
    ("quadric_real", (1, 2), "disc_quadric", np.sqrt(2.0)),
    ("quadric_real", (2, 2), "disc_quadric", np.sqrt(2.0)),
])
def test_disc_capacity_dispatch(rid, params, tag, factor):
    s = atlas.instance(rid, *params)
    c_hz, case_tag = cap.chz_disc(s, _sys(s))
    assert case_tag == tag
    assert abs(c_hz - factor * _sys(s)) < 1e-9


def test_disc_capacity_unknown_cases():
    for rid, params in [("unitary_group", (2,)), ("grassmann_real", (2, 2))]:
        s = atlas.instance(rid, *params)
        c_hz, case_tag = cap.chz_disc(s, _sys(s))
        assert case_tag == "disc_unknown"
        assert c_hz == "unknown"


def test_hermitian_ambient_capacities():
    s = atlas.instance("grassmann_complex_hermitian", 1, 1)
    c_g, c_hz = cap.capacity_hermitian_ambient(s)
    assert abs(c_g - 4.0 * np.pi) < 1e-9
    assert abs(c_hz - 8.0 * np.pi) < 1e-9
    # and the descent ladder agrees with the formulas
    descent = ob.critical_gap_report(s, restarts=50, seed=0)
    assert abs(descent["max_gap"] - c_hz) < 1e-3 * c_hz
    assert abs(descent["smin_gap"] - c_g) < 1e-3 * c_g


# the 14 small Hermitian pairs the closed form is held against
_HERMITIAN_PAIRS = (
    [("grassmann_complex_hermitian", pq)
     for pq in ((1, 1), (1, 2), (1, 3), (2, 2))]
    + [("orthogonal_mod_unitary_hermitian", (n,)) for n in (2, 3, 4)]
    + [("symplectic_mod_unitary_hermitian", (n,)) for n in (1, 2, 3, 4)]
    + [("quadric_complex_hermitian", (n,)) for n in (2, 3, 4)])


@pytest.mark.parametrize("rid,params", _HERMITIAN_PAIRS, ids=[
    f"{rid}({','.join(map(str, p))})" for rid, p in _HERMITIAN_PAIRS])
def test_ambient_closed_form_is_the_weyl_enumeration(rid, params):
    s = atlas.instance(rid, *params)
    vals = ob.weyl_critical_values(s)
    want = [vals[1] - vals[0], vals[-1] - vals[0]]
    got = cap.capacity_hermitian_ambient(s)
    assert all(abs(c - w) <= 1e-12 * w for c, w in zip(got, want))


def _ambient_checks(rows):
    return [c for c in rep.suite_capacity(rows, 0, rep.DEFAULT_TOL)
            if c["id"].startswith("capacity.ambient[")]


def test_ambient_gate_fails_on_a_scaled_spread(monkeypatch):
    rows = [("grassmann_complex_hermitian", (1, 1))]
    assert [c["status"] for c in _ambient_checks(rows)] == ["pass"]
    closed = cap.capacity_hermitian_ambient
    monkeypatch.setattr(cap, "capacity_hermitian_ambient", lambda s: (
        closed(s)[0], closed(s)[1] * (1.0 + 2e-3)))
    assert [c["status"] for c in _ambient_checks(rows)] == ["fail"]


def test_ambient_gate_fails_against_a_shifted_oracle(monkeypatch):
    rows = [("grassmann_complex_hermitian", (1, 1))]
    good = _ambient_checks(rows)
    assert [c["status"] for c in good] == ["pass"]
    assert np.allclose(good[0]["expected"], [4.0 * np.pi, 8.0 * np.pi],
                       rtol=0, atol=1e-12)
    weyl = ob.weyl_critical_values
    monkeypatch.setattr(ob, "weyl_critical_values", lambda s: [
        v + 0.05 * 4.0 * np.pi * j for j, v in enumerate(weyl(s))])
    bad = _ambient_checks(rows)
    assert [c["status"] for c in bad] == ["fail"]
    assert bad[0]["computed"] == good[0]["computed"]


def quadric_geodesic_spectrum(p, q, max_length=20.0):
    """Closed geodesics of S^p x S^q / Z2 built from unit product factors,
    as sorted (length, contractible, description) triples.

    Plain closures wind integers (m, n) around the factors with length
    2 pi sqrt(m^2 + n^2); the antipodal deck map closes half-windings with
    both factors odd, at pi sqrt((2j+1)^2 + (2k+1)^2), never contractible.
    """
    assert 1 <= p <= q
    entries = []
    bound = int(np.ceil(max_length / np.pi)) + 2
    for m in range(bound):
        for n in range(bound):
            if m == 0 and n == 0:
                continue
            length = 2.0 * np.pi * np.hypot(m, n)
            if length > max_length:
                continue
            # factor circles on a sphere of dimension >= 2 contract
            contractible = not (p == 1 and m > 0)
            entries.append((float(length), bool(contractible),
                            f"plain winding (m, n) = ({m}, {n})"))
    for j in range(bound):
        for k in range(bound):
            length = np.pi * np.hypot(2 * j + 1, 2 * k + 1)
            if length > max_length:
                continue
            entries.append((float(length), False,
                            f"deck winding (2j+1, 2k+1) = ({2*j+1}, {2*k+1})"))
    return sorted(entries)


def disc_contains(v, r):
    """Strict disc bundle test |v| < r in the orbit metric, for the
    tangent vector v, a matrix."""
    nrm2 = ob.inner(v, v)
    return bool(np.sqrt(max(nrm2, 0.0)) < r)


def test_quadric_spectrum_shortest_entries():
    spec = quadric_geodesic_spectrum(1, 2, max_length=10.0)
    first = spec[0]
    assert abs(first[0] - SQRT2PI) < 1e-12
    assert first[1] is False and first[2].startswith("deck winding")
    shortest_contractible = min(e[0] for e in spec if e[1])
    assert abs(shortest_contractible - 2.0 * np.pi) < 1e-12
    # lengths are sorted and the deck entries are never contractible
    lens = [e[0] for e in spec]
    assert lens == sorted(lens)
    assert all(not e[1] for e in spec if e[2].startswith("deck"))


def test_split_quadric_spectrum_keeps_factor_loops():
    spec = quadric_geodesic_spectrum(2, 2, max_length=10.0)
    assert abs(spec[0][0] - SQRT2PI) < 1e-12
    assert spec[0][1] is False
    # on S^2 x S^2 a single-factor loop contracts
    plain = [e for e in spec if e[2].startswith("plain")]
    assert plain[0][1] is True and abs(plain[0][0] - 2.0 * np.pi) < 1e-12


def test_disc_membership_is_strict():
    s = atlas.instance("sphere", 2)
    g = s.g_vee
    k, _ = s.sigma_decomp
    v = al.bracket(s.xi, g.from_coords(k[0]))  # a tangent at xi
    nrm = np.sqrt(ob.inner(v, v))
    assert disc_contains(v, nrm * 1.0001)
    assert not disc_contains(v, nrm)  # the boundary is excluded
