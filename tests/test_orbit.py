"""Orbit geometry: points, the two-form, momentum, cut shells, descent."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspacelab import algebra as al
from rspacelab import atlas
from rspacelab import orbit as ob
from rspacelab import reporting as rep
from rspacelab.reporting import _STRUCTURAL_SPACES
from rspacelab.verify_options import DEFAULT_TOL

_S2 = [atlas.instantiate(atlas.descriptor("sphere", 2))]


def test_structure_is_cached_per_instance():
    s = atlas.instance("sphere", 2)
    assert ob.structure(s) is ob.structure(s)
    fresh = atlas.instantiate(atlas.descriptor("sphere", 2))
    assert ob.structure(fresh) is not ob.structure(s)
    assert fresh.abar.dim == s.abar.dim


def test_structure_builds_no_second_algebra(monkeypatch):
    # ad on k is the ambient ad compressed to the k rows; no subalgebra
    s = atlas.instantiate(atlas.descriptor("grassmann_complex_hermitian", 1, 2))
    calls = []
    build = al._structure_data

    def counted(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(al, "_structure_data", counted)
    st_ = ob.structure(s)
    assert calls == []
    assert not any(isinstance(v, al.LieAlgebraBasis) for v in vars(st_).values())
    k = len(s.k_basis)
    assert st_.flat_ad_k.shape == (s.a_flat.dim, k, k)


def test_structure_suites_pass_on_every_catalogue_row():
    # the roots, orbit and Finsler suites read ad on k through structure
    tol = dict(DEFAULT_TOL)
    rows = atlas._DEFAULT_SWEEP
    checks = (rep.suite_roots(rows, 1, tol) + rep.suite_orbit(rows, 2, tol)
              + rep.suite_finsler(rows, 3, tol))
    assert [c["id"] for c in checks if c["status"] != "pass"] == []
    counted = {c["id"] for c in checks if c["id"].startswith("roots.count")}
    assert len(counted) == len(rows) == 23


def test_calibration_hand_values():
    # scale c with metric -B/c, set by the cascade sl2 of the ambient orbit
    for rid, params, c in [("grassmann_real", (1, 1), 2.0),
                           ("grassmann_complex_hermitian", (1, 1), 2.0),
                           ("sphere", (2,), 2.0),
                           ("sphere", (3,), 3.0),
                           ("grassmann_real", (1, 2), 3.0)]:
        assert abs(ob.structure(atlas.instance(rid, *params)).c_orbit
                   - c) < 1e-9


def test_transport_stays_on_the_orbit():
    s = atlas.instance("quadric_real", 1, 2)
    pt = ob.random_orbit_point(s, 4)
    assert ob.certificate_residual(pt) < 1e-9
    again = ob.transport(pt, s.g_vee.random_element(np.random.default_rng(5)))
    assert ob.certificate_residual(again) < 1e-9


def test_tangent_frame_is_metric_orthonormal():
    s = atlas.instance("sphere", 2)
    x = ob.random_orbit_point(s, 8)
    frame = ob.tangent_frame(x)
    gram = frame @ ob.structure(s).metric @ frame.T
    assert np.abs(gram - np.eye(len(frame))).max() < 1e-8


def test_complex_structure_squares_to_minus_one():
    for rid, params in [("sphere", (2,)), ("unitary_group", (2,)),
                        ("grassmann_real", (1, 2))]:
        x = ob.random_orbit_point(atlas.instance(rid, *params), 11)
        assert ob.complex_structure_check(x) < 1e-7


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_two_form_is_antisymmetric_and_bilinear(seed):
    s = _S2[0]
    g = s.g_vee
    rng = np.random.default_rng(seed)
    x = ob.random_orbit_point(s, seed % 97)
    a, b = (g.from_coords(rng.normal(size=g.dim)) for _ in range(2))
    v, w = ob.make_tangent(x, a), ob.make_tangent(x, b)
    assert abs(ob.kks(x, v, w) + ob.kks(x, w, v)) < 1e-9
    c = float(rng.normal())
    vc = ob.make_tangent(x, g.from_coords(c * g.coords(a)))
    assert abs(ob.kks(x, vc, w) - c * ob.kks(x, v, w)) < 1e-7


def test_two_form_rejects_foreign_tangents():
    s = atlas.instance("sphere", 2)
    x = ob.random_orbit_point(s, 1)
    y = ob.random_orbit_point(s, 2)
    v = ob.make_tangent(y, s.xi)
    with pytest.raises(ob.BaseMismatch):
        ob.kks(x, v, v)


def test_hamiltonian_field_is_the_circle_action():
    # dH(w) = -2 pi omega(V, w) with V the xi rotation generator as built
    # by make_tangent; the action field itself is -V
    s = atlas.instance("sphere", 2)
    x = ob.random_orbit_point(s, 9)
    g = s.g_vee
    rng = np.random.default_rng(1)
    b = g.from_coords(rng.normal(size=g.dim))
    w = ob.make_tangent(x, b)
    h = 1e-6
    d_h = (ob.hamiltonian(ob.transport(x, b, h))
           - ob.hamiltonian(ob.transport(x, b, -h))) / (2 * h)
    v = ob.make_tangent(x, s.xi)
    assert abs(d_h + 2.0 * np.pi * ob.kks(x, v, w)) < 1e-5


def test_flow_closes_with_period_one():
    s = atlas.instance("unitary_group", 2)
    pt = ob.random_orbit_point(s, 3)
    assert ob.flow_closure_residual(s, pt) < 1e-9


def test_height_minimum_at_the_base_point():
    s = _S2[0]
    cp1 = atlas.instantiate(atlas.descriptor("grassmann_real", 1, 1))
    h0 = ob.hamiltonian(ob.base_point(cp1))
    assert abs(h0 + 2.0 * np.pi) < 1e-9
    pts = ob.random_orbit_points(cp1, [10_000 + i for i in range(10_000)])
    vals = [ob.hamiltonian(x) for x in pts]
    assert min(vals) >= h0 - 1e-9
    # the full spread of the projective line is one step of the ladder
    assert max(vals) <= h0 + 4.0 * np.pi + 1e-9


def test_momentum_requires_the_real_form():
    s = atlas.instance("sphere", 2)
    x = ob.base_point(s)
    k_gen = s.g_vee.from_coords(s.k_basis[0])
    v = ob.make_tangent(x, k_gen)
    mu = ob.moment_tn(x, v)
    muc = s.g_vee.coords(mu)
    assert np.linalg.norm(muc - al.project_onto(s.k_basis, muc)) < 1e-8
    off = ob.random_orbit_point(s, 12)  # generic point leaves the real form
    with pytest.raises(ob.NotOnRealForm):
        ob.moment_tn(off, ob.make_tangent(off, k_gen))


def test_orbit_momentum_is_equivariant():
    s = atlas.instance("quadric_real", 1, 2)
    g = s.g_vee
    x = ob.random_orbit_point(s, 6)
    eta = g.from_coords(al.project_onto(s.k_basis,
                                        np.random.default_rng(7).normal(
                                            size=g.dim)))
    lhs = ob.moment_nc(ob.transport(x, eta, 0.7))
    rhs = al.conjugate(ob.moment_nc(x), eta, 0.7)
    assert np.abs(lhs.entries - rhs.entries).max() < 1e-9


def test_one_form_pairs_with_horizontal_parts():
    s = atlas.instance("sphere", 2)
    x = ob.base_point(s)
    g = s.g_vee
    k_gen = g.from_coords(s.k_basis[0])
    v = ob.make_tangent(x, k_gen)   # sigma-odd (horizontal) at the base
    lam = ob.canonical_one_form(x, v, v)
    want = g.coords(v.vector) @ ob.structure(s).metric @ g.coords(v.vector)
    assert abs(lam - want) < 1e-9
    # sigma-even test directions pair to zero
    p_gen = g.from_coords(s.p_vee_basis[0])
    w = ob.make_tangent(x, p_gen)
    wc = g.coords(w.vector)
    if np.linalg.norm(wc - s.sigma.apply_coords(wc)) < 1e-9:
        assert abs(ob.canonical_one_form(x, v, w)) < 1e-9


def test_flat_model_contract():
    s = atlas.instance("sphere", 2)
    fp = ob.flat_model(s, np.zeros(s.abar.dim))
    assert np.abs(fp.point.value.entries - s.xi.entries).max() < 1e-12
    v = 0.3 * np.ones(s.abar.dim)
    fp = ob.flat_model(s, v)
    gen = al.bracket(s.xi, s.abar.lift(v))
    want = al.conjugate(s.xi, gen, 1.0)
    assert np.abs(fp.point.value.entries - want.entries).max() < 1e-10


def test_shell_predicate_basics():
    s = atlas.instance("grassmann_real", 1, 1)
    st_ = ob.structure(s)
    beta = st_.sigma_bar_roots.roots[0].covector
    on = ob.flat_model(s, (np.pi / 2.0) * beta / (beta @ beta))
    assert ob.delta_contains(on)
    off = ob.flat_model(s, (np.pi / 4.0) * beta / (beta @ beta))
    assert not ob.delta_contains(off)
    # the shell recurs with period pi along the root
    again = ob.flat_model(s, (3 * np.pi / 2.0) * beta / (beta @ beta))
    assert ob.delta_contains(again)


@pytest.mark.parametrize("model", ["cp1", "cp1xcp1"])
def test_cut_locus_oracle(model):
    rid, params = ob.CUT_MODEL_ROWS[model]
    r = ob.cut_locus_oracle_check(model, atlas.instance(rid, *params), samples=400,
                                  seed=5)
    assert r["mismatches"] == 0
    assert r["tested"] >= 300


@pytest.mark.parametrize("rid,params", [("sphere", (2,)),
                                        ("quadric_real", (1, 2)),
                                        ("unitary_group", (2,)),
                                        ("grassmann_real", (1, 2))])
def test_moment_image_membership(rid, params):
    r = ob.moment_image_spectrum_check(atlas.instance(rid, *params), samples=300,
                                       seed=17)
    assert r["interior_pass"] == r["interior_total"]
    assert r["exterior_pass"] == r["exterior_total"]
    assert r["max_spectral_mismatch"] < 1e-9


def test_projective_line_has_two_critical_clusters():
    cp1 = atlas.instantiate(atlas.descriptor("grassmann_real", 1, 1))
    clusters = ob.find_critical_points(cp1, restarts=30, seed=0)
    assert len(clusters) == 2
    lo, hi = clusters
    assert abs(hi.value - lo.value - 4.0 * np.pi) < 1e-6
    assert lo.hessian_index == 0 and hi.hessian_index == 2
    assert lo.population + hi.population == 30


def test_gap_report_matches_the_reflection_ladder():
    s = atlas.instance("sphere", 2)
    rep = ob.critical_gap_report(s, restarts=30, seed=1)
    ladder = ob.weyl_critical_values(s)
    assert np.allclose(rep["values"], ladder, atol=1e-6)
    assert abs(rep["max_gap"] - 8.0 * np.pi) < 1e-4
    assert abs(rep["smin_gap"] - 4.0 * np.pi) < 1e-4
    assert all(i % 2 == 0 for i in rep["indices"])


def test_reflection_ladder_hand_values():
    cp1 = atlas.instance("grassmann_real", 1, 1)
    assert np.allclose(ob.weyl_critical_values(cp1),
                       [-2.0 * np.pi, 2.0 * np.pi])
    s2 = atlas.instance("sphere", 2)
    assert np.allclose(ob.weyl_critical_values(s2),
                       [-4.0 * np.pi, 0.0, 4.0 * np.pi], atol=1e-9)


def test_random_orbit_points_reach_every_level():
    # a Haar-uniform point of CP1 x CP1 flows to the top level with
    # probability 1/4; a draw that stays near xi rarely gets there
    s = atlas.instance("grassmann_complex_hermitian", 1, 1)
    top = ob.weyl_critical_values(s)[-1]
    ends = ob._descend(s, ob.random_orbit_points(s, range(300)))
    share = np.mean([abs(ob.hamiltonian(e) - top) < 1e-3 for e in ends])
    assert share >= 0.18


@pytest.mark.parametrize("rid,params", [("grassmann_real", (1, 1)),
                                        ("grassmann_complex_hermitian", (1, 1)),
                                        ("unitary_group", (2,))])
def test_stacked_descent_matches_one_restart_at_a_time(rid, params):
    # restarts move in lockstep, but each keeps its own step size and
    # stopping rules, so a stack ends where its restarts end alone
    s = atlas.instance(rid, *params)
    pts = [ob.base_point(s)] + ob.random_orbit_points(
        s, np.random.SeedSequence(4).spawn(11))
    ends = ob._descend(s, pts)
    assert len(ends) == len(pts)
    for pt, end in zip(pts, ends):
        alone = ob._descend(s, [pt])[0]
        assert _rel(end.value.entries, alone.value.entries) <= 1e-12
        assert ob.riemannian_gradient_norm(end) <= 1e-7


def test_one_restart_over_max_iter_fails_the_stack():
    s = atlas.instance("grassmann_complex_hermitian", 1, 1)
    base = ob.base_point(s)  # critical already: never iterates
    assert len(ob._descend(s, [base, base], max_iter=0)) == 2
    with pytest.raises(ob.NonConvergence):
        ob._descend(s, [base, ob.random_orbit_point(s, 3), base], max_iter=2)


_CATALOGUE = [(d.id, d.params) for d in atlas.list_entries() if d.instantiable]


def _even_ladder(s):
    h0 = ob.hamiltonian(ob.base_point(s))
    return h0 + 4.0 * np.pi * np.arange(s.abar.dim + 1)


@pytest.mark.parametrize("rid,params", _CATALOGUE)
def test_reflection_ladder_is_the_even_ladder(rid, params):
    # H(xi) is the bottom level and the levels step by 4 pi, rank_nc times;
    # the closed-form ladder is the enumerated one
    s = atlas.instance(rid, *params)
    ladder = ob.weyl_critical_values(s)
    assert len(ladder) == s.abar.dim + 1
    assert np.allclose(ladder, _even_ladder(s), rtol=0, atol=1e-9)
    closed = [v for v, _ in ob.critical_ladder(s)]
    assert len(closed) == len(ladder)
    assert np.allclose(closed, ladder, rtol=0, atol=1e-9)


def test_reflection_ladder_on_a_large_orbit():
    # 252 torus points and 90 roots: a pairwise dedup is quadratic here
    s = atlas.instantiate(atlas.descriptor("unitary_group", 5))
    ladder = ob.weyl_critical_values(s)
    assert np.allclose(ladder, _even_ladder(s), rtol=0, atol=1e-9)
    closed = [v for v, _ in ob.critical_ladder(s)]
    assert len(closed) == len(ladder)
    assert np.allclose(closed, ladder, rtol=0, atol=1e-9)


def _chi_quadric(m):
    """Euler characteristic of the complex quadric Q_m."""
    return m + 2 if m % 2 == 0 else m + 1


# chi(N_C) per row: the torus-fixed points of the orbit are W . xi, so
# their number is the Euler characteristic; a Hermitian row's orbit is the
# square of its factor's
_EULER = {
    "grassmann_real": lambda p, q: comb(p + q, p),
    "grassmann_quaternionic": lambda p, q: comb(2 * p + 2 * q, 2 * p),
    "unitary_group": lambda n: comb(2 * n, n),
    "orthogonal_group": lambda n: 2 ** (n - 1),
    "unitary_mod_symplectic": lambda n: 2 ** (2 * n - 1),
    "symplectic_group": lambda n: 2 ** (2 * n),
    "unitary_mod_orthogonal": lambda n: 2 ** n,
    "sphere": _chi_quadric,
    "quadric_real": lambda p, q: _chi_quadric(p + q),
    "grassmann_complex_hermitian": lambda p, q: comb(p + q, p) ** 2,
    "orthogonal_mod_unitary_hermitian": lambda n: 2 ** (2 * n - 2),
    "symplectic_mod_unitary_hermitian": lambda n: 2 ** (2 * n),
    "quadric_complex_hermitian": lambda n: _chi_quadric(n) ** 2,
}


@pytest.mark.parametrize("rid,params", _CATALOGUE)
def test_weyl_orbit_has_euler_characteristic_many_points(rid, params):
    pts = ob._weyl_orbit(atlas.instance(rid, *params))
    assert len(pts) == _EULER[rid](*params)
    # distinct points: the root-value keys named no two alike
    gaps = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    assert np.all(gaps[np.triu_indices(len(pts), 1)] > 1e-6)


def test_a_root_value_off_the_integers_raises(monkeypatch):
    s = atlas.instance("sphere", 2)
    st_ = ob.structure(s)
    moved = ob.InstanceStructure(**{**vars(st_), "xi_t": 1.01 * st_.xi_t})
    monkeypatch.setattr(ob, "structure", lambda s: moved)
    with pytest.raises(AssertionError, match="root value off the integers"):
        ob._weyl_orbit(s)


# Morse indices of the clusters of find_critical_points(restarts=50, seed=3)
# as central differences of H (h = 1e-4, eigenvalues below -1e-5) gave them
_FD_INDICES = [
    ("grassmann_real", (1, 1), [0, 2]),
    ("grassmann_complex_hermitian", (1, 1), [0, 2, 4]),
    ("sphere", (2,), [0, 2, 4]),
    ("sphere", (3,), [0, 2, 6]),
    ("grassmann_real", (1, 2), [0, 2]),
    ("unitary_group", (2,), [0, 2, 8]),
    ("unitary_group", (3,), [0, 2, 8]),
    ("orthogonal_group", (5,), [0, 2, 12]),
    ("symplectic_group", (2,), [0, 2, 6, 12]),
]


@pytest.mark.parametrize("rid,params,fd", _FD_INDICES)
def test_descent_indices_match_the_closed_form(rid, params, fd):
    # the exact Hessian reproduces the finite differences, and each cluster
    # has the closed-form index of the level it lands on
    s = atlas.instance(rid, *params)
    clusters = ob.find_critical_points(s, restarts=50, seed=3)
    assert [c.hessian_index for c in clusters] == fd
    ladder = ob.critical_ladder(s)
    landed = [min(ladder, key=lambda lv: abs(lv[0] - c.value))
              for c in clusters]
    assert all(abs(v - c.value) < 1e-6 for (v, _), c in zip(landed, clusters))
    assert [i for _, i in landed] == fd


def test_index_gate_fails_on_a_wrong_closed_form_index(monkeypatch):
    rows = [("grassmann_complex_hermitian", (1, 1))]

    def indices():
        return [c for c in rep.suite_critical(rows, 0, rep.DEFAULT_TOL)
                if c["id"].startswith("critical.indices[")]

    good = indices()
    assert [c["status"] for c in good] == ["pass"]
    assert good[0]["computed"] == good[0]["expected"] == [0, 2, 4]
    ladder = ob.critical_ladder
    monkeypatch.setattr(ob, "critical_ladder", lambda s: [
        (v, i + 2 * (j == 1)) for j, (v, i) in enumerate(ladder(s))])
    bad = indices()
    assert [c["status"] for c in bad] == ["fail"]
    assert bad[0]["expected"] == [0, 4, 4]


def test_nearby_master_seeds_share_no_restart(monkeypatch):
    starts = []
    draw = ob.random_orbit_points

    def record(s, seeds):
        pts = draw(s, seeds)
        starts[-1].extend(pt.value.entries for pt in pts)
        return pts

    monkeypatch.setattr(ob, "random_orbit_points", record)
    for seed in (5, 6):
        starts.append([])
        ob.find_critical_points(_S2[0], restarts=20, seed=seed)
    assert len(starts[0]) == len(starts[1]) == 19
    gaps = [np.abs(a - b).max() for a in starts[0] for b in starts[1]]
    assert min(gaps) > 1e-6


def test_a_non_finite_descent_end_is_refused(monkeypatch):
    # the end point never reaches the SVD of the gradient certificate
    s = _S2[0]

    def nan_ends(s, pts, max_iter=10000):
        bad = np.full_like(s.xi.entries, np.nan)
        return [ob.OrbitPoint(space=s, value=al.AlgebraElement(
            s.g_vee.algebra_id, bad))] + pts[1:]

    def no_svd(pt):
        raise AssertionError("the certificate ran on a non-finite point")

    monkeypatch.setattr(ob, "_descend", nan_ends)
    monkeypatch.setattr(ob, "riemannian_gradient_norm", no_svd)
    with pytest.raises(ob.NonConvergence,
                       match="descent ended at a non-finite point"):
        ob.find_critical_points(s, restarts=3, seed=0)


@pytest.mark.parametrize("rid,params", [("unitary_group", (2,)),
                                        ("orthogonal_group", (5,))])
def test_descent_certifies_off_the_benchmark_orbits(rid, params):
    # the Gauss-Newton polish must not amplify round-off along the
    # near-null directions of its Jacobian
    s = atlas.instance(rid, *params)
    clusters = ob.find_critical_points(s, restarts=50, seed=1)
    assert np.allclose([c.value for c in clusters], ob.weyl_critical_values(s),
                       atol=1e-4)


# --- stacked oracles against the per-sample public functions -------------

def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1.0)


@pytest.mark.parametrize("rid,params", _STRUCTURAL_SPACES)
def test_stacked_walks_match_the_transport_loop(rid, params):
    s = atlas.instance(rid, *params)
    seeds = [7, 8] + np.random.SeedSequence(3).spawn(5)
    pts = ob.random_orbit_points(s, seeds)
    assert len(pts) == len(seeds)
    for seed, pt in zip(seeds, pts):
        rng = np.random.default_rng(seed)
        ref = ob.base_point(s)
        for _ in range(8):
            ref = ob.transport(ref, s.g_vee.random_element(rng))
        assert _rel(pt.value.entries, ref.value.entries) <= 1e-12
        assert _rel(ob.random_orbit_point(s, seed).value.entries,
                    ref.value.entries) <= 1e-12


@pytest.mark.parametrize("rid,params", _STRUCTURAL_SPACES)
def test_stacked_flat_points_match_flat_model(rid, params):
    s = atlas.instance(rid, *params)
    st_ = ob.structure(s)
    beta = st_.sigma_bar_roots.roots[0].covector
    vs = np.random.default_rng(9).normal(size=(30, s.abar.dim))
    # half of them slid onto the half-period shell of beta
    vs[::2] += np.outer((np.pi / 2.0 - vs[::2] @ beta) / (beta @ beta), beta)
    pts = ob._flat_points(s, vs)
    dist = ob._flat_cut_distance(s, vs)
    for v, pt, d in zip(vs, pts, dist):
        fp = ob.flat_model(s, v)
        assert _rel(pt, fp.point.value.entries) <= 1e-12
        assert (d < 1e-6) == ob.delta_contains(fp, 1e-6)
    assert ob.delta_contains(ob.flat_model(s, vs[0]), 1e-6)


def _cut_oracle_loop(model, s, samples, seed, band):
    """The cut-locus oracle one sample at a time, through flat_model."""
    st_ = ob.structure(s)
    roots = [r.covector for r in st_.sigma_bar_roots.roots]
    rng = np.random.default_rng(seed)
    scale = np.pi / max(np.linalg.norm(r) for r in roots)
    r_dim = s.a_flat.dim
    live = [b for b in roots if np.linalg.norm(b[:r_dim]) > 1e-9]
    mism = skipped = tested = 0
    for i in range(samples):
        on_shell = i % 2 == 0
        v = np.zeros(s.abar.dim)
        if on_shell:
            beta = live[rng.integers(len(live))]
            u = rng.normal(size=r_dim) * scale * 0.3
            bsub = beta[:r_dim]
            target = np.pi / 2.0 + np.pi * rng.integers(-1, 1)
            v[:r_dim] = u + (target - bsub @ u) * bsub / (bsub @ bsub)
            if ob._flat_cut_distance(s, v) > band / 10.0:
                skipped += 1
                continue
        else:
            v[:r_dim] = rng.normal(size=r_dim) * scale
            if ob._flat_cut_distance(s, v) < 1e-4:
                skipped += 1
                continue
        fp = ob.flat_model(s, v)
        geo = ob._geometric_cut_indicator(model, s,
                                          fp.point.value.entries[None])[0]
        tested += 1
        oracle = geo < 1e-6 if on_shell else geo > 1e-6
        if ob.delta_contains(fp, band) != on_shell or not oracle:
            mism += 1
    return {"model": model, "samples": samples, "tested": tested,
            "skipped": skipped, "mismatches": mism}


@pytest.mark.parametrize("model", sorted(ob.CUT_MODEL_ROWS))
def test_stacked_cut_oracle_matches_the_sample_loop(model):
    rid, params = ob.CUT_MODEL_ROWS[model]
    s = atlas.instance(rid, *params)
    for seed in (0, 1):
        assert (ob.cut_locus_oracle_check(model, s, samples=300, seed=seed)
                == _cut_oracle_loop(model, s, 300, seed, 1e-6))


def test_cut_oracle_refuses_a_foreign_instance():
    with pytest.raises(ValueError):
        ob.cut_locus_oracle_check("cp1", atlas.instance("sphere", 2), samples=10)
    with pytest.raises(ValueError):
        ob.cut_locus_oracle_check("torus", atlas.instance("grassmann_real", 1, 1))


def _ad_on_k(s, x):
    """ad of the matrix x on k, from the commutators [x, k_i] projected on
    the k rows; independent of the structure constants."""
    ks = s.g_vee.stack_matrices(s.k_basis)
    return s.k_basis @ s.g_vee.stack_coords(x @ ks - ks @ x).T


@pytest.mark.parametrize("rid,params", _STRUCTURAL_SPACES)
def test_stacked_moment_check_matches_moment_tn(rid, params):
    s = atlas.instance(rid, *params)
    st_ = ob.structure(s)
    g = s.g_vee
    covs = np.array([root.covector for root in st_.sigma_roots.roots])
    rng = np.random.default_rng(21)
    ref = {"interior_pass": 0, "interior_total": 0,
           "exterior_pass": 0, "exterior_total": 0}
    worst = 0.0
    for i in range(120):
        interior = i < 60
        u = rng.normal(size=s.a_flat.dim)
        m = np.abs(covs @ u).max()
        if m < 1e-9:
            continue
        t = rng.uniform(0.1, 0.95) if interior else rng.uniform(1.05, 2.0)
        x_coords = u * (t * atlas.rank_ratio(s) / m)
        x_lift = s.a_flat.lift(x_coords)
        k_gen = g.from_coords(rng.normal(size=s.k_basis.shape[0]) @ s.k_basis)
        x_pt = ob.transport(ob.base_point(s), k_gen)
        tangent = ob.OrbitTangent(
            base=x_pt, generator=al.conjugate(s.a_flat.lift(-x_coords), k_gen),
            vector=al.conjugate(al.bracket(x_lift, s.xi), k_gen))
        mu = ob.moment_tn(x_pt, tangent)
        stacked = ob._momentum_tn(s, x_pt.value.entries[None],
                                  tangent.vector.entries[None])[0]
        assert _rel(stacked, mu.entries) <= 1e-12
        lam = np.abs(np.linalg.eigvalsh(
            1j * _ad_on_k(s, mu.entries))).max()
        worst = max(worst, abs(lam - np.abs(covs @ x_coords).max()))
        side = "interior" if interior else "exterior"
        ref[f"{side}_total"] += 1
        ref[f"{side}_pass"] += int((lam < atlas.rank_ratio(s)) == interior)
    got = ob.moment_image_spectrum_check(s, samples=120, seed=21)
    assert {k: got[k] for k in ref} == ref
    assert abs(got["max_spectral_mismatch"] - worst) <= 1e-12


def test_stacked_momentum_refuses_a_point_off_the_real_form():
    s = atlas.instance("quadric_real", 1, 2)
    on = ob.base_point(s).value.entries
    off = ob.random_orbit_point(s, 12).value.entries
    ob._momentum_tn(s, np.stack([on, on]), np.zeros((2,) + on.shape))
    with pytest.raises(ob.NotOnRealForm):
        ob._momentum_tn(s, np.stack([on, off]), np.zeros((2,) + on.shape))


def test_sampling_oracles_ignore_the_block_size(monkeypatch):
    s = atlas.instance("unitary_group", 2)
    cp1 = atlas.instance("grassmann_real", 1, 1)

    def run():
        return (ob.moment_image_spectrum_check(s, samples=100, seed=2),
                ob.cut_locus_oracle_check("cp1", cp1, samples=100, seed=2),
                [p.value.entries for p in
                 ob.random_orbit_points(s, range(10))])

    whole = run()
    monkeypatch.setattr(al, "_BLOCK_ENTRIES", 200)  # a handful per block
    cut = run()
    assert whole[1] == cut[1]
    assert {k: v for k, v in whole[0].items() if k != "max_spectral_mismatch"} \
        == {k: v for k, v in cut[0].items() if k != "max_spectral_mismatch"}
    assert abs(whole[0]["max_spectral_mismatch"]
               - cut[0]["max_spectral_mismatch"]) <= 1e-12
    for a, b in zip(whole[2], cut[2]):
        assert np.abs(a - b).max() <= 1e-13
