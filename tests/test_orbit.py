"""Orbit geometry: points, the two-form, momentum, cut shells, descent."""

import functools
import json
import tracemalloc
from math import comb
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspacelab import algebra as al
from rspacelab import atlas, cli
from rspacelab import finsler as fin
from rspacelab import orbit as ob
from rspacelab import reporting as rep
from rspacelab import roots as rt
from rspacelab.reporting import _STRUCTURAL_SPACES
from rspacelab.cli import DEFAULT_TOL
from test_algebra import dense_constants

_S2 = [atlas.instantiate(atlas.descriptor("sphere", 2))]


# --- orbit maps that only these tests use -----------------------------------

def random_element(g, rng, scale=1.0):
    """A random element of g with normal coordinates."""
    return g.from_coords(rng.normal(size=g.dim) * scale)


def project_onto(rows, v):
    """Orthogonal projection of coordinate vector v onto span of rows."""
    return rows.T @ (rows @ v)


def moment_tn(s, x, v):
    """Tangent-bundle momentum [x, v] of the velocity v at the point x;
    requires x and v on the real form."""
    return ob._momentum_tn(s, x, v)


def moment_nc(s, x):
    """Momentum of the K action on the orbit: the k-component of the point."""
    xc = s.g_vee.coords(x)
    return s.g_vee.from_coords(0.5 * (xc + s.sigma @ xc))


def killing_matrix(g):
    """The dense Killing matrix B[i,j] = tr(ad_i ad_j) = sum_kl c[i,k,l]
    c[j,l,k] of g, from its structure constants."""
    c = dense_constants(g)
    d = g.dim
    return c.reshape(d, d * d) @ c.swapaxes(1, 2).reshape(d, d * d).T


@functools.cache  # keyed on instance identity
def calibrated_metric(s):
    """The calibrated metric -B/c as a matrix on the coordinates of g.

    c is the squared -B length of the projection of xi onto the first
    cascade root's su(2): with M = -B on the torus, gamma is dual to
    v = M^-1 gamma, and xi projects onto v with squared length
    gamma(xi)^2 / gamma^T M^-1 gamma.
    """
    g = s.g_vee
    bmat = killing_matrix(g)
    gammas, _, torus, _ = rt.cascade_strongly_orthogonal(
        g, *s.theta_decomp, s.xi)
    gamma = gammas[0]
    m = -torus @ bmat @ torus.T
    c = (gamma @ torus @ g.coords(s.xi)) ** 2 / (gamma @ np.linalg.solve(
        m, gamma))
    return -bmat / c


def canonical_one_form(s, v, w):
    """Tautological pairing <v, hor(w)> of the fiber velocity v with the
    horizontal (sigma-odd) part of the test tangent w, in -B/c."""
    g = s.g_vee
    wc = g.coords(w)
    hor = 0.5 * (wc - s.sigma @ wc)
    return float(g.coords(v) @ calibrated_metric(s) @ hor)


def flow_closure_residual(s, x):
    """Residual of the period-one circle action generated by xi."""
    moved = al.conjugate(x, s.xi, 2.0 * np.pi)
    return float(np.abs(moved - x).max())


def tangent_frame(s, x):
    """Rows spanning the tangent space at the point x, orthonormal in -B/c:
    the trace-orthonormal frame turned by an eigh of its Gram matrix."""
    rows = ob._tangent_frames(s, s.g_vee.coords(x))
    w, vecs = np.linalg.eigh(rows @ calibrated_metric(s) @ rows.T)
    return (vecs / np.sqrt(w)).T @ rows


def flat_model(s, v):
    """Exponential of the flat: Ad(exp([xi, v~])) xi for one vector v in
    abar coordinates."""
    return ob._flat_points(s, np.asarray(v, float)[None])[0]


def delta_contains(s, v, band=1e-6):
    """Whether the flat point of v lies on the cut set Delta, within band."""
    return bool(ob._flat_cut_distance(s, v) < band)


def random_orbit_point(s, seed):
    """The orbit point of one walk seed."""
    return ob.random_orbit_points(s, [seed])[0]


def test_structure_is_cached_per_instance():
    s = atlas.instance("sphere", 2)
    assert ob.structure(s) is ob.structure(s)
    fresh = atlas.instantiate(atlas.descriptor("sphere", 2))
    assert ob.structure(fresh) is not ob.structure(s)
    assert len(fresh.abar) == len(s.abar)


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
    k = len(s.sigma_decomp[0])
    assert st_.flat_ad_k.shape == (len(s.a_flat), k, k)


def test_structure_suites_pass_on_every_catalogue_row():
    # the roots, orbit and Finsler suites read ad on k through structure
    tol = dict(DEFAULT_TOL)
    rows = atlas._DEFAULT_SWEEP
    checks = (rep.suite_roots(rows, 1, tol) + rep.suite_orbit(rows, 2, tol)
              + rep.suite_finsler(rows, 3, tol))
    assert [c["id"] for c in checks if c["status"] != "pass"] == []
    counted = {c["id"] for c in checks if c["id"].startswith("roots.count")}
    assert len(counted) == len(rows) == 23


# every catalogue row at its lowest parameters, and at its smallest point
# whose ambient algebra has dimension 60 to 160
_LOWEST = [("grassmann_real", (1, 1)), ("grassmann_quaternionic", (1, 1)),
           ("unitary_group", (2,)), ("orthogonal_group", (3,)),
           ("unitary_mod_symplectic", (2,)), ("symplectic_group", (1,)),
           ("unitary_mod_orthogonal", (2,)), ("sphere", (2,)),
           ("quadric_real", (1, 1)), ("grassmann_complex_hermitian", (1, 1)),
           ("orthogonal_mod_unitary_hermitian", (2,)),
           ("symplectic_mod_unitary_hermitian", (1,)),
           ("quadric_complex_hermitian", (2,))]
_DIM_60_TO_160 = [
    ("grassmann_real", (1, 7)), ("grassmann_quaternionic", (1, 3)),
    ("unitary_group", (4,)), ("orthogonal_group", (6,)),
    ("unitary_mod_symplectic", (3,)), ("symplectic_group", (3,)),
    ("unitary_mod_orthogonal", (6,)), ("sphere", (10,)),
    ("quadric_real", (1, 9)), ("grassmann_complex_hermitian", (1, 5)),
    ("orthogonal_mod_unitary_hermitian", (5,)),
    ("symplectic_mod_unitary_hermitian", (4,)),
    ("quadric_complex_hermitian", (7,))]


@pytest.mark.parametrize("rid,params", _LOWEST + _DIM_60_TO_160)
def test_cascade_roots_are_unit_vectors_of_the_trace_form(rid, params):
    # the cascade roots are long roots, and the trace form of the real
    # embedding gives long roots unit length: this is what makes the trace
    # form the calibrated orbit metric, and what structure asserts
    s = atlas.instantiate(atlas.descriptor(rid, *params))
    if (rid, params) in _DIM_60_TO_160:
        assert 60 <= s.g_vee.dim <= 160
    gammas = rt.cascade_strongly_orthogonal(s.g_vee, *s.theta_decomp,
                                            s.xi)[0]
    assert len(gammas) == len(s.abar)
    assert all(abs(gamma @ gamma - 1.0) <= 1e-12 for gamma in gammas)


def test_structure_refuses_cascade_roots_off_unit_length(monkeypatch):
    s = atlas.instantiate(atlas.descriptor("sphere", 3))
    cascade = rt.cascade_strongly_orthogonal

    def doubled(*args):
        gammas, triples, torus, roots = cascade(*args)
        return [2.0 * gamma for gamma in gammas], triples, torus, roots

    monkeypatch.setattr(rt, "cascade_strongly_orthogonal", doubled)
    with pytest.raises(AssertionError, match="not a unit vector"):
        ob.structure(s)


def test_transport_stays_on_the_orbit():
    s = atlas.instance("quadric_real", 1, 2)
    pt = random_orbit_point(s, 4)
    assert ob.certificate_residual(s, pt) < 1e-9
    again = al.conjugate(pt, random_element(s.g_vee,
                                            np.random.default_rng(5)))
    assert ob.certificate_residual(s, again) < 1e-9


@pytest.mark.parametrize("rid,params", _STRUCTURAL_SPACES)
def test_certificate_reads_a_stack_of_orbit_points(rid, params):
    # the n x n spectrum of i x against that of i xi: round-off on the
    # orbit, the largest over a stack, and a 1% dilation leaves the orbit
    s = atlas.instance(rid, *params)
    pts = ob.random_orbit_points(s, range(6))
    res = ob.certificate_residual(s, pts)
    assert res <= 1e-12
    assert res == max(ob.certificate_residual(s, x) for x in pts)
    assert ob.certificate_residual(s, 1.01 * pts[0]) >= 1e-3


def test_tangent_frame_is_metric_orthonormal():
    s = atlas.instance("sphere", 2)
    x = random_orbit_point(s, 8)
    gens = s.g_vee.from_coords(tangent_frame(s, x))
    assert len(gens) == 4
    gram = ob.inner(gens[:, None], gens[None])
    assert np.abs(gram - np.eye(len(gens))).max() < 1e-8


def test_complex_structure_squares_to_minus_one():
    for rid, params in [("sphere", (2,)), ("unitary_group", (2,)),
                        ("grassmann_real", (1, 2))]:
        s = atlas.instance(rid, *params)
        assert ob.complex_structure_check(s, random_orbit_point(s, 11)) < 1e-7


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_two_form_is_antisymmetric_and_bilinear(seed):
    s = _S2[0]
    g = s.g_vee
    rng = np.random.default_rng(seed)
    x = random_orbit_point(s, seed % 97)
    a, b = (g.from_coords(rng.normal(size=g.dim)) for _ in range(2))
    assert abs(ob.kks(s, x, a, b) + ob.kks(s, x, b, a)) < 1e-9
    c = float(rng.normal())
    ac = g.from_coords(c * g.coords(a))
    assert abs(ob.kks(s, x, ac, b) - c * ob.kks(s, x, a, b)) < 1e-7


def test_stacked_two_form_matches_the_pairwise_two_form():
    # the orbit suite evaluates the form on every pair of frame generators
    # as <[x, a_i], a_j>, one stack of brackets and one product; each entry
    # is the two-form of its pair
    s = atlas.instance("unitary_group", 2)
    g = s.g_vee
    x = random_orbit_point(s, 5)
    gens = g.from_coords(tangent_frame(s, x))
    r = len(gens)
    omega = al.bracket(x, gens).reshape(r, -1) @ gens.reshape(r, -1).T
    assert omega.shape == (r, r)
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            assert abs(omega[i, j] - ob.kks(s, x, a, b)) <= 1e-12


def test_orbit_suite_builds_no_stack_of_pairwise_brackets():
    # at grassmann_complex_hermitian(3,3), rank 36 on 24 x 24 matrices, the
    # rank^2 stack of brackets [a_i, a_j] held 12 MB at its peak; the
    # product form of the two-form holds 0.5 MB and the whole suite 3.7 MB
    atlas.instance("grassmann_complex_hermitian", 3, 3)
    tracemalloc.start()
    try:
        checks = rep.suite_orbit([("grassmann_complex_hermitian", (3, 3))],
                                 1, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {c["status"] for c in checks} == {"pass"}
    assert peak < 6 << 20


def test_moment_radius_gate_fails_on_a_spectral_mismatch(monkeypatch):
    rows = [("sphere", (2,))]

    def radius(checks):
        return [c for c in checks if c["id"].startswith("orbit.moment_radius")]

    [ok] = radius(rep.suite_orbit(rows, 1, DEFAULT_TOL))
    assert ok["status"] == "pass" and ok["computed"] <= 1e-12
    check = ob.moment_image_spectrum_check
    monkeypatch.setattr(ob, "moment_image_spectrum_check", lambda *a, **k: {
        **check(*a, **k), "max_spectral_mismatch": 1e-6})
    [bad] = radius(rep.suite_orbit(rows, 1, DEFAULT_TOL))
    assert bad["status"] == "fail" and bad["computed"] == 1e-6


def test_hamiltonian_field_is_the_circle_action():
    # dH(w) = -2 pi omega(V, w) with V = [x, xi], the tangent of the
    # generator xi; the action field itself is -V
    s = atlas.instance("sphere", 2)
    x = random_orbit_point(s, 9)
    g = s.g_vee
    rng = np.random.default_rng(1)
    b = g.from_coords(rng.normal(size=g.dim))
    h = 1e-6
    d_h = (ob.hamiltonian(s, al.conjugate(x, b, h))
           - ob.hamiltonian(s, al.conjugate(x, b, -h))) / (2 * h)
    assert abs(d_h + 2.0 * np.pi * ob.kks(s, x, s.xi, b)) < 1e-5


def test_flow_closes_with_period_one():
    s = atlas.instance("unitary_group", 2)
    pt = random_orbit_point(s, 3)
    assert flow_closure_residual(s, pt) < 1e-9


def test_height_minimum_at_the_base_point():
    s = _S2[0]
    cp1 = atlas.instantiate(atlas.descriptor("grassmann_real", 1, 1))
    h0 = ob.hamiltonian(cp1, cp1.xi)
    assert abs(h0 + 2.0 * np.pi) < 1e-9
    pts = ob.random_orbit_points(cp1, [10_000 + i for i in range(10_000)])
    vals = ob.hamiltonian(cp1, pts)
    assert vals.shape == (10_000,)
    assert vals.min() >= h0 - 1e-9
    # the full spread of the projective line is one step of the ladder
    assert vals.max() <= h0 + 4.0 * np.pi + 1e-9


def test_momentum_requires_the_real_form():
    s = atlas.instance("sphere", 2)
    x = s.xi
    k_gen = s.g_vee.from_coords(s.sigma_decomp[0][0])
    mu = moment_tn(s, x, al.bracket(x, k_gen))
    muc = s.g_vee.coords(mu)
    assert np.linalg.norm(muc - project_onto(s.sigma_decomp[0], muc)) < 1e-8
    off = random_orbit_point(s, 12)  # generic point leaves the real form
    with pytest.raises(ob.NotOnRealForm):
        moment_tn(s, off, al.bracket(off, k_gen))


def test_orbit_momentum_is_equivariant():
    s = atlas.instance("quadric_real", 1, 2)
    g = s.g_vee
    x = random_orbit_point(s, 6)
    eta = g.from_coords(project_onto(s.sigma_decomp[0],
                                     np.random.default_rng(7).normal(
                                         size=g.dim)))
    lhs = moment_nc(s, al.conjugate(x, eta, 0.7))
    rhs = al.conjugate(moment_nc(s, x), eta, 0.7)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_one_form_pairs_with_horizontal_parts():
    s = atlas.instance("sphere", 2)
    x = s.xi
    g = s.g_vee
    k_gen = g.from_coords(s.sigma_decomp[0][0])
    v = al.bracket(x, k_gen)   # sigma-odd (horizontal) at the base
    lam = canonical_one_form(s, v, v)
    want = ob.inner(v, v)
    assert abs(lam - want) < 1e-9
    # sigma-even test directions pair to zero
    _, p_vee = s.theta_decomp
    p_gen = g.from_coords(p_vee[0])
    w = al.bracket(x, p_gen)
    wc = g.coords(w)
    if np.linalg.norm(wc - s.sigma @ wc) < 1e-9:
        assert abs(canonical_one_form(s, v, w)) < 1e-9


def test_flat_model_contract():
    s = atlas.instance("sphere", 2)
    pt = flat_model(s, np.zeros(len(s.abar)))
    assert np.abs(pt - s.xi).max() < 1e-12
    v = 0.3 * np.ones(len(s.abar))
    gen = al.bracket(s.xi, s.g_vee.from_coords(v @ s.abar))
    want = al.conjugate(s.xi, gen, 1.0)
    assert np.abs(flat_model(s, v) - want).max() < 1e-10


def test_shell_predicate_basics():
    s = atlas.instance("grassmann_real", 1, 1)
    st_ = ob.structure(s)
    beta = st_.sigma_bar_roots.covectors[0]
    assert delta_contains(s, (np.pi / 2.0) * beta / (beta @ beta))
    assert not delta_contains(s, (np.pi / 4.0) * beta / (beta @ beta))
    # the shell recurs with period pi along the root
    assert delta_contains(s, (3 * np.pi / 2.0) * beta / (beta @ beta))


@pytest.mark.parametrize("model", ["cp1", "cp1xcp1"])
def test_cut_locus_oracle(model):
    r = ob.cut_locus_oracle_check(model, samples=400, seed=5)
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


def test_moment_radius_is_round_off_of_the_radius_not_of_the_kernel():
    # the roots of unitary_group(2) span one line of its rank-2 flat;
    # sample 108 of seed 459 drew u within 4.2e-7 of their kernel, which
    # scaled X to 2.6e6 and the spectral mismatch to 7e-10 while u's kernel
    # part stayed in the sample
    s = atlas.instance("unitary_group", 2)
    r = ob.moment_image_spectrum_check(s, samples=200, seed=459)
    assert r["interior_pass"] == r["interior_total"]
    assert r["exterior_pass"] == r["exterior_total"]
    assert r["max_spectral_mismatch"] <= 1e-13


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
    assert [ix for _, ix in ob.critical_ladder(cp1)] == [[0], [2]]
    s2 = atlas.instance("sphere", 2)
    assert np.allclose(ob.weyl_critical_values(s2),
                       [-4.0 * np.pi, 0.0, 4.0 * np.pi], atol=1e-9)
    assert [ix for _, ix in ob.critical_ladder(s2)] == [[0], [2], [4]]


def test_random_orbit_points_reach_every_level():
    # a Haar-uniform point of CP1 x CP1 flows to the top level with
    # probability 1/4; a draw that stays near xi rarely gets there
    s = atlas.instance("grassmann_complex_hermitian", 1, 1)
    top = ob.weyl_critical_values(s)[-1]
    ends = s.g_vee.from_coords(
        ob._descend(s, ob.random_orbit_points(s, range(300))))
    share = np.mean(np.abs(ob.hamiltonian(s, ends) - top) < 1e-3)
    assert share >= 0.18


@pytest.mark.parametrize("rid,params", [("grassmann_real", (1, 1)),
                                        ("grassmann_complex_hermitian", (1, 1)),
                                        ("unitary_group", (2,)),
                                        ("unitary_group", (3,))])
def test_stacked_descent_matches_one_restart_at_a_time(rid, params):
    # restarts move in lockstep, but each keeps its own step size and
    # stopping rule, stacked n x n products and eigh run slice by slice, and
    # the end coordinates are taken row by row, so a stack ends bitwise
    # where its restarts end alone
    s = atlas.instance(rid, *params)
    pts = np.concatenate([s.xi[None], ob.random_orbit_points(
        s, np.random.SeedSequence(4).spawn(11))])
    ends = ob._descend(s, pts)
    assert ends.shape == (len(pts), s.g_vee.dim)
    for pt, end in zip(pts, ends):
        alone = ob._descend(s, pt[None])[0]
        assert np.array_equal(end, alone)
        # the gradient certificate of find_critical_points
        assert ob._gradient_norms(s, end[None])[0] <= 1e-7


def test_a_stalled_restart_stays_on_the_orbit():
    # restart 36 of find_critical_points(seed=54) at the window edge stalls
    # just above the stop; with generators left off g its steps grow the
    # round-off off g until the end's spectrum drifts by 4.7e-2
    s = atlas.instance("grassmann_complex_hermitian", 3, 9)
    child = np.random.SeedSequence(54).spawn(49)[35]
    end = ob._descend(s, ob.random_orbit_points(s, [child]))
    assert ob.certificate_residual(s, s.g_vee.from_coords(end)) <= 1e-12


_PINS = json.loads((Path(__file__).parent / "data"
                    / "critical_gap_pins.json").read_text())["pins"]


@pytest.mark.parametrize("pin", _PINS, ids=lambda p: "{}{}:{}".format(
    p["row"], tuple(p["params"]), p["seed"]))
def test_gap_report_keeps_the_pinned_clusters(pin):
    # pins from the descent that ran Armijo to a merit of 1e-22 scale: the
    # step -[[xi, [xi, x]], x] from the same start points moves no restart
    # to another level, and the values only at round-off
    s = atlas.instance(pin["row"], *pin["params"])
    rep = ob.critical_gap_report(s, restarts=50, seed=pin["seed"])
    assert rep["indices"] == pin["indices"]
    assert rep["populations"] == pin["populations"]
    assert np.abs(np.subtract(rep["values"], pin["values"])).max() <= 1e-9


def test_critical_starts_end_where_they_start():
    s = atlas.instance("grassmann_complex_hermitian", 1, 1)
    base = s.xi  # critical already: never iterates
    ends = ob._descend(s, np.stack([base, base]))
    assert np.array_equal(ends, np.stack([s.g_vee.coords(base)] * 2))


def test_no_restart_runs_on_at_the_round_off_floor(monkeypatch):
    # a stop below the round-off floor runs restarts here to the 60-step
    # cap; above it, each descent ends within a few quadratic steps.  One
    # exponential per step of the loop is counted, inside _descend only
    s = atlas.instance("unitary_mod_symplectic", 3)
    steps = []
    expm, descend = al.expm_skew, ob._descend

    def step(a):
        steps[-1] += 1
        return expm(a)

    def counted(s, pts):
        steps.append(0)
        monkeypatch.setattr(al, "expm_skew", step)
        try:
            return descend(s, pts)
        finally:
            monkeypatch.setattr(al, "expm_skew", expm)

    monkeypatch.setattr(ob, "_descend", counted)
    for seed in (1, 2, 3):
        ob.find_critical_points(s, restarts=50, seed=seed)
    assert len(steps) == 3
    assert 0 < max(steps) <= 20


_CATALOGUE = [(d.id, d.params) for d in atlas.list_entries() if d.instantiable]


def _batch_weyl_orbit(s):
    """W . xi as float torus points with their integer root values, from
    the Euclidean reflections in all torus roots at once, with tuple keys
    and a stack that holds, for every point found, the whole (roots, rank)
    batch of its reflections."""
    st_ = ob.structure(s)
    betas = st_.torus_roots
    coef = 2.0 / np.einsum("ri,ri->r", betas, betas)
    seen = {}
    queue = [st_.xi_t[None]]
    while queue:
        ys = queue.pop()
        vals = ys @ betas.T
        keys = map(tuple, np.rint(vals).astype(int).tolist())
        for y, key, v in zip(ys, keys, vals):
            if key not in seen:
                seen[key] = y
                queue.append(y - (coef * v)[:, None] * betas)
    return np.array(list(seen.values())), np.array(list(seen))


def _integer_start(st_):
    """The Cartan numbers of the torus roots and the root values of xi,
    the input of the production walk _weyl_orbit."""
    return (rt.cartan_numbers(st_.torus_roots),
            np.rint(st_.torus_roots @ st_.xi_t).astype(int))


def _even_ladder(s):
    h0 = ob.hamiltonian(s, s.xi)
    return h0 + 4.0 * np.pi * np.arange(len(s.abar) + 1)


@pytest.mark.parametrize("rid,params", _CATALOGUE)
def test_reflection_ladder_is_the_even_ladder(rid, params):
    # H(xi) is the bottom level and the levels step by 4 pi, rank_nc times;
    # the bottom is the one point xi, of index 0, and every index is even
    s = atlas.instance(rid, *params)
    ladder = ob.weyl_critical_values(s)
    assert len(ladder) == len(s.abar) + 1
    assert np.allclose(ladder, _even_ladder(s), rtol=0, atol=1e-9)
    indices = [ix for _, ix in ob.critical_ladder(s)]
    assert indices[0] == [0]
    assert all(ix and all(i % 2 == 0 for i in ix) for ix in indices)


def test_reflection_ladder_on_a_large_orbit():
    # 252 torus points and 90 roots: a pairwise dedup is quadratic here
    s = atlas.instantiate(atlas.descriptor("unitary_group", 5))
    ladder = ob.weyl_critical_values(s)
    assert np.allclose(ladder, _even_ladder(s), rtol=0, atol=1e-9)


# each doubled Hermitian row N x N on g + g, beside a row whose orbit is N
# on g alone, built by other code (no direct_sum or swap involution)
_DOUBLED_PARTNERS = [
    (("grassmann_complex_hermitian", (2, 2)), ("grassmann_real", (2, 2))),
    (("grassmann_complex_hermitian", (1, 3)), ("grassmann_real", (1, 3))),
    (("quadric_complex_hermitian", (4,)), ("sphere", (4,))),
    (("quadric_complex_hermitian", (5,)), ("quadric_real", (2, 3))),
    (("symplectic_mod_unitary_hermitian", (3,)),
     ("unitary_mod_orthogonal", (3,))),
    (("orthogonal_mod_unitary_hermitian", (4,)),
     ("unitary_mod_symplectic", (2,))),
    (("orthogonal_mod_unitary_hermitian", (5,)), ("orthogonal_group", (5,))),
    (("grassmann_complex_hermitian", (4, 4)), ("grassmann_real", (4, 4))),
    (("orthogonal_mod_unitary_hermitian", (9,)), ("orthogonal_group", (9,))),
]


@pytest.mark.parametrize("doubled,partner", _DOUBLED_PARTNERS, ids=[
    f"{d[0]}({','.join(map(str, d[1]))})" for d, _ in _DOUBLED_PARTNERS])
def test_doubled_ladder_is_the_partner_pair_sums(doubled, partner):
    # H on N x N is the sum of H on the factors, so its levels are the pair
    # sums of the partner's levels, and a component at a + b is a product
    # of one at a and one at b, of index the sum of theirs
    got = ob.critical_ladder(atlas.instance(doubled[0], *doubled[1]))
    half = ob.critical_ladder(atlas.instance(partner[0], *partner[1]))
    sums = {}
    for a, ia in half:
        for b, ib in half:
            level = round((a + b) / np.pi)
            assert abs(a + b - level * np.pi) < 1e-9
            sums.setdefault(level, set()).update(i + j for i in ia
                                                 for j in ib)
    assert [ix for _, ix in got] == [sorted(sums[k]) for k in sorted(sums)]
    assert np.allclose([v for v, _ in got], np.pi * np.array(sorted(sums)),
                       rtol=0, atol=1e-9)


# the levels / pi whose components have two indices, with those indices;
# a ladder of one index per level gave only one of each pair, and which one
# depended on the order of the cascade
_TWO_COMPONENT_LEVELS = [
    ("quadric_complex_hermitian", (3,), {0: [4, 6]}),
    ("symplectic_mod_unitary_hermitian", (3,),
     {-4: [4, 6], 0: [8, 12], 4: [12, 14]}),
    ("grassmann_complex_hermitian", (3, 3),
     {-4: [4, 8], 0: [10, 18], 4: [16, 20]}),
    ("orthogonal_mod_unitary_hermitian", (5,), {-2: [4, 12]}),
]


@pytest.mark.parametrize("rid,params,pins", _TWO_COMPONENT_LEVELS)
def test_ladder_lists_every_component_index(rid, params, pins):
    ladder = ob.critical_ladder(atlas.instance(rid, *params))
    got = {round(v / np.pi): ix for v, ix in ladder if len(ix) > 1}
    assert got == pins


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


def _t2(q_poly):
    """A polynomial in q = t^2 as one in t, coefficients lowest first."""
    out = np.zeros(2 * len(q_poly) - 1, int)
    out[::2] = q_poly
    return out


def _grassmann_poincare(k, n):
    """P_t of Gr_k(C^n): the Gaussian binomial [n, k] in t^2, from
    [n, k] = [n - 1, k - 1] + q^k [n - 1, k]."""
    if k in (0, n):
        return np.ones(1, int)
    lower = _grassmann_poincare(k - 1, n - 1)
    shifted = np.concatenate([np.zeros(2 * k, int),
                              _grassmann_poincare(k, n - 1)])
    return np.polynomial.polynomial.polyadd(lower, shifted).astype(int)


def _product_poincare(degrees):
    """prod (1 + t^d) over the degrees d."""
    out = np.ones(1, int)
    for d in degrees:
        out = np.convolve(out, np.eye(1, d + 1, 0, int)[0]
                          + np.eye(1, d + 1, d, int)[0])
    return out


def _quadric_poincare(m):
    """P_t of the complex quadric Q_m: sum t^(2i), i = 0..m, plus t^m if m
    is even."""
    out = _t2(np.ones(m + 1, int))
    out[m] += m % 2 == 0
    return out


# P_t(N_C) per row, from its family's classical product; a Hermitian
# row's orbit is the square of its factor's
_POINCARE = {
    "grassmann_real": lambda p, q: _grassmann_poincare(p, p + q),
    "grassmann_quaternionic":
        lambda p, q: _grassmann_poincare(2 * p, 2 * p + 2 * q),
    "unitary_group": lambda n: _grassmann_poincare(n, 2 * n),
    "orthogonal_group": lambda n: _product_poincare(range(2, 2 * n, 2)),
    "unitary_mod_symplectic":
        lambda n: _product_poincare(range(2, 4 * n, 2)),
    "symplectic_group": lambda n: _product_poincare(range(2, 4 * n + 1, 2)),
    "unitary_mod_orthogonal":
        lambda n: _product_poincare(range(2, 2 * n + 1, 2)),
    "sphere": _quadric_poincare,
    "quadric_real": lambda p, q: _quadric_poincare(p + q),
}


def _squared(factor):
    return lambda *p: np.convolve(_POINCARE[factor](*p), _POINCARE[factor](*p))


_POINCARE.update({
    "grassmann_complex_hermitian": _squared("grassmann_real"),
    "orthogonal_mod_unitary_hermitian": _squared("orthogonal_group"),
    "symplectic_mod_unitary_hermitian": _squared("unitary_mod_orthogonal"),
    "quadric_complex_hermitian": _squared("sphere"),
})

# one or more pairs from each family, beside the catalogue rows
_POINCARE_PAIRS = _CATALOGUE + [
    ("grassmann_complex_hermitian", (2, 2)),
    ("grassmann_complex_hermitian", (2, 3)),
    ("quadric_complex_hermitian", (4,)), ("unitary_group", (3,)),
    ("unitary_group", (4,)), ("grassmann_real", (2, 3)), ("sphere", (4,)),
    ("quadric_real", (2, 3)), ("symplectic_group", (2,)),
    ("unitary_mod_orthogonal", (4,)), ("orthogonal_group", (5,)),
    ("unitary_mod_symplectic", (4,)), ("grassmann_quaternionic", (2, 2)),
    ("symplectic_mod_unitary_hermitian", (3,)),
    ("orthogonal_mod_unitary_hermitian", (4,))]


@pytest.mark.parametrize("rid,params", _POINCARE_PAIRS)
def test_weyl_orbit_has_euler_characteristic_many_points(rid, params):
    s = atlas.instance(rid, *params)
    pts, keys = _batch_weyl_orbit(s)
    assert len(pts) == len(keys) == _EULER[rid](*params)
    # distinct points: the root-value keys named no two alike
    gaps = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    assert np.all(gaps[np.triu_indices(len(pts), 1)] > 1e-6)
    # for a generic eta the height function of eta is a perfect Morse
    # function with critical points W . xi, and the index at p counts the
    # roots beta with beta(eta) beta(p) < 0; the integer keys are beta(p),
    # rounded, so no root that vanishes at p takes the sign of the
    # perturbation.  eta = xi + 1e-3 rho, rho the half sum of the roots
    # positive on a random nu: rho pairs with every simple root alpha to
    # |alpha|^2 / 2, so no root vanishes on it, whatever basis eigh chose
    # for the torus
    st_ = ob.structure(s)
    betas = st_.torus_roots
    nu = st_.xi_t + 1e-3 * np.random.default_rng(0).normal(
        size=len(st_.xi_t))
    eta = st_.xi_t + 1e-3 * betas[betas @ nu > 0].sum(axis=0) / 2
    beta_eta = betas @ eta
    assert np.abs(beta_eta).min() > 1e-6
    poincare = np.bincount(np.sum(beta_eta * keys < 0, axis=1))
    assert np.array_equal(poincare, _POINCARE[rid](*params))


def _whole_orbit_ladder(s):
    """critical_ladder read off one enumeration of W . xi in all the torus
    roots, with no split into factors."""
    xi_t = ob.structure(s).xi_t
    pts, keys = _batch_weyl_orbit(s)
    vals = [-2.0 * np.pi * float(xi_t @ p) for p in pts]
    index = np.sum(keys[0] * keys < 0, axis=1).tolist()
    ladder = []
    for v, i in sorted(zip(vals, index)):
        if ladder and v - ladder[-1][0] <= 1e-6:
            ladder[-1][1].add(i)
        else:
            ladder.append((v, {i}))
    return [(v, sorted(ix)) for v, ix in ladder]


# the doubled rows at the first four window parameters of each
# one-parameter row, and at (1,2), (2,2), (2,3), (3,3)
_DOUBLED_SWEEP = (
    [("grassmann_complex_hermitian", pq)
     for pq in ((1, 2), (2, 2), (2, 3), (3, 3))]
    + [(rid, (n,)) for rid in ("quadric_complex_hermitian",
                               "orthogonal_mod_unitary_hermitian")
       for n in (2, 3, 4, 5)]
    + [("symplectic_mod_unitary_hermitian", (n,)) for n in (1, 2, 3, 4)])


@pytest.mark.parametrize("rid,params", sorted(set(_CATALOGUE
                                                  + _DOUBLED_SWEEP)))
def test_factor_ladder_is_the_whole_orbit_ladder(rid, params):
    # a doubled row's roots split into the two copies of its factor's, and
    # so(4) = su(2) + su(2) splits sphere(2); the levels read off integer
    # root values and the Killing pairing share no arithmetic with the
    # float points of the oracle, so they agree to round-off
    s = atlas.instance(rid, *params)
    factors = ob._root_factors(_integer_start(ob.structure(s))[0])
    assert (len(factors) > 1) == (rid.endswith("_hermitian")
                                  or (rid, params) == ("sphere", (2,)))
    got, want = ob.critical_ladder(s), _whole_orbit_ladder(s)
    assert [ix for _, ix in got] == [ix for _, ix in want]
    assert np.allclose([v for v, _ in got], [v for v, _ in want],
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("rid,params", [
    ("grassmann_complex_hermitian", (5, 5)),
    ("grassmann_complex_hermitian", (6, 6)),
    ("orthogonal_mod_unitary_hermitian", (12,))])
def test_factor_orbits_multiply_to_the_euler_characteristic(rid, params):
    # W . xi has 63,504, 853,776 and 4,194,304 points here; only the two
    # factor orbits, of 252, 924 and 2,048 points, are enumerated
    cart, k0 = _integer_start(ob.structure(atlas.instance(rid, *params)))
    factors = ob._root_factors(cart)
    sizes = [len(ob._weyl_orbit(cart[np.ix_(f, f)], k0[f])) for f in factors]
    assert len(factors) == 2
    assert sizes[0] * sizes[1] == _EULER[rid](*params)


def _ladder_of(monkeypatch, xi_t, torus_roots, factors=None):
    """critical_ladder, uncached, of a structure with these xi_t and roots,
    and the given factors in place of _root_factors."""
    fake = SimpleNamespace(xi_t=xi_t, torus_roots=torus_roots)
    monkeypatch.setattr(ob, "structure", lambda _: fake)
    if factors is not None:
        monkeypatch.setattr(ob, "_root_factors", lambda _: factors)
    return ob.critical_ladder.__wrapped__(None)


def test_a_root_value_off_the_integers_raises(monkeypatch):
    st_ = ob.structure(atlas.instance("grassmann_complex_hermitian", 1, 2))
    with pytest.raises(AssertionError, match="root value off the integers"):
        _ladder_of(monkeypatch, 1.01 * st_.xi_t, st_.torus_roots)


def test_a_factor_of_two_pairings_fails_the_killing_certificate(monkeypatch):
    # the two copies of a doubled row's roots, the second scaled by 2, keep
    # their Cartan numbers and integer root values, but as one "factor"
    # their roots pair as c x . y on the first copy's span and 4 c x . y on
    # the second's
    s = atlas.instance("grassmann_complex_hermitian", 1, 2)
    st_, want = ob.structure(s), ob.critical_ladder(s)
    roots = st_.torus_roots.copy()
    first, second = ob._root_factors(rt.cartan_numbers(roots))
    roots[second] *= 2.0
    got = _ladder_of(monkeypatch, st_.xi_t, roots)
    assert [ix for _, ix in got] == [ix for _, ix in want]
    assert np.allclose([v for v, _ in got], [v for v, _ in want],
                       rtol=0, atol=1e-12)
    with pytest.raises(AssertionError, match="Killing pairing off"):
        _ladder_of(monkeypatch, st_.xi_t, roots,
                   [np.concatenate([first, second])])


@pytest.mark.parametrize("rid,params", [
    ("unitary_group", (3,)), ("grassmann_complex_hermitian", (2, 3)),
    ("orthogonal_mod_unitary_hermitian", (4,))])
def test_weyl_orbit_is_the_batch_enumeration(rid, params):
    # the integer walk in all the torus roots at once finds the root values
    # of the Euclidean reflections of the float points, xi first
    s = atlas.instance(rid, *params)
    keys = ob._weyl_orbit(*_integer_start(ob.structure(s)))
    want = _batch_weyl_orbit(s)[1]
    assert np.array_equal(keys[0], want[0])
    assert len(keys) == len(want)
    assert set(map(bytes, keys)) == set(map(bytes, want.astype(np.int8)))


@pytest.mark.parametrize("rid,params", [
    ("grassmann_complex_hermitian", (4, 4)),
    ("orthogonal_mod_unitary_hermitian", (9,))])
def test_verify_runs_the_ladder_suites_past_the_whole_orbit(rid, params,
                                                           capsys):
    # W . xi has 4,900 and 65,536 points here; the ladder enumerates only
    # the two factor orbits, of 70 and 256 points
    cli.main(["verify", "--seed", "1", "--suite", "critical,capacity",
              "--space", rid, "--params", ",".join(map(str, params))])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    status = {c["id"]: c["status"] for c in json.loads(out)["checks"]}
    assert not [i for i in status if i.endswith(".error")]
    gated = [i for i in status if i.startswith("capacity.")
             or i.startswith("critical.indices")]
    assert gated and all(status[i] == "pass" for i in gated)


def test_a_full_verify_enumerates_the_weyl_orbit_once(monkeypatch):
    ob.critical_ladder.cache_clear()
    calls = []
    orbit = ob._weyl_orbit
    monkeypatch.setattr(ob, "_weyl_orbit",
                        lambda *a: calls.append(a) or orbit(*a))
    report = rep.run_suites(rep.SUITE_NAMES, 1, "grassmann_complex_hermitian",
                            (2, 2))
    assert all(c["status"] != "error" for c in report["checks"])
    # one enumeration per irreducible factor of the torus roots: the row is
    # doubled, so two
    assert len(calls) == 2


def test_weyl_orbit_stacks_points_not_their_reflections():
    # 400 points and 60 roots on a rank-10 torus: one batch of reflections
    # per point found kept up to 400 x 60 x 10 floats, about 2 MiB; the
    # walk keeps one 60-byte row of root values per point
    s = atlas.instance("grassmann_complex_hermitian", 3, 3)
    start = _integer_start(ob.structure(s))
    tracemalloc.start()
    try:
        ob._weyl_orbit(*start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    assert all(i in ix for (_, ix), i in zip(landed, fd))


def _frame_morse_index(s, x):
    """Morse index of H at a critical point x from the Hessian
    -(pi/c) B([xi, U], [x, U]), with B the dense Killing matrix, restricted
    to the generators U of tangent_frame."""
    g = s.g_vee
    adxi, adx = al.ad_operator(g, s.xi), al.ad_operator(g, x)
    q = adxi.T @ calibrated_metric(s) @ adx
    frame = tangent_frame(s, x)
    w = np.linalg.eigvalsh(0.5 * np.pi * frame @ (q + q.T) @ frame.T)
    return int(np.sum(w < -1e-8 * np.abs(w).max()))


# the rows of _FD_INDICES and four more Hermitian rows, whose algebra is
# the sum of two copies of one simple algebra
_INDEX_ROWS = [(rid, params) for rid, params, _ in _FD_INDICES] + [
    ("grassmann_complex_hermitian", (1, 2)),
    ("orthogonal_mod_unitary_hermitian", (3,)),
    ("symplectic_mod_unitary_hermitian", (1,)),
    ("quadric_complex_hermitian", (2,))]


@pytest.mark.parametrize("rid,params", _INDEX_ROWS)
def test_morse_index_matches_the_frame_hessian(rid, params):
    # Q on all of g is Q on the tangent space plus zero on the kernel of
    # ad_x, so it has the index of Q on a tangent frame
    s = atlas.instance(rid, *params)
    a = ob._descend(s, np.concatenate(
        [s.xi[None], ob.random_orbit_points(s, range(30))]))
    assert ob._gradient_norms(s, a).max() <= 1e-7
    ends = s.g_vee.from_coords(a)
    got = [ob.morse_index(s, x) for x in ends]
    assert got == [_frame_morse_index(s, x) for x in ends]
    assert got[0] == 0 and len(set(got)) >= 2


@pytest.mark.parametrize("rid,params", _INDEX_ROWS)
def test_complex_structure_check_matches_the_frame_residual(rid, params):
    # ad_x^2 = -1 on a tangent frame, and ad_x^3 = -ad_x, at orbit points;
    # off the orbit, at (1 + 1e-6) x, ad_x^3 + ad_x is about -2e-6 ad_x
    s = atlas.instance(rid, *params)
    g = s.g_vee
    for x in ob.random_orbit_points(s, range(5)):
        adx = al.ad_operator(g, x)
        frame = ob._tangent_frames(s, g.coords(x))
        assert np.abs(adx @ (adx @ frame.T) + frame.T).max() < 1e-12
        assert ob.complex_structure_check(s, x) < 1e-12
        assert ob.complex_structure_check(s, (1.0 + 1e-6) * x) \
            > 1e-6 * np.abs(adx).max()


def test_index_gate_fails_on_a_wrong_closed_form_index(monkeypatch):
    rows = [("grassmann_complex_hermitian", (1, 1))]

    def indices():
        return [c for c in rep.suite_critical(rows, 0, rep.DEFAULT_TOL)
                if c["id"].startswith("critical.indices[")]

    good = indices()
    assert [c["status"] for c in good] == ["pass"]
    assert good[0]["computed"] == [0, 2, 4]
    assert good[0]["expected"] == [[0], [2], [4]]
    ladder = ob.critical_ladder
    monkeypatch.setattr(ob, "critical_ladder", lambda s: [
        (v, [i + 2 * (j == 1) for i in ix])
        for j, (v, ix) in enumerate(ladder(s))])
    bad = indices()
    assert [c["status"] for c in bad] == ["fail"]
    assert bad[0]["expected"] == [[0], [4], [4]]


# pairs where the descent lands on a component whose index the one-index
# ladder did not report, at some seed in 1-3
_OTHER_COMPONENT_PAIRS = [
    ("grassmann_complex_hermitian", (2, 3)),
    ("grassmann_complex_hermitian", (3, 3)),
    ("symplectic_mod_unitary_hermitian", (2,)),
    ("symplectic_mod_unitary_hermitian", (4,)),
    ("quadric_complex_hermitian", (3,)), ("quadric_complex_hermitian", (4,))]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_index_gate_passes_where_the_descent_meets_another_component(seed):
    checks = [c for c in rep.suite_critical(_OTHER_COMPONENT_PAIRS, seed,
                                            rep.DEFAULT_TOL)
              if c["id"].startswith("critical.indices[")]
    assert len(checks) == len(_OTHER_COMPONENT_PAIRS)
    assert [c["status"] for c in checks] == ["pass"] * len(checks)


def test_nearby_master_seeds_share_no_restart(monkeypatch):
    starts = []
    draw = ob.random_orbit_points

    def record(s, seeds):
        pts = draw(s, seeds)
        starts[-1].extend(pts)
        return pts

    monkeypatch.setattr(ob, "random_orbit_points", record)
    for seed in (5, 6):
        starts.append([])
        ob.find_critical_points(_S2[0], restarts=20, seed=seed)
    assert len(starts[0]) == len(starts[1]) == 19
    gaps = [np.abs(a - b).max() for a in starts[0] for b in starts[1]]
    assert min(gaps) > 1e-6


def test_a_non_finite_descent_end_is_refused(monkeypatch):
    # the end point never reaches the stacked gradient certificate
    s = _S2[0]

    def nan_ends(s, pts):
        ends = s.g_vee.coords(pts)
        ends[0] = np.nan
        return ends

    def no_frames(s, a):
        raise AssertionError("the certificate ran on a non-finite point")

    monkeypatch.setattr(ob, "_descend", nan_ends)
    monkeypatch.setattr(ob, "_gradient_norms", no_frames)
    with pytest.raises(ob.NonConvergence,
                       match="descent ended at a non-finite point"):
        ob.find_critical_points(s, restarts=3, seed=0)


@pytest.mark.parametrize("rid,params", [("unitary_group", (2,)),
                                        ("orthogonal_group", (5,))])
def test_descent_certifies_off_the_benchmark_orbits(rid, params):
    # the descent step solves no system, so it has no near-null direction
    # of a Jacobian to amplify round-off along; every end must certify and
    # land on the ladder
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
        ref = s.xi
        for _ in range(8):
            ref = al.conjugate(ref, random_element(s.g_vee, rng))
        assert _rel(pt, ref) <= 1e-12
        assert _rel(random_orbit_point(s, seed), ref) <= 1e-12


@pytest.mark.parametrize("rid,params", _STRUCTURAL_SPACES)
def test_stacked_flat_points_match_flat_model(rid, params):
    s = atlas.instance(rid, *params)
    st_ = ob.structure(s)
    beta = st_.sigma_bar_roots.covectors[0]
    vs = np.random.default_rng(9).normal(size=(30, len(s.abar)))
    # half of them slid onto the half-period shell of beta
    vs[::2] += np.outer((np.pi / 2.0 - vs[::2] @ beta) / (beta @ beta), beta)
    pts = ob._flat_points(s, vs)
    dist = ob._flat_cut_distance(s, vs)
    for v, pt, d in zip(vs, pts, dist):
        assert _rel(pt, flat_model(s, v)) <= 1e-12
        assert (d < 1e-6) == delta_contains(s, v, 1e-6)
    assert delta_contains(s, vs[0], 1e-6)


def _cut_oracle_loop(model, s, samples, seed, band):
    """The cut-locus oracle one sample at a time, through flat_model."""
    st_ = ob.structure(s)
    roots = st_.sigma_bar_roots.covectors
    rng = np.random.default_rng(seed)
    scale = np.pi / max(np.linalg.norm(r) for r in roots)
    r_dim = len(s.a_flat)
    live = [b for b in roots if np.linalg.norm(b[:r_dim]) > 1e-9]
    # the oracle's draws: the shell samples' roots, vectors and shell
    # indices, then the uniform samples
    n_on = (samples + 1) // 2
    betas = rng.integers(len(live), size=n_on)
    shell_us = rng.normal(size=(n_on, r_dim)) * scale * 0.3
    shells = rng.integers(-1, 1, size=n_on)
    off_us = rng.normal(size=(samples - n_on, r_dim)) * scale
    mism = skipped = tested = 0
    drawn = []
    for i in range(samples):
        on_shell = i % 2 == 0
        v = np.zeros(len(s.abar))
        drawn.append(v)
        if on_shell:
            bsub = live[betas[i // 2]][:r_dim]
            u = shell_us[i // 2]
            target = np.pi / 2.0 + np.pi * shells[i // 2]
            v[:r_dim] = u + (target - bsub @ u) * bsub / (bsub @ bsub)
            if ob._flat_cut_distance(s, v) > band / 10.0:
                skipped += 1
                continue
        else:
            v[:r_dim] = off_us[i // 2]
            if ob._flat_cut_distance(s, v) < 1e-4:
                skipped += 1
                continue
        geo = ob._geometric_cut_indicator(model, s, flat_model(s, v)[None])[0]
        tested += 1
        oracle = geo < 1e-6 if on_shell else geo > 1e-6
        if delta_contains(s, v, band) != on_shell or not oracle:
            mism += 1
    return {"model": model, "samples": samples, "tested": tested,
            "skipped": skipped, "mismatches": mism}, np.array(drawn)


@pytest.mark.parametrize("model", sorted(ob.CUT_MODEL_ROWS))
def test_stacked_cut_oracle_matches_the_sample_loop(model, monkeypatch):
    rid, params = ob.CUT_MODEL_ROWS[model]
    s = atlas.instance(rid, *params)
    for seed in (0, 1):
        want, drawn = _cut_oracle_loop(model, s, 300, seed, 1e-6)
        seen = []
        dist = ob._flat_cut_distance
        monkeypatch.setattr(ob, "_flat_cut_distance",
                            lambda s, v: seen.append(v) or dist(s, v))
        got = ob.cut_locus_oracle_check(model, samples=300, seed=seed)
        monkeypatch.undo()
        assert got == want
        # the oracle drew the samples the loop evaluates
        assert _rel(seen[0], drawn) <= 1e-12


def test_cut_oracle_refuses_an_unknown_model():
    with pytest.raises(ValueError):
        ob.cut_locus_oracle_check("torus")


def _ad_on_k(s, x):
    """ad of the matrix x on k, from the commutators [x, k_i] projected on
    the k rows; independent of the structure constants."""
    ks = s.g_vee.from_coords(s.sigma_decomp[0])
    return s.sigma_decomp[0] @ s.g_vee.coords(x @ ks - ks @ x).T


@pytest.mark.parametrize("rid,params", _STRUCTURAL_SPACES)
def test_stacked_moment_check_matches_moment_tn(rid, params, monkeypatch):
    s = atlas.instance(rid, *params)
    st_ = ob.structure(s)
    g = s.g_vee
    covs = st_.sigma_roots.covectors
    # the oracle's draws: flat directions, radius factors, k generators
    rng = np.random.default_rng(21)
    us = rng.normal(size=(120, len(s.a_flat)))
    ts = rng.uniform(size=120)
    ks = rng.normal(size=(120, s.sigma_decomp[0].shape[0]))
    ref = {"interior_pass": 0, "interior_total": 0,
           "exterior_pass": 0, "exterior_total": 0}
    worst, points = 0.0, []
    for i in range(120):
        interior = i < 60
        u = us[i]
        m = np.abs(covs @ u).max()
        if m < 1e-9:
            continue
        lo, hi = (0.1, 0.95) if interior else (1.05, 2.0)
        t = lo + (hi - lo) * ts[i]
        x_coords = u * (t * atlas.rank_ratio(s) / m)
        x_lift = g.from_coords(x_coords @ s.a_flat)
        k_gen = g.from_coords(ks[i] @ s.sigma_decomp[0])
        x_pt = al.conjugate(s.xi, k_gen)
        # the tangent at x_pt of the generator k . (-X): k . [X, xi]
        vel = al.conjugate(al.bracket(x_lift, s.xi), k_gen)
        mu = moment_tn(s, x_pt, vel)
        points.append(x_pt)
        stacked = ob._momentum_tn(s, x_pt[None], vel[None])[0]
        assert _rel(stacked, mu) <= 1e-12
        lam = np.abs(np.linalg.eigvalsh(1j * _ad_on_k(s, mu))).max()
        worst = max(worst, abs(lam - np.abs(covs @ x_coords).max()))
        side = "interior" if interior else "exterior"
        ref[f"{side}_total"] += 1
        ref[f"{side}_pass"] += int((lam < atlas.rank_ratio(s)) == interior)
    seen = []
    momentum = ob._momentum_tn
    monkeypatch.setattr(ob, "_momentum_tn",
                        lambda s, x, v: seen.append(x) or momentum(s, x, v))
    got = ob.moment_image_spectrum_check(s, samples=120, seed=21)
    monkeypatch.undo()
    # the oracle took the momentum at the points the loop visits
    assert _rel(np.concatenate(seen), np.array(points)) <= 1e-12
    assert {k: got[k] for k in ref} == ref
    assert abs(got["max_spectral_mismatch"] - worst) <= 1e-12


def test_stacked_momentum_refuses_a_point_off_the_real_form():
    s = atlas.instance("quadric_real", 1, 2)
    on = s.xi
    off = random_orbit_point(s, 12)
    ob._momentum_tn(s, np.stack([on, on]), np.zeros((2,) + on.shape))
    with pytest.raises(ob.NotOnRealForm):
        ob._momentum_tn(s, np.stack([on, off]), np.zeros((2,) + on.shape))


def test_sampling_oracles_ignore_the_block_size(monkeypatch):
    s = atlas.instance("unitary_group", 2)

    def run():
        return (ob.moment_image_spectrum_check(s, samples=100, seed=2),
                ob.cut_locus_oracle_check("cp1", samples=100, seed=2),
                ob.random_orbit_points(s, range(10)))

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


class _CountingRng:
    """A Generator that records the name of each normal, uniform and
    integers call made on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if name not in ("normal", "uniform", "integers"):
            return attr

        def counted(*args, **kwargs):
            self._calls.append(name)
            return attr(*args, **kwargs)
        return counted


# oracle -> (call at a sample count, its Generator calls in order)
_DRAWS = {
    "moment": (lambda s, n: ob.moment_image_spectrum_check(s, samples=n),
               ("unitary_group", (2,)), ["normal", "uniform", "normal"]),
    "cut": (lambda s, n: ob.cut_locus_oracle_check("cp1", samples=n),
            ("grassmann_real", (1, 1)),
            ["integers", "normal", "integers", "normal"]),
    "ball": (lambda s, n: fin.unit_ball_vs_box(s, samples=n),
             ("unitary_group", (2,)), ["normal", "uniform"]),
}


@pytest.mark.parametrize("oracle", sorted(_DRAWS))
def test_sampling_oracles_draw_once_per_distribution(oracle, monkeypatch):
    # the number of Generator calls does not grow with the sample count
    call, (rid, params), want = _DRAWS[oracle]
    s = atlas.instance(rid, *params)
    make = np.random.default_rng
    calls = []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a, **k: _CountingRng(make(*a, **k), calls))
    for n in (50, 500):
        calls.clear()
        call(s, n)
        assert calls == want, n


# --- the descent step is the Gauss-Newton step near the critical set -------

@pytest.mark.parametrize("rid,params", [
    ("grassmann_complex_hermitian", (1, 1)), ("unitary_group", (3,)),
    ("symplectic_group", (2,)), ("quadric_complex_hermitian", (3,))])
def test_descent_step_is_the_gauss_newton_step(rid, params, monkeypatch):
    # at a critical point x0, J = -ad_xi ad_x0 has J^T J = 1 on the normal
    # space, so the Gauss-Newton step -J^+ [xi, x] is -J^T [xi, x] to second
    # order in the distance.  Off the critical set J also gains singular
    # values of the order of the distance, along the critical set; the cut
    # at 1e-2 keeps exactly the rank of J at x0, so lstsq (a test-only
    # oracle) solves on the normal space
    s = atlas.instance(rid, *params)
    g = s.g_vee
    torus = rt.cascade_strongly_orthogonal(g, *s.theta_decomp, s.xi)[2]
    adxi = al.ad_operator(g, s.xi)
    rng = np.random.default_rng(36)
    x0s = g.from_coords(_batch_weyl_orbit(s)[0] @ torus)
    # tangent generators u move each x0 by |[u, x0]| = |u| = 1e-4
    us = al.ad_operator(g, x0s) @ rng.normal(size=(len(x0s), g.dim, 1))
    us *= 1e-4 / np.linalg.norm(us, axis=1, keepdims=True)
    xs = al.conjugate(x0s, g.from_coords(us[..., 0]))
    gens = []  # the generators of the descent's steps, first step first
    expm = al.expm_skew

    def record(a):
        gens.append(a)
        return expm(a)

    monkeypatch.setattr(al, "expm_skew", record)
    ob._descend(s, xs)
    steps = g.coords(gens[0])
    assert len(steps) == len(xs)
    for x0, x, step in zip(x0s, xs, steps):
        r = g.coords(al.bracket(s.xi, x))
        gn, _, rank, _ = np.linalg.lstsq(-adxi @ al.ad_operator(g, x), -r,
                                         rcond=1e-2)
        assert rank == np.linalg.matrix_rank(adxi @ al.ad_operator(g, x0))
        assert np.linalg.norm(step - gn) <= 1e-5 * np.linalg.norm(gn)


# --- the descent step, from anywhere on the orbit --------------------------
# rows where a least-squares descent step once failed in LAPACK, and a
# quadric whose levels have several Weyl components

_DESCENT_ROWS = [("unitary_group", (4,)), ("symplectic_group", (2,)),
                 ("grassmann_quaternionic", (2, 2)),
                 ("quadric_complex_hermitian", (3,))]


def _record_generators(monkeypatch):
    """Patch al.expm_skew to keep each exponent it is given, in order."""
    gens, expm = [], al.expm_skew

    def record(a):
        gens.append(a)
        return expm(a)

    monkeypatch.setattr(al, "expm_skew", record)
    return gens


@pytest.mark.parametrize("rid,params", _DESCENT_ROWS)
def test_descent_step_runs_down_the_steepest_merit_direction(
        rid, params, monkeypatch):
    # -G is the gradient of the merit |[xi, x]|^2 / 2 over generators u of
    # x <- Ad(e^u) x, in the trace metric, at every point of the orbit, not
    # only near the critical set.  Central differences along a
    # trace-orthonormal basis of g measure that gradient with no use of the
    # bracket formula; the first step must point against it, with norm
    # min(|gradient|, 0.5)
    s = atlas.instance(rid, *params)
    g = s.g_vee
    n = g.size

    def merit(x):
        return 0.5 * np.sum(al.bracket(s.xi, x) ** 2, axis=(-2, -1))

    def slope(x, u, h=1e-5):
        return (merit(al.conjugate(x, u, h))
                - merit(al.conjugate(x, u, -h))) / (2 * h)

    frame = np.linalg.qr(g.from_coords(np.eye(g.dim)).reshape(g.dim, -1).T)[0]
    frame = frame.T.reshape(g.dim, n, n)
    xs = ob.random_orbit_points(s, range(6))
    gens = _record_generators(monkeypatch)
    ob._descend(s, xs)
    assert len(gens[0]) == len(xs)
    for x, a in zip(xs, gens[0]):
        grad = np.array([slope(x, e) for e in frame])
        size = np.linalg.norm(grad)
        tol = 1e-6 * max(1.0, size)
        assert size > 1e-3  # a random start is off the critical set
        assert abs(np.linalg.norm(a) - min(size, 0.5)) <= tol
        assert abs(slope(x, a / np.linalg.norm(a)) + size) <= tol


@pytest.mark.parametrize("rid,params", _DESCENT_ROWS)
def test_descent_keeps_every_restart_on_the_orbit(rid, params):
    # up to 60 products by exponentials of skew generators: the ends keep
    # the spectrum of xi, so no step drifts off the orbit
    s = atlas.instance(rid, *params)
    ends = s.g_vee.from_coords(
        ob._descend(s, ob.random_orbit_points(s, range(20))))
    want = np.linalg.eigvalsh(s.xi @ s.xi.T)
    got = np.linalg.eigvalsh(ends @ ends.swapaxes(-1, -2))
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, want.max())


@pytest.mark.parametrize("rid,params", _DESCENT_ROWS)
def test_descent_converges_quadratically_next_to_the_critical_set(
        rid, params, monkeypatch):
    # at distance 1e-4 from each Weyl point the residual falls roughly as
    # its square, 1e-4 -> 1e-8 -> 1e-16, below the stop within three steps;
    # no generator of any step, far or near, exceeds the cap 0.5
    s = atlas.instance(rid, *params)
    g = s.g_vee
    torus = rt.cascade_strongly_orthogonal(g, *s.theta_decomp, s.xi)[2]
    x0s = g.from_coords(_batch_weyl_orbit(s)[0] @ torus)
    rng = np.random.default_rng(37)
    us = al.ad_operator(g, x0s) @ rng.normal(size=(len(x0s), g.dim, 1))
    us *= 1e-4 / np.linalg.norm(us, axis=1, keepdims=True)
    near = al.conjugate(x0s, g.from_coords(us[..., 0]))
    far = ob.random_orbit_points(s, range(20))
    gens = _record_generators(monkeypatch)
    ob._descend(s, near)
    assert 0 < len(gens) <= 3
    ob._descend(s, far)
    assert max(np.linalg.norm(a, axis=(-2, -1)).max()
               for a in gens) <= 0.5 * (1 + 1e-12)


# --- the gradient certificate ----------------------------------------------

def _frame_gradient_norms(s, a):
    """|grad H| at every orbit point of a (k, dim) coordinate stack, as
    dH(v) = -2 pi <xi, v> in -B/c on the rows of tangent_frame: no use of
    ad_x^2 = -1 on the tangent space."""
    g = s.g_vee
    dxi = calibrated_metric(s) @ g.coords(s.xi)
    return np.array([np.linalg.norm(
        2.0 * np.pi * tangent_frame(s, g.from_coords(row)) @ dxi)
        for row in a])


@pytest.mark.parametrize("rid,params", _DESCENT_ROWS + [
    ("grassmann_complex_hermitian", (1, 1)), ("sphere", (3,))])
def test_gradient_norm_matches_the_tangent_frames(rid, params):
    # to 1e-12 relative at random orbit points; at descent ends, where the
    # gradient is round-off, to 1e-12 of 2 pi |xi|, the largest |grad H|
    s = atlas.instance(rid, *params)
    a = s.g_vee.coords(ob.random_orbit_points(s, range(20)))
    want = _frame_gradient_norms(s, a)
    assert np.all(np.abs(ob._gradient_norms(s, a) - want) <= 1e-12 * want)
    ends = ob._descend(s, np.concatenate(
        [s.xi[None], ob.random_orbit_points(s, range(20, 40))]))
    scale = 2.0 * np.pi * np.sqrt(ob.inner(s.xi, s.xi))
    assert np.abs(ob._gradient_norms(s, ends)
                  - _frame_gradient_norms(s, ends)).max() <= 1e-12 * scale


@pytest.mark.parametrize("stretch,refused", [(1e-8, True), (1e-11, False)])
def test_an_end_off_the_orbit_is_refused(stretch, refused, monkeypatch):
    # (1 + stretch) x keeps [xi, x] = 0 at a critical end, so the bracket
    # certificate alone would pass it; the spectrum of x is off that of xi
    # by stretch, and the guard cuts at 1e-9
    s = atlas.instance("grassmann_complex_hermitian", 1, 1)
    descend = ob._descend

    def stretched(s, pts):
        ends = descend(s, pts)
        ends[0] *= 1.0 + stretch
        return ends

    monkeypatch.setattr(ob, "_descend", stretched)
    if refused:
        with pytest.raises(ob.NonConvergence, match="left the orbit"):
            ob.find_critical_points(s, restarts=5, seed=0)
    else:
        assert ob.find_critical_points(s, restarts=5, seed=0)
