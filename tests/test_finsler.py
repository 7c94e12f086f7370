"""Schatten norms on the flat: polytope balls, metric ratios, monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspacelab import algebra as al
from rspacelab import atlas
from rspacelab import finsler as fin
from rspacelab import orbit as ob
from rspacelab import reporting as rp
from rspacelab import roots as rt
from rspacelab.cli import DEFAULT_TOL
from rspacelab.reporting import _STRUCTURAL_SPACES


def evaluate(roots, x):
    """alpha(x) for every root, x in flat coordinates."""
    return roots.covectors @ x


def norm(s, p, u):
    """F_p of one flat vector u."""
    return float(fin._schatten(fin.singular_values(s, [u]), p)[0])


_U2 = [atlas.instantiate(atlas.descriptor("unitary_group", 2))]

ROWS = [("sphere", (2,)), ("sphere", (3,)), ("quadric_real", (1, 2)),
        ("quadric_real", (2, 2)), ("unitary_group", (2,)),
        ("grassmann_real", (1, 2)), ("grassmann_quaternionic", (1, 1)),
        ("grassmann_complex_hermitian", (1, 1))]


@pytest.mark.parametrize("rid,params", ROWS)
def test_spectral_ball_is_the_root_box(rid, params):
    r = fin.unit_ball_vs_box(atlas.instance(rid, *params), samples=400, seed=0)
    assert r["fraction"] == 1.0


@pytest.mark.parametrize("rid,params,ratio2", [
    ("sphere", (2,), 1.0),
    ("sphere", (3,), 2.0),
    ("quadric_real", (1, 2), 1.0),
    ("grassmann_real", (1, 2), 0.5),
    ("unitary_group", (2,), 2.0),
    ("grassmann_quaternionic", (1, 1), 3.0),
])
def test_quadratic_norm_is_a_metric_multiple(rid, params, ratio2):
    r = fin.f2_vs_riemannian(atlas.instance(rid, *params), samples=150, seed=0)
    assert r["identity"] <= 1e-8 and r["isotropic"] is True
    assert r["spread"] <= 1e-8
    # F_2^2 / |a|^2 in the trace form
    assert abs(r["constant"] ** 2 - ratio2) < 1e-9


@pytest.mark.parametrize("rid,params", [("quadric_real", (2, 3)),
                                        ("quadric_real", (2, 4))])
def test_quadratic_check_holds_where_the_roots_weigh_unequally(
        rid, params, monkeypatch):
    # the two orthogonal roots carry multiplicities q - 1 and p - 1, so
    # F_2 is no constant multiple of |a|; it is the weighted root sum, and
    # the check passes, until one multiplicity is off by one
    s = atlas.instance(rid, *params)
    r = fin.f2_vs_riemannian(s, samples=120, seed=0)
    assert r["isotropic"] is False and r["spread"] > 0.1
    quadratic = [c for c in rp.suite_finsler([(rid, params)], 79, DEFAULT_TOL)
                 if c["id"].startswith("finsler.quadratic")]
    assert [c["status"] for c in quadratic] == ["pass"]
    st_ = ob.structure(s)
    roots = st_.sigma_roots
    mults = roots.multiplicities.copy()
    mults[0] += 1
    mutated = ob.InstanceStructure(**{**vars(st_), "sigma_roots":
                                      rt.RestrictedRootSystem(
                                          roots.covectors, mults,
                                          roots.zero_multiplicity)})
    monkeypatch.setattr(ob, "structure", lambda x: mutated)
    quadratic = [c for c in rp.suite_finsler([(rid, params)], 79, DEFAULT_TOL)
                 if c["id"].startswith("finsler.quadratic")]
    assert [c["status"] for c in quadratic] == ["fail"]


@pytest.mark.parametrize("rid,params", ROWS)
def test_schatten_chain_is_monotone(rid, params):
    r = fin.norm_monotonicity(atlas.instance(rid, *params), samples=100, seed=0)
    assert r["worst_violation"] <= 1e-10


@pytest.mark.parametrize("rid,params,mult", [
    ("sphere", (2,), 2), ("sphere", (3,), 4), ("sphere", (4,), 6),
    ("grassmann_real", (1, 2), 2), ("grassmann_quaternionic", (1, 1), 6),
    ("symplectic_group", (1,), 4),
    ("grassmann_complex_hermitian", (1, 1), 2),
])
def test_trace_norm_multiplier_on_line_flats(rid, params, mult):
    r = fin.norm_monotonicity(atlas.instance(rid, *params), samples=40, seed=0)
    assert r["rank1_single_magnitude"] is True
    assert abs(r["rank1_multiplier"] - mult) < 1e-9
    assert r["rank1_nonzero_count"] == mult


def test_two_magnitude_spectra_break_the_multiplier():
    # +/- alpha and +/- 2 alpha both act, so trace/spectral is not the count
    r = fin.norm_monotonicity(atlas.instance("grassmann_complex_hermitian", 1, 2),
                              samples=40, seed=0)
    assert r["rank1_single_magnitude"] is False
    assert abs(r["rank1_multiplier"] - r["rank1_nonzero_count"]) > 0.1


def test_rootless_flat_degenerates():
    rp1 = atlas.instance("grassmann_real", 1, 1)
    assert fin.norm_kernel(rp1).shape[0] == len(rp1.a_flat)
    with pytest.raises(fin.DegenerateNorm):
        fin.f2_vs_riemannian(rp1)
    # the box test stays vacuously perfect: no roots, everything inside
    assert fin.unit_ball_vs_box(rp1, samples=50, seed=0)["fraction"] == 1.0


def test_kernel_is_empty_on_rooted_rows():
    assert fin.norm_kernel(atlas.instance("sphere", 2)).shape[0] == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.floats(-5.0, 5.0))
def test_norm_homogeneity(seed, t):
    s = _U2[0]
    rng = np.random.default_rng(seed)
    u = rng.normal(size=len(s.a_flat))
    fu = norm(s, 2.0, u)
    assert abs(norm(s, 2.0, t * u) - abs(t) * fu) < 1e-8 * max(1.0, fu)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_norm_triangle_inequality(seed):
    s = _U2[0]
    rng = np.random.default_rng(seed)
    u = rng.normal(size=len(s.a_flat))
    v = rng.normal(size=len(s.a_flat))
    for p in (1.0, 2.0, np.inf):
        assert norm(s, p, u + v) <= norm(s, p, u) + norm(s, p, v) + 1e-10


def test_spectral_norm_matches_largest_root_value():
    s = atlas.instance("quadric_real", 2, 2)
    st_ = ob.structure(s)
    rng = np.random.default_rng(4)
    covs = st_.sigma_roots.covectors
    for _ in range(20):
        u = rng.normal(size=len(s.a_flat))
        fu = norm(s, np.inf, u)
        assert abs(fu - np.abs(covs @ u).max()) < 1e-9
        # the strict root box of radius r holds u iff f(u) < r
        box = np.abs(evaluate(st_.sigma_roots, u)).max()
        assert box < fu + 1e-9
        assert not box < fu - 1e-9


# --- block evaluation against the per-sample loops ------------------------

def _loop_norm(s, p, u):
    """F_p(u) from one ad matrix of the lifted flat vector, built from the
    commutators [x, k_i] projected on the k rows."""
    g = s.g_vee
    x = g.from_coords(u @ s.a_flat)
    ks = g.from_coords(s.sigma_decomp[0])
    adx = s.sigma_decomp[0] @ g.coords(x @ ks - ks @ x).T
    sv = np.abs(np.linalg.eigvalsh(1j * adx))
    return sv.max() if np.isinf(p) else (sv ** p).sum() ** (1.0 / p)


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


@pytest.mark.parametrize("rid,params", _STRUCTURAL_SPACES)
def test_block_norm_matches_the_one_row_calls(rid, params):
    s = atlas.instance(rid, *params)
    us = np.random.default_rng(31).normal(size=(60, len(s.a_flat)))
    for p in (1.0, 2.0, 4.0, np.inf):
        block = fin._schatten(fin.singular_values(s, us), p)
        for u, v in zip(us, block):
            assert _close(v, norm(s, p, u)) and _close(v, _loop_norm(s, p, u))


@pytest.mark.parametrize("rid,params", sorted(
    (d.id, d.params) for d in atlas.list_entries() if d.instantiable))
def test_spectral_norms_are_the_largest_singular_values(rid, params):
    s = atlas.instance(rid, *params)
    us = np.random.default_rng(37).normal(size=(50, len(s.a_flat)))
    want = fin.singular_values(s, us).max(axis=1)
    assert np.all(np.abs(fin.spectral_norms(s, us) - want) <= 1e-14 * want)


@pytest.mark.parametrize("rid,params", _STRUCTURAL_SPACES)
def test_block_oracles_match_the_sample_loops(rid, params, monkeypatch):
    s = atlas.instance(rid, *params)
    st_ = ob.structure(s)

    # unit_ball_vs_box, one sample at a time over the oracle's draws
    rng = np.random.default_rng(3)
    us = rng.normal(size=(300, len(s.a_flat)))
    stretch = rng.uniform(0.3, 1.7, size=300)
    agree, tested = 0, []
    for u, t in zip(us, stretch):
        fu = _loop_norm(s, np.inf, u)
        if fu > 1e-12:
            u = u * (t / fu)
        tested.append(u)
        agree += ((_loop_norm(s, np.inf, u) < 1.0)
                  == (np.abs(evaluate(st_.sigma_roots, u)).max() < 1.0))
    seen = []
    spectral_norms = fin.spectral_norms
    monkeypatch.setattr(fin, "spectral_norms",
                        lambda s, us: seen.append(us) or spectral_norms(s, us))
    assert fin.unit_ball_vs_box(s, samples=300, seed=3)["agree"] == agree
    monkeypatch.undo()
    # the ball test ran on the samples the loop tested
    tested = np.array(tested)
    scale = np.maximum(np.abs(tested).max(axis=1), 1.0)
    assert np.all(np.abs(seen[-1] - tested).max(axis=1) <= 1e-12 * scale)

    # f2_vs_riemannian
    ker = fin.norm_kernel(s)
    rng = np.random.default_rng(4)
    ratios, identity = [], 0.0
    for _ in range(90):
        u = rng.normal(size=len(s.a_flat))
        u = u - ker.T @ (ker @ u)
        if np.linalg.norm(u) < 1e-6:
            continue
        x = s.g_vee.from_coords(u @ s.a_flat)
        f2 = _loop_norm(s, 2.0, u)
        ratios.append(f2 / np.sqrt(np.sum(x * x)))
        weighted = evaluate(st_.sigma_roots, u) ** 2 \
            @ st_.sigma_roots.multiplicities
        identity = max(identity, abs(f2 ** 2 - weighted) / f2 ** 2)
    r = fin.f2_vs_riemannian(s, samples=90, seed=4)
    assert r["samples"] == len(ratios)
    # both residuals are round-off
    assert max(r["identity"], identity) <= 1e-12
    assert _close(r["constant"], float(np.median(ratios)))
    assert abs(r["spread"] - (max(ratios) - min(ratios)) / r["constant"]) \
        <= 1e-12

    # norm_monotonicity
    rng = np.random.default_rng(5)
    exps = [1.0, 2.0, 4.0, np.inf]
    worst, mult = 0.0, None
    for _ in range(70):
        u = rng.normal(size=len(s.a_flat))
        vals = [_loop_norm(s, p, u) for p in exps]
        for lo, hi in zip(vals[1:], vals[:-1]):
            worst = max(worst, lo - hi)
        if len(s.a_flat) == 1 and vals[-1] > 1e-12:
            mult = vals[0] / vals[-1]
    mo = fin.norm_monotonicity(s, samples=70, seed=5)
    assert abs(mo["worst_violation"] - worst) <= 1e-12
    assert ("rank1_multiplier" in mo) == (mult is not None)
    if mult is not None:
        assert _close(mo["rank1_multiplier"], mult)


def test_block_size_changes_no_value(monkeypatch):
    s = atlas.instance("unitary_group", 2)
    whole = (fin.unit_ball_vs_box(s, samples=200, seed=8),
             fin.f2_vs_riemannian(s, samples=50, seed=8),
             fin.norm_monotonicity(s, samples=50, seed=8))
    monkeypatch.setattr(al, "_BLOCK_ENTRIES", 3 * 49)  # blocks of 3 samples
    cut = (fin.unit_ball_vs_box(s, samples=200, seed=8),
           fin.f2_vs_riemannian(s, samples=50, seed=8),
           fin.norm_monotonicity(s, samples=50, seed=8))
    assert whole[0] == cut[0]
    for a, b in zip(whole[1:], cut[1:]):
        assert a.keys() == b.keys()
        for k in a:
            assert np.allclose(a[k], b[k], rtol=1e-12, atol=1e-15)
