"""Restricted roots, cascades and the root-box predicate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspacelab import algebra as al
from rspacelab import atlas
from rspacelab import orbit as ob
from rspacelab import reporting as rp
from rspacelab import roots as rt
from test_orbit import _CATALOGUE, _DOUBLED_SWEEP

# module-level instance for the hypothesis test (fixtures cannot feed @given)
_SPHERE = [atlas.instantiate(atlas.descriptor("sphere", 2))]

STRUCT_ROWS = [("sphere", (2,)), ("sphere", (3,)), ("quadric_real", (1, 2)),
               ("quadric_real", (2, 2)), ("unitary_group", (2,)),
               ("grassmann_real", (1, 2)), ("grassmann_quaternionic", (1, 1)),
               ("grassmann_complex_hermitian", (1, 1))]


@pytest.mark.parametrize("rid,params", STRUCT_ROWS)
def test_multiplicities_fill_the_algebra(rid, params):
    st_ = ob.structure(atlas.instance(rid, *params))
    rr = st_.sigma_roots
    total = rr.multiplicities.sum() + rr.zero_multiplicity
    assert total == len(atlas.instance(rid, *params).sigma_decomp[0])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sphere_root_pattern(n):
    # one +/- pair whose multiplicity is the equator dimension
    rr = ob.structure(atlas.instance("sphere", n)).sigma_roots
    assert len(rr.covectors) == 2
    assert set(rr.multiplicities.tolist()) == {n - 1}
    a, b = rr.covectors
    assert np.linalg.norm(a + b) < 1e-9


def test_split_quadric_root_pattern():
    rr = ob.structure(atlas.instance("quadric_real", 2, 2)).sigma_roots
    assert len(rr.covectors) == 4
    assert all(rr.multiplicities == 1)
    covs = rr.covectors
    # two orthogonal +/- pairs, one per sphere factor
    gram = covs @ covs.T
    off = np.abs(gram[np.abs(np.abs(gram) - np.abs(gram).max()) > 1e-9])
    assert off.max() < 1e-9 if off.size else True
    for a in covs:
        assert min(np.linalg.norm(a + b) for b in covs) < 1e-9


def test_covectors_pair_up():
    for rid, params in STRUCT_ROWS:
        covs = ob.structure(atlas.instance(rid, *params)).sigma_roots.covectors
        for a in covs:
            assert min(np.linalg.norm(a + b) for b in covs) < 1e-8


@pytest.mark.parametrize("rid,params", STRUCT_ROWS)
def test_cascade_count_is_complex_rank(rid, params):
    s = atlas.instance(rid, *params)
    gammas, *_ = rt.cascade_strongly_orthogonal(s.g_vee, *s.theta_decomp,
                                                s.xi)
    assert len(gammas) == len(s.abar)


def test_cascade_triples_satisfy_sl2_relations():
    s = atlas.instance("sphere", 3)
    _, triples, _, _ = rt.cascade_strongly_orthogonal(s.g_vee,
                                                      *s.theta_decomp, s.xi)

    def cb(a, b):
        return a @ b - b @ a

    cn = np.linalg.norm  # Frobenius norm of a complex matrix
    for h, x, y in triples:
        assert cn(cb(h, x) - 2.0 * x) < 1e-8 * cn(x)
        assert cn(cb(h, y) + 2.0 * y) < 1e-8 * cn(y)
        assert cn(cb(x, y) - h) < 1e-8 * cn(h)


@pytest.mark.parametrize("rid,params", sorted(set(_CATALOGUE
                                                  + _DOUBLED_SWEEP)))
def test_strongly_orthogonal_sums_are_not_roots(rid, params):
    # float geometry: no sum or difference of two cascade roots lies near
    # a root of the torus clustered afresh from its ad operators
    s = atlas.instance(rid, *params)
    gammas, _, torus, _ = rt.cascade_strongly_orthogonal(
        s.g_vee, *s.theta_decomp, s.xi)
    gammas = np.array(gammas)
    assert len(gammas) == len(s.abar)
    covs = rt.compute_restricted_roots(
        al.ad_from_coords(s.g_vee, torus)).covectors
    for i in range(len(gammas)):
        for j in range(i + 1, len(gammas)):
            for sign in (1.0, -1.0):
                cand = gammas[i] + sign * gammas[j]
                dist = np.min(np.linalg.norm(covs - cand, axis=1))
                assert dist > 1e-6, "cascade produced a non-orthogonal pair"


def test_a_root_off_the_lattice_has_no_cartan_numbers():
    roots = ob.structure(atlas.instance("unitary_group", 3)).torus_roots
    assert np.array_equal(np.diag(rt.cartan_numbers(roots)), [2] * len(roots))
    roots = roots.copy()
    roots[0] *= 1.01
    with pytest.raises(AssertionError, match="Cartan number off the integers"):
        rt.cartan_numbers(roots)


def evaluate(roots, x):
    """alpha(x) for every root, x in flat coordinates."""
    return roots.covectors @ x


def box_contains(roots, x, r):
    """Strict box test: max over roots of |alpha(x)| < r."""
    if not len(roots.covectors):
        return True
    return bool(np.abs(evaluate(roots, x)).max() < r)


def test_box_boundary_is_excluded():
    st_ = ob.structure(atlas.instance("sphere", 2))
    rr = st_.sigma_roots
    alpha = rr.covectors[0]
    x = alpha / (alpha @ alpha)  # alpha(x) = 1 exactly
    assert not box_contains(rr, x, 1.0)
    assert box_contains(rr, 0.999999 * x, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.1, 10.0))
def test_box_membership_is_scale_invariant(seed, t):
    s = _SPHERE[0]
    rr = ob.structure(s).sigma_roots
    rng = np.random.default_rng(seed)
    x = rng.normal(size=1)
    r = float(rng.uniform(0.2, 2.0))
    assert box_contains(rr, x, r) == box_contains(rr, t * x, t * r)


def test_rootless_flat_contains_everything():
    # the circle and the torus have no isotropy roots at all: an empty
    # covector array with one column per flat direction
    for rid, params in (("grassmann_real", (1, 1)), ("quadric_real", (1, 1))):
        s = atlas.instance(rid, *params)
        rr = ob.structure(s).sigma_roots
        assert rr.covectors.shape == (0, len(s.a_flat))
        assert rr.multiplicities.shape == (0,)
        assert rr.zero_multiplicity == len(s.sigma_decomp[0])
        assert box_contains(rr, np.ones(len(s.a_flat)) * 1e6, 1.0)


def test_maximal_abelian_is_abelian_and_certified():
    s = atlas.instance("quadric_real", 2, 2)
    (k, _), (k_theta, _) = s.sigma_decomp, s.theta_decomp
    # l = k cap p_vee: the span of k that k_theta annihilates
    a = rt.find_maximal_abelian(s.g_vee, rt._kernel_within(k, k_theta))
    assert a.shape == (2, s.g_vee.dim)
    assert np.abs(a @ a.T - np.eye(2)).max() < 1e-12
    xs = s.g_vee.from_coords(a)
    for x in xs:
        for y in xs:
            assert np.abs(al.bracket(x, y)).max() < 1e-9


def _so24_torus():
    """so(24) and the coordinate rows of its 12 planes (2p, 2p + 1), which
    commute exactly: no nonzero of c joins two of them."""
    g = al.build_algebra("so", 24)
    rows = [np.flatnonzero(g.basis[:, 2 * p, 2 * p + 1])[0] for p in range(12)]
    return g, np.eye(g.dim)[rows]


def test_must_contain_with_a_small_last_coefficient_comes_first():
    # z lies 1e-13 off span(side) and has coefficient 1e-8 on its last row:
    # Gram-Schmidt on [z] + side normalizes a residual of 1e-8, which lifts
    # that offset into a twelfth row; the kernel of z in the span does not
    g, torus = _so24_torus()
    side = np.linalg.qr(np.random.default_rng(4).normal(size=(11, 11)))[0] \
        @ torus[:11]
    a = np.random.default_rng(5).normal(size=11)
    a[-1] = 1e-8
    z = a @ side + 1e-13 * torus[11]
    assert len(rt._gram_schmidt([z] + list(side))) == 12
    basis = rt.find_maximal_abelian(g, side, must_contain=[z])
    assert basis.shape == side.shape
    assert np.abs(basis[0] - z / np.linalg.norm(z)).max() <= 1e-12
    assert np.abs(basis @ basis.T - np.eye(11)).max() <= 1e-12
    assert np.abs(basis - basis @ side.T @ side).max() <= 1e-12


def test_must_contain_off_the_span_is_a_typed_error():
    # the twelfth plane commutes with the first eleven but is not among them
    g, torus = _so24_torus()
    with pytest.raises(rt.MaximalityNotCertified,
                       match=r"^12 rows with must_contain vs span dim 11$"):
        rt.find_maximal_abelian(g, torus[:11], must_contain=[torus[11]])


def _centralizer(alg, rows, side):
    """Dimension of the centralizer of rows in the span of the orthonormal
    rows side, from one SVD of ad(row) @ side.T stacked over the rows with
    a 1e-9 relative cut, and the singular values relative to the largest."""
    sv = np.linalg.svd((al.ad_from_coords(alg, rows) @ side.T)
                       .reshape(-1, len(side)), compute_uv=False)
    sv = sv / max(1.0, sv.max(initial=0.0))
    return len(side) - int(np.sum(sv > 1e-9)), sv


def _flat_pair_and_torus(s):
    """(rows, side) of a_flat in l, abar in theta's p and the cascade torus
    in theta's k, each side taken as instantiate and the cascade take it."""
    g = s.g_vee
    (k, _), (k_theta, p_theta) = s.sigma_decomp, s.theta_decomp
    adxi, eye = al.ad_operator(g, s.xi), np.eye(g.dim)
    l = rt._kernel_within(k, eye + 2.0 * adxi @ adxi + eye)
    torus = rt.find_maximal_abelian(g, k_theta,
                                    must_contain=[g.coords(s.xi)])
    return [(s.a_flat, l), (s.abar, p_theta), (torus, k_theta)]


WINDOW_EDGE = [("grassmann_complex_hermitian", (2, 9)),
               ("grassmann_complex_hermitian", (3, 9))]


@pytest.mark.parametrize("rid,params", atlas._DEFAULT_SWEEP + WINDOW_EDGE)
def test_the_centralizer_of_each_maximal_abelian_result_is_itself(rid, params):
    # maximality read independently of find_maximal_abelian's construction:
    # the rank cut sits in a clean gap, and dropping a row leaves a
    # centralizer larger than the rows that remain
    s = atlas.instance(rid, *params)
    for rows, side in _flat_pair_and_torus(s):
        dim, sv = _centralizer(s.g_vee, rows, side)
        assert dim == len(rows)
        assert not np.any((sv > 1e-12) & (sv < 1e-2))
        assert _centralizer(s.g_vee, rows[:-1], side)[0] > len(rows) - 1


@pytest.mark.parametrize("rid,params", atlas._DEFAULT_SWEEP + WINDOW_EDGE)
def test_the_certificates_pass_with_a_wide_margin(monkeypatch, rid, params):
    # each search takes one generic element, so its certificate must clear
    # the cut by orders of magnitude: the abelian residual is cut at 1e-10
    # and the joint-eigen residual at 1e-8, and over every point of the
    # size windows they stay below 1.1e-13 and 7.2e-12
    s = atlas.instance(rid, *params)
    for rows, _ in _flat_pair_and_torus(s):
        assert al.bracket_residual(s.g_vee, rows, rows,
                                   np.eye(s.g_vee.dim)) <= 1e-12
    residuals = []
    solve = rt._joint_eigen

    def measured(ads):
        alphas, vecs = solve(ads)
        residuals.append(max(np.abs(a @ vecs - 1j * alphas[:, j] * vecs).max()
                             for j, a in enumerate(ads)))
        return alphas, vecs

    monkeypatch.setattr(rt, "_joint_eigen", measured)
    ob.structure.__wrapped__(s)  # past the cache, so every solve runs
    assert len(residuals) == 3  # the torus roots and the two restricted systems
    assert max(residuals) <= 1e-10


@pytest.mark.parametrize("params,suites", [((2, 9), ["roots", "orbit",
                                                     "finsler"]),
                                           ((3, 9), ["roots"])])
def test_the_window_edge_passes_the_structure_suites(params, suites):
    report = rp.run_suites(suites, 1, "grassmann_complex_hermitian", params)
    assert {c["id"].split(".")[0] for c in report["checks"]} == set(suites)
    assert rp.all_passed(report)


def test_coordinates_in_a_subspace_refuse_a_vector_off_it():
    s = atlas.instance("sphere", 3)
    v = np.array([0.5, -2.0]) @ s.abar
    assert np.abs(rt.coords_in(s.abar, v) - [0.5, -2.0]).max() < 1e-12
    off = s.g_vee.coords(s.xi) - s.abar.T @ (s.abar @ s.g_vee.coords(s.xi))
    assert np.linalg.norm(off) > 0.1
    with pytest.raises(al.AlgebraMismatch):
        rt.coords_in(s.abar, v + off)


def test_a_matrix_where_coordinates_belong_raises_a_typed_error():
    # must_contain takes coordinate vectors; a matrix there is refused by
    # ad_from_coords, not by numpy
    s = atlas.instance("sphere", 2)
    k, _ = s.theta_decomp
    with pytest.raises(al.AlgebraMismatch):
        rt.find_maximal_abelian(s.g_vee, k, must_contain=[s.xi])


def test_generic_weights_are_square_roots_of_primes():
    assert np.allclose(rt.generic_weights(5) ** 2, [2, 3, 5, 7, 11])
    w = rt.generic_weights(400)
    assert len(w) == 400 and np.all(np.diff(w) > 0)
    assert np.array_equal(w[:5], rt.generic_weights(5))


class _CountedZeroWeights:
    """generic_weights degenerated to zeros, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, n):
        self.calls += 1
        return np.zeros(n)


def test_a_degenerate_element_fails_the_abelian_certificate(monkeypatch):
    # one generic element per search: the first failed certificate raises
    zero = _CountedZeroWeights()
    monkeypatch.setattr(rt, "generic_weights", zero)
    d = atlas.descriptor("sphere", 3)
    with pytest.raises(rt.MaximalityNotCertified, match="not abelian"):
        atlas.instantiate(d)
    assert zero.calls == 1


def test_a_degenerate_combination_fails_the_eigen_residual(monkeypatch):
    s = atlas.instantiate(atlas.descriptor("quadric_real", 2, 2))
    zero = _CountedZeroWeights()
    monkeypatch.setattr(rt, "generic_weights", zero)
    with pytest.raises(rt.ClusteringAmbiguous, match="residual"):
        rt.compute_restricted_roots(al.ad_from_coords(s.g_vee, s.abar))
    assert zero.calls == 1


def test_a_degenerate_element_fails_the_structure(monkeypatch):
    s = atlas.instantiate(atlas.descriptor("grassmann_complex_hermitian", 1, 2))
    monkeypatch.setattr(rt, "generic_weights", _CountedZeroWeights())
    with pytest.raises((rt.MaximalityNotCertified, rt.ClusteringAmbiguous)):
        ob.structure(s)


def test_a_degenerate_functional_fails_the_cascade(monkeypatch):
    s = atlas.instantiate(atlas.descriptor("grassmann_complex_hermitian", 1, 2))
    torus = rt.find_maximal_abelian(s.g_vee, s.theta_decomp[0],
                                    must_contain=[s.g_vee.coords(s.xi)])
    spaces = rt.complex_root_spaces(s.g_vee, torus)
    # only the functional degenerates: torus and roots are the generic ones
    monkeypatch.setattr(rt, "find_maximal_abelian", lambda *a, **k: torus)
    monkeypatch.setattr(rt, "complex_root_spaces", lambda *a: spaces)
    monkeypatch.setattr(rt, "generic_weights", _CountedZeroWeights())
    with pytest.raises(rt.ClusteringAmbiguous, match="vanishes on a root"):
        rt.cascade_strongly_orthogonal(s.g_vee, *s.theta_decomp, s.xi)


def _cluster_loop(alphas):
    """The clustering as one L-inf distance per pair, in a Python double
    loop: the lexsort-ordered greedy grouping, then the 10 TOL_ROOT test."""
    order = np.lexsort(alphas.T[::-1])
    groups = []
    for idx in order:
        for g in groups:
            if np.abs(alphas[idx] - alphas[g[0]]).max() <= rt.TOL_ROOT:
                g.append(idx)
                break
        else:
            groups.append([idx])
    centers = np.array([alphas[g].mean(axis=0) for g in groups])
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            d = np.abs(centers[i] - centers[j]).max()
            if d < 10 * rt.TOL_ROOT:
                raise rt.ClusteringAmbiguous(
                    f"root candidates separated by {d:.2e} < 10*tol")
    return centers, groups


_CLUSTER_ROWS = sorted(set(atlas._DEFAULT_SWEEP) | set(rp._STRUCTURAL_SPACES))


@pytest.mark.parametrize("rid,params", _CLUSTER_ROWS)
def test_clustering_matches_the_pairwise_loop(monkeypatch, rid, params):
    calls = []
    fast = rt._cluster_covectors

    def both(alphas):
        centers, groups = fast(alphas)
        want_centers, want_groups = _cluster_loop(alphas)
        assert np.array_equal(centers, want_centers)
        assert groups == want_groups
        calls.append(len(groups))
        return centers, groups

    monkeypatch.setattr(rt, "_cluster_covectors", both)
    # a fresh instance, so structure is not served from its cache
    ob.structure(atlas.instantiate(atlas.descriptor(rid, *params)))
    assert len(calls) == 3  # the torus roots and the two restricted systems


def test_near_root_candidates_are_ambiguous_to_both_clusterings():
    # two candidates 3 TOL_ROOT apart: two groups, whose centers lie closer
    # than 10 TOL_ROOT
    alphas = np.array([[1.0, 0.0], [1.0 + 3 * rt.TOL_ROOT, 0.0], [-1.0, 0.0]])
    for cluster in (rt._cluster_covectors, _cluster_loop):
        with pytest.raises(rt.ClusteringAmbiguous, match="< 10\\*tol"):
            cluster(alphas)
