"""Catalogue construction and the rank-ratio table."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rspacelab import algebra as al
from rspacelab import atlas, cli
from rspacelab import roots as rt

ROOT = Path(__file__).resolve().parents[1]


def test_full_sweep_reproduces_the_table():
    records = atlas.verify_table()
    live = [r for r in records if not r["skipped"]]
    assert len(live) >= 10
    assert all(r["ok"] for r in records)


def test_ratio_two_rows_are_exactly_the_simply_connected_ones():
    for r in atlas.verify_table():
        if r["skipped"]:
            continue
        assert (r["computed_ratio"] == 2) == (r["pi1"] == "trivial")


def test_default_entries_cover_every_row_once():
    rows = [d for d in atlas.default_entries() if d.instantiable]
    assert len(rows) == len({d.id for d in rows})
    assert len(rows) >= 10


@pytest.mark.parametrize("rid,params,ratio", [
    ("sphere", (3,), 2),
    ("quadric_real", (1, 2), 1),
    ("unitary_group", (2,), 1),
    ("grassmann_real", (1, 2), 1),
    ("symplectic_group", (1,), 2),
    ("grassmann_complex_hermitian", (1, 2), 2),
])
def test_rank_ratio_hand_values(rid, params, ratio):
    assert atlas.rank_ratio(atlas.instance(rid, *params)) == ratio


def test_exceptional_rows_refuse_to_instantiate():
    for d in atlas.list_entries():
        if not d.instantiable:
            with pytest.raises(atlas.UnsupportedRow):
                atlas.instantiate(d)


def test_parameter_validation():
    with pytest.raises(atlas.UnsupportedRow):
        atlas.descriptor("quadric_real", 3, 2)  # needs p <= q
    with pytest.raises(atlas.UnsupportedRow):
        atlas.descriptor("sphere", 1)
    with pytest.raises(atlas.UnsupportedRow):
        atlas.descriptor("no_such_row", 2)


def _theta(s):
    """theta = exp(pi ad_xi) in coordinates."""
    return al.expm_skew(np.pi * al.ad_operator(s.g_vee, s.xi))


def _intersect_rows(a, b):
    """Orthonormal rows spanning span(a) cap span(b): the SVD of the part of
    a's rows off span(b), cut at 1e-9 relative, as instantiate once took l
    and h."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((0, a.shape[1]))
    _, s, vt = np.linalg.svd(a.T - b.T @ (b @ a.T), full_matrices=True)
    return vt[np.sum(s > 1e-9 * max(1.0, s[0])):] @ a


def _isotropy_split(s):
    """(l, h): k cap p_vee and k cap the theta-fixed algebra."""
    k_theta, p_vee = s.theta_decomp
    k, _ = s.sigma_decomp
    return _intersect_rows(k, p_vee), _intersect_rows(k, k_theta)


def test_grading_element_structure():
    s = atlas.instance("quadric_real", 1, 2)
    g = s.g_vee
    xc = g.coords(s.xi)
    # the real involution reverses the grading element
    assert np.linalg.norm(s.sigma @ xc + xc) < 1e-9
    assert not s.sigma.flags.writeable
    freqs = np.linalg.eigvalsh(1j * al.ad_operator(g, s.xi))
    assert np.all((np.abs(freqs) < 1e-9) | (np.abs(np.abs(freqs) - 1) < 1e-9))
    th = _theta(s)
    assert np.abs(th @ s.sigma - s.sigma @ th).max() < 1e-9


def test_isotropy_splits_inside_the_fixed_algebra():
    s = atlas.instance("sphere", 2)
    l, h = _isotropy_split(s)
    assert l.shape[0] + h.shape[0] == s.sigma_decomp[0].shape[0]
    # l sits in the -1 side of theta, h in the +1 side
    th = _theta(s)
    assert np.abs(l @ th.T + l).max() < 1e-9
    assert np.abs(h @ th.T - h).max() < 1e-9


def sphere_model_matrices(n):
    """Quadric-chart matrices (S, C, D) for the sphere model.

    S is the split quadratic form on the chart coordinates
    (z - 1, sqrt(2) y, z + 1), D the diagonal form it is congruent to, and
    C the congruence with C^T S C = D, scaling only the corner plane.
    """
    s_mat = np.zeros((n + 2, n + 2))
    s_mat[0, n + 1] = 1.0
    s_mat[n + 1, 0] = 1.0
    s_mat[1:n + 1, 1:n + 1] = np.eye(n)
    d_mat = np.diag(np.concatenate([np.ones(n + 1), [-1.0]]))
    a = 1.0 / np.sqrt(2.0)
    c_mat = np.eye(n + 2)
    c_mat[0, 0] = a
    c_mat[n + 1, n + 1] = a
    c_mat[0, n + 1] = -a
    c_mat[n + 1, 0] = a
    return s_mat, c_mat, d_mat


def test_sphere_chart_congruence():
    s_mat, c_mat, d_mat = sphere_model_matrices(3)
    assert np.allclose(c_mat.T @ s_mat @ c_mat, d_mat)
    # congruence only touches the corner plane
    assert np.allclose(c_mat[1:4, 1:4], np.eye(3))


def test_labels_are_stable():
    d = atlas.descriptor("grassmann_real", 1, 2)
    assert d.label == "grassmann_real(1,2)"
    assert d.table_row == "1"


# (row, params, rank N, rank N_C, ratio) on the default sweep, as the seeded
# random searches found them before the searches became seedless
_SWEEP_RANKS = [
    ("grassmann_real", (1, 1), 1, 1, 1),
    ("grassmann_real", (1, 2), 1, 1, 1),
    ("grassmann_real", (2, 2), 2, 2, 1),
    ("grassmann_quaternionic", (1, 1), 1, 2, 2),
    ("unitary_group", (2,), 2, 2, 1),
    ("unitary_group", (3,), 3, 3, 1),
    ("orthogonal_group", (3,), 1, 1, 1),
    ("orthogonal_group", (5,), 2, 2, 1),
    ("unitary_mod_symplectic", (2,), 2, 2, 1),
    ("symplectic_group", (1,), 1, 2, 2),
    ("symplectic_group", (2,), 2, 4, 2),
    ("unitary_mod_orthogonal", (2,), 2, 2, 1),
    ("unitary_mod_orthogonal", (3,), 3, 3, 1),
    ("sphere", (2,), 1, 2, 2),
    ("sphere", (3,), 1, 2, 2),
    ("sphere", (4,), 1, 2, 2),
    ("quadric_real", (1, 2), 2, 2, 1),
    ("quadric_real", (2, 2), 2, 2, 1),
    ("grassmann_complex_hermitian", (1, 1), 1, 2, 2),
    ("grassmann_complex_hermitian", (1, 2), 1, 2, 2),
    ("orthogonal_mod_unitary_hermitian", (3,), 1, 2, 2),
    ("symplectic_mod_unitary_hermitian", (1,), 1, 2, 2),
    ("quadric_complex_hermitian", (2,), 2, 4, 2),
]


def test_sweep_ranks_cover_the_default_sweep():
    assert [(rid, p) for rid, p, *_ in _SWEEP_RANKS] == [
        (d.id, d.params) for d in atlas.list_entries() if d.instantiable]


@pytest.mark.parametrize("rid,params,rank_n,rank_nc,ratio", _SWEEP_RANKS)
def test_flat_pair_on_the_instance(rid, params, rank_n, rank_nc, ratio):
    s = atlas.instance(rid, *params)
    assert (len(s.a_flat), len(s.abar)) == (rank_n, rank_nc)
    assert atlas.rank_ratio(s) == ratio
    # abar extends a_flat: its leading rows are a_flat's basis
    assert np.abs(s.abar[:rank_n] - s.a_flat).max() < 1e-12
    l, _ = _isotropy_split(s)
    assert np.abs(s.a_flat @ l.T @ l - s.a_flat).max() < 1e-9


def test_flat_pair_is_the_same_on_every_instantiation():
    a = atlas.instantiate(atlas.descriptor("quadric_real", 2, 2))
    b = atlas.instantiate(atlas.descriptor("quadric_real", 2, 2))
    assert np.array_equal(a.a_flat, b.a_flat)
    assert np.array_equal(a.abar, b.abar)


# largest n, or largest p + q, per row: the row's algebra at that size is
# the top of algebra._SIZE_RANGE or just under it
_WINDOW_TOPS = {"grassmann_real": 12, "grassmann_quaternionic": 6,
                "unitary_group": 6, "orthogonal_group": 12,
                "unitary_mod_symplectic": 6, "symplectic_group": 3,
                "unitary_mod_orthogonal": 6, "sphere": 22, "quadric_real": 22,
                "grassmann_complex_hermitian": 12,
                "orthogonal_mod_unitary_hermitian": 12,
                "symplectic_mod_unitary_hermitian": 6,
                "quadric_complex_hermitian": 22}


class _Built(Exception):
    pass


def _requested_algebra(monkeypatch, rid, params):
    """(family, n) the row's builder asks build_algebra for, without
    building it."""
    def stop(family, n):
        raise _Built(family, n)
    monkeypatch.setattr(atlas.al, "build_algebra", stop)
    with pytest.raises(_Built) as e:
        atlas._ROWS[rid][0](*params)
    return e.value.args


@pytest.mark.parametrize("rid", sorted(_WINDOW_TOPS))
def test_descriptor_window_ends_at_the_size_range(monkeypatch, rid):
    top = _WINDOW_TOPS[rid]
    arity = atlas.window(rid)[0]
    inside = [(top,)] if arity == 1 else [(1, top - 1),
                                          (top // 2, top - top // 2)]
    past = (top + 1,) if arity == 1 else (1, top)
    for params in inside:
        assert atlas.descriptor(rid, *params).params == params
    with pytest.raises(atlas.UnsupportedRow, match="outside the window"):
        atlas.descriptor(rid, *past)
    family, n = _requested_algebra(monkeypatch, rid, inside[0])
    lo, hi = al._SIZE_RANGE[family]
    assert lo <= n <= hi
    assert _requested_algebra(monkeypatch, rid, past)[1] > hi


def test_window_error_names_the_row():
    with pytest.raises(atlas.UnsupportedRow,
                       match=r"^symplectic_group\(4\) outside the window "
                             r"1 <= n <= 3$"):
        atlas.descriptor("symplectic_group", 4)
    with pytest.raises(atlas.UnsupportedRow,
                       match=r"^grassmann_real\(7,7\) outside the window "
                             r"1 <= p <= q, p \+ q <= 12$"):
        atlas.descriptor("grassmann_real", 7, 7)


def test_descriptor_validation_survives_python_O():
    # -O strips assert statements, so the table checks must raise
    code = """
from rspacelab import atlas
for args in (("x", (), "Q", 1, False, "0"), ("x", (), "Q", 7, False, "0"),
             ("x", (), "Z", 7, False, "0")):
    try:
        atlas.RSpaceDescriptor(*args)
    except atlas.UnsupportedRow:
        continue
    raise SystemExit(f"accepted {args}")
assert False, "asserts run"
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _sphere_row_built_by(monkeypatch, builder):
    row = atlas._ROWS["sphere"]
    monkeypatch.setitem(atlas._ROWS, "sphere", (builder,) + row[1:])


def test_a_sigma_that_misses_theta_is_a_typed_error(monkeypatch, capsys):
    # sigma still reverses xi, but a rank-one bend off the xi line no
    # longer commutes with theta = exp(pi ad_xi)
    g, sigma, xi = atlas._build_sphere(2)
    xc = g.coords(xi)
    rng = np.random.default_rng(5)
    v = rng.normal(size=g.dim)
    v -= (v @ xc) / (xc @ xc) * xc
    bent = sigma + 1e-3 * np.outer(rng.normal(size=g.dim), v)
    assert np.allclose(bent @ xc, -xc)
    _sphere_row_built_by(monkeypatch, lambda n: (g, bent, xi))
    with pytest.raises(atlas.UnsupportedRow,
                       match=r"^sphere: sigma and theta do not commute$"):
        atlas.instantiate(atlas.descriptor("sphere", 2))
    # a usage error with its message, not a traceback
    assert cli.main(["atlas", "--space", "sphere"]) == cli.EX_USAGE
    assert capsys.readouterr().err == (
        "rspacelab: sphere: sigma and theta do not commute\n")


@pytest.mark.parametrize("scale", [2.0, 0.5, 0.0])
def test_a_xi_off_the_spectrum_is_a_typed_error(monkeypatch, capsys, scale):
    # 2 xi and xi / 2 have ad spectrum {0, +-2i} and {0, +-i/2}, which break
    # ad_xi^3 = -ad_xi; 0 keeps the identity, and -tr(ad_xi^2) = 0 counts
    # no +-i
    g, sigma, xi = atlas._build_sphere(2)
    adxi = al.ad_operator(g, scale * xi)
    assert (np.abs(adxi @ adxi @ adxi + adxi).max() == 0.0) == (scale == 0.0)
    _sphere_row_built_by(monkeypatch,
                         lambda n: (g, sigma, g.element(scale * xi)))
    with pytest.raises(atlas.UnsupportedRow,
                       match=r"^sphere: ad_xi spectrum is not \{0, \+-i\}$"):
        atlas.instantiate(atlas.descriptor("sphere", 2))
    assert cli.main(["atlas", "--space", "sphere"]) == cli.EX_USAGE
    assert capsys.readouterr().err == (
        "rspacelab: sphere: ad_xi spectrum is not {0, +-i}\n")


def test_a_sigma_that_is_no_automorphism_is_a_typed_error(monkeypatch):
    # flipping one direction u that sigma and theta both fix leaves a
    # symmetric orthogonal involution that reverses xi and commutes with
    # theta, but does not respect the bracket
    s = atlas.instance("sphere", 2)
    u = rt._kernel_within(s.sigma_decomp[0], s.theta_decomp[1])[0]
    bent = s.sigma - 2.0 * np.outer(u, u)
    assert np.abs(bent @ bent - np.eye(len(u))).max() < 1e-12
    assert np.abs(bent @ _theta(s) - _theta(s) @ bent).max() < 1e-12
    _sphere_row_built_by(monkeypatch, lambda n: (s.g_vee, bent, s.xi))
    with pytest.raises(al.NotAnAutomorphism):
        atlas.instantiate(atlas.descriptor("sphere", 2))


def _instantiate_recorded(monkeypatch, rid, params):
    """A fresh instance, with the first operator instantiate certifies
    (theta) and the first two kernels it takes inside k (h, then l)."""
    ops, kernels = [], []
    certify, kernel = al.make_involution, rt._kernel_within
    monkeypatch.setattr(atlas.al, "make_involution",
                        lambda g, op: ops.append(certify(g, op)) or ops[-1])
    monkeypatch.setattr(atlas.rt, "_kernel_within", lambda rows, op:
                        kernels.append(kernel(rows, op)) or kernels[-1])
    s = atlas.instantiate(atlas.descriptor(rid, *params))
    return s, ops[0], kernels[0], kernels[1]


def _window_top(rid):
    top = _WINDOW_TOPS[rid]
    return (top,) if atlas.window(rid)[0] == 1 else (top // 2, top - top // 2)


@pytest.mark.parametrize("rid,params", sorted(atlas._DEFAULT_SWEEP) + [
    (rid, _window_top(rid)) for rid in sorted(_WINDOW_TOPS)])
def test_theta_by_conjugation_is_the_exponential_of_ad_xi(monkeypatch, rid,
                                                           params):
    # Ad(exp(pi xi)) = exp(pi ad_xi) = 1 + 2 ad_xi^2, the theta instantiate
    # certifies; the instance splits along it, and its h and l are the
    # intersections of sigma's k with the sides of the conjugation
    s, theta, h, l = _instantiate_recorded(monkeypatch, rid, params)
    g = s.g_vee
    ref = al.involution_from_conjugation(g, al.expm_skew(np.pi * s.xi))
    assert np.abs(ref - _theta(s)).max() <= 1e-14
    assert np.abs(theta - ref).max() <= 1e-14
    k, p = s.theta_decomp
    assert np.abs(k @ _theta(s) - k).max() <= 1e-13
    assert np.abs(p @ _theta(s) + p).max() <= 1e-13
    for rows, side in zip((h, l), al.cartan_decompose(ref)):
        old = _intersect_rows(s.sigma_decomp[0], side)
        assert rows.shape == old.shape
        assert np.abs(rows.T @ rows - old.T @ old).max() <= 1e-12


@pytest.mark.parametrize("factor", [1.0, 2.02, -2.0])
def test_theta_off_the_factor_two_is_no_involution(factor):
    # make_involution certifies theta in instantiate; 1 + c ad_xi^2 is
    # 1 - c on the -1 side of ad_xi^2, an involution only at c = 2
    s = atlas.instance("sphere", 2)
    g = s.g_vee
    adxi = al.ad_operator(g, s.xi)
    al.make_involution(g, np.eye(g.dim) + 2.0 * adxi @ adxi)
    with pytest.raises(al.NotAnInvolution):
        al.make_involution(g, np.eye(g.dim) + factor * adxi @ adxi)


@pytest.mark.parametrize("rid,n", [("quadric_complex_hermitian", 22),
                                   ("orthogonal_mod_unitary_hermitian", 12)])
def test_the_doubled_so24_rows_instantiate(rid, n):
    # so(24) + so(24), dim 552: the bracket is joined on its nonzeros, so
    # no array of d^3 or d^2 n^2 entries is formed
    s = atlas.instantiate(atlas.descriptor(rid, n))
    assert s.g_vee.dim == 552
    assert atlas.rank_ratio(s) == s.descriptor.table_ratio


def test_instantiate_memory_at_the_top_of_the_so_window():
    d = atlas.descriptor("sphere", 22)
    tracemalloc.start()
    try:
        s = atlas.instantiate(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.g_vee.dim == 276
    # the dense c alone held 276^3 floats, 168 MB
    assert peak <= 64 * 2 ** 20


def test_an_isotropy_that_misses_a_row_is_a_typed_error(monkeypatch):
    # h and l each lose a row before the h + l = k count
    real = rt._kernel_within
    monkeypatch.setattr(atlas.rt, "_kernel_within",
                        lambda rows, op: real(rows, op)[1:])
    with pytest.raises(atlas.UnsupportedRow,
                       match=r"^sphere: k does not split as h \+ l$"):
        atlas.instantiate(atlas.descriptor("sphere", 2))
