"""Catalogue construction and the rank-ratio table."""

import numpy as np
import pytest

from rspacelab import algebra as al
from rspacelab import atlas


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


def test_grading_element_structure():
    s = atlas.instance("quadric_real", 1, 2)
    g = s.g_vee
    xc = g.coords(s.xi)
    # the real involution reverses the grading element
    assert np.linalg.norm(s.sigma.apply_coords(xc) + xc) < 1e-9
    freqs = np.linalg.eigvalsh(1j * al.ad_operator(g, s.xi))
    assert np.all((np.abs(freqs) < 1e-9) | (np.abs(np.abs(freqs) - 1) < 1e-9))
    comm = s.theta.operator_matrix @ s.sigma.operator_matrix \
        - s.sigma.operator_matrix @ s.theta.operator_matrix
    assert np.abs(comm).max() < 1e-9


def test_isotropy_splits_inside_the_fixed_algebra():
    s = atlas.instance("sphere", 2)
    assert s.l_basis.shape[0] + s.h_basis.shape[0] == s.k_basis.shape[0]
    # l sits in the -1 side of theta, h in the +1 side
    th = s.theta.operator_matrix
    assert np.abs(s.l_basis @ th.T + s.l_basis).max() < 1e-9
    assert np.abs(s.h_basis @ th.T - s.h_basis).max() < 1e-9


def test_sphere_chart_congruence():
    s_mat, c_mat, d_mat = atlas.sphere_model_matrices(3)
    assert np.allclose(c_mat.T @ s_mat @ c_mat, d_mat)
    # congruence only touches the corner plane
    assert np.allclose(c_mat[1:4, 1:4], np.eye(3))


def test_labels_are_stable():
    d = atlas.descriptor("grassmann_real", 1, 2)
    assert d.label == "grassmann_real(1,2)"
    assert d.table_row == "1"
