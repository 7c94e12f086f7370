"""Structure constants, the Killing form and embeddings of the base
families."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspacelab import algebra as al
from rspacelab import atlas
from rspacelab import reporting as rp


DIMS = {("so", 4): 6, ("so", 5): 10, ("su", 2): 3, ("su", 3): 8,
        ("sp", 1): 3, ("sp", 2): 10}


@pytest.mark.parametrize("family,n", sorted(DIMS))
def test_dimensions(family, n):
    assert al.build_algebra(family, n).dim == DIMS[(family, n)]


@pytest.mark.parametrize("family,n,factor", [
    ("so", 4, 2.0), ("so", 5, 3.0), ("so", 6, 4.0),
    ("su", 2, 2.0), ("su", 3, 3.0), ("su", 4, 4.0),
    ("sp", 1, 2.0), ("sp", 2, 3.0),
])
def test_killing_is_family_multiple_of_trace_form(family, n, factor):
    # basis is orthonormal for -tr, so B must be -factor times the identity
    _pin_killing(al.build_algebra(family, n), factor)


def dense_constants(g):
    """The (dim, dim, dim) array c of g, with its nonzero list filled in:
    the form the dense oracles below read."""
    i, j, k, v = g.structure_constants
    c = np.zeros((g.dim,) * 3)
    c[i, j, k] = v
    return c


def _dense_killing(g):
    """B[i,j] = tr(ad_i ad_j) = sum_kl c[i,k,l] c[j,l,k], from the
    structure constants."""
    c = dense_constants(g)
    d = g.dim
    return c.reshape(d, d * d) @ c.swapaxes(1, 2).reshape(d, d * d).T


def _pin_killing(g, factor):
    """The dense Killing matrix is -factor times the identity."""
    assert np.abs(_dense_killing(g) + factor * np.eye(g.dim)).max() \
        <= 1e-12 * factor


# the catalogue's default rows, and su(12) as unitary_group(6)
_KILLING_ROWS = sorted(atlas._DEFAULT_SWEEP) + [("unitary_group", (6,))]


@pytest.mark.parametrize("rid,params", _KILLING_ROWS)
def test_killing_is_family_multiple_of_trace_form_on_every_row(rid, params):
    # a Hermitian row's algebra is two copies of family(m), whose Killing
    # form is the factor's on each copy
    family, scale, offset = atlas._ROWS[rid][1:4]
    m = scale * sum(params) + offset
    g = atlas.instance(rid, *params).g_vee
    assert g.family == ("sum" if atlas.descriptor(rid, *params).hermitian
                        else family)
    _pin_killing(g, rp._KILLING_FACTOR[family](m))


def test_basis_is_trace_orthonormal():
    g = al.build_algebra("su", 3)
    for i, x in enumerate(g.basis):
        for j, y in enumerate(g.basis):
            frob = float(np.sum(x * y))
            assert abs(frob - (i == j)) < 1e-12
    # the positive pairing -B is the Killing factor on the diagonal
    assert np.abs(_dense_killing(g) + 3.0 * np.eye(g.dim)).max() < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_bracket_identities(seed):
    g = al.build_algebra("so", 5)
    rng = np.random.default_rng(seed)
    x, y, z = (g.from_coords(rng.normal(size=g.dim)) for _ in range(3))
    a, b = rng.normal(size=2)

    anti = al.bracket(x, y) + al.bracket(y, x)
    assert np.abs(anti).max() < 1e-9

    lin = al.bracket(g.from_coords(a * g.coords(x) + b * g.coords(y)), z)
    want = a * al.bracket(x, z) + b * al.bracket(y, z)
    assert np.abs(lin - want).max() < 1e-8

    jac = (al.bracket(x, al.bracket(y, z))
           + al.bracket(y, al.bracket(z, x))
           + al.bracket(z, al.bracket(x, y)))
    assert np.abs(jac).max() < 1e-8


def test_ad_operator_matches_bracket():
    g = al.build_algebra("sp", 2)
    rng = np.random.default_rng(0)
    x = g.from_coords(rng.normal(size=g.dim))
    y = g.from_coords(rng.normal(size=g.dim))
    lhs = al.ad_operator(g, x) @ g.coords(y)
    assert np.abs(lhs - g.coords(al.bracket(x, y))).max() < 1e-9


def test_complex_embedding_is_an_algebra_map():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(al.embed_complex(a @ b),
                       al.embed_complex(a) @ al.embed_complex(b))
    assert np.allclose(al.embed_complex(a.conj().T), al.embed_complex(a).T)


def test_quaternion_block_multiplication_table():
    e = al.quaternion_block(1, 0, 0, 0)
    i = al.quaternion_block(0, 1, 0, 0)
    j = al.quaternion_block(0, 0, 1, 0)
    k = al.quaternion_block(0, 0, 0, 1)
    assert np.allclose(i @ i, -e) and np.allclose(j @ j, -e)
    assert np.allclose(i @ j, k) and np.allclose(j @ i, -k)
    assert np.allclose(j @ k, i) and np.allclose(k @ i, j)


def test_conjugate_is_a_bracket_flow():
    g = al.build_algebra("so", 4)
    rng = np.random.default_rng(2)
    x = g.from_coords(rng.normal(size=g.dim))
    h = g.from_coords(rng.normal(size=g.dim))
    t = 1e-6
    moved = al.conjugate(x, h, t)
    approx = x + t * al.bracket(h, x)
    assert np.abs(moved - approx).max() < 1e-10
    # exact flow property, not just the linearization
    two = al.conjugate(al.conjugate(x, h, 0.3), h, 0.4)
    assert np.abs(two - al.conjugate(x, h, 0.7)).max() < 1e-9


def test_direct_sum_factors_commute():
    a = al.build_algebra("su", 2)
    b = al.build_algebra("so", 4)
    s = al.direct_sum(a, b)
    assert s.dim == a.dim + b.dim
    cross = al.bracket(s.basis[0], s.basis[a.dim])
    assert np.abs(cross).max() < 1e-12


def test_cartan_decompose_grades_brackets():
    g = al.build_algebra("su", 3)
    # conjugation by a signature matrix: the s(u(1)+u(2)) splitting
    t = np.diag([-1.0, 1.0, 1.0])
    inv = al.involution_from_conjugation(g, al.embed_complex(t))
    k, p = al.cartan_decompose(inv)
    assert k.shape[0] + p.shape[0] == g.dim
    for rows, target in ((k, k), (p, k)):
        x = g.from_coords(rows[0])
        y = g.from_coords(rows[-1])
        out = g.coords(al.bracket(x, y))
        perp = out - target.T @ (target @ out)
        assert np.abs(perp).max() < 1e-9


def test_involution_validation():
    g = al.build_algebra("su", 2)
    with pytest.raises(al.NotAnInvolution):
        al.make_involution(g, 2.0 * np.eye(g.dim))
    rot = np.eye(g.dim)
    rot[0, 0] = -1.0  # sign flip of one basis vector is not an automorphism
    with pytest.raises(al.NotAnAutomorphism):
        al.make_involution(g, rot)


def test_involution_is_the_read_only_operator():
    g = al.build_algebra("su", 2)
    t = al.embed_complex(np.diag([1.0, -1.0]))
    op = al.involution_from_conjugation(g, t)
    assert op.shape == (g.dim, g.dim) and not op.flags.writeable
    # the operator acts on coordinates exactly as conjugation acts on matrices
    x = g.basis[0]
    assert np.abs(op @ g.coords(x) - g.coords(t @ x @ t.T)).max() < 1e-12
    with pytest.raises(al.AlgebraMismatch):
        al.make_involution(g, np.eye(g.dim + 1))


def test_ad_rejects_coordinates_of_the_wrong_length():
    # a matrix where coordinates belong raises the typed error, not numpy's
    s = atlas.instance("sphere", 2)
    g = s.g_vee
    for bad in (s.xi, np.zeros(g.dim + 1), np.zeros((3, g.dim - 1)), 1.0):
        with pytest.raises(al.AlgebraMismatch, match="do not end"):
            al.ad_from_coords(g, bad)


def test_family_and_size_guards():
    with pytest.raises(al.UnsupportedFamily):
        al.build_algebra("g2", 2)
    with pytest.raises(al.UnsupportedFamily):
        al.build_algebra("u", 3)  # every catalogue row builds so, su or sp
    with pytest.raises(al.SizeOutOfRange):
        al.build_algebra("so", 60)


def _list_algebras():
    """Base families, a direct sum and a subalgebra: every way an algebra
    gets its list."""
    g = al.build_algebra("su", 3)
    k, _ = al.cartan_decompose(al.involution_from_conjugation(
        g, al.embed_complex(np.diag([-1.0, 1.0, 1.0]))))
    return [al.build_algebra("so", 5), g, al.build_algebra("sp", 2),
            al.direct_sum(al.build_algebra("su", 2), al.build_algebra("so", 4)),
            al.subalgebra(g, k, "k")]


@pytest.mark.parametrize("index", range(5))
def test_structure_constants_are_the_sorted_nonzero_list(index):
    g = _list_algebras()[index]
    i, j, k, v = g.structure_constants
    assert all(not x.flags.writeable for x in (i, j, k, v))
    keys = (i * g.dim + j) * g.dim + k
    assert np.all(np.diff(keys) > 0) and np.all(v != 0)
    # the Frobenius pairing <[b_i, b_j], b_k> of the matrices themselves
    b = g.basis
    brackets = b[:, None] @ b[None, :] - b[None, :] @ b[:, None]
    dense = np.einsum("ijrs,krs->ijk", brackets, b)
    assert np.abs(dense_constants(g) - dense).max() <= 1e-15
    assert np.all(np.abs(dense[dense_constants(g) == 0]) <= 1e-15)


@pytest.mark.parametrize("index", range(5))
def test_ad_from_coords_matches_the_dense_product(index):
    g = _list_algebras()[index]
    d = g.dim
    c = dense_constants(g).reshape(d, d * d)
    xs = np.random.default_rng(index).normal(size=(2, 3, d))
    for x in (xs[0, 0], xs[1], xs):
        want = (x @ c).reshape(x.shape[:-1] + (d, d)).swapaxes(-1, -2)
        assert np.abs(al.ad_from_coords(g, x) - want).max() <= 1e-14


def test_subalgebra_rejects_non_closed_span():
    g = al.build_algebra("so", 4)
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(2, g.dim))
    with pytest.raises(al.AlgebraMismatch):
        al.subalgebra(g, rows, "nonsense")


def test_subalgebra_accepts_a_closed_span():
    # the k of conjugation by diag(-1, 1, 1) is s(u(1) + u(2)), of dim 4
    g = al.build_algebra("su", 3)
    k, _ = al.cartan_decompose(al.involution_from_conjugation(
        g, al.embed_complex(np.diag([-1.0, 1.0, 1.0]))))
    assert al.subalgebra(g, 2.0 * k + k[::-1], "k").dim == len(k) == 4


def test_expm_skew_matches_the_pade_exponential():
    expm = pytest.importorskip("scipy.linalg").expm  # test-only oracle
    rng = np.random.default_rng(11)
    for n in range(2, 25):
        for _ in range(3):
            m = rng.normal(size=(n, n))
            a = m - m.T
            r = al.expm_skew(a)
            assert np.abs(r - expm(a)).max() <= 1e-12
            assert np.abs(r @ r.T - np.eye(n)).max() <= 1e-12
    # pi times a block rotation generator: eigenvalues +-i pi, each repeated
    j = np.kron(np.eye(4), [[0.0, -1.0], [1.0, 0.0]])
    r = al.expm_skew(np.pi * j)
    assert np.abs(r - expm(np.pi * j)).max() <= 1e-12
    assert np.abs(r + np.eye(8)).max() <= 1e-12


def test_expm_skew_rejects_a_non_antisymmetric_matrix():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(5, 5))
    with pytest.raises(al.AlgebraMismatch):
        al.expm_skew(m)
    with pytest.raises(al.AlgebraMismatch):
        al.expm_skew(m - m.T + 1e-6 * (m + m.T))


def test_stacked_expm_skew_matches_the_pade_exponential():
    expm = pytest.importorskip("scipy.linalg").expm  # test-only oracle
    rng = np.random.default_rng(13)
    for n in (2, 5, 8, 16):
        m = rng.normal(size=(4, 3, n, n)) * rng.uniform(0.1, 5.0, (4, 3, 1, 1))
        a = m - m.swapaxes(-1, -2)
        r = al.expm_skew(a)
        assert r.shape == a.shape
        for idx in np.ndindex(a.shape[:-2]):
            assert np.abs(r[idx] - expm(a[idx])).max() <= 1e-12
            assert np.abs(r[idx] - al.expm_skew(a[idx])).max() <= 1e-12
    flow = al.skew_flow(a)
    for t in (0.0, -0.7, 2.5):
        assert np.abs(flow(t)[1, 2] - expm(t * a[1, 2])).max() <= 1e-12
    ts = rng.uniform(-3.0, 3.0, a.shape[:-2])  # one t per slice
    r = flow(ts)
    for idx in np.ndindex(a.shape[:-2]):
        assert np.abs(r[idx] - expm(ts[idx] * a[idx])).max() <= 1e-12


_J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _hadamard_conjugate(thetas, odd):
    """q diag(theta_k J) q^T for an orthogonal Hadamard q of order 4^k,
    whose entries are +-2^-k, so integer angles give exact entries; the
    angles are padded with zeros to fill the order, and odd appends a zero
    row and column, one more kernel direction."""
    h = np.ones((1, 1))
    while len(h) < 2 * len(thetas):
        h = np.kron(h, [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1],
                        [1, -1, -1, 1]])
    size = len(h)
    b = np.zeros((size + odd, size + odd))
    b[:size, :size] = np.kron(
        np.diag(np.r_[thetas, np.zeros(size // 2 - len(thetas))]), _J)
    q = np.eye(size + odd)
    q[:size, :size] = h / np.sqrt(size)
    return q @ b @ q.T


def test_the_real_exponential_of_zero_is_the_identity():
    expm = pytest.importorskip("scipy.linalg").expm  # test-only oracle
    for n in (1, 2, 3, 6):
        flow = al.skew_flow(np.zeros((n, n)))
        for t in (0.0, 1.0, -1e3):
            assert np.array_equal(flow(t), np.eye(n))
        assert np.array_equal(flow(2.0), expm(np.zeros((n, n))))
    assert np.array_equal(al.expm_skew(np.zeros((3, 4, 4))),
                          np.broadcast_to(np.eye(4), (3, 4, 4)))


def test_the_real_exponential_fixes_the_kernel_of_odd_generators():
    expm = pytest.importorskip("scipy.linalg").expm  # test-only oracle
    rng = np.random.default_rng(16)
    for n in (3, 5, 7, 9, 23):
        m = rng.normal(size=(n, n))
        a = m - m.T
        kernel = np.linalg.svd(a)[2][-1]  # a has odd size, so a kernel
        flow = al.skew_flow(a)
        for t in (1.0, -2.5, 40.0):
            r = flow(t)
            assert np.abs(r - expm(t * a)).max() <= 1e-12
            assert np.abs(r @ kernel - kernel).max() <= 1e-12


def test_the_real_exponential_of_a_repeated_spectrum():
    # eigenvalues +-i, +-i, +-i and +-2i: each angle is a multiple
    # eigenvalue of -a^2, whose eigenvectors eigh may mix at will
    expm = pytest.importorskip("scipy.linalg").expm  # test-only oracle
    rng = np.random.default_rng(17)
    q = np.linalg.qr(rng.normal(size=(9, 9)))[0]
    b = np.zeros((9, 9))
    b[:8, :8] = np.kron(np.diag([1.0, 1.0, 1.0, 2.0]), _J)
    a = q @ b @ q.T
    a = 0.5 * (a - a.T)
    flow = al.skew_flow(a)
    for t in (1.0, np.pi, -7.3):
        assert np.abs(flow(t) - expm(t * a)).max() <= 1e-12
    # pi J on every block: exp is -1 on the planes, 1 on the kernel
    r = al.skew_flow(np.pi * np.kron(np.eye(4), _J))(1.0)
    assert np.abs(r + np.eye(8)).max() <= 1e-12


@pytest.mark.parametrize("n", [4, 9])
def test_the_real_exponential_of_a_tiny_generator(n):
    expm = pytest.importorskip("scipy.linalg").expm  # test-only oracle
    m = np.random.default_rng(18).normal(size=(n, n))
    a = (m - m.T) * (1e-12 / np.linalg.norm(m - m.T, 2))
    flow = al.skew_flow(a)
    # t = 1e12 turns the angles through about a radian: they are resolved
    # relative to |a|, not to round-off of 1
    for t in (1.0, 1e12, -3e12):
        assert np.abs(flow(t) - expm(t * a)).max() <= 1e-12


def _reduced_reference(thetas, odd, t):
    """exp(t a) for a = _hadamard_conjugate(thetas, odd): expm loses
    digits on a generator of norm 1e3 (it is off by ~5e-12 there), so the
    angles are taken mod 2 pi first, which leaves the exponential as is."""
    expm = pytest.importorskip("scipy.linalg").expm  # test-only oracle
    return expm(_hadamard_conjugate(np.mod(t * thetas, 2.0 * np.pi), odd))


@pytest.mark.parametrize("odd", [0, 1])
@pytest.mark.parametrize("m", [2, 4])
def test_the_real_exponential_of_a_large_generator(m, odd):
    # |a| = 1e3 and |t| theta up to 1e3
    thetas = np.array([1000.0, 999.0, 577.0, 250.0])[:m]
    a = _hadamard_conjugate(thetas, odd)
    assert np.abs(np.linalg.eigvals(a)).max() == pytest.approx(1000.0)
    flow = al.skew_flow(a)
    for t in (1.0, -1.0, 0.5, 1e-3):
        r = flow(t)
        assert np.abs(r - _reduced_reference(thetas, odd, t)).max() <= 1e-12
        assert np.abs(r @ r.T - np.eye(len(a))).max() <= 1e-12


@pytest.mark.parametrize("odd", [0, 1])
def test_squaring_resolves_small_angles_beside_a_large_one(odd):
    # eigh resolves -a^2 to round-off of |a|^2, so the planes of two small
    # angles theta_i, theta_j mix by ~eps |a|^2 / |theta_i^2 - theta_j^2|:
    # beside 1000, the angles 2, 1, 0.5 and 0 are off by up to ~7e-11 where
    # a complex eigh of i a stays near 1e-13
    thetas = np.array([1000.0, 2.0, 1.0, 0.5])
    a = _hadamard_conjugate(thetas, odd)  # 16 x 16: zero angles pad it
    flow = al.skew_flow(a)
    squares = np.r_[0.0, thetas ** 2]
    bound = (np.finfo(float).eps * thetas.max() ** 2
             / np.diff(np.sort(squares)).min())
    for t in (1.0, -1.0, 0.5, 1e-3):
        err = np.abs(flow(t) - _reduced_reference(thetas, odd, t)).max()
        assert err <= 1e-12 + bound


def test_the_real_exponential_takes_per_slice_times():
    expm = pytest.importorskip("scipy.linalg").expm  # test-only oracle
    rng = np.random.default_rng(19)
    m = rng.normal(size=(6, 7, 7))
    a = m - m.swapaxes(-1, -2)
    flow = al.skew_flow(a)
    ts = rng.uniform(-20.0, 20.0, 6)
    r = flow(ts)
    assert r.shape == (6, 7, 7)
    for i in range(6):
        assert np.abs(r[i] - expm(ts[i] * a[i])).max() <= 1e-12
    # one t for every slice
    r = flow(0.3)
    for i in range(6):
        assert np.abs(r[i] - expm(0.3 * a[i])).max() <= 1e-12


def test_skew_flow_decomposes_in_real_arithmetic_only(monkeypatch):
    seen = []
    eigh = np.linalg.eigh

    def spy(m, *args, **kwargs):
        seen.append(np.asarray(m).dtype)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    m = np.random.default_rng(20).normal(size=(3, 5, 5))
    al.skew_flow(m - m.swapaxes(-1, -2))(np.array([0.1, 2.0, -1.0]))
    al.expm_skew(m[0] - m[0].T)
    assert seen == [np.dtype(float)] * 2


def test_stacked_expm_skew_rejects_one_bad_slice():
    rng = np.random.default_rng(14)
    m = rng.normal(size=(6, 5, 5))
    good = m - m.swapaxes(-1, -2)
    al.expm_skew(good)
    for k in range(len(good)):
        bad = good.copy()
        bad[k, 0, 1] += 1e-6
        with pytest.raises(al.AlgebraMismatch):
            al.expm_skew(bad)
    # the tolerance follows each slice's own scale: a large neighbour does
    # not excuse a small slice
    bad = good.copy()
    bad[0] *= 1e6
    bad[3, 0, 1] += 1e-6
    with pytest.raises(al.AlgebraMismatch):
        al.expm_skew(bad)


def test_stacked_ad_matches_one_vector_at_a_time():
    g = al.build_algebra("su", 3)
    xs = np.random.default_rng(15).normal(size=(2, 7, g.dim))
    ads = al.ad_from_coords(g, xs)
    for idx in np.ndindex(xs.shape[:-1]):
        assert np.abs(ads[idx] - al.ad_from_coords(g, xs[idx])).max() <= 1e-13
    # one coordinate map pair serves one element and any stack of them
    mats = g.from_coords(xs)
    assert np.abs(mats[1, 3] - g.from_coords(xs[1, 3])).max() <= 1e-15
    assert np.abs(g.coords(mats) - xs).max() <= 1e-13
    assert np.abs(g.coords(mats[1, 3]) - xs[1, 3]).max() <= 1e-13


def test_sample_blocks_cover_every_sample_once():
    for count in (0, 1, 7, 1000):
        for entries in (1, 64, 5000, 10 ** 6):
            blocks = al.sample_blocks(count, entries)
            covered = [i for b in blocks for i in range(count)[b]]
            assert covered == list(range(count))
            assert all(len(range(count)[b]) * entries <= al._BLOCK_ENTRIES
                       or len(range(count)[b]) == 1 for b in blocks)


# --- the bracket kernels against the dense oracles they replace ------------

def _dense_jacobi(c):
    """The Jacobi residual as the dense per-i loop: d products of (d, d) by
    (d, d^2) for each of the three cyclic terms."""
    d = c.shape[0]
    rows, cols = c.reshape(d, d * d), c.reshape(d * d, d)
    worst = 0.0
    for i in range(d):
        # jac[j, k, l]: coordinate l of the sum for the triple (b_i, b_j, b_k)
        jac = ((c[i] @ rows).reshape(d, d, d)
               + (cols @ c[:, i]).reshape(d, d, d)
               + (c[:, i] @ rows).reshape(d, d, d).swapaxes(0, 1))
        worst = max(worst, float(np.abs(jac).max()))
    return worst


def _pin_jacobi(g):
    """The sparse sum equals the dense loop on g's constants, and on them
    bent at their largest entry and at an exact zero, which a sum over a
    sparsity pattern taken from elsewhere would miss."""
    c = dense_constants(g)
    assert abs(al.jacobi_residual(g) - _dense_jacobi(c)) <= 1e-14
    zeros = np.argwhere(c == 0)
    for at in (np.unravel_index(np.abs(c).argmax(), c.shape),
               tuple(zeros[len(zeros) // 2])):
        bent = c.copy()
        bent[at] += 0.01
        # the bend at an exact zero is a new entry of the list
        nz = np.nonzero(bent)
        assert len(nz[0]) == len(g.structure_constants[3]) + (c[at] == 0)
        h = al.LieAlgebraBasis(g.family, g.n, g.algebra_id, g.basis,
                               (*nz, bent[nz]))
        assert abs(al.jacobi_residual(h) - _dense_jacobi(bent)) <= 1e-14
        assert al.jacobi_residual(h) >= 1e-3


def test_jacobi_residual_matches_the_dense_tensor():
    algs = [al.build_algebra("so", 5), al.build_algebra("su", 3),
            atlas.instance("grassmann_complex_hermitian", 1, 1).g_vee]
    assert algs[2].family == "sum"
    for g in algs:
        _pin_jacobi(g)


# the default sweep holds the structural rows; unitary_group(4) is su(8)
_JACOBI_ROWS = (sorted(set(atlas._DEFAULT_SWEEP) | set(rp._STRUCTURAL_SPACES))
                + [("unitary_group", (4,))])


@pytest.mark.parametrize("rid,params", _JACOBI_ROWS)
def test_jacobi_residual_matches_the_dense_loop_on_every_row(rid, params):
    _pin_jacobi(atlas.instance(rid, *params).g_vee)


def _einsum_form(g, rows_a, rows_b, rows_c):
    """<[a, b], c> over all row triples, from the dense constants."""
    return np.einsum("ai,bj,ck,ijk->abc", rows_a, rows_b, rows_c,
                     dense_constants(g), optimize=True)


@pytest.mark.parametrize("rid,params", rp._STRUCTURAL_SPACES)
def test_bracket_residual_matches_the_einsum(rid, params):
    s = atlas.instance(rid, *params)
    g = s.g_vee
    none = np.zeros((0, g.dim))
    for k, p in (s.theta_decomp, s.sigma_decomp):
        for a, b, c in ((k, p, k), (p, p, p), (k, k, p), (k, k, none),
                        (k, p, np.eye(g.dim))):
            want = np.abs(_einsum_form(g, a, b, c)).max(initial=0.0)
            assert abs(al.bracket_residual(g, a, b, c) - want) <= 1e-14
        # [k, p] lies in p, which the form does not vanish on
        wrong = al.bracket_residual(g, k, p, p)
        assert abs(wrong - np.abs(_einsum_form(g, k, p, p)).max()) <= 1e-14
        assert wrong >= 0.1


@pytest.mark.parametrize("index", range(4))
def test_the_bracket_form_is_totally_antisymmetric(index):
    g = _list_algebras()[index]  # so(5), su(3), sp(2) and a direct sum
    rows = np.random.default_rng(index).normal(size=(3, 6, g.dim))
    t = _einsum_form(g, *rows)
    assert np.abs(t).max() >= 0.1
    assert np.abs(t + _einsum_form(g, rows[1], rows[0], rows[2]).transpose(
        1, 0, 2)).max() <= 1e-14
    assert np.abs(t + _einsum_form(g, rows[0], rows[2], rows[1]).transpose(
        0, 2, 1)).max() <= 1e-14


def _inclusion_residual(g, k, p):
    """The largest coordinate of [k,k] off k, [k,p] off p and [p,p] off k:
    the three inclusions, each by projection on its target span."""
    def off(rows_a, rows_b, target):
        br = np.einsum("ai,bj,ijk->abk", rows_a, rows_b, dense_constants(g))
        return np.abs(br - br @ target.T @ target).max(initial=0.0)
    return max(off(k, k, k), off(k, p, p), off(p, p, k))


def _grading_residual(g, k, p):
    return max(al.bracket_residual(g, k, p, k),
               al.bracket_residual(g, p, p, p))


@pytest.mark.parametrize("rid,params", rp._STRUCTURAL_SPACES)
def test_two_form_calls_and_three_inclusions_pass_together(rid, params):
    s = atlas.instance(rid, *params)
    for k, p in (s.theta_decomp, s.sigma_decomp):
        assert _grading_residual(s.g_vee, k, p) <= 1e-14
        assert _inclusion_residual(s.g_vee, k, p) <= 1e-14


@pytest.mark.parametrize("rid,params", [("sphere", (2,)),
                                        ("unitary_group", (2,))])
def test_two_form_calls_and_three_inclusions_fail_together(rid, params):
    s = atlas.instance(rid, *params)
    for k, p in (s.theta_decomp, s.sigma_decomp):
        # swap the first row of k with the first row of p
        k2, p2 = np.vstack([p[:1], k[1:]]), np.vstack([k[:1], p[1:]])
        assert _grading_residual(s.g_vee, k2, p2) >= 0.5
        assert _inclusion_residual(s.g_vee, k2, p2) >= 0.5


def test_algebra_suite_memory_is_cubic():
    rows = [("sphere", (8,))]
    d = atlas.instance("sphere", 8).g_vee.dim
    tracemalloc.start()
    try:
        checks = rp.suite_algebra(rows, 0, rp.DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c["status"] for c in checks] == ["pass"] * 4
    assert peak <= 16 * d ** 3 * 8
