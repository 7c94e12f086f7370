"""Compact classical Lie algebras as dense real matrix algebras.

Everything downstream works in coordinates over a fixed trace-orthonormal
basis per algebra, so structure constants and ad operators are plain numpy
arrays, and the metric is the trace form tr(x^T y) of the matrices.
Complex and quaternionic families are realized by real embeddings:

    a + bi          ->  [[a, -b], [b, a]]          (interleaved 2x2 blocks)
    a + bi + cj+ dk ->  4x4 left-multiplication L_q (interleaved 4x4 blocks)

so su(n) lands in so(2n) and sp(n) in so(4n), and every group element we
ever exponentiate is a real orthogonal matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_ALG = 1e-10

# family -> inclusive size range keeping real matrices at most 24x24
_SIZE_RANGE = {"so": (2, 24), "su": (2, 12), "sp": (1, 6)}

# the sampling oracles stack their samples in blocks of at most this many
# complex matrix entries (1 MiB), so their memory is bounded on large algebras
_BLOCK_ENTRIES = 1 << 16


class UnsupportedFamily(ValueError):
    """Family label outside {so, su, sp}."""


class SizeOutOfRange(ValueError):
    """Requested size outside the supported desk-scale window."""


class AlgebraMismatch(ValueError):
    """A matrix or operator that does not fit the algebra: off the span,
    of the wrong shape, or not antisymmetric where it must be."""


class NotAnInvolution(ValueError):
    """Candidate operator does not square to the identity."""


class NotAnAutomorphism(ValueError):
    """Candidate operator does not respect the bracket."""


def _frozen(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class LieAlgebraBasis:
    """A trace-orthonormal basis with precomputed structure data.

    An element of the algebra is its real (size, size) matrix, and a stack
    of elements a (..., size, size) array; coords and from_coords map
    between matrices and coordinates over any leading shape.

    Attributes:
        family: one of "so", "su", "sp", or a constructed tag such as
            "sum" / "sub" for direct sums and subalgebras.
        n: size parameter of the family (0 for constructed algebras).
        basis: read-only (dim, size, size) stack of the basis matrices,
            orthonormal for <X,Y> = tr(X^T Y).
        structure_constants: read-only arrays (i, j, k, v) of the nonzero
            c[i,j,k] = v, [b_i, b_j] = sum_k c[i,j,k] b_k, sorted by (i,j,k).
    """

    family: str
    n: int
    algebra_id: str
    basis: np.ndarray
    structure_constants: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.basis.shape[-1]

    def coords(self, ms) -> np.ndarray:
        """Coordinates of a matrix, or of every matrix in a (..., size,
        size) stack."""
        ms = np.asarray(ms, float)
        flat = self.basis.reshape(self.dim, -1)
        return ms.reshape(ms.shape[:-2] + (-1,)) @ flat.T

    def from_coords(self, vs) -> np.ndarray:
        """Matrix of a coordinate vector, or of every vector in a (..., dim)
        stack."""
        vs = np.asarray(vs, float)
        flat = self.basis.reshape(self.dim, -1)
        return (vs @ flat).reshape(vs.shape[:-1] + (self.size, self.size))

    def element(self, m: np.ndarray) -> np.ndarray:
        """m as a read-only matrix, checking it actually lies in the span."""
        m = _frozen(m)
        res = np.linalg.norm(self.from_coords(self.coords(m)) - m)
        if res > 1e-8 * max(1.0, np.linalg.norm(m)):
            raise AlgebraMismatch(
                f"matrix is not in {self.algebra_id} (residual {res:.2e})")
        return m


def _join(keys, sorted_keys):
    """Index pairs (a, b) with keys[a] == sorted_keys[b], ordered by a, b."""
    lo = np.searchsorted(sorted_keys, keys)
    cnt = np.searchsorted(sorted_keys, keys, side="right") - lo
    a = np.repeat(np.arange(len(keys)), cnt)
    return a, np.arange(len(a)) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)


def _sum_by(keys, values):
    """The distinct keys, sorted, and the sum of the values over each."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq, np.bincount(inverse, weights=values, minlength=len(uniq))


def _structure_data(mats, algebra_id: str, family: str, n: int):
    """Assemble a LieAlgebraBasis from a stack of trace-orthonormal
    matrices, joining their nonzero entries only."""
    stacked = _frozen(mats)
    d, sz = stacked.shape[:2]
    flat = stacked.reshape(d, sz * sz)
    gram = flat @ flat.T
    assert np.allclose(gram, np.eye(d), atol=1e-12), "basis not orthonormal"

    # a product b_a b_b joins each entry b_a[r, s] with the entries b_b[s, t]
    # of row s; [b_a, b_b] takes it with + at (a, b) and - at (b, a)
    a, r, s = np.nonzero(stacked)
    rb, b, t = np.nonzero(stacked.swapaxes(0, 1))  # sorted by row
    left, right = _join(s, rb)
    prod = stacked[a, r, s][left] * stacked[b, rb, t][right]
    ab = np.stack([a[left] * d + b[right], b[right] * d + a[left]])
    keys, br = _sum_by((ab * sz * sz + r[left] * sz + t[right]).ravel(),
                       np.stack([prod, -prod]).ravel())
    # c[a,b,k] = <[b_a,b_b], b_k>_F, joined on the cells where b_k is nonzero
    cell, k = np.nonzero(flat.T)
    left, right = _join(keys % (sz * sz), cell)
    keys, c = _sum_by(keys[left] // (sz * sz) * d + k[right],
                      br[left] * flat[k, cell][right])
    ijk = np.unravel_index(keys[c != 0], (d, d, d))
    return LieAlgebraBasis(family, n, algebra_id, stacked, tuple(
        _frozen(x, x.dtype) for x in (*ijk, c[c != 0])))


# ---------------------------------------------------------------------------
# real embeddings


def embed_complex(m: np.ndarray) -> np.ndarray:
    """Complex n x n -> real 2n x 2n, interleaving (re, im) per coordinate."""
    m = np.asarray(m, complex)
    n = m.shape[0]
    r = np.zeros((2 * n, 2 * n))
    r[0::2, 0::2] = m.real
    r[1::2, 1::2] = m.real
    r[0::2, 1::2] = -m.imag
    r[1::2, 0::2] = m.imag
    return r


def quaternion_block(a: float, b: float, c: float, d: float) -> np.ndarray:
    """Left multiplication by a + bi + cj + dk on R^4 = H."""
    return np.array([
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ], dtype=float)


def embed_quaternion(a, b, c, d) -> np.ndarray:
    """Quaternionic n x n with components (a,b,c,d) -> real 4n x 4n."""
    a, b, c, d = (np.asarray(x, float) for x in (a, b, c, d))
    n = a.shape[0]
    r = np.zeros((4 * n, 4 * n))
    for p in range(n):
        for q in range(n):
            r[4 * p:4 * p + 4, 4 * q:4 * q + 4] = quaternion_block(
                a[p, q], b[p, q], c[p, q], d[p, q])
    return r


def _traceless_diagonals(n: int) -> list:
    """Orthogonal basis of real traceless diagonals, d_k = (1,..,1,-k,0,..)."""
    out = []
    for k in range(1, n):
        d = np.zeros(n)
        d[:k] = 1.0
        d[k] = -k
        out.append(d / np.sqrt(k * (k + 1)))
    return out


def _so_matrices(n: int) -> list:
    mats = []
    for a in range(n):
        for b in range(a + 1, n):
            m = np.zeros((n, n))
            m[a, b] = 1.0
            m[b, a] = -1.0
            mats.append(m / np.sqrt(2.0))
    return mats


def _su_matrices(n: int) -> list:
    mats = []
    for a in range(n):
        for b in range(a + 1, n):
            x = np.zeros((n, n), complex)
            x[a, b] = 1.0
            x[b, a] = -1.0
            mats.append(x)
            y = np.zeros((n, n), complex)
            y[a, b] = 1.0j
            y[b, a] = 1.0j
            mats.append(y)
    for d in _traceless_diagonals(n):
        mats.append(np.diag(1.0j * d))
    out = []
    for m in mats:
        r = embed_complex(m)
        out.append(r / np.linalg.norm(r))
    return out


def _sp_matrices(n: int) -> list:
    z = np.zeros((n, n))

    def unit(a, b):
        e = np.zeros((n, n))
        e[a, b] = 1.0
        return e

    mats = []
    for a in range(n):
        for b in range(a + 1, n):
            asym = unit(a, b) - unit(b, a)
            sym = unit(a, b) + unit(b, a)
            mats.append(embed_quaternion(asym, z, z, z))
            mats.append(embed_quaternion(z, sym, z, z))
            mats.append(embed_quaternion(z, z, sym, z))
            mats.append(embed_quaternion(z, z, z, sym))
    for a in range(n):
        e = unit(a, a)
        mats.append(embed_quaternion(z, e, z, z))
        mats.append(embed_quaternion(z, z, e, z))
        mats.append(embed_quaternion(z, z, z, e))
    return [m / np.linalg.norm(m) for m in mats]


def build_algebra(family: str, n: int) -> LieAlgebraBasis:
    """Build so(n), su(n) or sp(n) over the real embedding."""
    if family not in _SIZE_RANGE:
        raise UnsupportedFamily(f"unknown family {family!r}")
    lo, hi = _SIZE_RANGE[family]
    if not (lo <= n <= hi):
        raise SizeOutOfRange(f"{family}({n}) outside [{lo}, {hi}]")
    mats = {"so": _so_matrices, "su": _su_matrices,
            "sp": _sp_matrices}[family](n)
    return _structure_data(mats, f"{family}({n})", family, n)


def direct_sum(a: LieAlgebraBasis, b: LieAlgebraBasis) -> LieAlgebraBasis:
    """Block-diagonal sum; basis is a's block then b's block."""
    sa, sb = a.size, b.size
    mats = np.zeros((a.dim + b.dim, sa + sb, sa + sb))
    mats[:a.dim, :sa, :sa] = a.basis
    mats[a.dim:, sa:, sa:] = b.basis
    return _structure_data(mats, f"sum({a.algebra_id},{b.algebra_id})",
                           "sum", 0)


def subalgebra(alg: LieAlgebraBasis, span_coords: np.ndarray, tag: str) -> LieAlgebraBasis:
    """Subalgebra spanned by rows of span_coords (coordinates in alg).

    Rows are re-orthonormalized; the span must be bracket-closed.
    """
    v = np.asarray(span_coords, float)
    if np.linalg.matrix_rank(v, tol=1e-10) != v.shape[0]:
        raise AlgebraMismatch("subalgebra span rows are not independent")
    q, rest = np.split(np.linalg.qr(v.T, "complete")[0].T, [len(v)])
    if (res := bracket_residual(alg, q, q, rest)) > 1e-9:
        raise AlgebraMismatch(f"span not closed under bracket ({res:.2e})")
    return _structure_data(alg.from_coords(q), f"sub({alg.algebra_id}:{tag})",
                           "sub", 0)


# ---------------------------------------------------------------------------
# bracket and ad


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] of two matrices, or of broadcasting (..., n, n) stacks."""
    return x @ y - y @ x


def sample_blocks(count: int, entries: int) -> list:
    """Slices cutting count samples of entries matrix entries each into the
    stacked blocks of the sampling oracles."""
    step = max(1, _BLOCK_ENTRIES // entries)
    return [slice(i, i + step) for i in range(0, count, step)]


def ad_operator(alg: LieAlgebraBasis, x: np.ndarray) -> np.ndarray:
    """Matrix of ad_x = [x, .] in the basis coordinates of alg, for a matrix
    x or a stack of them."""
    return ad_from_coords(alg, alg.coords(x))


def ad_from_coords(alg: LieAlgebraBasis, xc: np.ndarray) -> np.ndarray:
    """ad of coordinate vectors xc, shape (..., dim) -> (..., dim, dim)."""
    xc = np.asarray(xc, float)
    d = alg.dim
    if xc.shape[-1:] != (d,):
        raise AlgebraMismatch(f"coordinates of shape {xc.shape} do not end "
                              f"in the dimension {d} of {alg.algebra_id}")
    # [x, b_j] = sum_i x_i c[i,j,k] b_k: x_i v lands in the cell (k, j)
    (i, j, k, v), m = alg.structure_constants, xc.size // d
    cells = np.arange(0, m * d * d, d * d)[:, None] + k * d + j
    ad = np.bincount(cells.ravel(), (xc.reshape(m, d).take(i, 1) * v).ravel(),
                     m * d * d)
    return ad.reshape(xc.shape[:-1] + (d, d))


def bracket_residual(alg: LieAlgebraBasis, rows_a: np.ndarray,
                     rows_b: np.ndarray, rows_c: np.ndarray) -> float:
    """Largest |<[a, b], c>| over the rows of rows_a, rows_b and rows_c;
    [A, B] lies in a span iff the form vanishes on its orthogonal
    complement.  rows_a goes in sample_blocks: one block's ad stack and
    bracket table hold at most _BLOCK_ENTRIES floats, or one row's."""
    res = 0.0
    for blk in sample_blocks(len(rows_a), alg.dim * (alg.dim + len(rows_b))):
        # column b of ad[a] @ rows_b.T holds the coordinates of [a, b]
        form = rows_c @ (ad_from_coords(alg, rows_a[blk]) @ rows_b.T)
        res = max(res, np.abs(form).max(initial=0.0))
    return float(res)


def jacobi_residual(alg: LieAlgebraBasis) -> float:
    """Largest entry of the Jacobi sum over all basis triples,
    [[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j], summed over the
    nonzero structure constants only: an exact zero adds nothing, so this
    is the dense sum taken in another order."""
    d = alg.dim
    i, j, m, v = alg.structure_constants
    left, right = _join(m, i)  # each c[i,j,m] with every c[m,k,l]
    # [[b_a,b_b],b_e] has coordinate l; it is the first term of the sum at
    # the triple (a, b, e) and the second and third at its two rotations
    a, b, e, l = i[left], j[left], j[right], m[right]
    keys = np.concatenate([((a * d + b) * d + e) * d + l,
                           ((e * d + a) * d + b) * d + l,
                           ((b * d + e) * d + a) * d + l])
    sums = _sum_by(keys, np.tile(v[left] * v[right], 3))[1]
    return float(np.abs(sums).max(initial=0.0))


def skew_flow(a: np.ndarray):
    """t -> exp(t a) for a real antisymmetric matrix a, or a (..., n, n)
    stack of them; t is one number, or one per slice (shape (...,)).

    a commutes with the symmetric positive semidefinite S = -a a = a^T a,
    and exp(t a) = cos(t sqrt S) + a sin(t sqrt S) / sqrt S.  With
    S = V diag(theta^2) V^T from a real eigh and AV = a V, each t costs one
    real product (V cos(t theta) + AV sin(t theta) / theta) V^T, and one
    decomposition serves every t.  theta_j is read as |a v_j|: the square
    root of an eigenvalue of S would resolve angles near the kernel of a
    only to the square root of round-off.  On the kernel a v = 0, so a zero
    theta gets the factor 0.  Squaring has one cost: eigh resolves S to
    round-off of |a|^2, so the planes of two small angles theta_i, theta_j
    beside a large one mix by ~eps |a|^2 / |theta_i^2 - theta_j^2|.  eigh
    reads one triangle only, hence the antisymmetry check, made on every
    slice.
    """
    a = np.asarray(a, dtype=float)
    if (np.abs(a + a.swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
            > 1e-10 * np.abs(a).max(axis=(-2, -1), initial=1.0)).any():
        raise AlgebraMismatch("the exponent is not an antisymmetric matrix")
    s = a.swapaxes(-1, -2) @ a
    v = np.linalg.eigh(0.5 * (s + s.swapaxes(-1, -2)))[1]
    av = a @ v
    theta = np.linalg.norm(av, axis=-2)[..., None, :]  # along each row
    inv = np.divide(1.0, theta, out=np.zeros_like(theta), where=theta > 0)
    vt = v.swapaxes(-1, -2)
    def flow(t):
        angle = np.asarray(t, float)[..., None, None] * theta
        cos, sin = np.cos(angle), np.sin(angle) * inv
        return (v * cos + av * sin) @ vt
    return flow


def expm_skew(a: np.ndarray) -> np.ndarray:
    """exp(a) for a real antisymmetric matrix a, or a (..., n, n) stack."""
    return skew_flow(a)(1.0)


def conjugate(x: np.ndarray, generator: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Ad(exp(t g)) x, computed in the matrix representation; x may be a
    (..., n, n) stack."""
    r = expm_skew(t * generator)
    # generators are antisymmetric here, so r is orthogonal and r^-1 = r^T
    return r @ x @ r.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# involutions and Cartan decompositions


def make_involution(alg: LieAlgebraBasis, op: np.ndarray) -> np.ndarray:
    """Validate a linear involutive automorphism given by its coordinate
    matrix, and return it read-only.  Every constructor in this module makes
    it orthogonal and symmetric, so its eigenspace split is an orthogonal
    one."""
    op = np.asarray(op, float)
    d = alg.dim
    if op.shape != (d, d):
        raise AlgebraMismatch(f"operator shape {op.shape} vs dim {d}")
    if np.abs(op @ op - np.eye(d)).max() > TOL_ALG:
        raise NotAnInvolution("operator squared is not the identity")
    # automorphism: sum_k c[i,j,k] op[l,k] = sum_ab op[a,i] op[b,j] c[a,b,l]
    i, j, k, v = alg.structure_constants
    r, s = np.nonzero(op)  # sorted by row
    s_t, r_t = np.nonzero(op.T)  # sorted by column
    lc, lo = _join(k, s_t)  # c[i,j,k] op[l,k]
    rc, ra = _join(i, r)  # c[a,b,l] op[a,i]
    b, rb = _join(j[rc], r)  # times op[b,j]
    rc, ra, w = rc[b], ra[b], op[r, s]
    keys = np.concatenate([(i[lc] * d + j[lc]) * d + r_t[lo],
                           (s[ra] * d + s[rb]) * d + k[rc]])
    vals = np.concatenate([v[lc] * op[r_t, s_t][lo], -v[rc] * w[ra] * w[rb]])
    if np.abs(_sum_by(keys, vals)[1]).max(initial=0.0) > 1e-8:
        raise NotAnAutomorphism("operator does not respect the bracket")
    if np.abs(op - op.T).max() > 1e-9:
        raise NotAnAutomorphism("operator is expected to be symmetric "
                                "(orthogonal involution)")
    return _frozen(op)


def involution_from_conjugation(alg: LieAlgebraBasis,
                                t_mat: np.ndarray) -> np.ndarray:
    """X -> T X T^{-1} for an orthogonal matrix T, as its read-only
    coordinate matrix, sparse when T is; make_involution certifies it."""
    t_mat = np.asarray(t_mat, float)
    op = np.empty((alg.dim, alg.dim))
    ti = t_mat.T  # orthogonal
    # one basis matrix at a time: coordinates of the whole stack come from
    # one matrix product that rounds differently, and report prints every
    # digit that this operator feeds
    for j, b in enumerate(alg.basis):
        op[:, j] = alg.coords(t_mat @ b @ ti)
    return _frozen(op)


def swap_involution(sum_alg: LieAlgebraBasis, split: int) -> np.ndarray:
    """The operator of a direct sum exchanging the two (equal) summands.

    split is the dimension of the first summand; the two summand bases must
    be images of each other under exchanging the diagonal blocks.
    """
    d = sum_alg.dim
    if d != 2 * split:
        raise AlgebraMismatch("swap needs equal summands")
    op = np.zeros((d, d))
    op[:split, split:] = np.eye(split)
    op[split:, :split] = np.eye(split)
    return _frozen(op)


def cartan_decompose(op: np.ndarray) -> tuple:
    """Eigenspace split g = k + p of an involution op, as read-only
    orthonormal row bases (k, p) of its +1 and -1 eigenspaces.  For an
    automorphism (make_involution) [k,k], [p,p] in k and [k,p] in p."""
    w, vecs = np.linalg.eigh(op)
    return _frozen(vecs[:, w > 0].T), _frozen(vecs[:, w < 0].T)
