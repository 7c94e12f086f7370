"""Restricted root systems, maximal abelian subspaces, sl2 cascades.

All subspaces are row matrices of coordinates over the ambient algebra's
trace-orthonormal basis.  Joint eigendata of a commuting family is computed
from one generic linear combination; ad operators are exactly antisymmetric
in these coordinates, so i*ad is Hermitian and eigh applies.

Generic elements are fixed, not drawn: their weights are square roots of
primes (generic_weights), and the certificates each search already runs
(an abelian kernel of ad_x in the centralizer, the joint-eigen residual, a
functional vanishing on no root) prove they were generic enough.  Each
search takes one element; a failed certificate raises a typed error at it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (LieAlgebraBasis, ad_from_coords, bracket,
                      bracket_residual, AlgebraMismatch)

TOL_ROOT = 1e-6
TOL_SL2 = 1e-8
_TOL_RANK = 1e-9  # relative singular value cut of the kernels and spans


class MaximalityNotCertified(RuntimeError):
    """The generic element's kernel in the centralizer is not abelian."""


class ClusteringAmbiguous(RuntimeError):
    """Distinct root candidates sit too close to the merge tolerance."""


class NotHermitian(ValueError):
    """The provided grading element does not square to -1 on p."""


class CascadeStalled(RuntimeError):
    """Strongly orthogonal cascade ran out of roots prematurely."""


class RootSpaceEmpty(LookupError):
    """A root vector spans no sl2 triple: [E, conj E] vanishes."""


def coords_in(rows: np.ndarray, v) -> np.ndarray:
    """Coordinates over the orthonormal rows of a subspace of an ambient
    coordinate vector, which must lie in their span."""
    v = np.asarray(v, float)
    out = rows @ v
    if np.linalg.norm(v - rows.T @ out) > 1e-7 * max(1.0, np.linalg.norm(v)):
        raise AlgebraMismatch("element is not in the subspace")
    return out


def _kernel_within(rows: np.ndarray, op: np.ndarray) -> np.ndarray:
    """Rows spanning {v in span(rows) : op v = 0}."""
    if rows.shape[0] == 0 or op.shape[0] == 0:
        return rows
    m = op @ rows.T
    _, s, vt = np.linalg.svd(m, full_matrices=len(m) < m.shape[1])
    scale = max(1.0, s[0] if len(s) else 0.0)
    null = vt[np.sum(s > _TOL_RANK * scale):]
    return null @ rows


def _gram_schmidt(rows_list: Sequence[np.ndarray]) -> np.ndarray:
    out = []
    for r in rows_list:
        v = np.array(r, float)
        for u in out:
            v -= (u @ v) * u
        nrm = np.linalg.norm(v)
        if nrm > _TOL_RANK:
            out.append(v / nrm)
    return np.array(out) if out else np.zeros((0, len(rows_list[0])))


def generic_weights(n: int) -> np.ndarray:
    """Fixed generic weights: the square roots of the first n primes.

    Square roots of distinct primes satisfy no rational linear relation, so
    a combination with these weights vanishes on no nonzero rational vector.
    """
    limit = 16 * (n + 8)  # above the n-th prime while n < 10^6
    sieve = np.ones(limit, bool)
    sieve[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.sqrt(np.flatnonzero(sieve)[:n].astype(float))


def find_maximal_abelian(alg: LieAlgebraBasis, side: np.ndarray,
                         must_contain: Sequence = ()) -> np.ndarray:
    """Orthonormal coordinate rows of a maximal abelian subspace of the span
    of the rows side: the kernel of one generic element of the centralizer.

    With cent the centralizer of must_contain in side and x a fixed generic
    element of cent, the span is the kernel of ad_x in cent.  Once it is
    abelian it is maximal: y in side commuting with it commutes with
    must_contain and with x, so y lies in that kernel (for regular x, ker
    ad_x is its own centralizer).  A non-abelian kernel means x was not
    generic, and the search raises there.

    Args:
        side: orthonormal rows of the subspace to search inside (closed
            under no bracket assumption).
        must_contain: coordinate vectors the subspace must contain; they
            have to commute with each other.  They come first in the basis.

    Raises:
        MaximalityNotCertified: the kernel of the generic element is not
            abelian, or must_contain does not lie in it.
    """
    mc = [np.asarray(m, float) for m in must_contain]
    cent = side
    for m in mc:
        cent = _kernel_within(cent, ad_from_coords(alg, m))

    x = generic_weights(len(cent)) @ cent
    span = _kernel_within(cent, ad_from_coords(alg, x))
    if len(span) == len(cent):
        span = cent  # nothing cut: keep the rows of cent
    residual = bracket_residual(alg, span, span, np.eye(alg.dim))
    if not residual < 1e-10:  # a NaN residual certifies nothing
        raise MaximalityNotCertified(
            f"kernel of the generic element not abelian: {residual:.2e}")

    head = _gram_schmidt(mc) if mc else span[:0]  # then the rest of span
    basis = np.vstack([head, _kernel_within(span, head)])
    if (len(basis) != len(span)
            or np.abs(head - head @ span.T @ span).max(initial=0.0) > 1e-8):
        raise MaximalityNotCertified(
            f"{len(basis)} rows with must_contain vs span dim {len(span)}")
    return basis


# ---------------------------------------------------------------------------
# joint eigendata and clustering


def _joint_eigen(ads):
    """Simultaneous eigendata of a commuting family of antisymmetric
    matrices, ad or n x n, a sequence or a (count, dim, dim) stack.

    Diagonalizes one fixed generic combination and accepts its eigenvectors
    when every member of the family is diagonal on them to 1e-8.

    Returns (alphas, vecs): alphas[m, j] is the frequency of ads[j] on
    eigenvector column vecs[:, m], meaning ads[j] v = i alpha v.

    Raises ClusteringAmbiguous when a member is not diagonal to 1e-8.
    """
    m = sum(cv * a for cv, a in zip(generic_weights(len(ads)), ads))
    _, vecs = np.linalg.eigh(1j * m)
    alphas = np.empty((vecs.shape[1], len(ads)))
    residual = 0.0
    for j, a in enumerate(ads):
        av = a @ vecs
        alphas[:, j] = (np.conj(vecs) * av).sum(axis=0).imag
        residual = max(residual, np.abs(av - 1j * alphas[:, j] * vecs).max())
    if residual <= 1e-8:
        return alphas, vecs
    raise ClusteringAmbiguous(f"joint diagonalization residual {residual:.2e}")


def _cluster_covectors(alphas: np.ndarray):
    """Group rows of alphas within L-inf tolerance; returns (centers, groups).

    Raises ClusteringAmbiguous when two distinct centers are closer than
    10x the merge tolerance TOL_ROOT, since the grouping then depends on it.
    """
    def linf(rows):
        return np.abs(rows[:, None] - rows[None]).max(axis=2)

    near = (linf(alphas) <= TOL_ROOT).tolist()
    groups = []
    for idx in np.lexsort(alphas.T[::-1]).tolist():
        for g in groups:
            if near[idx][g[0]]:
                g.append(idx)
                break
        else:
            groups.append([idx])
    centers = np.array([alphas[g].mean(axis=0) for g in groups])
    dist = linf(centers).tolist()
    for i, row in enumerate(dist):
        for d in row[i + 1:]:
            if d < 10 * TOL_ROOT:
                raise ClusteringAmbiguous(
                    f"root candidates separated by {d:.2e} < 10*tol")
    return centers, groups


@dataclass(frozen=True, eq=False)
class RestrictedRootSystem:
    """Nonzero restricted roots as (m, rank) covector rows with their (m,)
    multiplicities; a rootless flat has a (0, rank) covector array."""

    covectors: np.ndarray
    multiplicities: np.ndarray
    zero_multiplicity: int


def compute_restricted_roots(ads: np.ndarray) -> RestrictedRootSystem:
    """Joint spectrum of ads, the (rank, dim, dim) stack of ad of a flat's
    basis on an ad-invariant space, clustered into restricted roots.

    Multiplicities count complex joint eigenvectors, so they sum (with the
    zero multiplicity) to the dimension of that space, and the trace form
    -tr(ad_x^2) there is the sum over roots of mult * alpha(x)^2.
    """
    alphas, _ = _joint_eigen(ads)
    centers, groups = _cluster_covectors(alphas)
    mults = np.array([len(g) for g in groups])
    live = np.abs(centers).max(axis=1) > TOL_ROOT
    covs, mults, zero_mult = centers[live], mults[live], int(mults[~live].sum())
    # negation closure sanity: spectra of real operators are symmetric
    for c, m in zip(covs, mults):
        match = np.flatnonzero(np.abs(covs + c).max(axis=1) <= 10 * TOL_ROOT)
        assert match.size and mults[match[0]] == m
    assert mults.sum() + zero_mult == ads.shape[-1]
    return RestrictedRootSystem(covectors=covs, multiplicities=mults,
                                zero_multiplicity=zero_mult)


# ---------------------------------------------------------------------------
# complex root spaces and the strongly orthogonal cascade


def complex_root_spaces(alg: LieAlgebraBasis, t: np.ndarray) -> tuple:
    """Nonzero roots of the torus with orthonormal rows t on the complexified
    algebra: their (m, rank) covector rows, and for each the columns v with
    ad_h v = i alpha(h) v for real h in the torus; for a maximal torus each
    of these spaces is a line."""
    alphas, vecs = _joint_eigen(ad_from_coords(alg, t))
    centers, groups = _cluster_covectors(alphas)
    live = np.flatnonzero(np.abs(centers).max(axis=1) > TOL_ROOT)
    return centers[live], [vecs[:, groups[i]] for i in live]


def cartan_numbers(betas: np.ndarray) -> np.ndarray:
    """The integer Cartan numbers 2 (beta_a . beta_b) / |beta_a|^2 of the
    root rows betas, as a square matrix.

    Row a is the reflection in beta_a read on root values: it sends a
    point whose root values are v to v - v_a row a.  Column b is beta_b
    read on every coroot; that map is linear and one-to-one on the span of
    the roots, so beta + gamma is a root iff their columns add up to a
    column."""
    gram = betas @ betas.T
    cart = 2.0 * gram / np.diag(gram)[:, None]
    out = np.rint(cart)
    assert np.abs(cart - out).max(initial=0.0) < 1e-8, \
        "Cartan number off the integers"
    return out.astype(int)


def build_sl2_triple(alg: LieAlgebraBasis, t: np.ndarray, beta: np.ndarray,
                     vectors: np.ndarray) -> tuple:
    """Normalized sl2 (H, X, Y) through the root space of beta, for the
    torus rows t, the root beta and the columns spanning its root space
    (complex_root_spaces): [H,X] = 2X, [H,Y] = -2Y, [X,Y] = H.  H, X and
    Y are complex matrices of the complexified ambient algebra; Re X, Im X
    and Im H span the compact real form su(2) inside it.

    With C = [E, conj E] one has [C, E] = kappa0 E for a real kappa0 (it is
    negative in the compact form); H = (2/kappa0) C and a balanced rescaling
    of E, conj E then satisfy the standard relations without touching beta.
    """
    v = vectors[:, 0]

    e_mat = alg.from_coords(v.real) + 1j * alg.from_coords(v.imag)
    c_mat = e_mat @ np.conj(e_mat) - np.conj(e_mat) @ e_mat  # [E, conj E]
    assert np.abs(c_mat.real).max() < 1e-9  # C = i T0 with T0 real, in the torus
    t0_coords = coords_in(t, alg.coords(c_mat.imag))
    kappa0 = -float(beta @ t0_coords)
    if abs(kappa0) < 1e-12:
        raise RootSpaceEmpty("degenerate root vector, [C, E] = 0")

    s = np.sqrt(2.0 / abs(kappa0))
    x_mat = s * e_mat
    y_mat = np.sign(kappa0) * s * np.conj(e_mat)
    h_mat = (2.0 / kappa0) * c_mat

    assert np.abs(bracket(h_mat, x_mat) - 2 * x_mat).max() < TOL_SL2
    assert np.abs(bracket(h_mat, y_mat) + 2 * y_mat).max() < TOL_SL2
    assert np.abs(bracket(x_mat, y_mat) - h_mat).max() < TOL_SL2

    return h_mat, x_mat, y_mat


def cascade_strongly_orthogonal(alg: LieAlgebraBasis, k: np.ndarray,
                                p: np.ndarray,
                                z: np.ndarray) -> tuple:
    """Strongly orthogonal noncompact positive roots, highest first, for the
    Cartan split g = k + p given by its orthonormal rows, as (gammas,
    triples, torus, roots): the roots, their sl2 triples (build_sl2_triple),
    the orthonormal coordinate rows of the maximal torus and the covector
    rows of every root of its action.

    Needs a Hermitian pair: z central in k with ad_z^2 = -1 on p.  Roots are
    taken against a maximal torus of k through z; noncompact positive means
    the root evaluates to +1 on z.  At each step the highest remaining root
    (for a fixed generic functional) is kept and everything not strongly
    orthogonal to it is discarded: every root beta with beta + gamma or
    beta - gamma a root, read on the integer Cartan columns
    (cartan_numbers).

    Raises:
        ClusteringAmbiguous: the functional vanishes on a root, so it picks
            no positive system.
    """
    zc = alg.coords(z)
    adz = ad_from_coords(alg, zc)
    if np.abs((adz @ (adz @ p.T)) + p.T).max() > 1e-8:
        raise NotHermitian("ad_z^2 is not -identity on p")
    if k.shape[0] and np.abs(adz @ k.T).max() > 1e-8:
        raise NotHermitian("z is not central in k")

    t = find_maximal_abelian(alg, k, must_contain=[zc])
    covs, vectors = complex_root_spaces(alg, t)
    z_t = coords_in(t, zc)

    pool = np.flatnonzero(np.abs(covs @ z_t - 1.0) <= 1e-6)
    if not pool.size:
        raise CascadeStalled("no noncompact positive roots")

    func = generic_weights(len(t))
    if np.abs(covs @ func).min() <= 1e-9 * np.linalg.norm(func):
        raise ClusteringAmbiguous("cascade functional vanishes on a root")
    cols = cartan_numbers(covs).T
    root_cols = {c.tobytes() for c in cols}
    pool = pool[np.argsort(-(covs[pool] @ func), kind="stable")].tolist()
    picked = []
    while pool:
        g, *pool = pool
        picked.append(g)
        pool = [b for b in pool
                if (cols[b] + cols[g]).tobytes() not in root_cols
                and (cols[b] - cols[g]).tobytes() not in root_cols]

    gammas = [covs[i] for i in picked]
    triples = [build_sl2_triple(alg, t, covs[i], vectors[i]) for i in picked]
    return gammas, triples, t, covs
