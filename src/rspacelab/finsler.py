"""Schatten Finsler norms on the flat and their polytope unit balls.

For a flat direction a the operator ad_a preserves the isotropy-side
algebra k, and its singular values there are the restricted root values
|alpha(a)| with multiplicity.  The Schatten family F_p interpolates
between the spectral radius (p = inf), whose open unit ball is exactly
the root box, and the trace norm (p = 1).  F_2 is a quadratic norm:
F_2(a)^2 = sum over the roots of m_alpha alpha(a)^2.  Off the common root
kernel it is a constant multiple of the Riemannian norm |a| of the trace
form exactly when the weighted root sum sum m_alpha alpha alpha^T is a
multiple of the identity on the span of the roots, which is reported,
not assumed.
"""

from __future__ import annotations

import numpy as np

from . import algebra as al
from . import orbit as ob
from . import roots as rt
from .atlas import SpaceInstance

# the Schatten exponents norm_monotonicity compares, in ascending order
_CHAIN = (1.0, 2.0, 4.0, np.inf)


class DegenerateNorm(RuntimeError):
    """Every flat direction is in the kernel of the norm."""


def _schatten(sv: np.ndarray, p: float) -> np.ndarray:
    """Schatten p-norm of each row of singular values."""
    if np.isinf(p):
        return sv.max(axis=-1)
    return (sv ** p).sum(axis=-1) ** (1.0 / p)


def _map_flat_ads(s: SpaceInstance, us, f) -> np.ndarray:
    """f of the stacked ad_a on k, for the flat vectors a of the stack us
    taken in stacked blocks, the rows of f over all blocks stacked."""
    ads = ob.structure(s).flat_ad_k
    us = np.asarray(us, float)
    r, d = ads.shape[:2]
    rows = [f((us[b] @ ads.reshape(r, d * d)).reshape(-1, d, d))
            for b in al.sample_blocks(len(us), d * d)]
    # an empty stack still has the shape of f's rows
    return np.concatenate(rows) if rows else f(np.empty((0, d, d)))


def singular_values(s: SpaceInstance, us) -> np.ndarray:
    """Singular values of ad_a on k, one row per flat vector a of the stack
    us; F_p(a) is their Schatten p-norm."""
    return _map_flat_ads(s, us, lambda adx: np.abs(np.linalg.eigvalsh(
        1j * adx)))


def spectral_norms(s: SpaceInstance, us) -> np.ndarray:
    """F_inf(a), the largest singular value of ad_a on k, for every flat
    vector a of the stack us, from the real symmetric ad_a^T ad_a.

    Squaring resolves only the large singular values to round-off, so the
    norms that need the small ones take singular_values instead."""
    return _map_flat_ads(s, us, lambda adx: np.sqrt(np.linalg.eigvalsh(
        adx.swapaxes(-1, -2) @ adx)[:, -1]))


def norm_kernel(s: SpaceInstance) -> np.ndarray:
    """Orthonormal rows spanning the common kernel of all restricted roots."""
    return rt._kernel_within(np.eye(len(s.a_flat)),
                             ob.structure(s).sigma_roots.covectors)


def unit_ball_vs_box(s: SpaceInstance, samples: int = 400,
                     seed: int = 0) -> dict:
    """Sampled equivalence of {F_inf < 1} with the open root box.

    The draws come from default_rng(seed) in two calls: the flat vectors,
    normal of shape (samples, rank), then one stretch per sample, uniform
    on [0.3, 1.7).  Each vector off the common root kernel is rescaled to
    F_inf = its stretch, so the samples straddle the boundary.
    """
    covs = ob.structure(s).sigma_roots.covectors
    rng = np.random.default_rng(seed)
    us = rng.normal(size=(samples, len(s.a_flat)))
    stretch = rng.uniform(0.3, 1.7, size=samples)
    # F_inf(u), the largest root value, is zero on the common kernel of
    # the roots; those vectors stay as drawn
    moved = np.abs(us @ covs.T).max(axis=1, initial=0.0) > 1e-12
    us[moved] *= (stretch[moved] / spectral_norms(s, us[moved]))[:, None]
    in_ball = spectral_norms(s, us) < 1.0
    in_box = np.abs(us @ covs.T).max(axis=1, initial=0.0) < 1.0
    agree = int(np.sum(in_ball == in_box))
    return {"samples": samples, "agree": agree,
            "fraction": agree / samples}


def f2_vs_riemannian(s: SpaceInstance, samples: int = 200,
                     seed: int = 0) -> dict:
    """F_2 against the Riemannian norm |a| off the root kernel.

    ad_a is skew, so F_2(a)^2 = |ad_a|_F^2 = -tr(ad_a^2) on k, which is
    a^T Q a with Q = sum m_alpha alpha alpha^T over the restricted roots;
    `identity` is the largest residual of F_2^2 against the root sum,
    relative to F_2^2.  The ratio F_2/|a| is then constant off the kernel
    iff the nonzero eigenvalues of Q are equal to 1e-8 relative, which
    `isotropic` records; `constant` is the median ratio and `spread` the
    relative spread of the ratios.
    """
    roots = ob.structure(s).sigma_roots
    ker = norm_kernel(s)
    if ker.shape[0] == len(s.a_flat):
        raise DegenerateNorm(f"{s.descriptor.label}: all roots vanish")
    # one row per draw, the same numbers as one rng.normal(size=rank) each
    us = np.random.default_rng(seed).normal(size=(samples, len(s.a_flat)))
    us = us - (us @ ker.T) @ ker
    us = us[np.linalg.norm(us, axis=1) >= 1e-6]
    f2 = _schatten(singular_values(s, us), 2.0)
    covs, mults = roots.covectors, roots.multiplicities
    identity = np.abs(f2 ** 2 - (us @ covs.T) ** 2 @ mults) / f2 ** 2
    w = np.linalg.eigvalsh((covs.T * mults) @ covs)
    w = w[w > 1e-9 * w[-1]]
    # the rows of a_flat are trace-orthonormal, so |a| = |u|
    ratios = f2 / np.linalg.norm(us, axis=1)
    # the median, from one sort: np.median loads numpy.ma on first use
    n = len(ratios)
    const = float(np.sort(ratios)[(n - 1) // 2:n // 2 + 1].mean())
    spread = float(ratios.max() - ratios.min()) / const
    return {"constant": const, "spread": spread,
            "identity": float(identity.max()),
            "isotropic": bool(w[-1] - w[0] <= 1e-8 * w[-1]),
            "samples": len(ratios)}


def norm_monotonicity(s: SpaceInstance, samples: int = 100,
                      seed: int = 0) -> dict:
    """Worst violation of the Schatten chain F_inf <= F_p <= F_q <= F_1
    for p >= q, plus the trace-to-spectral multiplier on rank one rows."""
    us = np.random.default_rng(seed).normal(size=(samples, len(s.a_flat)))
    sv = singular_values(s, us)
    # one column per exponent; the norms descend along each row
    vals = np.stack([_schatten(sv, p) for p in _CHAIN], axis=1)
    worst = float(np.max(vals[:, 1:] - vals[:, :-1], initial=0.0))
    out = {"worst_violation": worst, "exponents": list(_CHAIN)}
    live = vals[:, -1] > 1e-12
    if len(s.a_flat) == 1 and live.any():
        last = np.flatnonzero(live)[-1]
        sv1 = singular_values(s, np.ones((1, 1)))[0]
        nonzero = sv1[sv1 > 1e-9 * max(sv1.max(), 1.0)]
        out["rank1_multiplier"] = float(vals[last, 0] / vals[last, -1])
        out["rank1_nonzero_count"] = len(nonzero)
        # F_1 = count * F_inf only when one magnitude carries the spectrum
        out["rank1_single_magnitude"] = bool(
            nonzero.min() > (1.0 - 1e-9) * nonzero.max())
    return out
