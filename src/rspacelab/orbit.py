"""Adjoint-orbit geometry: KKS form, momentum maps, critical spectra.

The complexified space N_C is the full adjoint orbit of the grading
element xi; the compact real form N sits inside as the orbit of the
sigma-fixed group.  All inner products on the orbit side are the trace
form tr(x^T y) of the matrices.  Every cascade root has unit length in it
(structure asserts so), so xi projects onto each cascade su(2) with unit
squared length, and the generator of the orbit circle action is a
period-one Hamiltonian with area 4 pi on the corresponding sphere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import algebra as al
from . import roots as rt
from .atlas import SpaceInstance, instance, rank_ratio


class NotOnRealForm(ValueError):
    """Operation requires a point (or velocity) on N, not just N_C."""


class NonConvergence(RuntimeError):
    """A descent restart missed the gradient certificate within budget."""


class FewerThanTwoClusters(RuntimeError):
    """Gap report needs at least two critical values."""


@dataclass(frozen=True, eq=False)
class CriticalCluster:
    value: float
    hessian_index: int
    population: int


# ---------------------------------------------------------------------------
# per-instance structure cache


@dataclass(frozen=True, eq=False)
class InstanceStructure:
    """Cascade and root data shared by the orbit and Finsler layers and by
    verify; the flat pair itself lives on the instance."""

    gammas: list                     # the cascade roots, highest first
    triples: list                    # their sl2 triples (H, X, Y)
    torus_roots: np.ndarray          # covector rows of every torus root
    xi_t: np.ndarray                 # xi in the orthonormal torus coords
    flat_ad_k: np.ndarray            # ad of s.a_flat's basis on sigma's k
    sigma_roots: rt.RestrictedRootSystem   # roots of (k, a_flat)
    sigma_bar_roots: rt.RestrictedRootSystem  # roots of (g, abar)


@functools.cache  # keyed on instance identity
def structure(s: SpaceInstance) -> InstanceStructure:
    g = s.g_vee
    gammas, triples, torus, roots = rt.cascade_strongly_orthogonal(
        g, *s.theta_decomp, s.xi)
    xi_t = rt.coords_in(torus, g.coords(s.xi))

    # xi projects onto the coroot gamma / |gamma|^2 of each cascade root,
    # with squared length gamma(xi)^2 / |gamma|^2 = 1 / |gamma|^2 in the
    # orthonormal torus coordinates; the cascade roots are long roots,
    # which the trace form of the real embedding makes unit vectors, so
    # the trace form is the calibrated metric
    assert all(abs(gamma @ gamma - 1.0) < 1e-8 for gamma in gammas), \
        "a cascade root is not a unit vector of the trace form"

    # k is ad-invariant under the flat, so ad on k is the ambient ad
    # compressed to the orthonormal rows of k
    k, _ = s.sigma_decomp
    flat_ad_k = k @ al.ad_from_coords(g, s.a_flat) @ k.T
    sigma_roots = rt.compute_restricted_roots(flat_ad_k)
    sigma_bar_roots = rt.compute_restricted_roots(al.ad_from_coords(g, s.abar))
    return InstanceStructure(gammas=gammas, triples=triples,
                             torus_roots=roots, xi_t=xi_t,
                             flat_ad_k=flat_ad_k,
                             sigma_roots=sigma_roots,
                             sigma_bar_roots=sigma_bar_roots)


def inner(x: np.ndarray, y: np.ndarray):
    """The orbit metric tr(x^T y) of two matrices, or along broadcasting
    (..., n, n) stacks of them."""
    return np.sum(x * y, axis=(-2, -1))


# ---------------------------------------------------------------------------
# points and tangents: a point of the orbit is its matrix, a tangent
# [x, a] at x is named by its generator a


def random_orbit_points(s: SpaceInstance, seeds) -> np.ndarray:
    """k . xi for each seed, k from an 8-step Gaussian random walk on K,
    which spreads close to the Haar measure; seed is an int or a
    SeedSequence.  The walks are stacked side by side, and the points come
    back as a (len(seeds), n, n) stack."""
    g = s.g_vee
    n = g.size
    # walk i draws its 8 steps from its own generator, in order
    steps = np.array([np.random.default_rng(seed).normal(size=(8, g.dim))
                      for seed in seeds]).reshape(-1, 8, g.dim)
    pts = np.empty((len(steps), n, n))
    for b in al.sample_blocks(len(steps), 8 * n * n):
        rots = al.expm_skew(g.from_coords(steps[b]))
        x = np.broadcast_to(s.xi, (len(rots), n, n))
        for i in range(8):
            x = rots[:, i] @ x @ rots[:, i].swapaxes(-1, -2)
        pts[b] = x
    return pts


def certificate_residual(s: SpaceInstance, xs: np.ndarray) -> float:
    """Largest drift of the eigenvalues of i x from those of i xi, over a
    point x or a (..., n, n) stack of them; conjugation invariant.  The
    spectrum of x fixes that of ad_x."""
    w0 = np.linalg.eigvalsh(1j * s.xi)
    return float(np.abs(np.linalg.eigvalsh(1j * xs) - w0).max())


def _tangent_frames(s: SpaceInstance, a: np.ndarray) -> np.ndarray:
    """Trace-orthonormal rows spanning the tangent space [x, g] at the
    orbit point x with coordinates a, as a (rank, dim) array.

    ad_x is antisymmetric in the trace-orthonormal basis, so the tangent
    space, its range, is spanned by the eigenvectors of the symmetric
    ad_x ad_x^T whose eigenvalues pass a 1e-9 relative cut.  On the orbit
    the nonzero eigenvalues are all equal.
    """
    adx = al.ad_from_coords(s.g_vee, a)
    w, vecs = np.linalg.eigh(adx @ adx.T)
    rank = int(np.sum(w > 1e-9 * w[-1]))
    # eigh sorts ascending: the range is the last rank eigenvectors
    return vecs[:, len(w) - rank:].T


# ---------------------------------------------------------------------------
# symplectic data


def kks(s: SpaceInstance, x: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Orbit two-form omega_x(v, w) = <x, [a, b]> for v = [x, a] and
    w = [x, b]; a and b may be broadcasting (..., n, n) stacks."""
    return inner(x, al.bracket(a, b))


def hamiltonian(s: SpaceInstance, xs: np.ndarray):
    """Pairing -2 pi tr(xi^T x) at a point x, or at every point of a
    (..., n, n) stack; minimal exactly at xi, steps of 4 pi."""
    return -2.0 * np.pi * inner(s.xi, xs)


def complex_structure_check(s: SpaceInstance, x: np.ndarray) -> float:
    """Max residual of (ad_x)^2 = -1 on the tangent space at x, read as
    max |ad_x^3 + ad_x|: ad_x is skew, so the tangent space is its range,
    and ad_x^2 = -1 there iff ad_x^3 = -ad_x."""
    adx = al.ad_operator(s.g_vee, x)
    return float(np.abs(adx @ (adx @ adx) + adx).max())


def _momentum_tn(s: SpaceInstance, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """[x, v] for point and velocity matrices, single or (..., n, n) stacks,
    after checking that every pair lies on the real form."""
    g = s.g_vee
    for m, what in ((x, "point"), (v, "velocity")):
        c = g.coords(m)
        odd = np.linalg.norm(c @ s.sigma.T + c, axis=-1)
        if np.any(odd > 1e-8 * np.maximum(1.0, np.linalg.norm(c, axis=-1))):
            raise NotOnRealForm(f"{what} is not sigma-odd")
    mu = al.bracket(x, v)
    _, p = s.sigma_decomp
    assert np.all(np.linalg.norm(g.coords(mu) @ p.T, axis=-1) < 1e-8)
    return mu


# ---------------------------------------------------------------------------
# flat model and cut locus


def _flat_points(s: SpaceInstance, vs: np.ndarray) -> np.ndarray:
    """Ad(exp([xi, v~])) xi, the exponential of the flat through xi, for
    every row v of vs in abar coordinates."""
    xi = s.xi
    vt = s.g_vee.from_coords(vs @ s.abar)
    rot = al.expm_skew(al.bracket(xi, vt))
    return rot @ xi @ rot.swapaxes(-1, -2)


def _flat_cut_distance(s: SpaceInstance, v) -> np.ndarray:
    """Distance of root values to the half-period shell pi/2 + pi Z, for
    one flat vector or for every row of a stack."""
    covs = structure(s).sigma_bar_roots.covectors
    m = np.mod(np.asarray(v, float) @ covs.T - np.pi / 2.0, np.pi)
    return np.minimum(m, np.pi - m).min(axis=-1, initial=np.inf)


def _geometric_cut_indicator(model: str, s: SpaceInstance,
                             pts: np.ndarray) -> np.ndarray:
    """Scaled distance from the brute-force cut condition, for each point
    matrix of a stack.

    For the circle model the cut set is where the point is sigma-fixed; for
    the product of two spheres it is where the two block components agree
    (antipode per factor, through the swap).
    """
    pc = s.g_vee.coords(pts)
    scale = np.linalg.norm(pc, axis=-1)
    if model == "cp1":
        moved = pc @ s.sigma.T - pc
        return np.linalg.norm(moved, axis=-1) / scale
    if model == "cp1xcp1":
        half = pts.shape[-1] // 2
        diff = pts[..., :half, :half] - pts[..., half:, half:]
        return np.linalg.norm(diff, axis=(-2, -1)) / scale
    raise ValueError(f"unknown cut model {model!r}")


# cut model -> the catalogue row (id, params) it is sampled on
CUT_MODEL_ROWS = {"cp1": ("grassmann_real", (1, 1)),
                  "cp1xcp1": ("grassmann_complex_hermitian", (1, 1))}


def cut_locus_oracle_check(model: str, samples: int = 1000, seed: int = 5,
                           band: float = 1e-6) -> dict:
    """Compare the shell predicate (_flat_cut_distance below band) with an
    explicit cut-locus computation, on the instance of the model's row in
    CUT_MODEL_ROWS.

    Half the samples are constructed on the half-period shell (the
    predicate must fire and the brute-force cut condition must hold); half
    are drawn uniformly and kept only when safely off the shell (both must
    be false).

    The even-numbered samples are the shell ones.  Their draws come first
    from default_rng(seed), one call each: the root beta of each, integers
    below the number of live roots; the flat vectors, normal of shape
    (n_on, rank N); the shell index, integers in [-1, 1).  The odd samples
    follow in one normal call of shape (n_off, rank N).
    """
    if model not in CUT_MODEL_ROWS:
        raise ValueError(f"unknown cut model {model!r}")
    rid, params = CUT_MODEL_ROWS[model]
    s = instance(rid, *params)
    covs = structure(s).sigma_bar_roots.covectors
    rng = np.random.default_rng(seed)
    scale = np.pi / max(np.linalg.norm(r) for r in covs)

    # the tangent-bundle image covers the flat only along the leading
    # rank(N) coordinates (the small flat sits first in abar), so the
    # equivalence with the brute-force cut condition is sampled there
    r_dim = len(s.a_flat)
    live = covs[np.linalg.norm(covs[:, :r_dim], axis=1) > 1e-9]

    on_shell = np.arange(samples) % 2 == 0
    n_on = int(on_shell.sum())
    bsub = live[rng.integers(len(live), size=n_on), :r_dim]
    u = rng.normal(size=(n_on, r_dim)) * scale * 0.3
    target = np.pi / 2.0 + np.pi * rng.integers(-1, 1, size=n_on)
    # slide along beta so that beta(v) sits exactly on the shell
    slide = target - np.einsum("ij,ij->i", bsub, u)
    u = u + slide[:, None] * bsub / np.einsum("ij,ij->i", bsub, bsub)[:, None]
    vs = np.zeros((samples, len(s.abar)))
    vs[on_shell, :r_dim] = u
    vs[~on_shell, :r_dim] = rng.normal(size=(samples - n_on, r_dim)) * scale
    dist = _flat_cut_distance(s, vs)
    # skip shell draws that another root moved off its own shell, and
    # uniform draws too close to the shell
    keep = np.where(on_shell, dist <= band / 10.0, dist >= 1e-4)
    vs, on_shell, dist = vs[keep], on_shell[keep], dist[keep]

    geo = np.empty(len(vs))
    n = s.g_vee.size
    for b in al.sample_blocks(len(vs), n * n):
        geo[b] = _geometric_cut_indicator(model, s, _flat_points(s, vs[b]))
    pred = dist < band  # the shell predicate on each kept point
    oracle = np.where(on_shell, geo < 1e-6, geo > 1e-6)
    mism = int(np.sum((pred != on_shell) | ~oracle))
    return {"model": model, "samples": samples, "tested": len(vs),
            "skipped": samples - len(vs), "mismatches": mism}


# ---------------------------------------------------------------------------
# momentum image against the box


def moment_image_spectrum_check(s: SpaceInstance, samples: int = 1000,
                                seed: int = 17) -> dict:
    """Spectral membership test for the tangent momentum image.

    Samples (x, v) = k . (xi, [X, xi]) with X in the flat; the momentum is
    then k . X, and membership in the adjoint sweep of the open box of
    radius r = rank ratio is read off the imaginary spectrum of ad on k.
    Interior samples must land inside, exterior samples outside, and the
    spectral radius must reproduce max |alpha(X)| exactly.

    The draws come from default_rng(seed) in three calls: the flat
    directions u, normal of shape (samples, rank); one radius factor t per
    sample, uniform on [0.1, 0.95) for the first samples // 2 (interior)
    and on [1.05, 2.0) for the rest (exterior); the k generators, normal of
    shape (samples, dim k).  X = u t r / max |alpha(u)| with u projected on
    the span of the roots, as its part on their common kernel moves nothing
    but the round-off, and a sample with no part left is dropped.
    """
    st = structure(s)
    g = s.g_vee
    rng = np.random.default_rng(seed)
    r = float(rank_ratio(s))
    covs = st.sigma_roots.covectors
    if covs.size == 0:
        raise NotOnRealForm("flat carries no roots; box test is vacuous")

    # first half interior, second half exterior
    interior = np.arange(samples) < samples // 2
    lo, hi = np.where(interior, 0.1, 1.05), np.where(interior, 0.95, 2.0)
    us = rng.normal(size=(samples, len(s.a_flat)))
    t = rng.uniform(lo, hi)
    xi, (k, _) = s.xi, s.sigma_decomp
    ks = rng.normal(size=(samples, k.shape[0]))
    us = us @ np.linalg.pinv(covs) @ covs
    m = np.abs(us @ covs.T).max(axis=1)
    keep = m >= 1e-9  # u on the common root kernel has no box radius
    interior, ks = interior[keep], ks[keep]
    xs = us[keep] * (t[keep] * r / m[keep])[:, None]

    lam = np.empty(len(xs))
    for b in al.sample_blocks(len(xs), g.size ** 2 + g.dim ** 2):
        x_lift = g.from_coords(xs[b] @ s.a_flat)
        rot = al.expm_skew(g.from_coords(ks[b] @ k))
        rot_t = rot.swapaxes(-1, -2)
        # Ad(exp k_gen) of the point xi and of the velocity [X, xi]
        pts = rot @ xi @ rot_t
        vel = rot @ al.bracket(x_lift, xi) @ rot_t
        mu = g.coords(_momentum_tn(s, pts, vel))
        ad_k = k @ al.ad_from_coords(g, mu) @ k.T
        # ad on k is antisymmetric: its spectral radius is its largest
        # singular value, read off the real symmetric ad_k^T ad_k
        lam[b] = np.sqrt(np.linalg.eigvalsh(
            ad_k.swapaxes(-1, -2) @ ad_k)[:, -1])
    target = np.abs(xs @ covs.T).max(axis=1, initial=0.0)
    inside = lam < r
    return {"interior_pass": int(np.sum(inside & interior)),
            "interior_total": int(np.sum(interior)),
            "exterior_pass": int(np.sum(~inside & ~interior)),
            "exterior_total": int(np.sum(~interior)),
            "max_spectral_mismatch": float(
                np.max(np.abs(lam - target), initial=0.0))}


# ---------------------------------------------------------------------------
# critical points of the orbit Hamiltonian


def _descend(s: SpaceInstance, pts: np.ndarray) -> np.ndarray:
    """Gauss-Newton on the residual [xi, x] along the orbit, from every
    start point of a (k, n, n) stack to the critical set; the end points
    come back as a (k, dim) coordinate stack.

    The residual's Jacobian on generators u, with x <- Ad(e^u) x, is
    J = -ad_xi ad_x.  At a critical point ad_xi and ad_x commute and both
    have spectrum {0, +-i}, so J^T J = 1 on the normal space, and the
    Gauss-Newton step -J^+ [xi, x] is -J^T [xi, x] = -G with
    G = [[xi, [xi, x]], x] there: each step is x <- R x R^T with
    R = exp(-c G), in n x n arithmetic and with no solve.  c = 0.5 /
    max(|G|, 0.5) caps the step at norm 0.5, so a start far from the critical
    set moves along K in bounded steps; near the critical set, which is
    Morse-Bott, the steps converge quadratically.  With scale = max(1,
    -B(xi, xi)), -B(xi, xi) = |ad_xi|_F^2, a restart stops once |[xi, x]|
    is below 1e-13 sqrt(scale), above the round-off floor where a
    converged restart stalls, or after 60 steps; the certificate in
    find_critical_points judges the end.  Each G is projected back onto g,
    else a stalled restart's steps grow its round-off off the orbit.

    The restarts move in lockstep on the stack, each with its own stopping
    rule.  A stacked n x n matmul or eigh runs slice by slice, and the end
    coordinates are taken one row at a time, so a restart ends where it
    would end alone, bitwise.
    """
    g = s.g_vee
    xi = s.xi
    tol = 1e-13 * np.sqrt(max(1.0, np.sum(al.ad_operator(g, xi) ** 2)))
    x = np.array(pts, float)
    live = np.arange(len(x))
    for _ in range(60):
        r = al.bracket(xi, x[live])
        keep = np.linalg.norm(r, axis=(-2, -1)) >= tol
        live, r = live[keep], r[keep]
        if live.size == 0:
            break
        grad = al.bracket(al.bracket(xi, r), x[live])
        grad = g.from_coords(g.coords(grad[:, None]))[:, 0]  # back onto g
        c = 0.5 / np.maximum(np.linalg.norm(grad, axis=(-2, -1)), 0.5)
        rot = al.expm_skew(-c[:, None, None] * grad)
        x[live] = rot @ x[live] @ rot.swapaxes(-1, -2)
    # one-row slices: a 2-D product would round each row by the row count
    return g.coords(x[:, None])[:, 0]


def _gradient_norms(s: SpaceInstance, a: np.ndarray) -> np.ndarray:
    """Norm of grad H at every orbit point of a (k, dim) coordinate stack.

    dH(v) = -2 pi <xi, v>, so grad H is -2 pi times the projection of xi on
    the tangent space [x, g] at x.  ad_x is skew, so that space is
    orthogonal to the kernel of ad_x, and on the orbit ad_x^2 = -1 on it:
    the projection is -[x, [x, xi]], an n x n bracket, and |grad H| =
    2 pi |[x, [x, xi]]|.
    """
    x = s.g_vee.from_coords(a)
    y = al.bracket(x, al.bracket(x, s.xi))
    return 2.0 * np.pi * np.sqrt(inner(y, y))


def morse_index(s: SpaceInstance, x: np.ndarray) -> int:
    """Morse index of H at a critical point x, from its exact Hessian.

    H(Ad(e^U) x) = H(x) + Q(U) + O(U^3) with Q(U) = pi <ad_xi U, ad_x U>
    (the first order term vanishes with [xi, x]), a positive multiple of
    U^T (ad_xi^T ad_x + ad_x^T ad_xi) U.  Q is taken on all of g: at a
    critical point ad_xi and ad_x commute, so Q vanishes on the kernel of
    ad_x and does not couple it to the tangent space, the range of the skew
    ad_x.  The eigenvalues below -1e-8 of the largest |eigenvalue| are
    counted.
    """
    g = s.g_vee
    adxi, adx = al.ad_operator(g, s.xi), al.ad_operator(g, x)
    q = adxi.T @ adx
    w = np.linalg.eigvalsh(q + q.T)
    return int(np.sum(w < -1e-8 * np.abs(w).max()))


def find_critical_points(s: SpaceInstance, restarts: int = 50,
                         seed: int = 0) -> list:
    """Critical clusters of the orbit Hamiltonian, sorted by value.

    Restart 0 starts at xi, restart i > 0 at a random orbit point drawn
    from child i - 1 of SeedSequence(seed).  All restarts flow to the
    critical set together (_descend: capped steps -[[xi, [xi, x]], x],
    which are Gauss-Newton steps near the critical set, run in lockstep on
    the stack of points, each restart with its own stopping rule, so the
    ends do not depend on the stack).  Each end point must be finite and
    certify a Riemannian gradient of H below 1e-7, else NonConvergence.
    The certificate (_gradient_norms) holds on the orbit only, where the
    ends lie by construction, as conjugates of xi by exponentials of g; so
    the eigenvalues of i x at each end must first match those of i xi to
    1e-9 of their largest (certificate_residual), else NonConvergence.
    The ends are then clustered by critical value.
    """
    g = s.g_vee
    pts = np.concatenate([s.xi[None], random_orbit_points(
        s, np.random.SeedSequence(seed).spawn(restarts - 1))])
    a = _descend(s, pts)
    if not np.isfinite(a).all():
        raise NonConvergence("descent ended at a non-finite point")
    ends = g.from_coords(a)
    drift = certificate_residual(s, ends)
    if drift > 1e-9 * np.abs(np.linalg.eigvalsh(1j * s.xi)).max():
        raise NonConvergence(f"descent left the orbit, spectral drift "
                             f"{drift:.2e}")
    gn = _gradient_norms(s, a)
    failed = np.flatnonzero(gn > 1e-7)
    if failed.size:
        raise NonConvergence(
            f"certificate failed, grad norm {gn[failed[0]]:.2e}")
    vals = hamiltonian(s, ends)

    spread = max(vals.max() - vals.min(), 1.0)
    order = np.argsort(vals)
    groups = []
    for idx in order:
        if groups and vals[idx] - vals[groups[-1][0]] <= 1e-4 * spread:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    out = []
    for grp in groups:
        out.append(CriticalCluster(
            value=float(np.mean([vals[i] for i in grp])),
            hessian_index=morse_index(s, ends[grp[0]]),
            population=len(grp)))
    return out


def critical_gap_report(s: SpaceInstance, restarts: int = 50,
                        seed: int = 0) -> dict:
    """Gaps of the descent's critical value ladder: total and lowest step."""
    clusters = find_critical_points(s, restarts=restarts, seed=seed)
    if len(clusters) < 2:
        raise FewerThanTwoClusters(f"found {len(clusters)} critical values")
    vals = [c.value for c in clusters]  # ascending, as the clusters come
    return {"values": vals,
            "max_gap": vals[-1] - vals[0],
            "smin_gap": vals[1] - vals[0],
            "indices": [c.hessian_index for c in clusters],
            "populations": [c.population for c in clusters]}


def _weyl_orbit(cart: np.ndarray, start: np.ndarray) -> np.ndarray:
    """W . start as integer root-value rows, start first, W generated by
    the reflections whose Cartan numbers are the rows of cart.

    On W . xi every root takes a value in {-1, 0, 1} (ad_xi has spectrum
    {0, +-i} and W permutes the roots), and these values name the point.
    The reflection in beta sends the values v to v - v_beta cart[beta]; it
    fixes v where v_beta = 0 and is the reflection in -beta, so a point is
    reflected only in the roots positive on it."""
    cart, start = cart.astype(np.int8), start.astype(np.int8)
    seen, stack = {start.tobytes(): None}, [start]
    while stack:
        v = stack.pop()
        pos = v > 0
        for w in v - v[pos, None] * cart[pos]:
            if (key := w.tobytes()) not in seen:
                seen[key] = None
                stack.append(w)
    return np.frombuffer(b"".join(seen), np.int8).reshape(len(seen), -1)


def _root_factors(cart: np.ndarray) -> list:
    """Index arrays of the irreducible factors of the roots with Cartan
    numbers cart: the components of the graph joining the roots whose
    Cartan number is nonzero."""
    linked = cart != 0
    factors, left = [], np.ones(len(cart), bool)
    while left.any():
        part = linked[np.argmax(left)]
        while not np.array_equal(grown := linked[part].any(axis=0), part):
            part = grown
        factors.append(np.flatnonzero(part))
        left &= ~part
    return factors


@functools.cache  # keyed on instance identity; callers share the list
def critical_ladder(s: SpaceInstance) -> list:
    """Critical levels of H with the distinct Morse indices of their
    components, as sorted (level, [indices]) pairs.

    H is a perfect Morse-Bott function whose critical set meets the torus
    in the fixed points W . xi, one W_xi-orbit per component; the level of
    p is -2 pi xi_t . p, and the index of p's component counts the torus
    roots beta with beta(xi) beta(p) < 0 (Bott, Bull. SMF 84 (1956);
    Atiyah, Bull. LMS 14 (1982)).  W is the product of the Weyl groups of
    the irreducible factors F of the torus roots, so W . xi is the product
    of the factor orbits, each walked on integer root values k
    (_weyl_orbit).  On F the roots B_F pair as sum beta(x) beta(y) =
    c_F x . y with c_F an integer, so p's level is the bottom
    -2 pi |xi_t|^2 plus 2 pi times its exact key, the sum over factors of
    (k0 . k0 - k0 . k) / c_F with k0 the root values of xi."""
    from fractions import Fraction  # on first use: importing orbit loads none
    xi_t, roots = structure(s).xi_t, structure(s).torus_roots
    vals = roots @ xi_t
    k0 = np.rint(vals).astype(int)
    assert np.abs(vals - k0).max(initial=0.0) < 1e-8, \
        "root value off the integers"
    cart = rt.cartan_numbers(roots)
    ladder = {Fraction(0): {0}}
    for f in _root_factors(cart):
        gram = roots[f].T @ roots[f]
        g2 = gram @ gram
        c_f = round(np.trace(g2) / np.trace(gram))
        assert np.abs(g2 - c_f * gram).max() <= 1e-9 * c_f * c_f, \
            "Killing pairing off an integer multiple of the trace form"
        keys = _weyl_orbit(cart[np.ix_(f, f)], k0[f])
        # the factor's distinct (offset, index) steps
        steps = set(zip((k0[f] @ k0[f] - keys @ k0[f]).tolist(),
                        np.sum(k0[f] * keys < 0, axis=1).tolist()))
        summed = {}
        for key, ix in ladder.items():
            for d, i in steps:
                summed.setdefault(key + Fraction(d, c_f), set()).update(
                    a + i for a in ix)
        ladder = summed
    bottom = -2.0 * np.pi * float(xi_t @ xi_t)
    return [(bottom + 2.0 * np.pi * float(key), sorted(ladder[key]))
            for key in sorted(ladder)]


def weyl_critical_values(s: SpaceInstance) -> list:
    """The critical values of H, ascending: the levels of critical_ladder,
    enumerated without any optimization; the oracle of the ambient
    capacities (capacity_hermitian_ambient) and of the descent."""
    return [v for v, _ in critical_ladder(s)]
