"""Catalogue of symmetric R-spaces realized as adjoint orbits.

Each entry fixes an ambient compact algebra g, a grading element xi with
ad_xi spectrum {0, +-i}, and an involution sigma with sigma(xi) = -xi.
The space N is the orbit of xi under the sigma-fixed subgroup K, and
theta = exp(pi ad_xi) cuts out the compact dual pair whose noncompact side
carries the complexified space N_C.

Group manifolds appear via the product trick (K x K through the diagonal),
and Hermitian spaces via the doubled ambient k + k with the swap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import algebra as al
from . import roots as rt
from .algebra import SizeOutOfRange  # re-exported for callers

_PI1 = ("trivial", "Z", "Z2")


class UnsupportedRow(ValueError):
    """Row exists in the catalogue but cannot be instantiated here."""


class RatioNotIntegral(RuntimeError):
    """rank(N_C) is not an integer multiple of rank(N)."""


@dataclass(frozen=True)
class RSpaceDescriptor:
    """Catalogue row: identity, parameters and tabulated invariants."""

    id: str
    params: tuple
    table_pi1: str
    table_ratio: int
    hermitian: bool
    table_row: str
    instantiable: bool = True

    def __post_init__(self):
        if self.table_pi1 not in _PI1:
            raise UnsupportedRow(f"{self.id}: pi_1 {self.table_pi1!r} "
                                 f"is none of {_PI1}")
        if self.table_ratio not in (1, 2):
            raise UnsupportedRow(f"{self.id}: rank ratio "
                                 f"{self.table_ratio!r} is neither 1 nor 2")

    @property
    def label(self) -> str:
        inner = ",".join(str(p) for p in self.params)
        return f"{self.id}({inner})"


@dataclass(frozen=True, eq=False)
class SpaceInstance:
    """A realized catalogue row.

    xi is the read-only matrix of the grading element and sigma the
    read-only coordinate matrix of the real involution.  Every basis below
    is a stack of orthonormal coordinate rows over g_vee.  theta_decomp and
    sigma_decomp are the (k, p) eigenspace splits of theta = exp(pi ad_xi)
    and of sigma.  The flat pair is a_flat, maximal abelian in
    l = k cap p_vee (the tangent directions of N at xi, k being sigma's k
    and p_vee theta's p), and abar, maximal abelian in p_vee with a_flat's
    rows leading; their row counts are rank(N) and rank(N_C).
    """

    descriptor: RSpaceDescriptor
    g_vee: al.LieAlgebraBasis
    sigma: np.ndarray
    xi: np.ndarray
    theta_decomp: tuple
    sigma_decomp: tuple
    a_flat: np.ndarray
    abar: np.ndarray


# ---------------------------------------------------------------------------
# row builders: return (ambient algebra, sigma, xi)


def _block_j(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def _build_quadric(p: int, q: int):
    m = p + q + 2
    g = al.build_algebra("so", m)
    d = np.ones(m)
    d[p + 1:] = -1.0
    sigma = al.involution_from_conjugation(g, np.diag(d))
    xi_mat = np.zeros((m, m))
    xi_mat[0, p + 1] = -1.0
    xi_mat[p + 1, 0] = 1.0
    return g, sigma, g.element(xi_mat)


def _build_sphere(n: int):
    return _build_quadric(0, n)


def _grassmann_grading(p: int, q: int) -> np.ndarray:
    m = p + q
    d = np.concatenate([np.full(p, q / m), np.full(q, -p / m)])
    return np.diag(1j * d)


def _build_grassmann_real(p: int, q: int):
    m = p + q
    g = al.build_algebra("su", m)
    conj = np.kron(np.eye(m), np.diag([1.0, -1.0]))
    sigma = al.involution_from_conjugation(g, conj)
    xi = g.element(al.embed_complex(_grassmann_grading(p, q)))
    return g, sigma, xi


def _build_grassmann_quaternionic(p: int, q: int):
    m = p + q
    g = al.build_algebra("su", 2 * m)
    jmat = al.embed_complex(_block_j(m))
    conj = np.kron(np.eye(2 * m), np.diag([1.0, -1.0]))
    sigma = al.involution_from_conjugation(g, jmat @ conj)
    d0 = _grassmann_grading(p, q).diagonal()
    xi = g.element(al.embed_complex(np.diag(np.concatenate([d0, d0]))))
    return g, sigma, xi


def _build_unitary_group(n: int):
    g = al.build_algebra("su", 2 * n)
    sig_mat = al.embed_complex(np.diag(np.concatenate([np.ones(n), -np.ones(n)])))
    sigma = al.involution_from_conjugation(g, sig_mat)
    xi = g.element(al.embed_complex(0.5 * _block_j(n)))
    return g, sigma, xi


def _build_orthogonal_group(n: int):
    g = al.build_algebra("so", 2 * n)
    sigma = al.involution_from_conjugation(
        g, np.diag(np.concatenate([np.ones(n), -np.ones(n)])))
    xi = g.element(0.5 * _block_j(n))
    return g, sigma, xi


def _build_unitary_mod_symplectic(n: int):
    g = al.build_algebra("so", 4 * n)
    sigma = al.involution_from_conjugation(g, _block_j(2 * n))
    r = _block_j(n)
    xi_mat = np.zeros((4 * n, 4 * n))
    xi_mat[:2 * n, :2 * n] = 0.5 * r
    xi_mat[2 * n:, 2 * n:] = -0.5 * r
    return g, sigma, g.element(xi_mat)


def _build_symplectic_group(n: int):
    g = al.build_algebra("sp", 2 * n)
    z = np.zeros((2 * n, 2 * n))
    d = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    sigma = al.involution_from_conjugation(g, al.embed_quaternion(d, z, z, z))
    xi = g.element(0.5 * al.embed_quaternion(_block_j(n), z, z, z))
    return g, sigma, xi


def _build_unitary_mod_orthogonal(n: int):
    g = al.build_algebra("sp", n)
    z = np.zeros((n, n))
    eye = np.eye(n)
    sigma = al.involution_from_conjugation(g, al.embed_quaternion(z, z, eye, z))
    xi = g.element(0.5 * al.embed_quaternion(z, eye, z, z))
    return g, sigma, xi


def _hermitian_row(factor: al.LieAlgebraBasis, z_mat: np.ndarray):
    g = al.direct_sum(factor, factor)
    sigma = al.swap_involution(g, factor.dim)
    sz = factor.size
    xi_mat = np.zeros((2 * sz, 2 * sz))
    xi_mat[:sz, :sz] = z_mat
    xi_mat[sz:, sz:] = -z_mat
    return g, sigma, g.element(xi_mat)


def _build_grassmann_complex_hermitian(p: int, q: int):
    factor = al.build_algebra("su", p + q)
    return _hermitian_row(factor, al.embed_complex(_grassmann_grading(p, q)))


def _build_quadric_complex_hermitian(n: int):
    factor = al.build_algebra("so", n + 2)
    z = np.zeros((n + 2, n + 2))
    z[0, 1] = -1.0
    z[1, 0] = 1.0
    return _hermitian_row(factor, z)


def _build_orthogonal_mod_unitary_hermitian(n: int):
    factor = al.build_algebra("so", 2 * n)
    return _hermitian_row(factor, 0.5 * _block_j(n))


def _build_symplectic_mod_unitary_hermitian(n: int):
    factor = al.build_algebra("sp", n)
    z = np.zeros((n, n))
    zx = 0.5 * al.embed_quaternion(z, np.eye(n), z, z)
    return _hermitian_row(factor, zx)


def _pi1_grassmann_real(p, q):
    return "Z" if (p, q) == (1, 1) else "Z2"


def _pi1_quadric(p, q):
    return "Z" if p == 1 else "Z2"


# id -> (builder, family, scale, offset, lowest parameter, pi1 rule, ratio,
# hermitian, row label).  The row's ambient algebra (for Hermitian rows, each
# of its two factors) is family(scale * sum(params) + offset), so the top of
# the parameter window comes from algebra._SIZE_RANGE.
_ROWS = {
    "grassmann_real": (_build_grassmann_real, "su", 1, 0, 1,
                       _pi1_grassmann_real, 1, False, "1"),
    "grassmann_quaternionic": (_build_grassmann_quaternionic, "su", 2, 0, 1,
                               lambda *a: "trivial", 2, False, "2"),
    "unitary_group": (_build_unitary_group, "su", 2, 0, 2,
                      lambda *a: "Z", 1, False, "3"),
    "orthogonal_group": (_build_orthogonal_group, "so", 2, 0, 3,
                         lambda *a: "Z2", 1, False, "4"),
    "unitary_mod_symplectic": (_build_unitary_mod_symplectic, "so", 4, 0, 2,
                               lambda *a: "Z", 1, False, "5"),
    "symplectic_group": (_build_symplectic_group, "sp", 2, 0, 1,
                         lambda *a: "trivial", 2, False, "6"),
    "unitary_mod_orthogonal": (_build_unitary_mod_orthogonal, "sp", 1, 0, 2,
                               lambda *a: "Z", 1, False, "7"),
    "sphere": (_build_sphere, "so", 1, 2, 2,
               lambda *a: "trivial", 2, False, "8a"),
    "quadric_real": (_build_quadric, "so", 1, 2, 1,
                     _pi1_quadric, 1, False, "8bc"),
    "grassmann_complex_hermitian": (_build_grassmann_complex_hermitian,
                                    "su", 1, 0, 1,
                                    lambda *a: "trivial", 2, True, "H1"),
    "orthogonal_mod_unitary_hermitian": (
        _build_orthogonal_mod_unitary_hermitian, "so", 2, 0, 2,
        lambda *a: "trivial", 2, True, "H2"),
    "symplectic_mod_unitary_hermitian": (
        _build_symplectic_mod_unitary_hermitian, "sp", 1, 0, 1,
        lambda *a: "trivial", 2, True, "H3"),
    "quadric_complex_hermitian": (_build_quadric_complex_hermitian,
                                  "so", 1, 2, 2,
                                  lambda *a: "trivial", 2, True, "H4"),
}

# exceptional rows: listed, never instantiated
_EXCEPTIONAL = [
    RSpaceDescriptor("quaternionic_grassmann_z2", (), "Z2", 1, False, "9", False),
    RSpaceDescriptor("octonionic_projective_plane", (), "trivial", 2, False, "10", False),
    RSpaceDescriptor("su8_mod_sp4_z2", (), "Z2", 1, False, "11", False),
    RSpaceDescriptor("circle_times_e6_mod_f4", (), "Z", 1, False, "12", False),
    RSpaceDescriptor("bioctonionic_projective_plane", (), "trivial", 2, True, "H5", False),
    RSpaceDescriptor("e7_mod_e6_circle", (), "trivial", 2, True, "H6", False),
]

_DEFAULT_SWEEP = [
    ("grassmann_real", (1, 1)),
    ("grassmann_real", (1, 2)),
    ("grassmann_real", (2, 2)),
    ("grassmann_quaternionic", (1, 1)),
    ("unitary_group", (2,)),
    ("unitary_group", (3,)),
    ("orthogonal_group", (3,)),
    ("orthogonal_group", (5,)),
    ("unitary_mod_symplectic", (2,)),
    ("symplectic_group", (1,)),
    ("symplectic_group", (2,)),
    ("unitary_mod_orthogonal", (2,)),
    ("unitary_mod_orthogonal", (3,)),
    ("sphere", (2,)),
    ("sphere", (3,)),
    ("sphere", (4,)),
    ("quadric_real", (1, 2)),
    ("quadric_real", (2, 2)),
    ("grassmann_complex_hermitian", (1, 1)),
    ("grassmann_complex_hermitian", (1, 2)),
    ("orthogonal_mod_unitary_hermitian", (3,)),
    ("symplectic_mod_unitary_hermitian", (1,)),
    ("quadric_complex_hermitian", (2,)),
]


# smallest healthy parameters per catalogue row
_DEFAULT_ROW_PARAMS = {
    "grassmann_real": (1, 2),
    "grassmann_quaternionic": (1, 1),
    "unitary_group": (2,),
    "orthogonal_group": (3,),
    "unitary_mod_symplectic": (2,),
    "symplectic_group": (1,),
    "unitary_mod_orthogonal": (2,),
    "sphere": (2,),
    "quadric_real": (1, 2),
    "grassmann_complex_hermitian": (1, 1),
    "orthogonal_mod_unitary_hermitian": (3,),
    "symplectic_mod_unitary_hermitian": (1,),
    "quadric_complex_hermitian": (2,),
}


def window(row_id: str) -> tuple:
    """(arity, lowest, top) of a row: one parameter n with
    lowest <= n <= top, or two with lowest <= p <= q and p + q <= top."""
    builder, family, scale, offset, low = _ROWS[row_id][:5]
    top = (al._SIZE_RANGE[family][1] - offset) // scale
    return builder.__code__.co_argcount, low, top


def refuse_exceptional(row_id: str) -> None:
    """Raise UnsupportedRow if row_id names an exceptional row."""
    for d in _EXCEPTIONAL:
        if d.id == row_id:
            raise UnsupportedRow(
                f"row {d.table_row} ({d.id}) is exceptional: listed, not "
                "instantiable, and takes no parameters")


def descriptor(row_id: str, *params: int) -> RSpaceDescriptor:
    refuse_exceptional(row_id)
    if row_id not in _ROWS:
        raise UnsupportedRow(f"unknown catalogue row {row_id!r}")
    pi1, ratio, herm, label = _ROWS[row_id][5:]
    arity, low, top = window(row_id)
    if len(params) != arity:
        raise UnsupportedRow(f"{row_id} takes {arity} parameter(s), "
                             f"got {len(params)}")
    if arity == 1:
        ok = low <= params[0] <= top
        text = f"{low} <= n <= {top}"
    else:
        ok = low <= params[0] <= params[1] and sum(params) <= top
        text = f"{low} <= p <= q, p + q <= {top}"
    if not ok:
        inner = ",".join(str(x) for x in params)
        raise UnsupportedRow(f"{row_id}({inner}) outside the window {text}")
    return RSpaceDescriptor(id=row_id, params=tuple(params),
                            table_pi1=pi1(*params), table_ratio=ratio,
                            hermitian=herm, table_row=label)


def list_entries() -> list:
    """Default desk-scale sweep plus the non-instantiable exceptional rows."""
    return [descriptor(rid, *p) for rid, p in _DEFAULT_SWEEP] + list(_EXCEPTIONAL)


def default_entries() -> list:
    """One instance per catalogue row at its default parameters."""
    rows = [descriptor(rid, *p) for rid, p in _DEFAULT_ROW_PARAMS.items()]
    return rows + list(_EXCEPTIONAL)


def instantiate(d: RSpaceDescriptor) -> SpaceInstance:
    """Realize a catalogue row, validating the defining structure.

    Checks: sigma(xi) = -xi, the spectrum of ad_xi is {0, +-i}, sigma and
    theta = exp(pi ad_xi) commute and are automorphisms, and k splits as
    h + l; the flat pair is certified maximal by find_maximal_abelian.
    """
    if not d.instantiable:
        raise UnsupportedRow(f"{d.id} needs an exceptional ambient algebra")
    builder = _ROWS[d.id][0]
    g, sigma, xi = builder(*d.params)

    xc = g.coords(xi)
    if np.linalg.norm(sigma @ xc + xc) > 1e-9:
        raise UnsupportedRow(f"{d.id}: sigma does not reverse xi")

    # ad_xi is skew, so ad_xi^3 = -ad_xi iff its spectrum lies in {0, +-i};
    # -tr(ad_xi^2) counts the +-i, which a central xi lacks.  Then
    # exp(pi ad_xi) is exactly 1 + 2 ad_xi^2: +1 on the kernel, -1 elsewhere
    adxi = al.ad_operator(g, xi)
    adxi2 = adxi @ adxi
    if np.abs(adxi @ adxi2 + adxi).max() > 1e-9 or -np.trace(adxi2) < 0.5:
        raise UnsupportedRow(f"{d.id}: ad_xi spectrum is not {{0, +-i}}")
    eye = np.eye(g.dim)
    theta = al.make_involution(g, eye + 2.0 * adxi2)
    if np.abs(theta @ sigma - sigma @ theta).max() >= 1e-9:
        raise UnsupportedRow(f"{d.id}: sigma and theta do not commute")

    tdec = al.cartan_decompose(theta)
    sdec = al.cartan_decompose(al.make_involution(g, sigma))
    k, p_vee = sdec[0], tdec[1]
    # h and l: theta's +1 and -1 eigenspaces inside k
    h = rt._kernel_within(k, theta - eye)
    l = rt._kernel_within(k, theta + eye)
    if len(l) + len(h) != len(k):
        raise UnsupportedRow(f"{d.id}: k does not split as h + l")
    a_flat = rt.find_maximal_abelian(g, l)
    abar = rt.find_maximal_abelian(g, p_vee, must_contain=a_flat)
    return SpaceInstance(descriptor=d, g_vee=g, sigma=sigma, xi=xi,
                         theta_decomp=tdec, sigma_decomp=sdec,
                         a_flat=a_flat, abar=abar)


@functools.cache
def instance(row_id: str, *params: int) -> SpaceInstance:
    """instantiate(descriptor(row_id, *params)), made once per process."""
    return instantiate(descriptor(row_id, *params))


def rank_ratio(s: SpaceInstance) -> int:
    """rank(N_C) / rank(N), the dimensions of the flat pair."""
    rk_nc, rk_n = len(s.abar), len(s.a_flat)
    if rk_nc % rk_n:
        raise RatioNotIntegral(f"{rk_nc} not a multiple of {rk_n}")
    return rk_nc // rk_n


def verify_table(entries=None) -> list:
    """Recompute the rank ratio per instantiable row against the catalogue.

    Returns one record per row; 'ok' also requires the ratio-2 rows to be
    exactly the simply connected ones.
    """
    out = []
    for d in entries or list_entries():
        if not d.instantiable:
            out.append({"space": d.label, "row": d.table_row,
                        "computed_ratio": None, "table_ratio": d.table_ratio,
                        "pi1": d.table_pi1, "ok": True, "skipped": True})
            continue
        s = instantiate(d)
        ratio = rank_ratio(s)
        ok = (ratio == d.table_ratio
              and (ratio == 2) == (d.table_pi1 == "trivial"))
        out.append({"space": d.label, "row": d.table_row,
                    "computed_ratio": ratio, "table_ratio": d.table_ratio,
                    "pi1": d.table_pi1, "ok": bool(ok), "skipped": False})
    return out
