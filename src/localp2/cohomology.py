"""Exact K-theory arithmetic for the local surface.

X is the total space of the canonical bundle over the projective plane.  Its
compact-type K-classes live on the zero section, so they and the classes
pulled back from it are elements of K(P^2) = Z[t]/(1-t)^3, t = [O(-1)]:
integer triples in one of four registered frames, related by unimodular
integer matrices.  The Euler pairings are integers read off the K-ring
(see ``euler_pairing_bk``).  Everything here is exact integer arithmetic,
with no floating point (central_charge is the one exception since it
consumes complex period values).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BasisError

__all__ = [
    "Basis",
    "KClass",
    "line_bundle_class",
    "tensor",
    "basis_change",
    "change_of_basis_matrix",
    "euler_pairing_bk",
    "chi_p2",
    "euler_form_compact",
    "central_charge",
    "brane_basis",
    "charge_basis",
    "exceptional_collection",
    "pairing_table",
]


class Basis(str, Enum):
    """Registered coordinate frames for K-classes."""

    LINE_BUNDLE = "line_bundle"   # [O], [O(-1)], [O(-2)]
    BRANE = "brane"               # point, shifted line, [O(-2)]
    EXCEPTIONAL = "exceptional"   # O, T(-1), O(1)
    CHARGE = "charge"             # [O], [O(1)]-[O], point  (dual to brane)


@dataclass(frozen=True)
class KClass:
    basis: Basis
    coords: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "basis", Basis(self.basis))
        c = tuple(self.coords)
        if len(c) != 3 or not all(isinstance(v, int) for v in c):
            raise BasisError(f"coords must be an integer triple, got {self.coords!r}")
        object.__setattr__(self, "coords", c)


# columns are the frame's basis vectors written in line-bundle coordinates
_FRAME_TO_LB = {
    Basis.LINE_BUNDLE: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    Basis.BRANE: ((1, 0, 0), (-2, 1, 0), (1, -1, 1)),
    Basis.EXCEPTIONAL: ((1, 3, 3), (0, -1, -3), (0, 0, 1)),
    Basis.CHARGE: ((1, 2, 1), (0, -3, -2), (0, 1, 1)),
}


def _mat_vec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _det3(m) -> int:
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _inv3(m):
    """Inverse of a unimodular integer matrix, exactly (adjugate over det)."""
    d = _det3(m)
    if d not in (1, -1):
        raise BasisError(f"frame matrix must be unimodular, det = {d}")
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            minor = (m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]])
            cof[i][j] = (-1) ** (i + j) * minor
    # adjugate = transpose of the cofactor matrix
    return tuple(tuple(cof[j][i] * d for j in range(3)) for i in range(3))


_LB_TO_FRAME = {b: _inv3(m) for b, m in _FRAME_TO_LB.items()}


def change_of_basis_matrix(source: Basis, target: Basis):
    """Integer matrix applied to coordinate triples by basis_change."""
    source = Basis(source)
    target = Basis(target)
    return _mat_mul(_LB_TO_FRAME[target], _FRAME_TO_LB[source])


def basis_change(k: KClass, target: Basis) -> KClass:
    """Rewrite k in the target frame by the registered unimodular matrix."""
    if not isinstance(k, KClass):
        raise BasisError(f"expected KClass, got {type(k).__name__}")
    target = Basis(target)
    m = change_of_basis_matrix(k.basis, target)
    return KClass(target, _mat_vec(m, k.coords))


def _lb_coords(k: KClass) -> tuple[int, int, int]:
    if k.basis not in _FRAME_TO_LB:
        raise BasisError(f"unknown basis tag {k.basis!r}")
    return _mat_vec(_FRAME_TO_LB[k.basis], k.coords)


def line_bundle_class(n: int) -> KClass:
    """K-class of O(n) in line-bundle coordinates, any integer n.

    Works in Z[t]/(1-t)^3 with t the class of O(-1): negative twists are
    powers of t, positive twists are powers of t^{-1} = 3 - 3t + t^2.
    """
    if n == 0:
        poly = (1, 0, 0)
    elif n < 0:
        poly = _poly_pow((0, 1, 0), -n)
    else:
        poly = _poly_pow((3, -3, 1), n)
    return KClass(Basis.LINE_BUNDLE, poly)


def _poly_mul(p, q):
    """Product in Z[t]/(1-t)^3, coefficients (c0, c1, c2)."""
    full = [0] * 5
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            full[i + j] += a * b
    # t^3 = 1 - 3t + 3t^2, t^4 = 3 - 8t + 6t^2
    c0 = full[0] + full[3] + 3 * full[4]
    c1 = full[1] - 3 * full[3] - 8 * full[4]
    c2 = full[2] + 3 * full[3] + 6 * full[4]
    return (c0, c1, c2)


def _poly_pow(p, n):
    out = (1, 0, 0)
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def tensor(a: KClass, b: KClass) -> KClass:
    """Product of K-classes, returned in line-bundle coordinates."""
    return KClass(Basis.LINE_BUNDLE, _poly_mul(_lb_coords(a), _lb_coords(b)))


def euler_pairing_bk(b: KClass, e: KClass) -> int:
    """Pairing of a zero-section class b with a pulled-back class e:
    the plane Euler characteristic of their product.

    On the plane chi(O) = 1 and O(-1), O(-2) are acyclic, so the Euler
    characteristic of c0[O] + c1[O(-1)] + c2[O(-2)] is c0, the [O]-coordinate.
    """
    return _poly_mul(_lb_coords(b), _lb_coords(e))[0]


def chi_p2(f: KClass, g: KClass) -> int:
    """One-sided Euler characteristic chi(F, G) = chi(F^dual (x) G) on the
    plane, the [O]-coordinate as in ``euler_pairing_bk``."""
    # dualizing is t -> t^{-1}, with t^{-1} = 3 - 3t + t^2, t^{-2} = 6 - 8t + 3t^2
    a, b, c = _lb_coords(f)
    return _poly_mul((a + 3 * b + 6 * c, -3 * b - 8 * c, b + 3 * c), _lb_coords(g))[0]


def euler_form_compact(b1: KClass, b2: KClass) -> int:
    """Euler form between compactly supported classes on the threefold:
    chi(F, G) - chi(G, F), each side on the plane.  Antisymmetric."""
    return chi_p2(b1, b2) - chi_p2(b2, b1)


def charge_basis() -> list[KClass]:
    """Pulled-back classes dual to the brane basis under euler_pairing_bk."""
    return [KClass(Basis.CHARGE, tuple(1 if j == i else 0 for j in range(3)))
            for i in range(3)]


def brane_basis() -> list[KClass]:
    """Compactly supported basis: point, line twisted by O(-1), [O(-2)]."""
    return [KClass(Basis.BRANE, tuple(1 if j == i else 0 for j in range(3)))
            for i in range(3)]


def exceptional_collection() -> list[KClass]:
    """The strong exceptional collection O, T(-1), O(1) on the plane."""
    return [KClass(Basis.EXCEPTIONAL, tuple(1 if j == i else 0 for j in range(3)))
            for i in range(3)]


def central_charge(f: KClass, w) -> complex:
    """Linear pairing of a compact class with the solution triple w.

    Z(f) = sum_i w_i * euler_pairing_bk(f, e_i) over the charge basis, so the
    three brane classes pick out w_0, w_1, w_2 respectively.
    """
    w0, w1, w2 = (complex(v) for v in w)
    es = charge_basis()
    return (w0 * euler_pairing_bk(f, es[0])
            + w1 * euler_pairing_bk(f, es[1])
            + w2 * euler_pairing_bk(f, es[2]))


def pairing_table() -> list[list[int]]:
    """3x3 table euler_pairing_bk(brane_i, charge_j); the duality statement
    says this is the identity matrix."""
    bs = brane_basis()
    es = charge_basis()
    return [[euler_pairing_bk(b, e) for e in es] for b in bs]
