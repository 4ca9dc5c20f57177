"""SO(3) geometry kernel.

Skew/unskew maps, the 3-vector cross product, the antisymmetric-part
vector, tangent-plane projectors, the Rodrigues exponential, the
normalized rotation distance, the auxiliary matrices of trace-potential
bounds for attitude estimators, and `AttitudeTable`, the one integrator of
the attitude from a rate.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import NotAntisymmetricError, NotUnitError

I3 = np.eye(3)

# standard basis, rows e1, e2, e3
E3 = np.eye(3)


def skew(v) -> np.ndarray:
    """Antisymmetric matrix of a 3-vector: skew(v) @ w == np.cross(v, w)."""
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def cross(a, b) -> np.ndarray:
    """a x b of two 3-vectors.

    The component formula: equal bit for bit to np.cross, whose general
    broadcasting costs about ten times more per call on 3-vectors.
    """
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    x, y, z = np.asarray(b, dtype=float).tolist()
    return np.array([a1 * z - a2 * y, a2 * x - a0 * z, a0 * y - a1 * x])


def vee(M, tol: float = 1e-9) -> np.ndarray:
    """Inverse of skew.

    Raises
    ------
    NotAntisymmetricError
        If ||M + M.T||_F exceeds `tol`.
    """
    M = np.asarray(M, dtype=float)
    resid = np.linalg.norm(M + M.T)
    if resid > tol:
        raise NotAntisymmetricError(
            f"matrix is not antisymmetric: ||M + M.T||_F = {resid:.3e} > {tol:.1e}")
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def psi_antisym(A) -> np.ndarray:
    """Vector of the antisymmetric part of A, i.e. vee((A - A.T)/2)."""
    A = np.asarray(A, dtype=float)
    return 0.5 * np.array([A[2, 1] - A[1, 2],
                           A[0, 2] - A[2, 0],
                           A[1, 0] - A[0, 1]])


def pi_proj(x, tol: float = 1e-6) -> np.ndarray:
    """Orthogonal projector I - x x^T onto the plane normal to the unit vector x.

    Raises
    ------
    NotUnitError
        If | ||x|| - 1 | exceeds `tol`.
    """
    x = np.asarray(x, dtype=float)
    n = np.linalg.norm(x)
    if abs(n - 1.0) > tol:
        raise NotUnitError(f"expected a unit vector, got norm {n!r}")
    return I3 - np.outer(x, x)


def exp_so3(v) -> np.ndarray:
    """Rotation matrix exp(skew(v)) via the Rodrigues formula, of one
    3-vector or of each row of an (n, 3) stack.

    Small angles fall back to the quadratic series, which is exact at v = 0
    and accurate to machine precision below the switch point.  One vector
    takes the formula on Python floats, I + A S + B (v v^T - th^2 I) entry
    by entry, within an ulp or two of the stack's.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim > 1:  # a stack: row j of skew(v) is e_j x v
        S = np.cross(I3, v[:, None, :])
        th = np.linalg.norm(v, axis=-1)[:, None, None]
        small, th = th < 1e-8, np.maximum(th, 1e-8)
        A = np.where(small, 1.0, np.sin(th) / th)
        B = np.where(small, 0.5, (1.0 - np.cos(th)) / (th * th))
        return I3 + A * S + B * (S @ S)
    x, y, z = v.tolist()
    xx, yy, zz = x * x, y * y, z * z
    th = math.sqrt(xx + yy + zz)
    if th < 1e-8:
        A, B = 1.0, 0.5
    else:
        A, B = math.sin(th) / th, (1.0 - math.cos(th)) / (th * th)
    ax, ay, az = A * x, A * y, A * z
    bxy, bxz, byz = B * (x * y), B * (x * z), B * (y * z)
    return np.array([[1.0 - B * (yy + zz), bxy - az, bxz + ay],
                     [bxy + az, 1.0 - B * (xx + zz), byz - ax],
                     [bxz - ay, byz + ax, 1.0 - B * (xx + yy)]])


def dist_identity(R) -> float:
    """Normalized distance of a rotation from the identity.

    sin(th/2) of the rotation angle th = atan2(|psi_antisym(R)|,
    (tr R - 1)/2), in [0, 1]; equals sqrt(tr(I - R)/4) on SO(3).  The
    angle form reads small angles to full relative precision, and an
    orthogonality defect of R only to first order.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = \
        np.asarray(R, dtype=float).tolist()
    s = 0.5 * math.sqrt((r21 - r12) ** 2 + (r02 - r20) ** 2
                        + (r10 - r01) ** 2)
    return math.sin(0.5 * math.atan2(s, 0.5 * (r00 + r11 + r22 - 1.0)))


def rotation_axis(R, tol: float = 1e-9):
    """Unit rotation axis of R, or None when the angle is ~0 (axis undefined).

    Uses the eigenvector for eigenvalue 1, which stays accurate arbitrarily
    close to half-turns where the antisymmetric part degenerates.  For angles
    below pi the sign is fixed to match vee(R - R.T).
    """
    R = np.asarray(R, dtype=float)
    c = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    if np.arccos(c) < tol:
        return None
    w, V = np.linalg.eig(R)
    k = int(np.argmin(np.abs(w - 1.0)))
    u = np.real(V[:, k])
    u = u / np.linalg.norm(u)
    s = psi_antisym(R)  # = sin(angle) * axis
    if np.linalg.norm(s) > 1e-12 and float(s @ u) < 0.0:
        u = -u
    return u


@dataclass(frozen=True)
class PotentialTerms:
    """Auxiliary quantities for trace-potential analysis of tr((I - R) M).

    m_bar   : (tr(M) I - M)/2; its eigenvalues bound the potential.
    m_under : tr(m_bar^2) I - 2 m_bar^2.
    e       : (tr(M R) I - R.T M)/2; Jacobian-like factor, ||e||_F <= ||m_bar||_F.
    alpha   : 1 - dist_identity(R)^2 * cos^2(angle(u, m_bar u)) with u the
              rotation axis; taken as 1 at R = I where the axis is undefined.
              The squared cosine is what makes the exact identity
              ||psi_antisym(M R)||^2 == alpha * tr((I - R) m_under) hold,
              via psi_antisym(M R) = sin(th) m_bar u - (1 - cos(th)) u x (m_bar u).
    """

    m_bar: np.ndarray
    m_under: np.ndarray
    e: np.ndarray
    alpha: float


def potential_terms(M, R) -> PotentialTerms:
    """Compute the PotentialTerms bundle for a weight matrix M and rotation R."""
    M = np.asarray(M, dtype=float)
    R = np.asarray(R, dtype=float)
    m_bar = 0.5 * (np.trace(M) * I3 - M)
    b2 = m_bar @ m_bar
    m_under = np.trace(b2) * I3 - 2.0 * b2
    e = 0.5 * (np.trace(M @ R) * I3 - R.T @ M)
    u = rotation_axis(R)
    if u is None:
        alpha = 1.0
    else:
        w = m_bar @ u
        nw = np.linalg.norm(w)
        if nw < 1e-15:
            # m_bar annihilates the axis; the angle is undefined and the
            # potential gradient vanishes along u anyway
            alpha = 1.0
        else:
            alpha = 1.0 - dist_identity(R) ** 2 * (float(u @ w) / nw) ** 2
    return PotentialTerms(m_bar, m_under, e, float(alpha))


def project_to_rotation(M) -> np.ndarray:
    """Closest rotation matrix in the Frobenius sense (polar factor), of
    one matrix or of each matrix of an (n, 3, 3) stack.

    The reflection case det < 0 is corrected by flipping the smallest
    singular direction, so the result always has det +1.
    """
    U, _, Vt = np.linalg.svd(np.asarray(M, dtype=float))
    U[..., :, 2] *= np.sign(np.linalg.det(U @ Vt))[..., None]
    return U @ Vt


def is_rotation(R, tol: float = 1e-9) -> bool:
    """True if R is orthonormal within `tol` and det(R) is 1 within `tol`."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        return False
    return (np.linalg.norm(R @ R.T - I3) <= tol
            and abs(np.linalg.det(R) - 1.0) <= tol)


def dexpinv_body(sigma, omega) -> np.ndarray:
    """Rate of exponential coordinates for body-frame rotation rates.

    For R(t) = R0 @ exp_so3(sigma(t)) driven by Rdot = R skew(omega), the
    coordinate rate is sigma_dot = omega + sigma x omega / 2
    + sigma x (sigma x omega) / 12 + O(|sigma|^4).  Sufficient for
    fourth-order one-step integrators restarting sigma at 0 each step.
    """
    c1 = cross(sigma, omega)
    return omega + 0.5 * c1 + (1.0 / 12.0) * cross(sigma, c1)


def grid_index(ts, t: float) -> int:
    """Index of the node of the ascending grid ts (a list bisects fastest)
    at or below t, where a time a hair (1e-12 s) below a node counts as on
    it, clamped to the grid."""
    k = bisect_right(ts, t + 1e-12) - 1
    return min(max(k, 0), len(ts) - 1)


_GL = np.sqrt(3.0) / 6.0    # Gauss-Legendre nodes at (1/2 -+ _GL) h


def _magnus_exponent(h, w1, w2, w1_x_w2):
    # sigma of one 4th-order Magnus step of length h from the rates w1, w2
    # at its two Gauss-Legendre nodes
    return 0.5 * h * (w1 + w2) + (0.5 * _GL * h * h) * w1_x_w2


class AttitudeTable:
    """Attitude R(t) of Rdot = R skew(omega_fn(t)) with R(ts[0]) = I.

    Each interval of the grid ts is one 4th-order Magnus step on its two
    Gauss-Legendre nodes (Iserles & Norsett, Phil. Trans. R. Soc. A 357,
    1999); both nodes are inside the step, so a rate held over each
    interval is integrated exactly.  The steps are built in one batch and
    chained by prefix products into R, R[k] = R(ts[k]), projected onto
    SO(3) together.  A query at t reads the node within 1e-12 s of t, or
    takes one Magnus step from the node at or below t (`grid_index`);
    before the first node and after the last it steps outward.
    """

    def __init__(self, ts, omega_fn):
        ts = np.asarray(ts, dtype=float)
        self.ts, self.omega_fn = ts.tolist(), omega_fn
        h = np.diff(ts)
        w1, w2 = (np.reshape([omega_fn(t) for t in ts[:-1] + c * h], (-1, 3))
                  for c in (0.5 - _GL, 0.5 + _GL))
        sigma = _magnus_exponent(h[:, None], w1, w2, np.cross(w1, w2))
        steps = accumulate(exp_so3(sigma), np.matmul, initial=I3)
        self.R = project_to_rotation(np.array(list(steps)))

    def __call__(self, t: float) -> np.ndarray:
        k = grid_index(self.ts, t)
        h = t - self.ts[k]
        if abs(h) <= 1e-12:
            return self.R[k]
        w1 = self.omega_fn(self.ts[k] + (0.5 - _GL) * h)
        w2 = self.omega_fn(self.ts[k] + (0.5 + _GL) * h)
        return self.R[k] @ exp_so3(_magnus_exponent(h, w1, w2, cross(w1, w2)))


def random_rotation(rng: np.random.Generator, max_angle: float = np.pi) -> np.ndarray:
    """Random rotation: uniform axis, angle uniform on [0, max_angle]."""
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    return exp_so3(rng.uniform(0.0, max_angle) * u)
