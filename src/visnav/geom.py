"""SO(3) geometry kernel.

Skew/unskew maps, the 3-vector cross product, the antisymmetric-part
vector, tangent-plane projectors, the Rodrigues exponential, the
normalized rotation distance, the auxiliary matrices of trace-potential
bounds for attitude estimators, `AttitudeTable`, the one integrator of the
attitude from a rate, and `rk4_exp_floats`, the RK4 step of an attitude
whose rate reads it.
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
    return np.array(cross_floats(np.asarray(a, dtype=float).tolist(),
                                 np.asarray(b, dtype=float).tolist()))


def cross_floats(a, b) -> tuple:
    """cross of two 3-sequences of Python floats, as a tuple."""
    (a0, a1, a2), (x, y, z) = a, b
    return a1 * z - a2 * y, a2 * x - a0 * z, a0 * y - a1 * x


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
    takes exp_so3_floats, within an ulp or two of the stack.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim > 1:  # a stack: row j of skew(v) is e_j x v
        S = np.cross(I3, v[:, None, :])
        th = np.linalg.norm(v, axis=-1)[:, None, None]
        small, th = th < 1e-8, np.maximum(th, 1e-8)
        A = np.where(small, 1.0, np.sin(th) / th)
        B = np.where(small, 0.5, (1.0 - np.cos(th)) / (th * th))
        return I3 + A * S + B * (S @ S)
    return np.array(exp_so3_floats(*v.tolist()))


def exp_so3_floats(x, y, z) -> tuple:
    """exp_so3 of (x, y, z) on Python floats, I + A S + B (v v^T - th^2 I)
    entry by entry, as three row tuples."""
    xx, yy, zz = x * x, y * y, z * z
    th = math.sqrt(xx + yy + zz)
    if th < 1e-8:
        A, B = 1.0, 0.5
    else:
        A, B = math.sin(th) / th, (1.0 - math.cos(th)) / (th * th)
    ax, ay, az = A * x, A * y, A * z
    bxy, bxz, byz = B * (x * y), B * (x * z), B * (y * z)
    return ((1.0 - B * (yy + zz), bxy - az, bxz + ay),
            (bxy + az, 1.0 - B * (xx + zz), byz - ax),
            (bxz - ay, byz + ax, 1.0 - B * (xx + yy)))


def dist_identity(R):
    """Normalized distance of a rotation from the identity, of one matrix
    (a float) or of each matrix of an (n, 3, 3) stack (an array).

    sin(th/2) of the rotation angle th = atan2(|psi_antisym(R)|,
    (tr R - 1)/2), in [0, 1]; equals sqrt(tr(I - R)/4) on SO(3).  The
    angle form reads small angles to full relative precision, and an
    orthogonality defect of R only to first order.  Each matrix's sum
    runs on Python floats: its x ** 2 is libm's pow, which can be an ulp
    off numpy's stacked square x * x, and numpy's stacked arctan2 and sin
    can be an ulp off math's.
    """
    d = [math.sin(0.5 * math.atan2(
        0.5 * math.sqrt((r21 - r12) ** 2 + (r02 - r20) ** 2
                        + (r10 - r01) ** 2), 0.5 * (r00 + r11 + r22 - 1.0)))
         for r00, r01, r02, r10, r11, r12, r20, r21, r22
         in map(np.ndarray.tolist, np.asarray(R, dtype=float).reshape(-1, 9))]
    return d[0] if np.ndim(R) == 2 else np.array(d)


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
    return np.array(dexpinv_floats(np.asarray(sigma, dtype=float).tolist(),
                                   np.asarray(omega, dtype=float).tolist()))


def dexpinv_floats(sigma, omega) -> tuple:
    """dexpinv_body of two 3-sequences of Python floats, as a tuple."""
    (w0, w1, w2), c = omega, cross_floats(sigma, omega)
    (c0, c1, c2), (d0, d1, d2), k = c, cross_floats(sigma, c), 1.0 / 12.0
    return (w0 + 0.5 * c0 + k * d0, w1 + 0.5 * c1 + k * d1,
            w2 + 0.5 * c2 + k * d2)


def rk4_exp_floats(R0, rate, h) -> tuple:
    """R0 exp(sig) after one RK4 step of length h of sig_dot =
    dexpinv_body(sig, rate(j, R)), sig(0) = 0, R = R0 exp(sig) at the
    stages j = 0..3 (at 0, h/2, h/2, h): a body rate that may read R.  On
    Python floats; R0, R and the result (not projected) are row tuples."""
    ks = [(0.0, 0.0, 0.0)]
    for j, c in enumerate((0.0, 0.5 * h, 0.5 * h, h)):
        sig = [c * k for k in ks[-1]]
        ks.append(dexpinv_floats(sig, rate(j, _times_exp(R0, sig) if c
                                           else R0)))
    return _times_exp(R0, [(h / 6.0) * (a + 2 * b + 2 * c + d)
                           for a, b, c, d in zip(*ks[1:])])


def _times_exp(R, sig):
    # R exp_so3(sig) on Python floats, R and the result as row tuples
    (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = exp_so3_floats(*sig)
    return tuple((a * e00 + b * e10 + c * e20, a * e01 + b * e11 + c * e21,
                  a * e02 + b * e12 + c * e22) for a, b, c in R)


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
    """Attitude R(t) of Rdot = R skew(omega(t)) with R(ts[0]) = I, for a
    rate given as a callable omega(t) or as an (n, 3) array of the rates
    sampled at ts, each held until the next sample (the rate of the
    sample at or below t by `grid_index`, the end samples held outward).

    Each interval of the grid ts is one 4th-order Magnus step on its two
    Gauss-Legendre nodes (Iserles & Norsett, Phil. Trans. R. Soc. A 357,
    1999); both nodes are inside the step, so a rate held over each
    interval is integrated exactly.  On sampled rates the step's exponent
    is sigma_k = h_k omega_k, bit for bit what the Magnus formula gives on
    the held rate, with no call per node.  The steps are built in one
    batch and chained by prefix products into R, R[k] = R(ts[k]),
    projected onto SO(3) together.  A query at t reads the node within
    1e-12 s of t, or takes one Magnus step from the node at or below t
    (`grid_index`); before the first node and after the last it steps
    outward.  On sampled rates an array of times gives the (m, 3, 3)
    stack of their attitudes, in one batch.
    """

    def __init__(self, ts, omega):
        ts = np.asarray(ts, dtype=float)
        self.ts, self._t = ts.tolist(), ts
        h = np.diff(ts)
        if callable(omega):
            self.omega_fn, self.rates = omega, None
            w1, w2 = (np.reshape([omega(t) for t in ts[:-1] + c * h], (-1, 3))
                      for c in (0.5 - _GL, 0.5 + _GL))
            sigma = _magnus_exponent(h[:, None], w1, w2, np.cross(w1, w2))
        else:
            self.omega_fn = None
            self.rates = np.asarray(omega, dtype=float).reshape(-1, 3)
            sigma = h[:, None] * self.rates[:-1]
        steps = accumulate(exp_so3(sigma), np.matmul, initial=I3)
        self.R = project_to_rotation(np.array(list(steps)))

    def __call__(self, t):
        if np.ndim(t):
            t = np.asarray(t, dtype=float)
            k = np.clip(np.searchsorted(self._t, t + 1e-12, side="right") - 1,
                        0, len(self.ts) - 1)
            h = t - self._t[k]
            h[np.abs(h) <= 1e-12] = 0.0     # exp_so3(0) = I reads the node
            return self.R[k] @ exp_so3(h[:, None] * self.rates[k])
        k = grid_index(self.ts, t)
        h = t - self.ts[k]
        if abs(h) <= 1e-12:
            return self.R[k]
        if self.rates is not None:
            return self.R[k] @ exp_so3(h * self.rates[k])
        w1 = self.omega_fn(self.ts[k] + (0.5 - _GL) * h)
        w2 = self.omega_fn(self.ts[k] + (0.5 + _GL) * h)
        return self.R[k] @ exp_so3(_magnus_exponent(h, w1, w2, cross(w1, w2)))


def random_rotation(rng: np.random.Generator, max_angle: float = np.pi) -> np.ndarray:
    """Random rotation: uniform axis, angle uniform on [0, max_angle]."""
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    return exp_so3(rng.uniform(0.0, max_angle) * u)
