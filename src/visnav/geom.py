"""SO(3) geometry kernel.

Skew/unskew maps, the 3-vector cross product, the antisymmetric-part
vector, tangent-plane projectors, the Rodrigues exponential, the
normalized rotation distance, and the auxiliary matrices that appear in
trace-potential bounds for attitude estimators.  Everything here is a
pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Rotation matrix exp(skew(v)) via the Rodrigues formula.

    Small angles fall back to the quadratic series, which is exact at v = 0
    and accurate to machine precision below the switch point.
    """
    v = np.asarray(v, dtype=float)
    th = np.linalg.norm(v)
    S = skew(v)
    if th < 1e-8:
        return I3 + S + 0.5 * (S @ S)
    A = np.sin(th) / th
    B = (1.0 - np.cos(th)) / (th * th)
    return I3 + A * S + B * (S @ S)


def dist_identity(R) -> float:
    """Normalized distance of a rotation from the identity.

    sqrt(tr(I - R)/4), in [0, 1]; equals sin(angle/2) of the rotation angle.
    The trace argument is clamped to [0, 4] against roundoff.
    """
    R = np.asarray(R, dtype=float)
    t = float(np.clip(np.trace(I3 - R), 0.0, 4.0))
    return float(np.sqrt(t / 4.0))


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
    """Closest rotation matrix in the Frobenius sense (polar factor).

    The reflection case det < 0 is corrected by flipping the smallest
    singular direction, so the result always has det +1.
    """
    U, _, Vt = np.linalg.svd(np.asarray(M, dtype=float))
    D = np.array([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))])
    return (U * D) @ Vt


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


def rotation_step(R, omega_fn, t: float, h: float) -> np.ndarray:
    """R(t + h) for Rdot = R skew(omega_fn(t)) from R at t: the 4th-order
    Magnus step on the Gauss-Legendre nodes t + (1/2 -+ sqrt(3)/6) h
    (Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999).  Both nodes are
    inside the step, so a rate held over the step is integrated exactly."""
    c = np.sqrt(3.0) / 6.0
    w1, w2 = omega_fn(t + (0.5 - c) * h), omega_fn(t + (0.5 + c) * h)
    sigma = 0.5 * h * (w1 + w2) + (0.5 * c * h * h) * (skew(w1) @ w2)
    return R @ exp_so3(sigma)


def random_rotation(rng: np.random.Generator, max_angle: float = np.pi) -> np.ndarray:
    """Random rotation: uniform axis, angle uniform on [0, max_angle]."""
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    return exp_so3(rng.uniform(0.0, max_angle) * u)
