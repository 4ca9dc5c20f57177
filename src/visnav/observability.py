"""Uniform-observability analysis tools.

Windowed observability Gramians (continuous and discrete), a uniform
observability test for constant state matrices with nilpotent or real
diagonalizable structure, geometric sufficient-condition checkers for
stereo and monocular landmark configurations, and a classifier for the
degenerate static (motionless-camera) configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    CameraOnLandmarkError,
    InsufficientHistoryError,
    TooFewLandmarksError,
    UnsupportedSpectrumError,
)
from .geom import I3, AttitudeTable
from .measurement import linear_output, observation_blocks
from .observer import build_A

FULL_STATE_DIM = 15


@dataclass(frozen=True)
class GramianReport:
    """Extreme eigenvalues of an observability Gramian over one window."""

    window: tuple
    lambda_min: float
    lambda_max: float
    mu_threshold: float
    verdict: bool

    @classmethod
    def from_gramian(cls, W, window, mu) -> "GramianReport":
        ev = np.linalg.eigvalsh(0.5 * (W + W.T))
        lo, hi = float(ev[0]), float(ev[-1])
        return cls(window=tuple(window), lambda_min=lo, lambda_max=hi,
                   mu_threshold=float(mu), verdict=lo >= mu)


@dataclass(frozen=True)
class DegeneracyVerdict:
    """Outcome of the static-configuration classifier."""

    case_label: str
    rank_O_prime: int
    full_rank_required: int


def closed_form_transition(gravity, tau, dR) -> np.ndarray:
    """Phi(t1, t0) = e^{N tau} (x) dR^T of the measurement-free error
    dynamics, tau = t1 - t0 and dR = R(t0)^T R(t1); for a stack of m
    intervals, tau (m,) and dR (m, 3, 3), the (m, 15, 15) stack of them.

    A(t) = -I5 (x) skew(omega(t)) + Abar splits into commuting parts with
    Abar = build_A(0, gravity) = N (x) I3 and N^3 = 0, so e^{N tau} =
    I5 + N tau + N^2 tau^2 / 2 and the rotation enters through dR alone.
    Each entry of the Kronecker product is one product, as in np.kron.
    """
    N = build_A(np.zeros(3), gravity)[::3, ::3]
    tau = np.asarray(tau, dtype=float)[..., None, None]
    E = np.eye(5) + tau * N + (0.5 * tau * tau) * (N @ N)
    dRT = np.swapaxes(dR, -1, -2)
    return (E[..., :, None, :, None] * dRT[..., None, :, None, :]).reshape(
        tau.shape[:-2] + (15, 15))


def transition_matrix(omega_fn, gravity, t0: float, t1: float,
                      dt: float = 1.0 / 800.0) -> np.ndarray:
    """Phi(t1, t0) for a rate given as a callable: `closed_form_transition`
    with dR = R(t0)^T R(t1) read off an `AttitudeTable` over [t0, t1] in
    equal steps no longer than dt (exact for a rate held over each step)."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    tau = t1 - t0
    n = max(1, int(np.ceil(tau / dt - 1e-12))) if tau > 0 else 0
    dR = AttitudeTable(np.linspace(t0, t1, n + 1), omega_fn).R[-1]
    return closed_form_transition(gravity, tau, dR)


def _simpson_nodes(t: float, delta: float, dt: float):
    """Composite Simpson rule over [t, t + delta]: the nodes t + k h for
    the least even n >= 2 with h = delta / n <= dt, and the square roots
    of their weights h w_k, so that the quadrature of sum_k h w_k O_k^T O_k
    is one product O^T O of the stacked rows sqrt(h w_k) O_k."""
    n = int(np.ceil(delta / dt - 1e-12))
    n = max(n + n % 2, 2)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = delta / n
    return t + h * np.arange(n + 1), np.sqrt(h * w / 3.0)


def gramian_continuous(omega_fn, c_fn, t: float, delta: float,
                       gravity, dt: float = 1.0 / 800.0,
                       mu: float = 1e-6) -> GramianReport:
    """Windowed Gramian (1/delta) * integral of Phi^T C^T C Phi over
    [t, t+delta], by composite Simpson quadrature as one product of the
    stacked weighted rows C Phi (_simpson_nodes); each node's Phi(tau, t)
    comes in closed form off one `AttitudeTable` over the nodes."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    taus, roots = _simpson_nodes(t, delta, dt)
    phis = closed_form_transition(gravity, taus - t,
                                  AttitudeTable(taus, omega_fn).R)
    O = np.vstack([r * np.asarray(c_fn(tau), dtype=float) @ Phi
                   for r, tau, Phi in zip(roots, taus, phis)])
    return GramianReport.from_gramian(O.T @ O / delta, (t, t + delta), mu)


def gramian_discrete(phis, cs, mu: float = 1e-6,
                     window=None) -> GramianReport:
    """Sampled-measurement Gramian W = sum over samples of
    (C_i Phi_i)^T (C_i Phi_i), of a stack of m transition matrices
    (m, 15, 15) and a stack of output matrices (m, r, 15), or lists of
    them, all C_i with the same r rows.  A zero row (a landmark a frame
    does not see) adds nothing, so frames with fewer outputs pad C_i with
    zero rows.  All m products C_i Phi_i are formed at once and W is one
    product of their stacked rows; window defaults to (0, m).
    """
    phis, cs = np.asarray(phis, dtype=float), np.asarray(cs, dtype=float)
    if len(phis) != len(cs) or not len(phis):
        raise ValueError("phis and cs must be conformable and nonempty")
    CPhi = (cs @ phis).reshape(-1, FULL_STATE_DIM)
    if window is None:
        window = (0, len(phis))
    return GramianReport.from_gramian(CPhi.T @ CPhi, window, mu)


def _nilpotency_index(A: np.ndarray, tol: float = 1e-12):
    scale = 1.0 + np.linalg.norm(A)
    M = np.eye(A.shape[0])
    for s in range(1, A.shape[0] + 1):
        M = M @ A
        if np.linalg.norm(M) <= tol * scale ** s:
            return s
    return None


def check_uniform_observability(A: np.ndarray, c_fn, t: float, delta: float,
                                mu: float, dt: float = 1.0 / 800.0) -> GramianReport:
    """Uniform-observability test for a constant state matrix.

    Splits A into its structural part: if A is nilpotent (A^s = 0) the
    stacked matrix O(tau) = [C; C A; ...; C A^(s-1)] is integrated as
    O^T O over the window (no 1/delta normalization) and compared against
    mu; if A is diagonalizable with real eigenvalues the stack reduces to
    C alone.  Anything else is out of scope.
    """
    A = np.asarray(A, dtype=float)
    s = _nilpotency_index(A)
    if s is not None:
        powers = [np.linalg.matrix_power(A, k) for k in range(s)]
    else:
        ev, vec = np.linalg.eig(A)
        if np.max(np.abs(ev.imag)) > 1e-9 * (1.0 + np.max(np.abs(ev))):
            raise UnsupportedSpectrumError("complex eigenvalues")
        if np.linalg.cond(vec) > 1e8:
            raise UnsupportedSpectrumError(
                "defective matrix with real spectrum")
        powers = [np.eye(A.shape[0])]

    N = np.hstack(powers)       # each row c of C gives the rows c A^k
    taus, roots = _simpson_nodes(t, delta, dt)
    O = np.vstack([r * np.asarray(c_fn(tau), dtype=float) @ N
                   for r, tau in zip(roots, taus)]).reshape(-1, len(A))
    return GramianReport.from_gramian(O.T @ O, (t, t + delta), mu)


# ---------------------------------------------------------------------------
# geometric sufficient conditions


def check_stereo_condition(lms, gravity, eps_area: float = 1e-6,
                           eps_grav: float = 1e-6):
    """Search for three non-aligned landmarks whose plane is not parallel
    to the gravity vector.

    The plane is "parallel to gravity" when the gravity direction lies in
    it (normal orthogonal to g), which is the failing configuration.  Area
    is measured by the cross-product norm (parallelogram area).  Returns
    (True, (i, j, k)) with the witness landmark ids, or (False, None).
    """
    g = np.asarray(gravity, dtype=float)
    gn = np.linalg.norm(g)
    pts = [(lm.id, np.asarray(lm.p, dtype=float)) for lm in lms]
    for (ia, pa), (ib, pb), (ic, pc) in combinations(pts, 3):
        cross = np.cross(pb - pa, pc - pa)
        area = np.linalg.norm(cross)
        if area <= eps_area:
            continue
        if abs(float(cross @ g)) > eps_grav * gn * area:
            return True, (ia, ib, ic)
    return False, None


def check_mono_motion(times, bearings_by_lm, triple, epsilon: float,
                      window: float):
    """Motion-based monocular condition on inertial-frame bearings.

    For every anchor time on a grid spaced by `window`, each witness
    landmark's bearing must move by at least epsilon (cross-product norm
    against the anchor bearing) at some later sample.
    """
    times = np.asarray(times, dtype=float)
    span = times[-1] - times[0] if times.size else 0.0
    if times.size < 2 or span < 2.0 * window:
        raise InsufficientHistoryError(
            f"history spans {span:.3f} s, need at least {2 * window:.3f} s")
    anchors = np.arange(times[0], times[-1] - window + 1e-12, window)
    for t_star in anchors:
        k0 = int(np.searchsorted(times, t_star))
        k0 = min(k0, times.size - 1)
        for lm_id in triple:
            u = np.asarray(bearings_by_lm[lm_id], dtype=float)
            u0 = u[k0]
            sep = np.linalg.norm(np.cross(u[k0 + 1:], u0), axis=1)
            if sep.size == 0 or sep.max() < epsilon:
                return False
    return True


def static_observability_matrix(lms, p_prime, gravity,
                                rank_tol: float = 1e-8):
    """Observability matrix of the motionless monocular configuration.

    Unknowns are the 15 error states plus one range scale per landmark;
    rows stack the bearing output blocks with the per-landmark directions
    p_i - p', a velocity pin, and the gravity coupling.  The output blocks
    are the position3d linear output r_i^T (x) I3 (`observer.linear_output`),
    landmarks in id order.  Returns (matrix, rank) with rank counted by
    singular values above rank_tol * sigma_max.
    """
    lms = sorted(lms, key=lambda l: l.id)
    pts = np.array([lm.p for lm in lms], dtype=float).reshape(-1, 3)
    d = pts - np.asarray(p_prime, dtype=float)
    on = np.linalg.norm(d, axis=1) <= 1e-9
    if on.any():
        raise CameraOnLandmarkError(
            f"camera position coincides with landmark {lms[np.argmax(on)].id}")
    n = len(lms)
    O = np.zeros((3 * n + 6, FULL_STATE_DIM + n))
    O[:3 * n, :FULL_STATE_DIM] = linear_output(observation_blocks(
        pts, pts[:, None], np.ones((n, 1), dtype=bool), None))[1]
    O[np.arange(3 * n), FULL_STATE_DIM + np.arange(3 * n) // 3] = d.ravel()
    # the velocity pin I3 and the gravity rows g^T (x) I3
    O[3 * n:, 3:FULL_STATE_DIM] = np.kron([[0, 0, 0, 1], [*gravity, 0]], I3)
    sv = np.linalg.svd(O, compute_uv=False)
    return O, int(np.sum(sv > rank_tol * sv[0]))


def _plane_residual(points):
    # largest out-of-plane distance of a best-fit plane
    P = np.asarray(points, dtype=float)
    c = P.mean(axis=0)
    _, sv, vt = np.linalg.svd(P - c)
    normal = vt[-1]
    return np.max(np.abs((P - c) @ normal))


def classify_static_degeneracy(lms, p_prime, gravity, tol: float = 1e-6,
                               rank_tol: float = 1e-8) -> DegeneracyVerdict:
    """Label a motionless-camera landmark configuration.

    Predicates are evaluated in order: (a) all landmarks coplanar; (b) a
    witness triple with the remaining landmarks inside the gravity-parallel
    plane through two of the triple; (c) the remaining landmarks aligned
    with one witness landmark and the camera position; (d) the mixed
    variant, plane through two witnesses or line through the third.  The
    verdict is cross-checked against the rank of the static observability
    matrix: generic requires full rank; a deficient rank with no firing
    predicate falls back to the nearest degenerate label by residual.

    Two residual tables hold every distance the predicates read:
    plane[a, b, j], the distance of landmark j from the gravity-parallel
    plane through landmarks a and b (inf where |(p_b - p_a) x g| <= atol),
    and line[c, j], its distance from the line through the camera and
    landmark c (inf where |p_c - p'| <= atol).  The witnesses read 0 on
    their own plane or line.  The best free witnesses of (b) and (c) are
    the landmarks farthest off a pair's plane or a camera line, so the
    residual of (b) is the 2nd-largest of a row of plane and that of (c)
    the 3rd-largest of a row of line.
    """
    if len(lms) < 5:
        raise TooFewLandmarksError(f"need at least 5 landmarks, got {len(lms)}")
    lms = sorted(lms, key=lambda l: l.id)
    pts = np.array([lm.p for lm in lms], dtype=float)
    scale = max(np.max(np.linalg.norm(pts - pts.mean(axis=0), axis=1)), 1.0)
    atol = tol * scale
    _, rank = static_observability_matrix(lms, p_prime, gravity, rank_tol)
    full = FULL_STATE_DIM + len(lms)

    diff = pts - pts[:, None]  # [a, j] = p_j - p_a
    normal = np.cross(diff, gravity)  # [a, b] = (p_b - p_a) x g
    nn = np.linalg.norm(normal, axis=-1, keepdims=True)
    plane = np.abs((normal / np.where(nn > atol, nn, 1.0))
                   @ diff.transpose(0, 2, 1))
    plane[nn[..., 0] <= atol] = np.inf
    rel = pts - p_prime
    dn = np.linalg.norm(rel, axis=1, keepdims=True)
    line = np.linalg.norm(
        np.cross(rel, (rel / np.where(dn > atol, dn, 1.0))[:, None]), axis=-1)
    line[dn[:, 0] <= atol] = np.inf
    k = np.arange(len(lms))
    plane[k, :, k] = plane[:, k, k] = line[k, k] = 0.0

    a, b = np.triu_indices(len(lms), 1)
    res_b = np.sort(plane[a, b], axis=1)[:, -2].min()
    res_c = np.sort(line, axis=1)[:, -3].min()
    # (d): a pair (a, b) and a third witness c with no landmark off both
    # the pair's plane and c's camera line
    off = (plane[a, b] > atol) @ (line > atol).T
    mixed = (~off & (k != a[:, None]) & (k != b[:, None])).any()
    label = ("coplanar(a)" if _plane_residual(pts) <= atol else
             "gravity-plane(b)" if res_b <= atol else
             "camera-aligned(c)" if res_c <= atol else
             "mixed(d)" if mixed else
             "generic" if rank == full else
             # rank deficient with no predicate firing: the closest label
             "camera-aligned(c)" if res_c < res_b else
             "gravity-plane(b)" if res_b < np.inf else "coplanar(a)")
    return DegeneracyVerdict(label, rank, full)
