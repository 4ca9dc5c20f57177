"""Uniform-observability analysis tools.

Windowed observability Gramians (continuous and discrete), a uniform
observability test for constant state matrices with nilpotent or real
diagonalizable structure, geometric sufficient-condition checkers for
stereo and monocular landmark configurations, and a classifier for the
degenerate static (motionless-camera) configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import (
    CameraOnLandmarkError,
    InsufficientHistoryError,
    TooFewLandmarksError,
    UnsupportedSpectrumError,
)
from .geom import I3, AttitudeTable, grid_index
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


def closed_form_transition(gravity, tau: float, dR) -> np.ndarray:
    """Phi(t1, t0) = e^{N tau} (x) dR^T of the measurement-free error
    dynamics, tau = t1 - t0 and dR = R(t0)^T R(t1).

    A(t) = -I5 (x) skew(omega(t)) + Abar splits into commuting parts with
    Abar = build_A(0, gravity) = N (x) I3 and N^3 = 0, so e^{N tau} =
    I5 + N tau + N^2 tau^2 / 2 and the rotation enters through dR alone.
    """
    N = build_A(np.zeros(3), gravity)[::3, ::3]
    return np.kron(np.eye(5) + tau * N + (0.5 * tau * tau) * (N @ N), dR.T)


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


def held_rate(samples):
    """omega(t) of IMU rows (t, wx, wy, wz, ...), each sample's rate held
    until the next: the rate of the sample at or below t (`geom.grid_index`,
    so the end rates hold before the first sample and after the last)."""
    samples = np.asarray(samples, dtype=float)
    ts, omega = samples[:, 0].tolist(), samples[:, 1:4]
    return lambda t: omega[grid_index(ts, t)]


def _simpson_grid(delta: float, dt: float):
    """Composite Simpson rule over a window of length delta: the step
    h = delta / n for the least even n >= 2 with h <= dt, and the n + 1
    node weights."""
    n = int(np.ceil(delta / dt - 1e-12))
    n = max(n + n % 2, 2)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return delta / n, w / 3.0


def gramian_continuous(omega_fn, c_fn, t: float, delta: float,
                       gravity, dt: float = 1.0 / 800.0,
                       mu: float = 1e-6) -> GramianReport:
    """Windowed Gramian (1/delta) * integral of Phi^T C^T C Phi over
    [t, t+delta], by composite Simpson quadrature; each node's Phi(tau, t)
    comes in closed form off one `AttitudeTable` over the nodes."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    h, weights = _simpson_grid(delta, dt)
    taus = t + h * np.arange(weights.size)
    attitude = AttitudeTable(taus, omega_fn)
    W = np.zeros((FULL_STATE_DIM, FULL_STATE_DIM))
    for k, tau in enumerate(taus):
        Phi = closed_form_transition(gravity, tau - t, attitude.R[k])
        CPhi = np.asarray(c_fn(tau), dtype=float) @ Phi
        W += weights[k] * (CPhi.T @ CPhi)
    W *= h / delta
    return GramianReport.from_gramian(W, (t, t + delta), mu)


def gramian_discrete(phi_list, c_list, mu: float = 1e-6,
                     window=None) -> GramianReport:
    """Sampled-measurement Gramian: sum of Phi_i^T C_i^T C_i Phi_i."""
    if len(phi_list) != len(c_list) or not phi_list:
        raise ValueError("phi_list and c_list must be conformable and nonempty")
    W = np.zeros((FULL_STATE_DIM, FULL_STATE_DIM))
    for Phi, C in zip(phi_list, c_list):
        CPhi = np.asarray(C, dtype=float) @ np.asarray(Phi, dtype=float)
        W += CPhi.T @ CPhi
    if window is None:
        window = (0, len(phi_list))
    return GramianReport.from_gramian(W, window, mu)


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

    def stacked(tau):
        C = np.asarray(c_fn(tau), dtype=float)
        return np.vstack([C @ Nk for Nk in powers])

    h, weights = _simpson_grid(delta, dt)
    W = np.zeros((A.shape[0], A.shape[0]))
    for k in range(weights.size):
        O = stacked(t + k * h)
        W += weights[k] * (O.T @ O)
    W *= h
    return GramianReport.from_gramian(W, (t, t + delta), mu)


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
    if times.size < 2 or times[-1] - times[0] < 2.0 * window:
        raise InsufficientHistoryError(
            f"history spans {times[-1] - times[0]:.3f} s, "
            f"need at least {2 * window:.3f} s")
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
    p_i - p', a velocity pin, and the gravity coupling.  Returns
    (matrix, rank) with rank counted by singular values above
    rank_tol * sigma_max.
    """
    g = np.asarray(gravity, dtype=float)
    p_prime = np.asarray(p_prime, dtype=float)
    n = len(lms)
    O = np.zeros((3 * n + 6, FULL_STATE_DIM + n))
    for i, lm in enumerate(sorted(lms, key=lambda l: l.id)):
        d = np.asarray(lm.p, dtype=float) - p_prime
        if np.linalg.norm(d) <= 1e-9:
            raise CameraOnLandmarkError(
                f"camera position coincides with landmark {lm.id}")
        r = 3 * i
        O[r:r + 3, 0:3] = I3
        for j in range(3):
            O[r:r + 3, 3 + 3 * j:6 + 3 * j] = -lm.p[j] * I3
        O[r:r + 3, FULL_STATE_DIM + i] = d
    O[3 * n:3 * n + 3, 12:15] = I3
    for j in range(3):
        O[3 * n + 3:3 * n + 6, 3 + 3 * j:6 + 3 * j] = g[j] * I3
    sv = np.linalg.svd(O, compute_uv=False)
    rank = int(np.sum(sv > rank_tol * sv[0]))
    return O, rank


def _plane_residual(points):
    # largest out-of-plane distance of a best-fit plane
    P = np.asarray(points, dtype=float)
    c = P.mean(axis=0)
    _, sv, vt = np.linalg.svd(P - c)
    normal = vt[-1]
    return np.max(np.abs((P - c) @ normal))


def _gravity_plane_residual(anchor_a, anchor_b, g, points, tol):
    # distance of each point from the plane through the two anchors,
    # parallel to gravity; inf when the anchors do not fix the plane
    n = np.cross(anchor_b - anchor_a, g)
    nn = np.linalg.norm(n)
    if nn <= tol:
        return np.full(len(points), np.inf)
    return np.abs((points - anchor_a) @ (n / nn))


def _line_residual(origin, through, points, tol):
    # distance of each point from the line through origin and through;
    # inf when the two coincide
    d = through - origin
    dn = np.linalg.norm(d)
    if dn <= tol:
        return np.full(len(points), np.inf)
    return np.linalg.norm(np.cross(points - origin, d / dn), axis=1)


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
    """
    if len(lms) < 5:
        raise TooFewLandmarksError(f"need at least 5 landmarks, got {len(lms)}")
    lms = sorted(lms, key=lambda l: l.id)
    pts = np.array([lm.p for lm in lms], dtype=float)
    g = np.asarray(gravity, dtype=float)
    p_prime = np.asarray(p_prime, dtype=float)
    scale = max(np.max(np.linalg.norm(pts - pts.mean(axis=0), axis=1)), 1.0)
    atol = tol * scale
    _, rank = static_observability_matrix(lms, p_prime, gravity, rank_tol)
    full = FULL_STATE_DIM + len(lms)

    def verdict(label):
        return DegeneracyVerdict(case_label=label, rank_O_prime=rank,
                                 full_rank_required=full)

    if _plane_residual(pts) <= atol:
        return verdict("coplanar(a)")

    idx = range(len(lms))
    triples = [(tri, pts[[i for i in idx if i not in tri]])
               for tri in combinations(idx, 3)]
    best = (np.inf, "coplanar(a)")  # (residual, label)

    # (b): remaining landmarks inside the gravity-parallel plane through
    # two of the three witnesses
    for tri, rest in triples:
        for ia, ib in combinations(tri, 2):
            res = _gravity_plane_residual(pts[ia], pts[ib], g, rest,
                                          atol).max()
            if res <= atol:
                return verdict("gravity-plane(b)")
            if res < best[0]:
                best = (res, "gravity-plane(b)")

    # (c): remaining landmarks on the line through the camera position and
    # one of the three witnesses
    for tri, rest in triples:
        for ia in tri:
            res = _line_residual(p_prime, pts[ia], rest, atol).max()
            if res <= atol:
                return verdict("camera-aligned(c)")
            if res < best[0]:
                best = (res, "camera-aligned(c)")

    # (d): each remaining landmark is either in the gravity-parallel plane
    # of two witnesses or on the camera line through the third; both kinds
    # are present, since (b) and (c) returned on the pure cases with the
    # same residuals
    for tri, rest in triples:
        for ia, ib, ic in permutations(tri):
            if ia > ib:
                continue  # plane pair unordered
            in_plane = _gravity_plane_residual(pts[ia], pts[ib], g, rest,
                                               atol) <= atol
            on_line = _line_residual(p_prime, pts[ic], rest, atol) <= atol
            if (in_plane | on_line).all():
                return verdict("mixed(d)")
    if rank == full:
        return verdict("generic")
    # rank says degenerate but no exact predicate fired: report the closest
    return verdict(best[1])
