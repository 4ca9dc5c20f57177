"""Sampled-measurement variant of the observer.

Between vision frames the estimator flows on IMU data alone (the covariance
grows, no measurement terms); at each frame it jumps with a Kalman-style
gain from the continuous-discrete Riccati recursion.  Measurement-noise
covariances can be mapped into the Riccati weights V and Q^-1 through the
local noise Jacobians of the error dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ScheduleViolationError, SingularInnovationError
from .geom import I3, skew
# innovation_{position,stereo,mono} stay importable here: the benchmark's
# span tracer (perfbench/tracer.py) wraps them in this namespace.
from .observer import (  # noqa: F401
    GainConfig,
    I15,
    ObserverState,
    innovation,
    innovation_mono,
    innovation_position,
    innovation_stereo,
    landmark_blocks,
    mode_cameras,
    step,
)
from .sim import PositionFrame


@dataclass
class NoiseCovariances:
    """Measurement noise model feeding the adaptive Riccati weights.

    cov_omega / cov_a are per-axis variances (scalar) or full 3x3 blocks
    of the gyro and accelerometer noise; cov_y is the per-axis variance of
    one vision measurement; reg regularizes both constructed weights.
    """

    cov_omega: float | np.ndarray = 0.0024
    cov_a: float | np.ndarray = 0.028
    cov_y: float = 0.0005
    reg: float = 0.002

    def __post_init__(self):
        if self.reg <= 0:
            raise ValueError("reg must be positive")

    def cov_x(self) -> np.ndarray:
        out = np.zeros((6, 6))
        for k, blk in enumerate((self.cov_omega, self.cov_a)):
            b = blk * I3 if np.isscalar(blk) else np.asarray(blk, dtype=float)
            out[3 * k:3 * k + 3, 3 * k:3 * k + 3] = b
        return out


def flow(est: ObserverState, imu, cfg: GainConfig, dt: float,
         t: float = 0.0) -> ObserverState:
    """Pure inertial propagation: the continuous observer's step with no
    measurement terms.  Its Hamiltonian has S = 0, so P advances as
    Phi P Phi^T + int Phi V Phi^T (Van Loan, IEEE TAC 23(3), 1978)."""
    return step(est, imu, cfg, dt, t=t, meas=None)


def jump(est: ObserverState, innovation, q_inv: np.ndarray) -> ObserverState:
    """Measurement update at a vision frame.

    K = P C^T (C P C^T + Q^-1)^-1; attitude is untouched, the translational
    states are corrected through R_hat K sigma_y, and P contracts by
    (I - K C) P.
    """
    sy, C = innovation
    if C.size == 0:
        return est.copy()
    S = C @ est.P @ C.T + q_inv
    S = 0.5 * (S + S.T)
    if np.linalg.cond(S) > 1e12:
        raise SingularInnovationError(
            "innovation covariance numerically singular")
    K = np.linalg.solve(S, C @ est.P).T
    corr = K @ sy
    P_new = (I15 - K @ C) @ est.P
    e_new = est.e + corr[3:12].reshape(3, 3) @ est.R.T
    return ObserverState(
        R=est.R.copy(),
        p=est.p + est.R @ corr[0:3],
        v=est.v + est.R @ corr[12:15],
        e=e_new,
        P=0.5 * (P_new + P_new.T),
    )


def tune_vq(est: ObserverState, ncov: NoiseCovariances, lms, frame=None,
            cams=None):
    """Map measurement-noise covariances into the Riccati weights.

    V comes from the IMU-noise Jacobian of the error dynamics (always
    available); Q^-1 needs the current vision frame to know the measured
    landmarks and their projectors, so it is None when frame is None.
    Q^-1 is block diagonal over the landmark blocks of landmark_blocks
    with the cameras cams (those of the measurement mode): identity blocks
    for position frames (the noise enters directly), range-scaled summed
    projectors for bearing frames.
    """
    G = np.zeros((15, 6))
    vecs = (est.p, est.e[0], est.e[1], est.e[2], est.v)
    for i, x in enumerate(vecs):
        G[3 * i:3 * i + 3, 0:3] = skew(est.R.T @ x)
    G[12:15, 3:6] = I3
    V = G @ ncov.cov_x() @ G.T + ncov.reg * I15
    V = 0.5 * (V + V.T)

    if frame is None:
        return V, None
    # the same blocks as the innovation, so Q^-1's rows follow C's rows
    p, M, _ = landmark_blocks(frame, cams or [], lms)
    if not isinstance(frame, PositionFrame):
        M = np.linalg.norm(p @ est.e - est.p, axis=1)[:, None, None] * M
    n = len(p)
    diag = np.arange(n)
    q_inv = np.zeros((n, 3, n, 3))
    q_inv[diag, :, diag, :] = ncov.cov_y * (M @ M.transpose(0, 2, 1))
    q_inv = q_inv.reshape(3 * n, 3 * n) + ncov.reg * np.eye(3 * n)
    return V, 0.5 * (q_inv + q_inv.T)


def run(est: ObserverState, imu, frames, lms, cfg: GainConfig,
        mode: str = "stereo", cams=None, ncov: NoiseCovariances | None = None,
        t_end: float | None = None, dt: float = 1.0 / 200.0, t0: float = 0.0):
    """Flow/jump driver.

    Vision frames are snapped to the nearest IMU grid node (max error
    dt/2); the jump is applied right after the flow step landing on that
    node (to the initial state for a frame on node 0), and the recorded
    state at the node is the post-jump one.
    cams is the camera rig; the innovation and Q^-1 both use its
    mode_cameras(mode, cams) and keep a landmark one camera misses.  imu is
    a callable t -> (omega, a).  Raises ScheduleViolationError for a frame
    outside [t0, t_end], off the grid, or on the node of another frame.

    Returns (times, states, jumps) where jumps is a list of
    (t, lambda_max_before, lambda_max_after) covariance diagnostics.
    """
    frames = sorted(frames, key=lambda f: f.t)
    if t_end is None:
        if not frames:
            raise ValueError("t_end required when there are no frames")
        t_end = frames[-1].t
    n = int(round((t_end - t0) / dt))
    times = t0 + dt * np.arange(n + 1)

    by_node: dict = {}
    for f in frames:
        k = int(round((f.t - t0) / dt))
        if k < 0 or k > n:
            raise ScheduleViolationError(
                f"frame at t={f.t} outside the run horizon")
        if abs(f.t - times[k]) > dt / 2 + 1e-12:
            raise ScheduleViolationError(
                f"frame at t={f.t} cannot be snapped to the IMU grid")
        if k in by_node:
            raise ScheduleViolationError(
                f"two frames snap to the same IMU node t={times[k]}")
        by_node[k] = f

    cams = mode_cameras(mode, cams or [])
    states = []
    jumps = []
    # the flow's weights, rebuilt only when tune_vq moves V
    cfg_k = cfg if ncov is None else replace(cfg, v=tune_vq(est, ncov, lms)[0])
    est = est.copy()
    for k in range(n + 1):
        if k:
            est = flow(est, imu, cfg_k, dt, t=float(times[k - 1]))
        frame = by_node.get(k)
        if frame is not None:
            inn = innovation(est, frame, mode, cams, lms)
            if ncov is not None:
                V, q_inv = tune_vq(est, ncov, lms, frame=frame, cams=cams)
                cfg_k = replace(cfg, v=V)
            else:
                q_inv = np.eye(inn[1].shape[0]) / cfg.q
            lam_before = float(np.linalg.eigvalsh(est.P)[-1])
            est = jump(est, inn, q_inv)
            jumps.append((float(times[k]), lam_before,
                          float(np.linalg.eigvalsh(est.P)[-1])))
        states.append(est)
    return times, states, jumps
