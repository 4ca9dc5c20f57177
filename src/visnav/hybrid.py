"""Sampled-measurement variant of the observer.

Between vision frames the estimator flows on IMU data alone (the covariance
grows, no measurement terms); at each frame's own time it jumps with a
Kalman-style gain from the continuous-discrete Riccati recursion
(Jazwinski, Stochastic Processes and Filtering Theory, 1970, ch. 7).
Measurement-noise covariances can be mapped into the Riccati weights V and
Q^-1 through the local noise Jacobians of the error dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ScheduleViolationError, SingularInnovationError
from .geom import I3, grid_index, skew
from .measurement import mode_arrays, observation_blocks
# innovation_{position,stereo,mono} and step stay importable here: the
# benchmark's span tracer (perfbench/tracer.py) wraps them in this namespace.
from .observer import (  # noqa: F401
    GainConfig,
    I15,
    ObserverState,
    flow,
    imu_grid,
    innovation_mono,
    innovation_position,
    innovation_stereo,
    measurement_model,
    step,
)


@dataclass
class NoiseCovariances:
    """Measurement noise model feeding the adaptive Riccati weights.

    cov_omega / cov_a are the per-axis variances of the gyro and
    accelerometer noise; cov_y is the per-axis variance of one vision
    measurement; reg regularizes both constructed weights.
    """

    cov_omega: float = 0.0024
    cov_a: float = 0.028
    cov_y: float = 0.0005
    reg: float = 0.002

    def __post_init__(self):
        if self.reg <= 0:
            raise ValueError("reg must be positive")

    def cov_x(self) -> np.ndarray:
        return np.diag(np.repeat([self.cov_omega, self.cov_a], 3))


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


def tune_vq(est: ObserverState, ncov: NoiseCovariances, blocks=None,
            rig=None):
    """Map measurement-noise covariances into the Riccati weights.

    V comes from the IMU-noise Jacobian of the error dynamics (always
    available); Q^-1 needs the landmark blocks (p, Pi, b) of the current
    vision frame (observation_blocks), so it is None when blocks is None.
    Q^-1 is block diagonal over those blocks, its rows following C's:
    identity blocks for position observations (rig None; the noise enters
    directly), range-scaled summed projectors for bearings (a rig).
    """
    G = np.zeros((15, 6))
    vecs = (est.p, est.e[0], est.e[1], est.e[2], est.v)
    for i, x in enumerate(vecs):
        G[3 * i:3 * i + 3, 0:3] = skew(est.R.T @ x)
    G[12:15, 3:6] = I3
    V = G @ ncov.cov_x() @ G.T + ncov.reg * I15
    V = 0.5 * (V + V.T)

    if blocks is None:
        return V, None
    p, M, _ = blocks
    if rig is not None:
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
    """Flow/jump driver on the IMU grid times = t0 + dt * arange(n + 1).

    The estimate flows from node to node, one RK4 step of length
    times[k+1] - times[k] each, and jumps at each vision frame's own time;
    each stretch between two jumps (nodes, from a frame's time on, or on
    to a frame's time) is one `flow` call.
    A frame within 1e-12 s of a node (`grid_index`) jumps on that node,
    after the flow that lands there (on node 0, the initial state), and
    the node records the post-jump state.  A frame strictly between nodes
    k and k+1 ends a partial flow at its time t_f, jumps there, and the
    flow goes on to node k+1 with the rest of the interval.  The grid is
    imu_grid(t0, t_end, dt); with t_end None it reaches the last frame.
    frames is a record (measurement.Frames) over lms and the cameras
    mode_cameras(mode, cams) of the rig cams (Dataset.frames(mode)'s
    columns), its times ascending; each jump's blocks feed both the
    innovation and Q^-1 and keep a landmark one camera misses.  imu
    answers an array of T times with (T, 3) stacks of omega and a (see
    observer.step).  Raises ValueError for a bearing mode without
    cameras, a record over other landmarks or cameras, dt <= 0 or
    t_end < t0, ScheduleViolationError for frame times out of order, a
    frame off the grid's span (beyond the 1e-12 s hair) or two frames
    with the same time, and SingularInnovationError naming the time of a
    frame whose jump has a numerically singular innovation covariance.

    Returns (times, states, jumps) where states is one stack (see
    ObserverState) whose node k is the estimate at times[k], and jumps is
    a list of (t, lambda_max_before, lambda_max_after) covariance
    diagnostics, t being the node time for a frame on a node and t_f
    otherwise.
    """
    p, rig = mode_arrays(mode, cams or [], lms)
    if rig is not None and not len(rig[0]):
        raise ValueError(f"a {mode} run needs a camera rig")
    Y, seen, ft = frames.Y, frames.seen, frames.t.tolist()
    if Y.shape[1:3] != (len(p), 1 if rig is None else len(rig[0])):
        raise ValueError(f"frames of shape {Y.shape[1:3]} are not over "
                         f"the {len(p)} landmarks and the {mode} cameras")
    if t_end is None and not ft:
        raise ValueError("t_end required when there are no frames")
    times = (imu_grid(t0, t_end, dt) if t_end is not None
             else imu_grid(t0, max(ft[-1], t0), dt, reach=True))
    nodes, n = times.tolist(), len(times) - 1
    for tf in ft:
        if not nodes[0] - 1e-12 <= tf <= nodes[-1] + 1e-12:
            raise ScheduleViolationError(
                f"frame at t={tf} outside the run horizon")
    for a, b in zip(ft, ft[1:]):
        if a >= b:
            raise ScheduleViolationError(
                f"two frames at t={a}" if a == b else
                f"frame at t={b} after the frame at t={a}")

    # the flow's weights, rebuilt only when tune_vq moves V
    cfg_k = cfg if ncov is None else replace(cfg, v=tune_vq(est, ncov)[0])
    states, jumps, t, k0 = est.stack(n + 1), [], nodes[0], 0
    slots = [(grid_index(nodes, tf), tf) for tf in ft] + [(n, None)]
    for i, (k, tf) in enumerate(slots):
        stretch = [t, *nodes[k0 + 1:k + 1]]        # flow on to node k
        if tf is not None and tf - nodes[k] > 1e-12:
            stretch.append(tf)          # strictly between k and k + 1
        if len(stretch) > 1:
            flowed = flow(est, imu, cfg_k, stretch)
            states[k0 + 1:k + 1] = flowed[:k - k0]
            est, t, k0 = flowed[-1], stretch[-1], k
        if tf is None:
            break
        rows = seen[i].any(axis=-1)
        blocks = observation_blocks(p[rows], Y[i, rows], seen[i, rows], rig)
        inn = measurement_model(est, blocks)
        if ncov is not None:
            V, q_inv = tune_vq(est, ncov, blocks, rig)
            cfg_k = replace(cfg, v=V)
        else:
            q_inv = np.eye(inn[1].shape[0]) / cfg.q
        lam_before = float(np.linalg.eigvalsh(est.P)[-1])
        try:
            est = jump(est, inn, q_inv)
        except SingularInnovationError as exc:
            raise SingularInnovationError(
                f"{exc} at the frame at t={tf:.9g}") from None
        jumps.append((t, lam_before, float(np.linalg.eigvalsh(est.P)[-1])))
        if t == nodes[k]:       # a frame on node k: it keeps the jumped state
            states[k] = est
    return times, states, jumps
