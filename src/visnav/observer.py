"""Continuous-time vision-aided inertial navigation observer.

Estimates attitude, position and velocity on SO(3) x R^15 by fusing rate
gyro / accelerometer inputs with landmark observations (stereo bearings,
monocular bearings, or body-frame landmark positions).  The attitude is
corrected through three auxiliary vectors e_hat_i whose convergence to the
rotated inertial axes renders the translational error dynamics linear
time-varying; their gains come from a continuous Riccati equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MissingStereoPairError,
    NonFiniteStateError,
    UnknownLandmarkError,
)
from .geom import (
    E3,
    I3,
    dexpinv_body,
    exp_so3,
    pi_proj,
    project_to_rotation,
    skew,
)
from .sim import GRAVITY, make_bearing_frame, make_position_frame

I15 = np.eye(15)


@dataclass
class GainConfig:
    """Observer gains and noise weights.

    k_r scales the attitude innovation, rho holds the three distinct
    positive weights of the auxiliary-vector potential, q and v are the
    Riccati weights (scalars mean q*I / v*I), and the *_reg constants
    regularize the adaptive weight construction.
    """

    k_r: float = 1.0
    rho: tuple = (0.5, 0.3, 0.2)
    q: float | np.ndarray = 1.0e3
    v: float | np.ndarray = 1.0e-4
    q_reg: float = 0.002
    v_reg: float = 0.002
    gravity: np.ndarray = field(default_factory=lambda: GRAVITY.copy())

    def __post_init__(self):
        if self.k_r <= 0:
            raise ValueError("k_r must be positive")
        rho = tuple(float(r) for r in self.rho)
        if len(rho) != 3 or any(r <= 0 for r in rho):
            raise ValueError("rho must be three positive scalars")
        if len(set(rho)) != 3:
            raise ValueError("rho values must be pairwise distinct")
        self.rho = rho
        self.gravity = np.asarray(self.gravity, dtype=float)
        if self.gravity.shape != (3,):
            raise ValueError("gravity must be a 3-vector")
        for name in ("q_reg", "v_reg"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def rho_matrix(self) -> np.ndarray:
        return np.diag(self.rho)

    def q_matrix(self, n_rows: int) -> np.ndarray:
        if np.isscalar(self.q):
            return float(self.q) * np.eye(n_rows)
        Q = np.asarray(self.q, dtype=float)
        if Q.shape != (n_rows, n_rows):
            raise ValueError(f"Q has shape {Q.shape}, expected {(n_rows,) * 2}")
        return Q

    def v_matrix(self) -> np.ndarray:
        if np.isscalar(self.v):
            return float(self.v) * I15
        V = np.asarray(self.v, dtype=float)
        if V.shape != (15, 15):
            raise ValueError(f"V has shape {V.shape}, expected (15, 15)")
        return V


@dataclass
class ObserverState:
    """Full estimator state.

    e stores the three auxiliary vectors as rows, so g_hat = gravity @ e
    and the predicted landmark position is p_i @ e.  P is the 15x15
    Riccati matrix over the error ordering (p, e1, e2, e3, v).
    """

    R: np.ndarray
    p: np.ndarray
    v: np.ndarray
    e: np.ndarray
    P: np.ndarray

    @classmethod
    def initial(cls, R=None, p=None, v=None, e=None, P=None) -> "ObserverState":
        return cls(
            R=I3.copy() if R is None else np.array(R, dtype=float),
            p=np.zeros(3) if p is None else np.array(p, dtype=float),
            v=np.zeros(3) if v is None else np.array(v, dtype=float),
            e=I3.copy() if e is None else np.array(e, dtype=float),
            P=I15.copy() if P is None else np.array(P, dtype=float),
        )

    def g_hat(self, gravity: np.ndarray) -> np.ndarray:
        return gravity @ self.e

    def copy(self) -> "ObserverState":
        return ObserverState(R=self.R.copy(), p=self.p.copy(), v=self.v.copy(),
                             e=self.e.copy(), P=self.P.copy())


def build_A(omega: np.ndarray, gravity: np.ndarray) -> np.ndarray:
    """State matrix of the translational error dynamics.

    Five -skew(omega) diagonal blocks, an identity coupling position to
    velocity, and gravity-component couplings from the auxiliary vectors
    into the velocity row.
    """
    A = np.zeros((15, 15))
    w = -skew(omega)
    for i in range(5):
        A[3 * i:3 * i + 3, 3 * i:3 * i + 3] = w
    A[0:3, 12:15] = I3
    for j in range(3):
        A[12:15, 3 + 3 * j:6 + 3 * j] = gravity[j] * I3
    return A


def attitude_innovation(est: ObserverState, cfg: GainConfig) -> np.ndarray:
    """sigma_R = (k_r / 2) * sum_i rho_i (e_hat_i x e_i)."""
    s = np.zeros(3)
    for i in range(3):
        s += cfg.rho[i] * np.cross(est.e[i], E3[i])
    return 0.5 * cfg.k_r * s


def _output_block(Pi: np.ndarray, lm_p: np.ndarray) -> np.ndarray:
    # row block [Pi, -p_x Pi, -p_y Pi, -p_z Pi, 0]
    return np.hstack([Pi, -lm_p[0] * Pi, -lm_p[1] * Pi, -lm_p[2] * Pi,
                      np.zeros((3, 3))])


def _empty_innovation():
    return np.zeros(0), np.zeros((0, 15))


def innovation_stereo(est: ObserverState, frame, cams, lms,
                      allow_mono_fallback: bool = False):
    """Stacked innovation and output matrix from stereo bearings.

    Per landmark the projectors of both cameras are summed.  Landmarks
    absent from the frame are skipped; a landmark seen by only part of the
    rig raises MissingStereoPairError unless allow_mono_fallback is set,
    in which case it contributes a single-projector block.
    """
    lm_map = {lm.id: lm for lm in lms}
    cam_map = {c.cam_id: c for c in cams}
    by_lm: dict = {}
    for (cam_id, lm_id), y in frame.obs.items():
        if cam_id in cam_map:
            by_lm.setdefault(lm_id, {})[cam_id] = y
    sy_rows, c_rows = [], []
    for lm_id in sorted(by_lm):
        if lm_id not in lm_map:
            raise UnknownLandmarkError(f"landmark {lm_id} not in the known map")
        seen = by_lm[lm_id]
        if len(seen) < len(cam_map) and not allow_mono_fallback:
            raise MissingStereoPairError(
                f"landmark {lm_id} seen by cameras {sorted(seen)} only")
        lm = lm_map[lm_id]
        z_hat = est.R.T @ (lm.p @ est.e - est.p)
        Pi = np.zeros((3, 3))
        sy = np.zeros(3)
        for cam_id in sorted(seen):
            cam = cam_map[cam_id]
            proj = pi_proj(cam.R @ seen[cam_id])
            Pi += proj
            sy += proj @ (z_hat - cam.p)
        sy_rows.append(sy)
        c_rows.append(_output_block(Pi, lm.p))
    if not sy_rows:
        return _empty_innovation()
    return np.concatenate(sy_rows), np.vstack(c_rows)


def innovation_mono(est: ObserverState, frame, cam, lms):
    """Single-camera variant: one projector per landmark."""
    lm_map = {lm.id: lm for lm in lms}
    sy_rows, c_rows = [], []
    for lm_id in sorted(k[1] for k in frame.obs if k[0] == cam.cam_id):
        if lm_id not in lm_map:
            raise UnknownLandmarkError(f"landmark {lm_id} not in the known map")
        lm = lm_map[lm_id]
        proj = pi_proj(cam.R @ frame.obs[(cam.cam_id, lm_id)])
        z_hat = est.R.T @ (lm.p @ est.e - est.p)
        sy_rows.append(proj @ (z_hat - cam.p))
        c_rows.append(_output_block(proj, lm.p))
    if not sy_rows:
        return _empty_innovation()
    return np.concatenate(sy_rows), np.vstack(c_rows)


def innovation_position(est: ObserverState, frame, lms):
    """Body-frame landmark position measurements: identity projectors."""
    lm_map = {lm.id: lm for lm in lms}
    sy_rows, c_rows = [], []
    for lm_id in sorted(frame.obs):
        if lm_id not in lm_map:
            raise UnknownLandmarkError(f"landmark {lm_id} not in the known map")
        lm = lm_map[lm_id]
        z_hat = est.R.T @ (lm.p @ est.e - est.p)
        sy_rows.append(z_hat - np.asarray(frame.obs[lm_id], dtype=float))
        c_rows.append(_output_block(I3, lm.p))
    if not sy_rows:
        return _empty_innovation()
    return np.concatenate(sy_rows), np.vstack(c_rows)


def riccati_rhs(P: np.ndarray, A: np.ndarray, C: np.ndarray, Q: np.ndarray,
                V: np.ndarray) -> np.ndarray:
    out = A @ P + P @ A.T + V
    if C.size:
        CP = C @ P
        out = out - CP.T @ Q @ CP
    return 0.5 * (out + out.T)


def error_state(truth, est: ObserverState):
    """Geometric attitude error R R_hat^T and the 15-component
    translational error (p, e1, e2, e3, v), all in the body-fixed frame."""
    R_tilde = truth.R @ est.R.T
    x = np.empty(15)
    x[0:3] = truth.R.T @ truth.p - est.R.T @ est.p
    for i in range(3):
        x[3 + 3 * i:6 + 3 * i] = truth.R[i, :] - est.R.T @ est.e[i]
    x[12:15] = truth.R.T @ truth.v - est.R.T @ est.v
    return R_tilde, x


# ---------------------------------------------------------------------------
# integration


def _deriv(R0, sig, p, v, e, P, imu_fn, meas, cfg, tau, with_meas):
    R = R0 @ exp_so3(sig)
    omega, a = imu_fn(tau)
    stage = ObserverState(R=R, p=p, v=v, e=e, P=P)
    s_r = attitude_innovation(stage, cfg)
    A = build_A(omega, cfg.gravity)
    V = cfg.v_matrix()
    corr = np.zeros(15)
    P_dot = A @ P + P @ A.T + V
    if with_meas:
        inn = meas(stage, tau)
        if inn is not None and inn[1].size:
            sy, C = inn
            Q = cfg.q_matrix(C.shape[0])
            CP = C @ P
            corr = CP.T @ Q @ sy      # = P C^T Q sigma_y = K sigma_y
            P_dot = P_dot - CP.T @ Q @ CP
    sig_dot = dexpinv_body(sig, omega + R.T @ s_r)
    p_dot = v + np.cross(s_r, p) + R @ corr[0:3]
    v_dot = cfg.gravity @ e + R @ a + np.cross(s_r, v) + R @ corr[12:15]
    e_dot = np.cross(s_r, e) + corr[3:12].reshape(3, 3) @ R.T
    return sig_dot, p_dot, v_dot, e_dot, 0.5 * (P_dot + P_dot.T)


def _substep(est: ObserverState, imu_fn, meas, cfg, tau, h, with_meas):
    R0 = est.R
    y0 = (np.zeros(3), est.p, est.v, est.e, est.P)

    def at(c, k):
        return tuple(y + c * dy for y, dy in zip(y0, k))

    k1 = _deriv(R0, *y0, imu_fn, meas, cfg, tau, with_meas)
    k2 = _deriv(R0, *at(0.5 * h, k1), imu_fn, meas, cfg, tau + 0.5 * h, with_meas)
    k3 = _deriv(R0, *at(0.5 * h, k2), imu_fn, meas, cfg, tau + 0.5 * h, with_meas)
    k4 = _deriv(R0, *at(h, k3), imu_fn, meas, cfg, tau + h, with_meas)
    comb = [(h / 6.0) * (a + 2 * b + 2 * c + d)
            for a, b, c, d in zip(k1, k2, k3, k4)]
    P_new = est.P + comb[4]
    return ObserverState(
        R=project_to_rotation(R0 @ exp_so3(comb[0])),
        p=est.p + comb[1],
        v=est.v + comb[2],
        e=est.e + comb[3],
        P=0.5 * (P_new + P_new.T),
    )


_FIELDS = ("R", "p", "v", "e", "P")


def _nonfinite_error(state: ObserverState, t: float, substep: int,
                     cause: str = "state") -> NonFiniteStateError:
    """NonFiniteStateError naming the time, the substep index and the first
    non-finite state field (cause when every field is finite)."""
    name = next((name for name in _FIELDS
                 if not np.all(np.isfinite(getattr(state, name)))), cause)
    return NonFiniteStateError(
        f"non-finite {name} at t={t:.9g}, substep {substep}")


def _stiffness(est: ObserverState, imu_fn, meas, cfg, tau, with_meas,
               substep: int) -> float:
    omega, _ = imu_fn(tau)
    rate = 1.0 + 2.0 * (np.linalg.norm(omega) + np.linalg.norm(cfg.gravity))
    if with_meas:
        inn = meas(est, tau)
        if inn is not None and inn[1].size:
            C = inn[1]
            Q = cfg.q_matrix(C.shape[0])
            S = C.T @ Q @ C
            # tr(S P) >= lambda_max(S P) >= local contraction rate
            rate += 2.0 * abs(float(np.einsum("ij,ji->", S, est.P)))
    if not math.isfinite(rate):
        # a finite state with a non-finite rate means a non-finite input
        raise _nonfinite_error(est, tau, substep, "IMU or measurement input")
    return rate


def step(est: ObserverState, imu, cfg: GainConfig, dt: float, t: float = 0.0,
         meas=None) -> ObserverState:
    """Advance the observer by dt seconds starting at time t.

    imu is either a fixed (omega, a) pair held over the step or a callable
    t -> (omega, a) evaluated at the integration stages.  meas is None (pure
    inertial flow, covariance grows as A P + P A^T + V) or a callable
    (state, t) -> (sigma_y, C) | None evaluated at the integration stages.

    Internally the step is split into RK4 substeps of size 1.5 / rate, where
    rate bounds the local contraction rate of the Riccati flow, so a large
    initial P (stiff transient) cannot destabilize the explicit integration.
    Every accepted substep is sized for the stiffer of its two endpoints.
    When the rate jumps inside a substep (a measurement stream switching on,
    such as the first vision frame of a dataset), each far-end probe at most
    halves h: the substep then lands before the jump, at least halving the
    distance to it, or is short enough for the stiff side.  A jump is thus
    crossed in O(log) substeps.  A far-end rate below twice the near-end
    rate is not a jump: the probe then sizes h for it directly.

    Raises NonFiniteStateError, naming t, the substep index and the field,
    when the state or the stiffness rate turns non-finite or the substep
    budget runs out.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    imu_fn = imu if callable(imu) else (lambda tau: imu)
    with_meas = meas is not None
    tau = t
    end = t + dt
    state = est
    for n in range(100000):
        remaining = end - tau
        if remaining <= 1e-14 * dt:
            break
        rate = _stiffness(state, imu_fn, meas, cfg, tau, with_meas, n)
        h = min(1.5 / rate, remaining)
        # Probe the far end, where the rate may have jumped; shrink toward
        # its stiffer size but by at most half per probe (see docstring).
        for _ in range(60):
            rate_end = _stiffness(state, imu_fn, meas, cfg, tau + h,
                                  with_meas, n)
            h_end = min(1.5 / max(rate, rate_end), remaining)
            if h_end >= h * (1.0 - 1e-12):
                break
            h = max(h_end, 0.5 * h)
        if h >= remaining * (1.0 - 1e-12):
            h = remaining
        state = _substep(state, imu_fn, meas, cfg, tau, h, with_meas)
        tau += h
    else:
        raise NonFiniteStateError(
            f"substep budget exhausted at t={tau:.9g} after {n + 1} "
            "substeps; runaway stiffness")
    if not all(np.all(np.isfinite(getattr(state, name))) for name in _FIELDS):
        raise _nonfinite_error(state, tau, n - 1)
    return state


# ---------------------------------------------------------------------------
# measurement sources for simulation-driven runs


class StereoBearingSource:
    """Continuous stereo bearings synthesized from a reference trajectory."""

    def __init__(self, traj, lms, cams, allow_mono_fallback: bool = False):
        self.traj = traj
        self.lms = list(lms)
        self.cams = list(cams)
        self.allow_mono_fallback = allow_mono_fallback

    def __call__(self, est: ObserverState, t: float):
        frame = make_bearing_frame(self.traj.state(t), self.lms, self.cams)
        return innovation_stereo(est, frame, self.cams, self.lms,
                                 allow_mono_fallback=self.allow_mono_fallback)


class MonoBearingSource:
    """Continuous single-camera bearings from a reference trajectory."""

    def __init__(self, traj, lms, cam):
        self.traj = traj
        self.lms = list(lms)
        self.cam = cam

    def __call__(self, est: ObserverState, t: float):
        frame = make_bearing_frame(self.traj.state(t), self.lms, [self.cam])
        return innovation_mono(est, frame, self.cam, self.lms)


class PositionSource:
    """Continuous body-frame landmark positions from a reference trajectory."""

    def __init__(self, traj, lms):
        self.traj = traj
        self.lms = list(lms)

    def __call__(self, est: ObserverState, t: float):
        frame = make_position_frame(self.traj.state(t), self.lms)
        return innovation_position(est, frame, self.lms)


def run_continuous(est: ObserverState, imu, provider, cfg: GainConfig,
                   t_end: float, dt: float = 1.0 / 200.0, t0: float = 0.0):
    """Integrate the observer over [t0, t_end] at the IMU rate.

    Returns (times, states) with the initial state included; states[k] is
    the estimate at times[k].
    """
    n = int(round((t_end - t0) / dt))
    times = t0 + dt * np.arange(n + 1)
    states = [est.copy()]
    for k in range(n):
        est = step(est, imu, cfg, dt, t=float(times[k]), meas=provider)
        states.append(est)
    return times, states
