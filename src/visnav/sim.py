"""Ground-truth motion and vision measurement synthesis.

Provides the figure-eight reference trajectory used throughout the test
suite, landmark sampling, stereo/monocular bearing synthesis, landmark
position measurements expressed in the body frame, and measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LandmarkAtCameraError
from .geom import I3, exp_so3
# dexpinv_body and project_to_rotation stay importable here: the
# benchmark's span tracer (perfbench/tracer.py) wraps them in this namespace.
from .geom import dexpinv_body, project_to_rotation  # noqa: F401

GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass
class RigidBodyState:
    """Pose, twist and specific force of the vehicle at time t.

    R is the body-to-inertial rotation, p/v the inertial position and
    velocity, omega the body-frame rotation rate and a the accelerometer
    reading (specific force) in the body frame.  A state of an array of
    T times (EightTrajectory.state) stacks each field along a leading axis;
    a state of one time is the one row of the stack of that time.
    """

    t: float
    R: np.ndarray
    p: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    a: np.ndarray


@dataclass(frozen=True)
class Landmark:
    id: int
    p: np.ndarray


@dataclass(frozen=True)
class CameraExtrinsics:
    """Camera pose in the body frame: x_body = R @ x_cam + p."""

    cam_id: int
    R: np.ndarray
    p: np.ndarray


@dataclass
class BearingFrame:
    """All bearing observations taken at one instant.

    obs maps (cam_id, landmark_id) to a unit vector in that camera's frame.
    """

    t: float
    obs: dict = field(default_factory=dict)

    def rows(self):
        """Deterministically ordered (cam_id, landmark_id, y) triples."""
        for key in sorted(self.obs):
            yield key[0], key[1], self.obs[key]


@dataclass
class PositionFrame:
    """Body-frame landmark position observations at one instant."""

    t: float
    obs: dict = field(default_factory=dict)  # landmark_id -> 3-vector


class EightTrajectory:
    """Figure-eight reference motion at constant height.

    p(t) = 2 (sin t, sin t cos t, 1), so v = 2 (cos t, cos 2t, 0).  The body
    rotation rate omega(t) = (-cos 2t, 1, sin 2t) is the constant
    w0 = (-1, 1, 0) turned by 2t about the body y axis, so from R(0) = I
    the attitude is the coning motion in closed form (Savage, J. Guid.
    Control Dyn. 21(1), 1998), R(t) = exp(t [w0 + 2 e_y]x) exp(-2t [e_y]x).

    Every query takes one time or an array of times, whose answers it
    stacks along a leading axis (T, 3) or (T, 3, 3), each time's by the
    same elementwise operations whatever the other times; imu over an
    array is the input protocol of observer.step.  rotation, state and
    imu answer one time as a one-row stack, returned unstacked, so its
    values are bit for bit that time's row of any stack.
    """

    def __init__(self, t_end: float = 30.0):
        if t_end <= 0:
            raise ValueError("t_end must be positive")
        self.t_end = float(t_end)

    # 0.0 * t gives the constant columns the shape of t

    @staticmethod
    def omega(t):
        return np.array([-np.cos(2.0 * t), 0.0 * t + 1.0, np.sin(2.0 * t)]).T

    @staticmethod
    def position(t):
        return np.array([2.0 * np.sin(t), 2.0 * np.sin(t) * np.cos(t),
                         0.0 * t + 2.0]).T

    @staticmethod
    def velocity(t):
        return np.array([2.0 * np.cos(t), 2.0 * np.cos(2.0 * t), 0.0 * t]).T

    @staticmethod
    def vdot(t):
        return np.array([-2.0 * np.sin(t), -4.0 * np.sin(2.0 * t),
                         0.0 * t]).T

    def rotation(self, t) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = (ts < -1e-12) | (ts > self.t_end + 1e-9)
        if out.any():
            raise ValueError(f"t={ts[out][0]} outside trajectory horizon "
                             f"[0, {self.t_end}]")
        # exp(t [w0 + 2 e_y]x), w0 + 2 e_y = (-1, 3, 0), then exp(-2t [e_y]x)
        c, s, z = np.cos(2.0 * ts), np.sin(2.0 * ts), 0.0 * ts
        turn = np.array([[c, z, s], [z, z + 1.0, z], [-s, z, c]]).T
        R = exp_so3(np.array([-ts, 3.0 * ts, z]).T) @ turn
        return R if np.ndim(t) else R[0]

    def imu(self, t):
        """(omega, a) pair as an ideal IMU would report at time t, or their
        (T, 3) stacks at an array of times."""
        state = self.state(t)
        return state.omega, state.a

    def state(self, t) -> RigidBodyState:
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        R, f = self.rotation(ts), self.vdot(ts) - GRAVITY
        fields = (R, self.position(ts), self.velocity(ts), self.omega(ts),
                  (f[:, None, :] @ R)[:, 0])
        if np.ndim(t):
            return RigidBodyState(ts, *fields)
        return RigidBodyState(float(t), *(x[0] for x in fields))


def sample_landmarks(n: int, low: float = -5.0, high: float = 5.0,
                     seed: int = 0) -> list:
    """n landmarks drawn uniformly i.i.d. in the cube [low, high]^3."""
    rng = np.random.default_rng(seed)
    return [Landmark(i, rng.uniform(low, high, 3)) for i in range(n)]


def default_stereo_rig(baseline: float = 0.2) -> list:
    """Two forward-aligned cameras offset along the body y axis."""
    half = baseline / 2.0
    return [CameraExtrinsics(1, I3.copy(), np.array([0.0, -half, 0.0])),
            CameraExtrinsics(2, I3.copy(), np.array([0.0, +half, 0.0]))]


def rig_arrays(cams):
    """The rotations R (K, 3, 3) and centres p (K, 3) of cams, in the
    given order."""
    return (np.array([c.R for c in cams], dtype=float).reshape(-1, 3, 3),
            np.array([c.p for c in cams], dtype=float).reshape(-1, 3))


def synth_positions(state: RigidBodyState, landmarks) -> np.ndarray:
    """Body-frame positions R^T (p_l - p) of the landmarks, (L, 3), or
    (T, L, 3) for a state stacked over T times (EightTrajectory.state of
    an array), each row by the same elementwise operations whatever the
    others."""
    d = np.array([lm.p for lm in landmarks], dtype=float).reshape(-1, 3)
    return _row_times(d - state.p[..., None, :], state.R[..., None, :, :])


def synth_bearings(state: RigidBodyState, landmarks, cams) -> np.ndarray:
    """Unit bearings of every landmark in every camera, (L, K, 3), or
    (T, L, K, 3) for a stacked state: row [l, k] is the bearing to
    landmarks[l] in the frame of cams[k], cam.R^T unit(z_l - cam.p) with
    z_l the body-frame landmark position.

    Raises
    ------
    LandmarkAtCameraError
        If a landmark is within 1e-6 m of an optical center; the first
        such pair in camera-major order (of the first such time) is named.
    """
    Rc, c = rig_arrays(cams)
    r = synth_positions(state, landmarks)[..., :, None, :] - c
    d = np.sqrt((r * r).sum(axis=-1))
    near = d <= 1e-6
    if near.any():
        *at, k, i = np.argwhere(np.swapaxes(near, -1, -2))[0]
        raise LandmarkAtCameraError(
            f"landmark {landmarks[i].id} is {d[(*at, i, k)]:.3e} m from "
            f"camera {cams[k].cam_id}")
    return _row_times(r / d[..., None], Rc)


def _row_times(x, M):
    """x^T M of broadcast rows x (..., 3) and matrices M (..., 3, 3), as
    the sum of x_a M[a] in order a = 0, 1, 2: one row at a time, so no
    (..., 3, 3) product is formed."""
    return x[..., 0, None] * M[..., 0, :] + x[..., 1, None] * M[..., 1, :] \
        + x[..., 2, None] * M[..., 2, :]


def make_bearing_frame(state: RigidBodyState, landmarks, cams) -> BearingFrame:
    """Synthesize one bearing frame: every landmark in every camera."""
    Y = synth_bearings(state, landmarks, cams)
    return BearingFrame(t=state.t,
                        obs={(cam.cam_id, lm.id): Y[i, k]
                             for k, cam in enumerate(cams)
                             for i, lm in enumerate(landmarks)})


def make_position_frame(state: RigidBodyState, landmarks) -> PositionFrame:
    Z = synth_positions(state, landmarks)
    return PositionFrame(t=state.t,
                         obs={lm.id: z for lm, z in zip(landmarks, Z)})


def apply_noise(frame: BearingFrame, sigma: float, seed: int) -> BearingFrame:
    """Perturb every bearing by a small random rotation, per-axis std sigma.

    Deterministic for a given (frame, sigma, seed); sigma = 0 returns an
    identical copy.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for cam_id, lm_id, y in frame.rows():
        if sigma > 0.0:
            y = exp_so3(rng.normal(0.0, sigma, 3)) @ y
            y = y / np.linalg.norm(y)
        out[(cam_id, lm_id)] = np.array(y, dtype=float)
    return BearingFrame(t=frame.t, obs=out)


def apply_position_noise(frame: PositionFrame, sigma: float,
                         seed: int) -> PositionFrame:
    """Add i.i.d. Gaussian noise (per-axis std sigma) to position readings."""
    rng = np.random.default_rng(seed)
    out = {}
    for lm_id in sorted(frame.obs):
        z = np.array(frame.obs[lm_id], dtype=float)
        if sigma > 0.0:
            z = z + rng.normal(0.0, sigma, 3)
        out[lm_id] = z
    return PositionFrame(t=frame.t, obs=out)
