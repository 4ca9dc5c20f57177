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
    reading (specific force) in the body frame.
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
    The last query's rotation is kept for a repeated query time.
    """

    def __init__(self, t_end: float = 30.0):
        if t_end <= 0:
            raise ValueError("t_end must be positive")
        self.t_end = float(t_end)
        self._last = (None, None)       # the last rotation query (t, R)

    @staticmethod
    def omega(t):
        return np.array([-np.cos(2.0 * t), 1.0, np.sin(2.0 * t)])

    @staticmethod
    def position(t):
        return np.array([2.0 * np.sin(t), 2.0 * np.sin(t) * np.cos(t), 2.0])

    @staticmethod
    def velocity(t):
        return np.array([2.0 * np.cos(t), 2.0 * np.cos(2.0 * t), 0.0])

    @staticmethod
    def vdot(t):
        return np.array([-2.0 * np.sin(t), -4.0 * np.sin(2.0 * t), 0.0])

    def rotation(self, t: float) -> np.ndarray:
        # imu(t) and state(t) ask for the same stage time in turn
        if t == self._last[0]:
            return self._last[1]
        if t < -1e-12 or t > self.t_end + 1e-9:
            raise ValueError(f"t={t} outside trajectory horizon [0, {self.t_end}]")
        # exp(t [w0 + 2 e_y]x), w0 + 2 e_y = (-1, 3, 0), then exp(-2t [e_y]x)
        c, s = np.cos(2.0 * t), np.sin(2.0 * t)
        R = exp_so3([-t, 3.0 * t, 0.0]) @ np.array([[c, 0.0, -s],
                                                    [0.0, 1.0, 0.0],
                                                    [s, 0.0, c]])
        self._last = (t, R)
        return R

    def body_accel(self, t: float) -> np.ndarray:
        return self.rotation(t).T @ (self.vdot(t) - GRAVITY)

    def imu(self, t: float):
        """(omega, a) pair as an ideal IMU would report at time t."""
        return self.omega(t), self.body_accel(t)

    def state(self, t: float) -> RigidBodyState:
        return RigidBodyState(t=float(t), R=self.rotation(t),
                              p=self.position(t), v=self.velocity(t),
                              omega=self.omega(t), a=self.body_accel(t))


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
    """Body-frame positions R^T (p_l - p) of the landmarks, (L, 3), each
    row by the same elementwise operations whatever the others."""
    d = np.array([lm.p for lm in landmarks], dtype=float).reshape(-1, 3)
    return ((d - state.p)[:, :, None] * state.R).sum(axis=1)


def synth_bearings(state: RigidBodyState, landmarks, cams) -> np.ndarray:
    """Unit bearings of every landmark in every camera, (L, K, 3): row
    [l, k] is the bearing to landmarks[l] in the frame of cams[k],
    cam.R^T unit(z_l - cam.p) with z_l the body-frame landmark position.

    Raises
    ------
    LandmarkAtCameraError
        If a landmark is within 1e-6 m of an optical center; the first
        such pair in camera-major order is named.
    """
    Rc, c = rig_arrays(cams)
    r = synth_positions(state, landmarks)[:, None, :] - c
    d = np.sqrt((r * r).sum(axis=-1))
    near = d <= 1e-6
    if near.any():
        k, i = np.argwhere(near.T)[0]
        raise LandmarkAtCameraError(
            f"landmark {landmarks[i].id} is {d[i, k]:.3e} m from camera "
            f"{cams[k].cam_id}")
    return ((r / d[..., None])[..., :, None] * Rc).sum(axis=-2)


def synth_bearing(state: RigidBodyState, lm: Landmark,
                  cam: CameraExtrinsics) -> np.ndarray:
    """Unit bearing to a landmark in the camera frame (synth_bearings)."""
    return synth_bearings(state, [lm], [cam])[0, 0]


def synth_position(state: RigidBodyState, lm: Landmark) -> np.ndarray:
    """Landmark position expressed in the body frame (synth_positions)."""
    return synth_positions(state, [lm])[0]


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
