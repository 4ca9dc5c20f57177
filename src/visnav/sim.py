"""Ground-truth motion and vision measurement synthesis.

Provides the figure-eight reference trajectory used throughout the test
suite, landmark sampling, stereo/monocular bearing synthesis, landmark
position measurements expressed in the body frame, and measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LandmarkAtCameraError
from .geom import I3, exp_so3, project_to_rotation, rotation_step
# dexpinv_body stays importable here: the benchmark's span tracer
# (perfbench/tracer.py) wraps it in this namespace.
from .geom import dexpinv_body  # noqa: F401

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

    p(t) = 2 (sin t, sin t cos t, 1), so v = 2 (cos t, cos 2t, 0), with the
    body rotation rate omega(t) = (-cos 2t, 1, sin 2t) integrated from
    R(0) = I by 4th-order Magnus steps (`geom.rotation_step`), tabulated
    once on a fixed grid at construction; a query between grid points
    takes one partial step from the grid node below, so grid queries and
    off-grid queries are mutually consistent.  The last query's rotation
    is kept for a repeated query time.
    """

    def __init__(self, t_end: float = 30.0, dt: float = 1.0 / 200.0):
        if t_end <= 0 or dt <= 0:
            raise ValueError("t_end and dt must be positive")
        self.t_end = float(t_end)
        self.dt = float(dt)
        n = int(np.ceil(self.t_end / self.dt - 1e-9))
        table = np.empty((n + 1, 3, 3))
        table[0] = I3
        for k in range(n):
            # projected: roundoff must not drift off SO(3) along the table
            table[k + 1] = project_to_rotation(
                rotation_step(table[k], self.omega, k * self.dt, self.dt))
        self._table = table
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
        k = int(np.floor(t / self.dt + 1e-9))
        k = min(max(k, 0), len(self._table) - 1)
        R = self._table[k]
        rem = t - k * self.dt
        if rem > 1e-12:
            R = rotation_step(R, self.omega, k * self.dt, rem)
        self._last = (t, R)
        return R

    def body_accel(self, t: float) -> np.ndarray:
        return self.rotation(t).T @ (self.vdot(t) - GRAVITY)

    def imu(self, t: float):
        """(omega, a) pair as an ideal IMU would report at time t."""
        return self.omega(t), self.body_accel(t)

    def state(self, t: float) -> RigidBodyState:
        R = self.rotation(t)
        return RigidBodyState(t=float(t), R=R, p=self.position(t),
                              v=self.velocity(t), omega=self.omega(t),
                              a=R.T @ (self.vdot(t) - GRAVITY))


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


def synth_bearing(state: RigidBodyState, lm: Landmark,
                  cam: CameraExtrinsics) -> np.ndarray:
    """Unit bearing to a landmark in the camera frame.

    Raises
    ------
    LandmarkAtCameraError
        If the landmark is within 1e-6 m of the optical center.
    """
    r = state.R.T @ (lm.p - state.p) - cam.p
    d = np.linalg.norm(r)
    if d <= 1e-6:
        raise LandmarkAtCameraError(
            f"landmark {lm.id} is {d:.3e} m from camera {cam.cam_id}")
    return cam.R.T @ (r / d)


def synth_position(state: RigidBodyState, lm: Landmark) -> np.ndarray:
    """Landmark position expressed in the body frame."""
    return state.R.T @ (lm.p - state.p)


def make_bearing_frame(state: RigidBodyState, landmarks, cams) -> BearingFrame:
    """Synthesize one bearing frame: every landmark in every camera."""
    return BearingFrame(t=state.t,
                        obs={(cam.cam_id, lm.id): synth_bearing(state, lm, cam)
                             for cam in cams for lm in landmarks})


def make_position_frame(state: RigidBodyState, landmarks) -> PositionFrame:
    return PositionFrame(t=state.t,
                         obs={lm.id: synth_position(state, lm) for lm in landmarks})


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
