"""Tests for trajectory generation and measurement synthesis."""

import numpy as np
import pytest

from visnav.errors import LandmarkAtCameraError
from visnav.geom import I3, AttitudeTable, exp_so3, is_rotation
from visnav.sim import (
    GRAVITY,
    CameraExtrinsics,
    EightTrajectory,
    Landmark,
    RigidBodyState,
    apply_noise,
    apply_position_noise,
    default_stereo_rig,
    make_bearing_frame,
    sample_landmarks,
    synth_bearings,
    synth_positions,
)


@pytest.fixture(scope="module")
def traj():
    return EightTrajectory(t_end=10.0)


def identity_state(p=(0.0, 0.0, 0.0)):
    return RigidBodyState(t=0.0, R=I3.copy(), p=np.array(p, dtype=float),
                          v=np.zeros(3), omega=np.zeros(3), a=-GRAVITY)


def test_initial_conditions(traj):
    s = traj.state(0.0)
    assert np.allclose(s.p, [0.0, 0.0, 2.0])
    assert np.allclose(s.v, [2.0, 2.0, 0.0])
    assert np.allclose(s.omega, [-1.0, 1.0, 0.0])
    assert np.allclose(s.R, I3)
    assert np.allclose(s.a, [0.0, 0.0, 9.81])


def test_trajectory_derivative_consistency(traj):
    # central differences of p and v against the analytic fields
    dt = 1e-3
    for t in np.linspace(0.1, 9.9, 23):
        dp = (traj.position(t + dt) - traj.position(t - dt)) / (2 * dt)
        assert np.linalg.norm(dp - traj.velocity(t)) <= 1e-5
        dv = (traj.velocity(t + dt) - traj.velocity(t - dt)) / (2 * dt)
        s = traj.state(t)
        assert np.linalg.norm(dv - (GRAVITY + s.R @ s.a)) <= 1e-5


def test_rotation_kinematics(traj):
    # dR/dt = R skew(omega), checked with a central difference
    dt = 1e-4
    for t in (0.5, 2.0, 7.3):
        dR = (traj.rotation(t + dt) - traj.rotation(t - dt)) / (2 * dt)
        R = traj.rotation(t)
        S = R.T @ dR
        w = np.array([S[2, 1], S[0, 2], S[1, 0]])
        assert np.linalg.norm(w - traj.omega(t)) <= 1e-5


def test_rotation_stays_on_manifold(traj):
    for t in np.linspace(0.0, 10.0, 101):
        assert is_rotation(traj.rotation(t), tol=1e-9)


def test_one_time_is_its_row_of_the_stack():
    # one time runs the stacked expressions as a one-row stack: bit for bit
    # its row of the 30 s, 200 Hz stack, at both horizon ends too
    traj = EightTrajectory(t_end=30.0)
    ts = np.append(np.arange(6001) / 200.0, 30.0 + 1e-9)
    stack = traj.state(ts)
    for k, t in enumerate(ts.tolist()):
        one = traj.state(t)
        assert one.t == t and np.array_equal(traj.rotation(t), stack.R[k])
        for name in ("R", "p", "v", "omega", "a"):
            assert np.array_equal(getattr(one, name), getattr(stack, name)[k])
    for t in (-1e-9, 30.0 + 1e-8):
        for query in (traj.state, traj.rotation):
            with pytest.raises(ValueError, match="outside trajectory horizon"):
                query(t)


def test_closed_form_rotation_matches_fine_attitude_table():
    # the closed-form coning attitude against a 3200 Hz Magnus integration
    # of the same rate over 30 s, at every 16th node (the 200 Hz samples)
    ts = np.arange(96001) / 3200.0
    table = AttitudeTable(ts, EightTrajectory.omega)
    traj = EightTrajectory(t_end=30.0)
    worst = np.max(np.abs(traj.rotation(ts[::16]) - table.R[::16]))
    assert worst <= 1e-13


def test_synth_bearing_simple_cases():
    s = identity_state()
    cam = CameraExtrinsics(1, I3.copy(), np.zeros(3))
    y = synth_bearings(s, [Landmark(0, np.array([1.0, 0.0, 0.0]))],
                       [cam])[0, 0]
    assert np.allclose(y, [1.0, 0.0, 0.0])
    cam2 = CameraExtrinsics(1, I3.copy(), np.array([0.0, 0.0, 0.1]))
    y = synth_bearings(s, [Landmark(0, np.array([0.0, 0.0, 1.1]))],
                       [cam2])[0, 0]
    assert np.allclose(y, [0.0, 0.0, 1.0])


def test_synth_bearing_general_pose():
    rng = np.random.default_rng(20)
    for _ in range(50):
        R = exp_so3(rng.normal(size=3))
        s = RigidBodyState(t=0.0, R=R, p=rng.normal(size=3), v=np.zeros(3),
                           omega=np.zeros(3), a=np.zeros(3))
        cam = CameraExtrinsics(1, exp_so3(rng.normal(size=3) * 0.1),
                               rng.normal(size=3) * 0.1)
        lm = Landmark(0, rng.normal(size=3) * 5.0)
        y = synth_bearings(s, [lm], [cam])[0, 0]
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-12
        r = s.R.T @ (lm.p - s.p) - cam.p
        cosang = float((cam.R @ y) @ r) / np.linalg.norm(r)
        assert abs(cosang - 1.0) <= 1e-12


def test_synth_bearing_rejects_landmark_at_center():
    s = identity_state()
    cam = CameraExtrinsics(1, I3.copy(), np.array([0.0, -0.1, 0.0]))
    with pytest.raises(LandmarkAtCameraError):
        synth_bearings(s, [Landmark(0, np.array([0.0, -0.1, 0.0]))], [cam])


def test_synth_position():
    s = identity_state()
    assert np.allclose(
        synth_positions(s, [Landmark(0, np.array([1.0, 2.0, 3.0]))])[0],
        [1.0, 2.0, 3.0])
    s_rot = RigidBodyState(t=0.0, R=exp_so3([0.0, 0.0, np.pi / 2]),
                           p=np.zeros(3), v=np.zeros(3), omega=np.zeros(3),
                           a=np.zeros(3))
    assert np.allclose(
        synth_positions(s_rot, [Landmark(0, np.array([1.0, 0.0, 0.0]))])[0],
        [0.0, -1.0, 0.0], atol=1e-12)
    s_at = identity_state(p=(1.0, 2.0, 3.0))
    assert np.allclose(
        synth_positions(s_at, [Landmark(0, np.array([1.0, 2.0, 3.0]))])[0],
        [0.0, 0.0, 0.0])


def test_stereo_triangulation(traj):
    # both stereo rays must meet at the true landmark to < 1e-9 m
    cams = default_stereo_rig()
    lms = sample_landmarks(5, seed=42)
    for t in (0.0, 1.7, 4.2):
        s = traj.state(t)
        frame = make_bearing_frame(s, lms, cams)
        for lm in lms:
            pts = []
            for cam in cams:
                y = frame.obs[(cam.cam_id, lm.id)]
                c = s.p + s.R @ cam.p
                d = s.R @ (cam.R @ y)
                # distance from the true landmark to the ray
                r = lm.p - c
                pts.append(np.linalg.norm(r - (r @ d) * d))
            assert max(pts) < 1e-9


def test_sample_landmarks():
    lms = sample_landmarks(50, seed=3)
    assert [lm.id for lm in lms] == list(range(50))
    pts = np.array([lm.p for lm in lms])
    assert np.all(pts >= -5.0) and np.all(pts <= 5.0)
    # seeded determinism
    again = sample_landmarks(50, seed=3)
    assert np.allclose(pts, np.array([lm.p for lm in again]))


def test_apply_noise_zero_sigma_and_determinism():
    s = identity_state()
    cams = default_stereo_rig()
    lms = sample_landmarks(4, seed=1)
    Y = synth_bearings(s, lms, cams)
    assert np.array_equal(apply_noise(Y, 0.0, seed=5), Y)
    n1 = apply_noise(Y, 0.01, seed=5)
    n2 = apply_noise(Y, 0.01, seed=5)
    assert np.array_equal(n1, n2)
    assert np.abs(np.linalg.norm(n1, axis=-1) - 1.0).max() <= 1e-12
    n3 = apply_noise(Y, 0.01, seed=6)
    assert not np.allclose(n1, n3)


def test_apply_noise_draws_camera_by_camera():
    # the rotation vectors come from one generator, camera by camera and
    # within a camera in landmark order, each bearing turned by its own
    # exp_so3 and renormalized
    s = identity_state()
    cams = default_stereo_rig()
    lms = sample_landmarks(3, seed=2)
    Y = synth_bearings(s, lms, cams)
    rng = np.random.default_rng([4, 2, 7])
    ref = np.empty_like(Y)
    for k in range(len(cams)):
        for i in range(len(lms)):
            y = exp_so3(rng.normal(0.0, 0.01, 3)) @ Y[i, k]
            ref[i, k] = y / np.linalg.norm(y)
    assert np.array_equal(apply_noise(Y, 0.01, seed=[4, 2, 7]), ref)


def test_apply_noise_angle_statistics():
    # per-axis std sigma perturbs a bearing by a Rayleigh-distributed angle
    # with mean sigma * sqrt(pi/2) (only the component orthogonal to the
    # bearing rotates it)
    sigma = 0.01
    y = np.array([0.0, 0.0, 1.0])
    base = np.tile(y, (100, 1, 1))
    noisy = np.array([apply_noise(base, sigma, seed=seed)
                      for seed in range(100)])
    angles = np.arccos(np.clip(noisy @ y, -1.0, 1.0))
    mean = np.mean(angles)
    expect = sigma * np.sqrt(np.pi / 2)
    assert abs(mean - expect) <= 0.2 * expect


def test_apply_position_noise():
    s = identity_state()
    lms = sample_landmarks(3, seed=7)
    Z = synth_positions(s, lms)
    assert np.array_equal(apply_position_noise(Z, 0.0, seed=1), Z)
    noisy = apply_position_noise(Z, 0.1, seed=1)
    again = apply_position_noise(Z, 0.1, seed=1)
    assert np.array_equal(noisy, again)
    assert np.array_equal(
        noisy, Z + np.random.default_rng(1).normal(0.0, 0.1, (3, 3)))
    assert all(not np.allclose(a, b) for a, b in zip(noisy, Z))
