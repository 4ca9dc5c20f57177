"""Unit tests for the sampled-measurement (flow/jump) estimator."""

import numpy as np
import pytest

import visnav.hybrid as hybrid
from visnav.errors import ScheduleViolationError, SingularInnovationError
from visnav.geom import E3, dist_identity, exp_so3, random_rotation
from visnav.hybrid import NoiseCovariances, flow, jump, run, tune_vq
from visnav.observability import transition_matrix
from visnav.observer import (GainConfig, ObserverState, build_A, error_state,
                             innovation_stereo, step)
from visnav.sim import (GRAVITY, EightTrajectory, Landmark,
                        default_stereo_rig, make_bearing_frame,
                        sample_landmarks)


def _spd(rng, n=15, scale=1.0):
    A = rng.normal(size=(n, n))
    return scale * (A @ A.T + n * np.eye(n))


# ---------------------------------------------------------------------------
# flow


def test_flow_covariance_nilpotent_closed_form():
    # With omega = 0 and zero gravity the only surviving coupling in A is the
    # position<-velocity identity block, so A @ A = 0 and the measurement-free
    # covariance flow has the exact polynomial solution
    #   P(t) = (I + A t) P0 (I + A t)^T + v (t I + t^2/2 (A + A^T) + t^3/3 A A^T).
    # RK4 reproduces a cubic flow of a nilpotent generator to rounding error.
    v = 1e-3
    cfg = GainConfig(v=v, gravity=np.zeros(3))
    est = ObserverState.initial(P=0.5 * np.eye(15))
    A = build_A(np.zeros(3), np.zeros(3))
    assert np.array_equal(A @ A, np.zeros((15, 15)))
    dt = 1.0 / 200.0
    for k in range(100):
        est = flow(est, lambda tau: (np.zeros(3), np.zeros(3)), cfg, dt,
                   t=k * dt)
    t = 100 * dt
    phi = np.eye(15) + A * t
    expect = (phi @ (0.5 * np.eye(15)) @ phi.T
              + v * (t * np.eye(15) + t**2 / 2.0 * (A + A.T)
                     + t**3 / 3.0 * (A @ A.T)))
    assert np.max(np.abs(est.P - expect)) <= 1e-12
    # blocks untouched by A (the landmark-direction rows/columns) grow as
    # P0 + v t exactly
    assert np.max(np.abs(est.P[3:12, 3:12]
                         - (0.5 + v * t) * np.eye(9))) <= 1e-12


def test_flow_is_measurement_free_step():
    traj = EightTrajectory(t_end=0.1)
    cfg = GainConfig()
    est0 = ObserverState.initial(R=exp_so3(np.array([0.1, 0.2, -0.3])))
    a = flow(est0.copy(), traj.imu, cfg, 1.0 / 200.0, t=0.02)
    b = step(est0.copy(), traj.imu, cfg, 1.0 / 200.0, t=0.02, meas=None)
    for fa, fb in ((a.R, b.R), (a.p, b.p), (a.v, b.v), (a.e, b.e), (a.P, b.P)):
        assert np.array_equal(fa, fb)


def test_flow_error_follows_transition_matrix():
    # Between jumps the body-resolved error is exactly linear time-varying:
    # x(t) = Phi(t, 0) x(0), whatever the attitude feedback does.
    traj = EightTrajectory(t_end=0.5)
    rng = np.random.default_rng(5)
    est = ObserverState.initial(
        R=traj.rotation(0.0) @ exp_so3(np.array([0.15, -0.2, 0.1])),
        p=rng.normal(0.0, 0.5, 3), v=rng.normal(0.0, 0.5, 3),
        e=E3 + rng.normal(0.0, 0.1, (3, 3)))
    _, x0 = error_state(traj.state(0.0), est)
    cfg = GainConfig()
    t, dt = 0.0, 1.0 / 200.0
    for _ in range(100):
        est = flow(est, traj.imu, cfg, dt, t=t)
        t += dt
    _, x_end = error_state(traj.state(0.5), est)
    Phi = transition_matrix(lambda tau: traj.imu(tau)[0], np.array(GRAVITY),
                            0.0, 0.5)
    assert np.max(np.abs(x_end - Phi @ x0)) <= 1e-6


# ---------------------------------------------------------------------------
# jump


def test_jump_closed_form_identity_covariance():
    # P = I: K = C^T (C C^T + Q^-1)^-1 in closed form
    rng = np.random.default_rng(7)
    C = rng.normal(size=(9, 15))
    q_inv = 0.05 * np.eye(9)
    sy = rng.normal(size=9)
    est = ObserverState.initial(R=random_rotation(rng),
                                p=rng.normal(size=3), v=rng.normal(size=3))
    out = jump(est, (sy, C), q_inv)
    K = C.T @ np.linalg.inv(C @ C.T + q_inv)
    corr = K @ sy
    P_ref = (np.eye(15) - K @ C) @ np.eye(15)
    assert np.max(np.abs(out.P - 0.5 * (P_ref + P_ref.T))) <= 1e-12
    assert np.max(np.abs(out.p - (est.p + est.R @ corr[0:3]))) <= 1e-12
    assert np.max(np.abs(out.v - (est.v + est.R @ corr[12:15]))) <= 1e-12
    assert np.max(np.abs(
        out.e - (est.e + corr[3:12].reshape(3, 3) @ est.R.T))) <= 1e-12
    assert np.array_equal(out.R, est.R)


def test_jump_zero_innovation_contracts_covariance_only():
    rng = np.random.default_rng(9)
    est = ObserverState.initial(R=random_rotation(rng),
                                p=rng.normal(size=3), P=_spd(rng))
    C = rng.normal(size=(6, 15))
    out = jump(est, (np.zeros(6), C), 0.01 * np.eye(6))
    assert np.array_equal(out.R, est.R)
    assert np.max(np.abs(out.p - est.p)) == 0.0
    assert np.max(np.abs(out.v - est.v)) == 0.0
    assert np.max(np.abs(out.e - est.e)) == 0.0
    lam_before = np.linalg.eigvalsh(est.P)[-1]
    lam_after = np.linalg.eigvalsh(out.P)[-1]
    assert lam_after <= lam_before + 1e-12


def test_jump_empty_innovation_is_noop():
    est = ObserverState.initial()
    out = jump(est, (np.zeros(0), np.zeros((0, 15))), np.zeros((0, 0)))
    assert out is not est
    assert np.array_equal(out.P, est.P)


def test_jump_covariance_contraction_property():
    # P+ = P - P C^T S^-1 C P subtracts a PSD term, so every eigenvalue
    # can only shrink; check the max eigenvalue over random draws
    rng = np.random.default_rng(13)
    for _ in range(200):
        est = ObserverState.initial(P=_spd(rng, scale=rng.uniform(0.01, 10)))
        m = rng.integers(3, 16)
        C = rng.normal(size=(m, 15))
        q_inv = _spd(rng, n=m, scale=0.01)
        out = jump(est, (rng.normal(size=m), C), q_inv)
        assert (np.linalg.eigvalsh(out.P)[-1]
                <= np.linalg.eigvalsh(est.P)[-1] + 1e-10)
        assert np.linalg.eigvalsh(out.P)[0] > 0.0


def test_jump_singular_innovation_raises():
    est = ObserverState.initial(P=np.zeros((15, 15)))
    C = np.zeros((3, 15))
    C[0, 0] = 1.0
    with pytest.raises(SingularInnovationError):
        jump(est, (np.zeros(3), C), np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# adaptive weights


def test_tune_vq_regularization_floor():
    ncov = NoiseCovariances(cov_omega=0.0, cov_a=0.0, cov_y=0.0, reg=0.01)
    est = ObserverState.initial()
    V, q_inv = tune_vq(est, ncov, [])
    assert np.max(np.abs(V - 0.01 * np.eye(15))) <= 1e-15
    assert q_inv is None


def test_tune_vq_shapes_and_spd():
    rng = np.random.default_rng(17)
    traj = EightTrajectory(t_end=1.0)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    frame = make_bearing_frame(traj.state(0.5), lms, cams)
    est = ObserverState.initial(R=random_rotation(rng),
                                p=rng.normal(size=3), v=rng.normal(size=3))
    ncov = NoiseCovariances()
    V, q_inv = tune_vq(est, ncov, lms, frame=frame, cams=cams)
    assert V.shape == (15, 15) and q_inv.shape == (15, 15)
    assert np.linalg.eigvalsh(V)[0] >= ncov.reg - 1e-12
    assert np.linalg.eigvalsh(q_inv)[0] >= ncov.reg - 1e-12
    assert np.max(np.abs(V - V.T)) == 0.0
    assert np.max(np.abs(q_inv - q_inv.T)) == 0.0


def test_tune_vq_position_blocks_are_isotropic():
    from visnav.sim import make_position_frame
    traj = EightTrajectory(t_end=1.0)
    lms = sample_landmarks(4, seed=1)
    frame = make_position_frame(traj.state(0.3), lms)
    ncov = NoiseCovariances(cov_y=0.06)
    _, q_inv = tune_vq(ObserverState.initial(), ncov, lms, frame=frame)
    assert np.max(np.abs(q_inv - (0.06 + ncov.reg) * np.eye(12))) <= 1e-15


# ---------------------------------------------------------------------------
# run driver


def _make_frames(traj, lms, cams, times):
    return [make_bearing_frame(traj.state(t), lms, cams) for t in times]


def test_run_rejects_bad_frame_times():
    traj = EightTrajectory(t_end=1.0)
    # longer horizon only for synthesising a frame past the estimation window
    traj_long = EightTrajectory(t_end=2.5)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    cfg = GainConfig()
    est = ObserverState.initial()
    imu = traj.imu
    with pytest.raises(ScheduleViolationError):
        run(est, imu, _make_frames(traj_long, lms, cams, [0.5, 2.0]), lms, cfg,
            cams=cams, t_end=1.0)
    with pytest.raises(ScheduleViolationError):
        # two frames snapping onto the same 200 Hz node
        run(est, imu, _make_frames(traj, lms, cams, [0.5, 0.5015]), lms, cfg,
            cams=cams, t_end=1.0)


def test_run_converges_and_contracts():
    traj = EightTrajectory(t_end=4.0)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    cfg = GainConfig(k_r=20.0)
    est0 = ObserverState.initial(
        R=exp_so3(0.5 * np.pi * np.ones(3) / np.sqrt(3)))
    frames = _make_frames(traj, lms, cams, np.arange(0.05, 4.0 + 1e-9, 0.05))
    times, states, jumps = run(est0, traj.imu, frames, lms, cfg, cams=cams,
                               ncov=NoiseCovariances(), t_end=4.0)
    assert len(times) == len(states) == 801
    assert len(jumps) == 80
    for _, lam_before, lam_after in jumps:
        assert lam_after <= lam_before + 1e-12
    st = traj.state(4.0)
    est = states[-1]
    err0 = np.linalg.norm(traj.state(0.0).p - est0.p)
    assert np.linalg.norm(st.p - est.p) < 0.25 * err0
    assert dist_identity(st.R @ est.R.T) < 0.2


def test_run_monocular_q_inv_follows_the_first_camera(monkeypatch):
    # A monocular run on a two-camera rig measures through the first camera
    # only, so Q^-1 must have C's rows: the one-camera Q^-1, also on a frame
    # where only the second camera sees a landmark.
    traj = EightTrajectory(t_end=0.3)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    frames = _make_frames(traj, lms, cams, [0.1, 0.2, 0.3])
    del frames[1].obs[(cams[0].cam_id, lms[4].id)]
    q_invs = []

    def recording_jump(est, inn, q_inv):
        q_invs.append(q_inv)
        return jump(est, inn, q_inv)

    monkeypatch.setattr(hybrid, "jump", recording_jump)
    est0 = ObserverState.initial(R=exp_so3(np.array([0.3, 0.0, -0.2])))
    outputs = []
    for rig in (cams, cams[:1]):
        q_invs.clear()
        _, states, _ = run(est0, traj.imu, frames, lms, GainConfig(),
                           mode="monocular", cams=rig,
                           ncov=NoiseCovariances(), t_end=0.3)
        outputs.append((list(q_invs), states))
    (rig_q, rig_states), (one_q, one_states) = outputs
    assert [q.shape for q in rig_q] == [(15, 15), (12, 12), (15, 15)]
    assert all(np.array_equal(a, b) for a, b in zip(rig_q, one_q))
    for a, b in zip(rig_states, one_states):
        assert np.array_equal(a.P, b.P) and np.array_equal(a.p, b.p)


def test_run_without_ncov_uses_configured_weights():
    # fixed Q^-1 = (1/q) I on jumps, fixed V in the flow
    traj = EightTrajectory(t_end=1.0)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    cfg = GainConfig()
    est0 = ObserverState.initial(R=exp_so3(np.array([0.3, 0.0, -0.2])))
    frames = _make_frames(traj, lms, cams, [0.25, 0.5, 0.75, 1.0])
    times, states, jumps = run(est0, traj.imu, frames, lms, cfg, cams=cams,
                               t_end=1.0)
    assert len(jumps) == 4
    # replicate the first jump by hand
    est = est0.copy()
    t = 0.0
    for k in range(50):
        est = flow(est, traj.imu, cfg, 1.0 / 200.0, t=t)
        t += 1.0 / 200.0
    inn = innovation_stereo(est, frames[0], cams, lms)
    ref = jump(est, inn, np.linalg.inv(cfg.q * np.eye(inn[1].shape[0])))
    got = states[50]
    assert np.max(np.abs(got.P - ref.P)) <= 1e-12
    assert np.max(np.abs(got.p - ref.p)) <= 1e-12
