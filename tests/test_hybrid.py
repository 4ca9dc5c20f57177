"""Unit tests for the sampled-measurement (flow/jump) estimator."""

from dataclasses import replace

import numpy as np
import pytest

import visnav.hybrid as hybrid
import visnav.observer as observer
from visnav.errors import (NonFiniteStateError, ScheduleViolationError,
                           SingularInnovationError, UnknownLandmarkError)
from visnav.geom import E3, dist_identity, exp_so3, random_rotation
from visnav.hybrid import NoiseCovariances, flow, jump, run, tune_vq
from visnav.observability import transition_matrix
from visnav.measurement import (MODES, frame_arrays, landmark_blocks,
                                mode_cameras)
from visnav.observer import (GainConfig, ObserverState, build_A, error_state,
                             innovation_stereo, measurement_model, step)
from visnav.sim import (GRAVITY, BearingFrame, EightTrajectory, Landmark,
                        PositionFrame, default_stereo_rig, make_bearing_frame,
                        make_position_frame, rig_arrays, sample_landmarks)


def _run(est, imu, frames, lms, cfg, mode="stereo", cams=None, **kwargs):
    """run on a list of hand-built frames, stacked by frame_arrays over
    lms and the cameras of the mode."""
    record = frame_arrays(frames, mode_cameras(mode, cams or []), lms)[1]
    return run(est, imu, record, lms, cfg, mode=mode, cams=cams, **kwargs)


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
    est = flow(est, lambda t: (np.zeros((len(t), 3)), np.zeros((len(t), 3))),
               cfg, dt * np.arange(101))[-1]
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
    t0, t1 = 0.02, 0.02 + 1.0 / 200.0
    a, = flow(est0.copy(), traj.imu, cfg, [t0, t1])
    b = step(est0.copy(), traj.imu, cfg, t1 - t0, t=t0, meas=None)
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
    est = flow(est, traj.imu, cfg, np.arange(101) / 200.0)[-1]
    _, x_end = error_state(traj.state(0.5), est)
    Phi = transition_matrix(lambda tau: traj.imu(tau)[0], np.array(GRAVITY),
                            0.0, 0.5)
    assert np.max(np.abs(x_end - Phi @ x0)) <= 1e-6


def test_flow_batches_match_one_interval_flows():
    # a 20 s frame-free run flows in one call, its Z chained through
    # batches of observer._BATCH nodes: it matches a flow per interval to
    # 1e-12 relative, with the full tune_vq V of NoiseCovariances
    traj = EightTrajectory(t_end=20.0)
    est0 = ObserverState.initial(
        R=exp_so3(0.5 * np.pi * np.ones(3) / np.sqrt(3)), p=[0.3, -0.2, 0.1])
    cfg = GainConfig(k_r=20.0)
    times, states, _ = _run(est0, traj.imu, [], sample_landmarks(5, seed=0),
                            cfg, cams=default_stereo_rig(),
                            ncov=NoiseCovariances(), t_end=20.0)
    assert len(times) - 1 > 10 * observer._BATCH
    cfg_k = replace(cfg, v=tune_vq(est0, NoiseCovariances())[0])
    ref = est0
    for a, b, got in zip(times, times[1:], states[1:]):
        ref, = flow(ref, traj.imu, cfg_k, [a, b])
        for f in ("R", "p", "v", "e", "P"):
            x, y = getattr(got, f), getattr(ref, f)
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y)), f


def test_flow_names_the_node_whose_step_turns_non_finite():
    # a NaN rate at the middle of the step from 0.12 s, inside the frame
    # interval [0.1, 0.15]: the error names 0.12, not the interval's start
    traj = EightTrajectory(t_end=0.3)
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    frames = _make_frames(traj, lms, cams, [0.05, 0.1, 0.15])

    def imu(t):
        omega, a = traj.imu(t)
        omega[np.abs(t - 0.1225) < 1e-9] = np.nan
        return omega, a

    with pytest.raises(NonFiniteStateError, match=r"input at t=0\.12$"):
        _run(ObserverState.initial(), imu, frames, lms, GainConfig(),
             cams=cams, t_end=0.2)


def test_flow_rejects_node_times_that_do_not_ascend():
    traj = EightTrajectory(t_end=0.2)
    for times in ([0.1, 0.05], [0.0, 0.05, 0.05]):
        with pytest.raises(ValueError, match="strictly ascend"):
            flow(ObserverState.initial(), traj.imu, GainConfig(), times)


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


def test_run_names_the_frame_whose_innovation_is_singular():
    # a monocular C P C^T is singular along each bearing, and Q^-1 = I / q
    # with q = 1e16 does not lift it: the error names the frame's time
    traj = EightTrajectory(t_end=0.3)
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    frames = _make_frames(traj, lms, cams, [0.05, 0.1])
    _run(ObserverState.initial(), traj.imu, frames, lms, GainConfig(),
         mode="monocular", cams=cams, t_end=0.15)
    with pytest.raises(SingularInnovationError,
                       match=r"singular at the frame at t=0\.05$"):
        _run(ObserverState.initial(), traj.imu, frames, lms,
             GainConfig(q=1e16), mode="monocular", cams=cams, t_end=0.15)


# ---------------------------------------------------------------------------
# adaptive weights


def test_tune_vq_regularization_floor():
    ncov = NoiseCovariances(cov_omega=0.0, cov_a=0.0, cov_y=0.0, reg=0.01)
    est = ObserverState.initial()
    V, q_inv = tune_vq(est, ncov)
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
    V, q_inv = tune_vq(est, ncov, landmark_blocks(frame, cams, lms),
                       rig_arrays(cams))
    assert V.shape == (15, 15) and q_inv.shape == (15, 15)
    assert np.linalg.eigvalsh(V)[0] >= ncov.reg - 1e-12
    assert np.linalg.eigvalsh(q_inv)[0] >= ncov.reg - 1e-12
    assert np.max(np.abs(V - V.T)) == 0.0
    assert np.max(np.abs(q_inv - q_inv.T)) == 0.0


def test_tune_vq_position_blocks_are_isotropic():
    traj = EightTrajectory(t_end=1.0)
    lms = sample_landmarks(4, seed=1)
    frame = make_position_frame(traj.state(0.3), lms)
    ncov = NoiseCovariances(cov_y=0.06)
    _, q_inv = tune_vq(ObserverState.initial(), ncov,
                       landmark_blocks(frame, [], lms))
    assert np.max(np.abs(q_inv - (0.06 + ncov.reg) * np.eye(12))) <= 1e-15


def test_tune_vq_scales_bearing_blocks_by_range():
    # the same blocks give range-scaled projectors with a rig and the
    # projectors themselves without one
    rng = np.random.default_rng(19)
    traj = EightTrajectory(t_end=1.0)
    lms = sample_landmarks(3, seed=2)
    cams = default_stereo_rig()
    blocks = landmark_blocks(make_bearing_frame(traj.state(0.4), lms, cams),
                             cams, lms)
    est = ObserverState.initial(R=random_rotation(rng), p=rng.normal(size=3))
    ncov = NoiseCovariances(cov_y=0.01, reg=1e-3)
    (_, ranged), (_, plain) = (tune_vq(est, ncov, blocks, rig)
                               for rig in (rig_arrays(cams), None))
    p, Pi, _ = blocks
    for i, d in enumerate(np.linalg.norm(p @ est.e - est.p, axis=1)):
        block = slice(3 * i, 3 * i + 3)
        ref = 0.01 * Pi[i] @ Pi[i].T + 1e-3 * np.eye(3)
        assert np.allclose(plain[block, block], ref, rtol=1e-14, atol=0.0)
        assert np.allclose(ranged[block, block] - 1e-3 * np.eye(3),
                           d * d * (ref - 1e-3 * np.eye(3)), rtol=1e-12,
                           atol=1e-15)


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
        _run(est, imu, _make_frames(traj_long, lms, cams, [0.5, 2.0]), lms,
             cfg, cams=cams, t_end=1.0)
    with pytest.raises(ScheduleViolationError, match="outside"):
        # 1 ms before t0, within dt/2 of node 0 but beyond the 1e-12 s hair
        _run(est, imu, _make_frames(traj, lms, cams, [0.5 - 1e-3]), lms, cfg,
             cams=cams, t_end=1.0, t0=0.5)
    with pytest.raises(ScheduleViolationError):
        # two frames with the same time
        _run(est, imu, _make_frames(traj, lms, cams, [0.5, 0.5]), lms, cfg,
             cams=cams, t_end=1.0)
    with pytest.raises(ScheduleViolationError, match="outside"):
        # without t_end, a last frame before t0 leaves the grid at t0
        _run(est, imu, _make_frames(traj, lms, cams, [0.1]), lms, cfg,
             cams=cams, t0=0.5)


@pytest.mark.parametrize("kwargs, match", [
    ({"dt": 0.0}, r"dt=0\.0"),
    ({"dt": 0.0, "t_end": None}, r"dt=0\.0"),
    ({"t_end": -0.01}, r"t_end=-0\.01"),
])
def test_run_rejects_a_bad_grid(kwargs, match):
    traj = EightTrajectory(t_end=0.2)
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    frames = _make_frames(traj, lms, cams, [0.05, 0.1])
    args = {"t_end": 0.1, **kwargs}
    with pytest.raises(ValueError, match=match):
        _run(ObserverState.initial(), traj.imu, frames, lms, GainConfig(),
             cams=cams, **args)


def test_run_off_grid_frames_converge_to_the_on_grid_level():
    # noise-free stereo frames 2.4 ms after each 200 Hz node they would
    # snap to: jumping each at its own time, the estimate converges as an
    # on-grid run does (1.2e-6 m); applying them at the node instead left
    # 1.1e-2 m of mean position error over the last 2 s
    traj = EightTrajectory(t_end=10.1)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    frames = _make_frames(traj, lms, cams,
                          np.arange(1, 200) / 20.0 + 2.4e-3)
    est0 = ObserverState.initial(
        R=exp_so3(0.5 * np.pi * np.ones(3) / np.sqrt(3)))
    times, states, jumps = _run(est0, traj.imu, frames, lms,
                                GainConfig(k_r=20.0), cams=cams, t_end=10.0)
    assert len(times) == len(states) == 2001
    assert [t for t, _, _ in jumps] == [f.t for f in frames]
    tail = times >= 8.0 - 1e-9
    err = np.linalg.norm(traj.state(times[tail]).p
                         - np.array([s.p for s in states])[tail], axis=1)
    assert np.mean(err) <= 1e-5


def test_run_two_frames_inside_one_imu_interval():
    # both frames fall between the nodes 0.5 and 0.505: the estimate flows
    # to each frame's time, jumps there, and flows on to the next node
    traj = EightTrajectory(t_end=1.0)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    cfg = GainConfig()
    est0 = ObserverState.initial(R=exp_so3(np.array([0.3, 0.0, -0.2])))
    frames = _make_frames(traj, lms, cams, [0.5012, 0.5031])
    times, states, jumps = _run(est0, traj.imu, frames, lms, cfg, cams=cams,
                                t_end=0.6)
    assert [t for t, _, _ in jumps] == [0.5012, 0.5031]
    # run's flows: to the first frame, between the frames, and on from
    # the second frame
    est = est0.copy()
    for stretch, frame in (([*times[:101], 0.5012], frames[0]),
                           ([0.5012, 0.5031], frames[1]),
                           ([0.5031, *times[101:]], None)):
        est = flow(est, traj.imu, cfg, stretch)[0 if frame is None else -1]
        if frame is not None:
            inn = innovation_stereo(est, frame, cams, lms)
            est = jump(est, inn, np.eye(inn[1].shape[0]) / cfg.q)
    got = states[101]
    for a, b in ((got.R, est.R), (got.p, est.p), (got.v, est.v),
                 (got.e, est.e), (got.P, est.P)):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_run_frames_within_the_hair_jump_on_their_node():
    # frames 1e-13 s below node 0 (t0), 1e-13 s above node 40 and 1e-13 s
    # below node 80 jump on those nodes, which record the post-jump state:
    # the run is the one with the frames exactly on the nodes
    traj = EightTrajectory(t_end=0.5)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    est0 = ObserverState.initial(R=exp_so3(np.array([0.3, 0.0, -0.2])))
    on = _make_frames(traj, lms, cams, [0.0, 0.2, 0.4])
    hair = [BearingFrame(t=f.t + dt, obs=f.obs)
            for f, dt in zip(on, (-1e-13, 1e-13, -1e-13))]
    (times, ref, ref_jumps), (_, got, jumps) = (
        _run(est0, traj.imu, frames, lms, GainConfig(), cams=cams, t_end=0.5)
        for frames in (on, hair))
    assert [t for t, _, _ in jumps] == [times[0], times[40], times[80]]
    assert jumps == ref_jumps
    for (_, _, lam_after), k in zip(jumps, (0, 40, 80)):
        assert lam_after == np.linalg.eigvalsh(got[k].P)[-1]
    assert np.linalg.norm(got[0].p) > 0.0    # the initial state, jumped
    for a, b in zip(ref, got):
        for f in ("R", "p", "v", "e", "P"):
            assert np.array_equal(getattr(a, f), getattr(b, f))


@pytest.mark.parametrize("t_last, n", [(0.2537, 51), (0.25 + 3e-12, 51),
                                       (0.25 + 1e-13, 50)])
def test_run_without_t_end_reaches_the_last_frame(t_last, n):
    # the grid ends on the first node at or past the last frame; a frame
    # within 1e-12 s of a node ends it on that node
    traj = EightTrajectory(t_end=0.3)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    frames = _make_frames(traj, lms, cams, [0.1, 0.2, t_last])
    times, states, jumps = _run(ObserverState.initial(), traj.imu, frames, lms,
                                GainConfig(), cams=cams)
    assert len(times) == len(states) == n + 1
    assert times[-1] == pytest.approx(n / 200.0, abs=1e-15)
    assert jumps[-1][0] == (t_last if n == 51 else times[-1])


def test_run_converges_and_contracts():
    traj = EightTrajectory(t_end=4.0)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    cfg = GainConfig(k_r=20.0)
    est0 = ObserverState.initial(
        R=exp_so3(0.5 * np.pi * np.ones(3) / np.sqrt(3)))
    frames = _make_frames(traj, lms, cams, np.arange(0.05, 4.0 + 1e-9, 0.05))
    times, states, jumps = _run(est0, traj.imu, frames, lms, cfg, cams=cams,
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
        _, states, _ = _run(est0, traj.imu, frames, lms, GainConfig(),
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
    times, states, jumps = _run(est0, traj.imu, frames, lms, cfg, cams=cams,
                                t_end=1.0)
    assert len(jumps) == 4
    # replicate the first jump by hand, after run's flow to its node
    est = flow(est0.copy(), traj.imu, cfg, times[:51])[-1]
    inn = innovation_stereo(est, frames[0], cams, lms)
    ref = jump(est, inn, np.linalg.inv(cfg.q * np.eye(inn[1].shape[0])))
    got = states[50]
    assert np.max(np.abs(got.P - ref.P)) <= 1e-12
    assert np.max(np.abs(got.p - ref.p)) <= 1e-12


def _mode_frames(mode, traj, lms, cams, times):
    """Noise-free frames of a mode; bearing frames hold every camera's
    bearings, so monocular frames also carry the second camera's."""
    if mode == "position3d":
        return [make_position_frame(traj.state(t), lms) for t in times]
    return _make_frames(traj, lms, cams, times)


@pytest.mark.parametrize("mode", MODES)
def test_run_jumps_match_per_frame_landmark_blocks(mode):
    # run stacks its frames once; replicating it frame by frame with each
    # frame's own landmark_blocks, through the innovation and tune_vq,
    # gives every state and jump bit for bit: on a frame that misses a
    # landmark, on one where the first camera misses a landmark the second
    # sees, and on one between IMU nodes
    traj = EightTrajectory(t_end=0.5)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    nodes = (1.0 / 200.0) * np.arange(81)
    frames = _mode_frames(mode, traj, lms, cams,
                          [nodes[20], nodes[40], 0.2512, nodes[60]])
    frames[1].obs = {key: y for key, y in frames[1].obs.items()
                     if (key if mode == "position3d" else key[1]) != lms[2].id}
    if mode != "position3d":
        del frames[2].obs[(cams[0].cam_id, lms[4].id)]
    cfg, ncov = GainConfig(k_r=20.0), NoiseCovariances()
    est0 = ObserverState.initial(R=exp_so3(np.array([0.3, 0.0, -0.2])))
    times, states, jumps = _run(est0, traj.imu, frames, lms, cfg, mode=mode,
                                cams=cams, ncov=ncov, t_end=0.4)

    mode_cams = mode_cameras(mode, cams)
    rig = None if mode == "position3d" else rig_arrays(mode_cams)
    cfg_k = replace(cfg, v=tune_vq(est0, ncov)[0])
    # run's flows: from each jump to the next frame, then to the last node
    est, ref, ref_jumps = est0.copy(), [est0], []
    for stretch, frame in ((nodes[:21], frames[0]), (nodes[20:41], frames[1]),
                           ([*nodes[40:51], 0.2512], frames[2]),
                           ([0.2512, *nodes[51:61]], frames[3]),
                           (nodes[60:], None)):
        flowed = flow(est, traj.imu, cfg_k, stretch)
        ref += flowed[:len(flowed) - (stretch[-1] == 0.2512)]
        if frame is None:
            break
        est = flowed[-1]
        blocks = landmark_blocks(frame, mode_cams, lms)
        inn = measurement_model(est, blocks)
        V, q_inv = tune_vq(est, ncov, blocks, rig)
        cfg_k = replace(cfg, v=V)
        lam_before = float(np.linalg.eigvalsh(est.P)[-1])
        est = jump(est, inn, q_inv)
        ref_jumps.append(
            (frame.t, lam_before, float(np.linalg.eigvalsh(est.P)[-1])))
        if frame.t != 0.2512:
            ref[-1] = est
    assert [len(landmark_blocks(f, mode_cams, lms)[0]) for f in frames] == \
        [5, 4, 4 if mode == "monocular" else 5, 5]
    assert jumps == ref_jumps
    assert len(states) == len(ref) == 81
    for a, b in zip(states, ref):
        for f in ("R", "p", "v", "e", "P"):
            assert np.array_equal(getattr(a, f), getattr(b, f))


def test_run_rejects_a_bearing_mode_without_cameras():
    # with no rig a bearing run would stack no camera columns, so every
    # jump would have no rows and the run would dead reckon
    traj = EightTrajectory(t_end=0.3)
    lms = sample_landmarks(5, seed=0)
    frames = _make_frames(traj, lms, default_stereo_rig(), [0.1, 0.2])
    for mode in ("stereo", "monocular"):
        for cams in (None, []):
            with pytest.raises(ValueError, match=mode):
                _run(ObserverState.initial(), traj.imu, frames, lms,
                     GainConfig(), mode=mode, cams=cams, t_end=0.2)


def test_run_rejects_an_unknown_landmark():
    # a record is over lms: a landmark outside them cannot be stacked, and
    # a record over other landmarks or cameras is refused
    traj = EightTrajectory(t_end=0.3)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    for mode, frames in (
            ("stereo", _make_frames(traj, lms, cams, [0.1, 0.2])),
            ("position3d", [PositionFrame(t=0.1, obs={
                lm.id: lm.p for lm in lms})])):
        with pytest.raises(UnknownLandmarkError, match="landmark"):
            _run(ObserverState.initial(), traj.imu, frames, lms[:4],
                 GainConfig(), mode=mode, cams=cams, t_end=0.3)
        record = frame_arrays(frames, mode_cameras(mode, cams), lms)[1]
        with pytest.raises(ValueError, match="not over the 4 landmarks"):
            run(ObserverState.initial(), traj.imu, record, lms[:4],
                GainConfig(), mode=mode, cams=cams, t_end=0.3)
    record = frame_arrays(_make_frames(traj, lms, cams, [0.1]), cams, lms)[1]
    with pytest.raises(ValueError, match="monocular cameras"):
        run(ObserverState.initial(), traj.imu, record, lms, GainConfig(),
            mode="monocular", cams=cams, t_end=0.3)


def test_run_rejects_frame_times_out_of_order():
    # run reads the record's times as they stand: it does not sort them
    traj = EightTrajectory(t_end=0.3)
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    frames = _make_frames(traj, lms, cams, [0.2, 0.1])
    with pytest.raises(ScheduleViolationError,
                       match=r"^frame at t=0\.1 after the frame at t=0\.2$"):
        _run(ObserverState.initial(), traj.imu, frames, lms, GainConfig(),
             cams=cams, t_end=0.3)
