"""Unit tests for the continuous observer: innovation algebra, error-state
identities, Riccati integration, and the step() integrator."""

import tracemalloc
import warnings

import numpy as np
import pytest

import visnav.measurement as measurement
import visnav.observer as observer
from visnav.cli import main
from visnav.dataio import (Dataset, DatasetProvider, interpolating_imu,
                           load_config, load_dataset)
from visnav.errors import (LandmarkAtCameraError, NonFiniteStateError,
                           NotUnitError, UnknownLandmarkError)
from visnav.geom import (E3, I3, dist_identity, exp_so3, pi_proj,
                         psi_antisym, random_rotation, skew)
from visnav.measurement import (MODES, Frames, landmark_blocks,
                                linear_output, output_gains)
from visnav.observer import (GainConfig, ObserverState, TruthSource,
                             attitude_innovation, build_A, error_state,
                             innovation_mono, innovation_position,
                             innovation_stereo, riccati_rhs, run_continuous,
                             step, PositionSource, StereoBearingSource)
from visnav.sim import (GRAVITY, BearingFrame, CameraExtrinsics,
                        EightTrajectory, Landmark, PositionFrame,
                        RigidBodyState, default_stereo_rig,
                        make_bearing_frame, make_position_frame,
                        sample_landmarks, synth_bearings, synth_positions)


def _truth(rng):
    return RigidBodyState(t=0.0, R=random_rotation(rng),
                          p=rng.normal(0.0, 2.0, 3),
                          v=rng.normal(0.0, 1.0, 3),
                          omega=np.zeros(3), a=np.zeros(3))


def _random_estimate(rng):
    return ObserverState.initial(R=random_rotation(rng),
                                 p=rng.normal(0.0, 2.0, 3),
                                 v=rng.normal(0.0, 1.0, 3),
                                 e=rng.normal(0.0, 1.0, (3, 3)))


def _landmarks(rng, n=5):
    return [Landmark(i, rng.uniform(-5.0, 5.0, 3)) for i in range(n)]


# ---------------------------------------------------------------------------
# attitude innovation


def test_attitude_innovation_hand_value():
    # e_hat rows (0,1,0), (-1,0,0), (0,0,1):
    #   rho_1 * (0,1,0) x (1,0,0) = 0.5 * (0,0,-1)
    #   rho_2 * (-1,0,0) x (0,1,0) = 0.3 * (0,0,-1)
    #   rho_3 * (0,0,1) x (0,0,1) = 0
    # half the sum: (0, 0, -0.4)
    est = ObserverState.initial(e=np.array([[0.0, 1.0, 0.0],
                                            [-1.0, 0.0, 0.0],
                                            [0.0, 0.0, 1.0]]))
    s = attitude_innovation(est.e, GainConfig())
    assert np.allclose(s, [0.0, 0.0, -0.4], atol=1e-15)


def test_attitude_innovation_zero_at_alignment():
    est = ObserverState.initial()
    assert np.allclose(attitude_innovation(est.e, GainConfig()), 0.0)


def test_attitude_innovation_decomposition():
    # With consistent auxiliary vectors (e_tilde = 0) the innovation equals
    # k_r * antisymmetric-projection(M R_tilde); the general case adds a
    # linear term (k_r/2) rho_i e_i^x R_hat acting on the e_tilde blocks.
    rng = np.random.default_rng(11)
    cfg = GainConfig(k_r=1.7)
    M = np.diag(cfg.rho)
    worst = 0.0
    for _ in range(1000):
        truth = _truth(rng)
        est = _random_estimate(rng)
        est.e = E3 @ truth.R @ est.R.T  # consistent: e_tilde = 0
        R_tilde, x = error_state(truth, est)
        assert np.linalg.norm(x[3:12]) < 1e-12
        s = attitude_innovation(est.e, cfg)
        worst = max(worst, np.max(np.abs(
            s - cfg.k_r * psi_antisym(M @ R_tilde))))
    assert worst <= 1e-10

    # general e_hat: full decomposition sigma_R = k psi_a(M R_tilde) + Gam x
    worst = 0.0
    for _ in range(1000):
        truth = _truth(rng)
        est = _random_estimate(rng)
        R_tilde, x = error_state(truth, est)
        Gam = np.zeros((3, 15))
        for i in range(3):
            Gam[:, 3 + 3 * i:6 + 3 * i] = \
                0.5 * cfg.k_r * cfg.rho[i] * skew(E3[i]) @ est.R
        s = attitude_innovation(est.e, cfg)
        worst = max(worst, np.max(np.abs(
            s - cfg.k_r * psi_antisym(M @ R_tilde) - Gam @ x)))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# output linearity: sigma_y = C x for every mode


@pytest.mark.parametrize("mode", ["stereo", "monocular", "position3d"])
def test_output_linearity(mode):
    rng = np.random.default_rng(23)
    cams = default_stereo_rig()
    worst = 0.0
    for _ in range(100):
        truth = _truth(rng)
        lms = _landmarks(rng)
        est = _random_estimate(rng)
        if mode == "position3d":
            frame = make_position_frame(truth, lms)
            sy, C = innovation_position(est, frame, lms)
        elif mode == "stereo":
            frame = make_bearing_frame(truth, lms, cams)
            sy, C = innovation_stereo(est, frame, cams, lms)
        else:
            frame = make_bearing_frame(truth, lms, cams[:1])
            sy, C = innovation_mono(est, frame, cams[0], lms)
        assert C.shape == (15, 15)
        _, x = error_state(truth, est)
        worst = max(worst, np.max(np.abs(sy - C @ x)))
    assert worst <= 1e-9


def test_output_linearity_with_missing_landmark():
    # landmarks absent from the frame are omitted; the identity still holds
    rng = np.random.default_rng(29)
    cams = default_stereo_rig()
    truth = _truth(rng)
    lms = _landmarks(rng)
    est = _random_estimate(rng)
    frame = make_bearing_frame(truth, lms, cams)
    for cam_id in (1, 2):
        del frame.obs[(cam_id, lms[2].id)]
    sy, C = innovation_stereo(est, frame, cams, lms)
    assert sy.shape == (12,) and C.shape == (12, 15)
    _, x = error_state(truth, est)
    assert np.max(np.abs(sy - C @ x)) <= 1e-9


def test_innovation_empty_frame():
    est = ObserverState.initial()
    sy, C = innovation_stereo(est, BearingFrame(t=0.0),
                              default_stereo_rig(), [Landmark(0, np.ones(3))])
    assert sy.size == 0 and C.shape == (0, 15)


def test_innovation_missing_stereo_pair():
    rng = np.random.default_rng(31)
    cams = default_stereo_rig()
    truth = _truth(rng)
    lms = _landmarks(rng)
    frame = make_bearing_frame(truth, lms, cams)
    del frame.obs[(2, lms[0].id)]
    est = _random_estimate(rng)
    # the landmark stays, with a single-projector block
    sy, C = innovation_stereo(est, frame, cams, lms)
    assert sy.shape == (15,)
    _, x = error_state(truth, est)
    assert np.max(np.abs(sy - C @ x)) <= 1e-9


def test_innovation_unknown_landmark():
    est = ObserverState.initial()
    frame = BearingFrame(t=0.0, obs={(1, 99): np.array([0.0, 0.0, 1.0])})
    with pytest.raises(UnknownLandmarkError):
        innovation_stereo(est, frame, default_stereo_rig(),
                          [Landmark(0, np.ones(3))])


def _rotated_rig(rng):
    return [CameraExtrinsics(cam.cam_id, random_rotation(rng), cam.p)
            for cam in default_stereo_rig()]


@pytest.mark.parametrize("excess,raises", [(5e-7, False), (2e-6, True)])
def test_innovation_rejects_non_unit_bearing(excess, raises):
    # the unit check (tolerance 1e-6) runs inside the batched projectors
    rng = np.random.default_rng(37)
    cams = _rotated_rig(rng)
    lms = _landmarks(rng)
    frame = make_bearing_frame(_truth(rng), lms, cams)
    frame.obs[(1, lms[3].id)] = (1.0 + excess) * frame.obs[(1, lms[3].id)]
    est = _random_estimate(rng)
    calls = (lambda: innovation_stereo(est, frame, cams, lms),
             lambda: innovation_mono(est, frame, cams[0], lms))
    for call in calls:
        if raises:
            with pytest.raises(NotUnitError):
                call()
        else:
            call()
    # bearings of cameras the innovation does not use are not checked
    innovation_mono(est, frame, cams[1], lms)


def test_landmark_blocks_match_per_landmark_projectors():
    rng = np.random.default_rng(41)
    cams = _rotated_rig(rng)
    lms = _landmarks(rng)
    frame = make_bearing_frame(_truth(rng), lms, cams)
    del frame.obs[(1, lms[1].id)]         # seen by camera 2 only
    del frame.obs[(2, lms[4].id)]         # seen by camera 1 only
    frame.obs[(7, lms[0].id)] = np.array([1.0, 0.0, 0.0])  # not in the rig
    p, Pi, b = measurement.landmark_blocks(frame, cams[::-1], lms)
    for i, lm in enumerate(lms):
        seen = [c for c in cams if (c.cam_id, lm.id) in frame.obs]
        projs = [pi_proj(c.R @ frame.obs[(c.cam_id, lm.id)]) for c in seen]
        assert np.array_equal(p[i], lm.p)
        assert np.array_equal(Pi[i], sum(projs))
        assert np.allclose(b[i], sum(P @ c.p for P, c in zip(projs, seen)),
                           rtol=0.0, atol=1e-15)


def test_innovation_dispatch_uses_the_mode_cameras():
    rng = np.random.default_rng(43)
    cams = _rotated_rig(rng)
    lms = _landmarks(rng)
    truth = _truth(rng)
    est = _random_estimate(rng)
    bearings = make_bearing_frame(truth, lms, cams)
    positions = make_position_frame(truth, lms)
    assert measurement.mode_cameras("monocular", cams[::-1]) == cams[:1]
    assert measurement.mode_cameras("position3d", cams) == []
    with pytest.raises(ValueError):
        measurement.mode_cameras("trinocular", cams)
    pairs = [("stereo", bearings, innovation_stereo(est, bearings, cams, lms)),
             ("monocular", bearings,
              innovation_mono(est, bearings, cams[0], lms)),
             ("position3d", positions,
              innovation_position(est, positions, lms))]
    for mode, frame, ref in pairs:
        got = observer.measurement_model(est, landmark_blocks(
            frame, measurement.mode_cameras(mode, cams[::-1]), lms))
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    # monocular is stereo with one camera
    one = innovation_stereo(est, bearings, cams[:1], lms)
    assert all(np.array_equal(a, b) for a, b in zip(one, pairs[1][2]))


# ---------------------------------------------------------------------------
# state matrix


def test_build_A_structure():
    rng = np.random.default_rng(37)
    omega = rng.normal(size=3)
    g = np.array(GRAVITY)
    A = build_A(omega, g)
    ref = np.zeros((15, 15))
    for i in range(5):
        ref[3 * i:3 * i + 3, 3 * i:3 * i + 3] = -skew(omega)
    ref[0:3, 12:15] = I3
    for j in range(3):
        ref[12:15, 3 + 3 * j:6 + 3 * j] = g[j] * I3
    assert np.array_equal(A, ref)


def test_constant_part_nilpotent():
    Abar = build_A(np.zeros(3), np.array(GRAVITY))
    A2 = Abar @ Abar
    assert np.any(A2 != 0.0)
    assert np.max(np.abs(A2 @ Abar)) == 0.0


# ---------------------------------------------------------------------------
# error state


def test_error_state_zero_at_truth():
    rng = np.random.default_rng(41)
    truth = _truth(rng)
    est = ObserverState.initial(R=truth.R.copy(), p=truth.p.copy(),
                                v=truth.v.copy(), e=E3 @ truth.R @ truth.R.T)
    R_tilde, x = error_state(truth, est)
    assert np.max(np.abs(R_tilde - I3)) <= 1e-14
    assert np.max(np.abs(x)) <= 1e-14


def test_error_state_right_shift_invariance():
    # Rotating both attitudes by a common right factor leaves R_tilde
    # unchanged and only re-expresses the error blocks in the new body
    # frame (norms preserved).
    rng = np.random.default_rng(43)
    for _ in range(50):
        truth = _truth(rng)
        est = _random_estimate(rng)
        Q = random_rotation(rng)
        R_tilde, x = error_state(truth, est)
        shifted = RigidBodyState(t=0.0, R=truth.R @ Q, p=truth.p, v=truth.v,
                                 omega=truth.omega, a=truth.a)
        est_shift = est.copy()
        est_shift.R = est.R @ Q
        R_tilde2, x2 = error_state(shifted, est_shift)
        assert np.max(np.abs(R_tilde2 - R_tilde)) <= 1e-12
        for blk in range(5):
            s = slice(3 * blk, 3 * blk + 3)
            assert abs(np.linalg.norm(x2[s]) - np.linalg.norm(x[s])) <= 1e-12


# ---------------------------------------------------------------------------
# Riccati equation


def test_riccati_scalar_closed_form():
    # A=0, C=Q=V=I decouples into dp/dt = 1 - p^2 per eigenvalue:
    # p(t) = ((1+p0)e^{2t} - (1-p0)) / ((1+p0)e^{2t} + (1-p0)), p0 = 4.
    A = np.zeros((15, 15))
    C = np.eye(15)
    Q = np.eye(15)
    V = np.eye(15)
    P = 4.0 * np.eye(15)
    h, t_end = 1e-3, 1.0
    n = int(round(t_end / h))
    for _ in range(n):
        k1 = riccati_rhs(P, A, C, Q, V)
        k2 = riccati_rhs(P + 0.5 * h * k1, A, C, Q, V)
        k3 = riccati_rhs(P + 0.5 * h * k2, A, C, Q, V)
        k4 = riccati_rhs(P + h * k3, A, C, Q, V)
        P = P + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    p0 = 4.0
    e2t = np.exp(2.0 * t_end)
    p_exact = ((1 + p0) * e2t - (1 - p0)) / ((1 + p0) * e2t + (1 - p0))
    assert np.max(np.abs(P - p_exact * np.eye(15))) <= 1e-9
    assert np.max(np.abs(P - P.T)) == 0.0


def test_riccati_rhs_no_measurement_growth():
    P = np.diag(np.linspace(1.0, 2.0, 15))
    A = build_A(np.array([0.1, -0.2, 0.3]), np.array(GRAVITY))
    V = 1e-4 * np.eye(15)
    out = riccati_rhs(P, A, np.zeros((0, 15)), np.zeros((0, 0)), V)
    ref = A @ P + P @ A.T + V
    assert np.max(np.abs(out - 0.5 * (ref + ref.T))) <= 1e-15


# ---------------------------------------------------------------------------
# integration


def _still_imu(t):
    """omega = 0 and a = 0 at every time of the array t."""
    return np.zeros((len(t), 3)), np.zeros((len(t), 3))


def test_free_fall_exact():
    # omega = 0, accelerometer reads 0: the estimate must reproduce the
    # ballistic arc exactly (RK4 is exact on polynomials of degree <= 3).
    g = np.array(GRAVITY)
    p0, v0 = np.array([1.0, -2.0, 3.0]), np.array([0.5, 0.2, -0.1])
    est = ObserverState.initial(p=p0, v=v0, P=1e-6 * np.eye(15))
    cfg = GainConfig()
    dt, t = 1.0 / 200.0, 0.0
    for _ in range(200):
        est = step(est, _still_imu, cfg, dt, t=t)
        t += dt
    assert np.max(np.abs(est.R - I3)) <= 1e-13
    assert np.max(np.abs(est.e - E3)) <= 1e-13
    assert np.max(np.abs(est.v - (v0 + g * t))) <= 1e-12
    assert np.max(np.abs(est.p - (p0 + v0 * t + 0.5 * g * t * t))) <= 1e-12


def test_equilibrium_invariance_short():
    # Starting from zero error the stereo-corrected estimate must stay on
    # the truth trajectory to integration accuracy over 1 s.
    traj = EightTrajectory(t_end=1.0)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    st0 = traj.state(0.0)
    est0 = ObserverState.initial(R=st0.R.copy(), p=st0.p.copy(),
                                 v=st0.v.copy(), P=1e-4 * np.eye(15))
    _, states = run_continuous(est0, traj.imu,
                               StereoBearingSource(traj, lms, cams),
                               GainConfig(), t_end=1.0)
    st = traj.state(1.0)
    est = states[-1]
    assert np.linalg.norm(st.R - est.R) <= 1e-8
    assert np.linalg.norm(est.e - E3) <= 1e-8
    assert np.linalg.norm(st.p - est.p) <= 1e-8
    assert np.linalg.norm(st.v - est.v) <= 1e-8


def test_equilibrium_invariance_long():
    traj = EightTrajectory(t_end=10.0)
    lms = sample_landmarks(5, seed=0)
    cams = default_stereo_rig()
    st0 = traj.state(0.0)
    est0 = ObserverState.initial(R=st0.R.copy(), p=st0.p.copy(),
                                 v=st0.v.copy(), P=1e-4 * np.eye(15))
    _, states = run_continuous(est0, traj.imu,
                               StereoBearingSource(traj, lms, cams),
                               GainConfig(), t_end=10.0)
    st = traj.state(10.0)
    est = states[-1]
    assert dist_identity(st.R @ est.R.T) <= 1e-7
    assert np.linalg.norm(st.p - est.p) <= 1e-7
    assert np.linalg.norm(st.v - est.v) <= 1e-7


def _no_measurement(times, q):
    """A source without a measurement at any time."""
    n = len(times)
    return np.zeros((n, 12, 12)), np.zeros((n, 12)), np.zeros(n, dtype=bool)


def test_flow_matches_none_returning_measurement():
    # a source that always reports "nothing" must reproduce the pure
    # inertial flow bit for bit
    traj = EightTrajectory(t_end=0.1)
    est0 = ObserverState.initial(R=exp_so3(np.array([0.2, -0.1, 0.3])))
    cfg = GainConfig()
    a = est0.copy()
    b = est0.copy()
    t, dt = 0.0, 1.0 / 200.0
    for _ in range(20):
        a = step(a, traj.imu, cfg, dt, t=t)
        b = step(b, traj.imu, cfg, dt, t=t, meas=_no_measurement)
        t += dt
    for fa, fb in ((a.R, b.R), (a.p, b.p), (a.v, b.v), (a.e, b.e), (a.P, b.P)):
        assert np.array_equal(fa, fb)


def test_measurement_first_seen_at_step_end_belongs_to_next_step():
    # a stream whose first frame is at t + dt leaves the step that ends on
    # it the measurement-free flow, bit for bit
    traj = EightTrajectory(t_end=0.1)
    source = PositionSource(traj, sample_landmarks(5, seed=0))
    t, dt = 0.045, 1.0 / 200.0
    est = ObserverState.initial(R=exp_so3(np.array([0.2, -0.1, 0.3])))

    def from_step_end(times, q):
        S, g, has = source(times, q)
        off = times < t + dt
        S[off], g[off], has[off] = 0.0, 0.0, False
        return S, g, has

    a = step(est, traj.imu, GainConfig(), dt, t=t)
    b = step(est, traj.imu, GainConfig(), dt, t=t, meas=from_step_end)
    for name in ("R", "p", "v", "e", "P"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_step_covariance_matches_a_fine_riccati_integration():
    # one 5 ms step from P = I under a fixed stereo C, Q = 1e3: the stiff
    # start of the measured Riccati flow, against RK4 of riccati_rhs at
    # 1 us steps
    traj = EightTrajectory(t_end=0.1)
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    est = ObserverState.initial(R=traj.rotation(0.0))
    y, C = linear_output(landmark_blocks(
        make_bearing_frame(traj.state(0.0), lms, cams), cams, lms))
    omega = np.array([0.3, -0.2, 0.5])
    cfg = GainConfig()
    dt = 5e-3

    def held(times, q):         # the one output (y, C) at every time
        S, g = output_gains(y, C, q)
        return (np.repeat(S[None], len(times), 0),
                np.repeat(g[None], len(times), 0), np.ones(len(times), bool))

    out = step(est, lambda t: (np.tile(omega, (len(t), 1)),
                               np.zeros((len(t), 3))), cfg, dt, meas=held)
    A = build_A(omega, cfg.gravity)
    Q, V = cfg.q * np.eye(C.shape[0]), cfg.v_matrix()
    P, h = np.eye(15), 1e-6
    for _ in range(int(round(dt / h))):
        k1 = riccati_rhs(P, A, C, Q, V)
        k2 = riccati_rhs(P + 0.5 * h * k1, A, C, Q, V)
        k3 = riccati_rhs(P + 0.5 * h * k2, A, C, Q, V)
        k4 = riccati_rhs(P + h * k3, A, C, Q, V)
        P = P + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(out.P - P)) <= 1e-7


def test_step_nonfinite_guard():
    est = ObserverState.initial(P=np.full((15, 15), np.nan))
    with pytest.raises(NonFiniteStateError):
        step(est, _still_imu, GainConfig(), 1.0 / 200.0)


def test_step_nonfinite_guard_names_field_with_measurements():
    # with measurements on, a NaN P spreads to every field through the
    # gain; the error names the field it started in
    traj = EightTrajectory(t_end=0.1)
    source = PositionSource(traj, sample_landmarks(5, seed=0))
    est = ObserverState.initial(P=np.full((15, 15), np.nan))
    with pytest.raises(NonFiniteStateError,
                       match=r"non-finite P at t=0\.025"):
        step(est, traj.imu, GainConfig(), 1.0 / 200.0, t=0.025, meas=source)


ONSET_CFG = """\
mode = {mode}
estimator = continuous
duration = 0.25
imu_rate = 200
vision_rate = 20
seed = 0
n_landmarks = 5
"""


@pytest.mark.parametrize("mode", ["stereo", "monocular", "position3d"])
def test_measurement_onset_substeps(mode, tmp_path, monkeypatch):
    # A dataset's first vision frame (t = 0.05) switches the stiff measured
    # Riccati regime on.  The Hamiltonian form is not stiff there: every
    # step, the onset included, is one RK4 step.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(ONSET_CFG.format(mode=mode))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(data)]) == 0
    cfg = load_config(str(cfg_path))
    gains = cfg.gain_config()
    ds = load_dataset(str(data))
    provider = DatasetProvider(ds, mode)
    first_frame = ds.frames(mode).t[0]
    imu_fn = interpolating_imu(ds.imu)

    # project_to_rotation runs once per RK4 step
    substeps = []
    project = observer.project_to_rotation
    monkeypatch.setattr(observer, "project_to_rotation",
                        lambda R: substeps.append(1) or project(R))
    dt = 1.0 / 200.0
    est = cfg.initial_estimate()
    per_step = []
    for k in range(50):
        before = len(substeps)
        est = step(est, imu_fn, gains, dt, t=k * dt, meas=provider)
        per_step.append(len(substeps) - before)
    assert first_frame < 50 * dt
    assert per_step == [1] * 50


def test_run_continuous_bookkeeping():
    traj = EightTrajectory(t_end=0.5)
    est0 = ObserverState.initial()
    times, states = run_continuous(est0, traj.imu, None, GainConfig(),
                                   t_end=0.5)
    assert len(times) == len(states) == 101
    assert times[0] == 0.0 and abs(times[-1] - 0.5) < 1e-12
    assert states[0] is not est0  # stored as an independent copy
    assert np.array_equal(states[0].R, est0.R)


def test_step_queries_each_stage_time_once(monkeypatch):
    # imu and then meas once each, over t, t + h/2 and t + h
    traj = EightTrajectory(t_end=0.1)
    source = TruthSource(traj, sample_landmarks(5, seed=0), "position3d")
    calls, substeps = [], []

    def imu(times):
        calls.append(("imu", times.tolist()))
        return traj.imu(times)

    def meas(times, q):
        calls.append(("meas", times.tolist()))
        return source(times, q)

    project = observer.project_to_rotation
    monkeypatch.setattr(observer, "project_to_rotation",
                        lambda R: substeps.append(1) or project(R))
    est = ObserverState.initial(P=1e-6 * np.eye(15))
    h = 1.0 / 200.0
    step(est, imu, GainConfig(), h, t=0.02, meas=meas)
    assert len(substeps) == 1
    taus = [0.02, 0.02 + 0.5 * h, 0.02 + h]
    assert calls == [("imu", taus), ("meas", taus)]


def test_run_continuous_synthesizes_each_stage_time_once(monkeypatch):
    # steps meet on times[k] bit for bit, so N steps synthesize 2N + 1
    # stage times: t, t + dt/2 and t + dt, the last shared with the next
    # step; the stacked protocol synthesizes each time once, one array
    # per batch, forms its gains in one stacked_gains call over that
    # array, and builds no per-time output or gain
    traj = EightTrajectory(t_end=1.0)
    source = StereoBearingSource(traj, sample_landmarks(5, seed=0),
                                 default_stereo_rig())
    built, stacked, per_time = [], [], []
    make, gains = observer.synth_bearings, observer.stacked_gains
    monkeypatch.setattr(observer, "synth_bearings",
                        lambda st, *a: built.append(st.t) or make(st, *a))
    monkeypatch.setattr(observer, "stacked_gains",
                        lambda p, Y, *a: stacked.append(len(Y))
                        or gains(p, Y, *a))
    for module, name in ((observer, "linear_output"),
                         (measurement, "linear_output"),
                         (measurement, "output_gains")):
        monkeypatch.setattr(module, name,
                            lambda *a, name=name: per_time.append(name))
    times, _ = run_continuous(ObserverState.initial(), traj.imu, source,
                              GainConfig(), t_end=1.0)
    n = len(times) - 1
    taus = np.empty(2 * n + 1)
    taus[0], taus[1::2], taus[2::2] = times[0], times[:-1] + 0.5 * np.diff(
        times), times[1:]
    assert n == 200 and len(built) == -(-n // observer._BATCH)
    assert np.array_equal(np.concatenate(built), taus)
    assert stacked == [len(t) for t in built]
    assert per_time == []


def _forward(fn, calls, name):
    """A plain forwarder of fn, shaped like the benchmark's span tracer's,
    that records each call's times under name."""
    def f(*a, **k):
        calls.append((name, a[0]))
        return fn(*a, **k)
    return f


@pytest.mark.parametrize("kind", ["truth", "dataset"])
def test_run_continuous_reaches_wrapped_inputs_once_per_batch(kind):
    # through plain forwarders, imu(times) and then source(times, q) once
    # per batch; their times are the 2 n + 1 stage times, t0 and each
    # step's middle and end, and the states are the unwrapped run's
    traj = EightTrajectory(t_end=0.3)
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    if kind == "truth":
        imu, source = traj.imu, TruthSource(traj, lms, "stereo", cams)
    else:
        ts = np.arange(61) / 200.0
        imu = interpolating_imu(np.column_stack([ts, *traj.imu(ts)]))
        source = DatasetProvider(_frame_dataset(
            traj, lms, cams, 0.05 * np.arange(1, 7)), "stereo")
    est0 = ObserverState.initial(R=exp_so3(np.array([0.9, -0.4, 0.6])))
    calls = []
    times, states = run_continuous(est0, _forward(imu, calls, "imu"),
                                   _forward(source, calls, "source"),
                                   GainConfig(), t_end=0.3)
    n = len(times) - 1
    assert n > 2 * observer._BATCH
    assert [name for name, _ in calls] == ["imu", "source"] * -(
        -n // observer._BATCH)
    taus = np.empty(2 * n + 1)
    taus[0], taus[1::2], taus[2::2] = times[0], times[:-1] + 0.5 * np.diff(
        times), times[1:]
    for name in ("imu", "source"):
        assert np.array_equal(
            np.concatenate([t for got, t in calls if got == name]), taus)
    _, ref = run_continuous(est0, imu, source, GainConfig(), t_end=0.3)
    for name in ("R", "p", "v", "e", "P"):
        assert np.array_equal([getattr(s, name) for s in states],
                              [getattr(s, name) for s in ref]), name


def test_run_continuous_queries_imu_then_meas_once_per_stage_time():
    # over several batches, imu(taus) and then meas(taus, q) per batch;
    # together they reach t0 and each step's middle and end once, 2 n + 1
    # times each, a batch's last end not repeated by the next batch
    traj = EightTrajectory(t_end=0.3)
    source = TruthSource(traj, sample_landmarks(5, seed=0), "stereo",
                         default_stereo_rig())
    calls = []

    def imu(times):
        calls.append(("imu", times.tolist()))
        return traj.imu(times)

    def meas(times, q):
        calls.append(("meas", times.tolist()))
        return source(times, q)

    times, _ = run_continuous(ObserverState.initial(), imu, meas,
                              GainConfig(), t_end=0.3)
    assert len(times) - 1 > 2 * observer._BATCH
    taus = [float(times[0])]
    for a, b in zip(times.tolist(), times[1:].tolist()):
        taus += [a + 0.5 * (b - a), b]
    assert [name for name, _ in calls] == ["imu", "meas"] * (len(calls) // 2)
    for name in ("imu", "meas"):
        assert sum((t for got, t in calls if got == name), []) == taus
    assert [t for _, t in calls[::2]] == [t for _, t in calls[1::2]]


def test_run_continuous_names_an_imu_that_answers_one_time():
    # an imu of one time, not of the batch's array, is named at the
    # batch's first time, not mis-shaped in the stage inputs
    with pytest.raises(ValueError, match=r"t=0\.05 with shapes \(3,\) and "
                       r"\(3,\), expected \(33, 3\) stacks"):
        run_continuous(ObserverState.initial(),
                       lambda t: (np.zeros(3), np.zeros(3)), None,
                       GainConfig(), t_end=0.3, t0=0.05)


def _step_loop(est, imu, source, times):
    """The states of one step call per IMU interval, as a run would be
    stepped node by node."""
    states = [est]
    for a, b in zip(times.tolist(), times[1:].tolist()):
        states.append(step(states[-1], imu, GainConfig(), b - a, t=a,
                           meas=source))
    return states


def _assert_matches_step_loop(got, ref):
    # P bit for bit; R, p, v and e to 1e-12 of the run's largest entry
    for name in ("R", "p", "v", "e", "P"):
        x = np.array([getattr(s, name) for s in got])
        y = np.array([getattr(s, name) for s in ref])
        if name == "P":
            assert np.array_equal(x, y)
        else:
            assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y)), name


@pytest.mark.parametrize("mode", MODES)
def test_run_continuous_batches_match_a_loop_of_steps(mode):
    # Z restarts at every node of a run with a source, so the batches
    # carry P as the steps do, bit for bit; the attitude chains unprojected
    # through a batch, so R, p, v and e agree to roundoff
    traj = EightTrajectory(t_end=0.3)
    source = TruthSource(traj, sample_landmarks(5, seed=0), mode,
                         default_stereo_rig())
    est0 = ObserverState.initial(R=exp_so3(np.array([0.9, -0.4, 0.6])),
                                 p=[0.3, -0.2, 0.1])
    times, states = run_continuous(est0, traj.imu, source, GainConfig(),
                                   t_end=0.3)
    assert len(times) - 1 > 2 * observer._BATCH
    _assert_matches_step_loop(states, _step_loop(est0, traj.imu, source,
                                                 times))


@pytest.mark.parametrize("mode", MODES)
def test_run_continuous_onset_inside_a_batch_matches_a_loop_of_steps(mode):
    # a dataset stream from 0.05 s: the onset (the first step with rows)
    # falls inside the first batch, and the step that ends on the first
    # frame stays the measurement-free flow
    traj = EightTrajectory(t_end=0.3)
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    provider = DatasetProvider(_frame_dataset(
        traj, lms, cams, 0.05 * np.arange(1, 7)), mode)
    est0 = ObserverState.initial(R=exp_so3(np.array([0.9, -0.4, 0.6])))
    times, states = run_continuous(est0, traj.imu, provider, GainConfig(),
                                   t_end=0.3)
    assert 0 < int(round(0.05 * 200)) < observer._BATCH < len(times) - 1
    _assert_matches_step_loop(states, _step_loop(est0, traj.imu, provider,
                                                 times))


def test_run_continuous_names_the_step_whose_rate_turns_non_finite():
    # a NaN rate at the middle of the step from 0.12 s, inside a measured
    # batch: the error names that step's start
    traj = EightTrajectory(t_end=0.3)
    source = TruthSource(traj, sample_landmarks(5, seed=0), "stereo",
                         default_stereo_rig())

    def imu(t):
        omega, a = traj.imu(t)
        omega[np.abs(t - 0.1225) < 1e-9] = np.nan
        return omega, a

    assert int(round(0.12 * 200)) % observer._BATCH
    with pytest.raises(NonFiniteStateError, match=r"input at t=0\.12$"):
        run_continuous(ObserverState.initial(), imu, source, GainConfig(),
                       t_end=0.3)


def test_riccati_overflow_names_the_node_not_the_inputs():
    # q = 1e200 overflows Z's stages at the step from 0.05, where the
    # measurements start, ten steps into the first batch; every input is
    # finite, yet the guard blamed them, reading only the batch's start
    # state.  It names the node's P, and numpy's overflow warnings stay
    # silent
    traj = EightTrajectory(t_end=0.3)
    source = TruthSource(traj, sample_landmarks(5, seed=0), "stereo",
                         default_stereo_rig())

    def late(times, q):
        S, g, has = source(times, q)
        return S, g, has & (times > 0.05 - 1e-9)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError,
                           match=r"^non-finite P at t=0\.05$"):
            run_continuous(ObserverState.initial(), traj.imu, late,
                           GainConfig(q=1e200), t_end=0.2)


@pytest.mark.parametrize("kwargs, match", [
    ({"dt": 0.0}, r"dt=0\.0"),
    ({"dt": -0.005}, r"dt=-0\.005"),
    ({"t_end": -0.01}, r"t_end=-0\.01"),
])
def test_run_continuous_rejects_a_bad_grid(kwargs, match):
    traj = EightTrajectory(t_end=0.1)
    args = {"t_end": 0.1, **kwargs}
    with pytest.raises(ValueError, match=match):
        run_continuous(ObserverState.initial(), traj.imu, None, GainConfig(),
                       **args)


def _frame_dataset(traj, lms, cams, times):
    """Noise-free frames at times that see every landmark, as the records
    of one stacked trajectory query."""
    st = traj.state(np.asarray(times, dtype=float))

    def record(Y):
        return Frames(st.t, Y, np.ones(Y.shape[:-1], dtype=bool))

    return Dataset(imu=np.zeros((2, 7)), landmarks=lms, extrinsics=cams,
                   bearings=record(synth_bearings(st, lms, cams)),
                   positions=record(synth_positions(st, lms)[:, :, None]))


def _frame(source, t, mode, lms, cams):
    """The frame that the frame path of a source reads at t: a fresh one
    from the trajectory state of a TruthSource (the stacked state, which
    the source reads, of t alone), and a DatasetProvider's blend as a
    frame of the keys it sees."""
    if isinstance(source, TruthSource):
        st = source.traj.state(np.array([t]))
        st = RigidBodyState(**{name: getattr(st, name)[0] for name in
                               ("t", "R", "p", "v", "omega", "a")})
        return (make_position_frame(st, lms) if mode == "position3d"
                else make_bearing_frame(st, lms, cams))
    Y, seen = source._blend([t])
    ids = sorted(lm.id for lm in lms)
    if mode == "position3d":
        return PositionFrame(t=t, obs={ids[i]: Y[0, i, 0]
                                       for i in np.flatnonzero(seen[0])})
    cam_ids = [c.cam_id for c in measurement.mode_cameras(mode, cams)]
    return BearingFrame(t=t, obs={(cam_ids[k], ids[i]): Y[0, i, k]
                                  for i, k in zip(*np.nonzero(seen[0]))})


@pytest.mark.parametrize("mode", MODES)
def test_sources_match_a_fresh_innovation(mode):
    # whatever the order of the times stacked in one query (interleaved and
    # repeated), each time's S is q C^T C of the C of a fresh innovation
    # at that time, and a truth source's S x + g = q C^T (C x - y) = 0 for
    # the true state x, to roundoff of the terms of S x (stereo's y is a
    # near-cancelling difference)
    q = 1e3
    traj = EightTrajectory(t_end=1.0)
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    ds = _frame_dataset(traj, lms, cams, 0.05 * np.arange(1, 11))
    truth, provider = TruthSource(traj, lms, mode, cams), DatasetProvider(
        ds, mode)
    times = np.array([0.1, 0.1, 0.13, 0.1, 0.17, 0.13, 0.13, 0.2, 0.1, 0.075,
                      0.5])
    rng = np.random.default_rng(5)
    for source in (truth, provider):
        S, g, _ = source(times, q)
        for k, t in enumerate(times.tolist()):
            est, frame = _random_estimate(rng), _frame(source, t, mode, lms,
                                                       cams)
            _, C = {
                "position3d": lambda: innovation_position(est, frame, lms),
                "stereo": lambda: innovation_stereo(est, frame, cams, lms),
                "monocular": lambda: innovation_mono(est, frame, cams[0],
                                                     lms)}[mode]()
            assert np.array_equal(S[k], (q * C.T @ C)[:12, :12])
            if source is truth:
                _, x = error_state(traj.state(t), ObserverState.initial(
                    e=np.zeros((3, 3))))
                assert np.all(np.abs(S[k] @ x[:12] + g[k])
                              <= 1e-12 * (np.abs(S[k]) @ np.abs(x[:12])))


class _StillTrajectory:
    """The body at rest at the origin, R = I."""

    def state(self, t):
        n = len(t)
        return RigidBodyState(t=t, R=np.tile(np.eye(3), (n, 1, 1)),
                              p=np.zeros((n, 3)), v=np.zeros((n, 3)),
                              omega=np.zeros((n, 3)), a=np.zeros((n, 3)))


@pytest.mark.parametrize("mode", ("stereo", "monocular"))
def test_truth_source_names_the_first_landmark_at_a_camera(mode):
    # landmark 1 sits on camera 2's centre and landmark 3 on camera 1's;
    # the synthesis goes camera by camera, so camera 1's pair is named,
    # and a monocular source does not look through camera 2
    cams = default_stereo_rig()
    lms = [Landmark(0, np.array([1.0, 2.0, 3.0])),
           Landmark(1, cams[1].p.copy()), Landmark(3, cams[0].p.copy())]
    source = TruthSource(_StillTrajectory(), lms, mode, cams)
    with pytest.raises(LandmarkAtCameraError) as exc:
        source(np.array([0.0]), 1e3)
    assert str(exc.value) == "landmark 3 is 0.000e+00 m from camera 1"
    S, g, has = TruthSource(_StillTrajectory(), lms[:2], "monocular",
                            cams)(np.array([0.0]), 1e3)
    assert has[0] and np.all(np.isfinite(S)) and np.all(np.isfinite(g))


@pytest.mark.parametrize("mode", ("position3d", "stereo"))
def test_truth_source_rows_follow_ids_whatever_the_landmark_order(mode):
    q = 1e3
    traj = EightTrajectory(t_end=1.0)
    lms = sample_landmarks(6, seed=3)
    cams = [CameraExtrinsics(1, exp_so3(np.array([0.1, -0.2, 0.3])),
                             np.array([0.0, -0.1, 0.0])),
            CameraExtrinsics(2, exp_so3(np.array([-0.3, 0.2, 0.1])),
                             np.array([0.05, 0.1, 0.0]))]
    shuffled = [lms[i] for i in (4, 0, 5, 2, 1, 3)]
    source, ordered = (TruthSource(traj, shuffled, mode, cams),
                       TruthSource(traj, lms, mode, cams))
    mode_cams = measurement.mode_cameras(mode, cams)
    times = np.array([0.0, 0.37, 0.8])
    got, ref = source(times, q), ordered(times, q)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    for k, t in enumerate(times.tolist()):
        frame = _frame(source, t, mode, shuffled, cams)
        S, g = output_gains(*linear_output(landmark_blocks(frame, mode_cams,
                                                           lms)), q)
        assert np.array_equal(got[0][k], S) and np.array_equal(got[1][k], g)


@pytest.mark.parametrize("mode", MODES)
def test_dataset_provider_none_outside_the_stream(mode):
    traj = EightTrajectory(t_end=1.0)
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    provider = DatasetProvider(
        _frame_dataset(traj, lms, cams, [0.05, 0.1, 0.15]), mode)
    times = np.array([0.0, 0.0, 0.2, 0.1, 0.0, 0.2, 0.1])
    S, g, has = provider(times, 1e3)
    assert has.tolist() == (times == 0.1).tolist()
    assert not S[~has].any() and not g[~has].any()


# ---------------------------------------------------------------------------
# the stacked input protocol

# stage times inside the stream of _stacked_sources' dataset, on and off its
# frames, and outside it on both sides
STACK_TIMES = np.concatenate([[0.0, 0.03], 0.05 + 0.0025 * np.arange(41),
                              [0.3, 0.49, 0.5, 0.52, 0.9]])


def _stacked_sources(mode):
    traj = EightTrajectory(t_end=1.0)
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    ds = _frame_dataset(traj, lms, cams, 0.05 * np.arange(1, 11))
    return {"truth": TruthSource(traj, lms, mode, cams),
            "dataset": DatasetProvider(ds, mode)}


@pytest.mark.parametrize("kind", ["truth", "dataset"])
@pytest.mark.parametrize("mode", MODES)
def test_stacked_gains_do_not_depend_on_the_stack(mode, kind):
    # a time's (S, g, has) is the same bit for bit whatever times are
    # stacked with it, so a batch gives what a step gives
    source = _stacked_sources(mode)[kind]
    whole = source(STACK_TIMES, 1e3)
    for k in (1, 2, 17, len(STACK_TIMES) - 1):
        head, tail = (source(STACK_TIMES[:k], 1e3),
                      source(STACK_TIMES[k:], 1e3))
        for got, a, b in zip(whole, head, tail):
            assert np.array_equal(got, np.concatenate([a, b]))


@pytest.mark.parametrize("kind", ["truth", "dataset"])
@pytest.mark.parametrize("mode", MODES)
def test_stacked_gains_match_the_per_time_output(mode, kind):
    # (S, g) is output_gains' (q C^T C, -q C^T y) of the frame path, the
    # linear output of landmark_blocks of the time's frame, bit for bit,
    # on the first 12 entries of the state, whose v rows and columns are
    # zero; has marks the times with a measurement, and a time without
    # one adds nothing
    q = 1e3
    source = _stacked_sources(mode)[kind]
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    mode_cams = measurement.mode_cameras(mode, cams)
    S, g, has = source(STACK_TIMES, q)
    assert S.shape == (len(STACK_TIMES), 12, 12) and g.shape[1:] == (12,)
    for k, t in enumerate(STACK_TIMES.tolist()):
        frame = _frame(source, t, mode, lms, cams)
        assert has[k] == bool(frame.obs)
        if not frame.obs:
            assert not S[k].any() and not g[k].any()
            continue
        y, C = linear_output(landmark_blocks(frame, mode_cams, lms))
        full = q * C.T @ C, -q * C.T @ y
        assert not full[0][12:].any() and not full[0][:, 12:].any()
        assert not full[1][12:].any()
        # bit for bit: a reordered sum of S is what a tolerance lets by
        S_ref, g_ref = output_gains(y, C, q)
        assert np.array_equal(S[k], S_ref) and np.array_equal(g[k], g_ref)


def test_stacked_imu_does_not_depend_on_the_stack():
    # the trajectory's closed form and the interpolated table: a time's
    # (omega, a) whatever times are stacked with it, the table's bit for
    # bit its per-time lookup and the trajectory's to roundoff of it
    traj = EightTrajectory(t_end=1.0)
    ts = np.arange(201) / 200.0
    table = np.column_stack([ts, *np.transpose([np.concatenate(traj.imu(t))
                                                for t in ts])])
    for imu in (traj.imu, interpolating_imu(table)):
        whole = imu(STACK_TIMES)
        for k in (1, 17):
            for got, a, b in zip(whole, imu(STACK_TIMES[:k]),
                                 imu(STACK_TIMES[k:])):
                assert np.array_equal(got, np.concatenate([a, b]))
        for k, t in enumerate(STACK_TIMES.tolist()):
            for got, ref in zip(whole, imu(t)):
                if imu is traj.imu:     # the stacked exp_so3, to an ulp
                    assert np.abs(got[k] - ref).max() <= 1e-14
                else:
                    assert np.array_equal(got[k], ref)


@pytest.mark.parametrize("mode", ("stereo", "monocular"))
def test_stacked_truth_source_keeps_its_checks(mode):
    # a landmark on camera 2's centre at t = 0.3 names that pair, as a
    # query of that time alone does; a camera whose rotation is not one
    # gives rotated bearings off unit length
    traj = EightTrajectory(t_end=1.0)
    cams = default_stereo_rig()
    st = traj.state(0.3)
    lms = [Landmark(0, np.array([1.0, 2.0, 3.0])),
           Landmark(4, st.p + st.R @ cams[1].p)]
    source = TruthSource(traj, lms, "stereo", cams)
    with pytest.raises(LandmarkAtCameraError) as stacked:
        source(np.array([0.1, 0.3, 0.5]), 1e3)
    with pytest.raises(LandmarkAtCameraError) as alone:
        source(np.array([0.3]), 1e3)
    assert str(stacked.value) == str(alone.value)
    assert str(stacked.value).startswith("landmark 4 is ")
    bent = [CameraExtrinsics(c.cam_id, 1.5 * c.R, c.p) for c in cams]
    source = TruthSource(traj, lms[:1], mode, bent)
    with pytest.raises(NotUnitError):
        source(np.array([0.1, 0.3]), 1e3)


def test_stacked_truth_gains_peak_memory():
    # the tracemalloc peak of one stereo query over a first batch's
    # 2 * 16 + 1 stage times, in KiB: 59 with a per-time loop, 166 with
    # the products over the whole stack, 109 in halves (stacked_gains)
    traj = EightTrajectory(t_end=1.0)
    source = TruthSource(traj, sample_landmarks(5, seed=0), "stereo",
                         default_stereo_rig())
    taus = 0.5 + 0.0025 * np.arange(2 * observer._BATCH + 1)
    source(taus, 1e3)
    tracemalloc.start()
    try:
        source(taus, 1e3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 120_000


def test_stacked_onset_inside_a_batch_matches_the_per_time_path():
    # a dataset stream from 0.05 s: one query per batch, the first
    # covering the onset, and the run agrees with a loop of step calls,
    # one step per interval, to roundoff
    traj = EightTrajectory(t_end=0.3)
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    provider = DatasetProvider(_frame_dataset(
        traj, lms, cams, 0.05 * np.arange(1, 7)), "stereo")
    queried = []
    est0 = ObserverState.initial(R=exp_so3(np.array([0.9, -0.4, 0.6])))
    times, states = run_continuous(
        est0, traj.imu,
        lambda times, q: queried.append(times) or provider(times, q),
        GainConfig(), t_end=0.3)
    n = len(times) - 1
    assert len(queried) == -(-n // observer._BATCH)
    assert queried[0][0] < 0.05 < queried[0][-1]
    ref = _step_loop(est0, traj.imu, provider, times)
    for name in ("R", "p", "v", "e", "P"):
        x = np.array([getattr(s, name) for s in states])
        y = np.array([getattr(s, name) for s in ref])
        assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y)), name


# ---------------------------------------------------------------------------
# configuration validation


def test_gain_config_rejects_bad_values():
    with pytest.raises(ValueError):
        GainConfig(k_r=0.0)
    with pytest.raises(ValueError):
        GainConfig(rho=(0.5, 0.5, 0.2))
    with pytest.raises(ValueError):
        GainConfig(rho=(0.5, -0.3, 0.2))
    with pytest.raises(ValueError):
        GainConfig(gravity=np.zeros(2))


def test_gain_config_matrix_weights():
    cfg = GainConfig()
    assert np.array_equal(cfg.v_matrix(), 1e-4 * np.eye(15))
