"""Unit tests for the observability analysis tools.

Oracles used here:
  * the measurement-free error dynamics factor exactly through a constant
    nilpotent matrix conjugated by the attitude block-diagonal, so the
    transition matrix has the closed form T(t1) e^{Abar (t1-t0)} T(t0)^-1
    with the exponential terminating after the quadratic term;
  * Simpson quadrature of Phi^T C^T C Phi for the windowed Gramian, checked
    for step-size insensitivity and positivity/deficiency on hand-built
    landmark configurations;
  * the static (motionless-camera) configurations with known degeneracy are
    constructed geometrically and checked against both the classifier label
    and the rank of the static observability matrix.
"""

import numpy as np
import pytest

from visnav.errors import (CameraOnLandmarkError, InsufficientHistoryError,
                           TooFewLandmarksError, UnsupportedSpectrumError)
from visnav.geom import I3, AttitudeTable, exp_so3
from visnav.observability import (FULL_STATE_DIM, GramianReport,
                                  check_mono_motion, check_stereo_condition,
                                  classify_static_degeneracy,
                                  gramian_continuous, gramian_discrete,
                                  check_uniform_observability, held_rate,
                                  static_observability_matrix,
                                  transition_matrix)
from visnav.observer import (ObserverState, build_A, innovation_mono,
                             innovation_position, innovation_stereo,
                             landmark_blocks, linear_output)
from visnav.sim import (GRAVITY, EightTrajectory, Landmark,
                        default_stereo_rig, make_bearing_frame,
                        make_position_frame, sample_landmarks)

G = np.array(GRAVITY)
GDIR = G / np.linalg.norm(G)


@pytest.fixture(scope="module")
def traj():
    return EightTrajectory()


@pytest.fixture(scope="module")
def lms():
    return sample_landmarks(5, seed=0)


@pytest.fixture(scope="module")
def cams():
    return default_stereo_rig()


def _omega_fn(traj):
    return lambda t: traj.imu(t)[0]


def _c_stereo(traj, lms, cams):
    dummy = ObserverState.initial()

    def c_fn(t):
        fr = make_bearing_frame(traj.state(t), lms, cams)
        return innovation_stereo(dummy, fr, cams, lms)[1]

    return c_fn


def _blkdiag_rt(R):
    T = np.zeros((15, 15))
    for k in range(5):
        T[3 * k:3 * k + 3, 3 * k:3 * k + 3] = R.T
    return T


# ---------------------------------------------------------------------------
# transition matrix


def test_gravity_frame_state_matrix_nilpotent_cubed():
    Abar = build_A(np.zeros(3), G)
    A2 = Abar @ Abar
    assert np.any(A2 != 0.0)
    assert np.array_equal(A2 @ Abar, np.zeros((15, 15)))


def test_transition_matrix_identity_and_composition(traj):
    om = _omega_fn(traj)
    assert np.array_equal(transition_matrix(om, G, 1.0, 1.0), np.eye(15))
    full = transition_matrix(om, G, 0.0, 2.0)
    split = transition_matrix(om, G, 1.0, 2.0) @ transition_matrix(
        om, G, 0.0, 1.0)
    assert np.max(np.abs(full - split)) <= 1e-9
    with pytest.raises(ValueError):
        transition_matrix(om, G, 1.0, 0.5)


def test_transition_matrix_factorization(traj):
    # Phi(t1, t0) = T(t1) exp(Abar (t1 - t0)) T(t0)^-1 with T the attitude
    # block diagonal and exp terminating at the quadratic term.
    om = _omega_fn(traj)
    Abar = build_A(np.zeros(3), G)

    def exp_abar(dt):
        return np.eye(15) + Abar * dt + (Abar @ Abar) * (dt * dt / 2.0)

    rng = np.random.default_rng(7)
    for _ in range(6):
        t0 = rng.uniform(0.0, 10.0)
        t1 = t0 + rng.uniform(0.1, 1.5)
        Phi = transition_matrix(om, G, t0, t1)
        ref = _blkdiag_rt(traj.rotation(t1)) @ exp_abar(t1 - t0) \
            @ np.linalg.inv(_blkdiag_rt(traj.rotation(t0)))
        assert np.max(np.abs(Phi - ref)) <= 1e-8


def test_transition_matrix_exact_under_zero_order_hold(traj):
    # A rate held constant between 200 Hz samples transports the attitude
    # by the product of exp(omega_k dt); Phi is then exact in closed form.
    imu = np.array([[k / 200.0, *traj.omega(k / 200.0), 0.0, 0.0, 0.0]
                    for k in range(101)])
    dR = I3
    for k in range(100):
        dR = dR @ exp_so3(imu[k, 1:4] / 200.0)
    Abar = build_A(np.zeros(3), G)
    E = np.eye(15) + 0.5 * Abar + 0.125 * (Abar @ Abar)
    # the Magnus nodes are interior to the 200 Hz samples
    Phi = transition_matrix(lambda t: imu[int(t * 200.0), 1:4], G, 0.0, 0.5)
    assert np.max(np.abs(Phi - _blkdiag_rt(dR) @ E)) <= 1e-12


def _held_product(imu, t0, t1):
    """R(t0)^T R(t1) for rates held from each sample to the next: the
    product of exp_so3 over [t0, t1] split at the sample times."""
    ts = imu[:, 0]
    cuts = np.concatenate(([t0], ts[(ts > t0) & (ts < t1)], [t1]))
    dR = I3
    for a, b in zip(cuts[:-1], cuts[1:]):
        k = int(np.searchsorted(ts, a, side="right")) - 1
        dR = dR @ exp_so3((b - a) * imu[k, 1:4])
    return dR


def test_held_rate_attitude_lookup():
    table = np.array([[0.0, 1, 2, 3, 4, 5, 6],
                      [0.1, 10, 20, 30, 40, 50, 60]], dtype=float)
    rate = held_rate(table)
    w0, w1 = table[0, 1:4], table[1, 1:4]
    assert np.array_equal(rate(-1.0), w0)          # clamped before start
    assert np.array_equal(rate(0.05), w0)          # held from the left
    assert np.array_equal(rate(0.1), w1)           # exact node
    assert np.array_equal(rate(0.1 - 1e-13), w1)   # a hair below snaps onto it
    assert np.array_equal(rate(5.0), w1)           # clamped after end
    att = AttitudeTable(table[:, 0], rate)
    R1 = exp_so3(0.1 * w0)
    assert np.max(np.abs(att(-1.0) - exp_so3(-w0))) <= 1e-15
    assert np.max(np.abs(att(0.05) - exp_so3(0.05 * w0))) <= 1e-15
    assert np.max(np.abs(att(0.1) - R1)) <= 1e-15
    assert np.max(np.abs(att(5.0) - R1 @ exp_so3(4.9 * w1))) <= 1e-13


def test_held_rate_attitude_matches_the_held_product(traj):
    # on the grid and off it, R(t0)^T R(t1) is the product of exp_so3 over
    # the held pieces; on a held rate a Magnus step is that exponential
    imu = np.array([[k / 200.0, *traj.omega(k / 200.0), 0.0, 0.0, 0.0]
                    for k in range(401)])
    att = AttitudeTable(imu[:, 0], held_rate(imu))
    for k in (1, 7, 200, 400):
        ref = _held_product(imu, 0.0, imu[k, 0])
        assert np.max(np.abs(att.R[k] - ref)) <= 1e-12
        assert np.max(np.abs(att(imu[k, 0]) - ref)) <= 1e-12
    for t0, t1 in ((0.0123, 0.0623), (0.5 + 1 / 600, 1.5 + 1 / 600),
                   (1.0, 1.0 + 1 / 600)):
        dR = att(t0).T @ att(t1)
        assert np.max(np.abs(dR - _held_product(imu, t0, t1))) <= 1e-12


# ---------------------------------------------------------------------------
# windowed Gramians


def test_gramian_stereo_positive(traj, lms, cams):
    rep = gramian_continuous(_omega_fn(traj), _c_stereo(traj, lms, cams),
                             0.0, 2.0, G)
    assert rep.verdict
    assert rep.lambda_min > 0.05
    assert rep.lambda_max >= rep.lambda_min
    assert rep.window == (0.0, 2.0)
    assert rep.mu_threshold == 1e-6


def test_gramian_position_and_mono_positive(traj, lms, cams):
    dummy = ObserverState.initial()

    def c_pos(t):
        fr = make_position_frame(traj.state(t), lms)
        return innovation_position(dummy, fr, lms)[1]

    def c_mono(t):
        fr = make_bearing_frame(traj.state(t), lms, [cams[0]])
        return innovation_mono(dummy, fr, cams[0], lms)[1]

    om = _omega_fn(traj)
    assert gramian_continuous(om, c_pos, 0.0, 2.0, G).verdict
    rep_m = gramian_continuous(om, c_mono, 0.0, 2.0, G)
    assert rep_m.verdict
    assert rep_m.lambda_min > 1e-3


def test_gramian_collinear_landmarks_deficient(traj, cams):
    lms_col = [Landmark(i, np.array([1.0 + 0.7 * i, 2.0 - 0.3 * i,
                                     3.0 + 0.5 * i])) for i in range(3)]
    rep = gramian_continuous(_omega_fn(traj), _c_stereo(traj, lms_col, cams),
                             0.0, 2.0, G)
    assert not rep.verdict
    assert rep.lambda_min / rep.lambda_max < 1e-8


def test_gramian_step_size_insensitive(traj, lms, cams):
    om, c_fn = _omega_fn(traj), _c_stereo(traj, lms, cams)
    a = gramian_continuous(om, c_fn, 0.0, 1.0, G, dt=1.0 / 800.0)
    b = gramian_continuous(om, c_fn, 0.0, 1.0, G, dt=1.0 / 1600.0)
    assert abs(a.lambda_min - b.lambda_min) <= 1e-6 * max(1.0, a.lambda_max)


def test_gramian_rejects_bad_window(traj, lms, cams):
    with pytest.raises(ValueError):
        gramian_continuous(_omega_fn(traj), _c_stereo(traj, lms, cams),
                           0.0, 0.0, G)


def test_gramian_report_threshold_boundary():
    mu = 1e-6
    assert GramianReport.from_gramian(mu * np.eye(15), (0, 1), mu).verdict
    assert not GramianReport.from_gramian(0.5 * mu * np.eye(15),
                                          (0, 1), mu).verdict


def test_gramian_discrete_matches_hand_sum():
    rng = np.random.default_rng(11)
    phis = [np.eye(15) + 0.1 * rng.normal(size=(15, 15)) for _ in range(8)]
    cs = [rng.normal(size=(3, 15)) for _ in range(8)]
    rep = gramian_discrete(phis, cs, mu=1e-6)
    W = sum((c @ p).T @ (c @ p) for p, c in zip(phis, cs))
    ev = np.linalg.eigvalsh(0.5 * (W + W.T))
    assert abs(rep.lambda_min - ev[0]) <= 1e-12
    assert abs(rep.lambda_max - ev[-1]) <= 1e-12
    assert rep.window == (0, 8)
    assert gramian_discrete(phis, cs, window=(0.0, 0.35)).window == (0.0, 0.35)


def test_gramian_discrete_sample_monotonicity(traj, lms, cams):
    # adding samples adds a positive semidefinite term, so the smallest
    # eigenvalue cannot decrease
    om, c_fn = _omega_fn(traj), _c_stereo(traj, lms, cams)
    ts = [0.1 * k for k in range(12)]
    phis = [transition_matrix(om, G, 0.0, tk, dt=1.0 / 200.0) for tk in ts]
    cs = [c_fn(tk) for tk in ts]
    lam = [gramian_discrete(phis[:n], cs[:n]).lambda_min
           for n in range(1, len(ts) + 1)]
    assert all(b >= a - 1e-12 for a, b in zip(lam, lam[1:]))
    assert lam[-1] > lam[0]


def test_gramian_discrete_position3d_is_five_by_five(traj, lms):
    # C = r_i^T (x) I3 per landmark, r_i = (1, -p_i, 0), and Phi =
    # E5 (x) dR^T with E5 = exp(N tau), so the position3d Gramian is
    # W5 (x) I3 with W5 = sum of E5^T r_i r_i^T E5: the attitude drops out
    om = _omega_fn(traj)
    N = build_A(np.zeros(3), G)[::3, ::3]
    r = np.array([[1.0, *(-lm.p), 0.0] for lm in lms])
    phis, cs, W5 = [], [], np.zeros((5, 5))
    for tk in [0.1 * k for k in range(12)]:
        phis.append(transition_matrix(om, G, 0.0, tk, dt=1.0 / 200.0))
        frame = make_position_frame(traj.state(tk), lms)
        cs.append(linear_output(landmark_blocks(frame, [], lms))[1])
        rE = r @ (np.eye(5) + tk * N + 0.5 * tk * tk * (N @ N))
        W5 += rE.T @ rE
    rep = gramian_discrete(phis, cs)
    ev = np.linalg.eigvalsh(W5)
    assert abs(rep.lambda_min - ev[0]) <= 1e-10 * ev[0]
    assert abs(rep.lambda_max - ev[-1]) <= 1e-10 * ev[-1]


def test_gramian_discrete_rejects_bad_lists():
    with pytest.raises(ValueError):
        gramian_discrete([], [])
    with pytest.raises(ValueError):
        gramian_discrete([np.eye(15)], [])


# ---------------------------------------------------------------------------
# reduced uniform-observability test for constant state matrices


def test_uniform_observability_nilpotent_stack(traj, lms, cams):
    # the stacked test sees the velocity states through the state-matrix
    # powers; dropping the powers (zero state matrix) loses them because the
    # bearing output matrix has zero velocity columns
    c_fn = _c_stereo(traj, lms, cams)
    Abar = build_A(np.zeros(3), G)
    rep = check_uniform_observability(Abar, c_fn, 0.0, 2.0, mu=1e-6)
    assert rep.verdict
    assert rep.lambda_min > 1.0
    rep0 = check_uniform_observability(np.zeros((15, 15)), c_fn, 0.0, 2.0,
                                       mu=1e-6)
    assert not rep0.verdict
    assert rep0.lambda_min <= 1e-9


def test_uniform_observability_diagonalizable_uses_output_alone():
    rng = np.random.default_rng(2)
    S = rng.normal(size=(15, 15))
    A = 0.5 * (S + S.T)  # symmetric: diagonalizable with real spectrum

    def c_fn(_):
        return np.eye(15)

    rep = check_uniform_observability(A, c_fn, 0.0, 2.0, mu=1e-6)
    assert rep.verdict
    # constant full-rank output: the integral is exactly delta * I
    assert abs(rep.lambda_min - 2.0) <= 1e-9
    assert abs(rep.lambda_max - 2.0) <= 1e-9


def test_uniform_observability_unsupported_spectra():
    def c_fn(_):
        return np.eye(15)

    A_rot = np.zeros((15, 15))
    A_rot[0, 1], A_rot[1, 0] = -3.0, 3.0
    with pytest.raises(UnsupportedSpectrumError):
        check_uniform_observability(A_rot, c_fn, 0.0, 1.0, mu=1e-6)

    A_def = np.zeros((15, 15))
    A_def[0, 0] = A_def[0, 1] = A_def[1, 1] = 1.0
    with pytest.raises(UnsupportedSpectrumError):
        check_uniform_observability(A_def, c_fn, 0.0, 1.0, mu=1e-6)


# ---------------------------------------------------------------------------
# geometric sufficient conditions


def test_stereo_condition_generic_pass(lms):
    ok, tri = check_stereo_condition(lms, G)
    assert ok
    ids = {lm.id for lm in lms}
    assert len(set(tri)) == 3 and set(tri) <= ids


def test_stereo_condition_gravity_parallel_plane_fails():
    # all landmarks in the x-z plane: every triple's normal is along y,
    # orthogonal to gravity
    lms_gp = [Landmark(i, np.array([float(i), 0.0, float(i * i % 5)]))
              for i in range(5)]
    assert check_stereo_condition(lms_gp, G) == (False, None)


def test_stereo_condition_horizontal_plane_passes():
    # normal along z is parallel to gravity: the plane is *not* parallel to
    # gravity, so the condition holds
    lms_hz = [Landmark(i, np.array([float(i), float(i * i % 7), 2.0]))
              for i in range(5)]
    ok, tri = check_stereo_condition(lms_hz, G)
    assert ok and tri is not None


def test_stereo_condition_degenerate_sets():
    line = [Landmark(i, np.array([1.0 * i, 2.0 * i, -1.0 * i]))
            for i in range(4)]
    assert check_stereo_condition(line, G) == (False, None)
    assert check_stereo_condition(line[:2], G) == (False, None)


def test_mono_motion_curved_path_passes(traj, lms, cams):
    times = np.arange(0.0, 10.0 + 1e-9, 0.05)
    cam = cams[0]
    ids = [lm.id for lm in lms[:3]]
    bearings = {}
    for lm in lms[:3]:
        us = []
        for t in times:
            st = traj.state(t)
            d = lm.p - (st.p + st.R @ cam.p)
            us.append(d / np.linalg.norm(d))
        bearings[lm.id] = np.array(us)
    assert check_mono_motion(times, bearings, ids, 1e-3, 2.0)


def test_mono_motion_radial_recession_fails():
    times = np.arange(0.0, 10.0 + 1e-9, 0.05)
    us = []
    for t in times:
        d = -np.array([0.0, 0.0, 1.0 + t])  # receding straight along +z
        us.append(d / np.linalg.norm(d))
    assert not check_mono_motion(times, {0: np.array(us)}, [0], 1e-3, 2.0)


def test_mono_motion_short_history_raises():
    times = np.arange(0.0, 3.0, 0.05)
    bearings = {0: np.tile([0.0, 0.0, 1.0], (times.size, 1))}
    with pytest.raises(InsufficientHistoryError):
        check_mono_motion(times, bearings, [0], 1e-3, 2.0)


# ---------------------------------------------------------------------------
# static configurations


def test_static_observability_matrix_structure(lms):
    p_prime = np.array([0.3, -0.2, 0.1])
    O, rank = static_observability_matrix(lms, p_prime, G)
    n = len(lms)
    assert O.shape == (3 * n + 6, FULL_STATE_DIM + n)
    assert rank == FULL_STATE_DIM + n  # generic cloud: full rank
    ordered = sorted(lms, key=lambda l: l.id)
    for i, lm in enumerate(ordered):
        r = 3 * i
        assert np.array_equal(O[r:r + 3, 0:3], I3)
        for j in range(3):
            assert np.array_equal(O[r:r + 3, 3 + 3 * j:6 + 3 * j],
                                  -lm.p[j] * I3)
        assert np.allclose(O[r:r + 3, FULL_STATE_DIM + i], lm.p - p_prime)
    assert np.array_equal(O[3 * n:3 * n + 3, 12:15], I3)
    for j in range(3):
        assert np.array_equal(O[3 * n + 3:3 * n + 6, 3 + 3 * j:6 + 3 * j],
                              G[j] * I3)


def test_static_observability_matrix_camera_on_landmark(lms):
    p_prime = np.asarray(lms[0].p, dtype=float).copy()
    with pytest.raises(CameraOnLandmarkError):
        static_observability_matrix(lms, p_prime, G)


def _coplanar_cloud(rng):
    n_pl = rng.normal(size=3)
    n_pl /= np.linalg.norm(n_pl)
    b1 = np.cross(n_pl, [1.0, 0.0, 0.0])
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(n_pl, b1)
    base = rng.uniform(-5, 5, 3)
    return [Landmark(i, base + rng.uniform(-4, 4) * b1 + rng.uniform(-4, 4) * b2)
            for i in range(5)]


def test_classifier_generic(lms):
    p_prime = np.array([0.3, -0.2, 0.1])
    v = classify_static_degeneracy(lms, p_prime, G)
    assert v.case_label == "generic"
    assert v.rank_O_prime == v.full_rank_required == FULL_STATE_DIM + 5


def test_classifier_coplanar():
    rng = np.random.default_rng(3)
    lms_a = _coplanar_cloud(rng)
    v = classify_static_degeneracy(lms_a, np.array([0.3, -0.2, 0.1]), G)
    assert v.case_label == "coplanar(a)"
    assert v.rank_O_prime < v.full_rank_required


def test_classifier_coplanar_scale_invariant():
    rng = np.random.default_rng(3)
    lms_a = [Landmark(lm.id, 1e3 * np.asarray(lm.p))
             for lm in _coplanar_cloud(rng)]
    v = classify_static_degeneracy(lms_a, np.array([0.3, -0.2, 0.1]), G)
    assert v.case_label == "coplanar(a)"


def test_classifier_gravity_plane():
    rng = np.random.default_rng(3)
    p_prime = np.array([0.3, -0.2, 0.1])
    l1, l2 = rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3)
    u = l2 - l1
    u -= (u @ GDIR) * GDIR
    u /= np.linalg.norm(u)
    n_b = np.cross(u, GDIR)
    l3 = l1 + 3.0 * n_b + rng.uniform(-5, 5, 3) * 0.2
    r1 = l1 + rng.uniform(-3, 3) * u + rng.uniform(-3, 3) * GDIR
    r2 = l1 + rng.uniform(-3, 3) * u + rng.uniform(-3, 3) * GDIR
    lms_b = [Landmark(i, p) for i, p in enumerate([l1, l2, l3, r1, r2])]
    v = classify_static_degeneracy(lms_b, p_prime, G)
    assert v.case_label == "gravity-plane(b)"
    assert v.rank_O_prime < v.full_rank_required


def test_classifier_camera_aligned():
    rng = np.random.default_rng(4)
    p_prime = np.array([0.3, -0.2, 0.1])
    w1, w2, w3 = (rng.uniform(-5, 5, 3) for _ in range(3))
    d = w1 - p_prime
    lms_c = [Landmark(i, p) for i, p in enumerate(
        [w1, w2, w3, p_prime + 1.7 * d, p_prime + 2.6 * d])]
    v = classify_static_degeneracy(lms_c, p_prime, G)
    assert v.case_label == "camera-aligned(c)"
    assert v.rank_O_prime < v.full_rank_required


def test_classifier_mixed():
    rng = np.random.default_rng(4)
    p_prime = np.array([0.3, -0.2, 0.1])
    w1, w2, w3 = (rng.uniform(-5, 5, 3) for _ in range(3))
    r_plane = w1 + 1.3 * (w2 - w1) + 2.0 * GDIR
    r_line = p_prime + 1.9 * (w3 - p_prime)
    lms_d = [Landmark(i, p) for i, p in enumerate(
        [w1, w2, w3, r_plane, r_line])]
    v = classify_static_degeneracy(lms_d, p_prime, G)
    assert v.case_label == "mixed(d)"
    assert v.rank_O_prime < v.full_rank_required


def test_classifier_too_few_landmarks(lms):
    with pytest.raises(TooFewLandmarksError):
        classify_static_degeneracy(lms[:4], np.zeros(3), G)
