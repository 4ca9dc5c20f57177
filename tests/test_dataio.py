"""Unit tests for dataset files, run configuration, and trace emission."""

import math

import numpy as np
import pytest

from visnav.dataio import (IMU_HEADER, LANDMARKS_HEADER, TRACE_HEADER,
                           Dataset, DatasetProvider, RunConfig, TraceRecord,
                           apply_overrides, interpolating_imu,
                           load_config, load_dataset, read_trace,
                           save_dataset, write_trace)
from visnav.errors import IoError, ParseError, ValidationError
from visnav.geom import E3, exp_so3
from visnav.observer import landmark_blocks, linear_output
from visnav.sim import BearingFrame, CameraExtrinsics, Landmark, PositionFrame

MINIMAL_IMU = "t,wx,wy,wz,ax,ay,az\n0,0.1,0,0,0,0,9.81\n"
MINIMAL_LMS = "id,x,y,z\n1,0,0,0\n"


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _full_dataset():
    rng = np.random.default_rng(0)
    ts = np.array([0.0, 1.0 / 3.0, 0.7, 1.1])
    imu = np.column_stack([ts, rng.normal(size=(4, 3)),
                           rng.normal(size=(4, 3))])
    lms = [Landmark(3, np.array([1.0, -2.0, 0.5])),
           Landmark(1, np.array([math.pi, 1e-7, -1.0 / 3.0])),
           Landmark(7, np.array([0.25, 4.0, -3.5]))]
    cams = [CameraExtrinsics(1, exp_so3(np.array([0.1, -0.2, 0.3])),
                             np.array([0.0, 0.1, 0.0])),
            CameraExtrinsics(2, exp_so3(np.array([-0.3, 0.2, 0.1])),
                             np.array([0.0, -0.1, 0.0]))]
    frames = []
    for t in (0.1, 0.5):
        obs = {}
        for c in cams:
            for lm in lms:
                obs[(c.cam_id, lm.id)] = _unit(rng.normal(size=3))
        frames.append(BearingFrame(t=t, obs=obs))
    pos = [PositionFrame(t=t, obs={lm.id: rng.normal(size=3) for lm in lms})
           for t in (0.1, 0.5)]
    gts = []
    for t in (0.0, 1.1):
        R = exp_so3(rng.normal(size=3))
        gts.append([t, *R.reshape(-1), *rng.normal(size=3),
                    *rng.normal(size=3)])
    return Dataset(imu=imu, landmarks=lms, bearings=frames, positions=pos,
                   groundtruth=np.array(gts), extrinsics=cams)


# ---------------------------------------------------------------------------
# dataset round trips and validation


def test_dataset_round_trip_is_exact(tmp_path):
    ds = _full_dataset()
    save_dataset(str(tmp_path), ds)
    back = load_dataset(str(tmp_path))
    assert np.array_equal(back.imu, ds.imu)
    assert np.array_equal(back.groundtruth, ds.groundtruth)
    want = {lm.id: lm.p for lm in ds.landmarks}
    assert [lm.id for lm in back.landmarks] == sorted(want)
    for lm in back.landmarks:
        assert np.array_equal(lm.p, want[lm.id])
    assert len(back.bearings) == len(ds.bearings)
    for fa, fb in zip(back.bearings, ds.bearings):
        assert fa.t == fb.t and fa.obs.keys() == fb.obs.keys()
        for key in fa.obs:
            assert np.array_equal(fa.obs[key], fb.obs[key])
    for fa, fb in zip(back.positions, ds.positions):
        assert fa.t == fb.t and fa.obs.keys() == fb.obs.keys()
        for key in fa.obs:
            assert np.array_equal(fa.obs[key], fb.obs[key])
    assert [c.cam_id for c in back.extrinsics] == [1, 2]
    for ca, cb in zip(back.extrinsics, ds.extrinsics):
        assert np.array_equal(ca.R, cb.R) and np.array_equal(ca.p, cb.p)
    assert back.landmark_ids() == {1, 3, 7}
    assert back.cam_ids() == {1, 2}


def test_minimal_dataset_and_missing_required(tmp_path):
    (tmp_path / "imu.csv").write_text(MINIMAL_IMU)
    (tmp_path / "landmarks.csv").write_text(MINIMAL_LMS)
    ds = load_dataset(str(tmp_path))
    assert ds.imu.shape == (1, 7)
    assert ds.bearings == [] and ds.positions == []
    assert ds.groundtruth is None and ds.extrinsics == []
    (tmp_path / "imu.csv").unlink()
    with pytest.raises(ValidationError, match="imu.csv"):
        load_dataset(str(tmp_path))


def test_imu_rejects_unsorted_timestamps(tmp_path):
    (tmp_path / "imu.csv").write_text(
        "t,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0,0\n0.2,0,0,0,0,0,0\n"
        "0.1,0,0,0,0,0,0\n")
    (tmp_path / "landmarks.csv").write_text(MINIMAL_LMS)
    with pytest.raises(ValidationError, match="strictly increasing"):
        load_dataset(str(tmp_path))


def test_parse_errors_carry_file_and_line(tmp_path):
    (tmp_path / "landmarks.csv").write_text(MINIMAL_LMS)
    imu = tmp_path / "imu.csv"

    imu.write_text("time,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0,0\n")
    with pytest.raises(ParseError, match="imu.csv:1"):
        load_dataset(str(tmp_path))

    imu.write_text("t,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0,0\n0.1,0,0\n")
    with pytest.raises(ParseError, match="imu.csv:3.*7 columns"):
        load_dataset(str(tmp_path))

    imu.write_text("t,wx,wy,wz,ax,ay,az\n0,zero,0,0,0,0,0\n")
    with pytest.raises(ParseError, match="imu.csv:2.*non-numeric"):
        load_dataset(str(tmp_path))

    imu.write_text("")
    with pytest.raises(ParseError, match="imu.csv:1.*empty"):
        load_dataset(str(tmp_path))


def test_read_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        read_trace(str(tmp_path / "absent.csv"))


def test_landmark_validation(tmp_path):
    (tmp_path / "imu.csv").write_text(MINIMAL_IMU)
    lms = tmp_path / "landmarks.csv"
    lms.write_text("id,x,y,z\n1,0,0,0\n1,1,1,1\n")
    with pytest.raises(ValidationError, match="duplicate landmark id"):
        load_dataset(str(tmp_path))
    lms.write_text("id,x,y,z\n1.5,0,0,0\n")
    with pytest.raises(ParseError, match="integer"):
        load_dataset(str(tmp_path))
    lms.write_text("id,x,y,z\n")
    with pytest.raises(ValidationError, match="no landmarks"):
        load_dataset(str(tmp_path))


def _write_core(tmp_path, extrinsics=True):
    (tmp_path / "imu.csv").write_text(MINIMAL_IMU)
    (tmp_path / "landmarks.csv").write_text("id,x,y,z\n1,0,0,2\n2,1,0,2\n")
    if extrinsics:
        (tmp_path / "extrinsics.csv").write_text(
            "cam_id,r11,r12,r13,r21,r22,r23,r31,r32,r33,px,py,pz\n"
            "1,1,0,0,0,1,0,0,0,1,0,0.1,0\n")


def test_bearing_stream_validation(tmp_path):
    _write_core(tmp_path)
    br = tmp_path / "bearings.csv"
    head = "t,cam_id,landmark_id,bx,by,bz\n"

    br.write_text(head + "0.1,9,1,0,0,1\n")
    with pytest.raises(ValidationError, match="unknown cam_id"):
        load_dataset(str(tmp_path))

    br.write_text(head + "0.1,1,9,0,0,1\n")
    with pytest.raises(ValidationError, match="unknown landmark_id"):
        load_dataset(str(tmp_path))

    br.write_text(head + "0.1,1,1,0,0,1\n0.1,1,1,0,1,0\n")
    with pytest.raises(ValidationError, match="duplicate observation"):
        load_dataset(str(tmp_path))

    br.write_text(head + "0.2,1,1,0,0,1\n0.1,1,2,0,0,1\n")
    with pytest.raises(ValidationError, match="strictly increasing"):
        load_dataset(str(tmp_path))

    br.write_text(head + "0.1,1,1,1,1,0\n")
    with pytest.raises(ValidationError, match="unit length"):
        load_dataset(str(tmp_path))

    br.write_text(head + "0.1,1,1,0,0,1\n0.2,1,2,1,0,0\n")
    ds = load_dataset(str(tmp_path))
    assert [fr.t for fr in ds.bearings] == [0.1, 0.2]


def test_position_stream_validation(tmp_path):
    _write_core(tmp_path, extrinsics=False)
    po = tmp_path / "positions.csv"
    po.write_text("t,landmark_id,x,y,z\n0.1,9,0,0,1\n")
    with pytest.raises(ValidationError, match="unknown landmark_id"):
        load_dataset(str(tmp_path))
    po.write_text("t,landmark_id,x,y,z\n0.1,1,0,0,1\n0.1,2,1,0,0\n")
    ds = load_dataset(str(tmp_path))
    assert len(ds.positions) == 1 and set(ds.positions[0].obs) == {1, 2}


def test_groundtruth_and_extrinsics_must_be_rotations(tmp_path):
    _write_core(tmp_path, extrinsics=False)
    (tmp_path / "groundtruth.csv").write_text(
        "t,r11,r12,r13,r21,r22,r23,r31,r32,r33,px,py,pz,vx,vy,vz\n"
        "0,2,0,0,0,1,0,0,0,1,0,0,0,0,0,0\n")
    with pytest.raises(ValidationError, match="not a rotation"):
        load_dataset(str(tmp_path))
    (tmp_path / "groundtruth.csv").unlink()
    (tmp_path / "extrinsics.csv").write_text(
        "cam_id,r11,r12,r13,r21,r22,r23,r31,r32,r33,px,py,pz\n"
        "1,1,0,0,0,1,0,0,0,1,0,0,0\n"
        "1,1,0,0,0,1,0,0,0,1,0,0.1,0\n")
    with pytest.raises(ValidationError, match="duplicate cam_id"):
        load_dataset(str(tmp_path))


# ---------------------------------------------------------------------------
# traces


def test_trace_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    recs = [TraceRecord(t=0.05 * k, att_err=rng.uniform(), pos_err=rng.uniform(),
                        vel_err=rng.uniform(), p=rng.normal(size=3),
                        v=rng.normal(size=3), R=exp_so3(rng.normal(size=3)))
            for k in range(3)]
    path = tmp_path / "trace.csv"
    write_trace(str(path), recs)
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines[0].split(",")) == 19
    back = read_trace(str(path))
    assert len(back) == 3
    for a, b in zip(back, recs):
        assert a.t == b.t and a.att_err == b.att_err
        assert a.pos_err == b.pos_err and a.vel_err == b.vel_err
        assert np.array_equal(a.p, b.p) and np.array_equal(a.v, b.v)
        assert np.array_equal(a.R, b.R)


def test_trace_zero_error_record(tmp_path):
    rec = TraceRecord(t=0.0, att_err=0.0, pos_err=0.0, vel_err=0.0,
                      p=np.zeros(3), v=np.zeros(3), R=np.eye(3))
    path = tmp_path / "trace.csv"
    write_trace(str(path), [rec])
    back = read_trace(str(path))
    assert back[0].att_err == 0.0 and np.array_equal(back[0].R, np.eye(3))


def test_writers_print_each_value_to_17_significant_digits(tmp_path):
    # the row format string prints what format(float(v), ".17g") prints
    # per value, on special values and on integer id columns alike
    rng = np.random.default_rng(4)
    scaled = rng.normal(size=13) * 10.0 ** rng.integers(-300, 300, 13)
    vals = np.concatenate([[-0.0, 5e-324, np.inf, -np.inf, np.nan, 1.0 / 3.0],
                           scaled])

    def expect(header, rows):
        return "".join([header + "\n"] + [
            ",".join(format(float(v), ".17g") for v in row) + "\n"
            for row in rows]).encode()

    rec = TraceRecord(t=vals[0], att_err=vals[1], pos_err=vals[2],
                      vel_err=vals[3], p=vals[4:7], v=vals[7:10],
                      R=vals[10:19].reshape(3, 3))
    write_trace(str(tmp_path / "trace.csv"), [rec])
    assert (tmp_path / "trace.csv").read_bytes() == expect(TRACE_HEADER,
                                                           [rec.row()])
    imu = np.stack([vals[:7], vals[7:14], vals[12:]])
    lms = [Landmark(7, vals[:3]), Landmark(12, vals[16:])]
    save_dataset(str(tmp_path / "ds"), Dataset(imu=imu, landmarks=lms))
    assert (tmp_path / "ds" / "imu.csv").read_bytes() == expect(IMU_HEADER,
                                                                imu)
    assert (tmp_path / "ds" / "landmarks.csv").read_bytes() == expect(
        LANDMARKS_HEADER, [[lm.id, *lm.p] for lm in lms])


def test_trace_requires_records(tmp_path):
    with pytest.raises(ValidationError):
        write_trace(str(tmp_path / "trace.csv"), [])


# ---------------------------------------------------------------------------
# run configuration


def test_config_defaults_and_parsing(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# full pipeline configuration\n"
        "\n"
        "mode = monocular   # inline comment\n"
        "estimator = hybrid\n"
        "duration = 12.5\n"
        "seed = 9\n"
        "n_landmarks = 8\n"
        "k_r = 2.0\n"
        "bearing_noise = 0.01\n"
        "gramian_window = 1.5\n")
    cfg = load_config(str(cfg_path))
    assert cfg.mode == "monocular" and cfg.estimator == "hybrid"
    assert cfg.duration == 12.5 and cfg.seed == 9 and cfg.n_landmarks == 8
    assert cfg.k_r == 2.0 and cfg.bearing_noise == 0.01
    assert cfg.gramian_window == 1.5
    # untouched keys keep their defaults
    assert cfg.q == 1e3 and cfg.v == 1e-4 and cfg.imu_rate == 200.0
    assert cfg.rho1 == 0.5 and cfg.rho2 == 0.3 and cfg.rho3 == 0.2


@pytest.mark.parametrize("text,exc,needle", [
    ("mystery = 1\n", ParseError, "unknown key"),
    ("q_reg = 0.002\n", ParseError, "unknown key"),
    ("seed = 1\nseed = 2\n", ParseError, "duplicate key"),
    ("seed = abc\n", ParseError, "bad value"),
    ("just a line\n", ParseError, "key = value"),
    ("mode = sideways\n", ValidationError, "mode"),
    ("estimator = magic\n", ValidationError, "estimator"),
    ("duration = -3\n", ValidationError, "duration"),
])
def test_config_rejects_malformed(tmp_path, text, exc, needle):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    with pytest.raises(exc, match=needle):
        load_config(str(cfg_path))


def test_config_derived_objects():
    cfg = RunConfig(k_r=2.0, rho1=0.6, rho2=0.25, rho3=0.15, q=500.0, v=1e-3)
    gains = cfg.gain_config()
    assert gains.k_r == 2.0 and gains.rho == (0.6, 0.25, 0.15)
    assert gains.q == 500.0 and gains.v == 1e-3
    ncov = cfg.noise_covariances()
    assert ncov.cov_omega == cfg.cov_omega and ncov.reg == cfg.reg
    est = cfg.initial_estimate()
    u = np.ones(3) / math.sqrt(3.0)
    assert np.allclose(est.R, exp_so3(0.5 * math.pi * u))
    assert np.array_equal(est.p, np.zeros(3))
    assert np.array_equal(est.e, E3)
    assert np.array_equal(est.P, np.eye(15))
    assert RunConfig(mode="stereo").required_cameras() == 2
    assert RunConfig(mode="monocular").required_cameras() == 1
    assert RunConfig(mode="position3d").required_cameras() == 0


def test_apply_overrides():
    cfg = RunConfig()
    assert apply_overrides(cfg) is cfg
    out = apply_overrides(cfg, seed=5, mode="monocular", duration=2.0)
    assert (out.seed, out.mode, out.duration) == (5, "monocular", 2.0)
    assert cfg.seed == 0  # original untouched
    with pytest.raises(ValidationError):
        apply_overrides(cfg, mode="sideways")


# ---------------------------------------------------------------------------
# dataset-driven estimator inputs


def test_interpolating_imu_midpoint_and_clamp():
    imu = np.array([[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 9.0],
                    [1.0, 3.0, 0.0, 0.0, 2.0, 0.0, 9.0]])
    fn = interpolating_imu(imu)
    w, a = fn(0.5)
    assert np.allclose(w, [2.0, 0.0, 0.0]) and np.allclose(a, [1.0, 0.0, 9.0])
    w_lo, _ = fn(-1.0)
    w_hi, a_hi = fn(5.0)
    assert np.allclose(w_lo, [1.0, 0.0, 0.0])
    assert np.allclose(w_hi, [3.0, 0.0, 0.0]) and np.allclose(a_hi, [2.0, 0.0, 9.0])


def test_interpolating_imu_matches_np_interp():
    # bit for bit, at nodes, between them and outside the recorded span
    rng = np.random.default_rng(4)
    t = np.cumsum(rng.uniform(0.004, 0.006, 50))
    imu = np.column_stack([t, rng.normal(size=(50, 6))])
    fn = interpolating_imu(imu)
    queries = np.concatenate([t, rng.uniform(t[0] - 0.1, t[-1] + 0.1, 500)])
    for tau in queries:
        w, a = fn(float(tau))
        ref = [np.interp(tau, t, imu[:, k]) for k in range(1, 7)]
        assert np.array_equal(np.concatenate([w, a]), ref)


def _provider_dataset():
    lms = [Landmark(0, np.array([2.0, 0.0, 1.0])),
           Landmark(1, np.array([-1.0, 2.0, 0.5]))]
    cams = [CameraExtrinsics(1, np.eye(3), np.array([0.0, 0.1, 0.0])),
            CameraExtrinsics(2, np.eye(3), np.array([0.0, -0.1, 0.0]))]
    rng = np.random.default_rng(2)
    frames = []
    for t in (0.1, 0.3):
        obs = {(c.cam_id, lm.id): _unit(rng.normal(size=3))
               for c in cams for lm in lms}
        frames.append(BearingFrame(t=t, obs=obs))
    imu = np.array([[0.0, 0, 0, 0, 0, 0, 9.81], [1.0, 0, 0, 0, 0, 0, 9.81]])
    return Dataset(imu=imu, landmarks=lms, bearings=frames, extrinsics=cams), \
        frames, cams, lms


def test_bearing_provider_matches_frames_and_interpolates():
    ds, frames, cams, lms = _provider_dataset()
    prov = DatasetProvider(ds, "stereo")

    # at a frame time the provider reproduces the frame's linear output
    y, C = prov(0.1)
    y_ref, C_ref = linear_output(landmark_blocks(frames[0], cams, lms))
    assert np.allclose(y, y_ref, atol=1e-12)
    assert np.allclose(C, C_ref, atol=1e-12)

    # between frames the bearings blend linearly and are renormalized
    y_mid, C_mid = prov(0.2)
    obs = {key: _unit(0.5 * frames[0].obs[key] + 0.5 * frames[1].obs[key])
           for key in frames[0].obs}
    ref = linear_output(landmark_blocks(BearingFrame(t=0.2, obs=obs), cams,
                                        lms))
    assert np.allclose(y_mid, ref[0], atol=1e-12)
    assert np.allclose(C_mid, ref[1], atol=1e-12)

    # outside the recorded stream there is no measurement
    assert prov(0.05) is None
    assert prov(0.35) is None
    # at the final frame time the last frame is used as-is
    assert prov(0.3) is not None


def test_bearing_provider_key_intersection():
    ds, frames, cams, lms = _provider_dataset()
    # landmark 1 disappears from the second frame: interpolation only keeps
    # keys present in both brackets
    for cam_id in (1, 2):
        del frames[1].obs[(cam_id, 1)]
    prov = DatasetProvider(ds, "stereo")
    _, C = prov(0.2)
    assert C.shape == (3, 15)


def test_bearing_provider_mono_mode():
    ds, frames, cams, lms = _provider_dataset()
    prov = DatasetProvider(ds, "monocular")
    _, C = prov(0.1)
    # one 3-row block per landmark from the first camera only
    assert C.shape == (6, 15)


def _edge_dataset():
    """Three landmarks seen by a rig whose cameras are both rotated, in
    two frames at t = 0.1 and 0.3."""
    lms = [Landmark(i, p) for i, p in enumerate(
        np.array([[2.0, 0.0, 1.0], [-1.0, 2.0, 0.5], [0.5, -3.0, 2.0]]))]
    cams = [CameraExtrinsics(1, exp_so3(np.array([0.2, 0.1, -0.3])),
                             np.array([0.0, 0.1, 0.0])),
            CameraExtrinsics(2, exp_so3(np.array([-0.1, 0.4, 0.2])),
                             np.array([0.0, -0.1, 0.0]))]
    rng = np.random.default_rng(11)
    frames = [BearingFrame(t=t, obs={(c.cam_id, lm.id):
                                     _unit(rng.normal(size=3))
                                     for c in cams for lm in lms})
              for t in (0.1, 0.3)]
    imu = np.array([[0.0, 0, 0, 0, 0, 0, 9.81], [1.0, 0, 0, 0, 0, 0, 9.81]])
    return Dataset(imu=imu, landmarks=lms, bearings=frames, extrinsics=cams)


def _dict_blend(frames, t):
    """The bracket blend key by key: the keys both frames hold, blended
    linearly, renormalized, and dropped at norm <= 1e-9; the last frame
    alone at its own time."""
    lo, hi = frames
    if t >= hi.t:
        lo = hi
    w = 0.0 if lo is hi else (t - lo.t) / (hi.t - lo.t)
    obs = {}
    for key in lo.obs.keys() & hi.obs.keys():
        y = (1.0 - w) * lo.obs[key] + w * hi.obs[key]
        if np.linalg.norm(y) > 1e-9:
            obs[key] = y / np.linalg.norm(y)
    return obs


def _check_provider(prov, ds, t, cams):
    """prov(t) is the linear output of prov.frame_at(t), bit for bit, and
    frame_at(t) the key-by-key blend of the mode's cameras."""
    frame = prov.frame_at(t)
    ref = {key: y for key, y in _dict_blend(ds.bearings, t).items()
           if key[0] in {c.cam_id for c in cams}}
    assert set(frame.obs) == set(ref)
    for key, y in ref.items():
        assert np.max(np.abs(frame.obs[key] - y)) <= 1e-15
    y, C = prov(t)
    y_ref, C_ref = linear_output(landmark_blocks(frame, cams, ds.landmarks))
    assert np.array_equal(y, y_ref) and np.array_equal(C, C_ref)
    return frame, C


def test_bearing_provider_drops_a_key_that_blends_to_zero():
    ds = _edge_dataset()
    lo, hi = ds.bearings
    hi.obs[(1, 0)] = -lo.obs[(1, 0)]
    frame, C = _check_provider(DatasetProvider(ds, "stereo"), ds, 0.2,
                               ds.extrinsics)
    assert set(lo.obs) - set(frame.obs) == {(1, 0)}
    assert C.shape == (9, 15)
    # landmark 0 keeps camera 2's projector alone: trace 2, not 4
    assert np.trace(C[0:3, 0:3]) == pytest.approx(2.0, abs=1e-12)


def test_bearing_provider_without_a_shared_key_reports_nothing():
    ds = _edge_dataset()
    lo, hi = ds.bearings
    for key in list(lo.obs):
        del (lo if key[1] == 0 else hi).obs[key]
    for mode in ("stereo", "monocular"):
        prov = DatasetProvider(ds, mode)
        for t in (0.1, 0.2, 0.29):
            assert prov(t) is None and prov.frame_at(t) is None
        assert prov(0.3) is not None        # the last frame on its own


def test_bearing_provider_keeps_one_projector_of_a_single_camera():
    ds = _edge_dataset()
    for fr in ds.bearings:
        del fr.obs[(2, 1)]
    for t in (0.1, 0.17, 0.3):
        frame, C = _check_provider(DatasetProvider(ds, "stereo"), ds, t,
                                   ds.extrinsics)
        assert C.shape == (9, 15)
        traces = [np.trace(C[3 * i:3 * i + 3, 0:3]) for i in range(3)]
        assert traces == pytest.approx([4.0, 2.0, 4.0], abs=1e-12)


def test_monocular_provider_ignores_the_second_camera():
    ds = _edge_dataset()
    lo, hi = ds.bearings
    del lo.obs[(1, 2)]
    cam1 = ds.extrinsics[:1]
    prov = DatasetProvider(ds, "monocular")
    for t in (0.1, 0.25, 0.3):
        frame, C = _check_provider(prov, ds, t, cam1)
        assert {cam_id for cam_id, _ in frame.obs} == {1}
        assert C.shape == (3 * len(frame.obs), 15) and len(frame.obs) >= 2
    # camera 1 sees nothing shared while camera 2 still does
    for lm_id in (0, 1):
        del hi.obs[(1, lm_id)]
    assert DatasetProvider(ds, "monocular")(0.2) is None
    assert DatasetProvider(ds, "stereo")(0.2)[1].shape == (9, 15)


def test_position_provider_interpolates():
    lms = [Landmark(0, np.array([2.0, 0.0, 1.0]))]
    frames = [PositionFrame(t=0.0, obs={0: np.array([1.0, 0.0, 0.0])}),
              PositionFrame(t=1.0, obs={0: np.array([3.0, 2.0, 0.0])})]
    imu = np.array([[0.0, 0, 0, 0, 0, 0, 9.81], [1.0, 0, 0, 0, 0, 0, 9.81]])
    ds = Dataset(imu=imu, landmarks=lms, positions=frames)
    prov = DatasetProvider(ds, "position3d")
    y, C = prov(0.25)
    ref = linear_output(landmark_blocks(
        PositionFrame(t=0.25, obs={0: np.array([1.5, 0.5, 0.0])}), [], lms))
    assert np.allclose(y, ref[0], atol=1e-12)
    assert np.allclose(C, ref[1], atol=1e-12)
    assert prov(1.5) is None
