"""Unit tests for dataset files, run configuration, and trace emission."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from visnav import dataio
from visnav.dataio import (IMU_HEADER, LANDMARKS_HEADER, TRACE_HEADER,
                           Dataset, DatasetProvider, RunConfig,
                           apply_overrides, interpolating_imu,
                           load_config, load_dataset, read_trace,
                           save_dataset, write_trace)
from visnav.errors import IoError, ParseError, ValidationError
from visnav.geom import E3, exp_so3
from visnav.measurement import (frame_arrays, landmark_blocks, linear_output,
                                output_gains)
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
    return _stacked(Dataset(imu=imu, landmarks=lms, bearings=frames,
                            positions=pos, groundtruth=np.array(gts),
                            extrinsics=cams))


def _stacked(ds):
    """ds with its lists of hand-built frames stacked into records
    (frame_arrays)."""
    records = {}
    if ds.bearings:
        records["bearings"] = frame_arrays(ds.bearings, ds.extrinsics,
                                           ds.landmarks)[1]
    if ds.positions:
        records["positions"] = frame_arrays(ds.positions, [],
                                            ds.landmarks)[1]
    return replace(ds, **records)


def _same_record(a, b):
    return (np.array_equal(a.t, b.t) and np.array_equal(a.Y, b.Y)
            and np.array_equal(a.seen, b.seen))


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
    assert len(back.bearings) == len(ds.bearings) == 2
    assert _same_record(back.bearings, ds.bearings)
    assert _same_record(back.positions, ds.positions)
    assert [c.cam_id for c in back.extrinsics] == [1, 2]
    for ca, cb in zip(back.extrinsics, ds.extrinsics):
        assert np.array_equal(ca.R, cb.R) and np.array_equal(ca.p, cb.p)
    assert {lm.id for lm in back.landmarks} == {1, 3, 7}
    assert {c.cam_id for c in back.extrinsics} == {1, 2}


def _hand_streams():
    """Bearing frames of a two-camera rig and position frames over four
    landmarks with ids out of order, built by hand: camera 2 misses
    landmark 9 in every third bearing frame, and landmark 2 is missing
    from every other position frame."""
    rng = np.random.default_rng(8)
    lms = [Landmark(i, rng.normal(size=3)) for i in (5, 2, 9, 7)]
    cams = [CameraExtrinsics(c, exp_so3(rng.normal(size=3)),
                             rng.normal(size=3)) for c in (2, 1)]
    ts = np.cumsum(rng.uniform(0.01, 0.1, 7)).tolist()
    bearings = [BearingFrame(t=t, obs={
        (c.cam_id, lm.id): _unit(rng.normal(size=3))
        for c in cams for lm in lms
        if not (k % 3 == 0 and (c.cam_id, lm.id) == (2, 9))})
        for k, t in enumerate(ts)]
    positions = [PositionFrame(t=t, obs={
        lm.id: rng.normal(size=3) for lm in lms
        if not (k % 2 == 1 and lm.id == 2)}) for k, t in enumerate(ts[:5])]
    return lms, cams, bearings, positions


def _write_hand_streams(path, lms, cams, bearings, positions, rng):
    """The CSV files of _hand_streams, rows written by hand with repr
    floats, shuffled within each frame."""
    def table(name, header, rows):
        (path / name).write_text("\n".join(
            [header, *(",".join(map(repr, row)) for row in rows)]) + "\n")

    table("imu.csv", IMU_HEADER, [[0.0, 0.1, 0.0, 0.0, 0.0, 0.0, 9.81]])
    table("landmarks.csv", LANDMARKS_HEADER,
          [[lm.id, *lm.p.tolist()] for lm in lms])
    table("extrinsics.csv", dataio.EXTRINSICS_HEADER,
          [[c.cam_id, *c.R.ravel().tolist(), *c.p.tolist()] for c in cams])
    rows = []
    for fr in bearings:
        keys = list(fr.obs)
        rows += [[fr.t, *keys[j], *fr.obs[keys[j]].tolist()]
                 for j in rng.permutation(len(keys))]
    table("bearings.csv", dataio.BEARINGS_HEADER, rows)
    rows = []
    for fr in positions:
        keys = list(fr.obs)
        rows += [[fr.t, keys[j], *fr.obs[keys[j]].tolist()]
                 for j in rng.permutation(len(keys))]
    table("positions.csv", dataio.POSITIONS_HEADER, rows)


def test_loaded_records_match_frame_arrays_of_the_rows(tmp_path):
    # the loader's records are frame_arrays' of the same rows built by
    # hand: every bearing column, the monocular column, the positions, and
    # the empty records of header-only tables
    lms, cams, bearings, positions = _hand_streams()
    _write_hand_streams(tmp_path, lms, cams, bearings, positions,
                        np.random.default_rng(3))
    ds = load_dataset(str(tmp_path))
    assert ds.bearings.seen.sum() == 7 * 8 - 3
    assert ds.positions.seen.sum() == 5 * 4 - 2
    for got, frames, mode_cams in (
            (ds.bearings, bearings, cams),
            (ds.frames("stereo"), bearings, cams),
            (ds.frames("monocular"), bearings, cams[1:]),
            (ds.positions, positions, []),
            (ds.frames("position3d"), positions, [])):
        assert _same_record(got, frame_arrays(frames, mode_cams, lms)[1])
    for name in ("bearings.csv", "positions.csv"):
        header = (tmp_path / name).read_text().splitlines()[0]
        (tmp_path / name).write_text(header + "\n")
    ds = load_dataset(str(tmp_path))
    for got, mode_cams in ((ds.bearings, cams), (ds.frames("monocular"),
                                                 cams[1:]),
                           (ds.positions, [])):
        want = frame_arrays([], mode_cams, lms)[1]
        assert _same_record(got, want) and got.Y.shape == want.Y.shape


def test_record_round_trip_writes_identical_csvs(tmp_path):
    # save_dataset writes a record's observations from its mask in
    # (t, cam_id, landmark_id) order; loading and saving again gives the
    # same bytes
    lms, cams, bearings, positions = _hand_streams()
    ds = _stacked(Dataset(imu=np.array([[0.0, 0.1, 0, 0, 0, 0, 9.81]]),
                          landmarks=lms, bearings=bearings,
                          positions=positions, extrinsics=cams))
    save_dataset(str(tmp_path / "a"), ds)
    back = load_dataset(str(tmp_path / "a"))
    assert _same_record(back.bearings, ds.bearings)
    assert _same_record(back.positions, ds.positions)
    save_dataset(str(tmp_path / "b"), back)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert len(names) == 5
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    rows = np.loadtxt(tmp_path / "a" / "bearings.csv", delimiter=",",
                      skiprows=1)
    keys = [tuple(r) for r in rows[:, :3].tolist()]
    assert keys == sorted(keys) and len(keys) == 7 * 8 - 3


def test_minimal_dataset_and_missing_required(tmp_path):
    (tmp_path / "imu.csv").write_text(MINIMAL_IMU)
    (tmp_path / "landmarks.csv").write_text(MINIMAL_LMS)
    ds = load_dataset(str(tmp_path))
    assert ds.imu.shape == (1, 7)
    assert ds.bearings is None and ds.positions is None
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


@pytest.mark.parametrize("t", ["inf", "-inf", "nan"])
def test_imu_rejects_non_finite_timestamps(tmp_path, t):
    # an inf last timestamp passed the increasing check, and estimate then
    # died with a traceback
    (tmp_path / "imu.csv").write_text(
        f"t,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0,0\n0.1,0,0,0,0,0,0\n"
        f"{t},0,0,0,0,0,0\n")
    (tmp_path / "landmarks.csv").write_text(MINIMAL_LMS)
    with pytest.raises(ValidationError) as info:
        load_dataset(str(tmp_path))
    assert str(info.value) == f"imu.csv:4: timestamp must be finite, got {t}"


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

    for t in ("nan", "inf"):
        br.write_text(head + f"0.1,1,1,0,0,1\n{t},1,2,0,0,1\n")
        with pytest.raises(ValidationError) as info:
            load_dataset(str(tmp_path))
        assert str(info.value) == (
            f"bearings.csv:3: frame time must be finite, got {t}")

    br.write_text(head + "0.1,1,1,0,0,1\n0.2,1,2,1,0,0\n")
    ds = load_dataset(str(tmp_path))
    assert ds.bearings.t.tolist() == [0.1, 0.2]


def test_position_stream_validation(tmp_path):
    _write_core(tmp_path, extrinsics=False)
    po = tmp_path / "positions.csv"
    po.write_text("t,landmark_id,x,y,z\n0.1,9,0,0,1\n")
    with pytest.raises(ValidationError, match="unknown landmark_id"):
        load_dataset(str(tmp_path))
    po.write_text("t,landmark_id,x,y,z\nnan,1,0,0,1\n0.1,2,1,0,0\n")
    with pytest.raises(ValidationError) as info:
        load_dataset(str(tmp_path))
    assert str(info.value) == (
        "positions.csv:2: frame time must be finite, got nan")
    po.write_text("t,landmark_id,x,y,z\n0.1,1,0,0,1\n0.1,2,1,-inf,0\n")
    with pytest.raises(ValidationError) as info:
        load_dataset(str(tmp_path))
    assert str(info.value) == "positions.csv:3: y must be finite, got -inf"
    po.write_text("t,landmark_id,x,y,z\n0.1,1,0,0,1\n0.1,2,1,0,0\n")
    ds = load_dataset(str(tmp_path))
    assert len(ds.positions) == 1 and ds.positions.seen.all()


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


GT_HEAD = "t,r11,r12,r13,r21,r22,r23,r31,r32,r33,px,py,pz,vx,vy,vz\n"
GT_ROW = "{t},{r11},0,0,0,1,0,0,0,1,0,0,0,0,0,0\n"


def _groundtruth(*rows):
    return GT_HEAD + "".join(GT_ROW.format(t=t, r11=r11) for t, r11 in rows)


@pytest.mark.parametrize("rows, message", [
    # a non-rotation on a row that is neither the first nor the last
    (((0, 1), (0.1, 2), (0.2, 1)),
     "groundtruth.csv:3: stored matrix is not a rotation"),
    (((0, 1), (0.1, 1), (0.1, 1)),
     "groundtruth.csv:4: timestamps must be strictly increasing"),
    (((0, 1), (0.1, 1), ("inf", 1)),
     "groundtruth.csv:4: timestamp must be finite, got inf"),
    ((("-inf", 1), (0.1, 1), (0.2, 1)),
     "groundtruth.csv:2: timestamp must be finite, got -inf"),
])
def test_groundtruth_errors_name_the_line(tmp_path, rows, message):
    _write_core(tmp_path, extrinsics=False)
    (tmp_path / "groundtruth.csv").write_text(_groundtruth(*rows))
    with pytest.raises(ValidationError) as info:
        load_dataset(str(tmp_path))
    assert str(info.value) == message


def test_stacked_rotation_check_matches_is_rotation():
    # the stacked check names the first row is_rotation(R, 1e-6) rejects,
    # on rotations moved by amounts on both sides of the tolerance
    from visnav.dataio import _check_rotations
    from visnav.geom import is_rotation
    rng = np.random.default_rng(3)
    for _ in range(200):
        Rs = exp_so3(rng.normal(size=(6, 3)))
        Rs += rng.choice([0.0, 1e-8, 1e-7, 3e-7, 1e-6, 1e-5], size=(6, 1, 1)) \
            * rng.normal(size=(6, 3, 3))
        lines = list(range(2, 8))
        bad = [ln for ln, R in zip(lines, Rs) if not is_rotation(R, tol=1e-6)]
        if not bad:
            _check_rotations("gt.csv", lines.__getitem__, Rs)
            continue
        with pytest.raises(ValidationError) as info:
            _check_rotations("gt.csv", lines.__getitem__, Rs)
        assert str(info.value) == (f"gt.csv:{bad[0]}: stored matrix is not "
                                   f"a rotation")


@pytest.mark.parametrize("bz", ["2", "nan"])
def test_bearing_unit_length_error_names_the_line(tmp_path, bz):
    _write_core(tmp_path)
    (tmp_path / "bearings.csv").write_text(
        "t,cam_id,landmark_id,bx,by,bz\n0.05,1,1,0,0,1\n"
        f"0.05,1,2,0,0,{bz}\n")
    with pytest.raises(ValidationError) as info:
        load_dataset(str(tmp_path))
    assert str(info.value) == ("bearings.csv:3: bearing (1, 2) at t=0.05 is "
                               "not unit length")


# ---------------------------------------------------------------------------
# the one parse per table, and its row-loop error path


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_numpy_and_the_row_loop_parse_bit_for_bit(tmp_path, monkeypatch):
    # random doubles of every scale written with %.17g, with subnormals,
    # signed zeros and +-1e308, and the hand-written forms of a number:
    # numpy's parser and float() give the same bits, and the bits written
    rng = np.random.default_rng(25)
    vals = rng.normal(size=(300, 7)) * 10.0 ** rng.integers(-320, 308,
                                                            (300, 7))
    vals[0] = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2e-308]
    forms = ["1e5", " 2 ", "+3", ".5", "5.", "-0", "1E-320", "nan", "inf",
             "-inf", "1e5", "-0"]
    text = "".join([IMU_HEADER + "\n"]
                   + [",".join("%.17g" % v for v in row) + "\n"
                      for row in vals]
                   + [",".join(forms[:7]) + "\n", "\n",
                      ",".join(forms[5:]) + "\n"])
    (tmp_path / "imu.csv").write_text(text)
    path = str(tmp_path / "imu.csv")
    want = np.vstack([vals, [[float(f) for f in forms[:7]],
                             [float(f) for f in forms[5:]]]])
    loop, loop_line = dataio._parse_rows(path, IMU_HEADER, 7)

    def no_row_loop(*args):
        raise AssertionError("the row loop ran on text numpy reads")

    monkeypatch.setattr(dataio, "_parse_rows", no_row_loop)
    fast, fast_line = dataio._read_rows(path, IMU_HEADER, 7)
    assert np.array_equal(_bits(fast), _bits(want))
    assert np.array_equal(_bits(loop), _bits(want))
    assert np.signbit(fast[0, 1]) and not np.signbit(fast[0, 0])
    assert fast[300, 6] == 1e-320 and np.signbit(fast[300, 5])
    assert [fast_line(i) for i in (0, 299, 300, 301)] == [
        loop_line(i) for i in (0, 299, 300, 301)] == [2, 301, 302, 304]


def test_row_loop_still_loads_whitespace_lines_and_underscores(tmp_path):
    (tmp_path / "imu.csv").write_text(
        IMU_HEADER + "\n0,0,0,0,0,0,1_0\n  \t \n\n0.1,1_000.5,0,0,0,0,0\n")
    (tmp_path / "landmarks.csv").write_text(MINIMAL_LMS)
    ds = load_dataset(str(tmp_path))
    assert ds.imu.tolist() == [[0, 0, 0, 0, 0, 0, 10.0],
                               [0.1, 1000.5, 0, 0, 0, 0, 0]]


EXT_ROW = "1,1,0,0,0,1,0,0,0,1,0,0.1,0"


@pytest.mark.parametrize("name, good, bad, message", [
    ("imu.csv", "0,0,0,0,0,0,0", "0.1,nan,0,0,0,0,0",
     "wx must be finite, got nan"),
    ("groundtruth.csv", GT_ROW.format(t=0, r11=1).strip(),
     GT_ROW.format(t=0.1, r11=2).strip(), "stored matrix is not a rotation"),
    ("landmarks.csv", "1,0,0,2", "2.5,1,0,2",
     "id must be an integer, got 2.5"),
    ("landmarks.csv", "1,0,0,2", "1,1,0,2", "duplicate landmark id 1"),
    ("extrinsics.csv", EXT_ROW, "1.5" + EXT_ROW[1:],
     "cam_id must be an integer, got 1.5"),
    ("extrinsics.csv", EXT_ROW, EXT_ROW, "duplicate cam_id 1"),
    ("bearings.csv", "0.1,1,1,0,0,1", "0.1,1,1.5,0,0,1",
     "landmark_id must be an integer, got 1.5"),
    ("bearings.csv", "0.1,1,1,0,0,1", "0.1,1,1,0,1,0",
     "duplicate observation (1, 1) at t=0.1"),
    ("bearings.csv", "0.1,1,1,0,0,1", "0.1,1,2,0,0,2",
     "bearing (1, 2) at t=0.1 is not unit length"),
    ("positions.csv", "0.1,1,0,0,1", "0.1,1,1,0,1",
     "duplicate observation 1 at t=0.1"),
    ("positions.csv", "0.1,1,0,0,1", "0.1,2,0,inf,1",
     "y must be finite, got inf"),
])
@pytest.mark.parametrize("blanks", ["\n", "\n \t \n"])
def test_errors_name_the_line_past_blank_lines(tmp_path, name, good, bad,
                                               message, blanks):
    # an empty line keeps numpy's parse (the line is found after the
    # error); a whitespace-only line sends the table through the row loop
    _write_core(tmp_path)
    header = {"imu.csv": IMU_HEADER, "landmarks.csv": LANDMARKS_HEADER,
              "groundtruth.csv": GT_HEAD.strip(),
              "extrinsics.csv": dataio.EXTRINSICS_HEADER,
              "bearings.csv": dataio.BEARINGS_HEADER,
              "positions.csv": dataio.POSITIONS_HEADER}[name]
    (tmp_path / name).write_text(f"{header}\n{good}\n{blanks}{bad}\n")
    with pytest.raises((ParseError, ValidationError)) as info:
        load_dataset(str(tmp_path))
    assert str(info.value) == f"{name}:{3 + blanks.count(chr(10))}: {message}"


@pytest.mark.parametrize("name, rows, message", [
    # the earlier row fails a check that comes later in a row's order
    ("bearings.csv", ["0.1,1,1,0,0,1", "0.1,1,1,0,1,0", "0.2,1.5,1,0,0,1"],
     "3: duplicate observation (1, 1) at t=0.1"),
    ("bearings.csv", ["0.2,1,1,0,0,1", "0.1,1,2,0,0,1", "0.3,9,1,0,0,1"],
     "3: frame timestamps must be strictly increasing and rows grouped "
     "by t"),
    ("bearings.csv", ["0.1,1,9,0,0,1", "nan,1.5,1,0,0,1"],
     "2: unknown landmark_id 9"),
    ("bearings.csv", ["0.1,1,1,0,0,1", "inf,1,9,0,0,1", "0.3,1,2.5,0,0,1"],
     "3: unknown landmark_id 9"),
    # within one row: cam_id, landmark_id, unknown cam, unknown landmark
    ("bearings.csv", ["nan,9.5,7.5,0,0,1"], "2: cam_id must be an "
     "integer, got 9.5"),
    ("bearings.csv", ["nan,9,7.5,0,0,1"], "2: landmark_id must be an "
     "integer, got 7.5"),
    ("bearings.csv", ["nan,9,7,0,0,1"], "2: unknown cam_id 9"),
    ("bearings.csv", ["nan,1,7,0,0,1"], "2: unknown landmark_id 7"),
    # grouping errors come before the unit length of any row
    ("bearings.csv", ["0.1,1,1,0,0,2", "0.1,1,9,0,0,1"],
     "3: unknown landmark_id 9"),
    ("positions.csv", ["0.1,1,0,0,1", "0.1,1,1,1,1", "0.2,2.5,0,0,0"],
     "3: duplicate observation 1 at t=0.1"),
    ("positions.csv", ["0.1,9,0,0,1", "nan,1.5,0,0,1"],
     "2: unknown landmark_id 9"),
    ("positions.csv", ["0.1,1,0,nan,1", "0.1,9,0,0,1"],
     "3: unknown landmark_id 9"),
])
def test_frame_errors_name_the_earlier_row(tmp_path, name, rows, message):
    _write_core(tmp_path)
    header = (dataio.BEARINGS_HEADER if name == "bearings.csv"
              else dataio.POSITIONS_HEADER)
    (tmp_path / name).write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises((ParseError, ValidationError)) as info:
        load_dataset(str(tmp_path))
    assert str(info.value) == f"{name}:{message}"


def test_header_only_tables_raise_no_warning(tmp_path):
    # numpy warns on a table without rows; the loaders stay silent
    _write_core(tmp_path)
    for name, header in (("bearings.csv", dataio.BEARINGS_HEADER),
                         ("positions.csv", dataio.POSITIONS_HEADER),
                         ("extrinsics.csv", dataio.EXTRINSICS_HEADER)):
        (tmp_path / name).write_text(header + "\n\n")
    (tmp_path / "trace.csv").write_text(TRACE_HEADER + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_dataset(str(tmp_path))
        assert len(ds.bearings) == 0 and len(ds.positions) == 0
        assert ds.extrinsics == []
        assert read_trace(str(tmp_path / "trace.csv")).shape == (0, 19)
        for name, header, message in (
                ("groundtruth.csv", GT_HEAD, "groundtruth.csv: no "
                 "groundtruth rows"),
                ("landmarks.csv", LANDMARKS_HEADER + "\n",
                 "landmarks.csv: no landmarks"),
                ("imu.csv", IMU_HEADER, "imu.csv: no IMU rows")):
            (tmp_path / name).write_text(header)
            with pytest.raises(ValidationError) as info:
                load_dataset(str(tmp_path))
            assert str(info.value) == message


@pytest.mark.parametrize("name", ["imu.csv", "landmarks.csv",
                                  "bearings.csv", "positions.csv",
                                  "groundtruth.csv", "extrinsics.csv"])
@pytest.mark.parametrize("line", [1, 3])
def test_byte_not_utf8_names_its_line(tmp_path, name, line):
    # a byte that is not UTF-8 used to escape as a UnicodeDecodeError
    save_dataset(str(tmp_path), _full_dataset())
    path = tmp_path / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1][:3] + b"\xff" + lines[line - 1][3:]
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError) as info:
        load_dataset(str(tmp_path))
    assert str(info.value) == f"{name}:{line}: byte 0xff is not valid UTF-8"


def test_byte_not_utf8_in_trace_and_config(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(TRACE_HEADER.encode() + b"\n" + b"0," * 18
                      + b"0\n\n0," + b"\xc3(" + b",0" * 17 + b"\n")
    with pytest.raises(ParseError) as info:
        read_trace(str(trace))
    assert str(info.value) == "trace.csv:4: byte 0xc3 is not valid UTF-8"
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed = 3\n# caf\xe9\nmode = stereo\n")
    with pytest.raises(ParseError) as info:
        load_config(str(cfg))
    assert str(info.value) == "run.cfg:2: byte 0xe9 is not valid UTF-8"
    cfg.write_bytes("seed = 3\n# café\n".encode())
    assert load_config(str(cfg)).seed == 3


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1e", "\x85",
                                 "\u2028", "\u2029"])
def test_config_lines_end_only_at_line_breaks(tmp_path, sep):
    # file:line counts the lines an editor shows: a line ends at \n, \r\n
    # or \r, as in the CSV readers, not at the other breaks of
    # str.splitlines
    cfg = tmp_path / "c.cfg"
    for text, message in (
            (f"seed = 3  # a{sep}b\nduration = x\n",
             "c.cfg:2: bad value for 'duration'"),
            (f"seed = 3{sep}mode = monocular\nduration = x\n",
             "c.cfg:1: bad value for 'seed'"),
            (f"seed = 3\r\n# a{sep}b\rmode = stereo\rduration = x\r\n",
             "c.cfg:4: bad value for 'duration'")):
        cfg.write_bytes(text.encode())
        with pytest.raises(ParseError) as info:
            load_config(str(cfg))
        assert str(info.value).startswith(message + ":")


# ---------------------------------------------------------------------------
# traces


def test_trace_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    rows = np.column_stack([0.05 * np.arange(3), rng.uniform(size=(3, 3)),
                            rng.normal(size=(3, 6)),
                            [exp_so3(rng.normal(size=3)).ravel()
                             for _ in range(3)]])
    path = tmp_path / "trace.csv"
    write_trace(str(path), rows)
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines[0].split(",")) == 19
    assert np.array_equal(read_trace(str(path)), rows)


def test_trace_zero_error_record(tmp_path):
    row = np.concatenate([np.zeros(10), np.eye(3).ravel()])
    path = tmp_path / "trace.csv"
    write_trace(str(path), row[None])
    back = read_trace(str(path))
    assert back.shape == (1, 19) and back[0, 1] == 0.0
    assert np.array_equal(back[0, 10:].reshape(3, 3), np.eye(3))


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

    write_trace(str(tmp_path / "trace.csv"), vals[None, :19])
    assert (tmp_path / "trace.csv").read_bytes() == expect(TRACE_HEADER,
                                                           [vals[:19]])
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


def _provider(ds, mode):
    """The DatasetProvider of a mode on ds with its frame lists stacked."""
    return DatasetProvider(_stacked(ds), mode)


def _has(prov, t):
    """Whether the provider has a measurement at t."""
    return bool(prov(np.array([t]), 1.0)[2][0])


def test_bearing_provider_matches_frames_and_interpolates():
    ds, frames, cams, lms = _provider_dataset()
    prov = _provider(ds, "stereo")

    # at a frame time the provider reproduces the frame's linear output
    y, C = linear_output(landmark_blocks(
        _check_provider(prov, ds, 0.1, cams)[0], cams, lms))
    y_ref, C_ref = linear_output(landmark_blocks(frames[0], cams, lms))
    assert np.allclose(y, y_ref, atol=1e-12)
    assert np.allclose(C, C_ref, atol=1e-12)

    # between frames the bearings blend linearly and are renormalized
    y_mid, C_mid = linear_output(landmark_blocks(
        _check_provider(prov, ds, 0.2, cams)[0], cams, lms))
    obs = {key: _unit(0.5 * frames[0].obs[key] + 0.5 * frames[1].obs[key])
           for key in frames[0].obs}
    ref = linear_output(landmark_blocks(BearingFrame(t=0.2, obs=obs), cams,
                                        lms))
    assert np.allclose(y_mid, ref[0], atol=1e-12)
    assert np.allclose(C_mid, ref[1], atol=1e-12)

    # outside the recorded stream there is no measurement
    assert not _has(prov, 0.05)
    assert not _has(prov, 0.35)
    # at the final frame time the last frame is used as-is
    assert _has(prov, 0.3)


def test_bearing_provider_key_intersection():
    ds, frames, cams, lms = _provider_dataset()
    # landmark 1 disappears from the second frame: interpolation only keeps
    # keys present in both brackets
    for cam_id in (1, 2):
        del frames[1].obs[(cam_id, 1)]
    _, C = _check_provider(_provider(ds, "stereo"), ds, 0.2, cams)
    assert C.shape == (3, 15)


def test_bearing_provider_mono_mode():
    ds, frames, cams, lms = _provider_dataset()
    _, C = _check_provider(_provider(ds, "monocular"), ds, 0.1,
                           cams[:1])
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
    """The provider's blend at t as a frame of the keys it sees, checked
    against the key-by-key blend of the mode's cameras (_dict_blend), and
    its linear output C; the provider's gains at t are output_gains of that
    frame's linear output, bit for bit."""
    Y, seen = prov._blend([t])
    ids = sorted(lm.id for lm in ds.landmarks)
    cam_ids = sorted(c.cam_id for c in cams)
    frame = BearingFrame(t=t, obs={(cam_ids[k], ids[i]): Y[0, i, k]
                                   for i, k in zip(*np.nonzero(seen[0]))})
    ref = {key: y for key, y in _dict_blend(ds.bearings, t).items()
           if key[0] in cam_ids}
    assert set(frame.obs) == set(ref)
    for key, y in ref.items():
        assert np.max(np.abs(frame.obs[key] - y)) <= 1e-15
    y, C = linear_output(landmark_blocks(frame, cams, ds.landmarks))
    S, g, has = prov(np.array([t]), 1e3)
    S_ref, g_ref = output_gains(y, C, 1e3)
    assert has[0] and np.array_equal(S[0], S_ref)
    assert np.array_equal(g[0], g_ref)
    return frame, C


def test_bearing_provider_drops_a_key_that_blends_to_zero():
    ds = _edge_dataset()
    lo, hi = ds.bearings
    hi.obs[(1, 0)] = -lo.obs[(1, 0)]
    frame, C = _check_provider(_provider(ds, "stereo"), ds, 0.2,
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
        prov = _provider(ds, mode)
        for t in (0.1, 0.2, 0.29):
            assert not _has(prov, t) and not prov._blend([t])[1].any()
        assert _has(prov, 0.3)              # the last frame on its own


def test_bearing_provider_keeps_one_projector_of_a_single_camera():
    ds = _edge_dataset()
    for fr in ds.bearings:
        del fr.obs[(2, 1)]
    for t in (0.1, 0.17, 0.3):
        frame, C = _check_provider(_provider(ds, "stereo"), ds, t,
                                   ds.extrinsics)
        assert C.shape == (9, 15)
        traces = [np.trace(C[3 * i:3 * i + 3, 0:3]) for i in range(3)]
        assert traces == pytest.approx([4.0, 2.0, 4.0], abs=1e-12)


def test_monocular_provider_ignores_the_second_camera():
    ds = _edge_dataset()
    lo, hi = ds.bearings
    del lo.obs[(1, 2)]
    cam1 = ds.extrinsics[:1]
    prov = _provider(ds, "monocular")
    for t in (0.1, 0.25, 0.3):
        frame, C = _check_provider(prov, ds, t, cam1)
        assert {cam_id for cam_id, _ in frame.obs} == {1}
        assert C.shape == (3 * len(frame.obs), 15) and len(frame.obs) >= 2
    # camera 1 sees nothing shared while camera 2 still does
    for lm_id in (0, 1):
        del hi.obs[(1, lm_id)]
    assert not _has(_provider(ds, "monocular"), 0.2)
    assert _check_provider(_provider(ds, "stereo"), ds, 0.2,
                           ds.extrinsics)[1].shape == (9, 15)


def test_position_provider_interpolates():
    lms = [Landmark(0, np.array([2.0, 0.0, 1.0]))]
    frames = [PositionFrame(t=0.0, obs={0: np.array([1.0, 0.0, 0.0])}),
              PositionFrame(t=1.0, obs={0: np.array([3.0, 2.0, 0.0])})]
    imu = np.array([[0.0, 0, 0, 0, 0, 0, 9.81], [1.0, 0, 0, 0, 0, 0, 9.81]])
    ds = Dataset(imu=imu, landmarks=lms, positions=frames)
    prov = _provider(ds, "position3d")
    S, g, has = prov(np.array([0.25]), 1e3)
    ref = output_gains(*linear_output(landmark_blocks(
        PositionFrame(t=0.25, obs={0: np.array([1.5, 0.5, 0.0])}), [], lms)),
        1e3)
    assert has[0]
    assert np.array_equal(S[0], ref[0]) and np.array_equal(g[0], ref[1])
    assert not _has(prov, 1.5)
