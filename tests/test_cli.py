"""End-to-end tests of the command-line pipelines (simulate/estimate/analyze)."""

import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from visnav import cli, measurement
from visnav.cli import main
from visnav.dataio import load_config, load_dataset, read_trace, save_dataset
from visnav.geom import AttitudeTable, exp_so3, grid_index
from visnav.observability import closed_form_transition
from visnav.measurement import (Frames, linear_output, mode_arrays,
                                observation_blocks)
from visnav.sim import GRAVITY, EightTrajectory, synth_bearings

G = np.array(GRAVITY, dtype=float)

BASE_CFG = """\
mode = stereo
estimator = continuous
duration = 6
imu_rate = 200
vision_rate = 20
seed = 0
n_landmarks = 5
"""

HYBRID_CFG = """\
mode = stereo
estimator = hybrid
duration = 6
imu_rate = 200
vision_rate = 20
seed = 0
n_landmarks = 5
k_r = 20
"""

NOISY_CFG = """\
mode = stereo
estimator = continuous
duration = 1
imu_rate = 200
vision_rate = 20
seed = 0
n_landmarks = 5
bearing_noise = 0.01
imu_noise_omega = 0.01
imu_noise_accel = 0.02
"""


@pytest.fixture(scope="module")
def base_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(BASE_CFG)
    return str(path)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory, base_cfg):
    out = tmp_path_factory.mktemp("sim") / "data"
    assert main(["simulate", "--config", base_cfg, "--out", str(out)]) == 0
    return str(out)


@pytest.mark.parametrize("mode", ["stereo", "monocular", "position3d"])
def test_no_pipeline_stacks_a_frame_list(tmp_path, monkeypatch, mode):
    # frames stay one record from the CSV and `visnav simulate` on:
    # frame_arrays only converts hand-built frame lists
    def refuse(*args, **kwargs):
        raise AssertionError("frame_arrays called")

    monkeypatch.setattr(measurement, "frame_arrays", refuse)
    cfg = tmp_path / "run.cfg"
    data, out = str(tmp_path / "data"), str(tmp_path / "out")
    for estimator in ("continuous", "hybrid"):
        cfg.write_text(NOISY_CFG.replace("stereo", mode)
                       .replace("continuous", estimator)
                       + "position_noise = 0.01\ngramian_window = 0.5\n")
        assert main(["simulate", "--config", str(cfg), "--out", data]) == 0
        for command in ("estimate", "analyze"):
            assert main([command, "--config", str(cfg), "--data", data,
                         "--out", out]) == 0


def test_simulate_writes_expected_files(sim_dir, tmp_path):
    import os
    names = sorted(os.listdir(sim_dir))
    assert names == ["bearings.csv", "extrinsics.csv", "groundtruth.csv",
                     "imu.csv", "landmarks.csv"]
    # 200 Hz over 6 s inclusive of both endpoints; 20 Hz frames from t=1/20
    assert sum(1 for _ in open(f"{sim_dir}/imu.csv")) == 1202
    with open(f"{sim_dir}/bearings.csv") as fh:
        ts = {line.split(",")[0] for line in fh.readlines()[1:]}
    assert len(ts) == 120


def test_continuous_estimate_converges(sim_dir, base_cfg, tmp_path):
    trace = tmp_path / "trace.csv"
    assert main(["estimate", "--config", base_cfg, "--data", sim_dir,
                 "--out", str(trace)]) == 0
    recs = read_trace(str(trace))
    assert len(recs) == 1201
    assert recs[0].t == 0.0 and recs[-1].t == pytest.approx(6.0)
    # the initial attitude estimate is 90 degrees off and the position
    # estimate starts at the origin; both must have improved substantially
    # (full convergence needs a longer horizon, exercised elsewhere)
    assert recs[-1].att_err < 0.3 * recs[0].att_err
    assert recs[-1].pos_err < 0.5 * recs[0].pos_err
    assert recs[-1].vel_err < 0.6


def test_hybrid_estimate_runs(sim_dir, tmp_path):
    cfg = tmp_path / "hybrid.cfg"
    cfg.write_text(HYBRID_CFG)
    trace = tmp_path / "trace.csv"
    assert main(["estimate", "--config", str(cfg), "--data", sim_dir,
                 "--out", str(trace), "--duration", "2"]) == 0
    recs = read_trace(str(trace))
    assert len(recs) == 401
    # the jump corrections converge far faster than the continuous gains
    assert recs[-1].att_err < 0.01
    assert recs[-1].pos_err < 0.05


def test_monocular_estimate_runs(sim_dir, base_cfg, tmp_path):
    trace = tmp_path / "trace.csv"
    assert main(["estimate", "--config", base_cfg, "--data", sim_dir,
                 "--out", str(trace), "--mode", "monocular",
                 "--duration", "2"]) == 0
    assert len(read_trace(str(trace))) == 401


def test_estimate_without_required_cameras_fails(sim_dir, base_cfg, tmp_path,
                                                 capsys):
    stripped = tmp_path / "nocams"
    shutil.copytree(sim_dir, stripped)
    (stripped / "extrinsics.csv").unlink()
    # bearings still reference the removed cameras: referential failure
    rc = main(["estimate", "--config", base_cfg, "--data", str(stripped),
               "--out", str(tmp_path / "trace.csv")])
    assert rc == 1
    assert "unknown cam_id" in capsys.readouterr().err
    # with the bearing stream gone too, the camera-count check fires
    (stripped / "bearings.csv").unlink()
    rc = main(["estimate", "--config", base_cfg, "--data", str(stripped),
               "--out", str(tmp_path / "trace.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("visnav:") and "extrinsics.csv" in err


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = stereo\nwarp_factor = 9\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert rc == 1
    assert "warp_factor" in capsys.readouterr().err


@pytest.mark.parametrize("line,needle", [
    ("rho2 = 0.5", "rho values must be pairwise distinct"),
    ("k_r = 0", "k_r must be positive"),
    ("reg = 0", "reg must be positive"),
])
def test_invalid_gains_fail_with_one_line(tmp_path, capsys, line, needle):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE_CFG.replace("duration = 6", "duration = 0.1")
                   + line + "\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"visnav: bad.cfg: {needle}\n"


@pytest.mark.parametrize("line,needle", [
    ("gramian_window = 0", "gramian_window must be positive"),
    ("gramian_window = -1", "gramian_window must be positive"),
    ("mono_window = 0", "mono_window must be positive"),
    ("mono_window = -2", "mono_window must be positive"),
    ("n_landmarks = 0", "n_landmarks must be positive"),
    ("n_landmarks = -1", "n_landmarks must be positive"),
    ("seed = -1", "seed must be non-negative"),
])
def test_invalid_counts_and_windows_fail_with_one_line(tmp_path, capsys,
                                                       line, needle):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"mode = stereo\nduration = 0.3\n{line}\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert rc == 1
    assert capsys.readouterr().err == f"visnav: bad.cfg: {needle}\n"


def test_negative_seed_override_fails_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = stereo\nduration = 0.3\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d"),
               "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "visnav: seed must be non-negative\n"


def test_simulate_duration_off_the_imu_grid(tmp_path):
    # 1.0035 s at 200 Hz rounds to 201 steps: the last sample, at 1.005 s,
    # lies past the duration
    cfg = tmp_path / "off.cfg"
    cfg.write_text(BASE_CFG.replace("duration = 6", "duration = 1.0035"))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    assert len((data / "imu.csv").read_text().splitlines()) == 203


def test_missing_config_file_fails(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "absent.cfg"),
               "--out", str(tmp_path / "d")])
    assert rc == 1
    assert "visnav:" in capsys.readouterr().err


def test_analyze_full_report(sim_dir, base_cfg, tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", base_cfg, "--data", sim_dir,
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"windows", "stereo_condition", "mono_motion",
                           "static_degeneracy"}
    assert len(report["windows"]) == 3
    for win in report["windows"]:
        assert win["status"] == "ok"
        assert win["verdict"] is True
        assert win["lambda_min"] > win["mu_threshold"]
    assert report["stereo_condition"]["status"] == "ok"
    assert report["stereo_condition"]["satisfied"] is True
    assert len(report["stereo_condition"]["witness"]) == 3
    assert report["mono_motion"]["status"] == "ok"
    assert report["mono_motion"]["satisfied"] is True
    assert report["static_degeneracy"]["status"] == "ok"
    assert report["static_degeneracy"]["case_label"] == "generic"


def test_analyze_without_groundtruth_skips(sim_dir, base_cfg, tmp_path):
    stripped = tmp_path / "nogt"
    shutil.copytree(sim_dir, stripped)
    (stripped / "groundtruth.csv").unlink()
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", base_cfg, "--data", str(stripped),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mono_motion"]["status"] == "skipped"
    assert "groundtruth" in report["mono_motion"]["reason"]
    assert report["static_degeneracy"]["status"] == "skipped"
    assert all(w["status"] == "ok" for w in report["windows"])


def test_analyze_skips_mono_motion_without_witness_frames(sim_dir, base_cfg,
                                                         tmp_path):
    # camera 1 never sees witness landmark 0, so no frame holds the whole
    # witness triple in the camera mono_motion reads
    data = tmp_path / "nowitness"
    shutil.copytree(sim_dir, data)
    rows = (data / "bearings.csv").read_text().splitlines(keepends=True)
    (data / "bearings.csv").write_text(
        "".join(r for r in rows if r.split(",")[1:3] != ["1", "0"]))
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", base_cfg, "--data", str(data),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert 0 in report["stereo_condition"]["witness"]
    assert report["mono_motion"] == {
        "status": "skipped",
        "reason": "history spans 0.000 s, need at least 4.000 s"}


def test_analyze_without_required_cameras_fails(base_cfg, tmp_path, capsys):
    # a one-camera dataset analyzed in stereo mode fails as estimate does
    data = tmp_path / "mono"
    assert main(["simulate", "--config", base_cfg, "--out", str(data),
                 "--mode", "monocular", "--duration", "1"]) == 0
    for command in ("estimate", "analyze"):
        rc = main([command, "--config", base_cfg, "--data", str(data),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "visnav: extrinsics.csv: mode 'stereo' needs 2 camera(s), "
            "dataset has 1\n")


def test_analyze_coplanar_static_scene(base_cfg, tmp_path):
    data = tmp_path / "static"
    data.mkdir()
    (data / "imu.csv").write_text(
        "t,wx,wy,wz,ax,ay,az\n0,0,0,0,0,0,9.81\n0.005,0,0,0,0,0,9.81\n"
        "0.01,0,0,0,0,0,9.81\n")
    (data / "groundtruth.csv").write_text(
        "t,r11,r12,r13,r21,r22,r23,r31,r32,r33,px,py,pz,vx,vy,vz\n"
        "0,1,0,0,0,1,0,0,0,1,0,0,0,0,0,0\n"
        "0.01,1,0,0,0,1,0,0,0,1,0,0,0,0,0,0\n")
    (data / "landmarks.csv").write_text(
        "id,x,y,z\n0,0,0,1\n1,2,0,1\n2,0,2,1\n3,2,2,1\n4,1,3,1\n")
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", base_cfg, "--data", str(data),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["windows"] == []
    # horizontal plane: normal parallel to gravity, so the triple condition
    # still holds even though the scene is coplanar
    assert report["stereo_condition"]["satisfied"] is True
    assert report["mono_motion"]["status"] == "skipped"
    sd = report["static_degeneracy"]
    assert sd["status"] == "ok"
    assert sd["case_label"] == "coplanar(a)"
    assert sd["rank_O_prime"] < sd["full_rank_required"]


def test_simulate_is_deterministic(tmp_path):
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text(NOISY_CFG)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(c),
                 "--seed", "1"]) == 0
    for name in ("imu.csv", "bearings.csv", "landmarks.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "imu.csv").read_bytes() != (c / "imu.csv").read_bytes()
    assert (a / "bearings.csv").read_bytes() != (c / "bearings.csv").read_bytes()


@pytest.mark.parametrize("omega, accel",
                         [(0.01, 0.02), (0.01, 0.0), (0.0, 0.02), (0.0, 0.0)])
def test_simulate_tables_are_stacked_truth_plus_per_sample_draws(
        tmp_path, omega, accel):
    # one stacked state query, and the noise of one draw keeps the draws of
    # a per-sample loop: 3 rate draws, then 3 accel draws, of each positive
    # sigma from default_rng([seed, 1])
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text(NOISY_CFG.replace("omega = 0.01", f"omega = {omega}")
                   .replace("accel = 0.02", f"accel = {accel}"))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    ds = load_dataset(str(data))
    t = ds.imu[:, 0]
    st = EightTrajectory(t_end=1.0).state(t)
    want = np.column_stack([st.omega, st.a])
    rng = np.random.default_rng([0, 1])
    for row in want:
        if omega > 0:
            row[:3] += rng.normal(0.0, omega, 3)
        if accel > 0:
            row[3:] += rng.normal(0.0, accel, 3)
    assert np.array_equal(t, np.arange(201) * (1.0 / 200.0))
    assert np.array_equal(ds.imu[:, 1:], want)
    assert np.array_equal(ds.groundtruth, np.column_stack(
        [t, st.R.reshape(-1, 9), st.p, st.v]))


def test_position3d_pipeline(tmp_path):
    cfg = tmp_path / "pos.cfg"
    cfg.write_text(BASE_CFG.replace("mode = stereo", "mode = position3d")
                   .replace("duration = 6", "duration = 2"))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    assert (data / "positions.csv").exists()
    assert not (data / "extrinsics.csv").exists()
    trace = tmp_path / "trace.csv"
    assert main(["estimate", "--config", str(cfg), "--data", str(data),
                 "--out", str(trace)]) == 0
    recs = read_trace(str(trace))
    assert len(recs) == 401
    # two seconds is only enough for the attitude to start pulling in;
    # the trace must stay finite and well-formed throughout
    assert recs[-1].att_err < 0.75 * recs[0].att_err
    assert all(np.isfinite(r.row()).all() for r in recs)
    assert recs[-1].pos_err < 4.0


def test_estimate_keeps_a_landmark_one_camera_misses(sim_dir, base_cfg,
                                                     tmp_path):
    # camera 1 never sees landmark 4; both estimators fall back to the
    # bearing of camera 2 for it, as analyze does
    data = tmp_path / "onecam"
    shutil.copytree(sim_dir, data)
    rows = (data / "bearings.csv").read_text().splitlines(keepends=True)
    kept = [r for r in rows if r.split(",")[1:3] != ["1", "4"]]
    assert len(kept) < len(rows)
    (data / "bearings.csv").write_text("".join(kept))
    hybrid = tmp_path / "hybrid.cfg"
    hybrid.write_text(HYBRID_CFG)
    for cfg in (base_cfg, str(hybrid)):
        trace = tmp_path / "trace.csv"
        assert main(["estimate", "--config", cfg, "--data", str(data),
                     "--out", str(trace), "--duration", "1"]) == 0
        recs = read_trace(str(trace))
        assert len(recs) == 201
        assert all(np.isfinite(r.row()).all() for r in recs)


def test_hybrid_estimate_jumps_at_a_frame_on_the_first_imu_sample(
        sim_dir, tmp_path):
    # a bearing frame with the first IMU timestamp snaps to node 0: the
    # hybrid estimator jumps the initial state there and records the
    # post-jump state (the initial estimate has p = 0)
    data = tmp_path / "frame0"
    shutil.copytree(sim_dir, data)
    header, *rows = (data / "bearings.csv").read_text().splitlines(
        keepends=True)
    first = [r for r in rows if float(r.split(",")[0]) == 0.05]
    assert first
    at_zero = ["0" + r[r.index(","):] for r in first]
    (data / "bearings.csv").write_text("".join([header, *at_zero, *rows]))
    cfg = tmp_path / "hybrid.cfg"
    cfg.write_text(HYBRID_CFG)
    trace = tmp_path / "trace.csv"
    assert main(["estimate", "--config", str(cfg), "--data", str(data),
                 "--out", str(trace), "--duration", "1"]) == 0
    recs = read_trace(str(trace))
    assert len(recs) == 201 and recs[0].t == 0.0
    assert all(np.isfinite(r.row()).all() for r in recs)
    assert np.linalg.norm(recs[0].p) > 0.1


def test_hybrid_estimate_jumps_at_off_grid_frame_times(sim_dir, tmp_path):
    # bearings resynthesized 2.4 ms after the 20 Hz instants: each frame
    # jumps at its own time, so the estimate reaches the on-grid accuracy
    # (7.1e-5 m after 6 s); jumping at the nearest IMU node instead leaves
    # 9.1e-3 m
    ds = load_dataset(sim_dir)
    t = ds.bearings.t + 2.4e-3
    Y = synth_bearings(EightTrajectory(t_end=6.1).state(t), ds.landmarks,
                       ds.extrinsics)
    ds.bearings = Frames(t, Y, ds.bearings.seen)
    data = tmp_path / "offgrid"
    save_dataset(str(data), ds)
    cfg = tmp_path / "hybrid.cfg"
    cfg.write_text(HYBRID_CFG)
    trace = tmp_path / "trace.csv"
    assert main(["estimate", "--config", str(cfg), "--data", str(data),
                 "--out", str(trace)]) == 0
    recs = read_trace(str(trace))
    assert len(recs) == 1201 and recs[-1].t == 6.0
    assert recs[-1].pos_err <= 2e-4
    # 1.0024 s rounds to the node at 1.0 s; the frame at 1.0024 s after it
    # is left out of the run
    assert main(["estimate", "--config", str(cfg), "--data", str(data),
                 "--out", str(trace), "--duration", "1.0024"]) == 0
    recs = read_trace(str(trace))
    assert len(recs) == 201 and recs[-1].t == 1.0


def test_hybrid_estimate_leaves_out_frames_before_the_imu(tmp_path):
    # imu.csv starting at t = 0.1, after the first bearing frame (0.05):
    # both estimators leave that frame out and start at the first sample
    cfg = tmp_path / "run.cfg"
    data, trace = tmp_path / "data", tmp_path / "trace.csv"
    cfg.write_text(HYBRID_CFG.replace("duration = 6", "duration = 1"))
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    header, *rows = (data / "imu.csv").read_text().splitlines(keepends=True)
    (data / "imu.csv").write_text("".join([header, *rows[20:]]))
    for estimator in ("continuous", "hybrid"):
        cfg.write_text(HYBRID_CFG.replace("duration = 6", "duration = 1")
                       .replace("hybrid", estimator))
        assert main(["estimate", "--config", str(cfg), "--data", str(data),
                     "--out", str(trace)]) == 0
        recs = read_trace(str(trace))
        assert recs[0].t == 0.1 and recs[-1].t == 1.0


@pytest.mark.parametrize("name, column, what, value", [
    ("landmarks.csv", 0, "id", "nan"),
    ("landmarks.csv", 0, "id", "inf"),
    ("bearings.csv", 1, "cam_id", "nan"),
    ("bearings.csv", 1, "cam_id", "-inf"),
])
def test_non_finite_id_is_bad_input(sim_dir, base_cfg, tmp_path, capsys,
                                    name, column, what, value):
    data = tmp_path / "data"
    shutil.copytree(sim_dir, data)
    header, first, *rows = (data / name).read_text().splitlines(keepends=True)
    fields = first.split(",")
    fields[column] = value
    (data / name).write_text("".join([header, ",".join(fields), *rows]))
    rc = main(["estimate", "--config", base_cfg, "--data", str(data),
               "--out", str(tmp_path / "trace.csv"), "--duration", "0.1"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"visnav: {name}:2: {what} must be an integer, got {value}\n")


@pytest.mark.parametrize("mode, name", [("stereo", "bearings.csv"),
                                        ("position3d", "positions.csv")])
def test_nan_frame_time_is_bad_input(tmp_path, capsys, mode, name):
    # a NaN frame time used to pass the loader: estimate then exited 0 and
    # analyze died with a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG.replace("mode = stereo", f"mode = {mode}")
                   .replace("duration = 6", "duration = 1"))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    lines = (data / name).read_text().splitlines(keepends=True)
    lines[9] = "nan" + lines[9][lines[9].index(","):]
    (data / name).write_text("".join(lines))
    for command in ("estimate", "analyze"):
        rc = main([command, "--config", str(cfg), "--data", str(data),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"visnav: {name}:10: frame time must be finite, got nan\n")


@pytest.mark.parametrize("name", ["imu.csv", "groundtruth.csv"])
def test_inf_last_timestamp_is_bad_input(tmp_path, capsys, name):
    # an inf last timestamp passed the loader: estimate then died with a
    # ValueError traceback and analyze exited 2 ("SVD did not converge")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG.replace("duration = 6", "duration = 1"))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    lines = (data / name).read_text().splitlines(keepends=True)
    lines[-1] = "inf" + lines[-1][lines[-1].index(","):]
    (data / name).write_text("".join(lines))
    for command in ("estimate", "analyze"):
        rc = main([command, "--config", str(cfg), "--data", str(data),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"visnav: {name}:{len(lines)}: timestamp must be finite, "
            f"got inf\n")


@pytest.mark.parametrize("name, row, column, what", [
    ("imu.csv", 51, 1, "wx"),
    ("imu.csv", 51, 6, "az"),
    ("groundtruth.csv", 51, 10, "px"),
    ("groundtruth.csv", 51, 15, "vz"),
    ("groundtruth.csv", 51, 5, "r22"),
    ("landmarks.csv", 3, 2, "y"),
    ("extrinsics.csv", 2, 12, "pz"),
])
def test_non_finite_table_value_is_bad_input(tmp_path, capsys, name, row,
                                             column, what):
    # a NaN in an imu.csv data column made both estimators exit 2 and blame
    # "IMU or measurement input" at t=0.235; one in groundtruth.csv left a
    # nan error column in an exit-0 trace
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG.replace("duration = 6", "duration = 1"))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    lines = (data / name).read_text().splitlines(keepends=True)
    fields = lines[row - 1].split(",")
    fields[column] = "nan" + ("\n" if column == len(fields) - 1 else "")
    lines[row - 1] = ",".join(fields)
    (data / name).write_text("".join(lines))
    for command in ("estimate", "analyze"):
        for estimator in ("continuous", "hybrid"):
            cfg.write_text(BASE_CFG.replace("duration = 6", "duration = 1")
                           .replace("continuous", estimator))
            rc = main([command, "--config", str(cfg), "--data", str(data),
                       "--out", str(tmp_path / "out")])
            assert rc == 1
            assert capsys.readouterr().err == (
                f"visnav: {name}:{row}: {what} must be finite, got nan\n")


@pytest.mark.parametrize("name, line", [("imu.csv", 150),
                                        ("bearings.csv", 1),
                                        ("run.cfg", 3)])
def test_byte_not_utf8_is_bad_input(tmp_path, capsys, name, line):
    # one byte that is not UTF-8 in a dataset file or the config made
    # estimate and analyze die with a UnicodeDecodeError traceback
    cfg, data = tmp_path / "run.cfg", tmp_path / "data"
    cfg.write_text(BASE_CFG.replace("duration = 6", "duration = 1"))
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    path = cfg if name == "run.cfg" else data / name
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1][:4] + b"\xe9" + lines[line - 1][4:]
    path.write_bytes(b"".join(lines))
    for command in ("estimate", "analyze"):
        rc = main([command, "--config", str(cfg), "--data", str(data),
                   "--out", str(tmp_path / "out")])
        assert (rc, capsys.readouterr().err) == (
            1, f"visnav: {name}:{line}: byte 0xe9 is not valid UTF-8\n")


@pytest.mark.parametrize("command, key, value", [
    ("analyze", "gramian_window", "nan"),
    ("analyze", "mono_window", "nan"),
    ("analyze", "gramian_mu", "nan"),
    ("estimate", "k_r", "nan"),
    ("estimate", "q", "nan"),
    ("estimate", "rho1", "nan"),
    ("estimate", "v", "inf"),
    ("estimate", "cov_a", "-inf"),
])
def test_non_finite_config_value_is_bad_input(sim_dir, tmp_path, capsys,
                                              command, key, value):
    # gramian_window = nan killed analyze with a ValueError traceback, and
    # k_r = nan made estimate exit 2 blaming the input at t=0: RunConfig's
    # "<= 0" checks let NaN through
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE_CFG + f"{key} = {value}\n")
    rc = main([command, "--config", str(cfg), "--data", sim_dir,
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"visnav: bad.cfg: {key} must be finite, got {value}\n")


def test_singular_innovation_is_a_numeric_failure_at_the_frame(
        sim_dir, tmp_path, capsys):
    # with reg = 1e-14 the monocular Q^-1 is singular along each bearing
    # and so is the jump's innovation covariance: exit 2, naming the first
    # frame's time
    cfg = tmp_path / "singular.cfg"
    cfg.write_text(HYBRID_CFG.replace("stereo", "monocular")
                   + "reg = 1e-14\n")
    rc = main(["estimate", "--config", str(cfg), "--data", sim_dir,
               "--out", str(tmp_path / "trace.csv"), "--duration", "0.2"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "visnav: numeric failure: innovation covariance numerically singular"
        " at the frame at t=0.05\n")


def test_nearest_groundtruth_rows_are_argmins():
    # reference: the per-frame scan np.argmin(np.abs(gt_t - t)), which
    # takes the first of equal distances; on a dyadic grid the midpoints
    # are exact ties
    for ts in (np.arange(1201) / 200.0, np.arange(41) * 0.25):
        step = ts[1] - ts[0]
        times = np.concatenate([ts[::7], ts[3::11] + 0.37 * step,
                                ts[5::13] - 0.21 * step,
                                ts[:-1:3] + 0.5 * step,
                                [ts[0] - 1.0, ts[-1] + 1.0, ts[-1] + 0.5,
                                 ts[-1] + 1e-9]])
        ref = [int(np.argmin(np.abs(ts - t))) for t in times]
        assert cli._nearest_rows(ts, times).tolist() == ref
    # far from a grid finer than its rounding, distances tie across rows
    ts, times = np.array([0.0, 5e-324, 1e-323]), np.array([1.0, -1.0])
    assert cli._nearest_rows(ts, times).tolist() == [0, 0]
    assert cli._nearest_rows(ts, np.array([])).tolist() == []


def test_groundtruth_rotation_checked_on_every_row(sim_dir, base_cfg,
                                                   tmp_path, capsys):
    # r11 = 2 on a row in the middle of the file
    data = tmp_path / "data"
    shutil.copytree(sim_dir, data)
    lines = (data / "groundtruth.csv").read_text().splitlines(keepends=True)
    fields = lines[50].split(",")
    fields[1] = "2"
    lines[50] = ",".join(fields)
    (data / "groundtruth.csv").write_text("".join(lines))
    rc = main(["estimate", "--config", base_cfg, "--data", str(data),
               "--out", str(tmp_path / "trace.csv"), "--duration", "0.5"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "visnav: groundtruth.csv:51: stored matrix is not a rotation\n")


def test_hybrid_estimate_interpolates_the_imu(tmp_path):
    # with no frames the hybrid estimator only flows on the IMU; from the
    # true attitude it must follow the truth to the accuracy of linear
    # interpolation between 200 Hz samples (a held sample lags by half a
    # sample and reads about 1e-3 after 1 s)
    cfg = tmp_path / "flow.cfg"
    cfg.write_text(HYBRID_CFG.replace("duration = 6", "duration = 1")
                   + "init_att_angle = 0\n")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    (data / "bearings.csv").unlink()
    trace = tmp_path / "trace.csv"
    assert main(["estimate", "--config", str(cfg), "--data", str(data),
                 "--out", str(trace)]) == 0
    recs = read_trace(str(trace))
    assert recs[-1].t == 1.0
    assert recs[-1].att_err < 1e-5


def test_analyze_windows_hold_their_frames(tmp_path, monkeypatch):
    # 20 Hz frames in 0.1 s windows: the first window (from t = 0) holds
    # the frame at 0.05 and every later one exactly two, none drifting into
    # the window before it; each frame gets one Phi from its window start,
    # the window's frames in one stacked call
    cfg = tmp_path / "win.cfg"
    cfg.write_text(BASE_CFG.replace("duration = 6", "duration = 3")
                   + "gramian_window = 0.1\n")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    taus, sizes = [], []
    closed_form, discrete = cli.closed_form_transition, cli.gramian_discrete

    def closed_form_transition(gravity, tau, dR):
        assert np.shape(tau) == (len(dR),)
        taus.extend(tau)
        return closed_form(gravity, tau, dR)

    def gramian_discrete(phis, cs, **kwargs):
        sizes.append(len(phis))
        return discrete(phis, cs, **kwargs)

    monkeypatch.setattr(cli, "closed_form_transition", closed_form_transition)
    monkeypatch.setattr(cli, "gramian_discrete", gramian_discrete)
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)]) == 0
    windows = json.loads(out.read_text())["windows"]
    assert [w["window"][0] for w in windows] == pytest.approx(
        [0.1 * k for k in range(30)], abs=1e-12)
    assert sizes == [1] + [2] * 29
    assert taus == pytest.approx([0.05] + [0.0, 0.05] * 29, abs=1e-9)
    assert min(taus) >= 0.0 and max(taus) <= 0.1


def _per_frame_windows(cfg, ds):
    """(lambda_min, lambda_max) of each Gramian window summed frame by
    frame: Phi_f = closed_form_transition(tau_f, dR_f) off the table of the
    held rate as a callable, and C_f of the landmarks the frame sees."""
    frames, imu = ds.frames(cfg.mode), ds.imu
    grid = imu[:, 0].tolist()
    attitude = AttitudeTable(imu[:, 0], lambda t: imu[grid_index(grid, t), 1:4])
    p, rig = mode_arrays(cfg.mode, ds.extrinsics, ds.landmarks)
    w, t0, out = cfg.gramian_window, grid[0], []
    for k in range(int((frames.t[-1] - t0 + 1e-9) // w)):
        start, end = t0 + k * w, t0 + (k + 1) * w
        lo, hi = round(start * 1e9), round(end * 1e9)
        in_win = [f for f, t in enumerate(frames.t)
                  if lo <= round(t * 1e9) < hi]
        t_s = min(start, frames.t[in_win[0]])
        W = np.zeros((15, 15))
        for f in in_win:
            t, Y, seen = frames.t[f], frames.Y[f], frames.seen[f]
            Phi = closed_form_transition(G, t - t_s,
                                         attitude(t_s).T @ attitude(t))
            rows = seen.any(axis=-1)
            C = linear_output(observation_blocks(p[rows], Y[rows], seen[rows],
                                                 rig))[1]
            W += (C @ Phi).T @ (C @ Phi)
        ev = np.linalg.eigvalsh(0.5 * (W + W.T))
        out.append((ev[0], ev[-1]))
    return out


@pytest.mark.parametrize("mode", ["stereo", "monocular", "position3d"])
def test_analyze_batched_windows_match_the_per_frame_sum(tmp_path, mode):
    # frames 1/600 s off the 200 Hz grid, landmark 2 missing from every
    # third frame, camera 1's bearing of landmark 4 from every fourth (for
    # monocular, landmark 4 itself), and the frame at 1 s a hair below its
    # window start: the zero rows of the stacked C and the batched Phi give
    # each window's Gramian to roundoff.  The 1 s windows have condition
    # numbers near 1e4; at 0.5 s (near 1e5) summing the same per-frame
    # terms in reverse order alone moves lambda_min by up to 6.5e-12
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE_CFG.replace("mode = stereo", f"mode = {mode}")
                        .replace("duration = 6", "duration = 3")
                        + "gramian_window = 1.0\n")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(data)]) == 0
    cfg, ds = load_config(str(cfg_path)), load_dataset(str(data))
    stream = "positions" if mode == "position3d" else "bearings"
    fr = getattr(ds, stream)
    t = fr.t + 1.0 / 600.0
    t[19] = 1.0 - 1e-10
    # landmark ids are the rows, and camera 1 is column 0
    seen, k = fr.seen.copy(), np.arange(len(t))
    seen[k % 3 == 0, 2] = False
    seen[k % 4 == 1, 4, 0] = False
    setattr(ds, stream, Frames(t, np.where(seen[..., None], fr.Y, 0.0), seen))
    windows = cli._gramian_windows(cfg, ds)
    ref = _per_frame_windows(cfg, ds)
    assert [w["window"][0] for w in windows] == [0.0, 1.0, 2.0]
    for win, (lo, hi) in zip(windows, ref):
        assert abs(win["lambda_min"] - lo) <= 1e-12 * abs(lo)
        assert abs(win["lambda_max"] - hi) <= 1e-12 * abs(hi)


def test_analyze_transports_off_grid_frames_exactly(tmp_path, monkeypatch):
    # frames a third of an IMU sample off the 200 Hz grid: each Phi carries
    # R(start)^T R(t_f) of the held rates, the product of exp_so3 over the
    # span split at the sample times, not steps straddling those times
    cfg_path = tmp_path / "off.cfg"
    cfg_path.write_text(BASE_CFG.replace("duration = 6", "duration = 1")
                        + "gramian_window = 0.5\n")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(data)]) == 0
    cfg, ds = load_config(str(cfg_path)), load_dataset(str(data))
    ds.bearings = replace(ds.bearings, t=ds.bearings.t + 1.0 / 600.0)
    seen, discrete = [], cli.gramian_discrete

    def gramian_discrete(phis, cs, **kwargs):
        seen.append((kwargs["window"][0], phis))
        return discrete(phis, cs, **kwargs)

    monkeypatch.setattr(cli, "gramian_discrete", gramian_discrete)
    cli._gramian_windows(cfg, ds)
    assert [start for start, _ in seen] == [0.0, 0.5]
    imu, ts = ds.imu, ds.imu[:, 0]
    frames = iter(ds.bearings.t.tolist())
    for start, phis in seen:
        for Phi in phis:
            t = next(frames)
            cuts = np.concatenate(([start], ts[(ts > start) & (ts < t)], [t]))
            dR = np.eye(3)
            for a, b in zip(cuts[:-1], cuts[1:]):
                k = int(np.searchsorted(ts, a, side="right")) - 1
                dR = dR @ exp_so3((b - a) * imu[k, 1:4])
            assert np.max(np.abs(Phi[:3, :3] - dR.T)) <= 1e-12
    assert next(frames) > 1.0  # the last frame is past both windows


# ---------------------------------------------------------------------------
# the CLI contract over every column of every table

SWEEP_VALUES = ("nan", "inf", "-inf", "", "x")
SWEEP_RUNS = (("estimate", "continuous"), ("estimate", "hybrid"),
              ("analyze", "continuous"))


@pytest.mark.parametrize("mode", ["stereo", "position3d"])
def test_every_bad_table_value_is_a_file_line_exit_1(tmp_path, capsys, mode):
    # each column of each CSV file of a 1 s dataset, in one seeded data
    # row, set to nan, inf, -inf, empty or x: estimate (continuous and
    # hybrid) and analyze each exit 1 naming that file and line, never
    # with an exception out of main (a traceback) and never exit 0 or 2
    text = (BASE_CFG.replace("mode = stereo", f"mode = {mode}")
            .replace("duration = 6", "duration = 1"))
    cfg, data = tmp_path / "run.cfg", tmp_path / "data"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    rng = np.random.default_rng(22)
    names = sorted(path.name for path in data.iterdir())
    assert names == sorted(["imu.csv", "groundtruth.csv", "landmarks.csv",
                            *{"stereo": ["extrinsics.csv", "bearings.csv"],
                              "position3d": ["positions.csv"]}[mode]])
    calls = 0
    for name in names:
        original = (data / name).read_text()
        lines = original.splitlines(keepends=True)
        for column in range(lines[0].count(",") + 1):
            row = int(rng.integers(1, len(lines)))
            for value in SWEEP_VALUES:
                fields = lines[row].rstrip("\n").split(",")
                fields[column] = value
                (data / name).write_text("".join(
                    [*lines[:row], ",".join(fields) + "\n", *lines[row + 1:]]))
                for command, estimator in SWEEP_RUNS:
                    cfg.write_text(text.replace("continuous", estimator))
                    rc = main([command, "--config", str(cfg), "--data",
                               str(data), "--out", str(tmp_path / "out")])
                    err = capsys.readouterr().err
                    assert (rc, err.startswith(
                        f"visnav: {name}:{row + 1}: ")) == (1, True), (
                        name, row + 1, column, value, command, estimator,
                        rc, err)
                    calls += 1
        (data / name).write_text(original)
    assert calls == 3 * len(SWEEP_VALUES) * sum(
        (data / name).read_text().split("\n", 1)[0].count(",") + 1
        for name in names)
