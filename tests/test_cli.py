"""End-to-end tests of the command-line pipelines (simulate/estimate/analyze)."""

import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from visnav import cli
from visnav.cli import main
from visnav.dataio import load_config, load_dataset, read_trace
from visnav.geom import exp_so3

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
    # the window before it; each frame gets one Phi from its window start
    cfg = tmp_path / "win.cfg"
    cfg.write_text(BASE_CFG.replace("duration = 6", "duration = 3")
                   + "gramian_window = 0.1\n")
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    taus, sizes = [], []
    closed_form, discrete = cli.closed_form_transition, cli.gramian_discrete

    def closed_form_transition(gravity, tau, dR):
        taus.append(tau)
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
    ds.bearings = [replace(fr, t=fr.t + 1.0 / 600.0) for fr in ds.bearings]
    seen, discrete = [], cli.gramian_discrete

    def gramian_discrete(phis, cs, **kwargs):
        seen.append((kwargs["window"][0], phis))
        return discrete(phis, cs, **kwargs)

    monkeypatch.setattr(cli, "gramian_discrete", gramian_discrete)
    cli._gramian_windows(cfg, ds)
    assert [start for start, _ in seen] == [0.0, 0.5]
    imu, ts = ds.imu, ds.imu[:, 0]
    frames = iter(ds.bearings)
    for start, phis in seen:
        for Phi in phis:
            t = next(frames).t
            cuts = np.concatenate(([start], ts[(ts > start) & (ts < t)], [t]))
            dR = np.eye(3)
            for a, b in zip(cuts[:-1], cuts[1:]):
                k = int(np.searchsorted(ts, a, side="right")) - 1
                dR = dR @ exp_so3((b - a) * imu[k, 1:4])
            assert np.max(np.abs(Phi[:3, :3] - dR.T)) <= 1e-12
    assert next(frames).t > 1.0  # the last frame is past both windows
