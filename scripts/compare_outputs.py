"""Compare the estimator outputs of two visnav source trees.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC [--seconds S]

OLD_SRC and NEW_SRC are directories that contain the `visnav` package
(the `src/` of two checkouts).  Each tree runs, in a fresh process with it
on PYTHONPATH:
- the three sim-driven reference runs of the acceptance suite (position3d,
  stereo, monocular);
- the measurement-free flow (`run_continuous` with no provider, the path
  the hybrid estimator takes between frames);
- a stereo hybrid run at 20 Hz with noise covariances (`tune_vq`, `jump`);
- continuous runs driven by an in-memory dataset through the dataset
  provider of `visnav.dataio`, one per measurement mode (stereo,
  monocular, position3d);
- a stereo continuous run through the dataset provider on a rig whose
  second camera is rotated, with camera 1's bearing of landmark 4 left
  out of every third frame (`dataset.masked-rig`);
- `EightTrajectory.rotation` at 6000 times over 30 s, off the 200 Hz
  sample times;
- `visnav simulate` and `visnav analyze` on a 6 s stereo dataset, keeping
  the parsed columns of the simulated `imu.csv`, `groundtruth.csv` and
  `bearings.csv`, and lambda_min and lambda_max of each 2 s Gramian window;
- `gramian_continuous` over the stereo window [0, 2] of acceptance
  criterion 7, keeping lambda_min and lambda_max;
- `transition_matrix` of the trajectory's rate at a few (t0, t1) pairs;
- `visnav simulate` and `visnav estimate` with the hybrid estimator
  (k_r = 20) on a stereo dataset of the same length as the runs above,
  keeping the trace columns.
The script reports, per run and field, whether the outputs agree exactly
(R, p, v, e and P at every IMU step, the attitude at every query, the
simulated columns, the window eigenvalues, each Phi, the trace columns),
or else their max |diff| over the run beside their |diff| at the last step
(last window or query; both relative for the eigenvalues), so that a
transient that later decays shows as such.  It exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

FIELDS = ("R", "p", "v", "e", "P")

ANALYZE_CFG = """\
mode = stereo
duration = 6
imu_rate = 200
vision_rate = 20
seed = 0
n_landmarks = 5
"""

ESTIMATE_CFG = ANALYZE_CFG + """\
estimator = hybrid
k_r = 20
"""

SIMULATED = ("imu", "groundtruth", "bearings")

TRACE_COLUMNS = {"t": [0], "att_err": [1], "pos_err": [2], "vel_err": [3],
                 "p": [4, 5, 6], "v": [7, 8, 9], "R": list(range(10, 19))}


def _cli(cfg_text, command, *extra):
    """Simulate a dataset from cfg_text, run `visnav command` on it, and
    return the text of its output file and the parsed columns of the
    simulated files in SIMULATED."""
    from visnav.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        data, out = os.path.join(tmp, "data"), os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(cfg_text)
        for argv in (["simulate", "--config", cfg, "--out", data, *extra],
                     [command, "--config", cfg, "--data", data,
                      "--out", out, *extra]):
            if main(argv) != 0:
                raise SystemExit(f"visnav {argv[0]} failed")
        simulated = {f"simulate.{name}": np.loadtxt(
            os.path.join(data, f"{name}.csv"), delimiter=",", skiprows=1)
            for name in SIMULATED}
        with open(out, encoding="utf-8") as fh:
            return fh.read(), simulated


def _estimate_trace(seconds):
    text, _ = _cli(ESTIMATE_CFG, "estimate", "--duration", str(seconds))
    rows = np.loadtxt(text.splitlines()[1:], delimiter=",")
    return {f"estimate.{name}": rows[:, cols]
            for name, cols in TRACE_COLUMNS.items()}


def _simulate_and_analyze():
    text, simulated = _cli(ANALYZE_CFG, "analyze")
    windows = json.loads(text)["windows"]
    eigenvalues = {f"analyze.{key}": np.array([w[key] for w in windows])
                   for key in ("lambda_min", "lambda_max")}
    return {**simulated, **eigenvalues}


def dump(path, seconds):
    from visnav.dataio import Dataset, DatasetProvider, interpolating_imu
    from visnav.geom import exp_so3
    from visnav.hybrid import NoiseCovariances, run as hybrid_run
    from visnav.observability import gramian_continuous, transition_matrix
    from visnav.observer import (GainConfig, MonoBearingSource, ObserverState,
                                 PositionSource, StereoBearingSource,
                                 innovation_stereo, run_continuous)
    from visnav.sim import (GRAVITY, CameraExtrinsics, EightTrajectory,
                            default_stereo_rig, make_bearing_frame,
                            make_position_frame, sample_landmarks)

    traj = EightTrajectory(t_end=max(30.0, seconds))
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    R0 = exp_so3(0.5 * np.pi * np.ones(3) / np.sqrt(3.0))
    frame_states = [traj.state(k / 20.0) for k in
                    range(1, int(np.floor(seconds * 20.0 + 1e-9)) + 1)]
    frames = [make_bearing_frame(st, lms, cams) for st in frame_states]
    imu_rows = [[t, *traj.state(t).omega, *traj.state(t).a]
                for t in np.arange(int(round(seconds * 200.0)) + 1) / 200.0]
    ds = Dataset(imu=np.array(imu_rows), landmarks=lms, bearings=frames,
                 positions=[make_position_frame(st, lms)
                            for st in frame_states],
                 extrinsics=cams)

    rig = [cams[0], CameraExtrinsics(cams[1].cam_id,
                                     exp_so3(np.array([0.05, -0.1, 0.2])),
                                     cams[1].p)]
    rig_frames = [make_bearing_frame(st, lms, rig) for st in frame_states]
    for frame in rig_frames[2::3]:
        del frame.obs[(1, 4)]
    rig_ds = Dataset(imu=ds.imu, landmarks=lms, bearings=rig_frames,
                     extrinsics=rig)

    def continuous(imu, provider):
        return run_continuous(ObserverState.initial(R=R0), imu, provider,
                              GainConfig(), t_end=seconds)[1]

    runs = {
        "position3d": lambda: continuous(traj.imu, PositionSource(traj, lms)),
        "stereo": lambda: continuous(traj.imu,
                                     StereoBearingSource(traj, lms, cams)),
        "monocular": lambda: continuous(traj.imu,
                                        MonoBearingSource(traj, lms, cams[0])),
        "flow": lambda: continuous(traj.imu, None),
        "hybrid": lambda: hybrid_run(
            ObserverState.initial(R=R0), traj.imu, frames, lms,
            GainConfig(k_r=20.0), mode="stereo", cams=cams,
            ncov=NoiseCovariances(), t_end=seconds)[1],
    }
    for mode in ("stereo", "monocular", "position3d"):
        runs[f"dataset.{mode}"] = (
            lambda mode=mode: continuous(interpolating_imu(ds.imu),
                                         DatasetProvider(ds, mode)))
    runs["dataset.masked-rig"] = lambda: continuous(
        interpolating_imu(rig_ds.imu), DatasetProvider(rig_ds, "stereo"))
    arrays = {}
    for name, states in runs.items():
        states = states()
        for f in FIELDS:
            arrays[f"{name}.{f}"] = np.stack([getattr(s, f) for s in states])
    arrays["attitude.R"] = np.stack([traj.rotation((k + 0.37) / 200.0)
                                     for k in range(6000)])
    dummy = ObserverState.initial()
    rep = gramian_continuous(
        traj.omega,
        lambda t: innovation_stereo(
            dummy, make_bearing_frame(traj.state(t), lms, cams), cams,
            lms)[1],
        0.0, 2.0, GRAVITY)
    arrays["gramian.lambda_min"] = np.array([rep.lambda_min])
    arrays["gramian.lambda_max"] = np.array([rep.lambda_max])
    arrays["transition.Phi"] = np.stack([
        transition_matrix(traj.omega, GRAVITY, t0, t1)
        for t0, t1 in ((0.0, 0.05), (1.0, 1.0), (0.37, 2.9), (12.3, 15.0))])
    arrays.update(_simulate_and_analyze())
    arrays.update(_estimate_trace(seconds))
    np.savez(path, **arrays)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", nargs="?")
    ap.add_argument("new_src", nargs="?")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--dump", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump:
        return dump(args.dump, args.seconds)
    if not (args.old_src and args.new_src):
        ap.error("OLD_SRC and NEW_SRC are required")

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, src in enumerate((args.old_src, args.new_src)):
            out = os.path.join(tmp, f"{i}.npz")
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--dump", out, "--seconds", str(args.seconds)],
                           env=env, check=True)
            with np.load(out) as data:
                results.append(dict(data))
    old, new = results
    same = True
    for key in old:
        a, b = old[key], new[key]
        if a.shape != b.shape:
            detail = f"DIFFERS (shape {a.shape} vs {b.shape})"
        elif np.array_equal(a, b):
            detail = "identical"
        else:
            diff, kind = np.abs(a - b), "|diff|"
            if key.startswith(("analyze.", "gramian.")):
                diff, kind = diff / np.abs(a), "relative |diff|"
            detail = (f"DIFFERS (max {kind} {diff.max():.3g}, "
                      f"last step {diff[-1].max():.3g})")
        same &= detail == "identical"
        print(f"{key:26s} {a.shape[0]:5d} rows  {detail}")
    print("all outputs bit-identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
