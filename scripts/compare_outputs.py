"""Compare the estimator outputs of two visnav source trees.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC [--seconds S]

OLD_SRC and NEW_SRC are directories that contain the `visnav` package
(the `src/` of two checkouts).  Each tree runs, in a fresh process with it
on PYTHONPATH:
- the three sim-driven reference runs of the acceptance suite (position3d,
  stereo, monocular);
- the measurement-free flow (`run_continuous` with no provider, the path
  the hybrid estimator takes between frames);
- a stereo hybrid run at 20 Hz with noise covariances (`tune_vq`, `jump`),
  and the same run with every frame 2.4 ms after its 20 Hz instant, off
  the 200 Hz IMU grid (`hybrid.offgrid`);
- hybrid runs with noise covariances in the other two modes: position3d
  (`hybrid.position3d`), and monocular on the frames of the rotated rig
  below (`hybrid.monocular`), whose first camera misses landmark 4 in
  every third frame while the second camera's bearings stay in the frames;
- a stereo hybrid run with noise covariances and no frames
  (`hybrid.frame-free`): the tune_vq V of the initial state, and the whole
  run one flow;
- continuous runs driven by an in-memory dataset through the dataset
  provider of `visnav.dataio`, one per measurement mode (stereo,
  monocular, position3d);
- a stereo continuous run through the dataset provider on a rig whose
  second camera is rotated, with camera 1's bearing of landmark 4 left
  out of every third frame (`dataset.masked-rig`);
- `EightTrajectory.rotation` at 6000 times over 30 s, off the 200 Hz
  sample times;
- the attitude table of the in-memory dataset's 200 Hz rates, each held
  until the next sample, at its nodes and at a scalar query 0.37 of a
  sample past each node (`table`);
- `visnav simulate` and `visnav analyze` on a 6 s stereo dataset, keeping
  the parsed columns of the simulated `imu.csv`, `groundtruth.csv` and
  `bearings.csv`, and lambda_min and lambda_max of each 2 s Gramian window;
- `visnav analyze --mode monocular` on that dataset with every frame
  1/600 s off the IMU grid, landmark 2 left out of every third frame and
  camera 1's bearing of landmark 4 out of every fourth (`analyze.mono`);
- `gramian_continuous` over the stereo window [0, 2] of acceptance
  criterion 7, keeping lambda_min and lambda_max, and
  `check_uniform_observability` of the nilpotent state matrix at zero
  rate with the same stereo output over that window (`uniform`);
- `transition_matrix` of the trajectory's rate at a few (t0, t1) pairs;
- `visnav simulate` and `visnav estimate` with the hybrid estimator
  (k_r = 20) on a stereo dataset of the same length as the runs above,
  keeping the trace columns;
- the static analysis on 400 seeded clouds of 5-9 landmarks (see
  `_static`): the verdict of `classify_static_degeneracy` as (label index
  in STATIC_LABELS, rank, full rank), and the entries and rank of
  `static_observability_matrix`.
The script reports, per run and field, whether the outputs agree exactly
(R, p, v, e and P at every IMU step, the attitude at every query, the
simulated columns, the window eigenvalues, each Phi, the trace columns,
the static verdicts and matrices),
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

STATIC_LABELS = ("generic", "coplanar(a)", "gravity-plane(b)",
                 "camera-aligned(c)", "mixed(d)")

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


def _masked_mono_analyze():
    """Window eigenvalues of `visnav analyze --mode monocular` on the
    stereo dataset of ANALYZE_CFG with masked, off-grid frames."""
    from visnav.cli import main
    from visnav.dataio import load_dataset, save_dataset
    from visnav.sim import BearingFrame

    def kept(k, key):
        return not ((key[1] == 2 and k % 3 == 0)
                    or (key == (1, 4) and k % 4 == 1))

    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        data, out = os.path.join(tmp, "data"), os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(ANALYZE_CFG)
        if main(["simulate", "--config", cfg, "--out", data]) != 0:
            raise SystemExit("visnav simulate failed")
        ds = load_dataset(data)
        ds.bearings = [BearingFrame(t=fr.t + 1.0 / 600.0, obs={
            key: y for key, y in fr.obs.items() if kept(k, key)})
            for k, fr in enumerate(ds.bearings)]
        save_dataset(data, ds)
        if main(["analyze", "--config", cfg, "--data", data, "--out", out,
                 "--mode", "monocular"]) != 0:
            raise SystemExit("visnav analyze failed")
        with open(out, encoding="utf-8") as fh:
            windows = json.load(fh)["windows"]
    return {f"analyze.mono.{key}": np.array([w[key] for w in windows])
            for key in ("lambda_min", "lambda_max")}


def _held_table(imu):
    """AttitudeTable of the rates of imu, each held until the next sample."""
    from visnav.geom import AttitudeTable
    try:    # trees whose table takes the rate only as a callable
        from visnav.observability import held_rate
    except ImportError:
        return AttitudeTable(imu[:, 0], imu[:, 1:4])
    return AttitudeTable(imu[:, 0], held_rate(imu))


def _static(count=400):
    """Static verdicts and matrices on seeded clouds of 5-9 landmarks with
    shuffled ids.  Landmarks past the first three move, at random, into
    the gravity-parallel plane through the first two, onto the camera line
    through the third, or stay; every fifth cloud is flattened into one
    plane instead.  Each cloud is then moved by 0, 1e-7, 1e-5 or 1e-3 m
    per coordinate, and every third is classified with rank_tol = 0.5,
    which sends generic clouds to the rank fallback."""
    from visnav.observability import (classify_static_degeneracy,
                                      static_observability_matrix)
    from visnav.sim import GRAVITY, Landmark

    g = np.asarray(GRAVITY, dtype=float)
    gdir = g / np.linalg.norm(g)
    rng = np.random.default_rng(0)
    verdicts, matrices, ranks = [], [], []
    for k in range(count):
        n = int(rng.integers(5, 10))
        p_prime = rng.uniform(-1.0, 1.0, 3)
        pts = rng.uniform(-5.0, 5.0, (n, 3))
        for j, kind in zip(range(3, n), rng.integers(3, size=n - 3)):
            if kind == 1:
                pts[j] = pts[0] + rng.uniform(-2.0, 2.0) * (pts[1] - pts[0]) \
                    + rng.uniform(-4.0, 4.0) * gdir
            elif kind == 2:
                pts[j] = p_prime + rng.uniform(1.3, 3.0) * (pts[2] - p_prime)
        if k % 5 == 0:
            pts[:, 2] = 0.3 * pts[:, 0] - 0.2 * pts[:, 1] + 1.0
        pts += (0.0, 1e-7, 1e-5, 1e-3)[k % 4] * rng.normal(size=pts.shape)
        lms = [Landmark(int(i), p)
               for i, p in zip(rng.permutation(3 * n)[:n], pts)]
        v = classify_static_degeneracy(lms, p_prime, g,
                                       rank_tol=0.5 if k % 3 == 2 else 1e-8)
        verdicts.append((STATIC_LABELS.index(v.case_label), v.rank_O_prime,
                         v.full_rank_required))
        O, rank = static_observability_matrix(lms, p_prime, g)
        matrices.append(O.ravel())
        ranks.append(rank)
    return {"static.verdict": np.array(verdicts),
            "static.O": np.concatenate(matrices),
            "static.rank": np.array(ranks)}


def dump(path, seconds):
    from visnav.dataio import Dataset, DatasetProvider, interpolating_imu
    from visnav.geom import exp_so3
    from visnav.hybrid import NoiseCovariances, run as hybrid_run
    from visnav.observability import (check_uniform_observability,
                                      gramian_continuous, transition_matrix)
    from visnav.observer import (GainConfig, MonoBearingSource, ObserverState,
                                 PositionSource, StereoBearingSource, build_A,
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
    # the last of these would fall past the run's end
    offgrid_frames = [make_bearing_frame(traj.state(k / 20.0 + 2.4e-3), lms,
                                         cams)
                      for k in range(1, len(frame_states))]
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
    }
    for name, mode, fs, rig_k in (
            ("hybrid", "stereo", frames, cams),
            ("hybrid.offgrid", "stereo", offgrid_frames, cams),
            ("hybrid.position3d", "position3d", ds.positions, cams),
            ("hybrid.monocular", "monocular", rig_frames, rig)):
        runs[name] = lambda mode=mode, fs=fs, rig_k=rig_k: hybrid_run(
            ObserverState.initial(R=R0), traj.imu, fs, lms,
            GainConfig(k_r=20.0), mode=mode, cams=rig_k,
            ncov=NoiseCovariances(), t_end=seconds)[1]
    runs["hybrid.frame-free"] = lambda: hybrid_run(
        ObserverState.initial(R=R0), traj.imu, [], lms, GainConfig(k_r=20.0),
        cams=cams, ncov=NoiseCovariances(), t_end=seconds)[1]
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

    def c_stereo(t):
        return innovation_stereo(
            dummy, make_bearing_frame(traj.state(t), lms, cams), cams,
            lms)[1]

    for name, rep in (
            ("gramian", gramian_continuous(traj.omega, c_stereo, 0.0, 2.0,
                                           GRAVITY)),
            ("uniform", check_uniform_observability(
                build_A(np.zeros(3), GRAVITY), c_stereo, 0.0, 2.0, 1e-6))):
        arrays[f"{name}.lambda_min"] = np.array([rep.lambda_min])
        arrays[f"{name}.lambda_max"] = np.array([rep.lambda_max])
    arrays["transition.Phi"] = np.stack([
        transition_matrix(traj.omega, GRAVITY, t0, t1)
        for t0, t1 in ((0.0, 0.05), (1.0, 1.0), (0.37, 2.9), (12.3, 15.0))])
    table = _held_table(ds.imu)
    arrays["table.R"] = table.R
    arrays["table.query"] = np.stack([table((k + 0.37) / 200.0)
                                      for k in range(len(table.R))])
    arrays.update(_simulate_and_analyze())
    arrays.update(_masked_mono_analyze())
    arrays.update(_estimate_trace(seconds))
    arrays.update(_static())
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
            if key.startswith(("analyze.", "gramian.", "uniform.")):
                diff, kind = diff / np.abs(a), "relative |diff|"
            detail = (f"DIFFERS (max {kind} {diff.max():.3g}, "
                      f"last step {diff[-1].max():.3g})")
        same &= detail == "identical"
        print(f"{key:26s} {a.shape[0]:5d} rows  {detail}")
    print("all outputs bit-identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
