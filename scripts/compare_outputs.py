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
- `visnav simulate` of that stereo dataset under the sensor noise of the
  benchmark's dataset-hybrid workload (bearing std 0.01, IMU std
  sqrt(0.0024) and sqrt(0.028); `simulate.noisy`), and of a position3d
  one with position std 0.01 (`simulate.noisy-position3d`), keeping the
  bytes of every file;
- `visnav analyze --mode monocular` on that dataset with every frame
  1/600 s off the IMU grid, landmark 2 left out of every third frame and
  camera 1's bearing of landmark 4 out of every fourth, edited in the
  rows of its `bearings.csv` (`analyze.mono`);
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
- `load_dataset` and `read_trace` on the hand-edited tables of HAND_EDITED
  (`load.*`): empty and whitespace-only lines, CRLF line ends, `1_0`, and
  the forms `1e5`, ` 2 `, `+3`, `.5`, `5.`, `-0` and `1E-320` (and `nan`,
  `inf`, `-inf` in the trace, which no dataset table accepts), so that
  both numpy's parse and the row loop of `visnav.dataio` are read.  These
  keys hold the bit patterns of the loaded values, so that a sign of zero
  or a nan compares exactly; the bearings and positions are read back
  from the tables `save_dataset` writes of them.
Every input above is built through the trajectory's stacked queries
(`EightTrajectory.state` and `rotation` of an array of times; one time as
a one-row stack), so both trees get the same inputs.  The in-memory
datasets and the frames of the hybrid runs are built as frame lists and
handed to each tree in its own form (`_stream`): the lists where datasets
hold frame lists, or else their stacked records.  The runs of the
`simulate.*`, `analyze.*`, `analyze.mono.*` and `estimate.*` keys read
each tree's own `visnav simulate` output instead.
The script reports, per run and field, whether the outputs agree exactly
(R, p, v, e and P at every IMU step, the attitude at every query, the
simulated columns and bytes, the window eigenvalues, each Phi, the trace
columns, the static verdicts and matrices, the loaded values),
or else their max |diff| over the run beside their |diff| at the last step
(last window or query; both relative for the eigenvalues), so that a
transient that later decays shows as such.  A row of an R, p, v, e or P
field (one step, query or trace row) reports its largest |diff| relative
to that row's largest entry: dead-reckoning rows reach |p| ~ 1.8e3 m and
|P| ~ 3.9e6, where an absolute figure reads roundoff as 5e-8.  It exits 1
on any difference.
"""

import argparse
import json
import math
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

# the sensor noise of the benchmark's dataset-hybrid workload, and the
# position noise of a position3d dataset
NOISE = (f"imu_noise_omega = {math.sqrt(0.0024)!r}\n"
         f"imu_noise_accel = {math.sqrt(0.028)!r}\n")
NOISY_CFGS = {
    "noisy": ESTIMATE_CFG + NOISE + "bearing_noise = 0.01\n",
    "noisy-position3d": (ESTIMATE_CFG + NOISE + "position_noise = 0.01\n")
    .replace("mode = stereo", "mode = position3d"),
}

SIMULATED = ("imu", "groundtruth", "bearings")

STATIC_LABELS = ("generic", "coplanar(a)", "gravity-plane(b)",
                 "camera-aligned(c)", "mixed(d)")

TRACE_COLUMNS = {"t": [0], "att_err": [1], "pos_err": [2], "vel_err": [3],
                 "p": [4, 5, 6], "v": [7, 8, 9], "R": list(range(10, 19))}


# Each table names its parse: empty lines only (numpy), a whitespace-only
# line or a `1_0` (the row loop).
HAND_EDITED = {
    "imu.csv": ("t,wx,wy,wz,ax,ay,az\n\n"
                "0,1e5, 2 ,+3,.5,5.,-0\n"
                "0.005,1E-320,-0.0,1e-5,-.25,9.81,-1e308\n\n"
                "0.01,+0.5,-2.5e-3,4E+2,0,0,1\n"),
    "groundtruth.csv": ("t,r11,r12,r13,r21,r22,r23,r31,r32,r33,"
                        "px,py,pz,vx,vy,vz\n"
                        "0,1,0,0,0,1,0,0,0,1,1e5, 2 ,+3,.5,5.,-0\n"
                        "  \t\n"
                        "0.01,0,-1,0,1.,0,-0,0,0,+1,1E-320,0,0,0,0,0\n"),
    "landmarks.csv": "id,x,y,z\n1_0,.5,5.,-0\n\n3,1e5, 2 ,+3\n",
    "extrinsics.csv": ("cam_id,r11,r12,r13,r21,r22,r23,r31,r32,r33,"
                       "px,py,pz\r\n"
                       "1,1,0,0,0,1,0,0,0,1,0,.1,-0\r\n\r\n"
                       "2,0,-1,0,1,0,0,0,0,1,0,-.1,1E-320\r\n"),
    "bearings.csv": ("t,cam_id,landmark_id,bx,by,bz\n"
                     "0.005,1,3,0,0,1\n0.005,2,10,.6,.8,-0\n\n"
                     "0.01,1,10, 1 ,+0,-0\n"),
    "positions.csv": ("t,landmark_id,x,y,z\n"
                      "0.005,3,1e5, 2 ,+3\n   \n"
                      "0.005,10,.5,5.,-0\n0.01,3,1E-320,-1e308,1e308\n"),
    "trace.csv": ("t,att_err,pos_err,vel_err,px,py,pz,vx,vy,vz,"
                  "r11,r12,r13,r21,r22,r23,r31,r32,r33\n"
                  "nan,inf,-inf,1e5, 2 ,+3,.5,5.,-0,1E-320,1,0,0,0,1,0,0,0,1"
                  "\n\n0.05,0,-0,0,1,2,3,4,5,6,0,-1,0,1,0,0,0,0,1\n"),
}

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


def _noisy_simulate():
    """The bytes of the files `visnav simulate` writes under NOISY_CFGS."""
    from visnav.cli import main
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        for key, text in NOISY_CFGS.items():
            data = os.path.join(tmp, key)
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            if main(["simulate", "--config", cfg, "--out", data]) != 0:
                raise SystemExit("visnav simulate failed")
            for name in sorted(os.listdir(data)):
                with open(os.path.join(data, name), "rb") as fh:
                    out[f"simulate.{key}.{name}"] = np.frombuffer(
                        fh.read(), dtype=np.uint8)
    return out


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
    stereo dataset of ANALYZE_CFG with masked, off-grid frames, edited
    in the rows of its bearings.csv."""
    from visnav.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        data, out = os.path.join(tmp, "data"), os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(ANALYZE_CFG)
        if main(["simulate", "--config", cfg, "--out", data]) != 0:
            raise SystemExit("visnav simulate failed")
        path = os.path.join(data, "bearings.csv")
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        k = np.unique(rows[:, 0], return_inverse=True)[1]
        cam, lm = rows[:, 1], rows[:, 2]
        drop = ((lm == 2) & (k % 3 == 0)) | ((cam == 1) & (lm == 4)
                                             & (k % 4 == 1))
        rows = rows[~drop]
        rows[:, 0] += 1.0 / 600.0
        np.savetxt(path, rows, fmt="%.17g", delimiter=",",
                   header="t,cam_id,landmark_id,bx,by,bz", comments="")
        if main(["analyze", "--config", cfg, "--data", data, "--out", out,
                 "--mode", "monocular"]) != 0:
            raise SystemExit("visnav analyze failed")
        with open(out, encoding="utf-8") as fh:
            windows = json.load(fh)["windows"]
    return {f"analyze.mono.{key}": np.array([w[key] for w in windows])
            for key in ("lambda_min", "lambda_max")}


def _hand_edited():
    """The bit patterns of the values loaded from HAND_EDITED; those of
    the frame streams read back from the tables save_dataset writes of
    them (whose %.17g text round-trips every value)."""
    from visnav.dataio import load_dataset, read_trace, save_dataset
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in HAND_EDITED.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(text)
        ds = load_dataset(tmp)
        trace = read_trace(os.path.join(tmp, "trace.csv"))
        saved = os.path.join(tmp, "saved")
        save_dataset(saved, ds)
        streams = {name: np.loadtxt(os.path.join(saved, f"{name}.csv"),
                                    delimiter=",", skiprows=1, ndmin=2)
                   for name in ("bearings", "positions")}
    tables = {
        "imu": ds.imu, "groundtruth": ds.groundtruth,
        "landmarks": [[lm.id, *lm.p] for lm in ds.landmarks],
        "extrinsics": [[c.cam_id, *c.R.ravel(), *c.p] for c in ds.extrinsics],
        **streams, "trace": [r.row() for r in trace]}
    return {f"load.{name}": np.asarray(rows, dtype=float).view(np.uint64)
            for name, rows in tables.items()}

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


def _states(traj, times):
    """The state of traj at each of times, as the rows of one stacked
    query, so that every tree builds its inputs through the stacked path."""
    from visnav.sim import RigidBodyState
    st = traj.state(np.asarray(times, dtype=float))
    return [RigidBodyState(t, st.R[k], st.p[k], st.v[k], st.omega[k],
                           st.a[k]) for k, t in enumerate(st.t.tolist())]


def _stream(frames, cams, lms):
    """A list of frames in the form the tree's datasets and hybrid runs
    take: the list itself where they take frame lists, or else its
    record (Frames) over lms and cams."""
    import visnav.measurement as measurement
    if not hasattr(measurement, "Frames"):
        return frames
    return measurement.frame_arrays(frames, cams, lms)[1]


def dump(path, seconds):
    from visnav.dataio import Dataset, DatasetProvider, interpolating_imu
    from visnav.geom import exp_so3
    from visnav.hybrid import NoiseCovariances, run as hybrid_run
    from visnav.measurement import mode_cameras
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
    frame_times = np.arange(1, int(np.floor(seconds * 20.0 + 1e-9)) + 1) / 20.0
    frame_states = _states(traj, frame_times)
    frames = [make_bearing_frame(st, lms, cams) for st in frame_states]
    # the last of these would fall past the run's end
    offgrid_frames = [make_bearing_frame(st, lms, cams) for st in
                      _states(traj, frame_times[:-1] + 2.4e-3)]
    imu_times = np.arange(int(round(seconds * 200.0)) + 1) / 200.0
    truth = traj.state(imu_times)
    positions = [make_position_frame(st, lms) for st in frame_states]
    ds = Dataset(imu=np.column_stack([imu_times, truth.omega, truth.a]),
                 landmarks=lms, bearings=_stream(frames, cams, lms),
                 positions=_stream(positions, [], lms), extrinsics=cams)

    rig = [cams[0], CameraExtrinsics(cams[1].cam_id,
                                     exp_so3(np.array([0.05, -0.1, 0.2])),
                                     cams[1].p)]
    rig_frames = [make_bearing_frame(st, lms, rig) for st in frame_states]
    for frame in rig_frames[2::3]:
        del frame.obs[(1, 4)]
    rig_ds = Dataset(imu=ds.imu, landmarks=lms,
                     bearings=_stream(rig_frames, rig, lms), extrinsics=rig)

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
            ("hybrid.position3d", "position3d", positions, cams),
            ("hybrid.monocular", "monocular", rig_frames, rig),
            ("hybrid.frame-free", "stereo", [], cams)):
        fs = _stream(fs, mode_cameras(mode, rig_k), lms)
        runs[name] = lambda mode=mode, fs=fs, rig_k=rig_k: hybrid_run(
            ObserverState.initial(R=R0), traj.imu, fs, lms,
            GainConfig(k_r=20.0), mode=mode, cams=rig_k,
            ncov=NoiseCovariances(), t_end=seconds)[1]
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
    arrays["attitude.R"] = traj.rotation((np.arange(6000) + 0.37) / 200.0)
    dummy = ObserverState.initial()

    def c_stereo(t):
        return innovation_stereo(
            dummy, make_bearing_frame(_states(traj, [t])[0], lms, cams),
            cams, lms)[1]

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
    arrays.update(_noisy_simulate())
    arrays.update(_masked_mono_analyze())
    arrays.update(_estimate_trace(seconds))
    arrays.update(_static())
    arrays.update(_hand_edited())
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
    same, width = True, max(map(len, old))
    for key in old:
        a, b = old[key], new[key]
        if a.shape != b.shape:
            detail = f"DIFFERS (shape {a.shape} vs {b.shape})"
        elif np.array_equal(a, b):
            detail = "identical"
        elif key.startswith(("load.", "simulate.noisy")):
            detail = (f"DIFFERS ({np.count_nonzero(a != b)} of {a.size} "
                      f"values)")
        else:
            diff, kind = np.abs(a - b), "|diff|"
            if key.startswith(("analyze.", "gramian.", "uniform.")):
                diff, kind = diff / np.abs(a), "relative |diff|"
            elif key.rsplit(".", 1)[-1] in FIELDS:
                rows = len(a), -1
                diff = diff.reshape(rows).max(axis=1) / np.maximum(
                    np.abs(a).reshape(rows).max(axis=1), np.finfo(float).tiny)
                kind = "|diff| / row max"
            detail = (f"DIFFERS (max {kind} {diff.max():.3g}, "
                      f"last step {diff[-1].max():.3g})")
        same &= detail == "identical"
        print(f"{key:{width}s} {a.shape[0]:6d} rows  {detail}")
    print("all outputs bit-identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
