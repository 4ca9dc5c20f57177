"""Command-line front end: simulate, estimate, analyze.

Exit codes: 0 success, 1 invalid input (parse/validation errors), 2 numeric
failure during estimation or analysis.  Every failure prints a one-line
diagnostic on standard error naming the offending file or field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from .dataio import (Dataset, DatasetProvider, TraceRecord, apply_overrides,
                     interpolating_imu, load_config, load_dataset,
                     save_dataset, write_trace)
from .errors import (CameraOnLandmarkError, InsufficientHistoryError,
                     NonFiniteStateError, SingularInnovationError,
                     TooFewLandmarksError, VisnavError)
from .geom import AttitudeTable, dist_identity
from .hybrid import run as hybrid_run
# transition_matrix stays importable here: the benchmark's span tracer
# (perfbench/tracer.py) wraps it in this namespace.
from .observability import (check_mono_motion,  # noqa: F401
                            check_stereo_condition, classify_static_degeneracy,
                            closed_form_transition, gramian_discrete,
                            transition_matrix)
from .measurement import Frames, mode_arrays, mode_cameras, stacked_output
# innovation_* and make_{bearing,position}_frame stay importable here: the
# benchmark's span tracer (perfbench/tracer.py) wraps them in this namespace.
from .observer import (GainConfig, innovation_mono,  # noqa: F401
                       innovation_position, innovation_stereo, run_continuous)
from .sim import (EightTrajectory, apply_noise,  # noqa: F401
                  apply_position_noise, default_stereo_rig, make_bearing_frame,
                  make_position_frame, sample_landmarks, synth_bearings,
                  synth_positions)

_NUMERIC_ERRORS = (NonFiniteStateError, SingularInnovationError,
                   np.linalg.LinAlgError, FloatingPointError, OverflowError)


@functools.cache      # built on the first main call, once per process
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="visnav",
        description="Landmark-aided inertial navigation: simulation, "
                    "estimation, and observability analysis.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, data=False):
        sp.add_argument("--config", required=True, help="run config file")
        if data:
            sp.add_argument("--data", required=True, help="dataset directory")
        sp.add_argument("--out", required=True, help="output path")
        sp.add_argument("--seed", type=int, default=None,
                        help="override config seed")
        sp.add_argument("--mode", default=None,
                        choices=["position3d", "stereo", "monocular"],
                        help="override config mode")
        sp.add_argument("--duration", type=float, default=None,
                        help="override config duration [s]")

    common(sub.add_parser("simulate", help="generate a synthetic dataset"))
    common(sub.add_parser("estimate", help="run the estimator on a dataset"),
           data=True)
    common(sub.add_parser("analyze", help="observability report for a dataset"),
           data=True)
    return ap


def _simulate(cfg, out_dir):
    dt = 1.0 / cfg.imu_rate
    n = int(round(cfg.duration * cfg.imu_rate))
    times = np.arange(n + 1) * dt
    # the rounded sample count may run up to dt/2 past the duration
    traj = EightTrajectory(t_end=max(cfg.duration, times[-1]))
    cams = mode_cameras(cfg.mode, default_stereo_rig(cfg.baseline))
    lms = sample_landmarks(cfg.n_landmarks, seed=cfg.seed)

    st = traj.state(times)
    # per sample 3 rate draws, then 3 accel draws, of the positive sigmas;
    # none when both are off, and a Python int count: a first normal draw,
    # and a numpy integer in its size, page in 64-170 KB more of numpy
    imu = np.stack([st.omega, st.a], axis=1)
    sigma = np.array([cfg.imu_noise_omega, cfg.imu_noise_accel])
    on = sigma > 0
    if on.any():
        imu[:, on] += np.random.default_rng([cfg.seed, 1]).normal(
            size=(times.size, np.count_nonzero(on), 3)) * sigma[on, None]
    imu_rows = np.column_stack([times, imu.reshape(-1, 6)])
    gt_rows = np.column_stack([times, st.R.reshape(-1, 9), st.p, st.v])

    # the frames at k / vision_rate, k = 1, 2, ..., from one stacked truth
    # query; frame k's noise is drawn from the seed [seed, 2 or 3, k]
    n_frames = int(np.floor(cfg.duration * cfg.vision_rate + 1e-9))
    frame_times = np.arange(1, n_frames + 1) / cfg.vision_rate
    st = traj.state(frame_times)
    position = cfg.mode == "position3d"
    if position:
        Y = synth_positions(st, lms)[:, :, None]
        noise, sigma, stream = apply_position_noise, cfg.position_noise, 3
    else:
        Y = synth_bearings(st, lms, cams)
        noise, sigma, stream = apply_noise, cfg.bearing_noise, 2
    if sigma > 0:
        Y = np.array([noise(Yk, sigma, [cfg.seed, stream, k])
                      for k, Yk in enumerate(Y, 1)]).reshape(Y.shape)
    frames = Frames(frame_times, Y, np.ones(Y.shape[:-1], dtype=bool))

    save_dataset(out_dir, Dataset(imu=imu_rows, landmarks=lms,
                                  bearings=None if position else frames,
                                  positions=frames if position else None,
                                  groundtruth=gt_rows, extrinsics=cams))
    return 0


def _require_cameras(cfg, ds):
    need = cfg.required_cameras()
    if len(ds.extrinsics) < need:
        raise VisnavError(
            f"extrinsics.csv: mode {cfg.mode!r} needs {need} camera(s), "
            f"dataset has {len(ds.extrinsics)}")


def _truth_lookup(ds):
    if ds.groundtruth is None:
        return None
    table = {round(float(row[0]) * 1e9): row for row in ds.groundtruth}

    def fn(t):
        return table.get(round(float(t) * 1e9))

    return fn


def _trace_records(times, states, truth_fn):
    records = []
    for t, est in zip(times, states):
        att = pos = vel = float("nan")
        if truth_fn is not None:
            row = truth_fn(t)
            if row is not None:
                R = row[1:10].reshape(3, 3)
                att = dist_identity(R @ est.R.T)
                pos = float(np.linalg.norm(row[10:13] - est.p))
                vel = float(np.linalg.norm(row[13:16] - est.v))
        records.append(TraceRecord(t=float(t), att_err=att, pos_err=pos,
                                   vel_err=vel, p=est.p, v=est.v, R=est.R))
    return records


def _estimate(cfg, data_dir, out_path):
    ds = load_dataset(data_dir)
    _require_cameras(cfg, ds)
    gains = cfg.gain_config()
    imu = np.asarray(ds.imu)
    t0 = float(imu[0, 0])
    t_end = min(float(imu[-1, 0]), t0 + cfg.duration)
    dt = (imu[-1, 0] - imu[0, 0]) / (imu.shape[0] - 1) if imu.shape[0] > 1 \
        else 1.0 / cfg.imu_rate
    est0 = cfg.initial_estimate()

    if cfg.estimator == "continuous":
        times, states = run_continuous(est0, interpolating_imu(imu),
                                       DatasetProvider(ds, cfg.mode), gains,
                                       t_end=t_end, dt=dt, t0=t0)
    else:
        # the frames within hybrid.run's first and last node (and its hair)
        t_last = t0 + dt * round((t_end - t0) / dt)
        frames = ds.frames(cfg.mode)
        frames = frames[(t0 - 1e-12 <= frames.t)
                        & (frames.t <= t_last + 1e-12)]
        times, states, _ = hybrid_run(
            est0, interpolating_imu(imu), frames, ds.landmarks, gains,
            mode=cfg.mode, cams=ds.extrinsics, ncov=cfg.noise_covariances(),
            t_end=t_end, dt=dt, t0=t0)

    write_trace(out_path, _trace_records(times, states, _truth_lookup(ds)))
    return 0


def _gramian_windows(cfg, ds):
    frames = ds.frames(cfg.mode)
    if not len(frames):
        return []
    imu = np.asarray(ds.imu)
    w = cfg.gramian_window
    t0 = float(imu[0, 0])
    n = int((frames.t[-1] - t0 + 1e-9) // w)
    # the frames from the first window start to the last window end, in
    # integer nanoseconds as _truth_lookup, and their C and R(t_f) at once
    ns = np.round(frames.t * 1e9)
    lo, hi = np.searchsorted(ns, [round(t0 * 1e9), round((t0 + n * w) * 1e9)])
    frames, ns = frames[lo:hi], ns[lo:hi]
    p, rig = mode_arrays(cfg.mode, ds.extrinsics, ds.landmarks)
    cs = stacked_output(p, frames, rig)[1]
    attitude = AttitudeTable(imu[:, 0], imu[:, 1:4])
    rotations = attitude(frames.t)
    gravity = np.array(GainConfig().gravity, dtype=float)
    out = []
    for k in range(n):
        start, end = t0 + k * w, t0 + (k + 1) * w
        i, j = np.searchsorted(ns, [round(start * 1e9), round(end * 1e9)])
        if i < j:
            # Phi(t_f, start) of each frame straight off the attitude table;
            # a frame on the window start may read a hair below it
            t_s = min(start, frames.t[i])
            phis = closed_form_transition(gravity, frames.t[i:j] - t_s,
                                          attitude(t_s).T @ rotations[i:j])
            rep = gramian_discrete(phis, cs[i:j], mu=cfg.gramian_mu,
                                   window=(start, end))
            entry = {"status": "ok", **asdict(rep)}
        else:
            entry = {"status": "skipped", "window": [start, end],
                     "reason": "no measurements in window"}
        out.append(entry)
    return out


def _nearest_rows(ts, times):
    """np.argmin(np.abs(ts - t)) for each t of times over the ascending ts,
    from one search: the row at or above t or the one below it, the first
    of equal distances as argmin takes it."""
    hi = np.minimum(np.searchsorted(ts, times), len(ts) - 1)
    lo = np.maximum(hi - 1, 0)
    k = np.where(np.abs(ts[lo] - times) <= np.abs(ts[hi] - times), lo, hi)
    while True:     # rows below k whose rounded distance ties with k's
        tie = (k > 0) & (np.abs(ts[k - 1] - times) == np.abs(ts[k] - times))
        if not tie.any():
            return k
        k = k - tie


def _mono_motion_entry(cfg, ds, witness):
    if ds.groundtruth is None:
        return {"status": "skipped", "reason": "groundtruth.csv not present"}
    if not ds.bearings:
        return {"status": "skipped", "reason": "bearings.csv not present"}
    if not ds.extrinsics:
        return {"status": "skipped", "reason": "extrinsics.csv not present"}
    cam = sorted(ds.extrinsics, key=lambda c: c.cam_id)[0]
    gt = np.asarray(ds.groundtruth)
    ids = list(witness) if witness else [lm.id for lm in ds.landmarks[:3]]
    # the frames in which the first camera (column 0) sees every witness
    fr, lm_ids = ds.bearings, sorted(lm.id for lm in ds.landmarks)
    rows = [lm_ids.index(i) for i in ids]
    kept = fr.seen[:, rows, 0].all(axis=1)
    times = fr.t[kept]
    Rs = gt[_nearest_rows(gt[:, 0], times), 1:10].reshape(-1, 3, 3)
    series = {i: (Rs @ (cam.R @ fr.Y[kept, r, 0, :, None]))[..., 0]
              for i, r in zip(ids, rows)}
    try:
        ok = check_mono_motion(times, series, ids, cfg.mono_epsilon,
                               cfg.mono_window)
    except InsufficientHistoryError as exc:
        return {"status": "skipped", "reason": str(exc)}
    return {"status": "ok", "satisfied": bool(ok), "witness": ids}


def _static_entry(cfg, ds):
    if ds.groundtruth is None:
        return {"status": "skipped", "reason": "groundtruth.csv not present"}
    gt = np.asarray(ds.groundtruth)
    p_prime = gt[0, 10:13]
    if ds.extrinsics:
        cam = sorted(ds.extrinsics, key=lambda c: c.cam_id)[0]
        p_prime = p_prime + gt[0, 1:10].reshape(3, 3) @ cam.p
    try:
        v = classify_static_degeneracy(ds.landmarks, p_prime,
                                       GainConfig().gravity)
    except (TooFewLandmarksError, CameraOnLandmarkError) as exc:
        return {"status": "skipped", "reason": str(exc)}
    return {"status": "ok", **asdict(v)}


def _analyze(cfg, data_dir, out_path):
    ds = load_dataset(data_dir)
    if ds.frames(cfg.mode):
        _require_cameras(cfg, ds)
    gravity = np.array(GainConfig().gravity, dtype=float)
    if len(ds.landmarks) >= 3:
        ok, witness = check_stereo_condition(ds.landmarks, gravity,
                                             cfg.stereo_eps_area,
                                             cfg.stereo_eps_grav)
        stereo_entry = {"status": "ok", "satisfied": bool(ok),
                        "witness": list(witness) if witness else None}
    else:
        ok, witness = False, None
        stereo_entry = {"status": "skipped",
                        "reason": "needs at least 3 landmarks"}
    report = {
        "windows": _gramian_windows(cfg, ds),
        "stereo_condition": stereo_entry,
        "mono_motion": _mono_motion_entry(cfg, ds, witness),
        "static_degeneracy": _static_entry(cfg, ds),
    }
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise VisnavError(f"cannot write {out_path}: {exc}") from exc
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config), seed=args.seed,
                              mode=args.mode, duration=args.duration)
        if args.command == "simulate":
            return _simulate(cfg, args.out)
        if args.command == "estimate":
            return _estimate(cfg, args.data, args.out)
        return _analyze(cfg, args.data, args.out)
    except _NUMERIC_ERRORS as exc:
        print(f"visnav: numeric failure: {exc}", file=sys.stderr)
        return 2
    except VisnavError as exc:
        print(f"visnav: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
