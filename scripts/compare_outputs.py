"""Compare the estimator outputs of two visnav source trees bit for bit.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC [--seconds S]

OLD_SRC and NEW_SRC are directories that contain the `visnav` package
(the `src/` of two checkouts).  Each tree runs, in a fresh process with it
on PYTHONPATH, the three sim-driven reference runs of the acceptance suite
(position3d, stereo, monocular) and the measurement-free flow
(`run_continuous` with no provider, the path the hybrid estimator takes
between frames).  The script reports, per run and field, whether R, p, v,
e and P agree exactly at every IMU step, and exits 1 on any difference.
"""

import argparse
import os
import subprocess
import sys
import tempfile

import numpy as np

FIELDS = ("R", "p", "v", "e", "P")


def dump(path, seconds):
    from visnav.geom import exp_so3
    from visnav.observer import (GainConfig, MonoBearingSource, ObserverState,
                                 PositionSource, StereoBearingSource,
                                 run_continuous)
    from visnav.sim import EightTrajectory, default_stereo_rig, sample_landmarks

    traj = EightTrajectory()
    lms, cams = sample_landmarks(5, seed=0), default_stereo_rig()
    runs = {"position3d": PositionSource(traj, lms),
            "stereo": StereoBearingSource(traj, lms, cams),
            "monocular": MonoBearingSource(traj, lms, cams[0]),
            "flow": None}
    R0 = exp_so3(0.5 * np.pi * np.ones(3) / np.sqrt(3.0))
    arrays = {}
    for name, provider in runs.items():
        _, states = run_continuous(ObserverState.initial(R=R0), traj.imu,
                                   provider, GainConfig(), t_end=seconds)
        for f in FIELDS:
            arrays[f"{name}.{f}"] = np.stack([getattr(s, f) for s in states])
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
            detail = f"DIFFERS (max |diff| {np.abs(a - b).max():.3g})"
        same &= detail == "identical"
        print(f"{key:14s} {a.shape[0]} steps  {detail}")
    print("all outputs bit-identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
