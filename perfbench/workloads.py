"""The four benchmark workloads.

Each workload has a set-up (program work done before the timed operation,
repeated to take a median), a round (the timed operations) and output
checks against the independent computations of `oracle`.  The program is
driven through `visnav.cli.main` and `visnav.observer.run_continuous`; the
benchmark builds the program's input objects (trajectory, landmarks,
cameras, sources) and nothing else of it.
"""

from __future__ import annotations

import json
import os

import numpy as np

import oracle
from visnav import cli, observer, sim
from visnav.sim import BearingFrame, CameraExtrinsics, Landmark, PositionFrame

IMU_RATE = 200.0
DT = 1.0 / IMU_RATE
BASELINE = 0.2
INIT_ANGLE = 0.5 * np.pi
LINEARITY_TOL = 1e-9                # acceptance criterion 2
SO3_TOL = 1e-9
# Relative tolerance of the window eigenvalues against the closed-form
# oracle.  visnav's RK4 transition matrix takes its last stage of each IMU
# interval from the next zero-order-hold sample, which puts an error of
# ~1e-3 on Phi over a window; lambda_max moves ~1e-5 relative, lambda_min by
# the same absolute amount over a smaller eigenvalue (up to 1.5e-3 seen).
GRAMIAN_RTOL = {"lambda_min": 1e-2, "lambda_max": 1e-4}
# Hybrid run at the noise levels of acceptance criterion 8 (std = sqrt(cov)).
BEARING_NOISE = 0.01
IMU_NOISE_OMEGA = float(np.sqrt(0.0024))
IMU_NOISE_ACCEL = float(np.sqrt(0.028))


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's reference."""


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


def cameras():
    half = 0.5 * BASELINE
    return [CameraExtrinsics(1, np.eye(3), np.array([0.0, -half, 0.0])),
            CameraExtrinsics(2, np.eye(3), np.array([0.0, half, 0.0]))]


def grid(duration):
    return np.arange(int(round(duration * IMU_RATE)) + 1) * DT


# ---------------------------------------------------------------------------
# checks shared by the estimator workloads


def truth_frame(mode, t, R, p, lms, cams):
    """Noise-free measurement frame built from the reference truth."""
    if mode == "position3d":
        return PositionFrame(t=t, obs={i: R.T @ (lm - p)
                                       for i, lm in enumerate(lms)})
    obs = {(c.cam_id, i): oracle.bearing(R, p, lm, c.R, c.p)
           for c in cams for i, lm in enumerate(lms)}
    return BearingFrame(t=t, obs=obs)


def innovation(mode, est, frame, lm_objs, cams):
    if mode == "position3d":
        return observer.innovation_position(est, frame, lm_objs)
    if mode == "stereo":
        return observer.innovation_stereo(est, frame, cams, lm_objs)
    return observer.innovation_mono(est, frame, cams[0], lm_objs)


def reference_c(mode, frame, lms, cams):
    if mode == "position3d":
        return oracle.output_matrix(lms, [np.eye(3)] * len(lms))
    projs = [sum(oracle.projector(c.R @ frame.obs[(c.cam_id, i)])
                 for c in cams) for i in range(len(lms))]
    return oracle.output_matrix(lms, projs)


def check_states(mode, times, states, truth, lms, cams, bounds, lyapunov):
    """Manifold, covariance, linearity, final-error and (optionally)
    Lyapunov checks of one estimator run."""
    lm_objs = [Landmark(i, lm) for i, lm in enumerate(lms)]
    cams = cams if mode != "monocular" else cams[:1]
    for est in states:
        require(np.abs(est.R.T @ est.R - np.eye(3)).max() <= SO3_TOL
                and abs(np.linalg.det(est.R) - 1.0) <= SO3_TOL,
                "estimated attitude left SO(3)")
        require(np.array_equal(est.P, est.P.T), "P is not symmetric")
        try:
            np.linalg.cholesky(est.P)
        except np.linalg.LinAlgError:
            raise CheckFailed("P is not positive definite") from None
    for k in np.linspace(0, len(times) - 1, 5).round().astype(int):
        R, p, v = truth.at(times[k])
        frame = truth_frame(mode, float(times[k]), R, p, lms, cams)
        sy, C = innovation(mode, states[k], frame, lm_objs, cams)
        x = oracle.error_state(R, p, v, states[k])
        require(np.abs(sy - C @ x).max() <= LINEARITY_TOL,
                f"sigma_y != C x at t={times[k]:.3f}")
        require(np.abs(C - reference_c(mode, frame, lms, cams)).max() <= 1e-12,
                f"output matrix differs from its definition at t={times[k]:.3f}")
    R, p, v = truth.at(times[-1])
    est = states[-1]
    errs = (oracle.dist_identity(R @ est.R.T), np.linalg.norm(p - est.p),
            np.linalg.norm(v - est.v))
    for name, err, bound in zip(("attitude", "position", "velocity"),
                                errs, bounds):
        require(err < bound, f"{mode}: final {name} error {err:.3g} >= {bound}")
    if lyapunov:
        lp = np.array([float(x @ np.linalg.solve(est.P, x)) for x, est in
                       ((oracle.error_state(*truth.at(t), est), est)
                        for t, est in zip(times, states))])
        allowed = 1e-6 * lp[:-1] + 1e-12 * lp[0]     # acceptance criterion 3
        require(np.all(np.diff(lp) <= allowed),
                f"{mode}: Lyapunov value increased")


# ---------------------------------------------------------------------------
# sim-continuous


class SimContinuous:
    """The three reference continuous runs through run_continuous with the
    *Source classes, 90 degrees of attitude error about a seeded axis."""

    name = "sim-continuous"
    duration = 2.0                      # simulated seconds per mode
    modes = ("position3d", "stereo", "monocular")
    n_windows = 0
    # Final-error bounds (attitude distance, position [m], velocity [m/s]).
    # After 2 s from 90 degrees (distance 0.707) the estimate is still in
    # its transient; the bounds catch divergence, the Lyapunov check the
    # convergence.
    bounds = (0.65, 4.0, 3.0)

    def __init__(self, seed, workdir):
        _, self.lms = oracle.layout_seed(seed)
        u = np.random.default_rng([seed, 7]).normal(size=3)
        self.R0 = oracle.expm_so3(INIT_ANGLE * u / np.linalg.norm(u))
        self.truth = oracle.Truth(grid(self.duration))

    def setup(self):
        self.traj = sim.EightTrajectory(t_end=self.duration)
        lm_objs = [Landmark(i, lm) for i, lm in enumerate(self.lms)]
        cams = cameras()
        self.sources = {
            "position3d": observer.PositionSource(self.traj, lm_objs),
            "stereo": observer.StereoBearingSource(self.traj, lm_objs, cams),
            "monocular": observer.MonoBearingSource(self.traj, lm_objs,
                                                    cams[0]),
        }

    def ops(self):
        for mode in self.modes:
            yield mode, self._run(mode)

    def _run(self, mode):
        def op():
            est0 = observer.ObserverState.initial(R=self.R0)
            return observer.run_continuous(est0, self.traj.imu,
                                           self.sources[mode],
                                           observer.GainConfig(),
                                           t_end=self.duration)
        return op

    def check(self, mode, result):
        times, states = result
        require(np.allclose(times, self.truth.times, rtol=0, atol=1e-12),
                "run_continuous time grid")
        check_states(mode, times, states, self.truth, self.lms, cameras(),
                     self.bounds, lyapunov=True)


# ---------------------------------------------------------------------------
# dataset workloads through the CLI


class _Captured:
    """Keeps the (times, states) that visnav.cli's estimator call returns,
    so the checks can read P and the auxiliary vectors that the trace file
    does not hold.  One extra Python call per estimate."""

    def __init__(self, attr):
        self.attr = attr
        self.result = None

    def __enter__(self):
        self.orig = getattr(cli, self.attr)

        def keep(*args, **kwargs):
            out = self.orig(*args, **kwargs)
            self.result = out
            return out

        setattr(cli, self.attr, keep)
        return self

    def __exit__(self, *exc):
        setattr(cli, self.attr, self.orig)


def _load_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class _DatasetWorkload:
    """`visnav simulate` in set-up, one CLI call per timed operation."""

    config = {}
    n_windows = 0
    imu_noise = (0.0, 0.0)              # std of the rate and accel noise
    bearing_noise = 0.0

    def __init__(self, seed, workdir):
        self.seed, self.lms = oracle.layout_seed(seed)
        self.cfg_path = os.path.join(workdir, "run.cfg")
        self.data_dir = os.path.join(workdir, "data")
        self.out_path = os.path.join(workdir, "out")
        keys = {"mode": "stereo", "duration": self.duration, "seed": self.seed,
                "n_landmarks": oracle.N_LANDMARKS, "baseline": BASELINE,
                "imu_rate": IMU_RATE, "vision_rate": 20.0,
                "init_att_angle": INIT_ANGLE, **self.config}
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in keys.items())
        self.truth = oracle.Truth(grid(self.duration))
        self._dataset_checked = False

    def setup(self):
        code = cli.main(["simulate", "--config", self.cfg_path,
                         "--out", self.data_dir])
        require(code == 0, f"visnav simulate exited with {code}")

    def check_dataset_once(self):
        if not self._dataset_checked:
            self.check_dataset()
            self._dataset_checked = True

    def check_dataset(self):
        """The simulated dataset agrees with the closed-form truth."""
        lm = _load_csv(os.path.join(self.data_dir, "landmarks.csv"))
        require(np.array_equal(lm[:, 0], np.arange(len(self.lms)))
                and np.abs(lm[:, 1:] - self.lms).max() <= 1e-12,
                "landmarks.csv differs from the seeded layout")
        ext = _load_csv(os.path.join(self.data_dir, "extrinsics.csv"))
        for row, cam in zip(ext, cameras()):
            require(row[0] == cam.cam_id
                    and np.abs(row[1:10] - cam.R.ravel()).max() == 0.0
                    and np.abs(row[10:13] - cam.p).max() <= 1e-15,
                    "extrinsics.csv differs from the stereo rig")
        gt = _load_csv(os.path.join(self.data_dir, "groundtruth.csv"))
        times = self.truth.times
        require(gt.shape == (times.size, 16)
                and np.abs(gt[:, 0] - times).max() <= 1e-12,
                "groundtruth.csv time grid")
        imu = _load_csv(os.path.join(self.data_dir, "imu.csv"))
        require(imu.shape == (times.size, 7), "imu.csv shape")
        w_res, a_res = [], []
        for k, t in enumerate(times):
            R, p, v = self.truth.at(t)
            require(np.abs(gt[k, 1:10] - R.ravel()).max() <= 1e-8
                    and np.abs(gt[k, 10:13] - p).max() <= 1e-12
                    and np.abs(gt[k, 13:16] - v).max() <= 1e-12,
                    f"groundtruth.csv row {k + 1}")
            vdot = np.array([-2.0 * np.sin(t), -4.0 * np.sin(2.0 * t), 0.0])
            w_res.append(imu[k, 1:4] - oracle.omega(t))
            a_res.append(imu[k, 4:7] - R.T @ (vdot - oracle.GRAVITY))
        for res, sigma, what in ((w_res, self.imu_noise[0], "rate"),
                                 (a_res, self.imu_noise[1], "accel")):
            res = np.asarray(res)
            if sigma == 0.0:
                require(np.abs(res).max() <= 1e-8, f"imu.csv {what} column")
            else:
                require(abs(res.std() / sigma - 1.0) < 0.15,
                        f"imu.csv {what} noise level")
        br = _load_csv(os.path.join(self.data_dir, "bearings.csv"))
        n_frames = int(np.floor(self.duration * 20.0 + 1e-9))
        require(br.shape[0] == n_frames * 2 * len(self.lms),
                "bearings.csv row count")
        ang = []
        cams = {c.cam_id: c for c in cameras()}
        for row in br:
            cam = cams[int(row[1])]
            R, p, _ = self.truth.at(row[0])
            y = oracle.bearing(R, p, self.lms[int(row[2])], cam.R, cam.p)
            ang.append(np.linalg.norm(np.cross(y, row[3:6])))
        ang = np.asarray(ang)
        if self.bearing_noise == 0.0:
            require(ang.max() <= 1e-8, "bearings.csv differs from truth")
        else:
            rms = float(np.sqrt(np.mean(ang ** 2)))
            require(abs(rms / (np.sqrt(2.0) * self.bearing_noise) - 1.0) < 0.2,
                    "bearings.csv noise level")


class _Estimate(_DatasetWorkload):
    capture = "run_continuous"

    def ops(self):
        yield "stereo", self._estimate

    def _estimate(self):
        with _Captured(self.capture) as cap:
            code = cli.main(["estimate", "--config", self.cfg_path,
                             "--data", self.data_dir, "--out", self.out_path])
        require(code == 0, f"visnav estimate exited with {code}")
        return cap.result

    def check(self, mode, result):
        self.check_dataset_once()
        times, states = result
        require(np.abs(times - self.truth.times).max() <= 1e-12,
                "estimate time grid")
        trace = _load_csv(self.out_path)
        require(trace.shape == (times.size, 19), "trace shape")
        for row, t, est in zip(trace, times, states):
            require(row[0] == t and np.array_equal(row[4:7], est.p)
                    and np.array_equal(row[7:10], est.v)
                    and np.array_equal(row[10:19], est.R.ravel()),
                    f"trace row at t={t:.3f} differs from the estimate")
            R, p, v = self.truth.at(t)
            errs = (oracle.dist_identity(R @ est.R.T),
                    np.linalg.norm(p - est.p), np.linalg.norm(v - est.v))
            require(np.abs(row[1:4] - errs).max() <= 1e-8,
                    f"trace error columns at t={t:.3f}")
        check_states(mode, times, states, self.truth, self.lms, cameras(),
                     self.bounds, lyapunov=False)


class DatasetContinuous(_Estimate):
    """`visnav estimate` with the continuous estimator on a noise-free
    stereo dataset; the first vision frame arrives at t = 0.05."""

    name = "dataset-continuous"
    duration = 1.0
    config = {"estimator": "continuous"}
    bounds = (0.69, 2.0, 3.0)       # 1 s from a 90 degree error (0.707)


class DatasetHybrid(_Estimate):
    """`visnav estimate` with the flow/jump estimator, k_r = 20, under the
    IMU and bearing noise of acceptance criterion 8."""

    name = "dataset-hybrid"
    duration = 4.0
    capture = "hybrid_run"
    config = {"estimator": "hybrid", "k_r": 20.0,
              "bearing_noise": BEARING_NOISE,
              "imu_noise_omega": IMU_NOISE_OMEGA,
              "imu_noise_accel": IMU_NOISE_ACCEL}
    imu_noise = (IMU_NOISE_OMEGA, IMU_NOISE_ACCEL)
    bearing_noise = BEARING_NOISE
    bounds = (0.3, 4.0, 3.0)        # 4 s at k_r = 20; slow layouts reach 0.17

    def _estimate(self):
        out = super()._estimate()
        return out[0], out[1]


class Analyze(_DatasetWorkload):
    """`visnav analyze` on a noise-free stereo dataset: three 2 s Gramian
    windows plus the stereo, monocular-motion and static checks."""

    name = "analyze"
    duration = 6.0
    window = 2.0
    mu = 1e-6

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.oracle_windows = self._windows()
        self.n_windows = len(self.oracle_windows)

    def ops(self):
        yield "stereo", self._analyze

    def _analyze(self):
        code = cli.main(["analyze", "--config", self.cfg_path,
                         "--data", self.data_dir, "--out", self.out_path])
        require(code == 0, f"visnav analyze exited with {code}")
        with open(self.out_path, encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, mode, report):
        self.check_dataset_once()
        windows = report["windows"]
        require(len(windows) == self.n_windows, "number of Gramian windows")
        for win, (start, lo, hi) in zip(windows, self.oracle_windows):
            require(win["status"] == "ok"
                    and abs(win["window"][0] - start) <= 1e-9,
                    f"window at {start}")
            for key, ref in (("lambda_min", lo), ("lambda_max", hi)):
                require(abs(win[key] - ref) <= GRAMIAN_RTOL[key] * abs(ref),
                        f"window {start}: {key} {win[key]:.9g} vs "
                        f"oracle {ref:.9g}")
            require(win["verdict"] is (win["lambda_min"] >= self.mu)
                    and win["verdict"], f"window {start}: verdict")
        ids = list(range(len(self.lms)))
        witness = oracle.stereo_witness(self.lms, ids)
        st = report["stereo_condition"]
        require(st["status"] == "ok" and st["satisfied"] is True
                and tuple(st["witness"]) == witness,
                "stereo condition witness")
        mono = report["mono_motion"]
        require(mono["status"] == "ok" and mono["satisfied"] is True,
                "monocular motion check on the figure-eight")
        require(report["static_degeneracy"]["case_label"] == "generic",
                "static degeneracy of a random layout")

    def _windows(self):
        """(start, lambda_min, lambda_max) of each window from the
        closed-form transition matrix over the zero-order-hold IMU."""
        imu_t = self.truth.times
        imu_w = np.array([oracle.omega(t) for t in imu_t])
        cams = cameras()
        frame_t = np.arange(1, int(self.duration * 20.0 + 1e-9) + 1) / 20.0
        out = []
        start = 0.0
        while start + self.window <= frame_t[-1] + 1e-9:
            phis, cs = [], []
            for t in frame_t[(frame_t >= start)
                             & (frame_t < start + self.window)]:
                R, p, _ = self.truth.at(t)
                frame = truth_frame("stereo", t, R, p, self.lms, cams)
                phis.append(oracle.phi_zoh(imu_t, imu_w, start, t))
                cs.append(reference_c("stereo", frame, self.lms, cams))
            out.append((start, *oracle.gramian_extremes(phis, cs)))
            start += self.window
        return out


WORKLOADS = {w.name: w for w in (SimContinuous, DatasetContinuous,
                                 DatasetHybrid, Analyze)}
