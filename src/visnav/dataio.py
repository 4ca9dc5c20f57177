"""Dataset files, run configuration, and trace emission.

All on-disk formats are UTF-8 CSV with a header row and `.` decimal marker;
numbers are written with repr-faithful precision so a save/load round trip
reproduces values to better than 1e-12.  See the README for the column
layout of each file.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import IoError, ParseError, ValidationError
from .geom import is_rotation
from .hybrid import NoiseCovariances
# innovation_{position,stereo,mono} stay importable here: the benchmark's
# span tracer (perfbench/tracer.py) wraps them in this namespace.
from .observer import (MODES, FrameSource, GainConfig,  # noqa: F401
                       ObserverState, bearing_blocks, frame_arrays,
                       innovation_mono, innovation_position, innovation_stereo,
                       linear_output, mode_cameras, position_blocks)
from .sim import (BearingFrame, CameraExtrinsics, Landmark, PositionFrame,
                  rig_arrays)

IMU_HEADER = "t,wx,wy,wz,ax,ay,az"
LANDMARKS_HEADER = "id,x,y,z"
BEARINGS_HEADER = "t,cam_id,landmark_id,bx,by,bz"
POSITIONS_HEADER = "t,landmark_id,x,y,z"
GROUNDTRUTH_HEADER = ("t,r11,r12,r13,r21,r22,r23,r31,r32,r33,"
                      "px,py,pz,vx,vy,vz")
EXTRINSICS_HEADER = "cam_id,r11,r12,r13,r21,r22,r23,r31,r32,r33,px,py,pz"
TRACE_HEADER = ("t,att_err,pos_err,vel_err,px,py,pz,vx,vy,vz,"
                "r11,r12,r13,r21,r22,r23,r31,r32,r33")

_ESTIMATORS = ("continuous", "hybrid")


def _write_rows(path, header, rows):
    fmt = ",".join(["%.17g"] * len(header.split(","))) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(fmt % tuple(row))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _read_rows(path, header, n_cols):
    """Yield (line_number, fields-as-floats) for each data row."""
    name = os.path.basename(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ParseError(f"{name}:1: empty file, expected header '{header}'")
    if lines[0].strip() != header:
        raise ParseError(f"{name}:1: bad header {lines[0].strip()!r}, "
                         f"expected {header!r}")
    out = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"{name}:{ln}: expected {n_cols} columns, "
                             f"got {len(parts)}")
        try:
            out.append((ln, [float(p) for p in parts]))
        except ValueError as exc:
            raise ParseError(f"{name}:{ln}: non-numeric field: {exc}") from exc
    return out


def _as_int(name, ln, value, what):
    i = int(round(value))
    if abs(value - i) > 1e-9:
        raise ParseError(f"{name}:{ln}: {what} must be an integer, got {value}")
    return i


def _check_rotation(name, ln, R):
    if not is_rotation(R, tol=1e-6):
        raise ValidationError(f"{name}:{ln}: stored matrix is not a rotation")


@dataclass
class Dataset:
    """One directory's worth of input data.

    imu is an (n, 7) array of rows (t, wx, wy, wz, ax, ay, az); groundtruth,
    when present, is an (n, 16) array of rows (t, r11..r33 row-major, p, v).
    """

    imu: np.ndarray
    landmarks: list
    bearings: list = field(default_factory=list)
    positions: list = field(default_factory=list)
    groundtruth: np.ndarray | None = None
    extrinsics: list = field(default_factory=list)

    def landmark_ids(self):
        return {lm.id for lm in self.landmarks}

    def cam_ids(self):
        return {cam.cam_id for cam in self.extrinsics}

    def frames(self, mode: str) -> list:
        """The frame stream a measurement mode reads."""
        return self.positions if mode == "position3d" else self.bearings


def _load_imu(path):
    rows = _read_rows(path, IMU_HEADER, 7)
    if not rows:
        raise ValidationError(f"{os.path.basename(path)}: no IMU rows")
    data = np.array([vals for _, vals in rows])
    if np.any(np.diff(data[:, 0]) <= 0):
        k = int(np.argmax(np.diff(data[:, 0]) <= 0))
        raise ValidationError(
            f"{os.path.basename(path)}:{rows[k + 1][0]}: timestamps must be "
            f"strictly increasing")
    return data


def _load_landmarks(path):
    name = os.path.basename(path)
    out, seen = [], set()
    for ln, vals in _read_rows(path, LANDMARKS_HEADER, 4):
        lid = _as_int(name, ln, vals[0], "id")
        if lid in seen:
            raise ValidationError(f"{name}:{ln}: duplicate landmark id {lid}")
        seen.add(lid)
        out.append(Landmark(lid, np.array(vals[1:4])))
    if not out:
        raise ValidationError(f"{name}: no landmarks")
    return sorted(out, key=lambda lm: lm.id)


def _group_frames(rows, name, make_key, n_key_cols, lm_ids, cam_ids=None):
    frames = []
    cur_t, cur = None, None
    for ln, vals in rows:
        t = vals[0]
        key = make_key(name, ln, vals)
        if cam_ids is not None and key[0] not in cam_ids:
            raise ValidationError(f"{name}:{ln}: unknown cam_id {key[0]}")
        lm = key[-1] if isinstance(key, tuple) else key
        if lm not in lm_ids:
            raise ValidationError(f"{name}:{ln}: unknown landmark_id {lm}")
        if cur_t is None or t != cur_t:
            if cur_t is not None and t <= cur_t:
                raise ValidationError(
                    f"{name}:{ln}: frame timestamps must be strictly "
                    f"increasing and rows grouped by t")
            cur_t, cur = t, {}
            frames.append((t, cur))
        if key in cur:
            raise ValidationError(f"{name}:{ln}: duplicate observation "
                                  f"{key} at t={t}")
        cur[key] = np.array(vals[1 + n_key_cols:])
    return frames


def _load_bearings(path, lm_ids, cam_ids):
    name = os.path.basename(path)
    rows = _read_rows(path, BEARINGS_HEADER, 6)

    def make_key(nm, ln, vals):
        return (_as_int(nm, ln, vals[1], "cam_id"),
                _as_int(nm, ln, vals[2], "landmark_id"))

    frames = _group_frames(rows, name, make_key, 2, lm_ids, cam_ids)
    out = []
    for t, obs in frames:
        for key, y in obs.items():
            if abs(np.linalg.norm(y) - 1.0) > 1e-6:
                raise ValidationError(
                    f"{name}: bearing {key} at t={t} is not unit length")
        out.append(BearingFrame(t=t, obs=obs))
    return out


def _load_positions(path, lm_ids):
    name = os.path.basename(path)
    rows = _read_rows(path, POSITIONS_HEADER, 5)

    def make_key(nm, ln, vals):
        return _as_int(nm, ln, vals[1], "landmark_id")

    return [PositionFrame(t=t, obs=obs)
            for t, obs in _group_frames(rows, name, make_key, 1, lm_ids)]


def _load_groundtruth(path):
    name = os.path.basename(path)
    rows = _read_rows(path, GROUNDTRUTH_HEADER, 16)
    if not rows:
        raise ValidationError(f"{name}: no groundtruth rows")
    data = np.array([vals for _, vals in rows])
    if np.any(np.diff(data[:, 0]) <= 0):
        raise ValidationError(f"{name}: timestamps must be strictly increasing")
    for (ln, vals) in rows[:1] + rows[-1:]:
        _check_rotation(name, ln, np.array(vals[1:10]).reshape(3, 3))
    return data


def _load_extrinsics(path):
    name = os.path.basename(path)
    out, seen = [], set()
    for ln, vals in _read_rows(path, EXTRINSICS_HEADER, 13):
        cid = _as_int(name, ln, vals[0], "cam_id")
        if cid in seen:
            raise ValidationError(f"{name}:{ln}: duplicate cam_id {cid}")
        seen.add(cid)
        R = np.array(vals[1:10]).reshape(3, 3)
        _check_rotation(name, ln, R)
        out.append(CameraExtrinsics(cam_id=cid, R=R, p=np.array(vals[10:13])))
    return sorted(out, key=lambda c: c.cam_id)


def load_dataset(dir_path: str) -> Dataset:
    """Parse and validate one dataset directory.

    imu.csv and landmarks.csv are required; bearings.csv, positions.csv,
    groundtruth.csv and extrinsics.csv are optional streams.
    """
    def p(name):
        return os.path.join(dir_path, name)

    for required in ("imu.csv", "landmarks.csv"):
        if not os.path.exists(p(required)):
            raise ValidationError(f"{required}: missing from {dir_path}")
    imu = _load_imu(p("imu.csv"))
    landmarks = _load_landmarks(p("landmarks.csv"))
    extrinsics = (_load_extrinsics(p("extrinsics.csv"))
                  if os.path.exists(p("extrinsics.csv")) else [])
    lm_ids = {lm.id for lm in landmarks}
    cam_ids = {c.cam_id for c in extrinsics}
    bearings = (_load_bearings(p("bearings.csv"), lm_ids, cam_ids)
                if os.path.exists(p("bearings.csv")) else [])
    positions = (_load_positions(p("positions.csv"), lm_ids)
                 if os.path.exists(p("positions.csv")) else [])
    groundtruth = (_load_groundtruth(p("groundtruth.csv"))
                   if os.path.exists(p("groundtruth.csv")) else None)
    return Dataset(imu=imu, landmarks=landmarks, bearings=bearings,
                   positions=positions, groundtruth=groundtruth,
                   extrinsics=extrinsics)


def save_dataset(dir_path: str, ds: Dataset) -> None:
    """Write every present stream of `ds` under `dir_path`."""
    os.makedirs(dir_path, exist_ok=True)

    def p(name):
        return os.path.join(dir_path, name)

    _write_rows(p("imu.csv"), IMU_HEADER, np.asarray(ds.imu))
    _write_rows(p("landmarks.csv"), LANDMARKS_HEADER,
                [[lm.id, *lm.p] for lm in sorted(ds.landmarks,
                                                 key=lambda l: l.id)])
    if ds.bearings:
        rows = []
        for fr in ds.bearings:
            for cam_id, lm_id, y in fr.rows():
                rows.append([fr.t, cam_id, lm_id, *y])
        _write_rows(p("bearings.csv"), BEARINGS_HEADER, rows)
    if ds.positions:
        rows = []
        for fr in ds.positions:
            for lm_id in sorted(fr.obs):
                rows.append([fr.t, lm_id, *fr.obs[lm_id]])
        _write_rows(p("positions.csv"), POSITIONS_HEADER, rows)
    if ds.groundtruth is not None:
        _write_rows(p("groundtruth.csv"), GROUNDTRUTH_HEADER,
                    np.asarray(ds.groundtruth))
    if ds.extrinsics:
        _write_rows(p("extrinsics.csv"), EXTRINSICS_HEADER,
                    [[c.cam_id, *c.R.reshape(-1), *c.p]
                     for c in sorted(ds.extrinsics, key=lambda c: c.cam_id)])


# ---------------------------------------------------------------------------
# estimate traces


@dataclass
class TraceRecord:
    """One estimator snapshot: errors against truth plus the estimate."""

    t: float
    att_err: float
    pos_err: float
    vel_err: float
    p: np.ndarray
    v: np.ndarray
    R: np.ndarray

    def row(self):
        return [self.t, self.att_err, self.pos_err, self.vel_err,
                *self.p, *self.v, *self.R.reshape(-1)]


def write_trace(path: str, records) -> None:
    """Emit one CSV row per record (19 columns; see TRACE_HEADER)."""
    if not records:
        raise ValidationError("trace must contain at least one record")
    _write_rows(path, TRACE_HEADER, [r.row() for r in records])


def read_trace(path: str):
    out = []
    for _, vals in _read_rows(path, TRACE_HEADER, 19):
        out.append(TraceRecord(t=vals[0], att_err=vals[1], pos_err=vals[2],
                               vel_err=vals[3], p=np.array(vals[4:7]),
                               v=np.array(vals[7:10]),
                               R=np.array(vals[10:19]).reshape(3, 3)))
    return out


# ---------------------------------------------------------------------------
# run configuration

_U_INIT = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)


@dataclass
class RunConfig:
    """Flat key = value configuration for the CLI pipelines."""

    mode: str = "stereo"
    estimator: str = "continuous"
    duration: float = 30.0
    imu_rate: float = 200.0
    vision_rate: float = 20.0
    seed: int = 0
    n_landmarks: int = 5
    baseline: float = 0.2
    init_att_angle: float = 0.5 * math.pi
    # gains
    k_r: float = 1.0
    rho1: float = 0.5
    rho2: float = 0.3
    rho3: float = 0.2
    q: float = 1e3
    v: float = 1e-4
    # simulated sensor noise (standard deviations; 0 disables)
    bearing_noise: float = 0.0
    position_noise: float = 0.0
    imu_noise_omega: float = 0.0
    imu_noise_accel: float = 0.0
    # hybrid tuning covariances
    cov_omega: float = 0.0024
    cov_a: float = 0.028
    cov_y: float = 0.0005
    reg: float = 0.002
    # analysis tolerances
    gramian_window: float = 2.0
    gramian_mu: float = 1e-6
    stereo_eps_area: float = 1e-6
    stereo_eps_grav: float = 1e-6
    mono_epsilon: float = 1e-3
    mono_window: float = 2.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, "
                                  f"got {self.mode!r}")
        if self.estimator not in _ESTIMATORS:
            raise ValidationError(f"estimator must be one of {_ESTIMATORS}, "
                                  f"got {self.estimator!r}")
        for key in ("duration", "imu_rate", "vision_rate", "n_landmarks",
                    "gramian_window", "mono_window"):
            if getattr(self, key) <= 0:
                raise ValidationError(f"{key} must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        try:
            self.gain_config()
            self.noise_covariances()
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc

    def gain_config(self) -> GainConfig:
        return GainConfig(k_r=self.k_r, rho=(self.rho1, self.rho2, self.rho3),
                          q=self.q, v=self.v)

    def noise_covariances(self) -> NoiseCovariances:
        return NoiseCovariances(cov_omega=self.cov_omega, cov_a=self.cov_a,
                                cov_y=self.cov_y, reg=self.reg)

    def initial_estimate(self) -> ObserverState:
        from .geom import exp_so3
        return ObserverState.initial(R=exp_so3(self.init_att_angle * _U_INIT))

    def required_cameras(self) -> int:
        return {"stereo": 2, "monocular": 1, "position3d": 0}[self.mode]


_INT_KEYS = {"seed", "n_landmarks"}
_STR_KEYS = {"mode", "estimator"}


def load_config(path: str) -> RunConfig:
    """Parse a flat `key = value` config file (#-comments, blank lines ok)."""
    name = os.path.basename(path)
    valid = {f.name for f in fields(RunConfig)}
    kwargs = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{name}:{ln}: expected 'key = value'")
        key, _, value = (s.strip() for s in line.partition("="))
        if key not in valid:
            raise ParseError(f"{name}:{ln}: unknown key {key!r}")
        if key in kwargs:
            raise ParseError(f"{name}:{ln}: duplicate key {key!r}")
        try:
            if key in _STR_KEYS:
                kwargs[key] = value
            elif key in _INT_KEYS:
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        except ValueError as exc:
            raise ParseError(f"{name}:{ln}: bad value for {key!r}: "
                             f"{exc}") from exc
    try:
        return RunConfig(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from exc


def apply_overrides(cfg: RunConfig, seed=None, mode=None,
                    duration=None) -> RunConfig:
    changes = {}
    if seed is not None:
        changes["seed"] = seed
    if mode is not None:
        changes["mode"] = mode
    if duration is not None:
        changes["duration"] = duration
    return replace(cfg, **changes) if changes else cfg


# ---------------------------------------------------------------------------
# dataset-driven inputs for both estimators


def interpolating_imu(imu: np.ndarray):
    """Piecewise-linear lookup t -> (omega, a) of an IMU table with rows
    (t, wx, wy, wz, ax, ay, az); clamps outside the recorded span.

    Computes what np.interp does per column, bit for bit: the per-interval
    slopes once, then slope[k] * (t - t_k) + row_k on the interval found by
    one bisection of the sample times (a Python list, which bisects faster
    per call than np.searchsorted).
    """
    imu = np.asarray(imu, dtype=float)
    rows = imu[:, 1:7]
    slope = np.diff(rows, axis=0) / np.diff(imu[:, 0])[:, None]
    t = imu[:, 0].tolist()

    def fn(tau):
        if tau <= t[0]:
            row = rows[0]
        elif tau >= t[-1]:
            row = rows[-1]
        else:
            k = bisect.bisect_right(t, tau) - 1
            row = slope[k] * (tau - t[k]) + rows[k]
        return row[0:3], row[3:6]

    return fn


class DatasetProvider(FrameSource):
    """Continuous-time linear output t -> (y, C) | None from the sampled
    frame stream of a measurement mode (see Dataset.frames).

    The frames are stacked once: Y[f, l, k] is frame f's observation of
    the l-th landmark (ascending ids) by the k-th camera of the mode (one
    column for positions), and seen[f, l, k] marks the ones present.  A
    query blends its two bracketing frames linearly on the keys both see,
    bearings then renormalized (a key blending to norm <= 1e-9 is
    dropped), and hands the landmarks left to the blocks kernel; outside
    the stream, or with no key left, the provider reports no measurement.
    A stereo landmark that one camera misses is kept through the other
    camera's bearing.  frame_at(t) is the same blend as a frame.  The
    (y, C) of the last two query times are kept (FrameSource).
    """

    def __init__(self, ds: Dataset, mode: str):
        super().__init__(mode_cameras(mode, ds.extrinsics),
                         sorted(ds.landmarks, key=lambda lm: lm.id))
        frames = ds.frames(mode)
        self._unit = mode != "position3d"
        self.times = [fr.t for fr in frames]
        self._p = np.array([lm.p for lm in self.lms],
                           dtype=float).reshape(-1, 3)
        self._rig = rig_arrays(self.cams)
        stacked = [frame_arrays(fr, self.cams, self.lms) for fr in frames]
        shape = (len(frames), len(self.lms),
                 len(self.cams) if self._unit else 1)
        self._Y = np.array([Y for Y, _ in stacked]).reshape(shape + (3,))
        self._seen = np.array([seen for _, seen in stacked],
                              dtype=bool).reshape(shape)

    def _blend(self, t):
        """(rows, Y, seen) at t: the mask of the landmarks seen, and their
        blended observations (unseen entries 0) and seen mask; None when
        no landmark is seen."""
        times = self.times
        if not times or t < times[0] - 1e-9 or t > times[-1] + 1e-9:
            return None
        k = min(max(bisect.bisect_right(times, t) - 1, 0), len(times) - 1)
        hi = min(k + 1, len(times) - 1)
        w = 0.0 if hi == k else (t - times[k]) / (times[hi] - times[k])
        seen = self._seen[k] & self._seen[hi]
        Y = (1.0 - w) * self._Y[k] + w * self._Y[hi]
        if self._unit:
            n = np.sqrt((Y * Y).sum(axis=-1))
            seen &= n > 1e-9
            Y = np.where(seen[..., None],
                         Y / np.where(seen, n, 1.0)[..., None], 0.0)
        rows = seen.any(axis=-1)
        if not rows.any():
            return None
        return rows, Y[rows], seen[rows]

    def output(self, t):
        blend = self._blend(t)
        if blend is None:
            return None
        rows, Y, seen = blend
        if self._unit:
            return linear_output(bearing_blocks(self._p[rows], Y, seen,
                                                *self._rig))
        return linear_output(position_blocks(self._p[rows], Y[:, 0]))

    def frame_at(self, t):
        blend = self._blend(t)
        if blend is None:
            return None
        rows, Y, seen = blend
        ids = [lm.id for lm, r in zip(self.lms, rows) if r]
        if not self._unit:
            return PositionFrame(t=t, obs=dict(zip(ids, Y[:, 0])))
        return BearingFrame(t=t, obs={
            (self.cams[k].cam_id, ids[i]): Y[i, k]
            for i, k in zip(*np.nonzero(seen))})
