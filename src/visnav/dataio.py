"""Dataset files, run configuration, and trace emission.

All on-disk formats are UTF-8 CSV with a header row and `.` decimal marker;
numbers are written with repr-faithful precision so a save/load round trip
reproduces values to better than 1e-12.  See the README for the column
layout of each file.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import IoError, ParseError, ValidationError
from .geom import I3
from .hybrid import NoiseCovariances
# innovation_{position,stereo,mono} stay importable here: the benchmark's
# span tracer (perfbench/tracer.py) wraps them in this namespace.
from .measurement import (MODES, Frames, mode_arrays, mode_cameras,
                          stacked_gains)
from .observer import (GainConfig, ObserverState,  # noqa: F401
                       innovation_mono, innovation_position, innovation_stereo)
from .sim import CameraExtrinsics, Landmark

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
    """The data rows of a CSV table as one (n, n_cols) float array, and a
    function giving the file line of row i (for diagnostics).

    numpy's C parser reads the rows straight from the file.  The row loop
    of _parse_rows runs only when numpy rejects the text or finds another
    number of columns: it names the line at fault, and still loads what
    numpy does not (whitespace-only lines, `1_0`, non-ASCII digits)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().strip() == header:
                with warnings.catch_warnings():   # a header-only table
                    warnings.filterwarnings("ignore", "loadtxt: input "
                                            "contained no data")
                    data = np.loadtxt(fh, delimiter=",", comments=None,
                                      ndmin=2)
                if data.shape[1] == n_cols:
                    return data, lambda i: _data_lines(path)[i]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except ValueError:  # a row numpy cannot read, or a byte not UTF-8
        pass
    return _parse_rows(path, header, n_cols)


def _data_lines(path):
    """The file line of each data row: each line past the header that is
    not blank."""
    with open(path, "r", encoding="utf-8") as fh:
        return [ln for ln, line in enumerate(fh, start=1)
                if ln > 1 and line.strip()]


def _parse_rows(path, header, n_cols):
    """_read_rows one line at a time with float(): raise the error of the
    first bad line, or else return what _read_rows does."""
    name = os.path.basename(path)
    rows, lines, ln = [], [], 0
    try:
        with open(path, "r", encoding="utf-8",
                  errors="surrogateescape") as fh:
            for ln, line in enumerate(fh, start=1):
                _check_utf8(name, ln, line)
                if ln == 1:
                    if line.strip() != header:
                        raise ParseError(f"{name}:1: bad header "
                                         f"{line.strip()!r}, expected "
                                         f"{header!r}")
                    continue
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split(",")
                if len(parts) != n_cols:
                    raise ParseError(f"{name}:{ln}: expected {n_cols} "
                                     f"columns, got {len(parts)}")
                try:
                    rows.append([float(p) for p in parts])
                except ValueError as exc:
                    raise ParseError(f"{name}:{ln}: non-numeric field: "
                                     f"{exc}") from exc
                lines.append(ln)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if ln == 0:
        raise ParseError(f"{name}:1: empty file, expected header '{header}'")
    return np.array(rows).reshape(-1, n_cols), lines.__getitem__


def _check_utf8(name, ln, line):
    """Name the first byte of a line read with errors="surrogateescape"
    that is not valid UTF-8."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError(f"{name}:{ln}: byte "
                             f"{ord(line[exc.start]) - 0xDC00:#04x} is not "
                             f"valid UTF-8") from None


def _integers(col):
    """The Python ints nearest the values of col, and whether each value
    fails to be an integer: not finite, or more than 1e-9 off one."""
    finite = np.isfinite(col)
    nearest = np.round(np.where(finite, col, 0.0))
    return (list(map(int, nearest.tolist())),
            ~(finite & (np.abs(col - nearest) <= 1e-9)))


def _repeats(keys):
    """Whether each of keys equals one before it."""
    first = {}
    return np.array([first.setdefault(k, i) != i
                     for i, k in enumerate(keys)], dtype=bool)


def _raise_first(name, line, checks):
    """Raise the error of the first row any of checks fails, and within
    that row of the first check that fails.  Each check is (failed,
    error type, message of row i), failed a bool array over the rows."""
    failed = np.column_stack([f for f, _, _ in checks])
    if failed.any():
        i, k = np.argwhere(failed)[0]
        _, error, message = checks[k]
        raise error(f"{name}:{line(i)}: {message(i)}")


def _checked_ids(name, data, line, what, key):
    """The first column of a table as Python ints, each row checked to be
    an integer and then to differ from the rows before it."""
    ids, bad = _integers(data[:, 0])
    _raise_first(name, line, [
        (bad, ParseError,
         lambda i: f"{what} must be an integer, got {data[i, 0]}"),
        (_repeats(ids), ValidationError,
         lambda i: f"duplicate {key} {ids[i]}")])
    return ids


def _check_rotations(name, line, Rs):
    """Name the line of the first of the stacked matrices Rs (n, 3, 3) that
    fails geom.is_rotation(R, tol=1e-6), tested all at once."""
    orth = np.linalg.norm(Rs @ Rs.transpose(0, 2, 1) - I3, axis=(1, 2))
    ok = (orth <= 1e-6) & (np.abs(np.linalg.det(Rs) - 1.0) <= 1e-6)
    if not ok.all():
        raise ValidationError(f"{name}:{line(int(np.argmin(ok)))}: "
                              f"stored matrix is not a rotation")


def _check_finite(name, header, line, data):
    """Name the line and column of the first non-finite value of a table's
    stacked data (n, columns), row by row."""
    bad = ~np.isfinite(data)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValidationError(f"{name}:{line(i)}: {header.split(',')[j]} "
                              f"must be finite, got {data[i, j]}")


def _check_increasing(name, line, t):
    """Name the line of the first non-finite timestamp of t, or else of
    the first that does not exceed the one before it."""
    bad = ~np.isfinite(t)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"{name}:{line(i)}: timestamp must be finite, "
                              f"got {t[i]}")
    bad = ~(np.diff(t) > 0)
    if bad.any():
        raise ValidationError(f"{name}:{line(int(np.argmax(bad)) + 1)}: "
                              f"timestamps must be strictly increasing")


@dataclass
class Dataset:
    """One directory's worth of input data.

    imu is an (n, 7) array of rows (t, wx, wy, wz, ax, ay, az); groundtruth,
    when present, is an (n, 16) array of rows (t, r11..r33 row-major, p, v).
    bearings and positions are each one record (measurement.Frames) of a
    frame stream, over the landmarks in ascending ids and, for bearings,
    the extrinsics in ascending cam ids; None when the stream is absent.
    """

    imu: np.ndarray
    landmarks: list
    bearings: Frames | None = None
    positions: Frames | None = None
    groundtruth: np.ndarray | None = None
    extrinsics: list = field(default_factory=list)

    def frames(self, mode: str) -> Frames:
        """The record a measurement mode reads: the positions, or the
        bearings' columns of mode_cameras(mode, extrinsics), the first
        for monocular; an absent stream has no frames."""
        position = mode == "position3d"
        K = 1 if position else len(mode_cameras(mode, self.extrinsics))
        fr = self.positions if position else self.bearings
        if fr is None:
            Y = np.zeros((0, len(self.landmarks), K, 3))
            fr = Frames(np.zeros(0), Y, np.zeros(Y.shape[:-1], dtype=bool))
        return Frames(fr.t, fr.Y[:, :, :K], fr.seen[:, :, :K])


def _load_imu(path):
    name = os.path.basename(path)
    data, line = _read_rows(path, IMU_HEADER, 7)
    if not len(data):
        raise ValidationError(f"{name}: no IMU rows")
    _check_increasing(name, line, data[:, 0])
    _check_finite(name, IMU_HEADER, line, data)
    return data


def _load_landmarks(path):
    name = os.path.basename(path)
    data, line = _read_rows(path, LANDMARKS_HEADER, 4)
    ids = _checked_ids(name, data, line, "id", "landmark id")
    if not ids:
        raise ValidationError(f"{name}: no landmarks")
    _check_finite(name, LANDMARKS_HEADER, line, data)
    return sorted(map(Landmark, ids, data[:, 1:4].copy()),
                  key=lambda lm: lm.id)


def _load_frames(path, header, lm_ids, cam_ids=None):
    """Load a bearings table (given cam_ids) or a positions table as one
    record (Frames): a frame for each run of rows of one time, each row's
    values in the slot of its landmark and camera, whose indices the dicts
    lm_ids and cam_ids map the ids to.

    The first failing row raises; within it the checks run in the order
    cam_id integer, landmark_id integer, unknown cam_id, unknown
    landmark_id, finite frame time, increasing frame time, duplicate key
    (a slot written twice).  Then the first row with a bearing off unit
    length, or with a non-finite position, raises."""
    name = os.path.basename(path)
    data, line = _read_rows(path, header, header.count(",") + 1)
    valid = {} if cam_ids is None else {"cam_id": cam_ids}
    valid["landmark_id"] = lm_ids
    n, k = len(data), len(valid)
    t = data[:, 0]
    ts = t.tolist()
    ids = {what: _integers(data[:, j]) for j, what in enumerate(valid, 1)}
    index = {what: [valid[what].get(i, -1) for i in ints]
             for what, (ints, _) in ids.items()}
    columns = [ints for ints, _ in ids.values()]
    keys = columns[0] if k == 1 else list(zip(*columns))
    new = np.ones(n, dtype=bool)
    new[1:] = t[1:] != t[:-1]
    later = np.zeros(n, dtype=bool)
    later[1:] = t[1:] <= t[:-1]
    # each row's slot in the (F, L, K) stack from the run starts and the id
    # dicts, in Python: numpy's integer kernels would page in code that no
    # other part of a run uses; a row of an unknown id goes past the stack
    starts = np.flatnonzero(new).tolist()
    shape = (len(starts), len(lm_ids), 1 if cam_ids is None else len(cam_ids))
    size = math.prod(shape)
    frame = [f for f, (a, b) in enumerate(zip(starts, starts[1:] + [n]))
             for _ in range(a, b)]
    slot = [(f * shape[1] + i) * shape[2] + c if min(i, c) >= 0 else size
            for f, i, c in zip(frame, index["landmark_id"],
                               index.get("cam_id", [0] * n))]
    dup = (np.zeros(n, dtype=bool) if len(set(slot)) == n else
           _repeats(list(zip(frame, keys))))
    checks = [(bad, ParseError, lambda i, j=j, what=what:
               f"{what} must be an integer, got {data[i, j]}")
              for j, (what, (_, bad)) in enumerate(ids.items(), 1)]
    checks += [(np.fromiter((i < 0 for i in index[what]), bool, n),
                ValidationError, lambda i, what=what, ints=ints:
                f"unknown {what} {ints[i]}")
               for what, (ints, _) in ids.items()]
    checks += [
        (new & ~np.isfinite(t), ValidationError,
         lambda i: f"frame time must be finite, got {ts[i]}"),
        (new & later, ValidationError,
         lambda i: "frame timestamps must be strictly increasing and rows "
                   "grouped by t"),
        (dup, ValidationError,
         lambda i: f"duplicate observation {keys[i]} at t={ts[i]}")]
    _raise_first(name, line, checks)
    if cam_ids is None:
        _check_finite(name, header, line, data)
    else:
        bad = ~(np.abs(np.linalg.norm(data[:, 3:6], axis=1) - 1.0) <= 1e-6)
        if bad.any():
            i = int(np.argmax(bad))
            _, cam_id, lm_id = data[i, :3].tolist()
            raise ValidationError(
                f"{name}:{line(i)}: bearing ({round(cam_id)}, "
                f"{round(lm_id)}) at t={ts[i]} is not unit length")
    Y, seen = np.zeros((size, 3)), np.zeros(size, dtype=bool)
    Y[slot], seen[slot] = data[:, 1 + k:], True
    return Frames(t[starts], Y.reshape(*shape, 3), seen.reshape(shape))


def _load_groundtruth(path):
    name = os.path.basename(path)
    data, line = _read_rows(path, GROUNDTRUTH_HEADER, 16)
    if not len(data):
        raise ValidationError(f"{name}: no groundtruth rows")
    _check_increasing(name, line, data[:, 0])
    _check_finite(name, GROUNDTRUTH_HEADER, line, data)
    _check_rotations(name, line, data[:, 1:10].reshape(-1, 3, 3))
    return data


def _load_extrinsics(path):
    name = os.path.basename(path)
    data, line = _read_rows(path, EXTRINSICS_HEADER, 13)
    ids = _checked_ids(name, data, line, "cam_id", "cam_id")
    _check_finite(name, EXTRINSICS_HEADER, line, data)
    Rs = data[:, 1:10].reshape(-1, 3, 3)
    _check_rotations(name, line, Rs)
    return sorted(map(CameraExtrinsics, ids, Rs.copy(),
                      data[:, 10:13].copy()), key=lambda c: c.cam_id)


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
    lm_ids = {lm.id: i for i, lm in enumerate(landmarks)}
    cam_ids = {c.cam_id: k for k, c in enumerate(extrinsics)}
    bearings = (_load_frames(p("bearings.csv"), BEARINGS_HEADER, lm_ids,
                             cam_ids)
                if os.path.exists(p("bearings.csv")) else None)
    positions = (_load_frames(p("positions.csv"), POSITIONS_HEADER, lm_ids)
                 if os.path.exists(p("positions.csv")) else None)
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

    lms = sorted(ds.landmarks, key=lambda lm: lm.id)
    cams = sorted(ds.extrinsics, key=lambda c: c.cam_id)
    _write_rows(p("imu.csv"), IMU_HEADER, np.asarray(ds.imu))
    _write_rows(p("landmarks.csv"), LANDMARKS_HEADER,
                [[lm.id, *lm.p] for lm in lms])
    # each record's observations in (t, cam_id, landmark_id) order
    lm_ids = np.array([lm.id for lm in lms])
    if ds.bearings:
        f, k, i = np.nonzero(ds.bearings.seen.transpose(0, 2, 1))
        cam_ids = np.array([c.cam_id for c in cams])[k]
        _write_rows(p("bearings.csv"), BEARINGS_HEADER, np.column_stack(
            [ds.bearings.t[f], cam_ids, lm_ids[i], ds.bearings.Y[f, i, k]]))
    if ds.positions:
        f, i, _ = np.nonzero(ds.positions.seen)
        _write_rows(p("positions.csv"), POSITIONS_HEADER, np.column_stack(
            [ds.positions.t[f], lm_ids[i], ds.positions.Y[f, i, 0]]))
    if ds.groundtruth is not None:
        _write_rows(p("groundtruth.csv"), GROUNDTRUTH_HEADER,
                    np.asarray(ds.groundtruth))
    if cams:
        _write_rows(p("extrinsics.csv"), EXTRINSICS_HEADER,
                    [[c.cam_id, *c.R.reshape(-1), *c.p] for c in cams])


# ---------------------------------------------------------------------------
# estimate traces


def write_trace(path: str, rows) -> None:
    """Emit the (n, 19) trace rows as CSV (see TRACE_HEADER)."""
    if not len(rows):
        raise ValidationError("trace must contain at least one row")
    _write_rows(path, TRACE_HEADER, rows)


def read_trace(path: str) -> np.ndarray:
    """The (n, 19) rows of a trace that write_trace wrote."""
    return _read_rows(path, TRACE_HEADER, 19)[0]


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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
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
        with open(path, "r", encoding="utf-8",
                  errors="surrogateescape") as fh:
            # lines end at \n, \r\n and \r only, as in the CSV readers
            lines = fh.read().split("\n")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    for ln, raw in enumerate(lines, start=1):
        _check_utf8(name, ln, raw)
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
    (t, wx, wy, wz, ax, ay, az), np.interp per column: clamps outside the
    recorded span.  An array of times gives (T, 3) stacks, each time's
    rows whatever the other times (the input protocol of observer.step)."""
    imu = np.asarray(imu, dtype=float)
    t, cols = imu[:, 0].copy(), imu[:, 1:7].T.copy()

    def fn(tau):
        rows = np.array([np.interp(tau, t, col) for col in cols]).T
        return rows[..., 0:3], rows[..., 3:6]

    return fn


class DatasetProvider:
    """The continuous estimator's source, provider(times, q) -> (S, g, has)
    at an array of times (see observer.step), from the sampled frame
    stream of a measurement mode (see Dataset.frames).

    The mode's record holds Y[f, l, k], frame f's observation of the l-th
    landmark (ascending ids) by the k-th camera of the mode (one column
    for positions), and seen[f, l, k] marking the ones present.  A query
    blends each time's two bracketing frames linearly on the keys both
    see, bearings then renormalized (a key blending to norm <= 1e-9 is
    dropped), and hands every landmark to stacked_gains, an unseen one
    with Pi = 0; outside the stream, or with no key left, a time has no
    measurement.  A stereo landmark that one camera misses is kept
    through the other camera's bearing.
    """

    def __init__(self, ds: Dataset, mode: str):
        frames = ds.frames(mode)
        self.times, self._Y, self._seen = frames.t, frames.Y, frames.seen
        self._p, self._rig = mode_arrays(mode, ds.extrinsics, ds.landmarks)
        # the bracketing frames (k, hi) of a time after j frame times, as
        # tables over j: integer maximum and minimum on the indices would
        # page in numpy code that no other part of a run uses
        n = len(frames)
        self._lo = np.array([max(j - 1, 0) for j in range(n + 1)], dtype=int)
        self._hi = np.array([min(max(j - 1, 0) + 1, n - 1)
                             for j in range(n + 1)], dtype=int)

    def _blend(self, times):
        """(Y, seen) at an array of times, (T, L, K, 3) and (T, L, K): the
        blended observations (unseen entries 0 for bearings) and the keys
        seen, none outside the stream; one searchsorted for all times."""
        t, ft = np.asarray(times, dtype=float), self.times
        if not len(ft):
            return (np.zeros(t.shape + self._Y.shape[1:]),
                    np.zeros(t.shape + self._seen.shape[1:], dtype=bool))
        j = np.searchsorted(ft, t, side="right")
        k, hi = self._lo[j], self._hi[j]
        span = ft[hi] - ft[k]
        w = np.where(span > 0.0, (t - ft[k]) / np.where(span > 0.0, span, 1.0),
                     0.0)
        seen = (self._seen[k] & self._seen[hi]
                & ((t >= ft[0] - 1e-9) & (t <= ft[-1] + 1e-9))[:, None, None])
        w = w[:, None, None, None]
        Y = (1.0 - w) * self._Y[k] + w * self._Y[hi]
        if self._rig is not None:       # bearings: back to unit length
            n = np.sqrt((Y * Y).sum(axis=-1))
            seen &= n > 1e-9
            Y = np.where(seen[..., None],
                         Y / np.where(seen, n, 1.0)[..., None], 0.0)
        return Y, seen

    def __call__(self, times, q):
        Y, seen = self._blend(times)
        return stacked_gains(self._p, Y, seen, self._rig, q)
