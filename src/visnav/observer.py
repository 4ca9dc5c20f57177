"""Continuous-time vision-aided inertial navigation observer.

Estimates attitude, position and velocity on SO(3) x R^15 by fusing rate
gyro / accelerometer inputs with landmark observations (stereo bearings,
monocular bearings, or body-frame landmark positions).  The attitude is
corrected through three auxiliary vectors e_hat_i whose convergence to the
rotated inertial axes renders the translational error dynamics linear
time-varying; their gains come from a continuous Riccati equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteStateError, NotUnitError, UnknownLandmarkError
from .geom import I3, dexpinv_body, exp_so3, project_to_rotation, skew
from .sim import (GRAVITY, PositionFrame, rig_arrays, synth_bearings,
                  synth_positions)
# make_bearing_frame and make_position_frame stay importable here: the
# benchmark's span tracer (perfbench/tracer.py) wraps them in this namespace.
from .sim import make_bearing_frame, make_position_frame  # noqa: F401

I15 = np.eye(15)


@dataclass
class GainConfig:
    """Observer gains and noise weights.

    k_r scales the attitude innovation, rho holds the three distinct
    positive weights of the auxiliary-vector potential, and q and v are
    the Riccati weights (q*I, and v*I for a scalar v).  The hybrid estimator's
    adaptive weights are regularized by NoiseCovariances.reg instead.
    """

    k_r: float = 1.0
    rho: tuple = (0.5, 0.3, 0.2)
    q: float = 1.0e3
    v: float | np.ndarray = 1.0e-4
    gravity: np.ndarray = field(default_factory=lambda: GRAVITY.copy())

    def __post_init__(self):
        if self.k_r <= 0:
            raise ValueError("k_r must be positive")
        rho = tuple(float(r) for r in self.rho)
        if len(rho) != 3 or any(r <= 0 for r in rho):
            raise ValueError("rho must be three positive scalars")
        if len(set(rho)) != 3:
            raise ValueError("rho values must be pairwise distinct")
        self.rho = rho
        self.gravity = np.asarray(self.gravity, dtype=float)
        if self.gravity.shape != (3,):
            raise ValueError("gravity must be a 3-vector")

    def rho_matrix(self) -> np.ndarray:
        return np.diag(self.rho)

    def v_matrix(self) -> np.ndarray:
        if np.isscalar(self.v):
            return float(self.v) * I15
        V = np.asarray(self.v, dtype=float)
        if V.shape != (15, 15):
            raise ValueError(f"V has shape {V.shape}, expected (15, 15)")
        return V


@dataclass
class ObserverState:
    """Full estimator state.

    e stores the three auxiliary vectors as rows, so g_hat = gravity @ e
    and the predicted landmark position is p_i @ e.  P is the 15x15
    Riccati matrix over the error ordering (p, e1, e2, e3, v).
    """

    R: np.ndarray
    p: np.ndarray
    v: np.ndarray
    e: np.ndarray
    P: np.ndarray

    @classmethod
    def initial(cls, R=None, p=None, v=None, e=None, P=None) -> "ObserverState":
        return cls(
            R=I3.copy() if R is None else np.array(R, dtype=float),
            p=np.zeros(3) if p is None else np.array(p, dtype=float),
            v=np.zeros(3) if v is None else np.array(v, dtype=float),
            e=I3.copy() if e is None else np.array(e, dtype=float),
            P=I15.copy() if P is None else np.array(P, dtype=float),
        )

    def copy(self) -> "ObserverState":
        return ObserverState(R=self.R.copy(), p=self.p.copy(), v=self.v.copy(),
                             e=self.e.copy(), P=self.P.copy())


def build_A(omega: np.ndarray, gravity: np.ndarray) -> np.ndarray:
    """State matrix of the translational error dynamics.

    Five -skew(omega) diagonal blocks, an identity coupling position to
    velocity, and gravity-component couplings from the auxiliary vectors
    into the velocity row.
    """
    A = np.zeros((15, 15))
    w = -skew(omega)
    for i in range(5):
        A[3 * i:3 * i + 3, 3 * i:3 * i + 3] = w
    A[0:3, 12:15] = I3
    for j in range(3):
        A[12:15, 3 + 3 * j:6 + 3 * j] = gravity[j] * I3
    return A


def attitude_innovation(e: np.ndarray, cfg: GainConfig) -> np.ndarray:
    """sigma_R = (k_r / 2) * sum_i rho_i (e_hat_i x e_i) of the auxiliary
    vectors e_hat_i, the rows of e, in closed form: e_i is the i-th basis
    vector, so e_hat_i x e_i keeps two components of e_hat_i."""
    (_, e01, e02), (e10, _, e12), (e20, e21, _) = e.tolist()
    r0, r1, r2 = cfg.rho
    c = 0.5 * cfg.k_r
    return np.array([c * (r2 * e21 - r1 * e12), c * (r0 * e02 - r2 * e20),
                     c * (r1 * e10 - r0 * e01)])


MODES = ("position3d", "stereo", "monocular")


def mode_cameras(mode: str, cams) -> list:
    """The cameras a measurement mode uses, in cam_id order: every camera
    of the rig for stereo, the first one for monocular, none for
    position3d."""
    if mode not in MODES:
        raise ValueError(f"unknown measurement mode {mode!r}")
    cams = sorted(cams, key=lambda c: c.cam_id)
    return {"position3d": [], "monocular": cams[:1], "stereo": cams}[mode]


def landmark_blocks(frame, cams, lms):
    """Stacked per-landmark measurement blocks (p, Pi, b) of one frame.

    Every mode gives a linear constraint Pi z = b on each body-frame
    landmark position z, so y = -b = C x (linear_output).  A PositionFrame
    gives Pi = I and b = z (position_blocks).  A BearingFrame gives the
    bearing_blocks of the cameras in cams that see each landmark;
    observations of other cameras are ignored.  Rows follow ascending
    landmark ids and the camera sum ascending cam ids.  p is (L, 3),
    Pi (L, 3, 3) and b (L, 3).

    Raises UnknownLandmarkError for a landmark outside lms and NotUnitError
    for a rotated bearing whose norm is off 1 by more than 1e-6.
    """
    lms = sorted(lms, key=lambda lm: lm.id)
    cams = sorted(cams, key=lambda c: c.cam_id)
    Y, seen = frame_arrays(frame, cams, lms)
    rows = seen.any(axis=-1)
    p = np.array([lm.p for lm in lms], dtype=float).reshape(-1, 3)[rows]
    if isinstance(frame, PositionFrame):
        return position_blocks(p, Y[rows, 0])
    return bearing_blocks(p, Y[rows], seen[rows], *rig_arrays(cams))


def frame_arrays(frame, cams, lms):
    """A frame's observations stacked over lms and cams in their given
    order: Y (L, K, 3), and seen (L, K) marking the ones present, whose
    entries are 0 otherwise.  A PositionFrame fills one column (K = 1);
    observations of cameras outside cams are ignored.

    Raises UnknownLandmarkError for a landmark outside lms.
    """
    position = isinstance(frame, PositionFrame)
    row = {lm.id: i for i, lm in enumerate(lms)}
    col = {None: 0} if position else {c.cam_id: k for k, c in enumerate(cams)}
    Y = np.zeros((len(lms), len(col), 3))
    seen = np.zeros(Y.shape[:-1], dtype=bool)
    for key, y in frame.obs.items():
        cam_id, lm_id = (None, key) if position else key
        if cam_id not in col:
            continue
        if lm_id not in row:
            raise UnknownLandmarkError(f"landmark {lm_id} not in the known map")
        Y[row[lm_id], col[cam_id]] = y
        seen[row[lm_id], col[cam_id]] = True
    return Y, seen


def position_blocks(p, z):
    """(p, Pi, b) of body-frame landmark positions z (L, 3): Pi = I and
    b = z."""
    return p, np.broadcast_to(I3, (len(p), 3, 3)), z


def bearing_blocks(p, Y, seen, Rc, c):
    """(p, Pi, b) of stacked camera-frame bearings.

    Y (L, K, 3) holds the bearing of landmark l, at p[l], in camera k of
    a rig with rotations Rc (K, 3, 3) and centres c (K, 3); seen (L, K)
    marks the bearings observed, and the others must be finite.  With
    x = R_c y the rotated bearing, Pi = sum_c pi(x_c) and
    b = sum_c pi(x_c) c_c over the cameras that see the landmark, in the
    order of the rig.

    Raises NotUnitError for a seen rotated bearing whose norm is off 1 by
    more than 1e-6.
    """
    X = (Rc @ Y[..., None])[..., 0]
    norm = np.sqrt(np.einsum("lki,lki->lk", X, X))
    off = seen & (np.abs(norm - 1.0) > 1e-6)
    if off.any():
        raise NotUnitError(
            f"expected a unit vector, got norm {float(norm[off][0])!r}")
    proj = (I3 - X[..., :, None] * X[..., None, :]) * seen[..., None, None]
    return p, proj.sum(axis=1), np.einsum("lkij,kj->li", proj, c)


def linear_output(blocks):
    """The linear output (y, C) of one frame's landmark_blocks: y = C x for
    the body-frame translational state x of error_state, with y = -b and
    row block r_i^T (x) Pi_i per landmark, r_i = (1, -p_i, 0).  No estimate
    enters it."""
    p, Pi, b = blocks
    r = np.zeros((len(p), 5))
    r[:, 0] = 1.0
    r[:, 1:4] = -p
    return -b.reshape(-1), np.einsum("lj,lab->lajb", r, Pi).reshape(-1, 15)


def measurement_model(est: ObserverState, blocks):
    """Stacked innovation sigma_y = y - C xi of the estimate with body
    frame xi, and C (see linear_output); sigma_y = C x_tilde exactly."""
    y, C = linear_output(blocks)
    return y - C @ _body_frame(est), C


def innovation_stereo(est: ObserverState, frame, cams, lms):
    """Stacked innovation and output matrix from the bearings of a camera
    rig, projectors summed per landmark (see landmark_blocks)."""
    return measurement_model(est, landmark_blocks(frame, cams, lms))


def innovation_mono(est: ObserverState, frame, cam, lms):
    """Single-camera variant: one projector per landmark."""
    return measurement_model(est, landmark_blocks(frame, [cam], lms))


def innovation_position(est: ObserverState, frame, lms):
    """Body-frame landmark position measurements: identity projectors."""
    return measurement_model(est, landmark_blocks(frame, [], lms))


def innovation(est: ObserverState, frame, mode: str, cams, lms):
    """(sigma_y, C) of one frame in a measurement mode, from the cameras
    mode_cameras(mode, cams) of the rig."""
    cams = mode_cameras(mode, cams)
    if mode == "position3d":
        return innovation_position(est, frame, lms)
    if mode == "monocular":
        return innovation_mono(est, frame, cams[0], lms)
    return innovation_stereo(est, frame, cams, lms)


def riccati_rhs(P: np.ndarray, A: np.ndarray, C: np.ndarray,
                Q: np.ndarray | None, V: np.ndarray) -> np.ndarray:
    """A P + P A^T + V - (C P)^T Q (C P), symmetrized; Q is not read
    when C has no rows."""
    out = A @ P + P @ A.T + V
    if C.size:
        CP = C @ P
        out = out - CP.T @ Q @ CP
    return 0.5 * (out + out.T)


def error_state(truth, est: ObserverState):
    """Geometric attitude error R R_hat^T and the 15-component
    translational error (p, e1, e2, e3, v), all in the body-fixed frame."""
    R_tilde = truth.R @ est.R.T
    x = np.empty(15)
    x[0:3] = truth.R.T @ truth.p - est.R.T @ est.p
    for i in range(3):
        x[3 + 3 * i:6 + 3 * i] = truth.R[i, :] - est.R.T @ est.e[i]
    x[12:15] = truth.R.T @ truth.v - est.R.T @ est.v
    return R_tilde, x


# ---------------------------------------------------------------------------
# integration


def _body_frame(est: ObserverState) -> np.ndarray:
    """xi = R^T (p, e1, e2, e3, v): the translational estimate in the body
    frame, so that the error state of error_state is x - xi."""
    return (np.vstack((est.p, est.e, est.v)) @ est.R).reshape(15)


_DIAG = np.arange(10)


def _generator(imu_tau, out, cfg: GainConfig, H0: np.ndarray):
    """(H, f, omega) at one stage time: Zdot = H Z + f e_16^T with
    H = [[A, V], [S, -A^T]], S = C^T Q C, and f the IMU forcing a of the
    velocity rows of x and the measurement forcing -C^T Q y of lambda for
    the linear output (y, C).  H0 is _template(cfg): H at omega = 0 and
    S = 0, so H takes -skew(omega) into its ten diagonal 3 x 3 blocks
    (those of A and of -A^T alike) and S."""
    omega, a = imu_tau
    H = H0.copy()
    H.reshape(10, 3, 10, 3)[_DIAG, :, _DIAG, :] = -skew(omega)
    f = np.zeros(30)
    f[12:15] = a
    if out is not None:
        y, C = out
        CtQ = cfg.q * C.T
        H[15:, :15] = CtQ @ C
        f[15:] = -CtQ @ y
    return H, f, omega


def _template(cfg: GainConfig) -> np.ndarray:
    """The generator H of one step at omega = 0 and S = 0 (_generator)."""
    A = build_A(np.zeros(3), cfg.gravity)
    H0 = np.zeros((30, 30))
    H0[:15, :15] = A
    H0[:15, 15:] = cfg.v_matrix()
    H0[15:, 15:] = -A.T
    return H0


_FIELDS = ("R", "p", "v", "e", "P")


def _nonfinite_error(est: ObserverState, t: float) -> NonFiniteStateError:
    """NonFiniteStateError naming t and the first non-finite field of est,
    or the inputs when est is finite."""
    name = next((name for name in _FIELDS
                 if not np.all(np.isfinite(getattr(est, name)))),
                "IMU or measurement input")
    return NonFiniteStateError(f"non-finite {name} at t={t:.9g}")


def step(est: ObserverState, imu, cfg: GainConfig, dt: float, t: float = 0.0,
         meas=None) -> ObserverState:
    """Advance the observer by dt seconds starting at time t: one RK4 step.

    imu is a callable t -> (omega, a) and meas is None (pure inertial
    flow) or a callable t -> (y, C) | None, such as a FrameSource, giving
    the linear output y = C x of the translational state (linear_output).
    Both are called once per stage time, at t, t + dt/2 and t + dt in that
    order.

    In the body frame, xi = R^T (p, e1, e2, e3, v), the translational
    estimate is a Kalman-Bucy filter: xi_dot = A xi + (0, 0, 0, 0, a)
    + K (y - C xi) with K = P C^T Q, and P solves the Riccati equation
    P_dot = A P + P A^T + V - P S P with S = C^T Q C.  Both are carried by
    the linear Hamiltonian system Z = [[X, x], [Y, lambda]] (30 x 16) from
    Z0 = [[P, xi], [I, 0]] (see _generator): P = X Y^-1 and
    xi = x - P lambda at every time (Kenney & Leipnik, IEEE TAC 30(10),
    1985).  Its eigenvalues are about +-sqrt(eig(V S)), so the system is not
    stiff where the Riccati form is, and restarting it at each step keeps
    X Y^-1 well conditioned.  The attitude rides in the same RK4 in
    exponential coordinates, R = R0 exp(sig), each stage correcting it with
    the sigma_R of that stage's e = R xi_e.  With no measurement rows at any
    stage lambda stays 0: the step is Van Loan's form of
    P+ = Phi P Phi^T + int Phi V Phi^T, which the hybrid flow takes.

    A measurement first seen at t + dt, where t + dt/2 saw none, belongs
    to the next step: the step that ends on a stream's first frame is the
    measurement-free flow.

    Raises NonFiniteStateError naming t and the first non-finite field of
    est (or its inputs) when the step turns non-finite.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    queried = [(imu(tau), None if meas is None else meas(tau))
               for tau in (t, t + 0.5 * dt, t + dt)]
    outs = [out if out is not None and out[1].size else None
            for _, out in queried]
    if outs[1] is None:         # the onset rule of the docstring
        outs[2] = None
    measured = any(out is not None for out in outs)

    R0, xi0, H0 = est.R, _body_frame(est), _template(cfg)
    g0, g1, g2 = (_generator(imu_tau, out, cfg, H0)
                  for (imu_tau, _), out in zip(queried, outs))
    Z0 = np.zeros((30, 16))
    Z0[:15, :15] = est.P
    Z0[:15, 15] = xi0
    Z0[15:, :15] = I15

    def at(c, k):
        """(Z, sig, xi, R) at Z0 + c k[0], sig = c k[1]."""
        Z, sig = Z0 + c * k[0], c * k[1]
        xi = Z[:15, 15]
        if measured:            # lambda != 0: xi = x - X Y^-1 lambda
            xi = xi - Z[:15, :15] @ np.linalg.solve(Z[15:, :15], Z[15:, 15])
        return Z, sig, xi, R0 @ exp_so3(sig)

    def stage(g, Z, sig, xi, R):
        """(Zdot, sig_dot) with generator g at (Z, sig, xi, R)."""
        H, f, omega = g
        dZ = H @ Z
        dZ[:, 15] += f
        s_r = attitude_innovation(xi[3:12].reshape(3, 3) @ R.T, cfg)
        return dZ, dexpinv_body(sig, omega + R.T @ s_r)

    # stage 1 is at Z0 itself, where lambda = 0, sig = 0 and R = R0
    k1 = stage(g0, Z0, np.zeros(3), xi0, R0)
    k2 = stage(g1, *at(0.5 * dt, k1))
    k3 = stage(g1, *at(0.5 * dt, k2))
    k4 = stage(g2, *at(dt, k3))
    Z, sig = (y + (dt / 6.0) * (a + 2 * b + 2 * c + d)
              for y, a, b, c, d in zip((Z0, 0.0), k1, k2, k3, k4))
    P = np.linalg.solve(Z[15:, :15].T, Z[:15, :15].T).T
    if not all(np.all(np.isfinite(a)) for a in (Z, sig, P)):
        raise _nonfinite_error(est, t)
    P = 0.5 * (P + P.T)
    R = project_to_rotation(R0 @ exp_so3(sig))
    xi = Z[:15, 15] - P @ Z[15:, 15] if measured else Z[:15, 15]
    W = xi.reshape(5, 3) @ R.T
    return ObserverState(R=R, p=W[0], v=W[4], e=W[1:4], P=P)


# ---------------------------------------------------------------------------
# measurement sources for simulation-driven runs


class FrameSource:
    """Continuous-time linear output t -> (y, C) | None (see linear_output)
    from a measurement frame per query time, frame_at(t) -> frame | None;
    a subclass may instead give the output itself, output(t).

    No estimate enters (y, C), so the finished output of the last two
    query times is kept: a step asks for t + dt/2 and t + dt, and the next
    step starts at that t + dt.  A call for a kept time does no numeric
    work.  cams are the cameras of the measurement mode.
    """

    def __init__(self, cams, lms):
        self.cams = list(cams)
        self.lms = list(lms)
        self._outputs = {}

    def __call__(self, t: float):
        memo = self._outputs
        if t not in memo:
            out = self.output(t)
            if len(memo) == 2:
                del memo[next(iter(memo))]          # the older query time
            memo[t] = out
        return memo[t]

    def output(self, t: float):
        """(y, C) of frame_at(t), or None without a frame."""
        frame = self.frame_at(t)
        return None if frame is None else linear_output(
            landmark_blocks(frame, self.cams, self.lms))


class TruthSource(FrameSource):
    """Continuous measurements of a mode synthesized, noise free, from a
    reference trajectory: bearings of the cameras mode_cameras(mode, cams)
    or body-frame landmark positions.

    Each query synthesizes the whole frame as one array (sim.synth_bearings
    or sim.synth_positions) and hands it to the blocks kernel; rows follow
    ascending landmark ids, as landmark_blocks' of the frame would.
    """

    def __init__(self, traj, lms, mode: str, cams=()):
        super().__init__(mode_cameras(mode, cams),
                         sorted(lms, key=lambda lm: lm.id))
        self.traj = traj
        self.mode = mode
        self._p = np.array([lm.p for lm in self.lms],
                           dtype=float).reshape(-1, 3)
        self._seen = np.ones((len(self.lms), len(self.cams)), dtype=bool)
        self._rig = rig_arrays(self.cams)

    def output(self, t: float):
        state = self.traj.state(t)
        if self.mode == "position3d":
            return linear_output(position_blocks(
                self._p, synth_positions(state, self.lms)))
        return linear_output(bearing_blocks(
            self._p, synth_bearings(state, self.lms, self.cams), self._seen,
            *self._rig))


def StereoBearingSource(traj, lms, cams) -> TruthSource:
    """Continuous stereo bearings synthesized from a reference trajectory."""
    return TruthSource(traj, lms, "stereo", cams)


def MonoBearingSource(traj, lms, cam) -> TruthSource:
    """Continuous single-camera bearings from a reference trajectory."""
    return TruthSource(traj, lms, "monocular", [cam])


def PositionSource(traj, lms) -> TruthSource:
    """Continuous body-frame landmark positions from a reference trajectory."""
    return TruthSource(traj, lms, "position3d")


def run_continuous(est: ObserverState, imu, provider, cfg: GainConfig,
                   t_end: float, dt: float = 1.0 / 200.0, t0: float = 0.0):
    """Integrate the observer over [t0, t_end] at the IMU rate.

    Returns (times, states) with the initial state included; states[k] is
    the estimate at times[k].  Step k takes dt = times[k+1] - times[k],
    exact by Sterbenz's lemma once times[k] >= dt, so it ends on times[k+1]
    bit for bit and a source's frame there serves both steps that meet on
    it.
    """
    n = int(round((t_end - t0) / dt))
    times = t0 + dt * np.arange(n + 1)
    states = [est.copy()]
    for k in range(n):
        t_k = float(times[k])
        est = step(est, imu, cfg, float(times[k + 1]) - t_k, t=t_k,
                   meas=provider)
        states.append(est)
    return times, states
