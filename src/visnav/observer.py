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
from functools import partial

import numpy as np

from .errors import NonFiniteStateError, NotUnitError, UnknownLandmarkError
from .geom import I3, project_to_rotation, rk4_exp_floats, skew
# exp_so3 and dexpinv_body stay importable here: the benchmark's span tracer
# (perfbench/tracer.py) wraps them in this namespace.
from .geom import dexpinv_body, exp_so3  # noqa: F401
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


def attitude_innovation(e, cfg: GainConfig) -> tuple:
    """sigma_R = (k_r / 2) * sum_i rho_i (e_hat_i x e_i) of the auxiliary
    vectors e_hat_i, the rows of e (an array, or rows of Python floats), in
    closed form: e_i is the i-th basis vector, so e_hat_i x e_i keeps two
    components of e_hat_i.  Returns the three components."""
    (_, e01, e02), (e10, _, e12), (e20, e21, _) = e
    r0, r1, r2 = cfg.rho
    c = 0.5 * cfg.k_r
    return (c * (r2 * e21 - r1 * e12), c * (r0 * e02 - r2 * e20),
            c * (r1 * e10 - r0 * e01))


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
    """Stacked per-landmark measurement blocks (p, Pi, b) of one frame:
    the observation_blocks of the landmarks it sees in frame_arrays'
    stack.  Every mode gives a linear constraint Pi z = b on each
    body-frame landmark position z, so y = -b = C x (linear_output).
    Rows follow ascending landmark ids and the camera sum ascending cam
    ids; observations of cameras outside cams are ignored.  p is (L, 3),
    Pi (L, 3, 3) and b (L, 3).

    Raises UnknownLandmarkError for a landmark outside lms and NotUnitError
    for a rotated bearing whose norm is off 1 by more than 1e-6.
    """
    p, Y, seen, rig = frame_arrays([frame], cams, lms)
    rows = seen[0].any(axis=-1)
    return observation_blocks(p[rows], Y[0, rows], seen[0, rows], rig)


def frame_arrays(frames, cams, lms):
    """The observations of a list of frames of one kind stacked over the
    landmarks lms in ascending ids and the cameras cams in ascending cam
    ids: (p, Y, seen, rig) with the landmark positions p (L, 3), Y
    (F, L, K, 3), seen (F, L, K) marking the observations present, whose
    entries are 0 otherwise, and rig = rig_arrays(cams) for bearing frames
    or None for position frames.  Position frames fill one column (K = 1),
    as does an empty list without cams; observations of cameras outside
    cams are ignored.

    Raises UnknownLandmarkError for a landmark outside lms.
    """
    lms = sorted(lms, key=lambda lm: lm.id)
    cams = sorted(cams, key=lambda c: c.cam_id)
    position = isinstance(frames[0], PositionFrame) if frames else not cams
    row = {lm.id: i for i, lm in enumerate(lms)}
    col = {None: 0} if position else {c.cam_id: k for k, c in enumerate(cams)}
    Y = np.zeros((len(frames), len(lms), len(col), 3))
    seen = np.zeros(Y.shape[:-1], dtype=bool)
    at, ys = [], []
    for f, frame in enumerate(frames):
        for key, y in frame.obs.items():
            cam_id, lm_id = (None, key) if position else key
            if cam_id not in col:
                continue
            if lm_id not in row:
                raise UnknownLandmarkError(
                    f"landmark {lm_id} not in the known map")
            at.append((f, row[lm_id], col[cam_id]))
            ys.append(y)
    if at:
        at = tuple(np.array(at).T)
        Y[at], seen[at] = ys, True
    p = np.array([lm.p for lm in lms], dtype=float).reshape(-1, 3)
    return p, Y, seen, None if position else rig_arrays(cams)


def stacked_output(frames, cams, lms):
    """The linear output (y, C) of each of a list of frames of one kind,
    stacked (F, 3L) and (F, 3L, 15) over every landmark of lms in
    ascending ids: a landmark a frame does not see (by the cameras in
    cams, for bearings) has zero rows, which add nothing to a Gramian.
    The rows of the landmarks a frame sees are landmark_blocks' and
    linear_output's of that frame; the kernel runs once over all frames'
    landmarks, as one stack of F L landmarks.
    """
    p, Y, seen, rig = frame_arrays(frames, cams, lms)
    F, L, K = seen.shape
    y, C = linear_output(observation_blocks(
        np.tile(p, (F, 1)), Y.reshape(F * L, K, 3), seen.reshape(F * L, K),
        rig))
    return y.reshape(F, 3 * L), C.reshape(F, 3 * L, 15)


def observation_blocks(p, Y, seen, rig):
    """(p, Pi, b) of landmarks at p (L, 3) from their rows of
    frame_arrays' stack, observations Y (L, K, 3) and seen mask (L, K),
    and its rig: bearing_blocks with a rig (Rc, c); without one (None) Y
    holds body-frame positions z in one column, and Pi = I, b = z where
    seen and Pi = 0, b = 0 where not.
    """
    if rig is not None:
        return bearing_blocks(p, Y, seen, *rig)
    return p, seen[:, 0, None, None] * I3, Y[:, 0]


def bearing_blocks(p, Y, seen, Rc, c):
    """(p, Pi, b) of stacked camera-frame bearings.

    Y (L, K, 3) holds the bearing of landmark l, at p[l], in camera k of
    a rig with rotations Rc (K, 3, 3) and centres c (K, 3); seen (L, K)
    marks the bearings observed, and the others must be finite.  With
    x = R_c y the rotated bearing, Pi = sum_c pi(x_c) and
    b = sum_c pi(x_c) c_c over the cameras that see the landmark, in the
    order of the rig; a landmark no camera sees gets Pi = 0 and b = 0.

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


# the measurement-free flow takes at most this many steps in one batch, so
# that a batch's stacks (a 30 x 16 Z per node) stay small
_BATCH = 32

# omega @ _LEVI is -skew(omega) of each row of an (m, 3) stack, raveled: its
# entry (j, k) is the Levi-Civita eps_jkl omega_l
_LEVI = np.zeros((3, 9))
_LEVI[[2, 0, 1, 1, 2, 0], [1, 5, 6, 2, 3, 7]] = [1, 1, 1, -1, -1, -1]


def _corrected_rate(xis, omegas, cfg: GainConfig, j, R):
    """omega + R^T sigma_R at stage j of a step's attitude RK4 (floats):
    the rate at the stage's time (omegas at start, middle, end) corrected
    by the attitude_innovation of e = xi_e R^T, xi_e = xis[j]."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = R
    x, w = xis[j], omegas[(j + 1) // 2]
    s0, s1, s2 = attitude_innovation(
        [(x0 * a0 + x1 * a1 + x2 * a2, x0 * b0 + x1 * b1 + x2 * b2,
          x0 * c0 + x1 * c1 + x2 * c2)
         for x0, x1, x2 in (x[:3], x[3:6], x[6:])], cfg)
    return (w[0] + a0 * s0 + b0 * s1 + c0 * s2,
            w[1] + a1 * s0 + b1 * s1 + c1 * s2,
            w[2] + a2 * s0 + b2 * s1 + c2 * s2)


_FIELDS = ("R", "p", "v", "e", "P")


def _nonfinite_error(est: ObserverState, t: float) -> NonFiniteStateError:
    """NonFiniteStateError naming t and the first non-finite field of est,
    or the inputs when est is finite."""
    name = next((name for name in _FIELDS
                 if not np.all(np.isfinite(getattr(est, name)))),
                "IMU or measurement input")
    return NonFiniteStateError(f"non-finite {name} at t={t:.9g}")


def _integrate(est: ObserverState, cfg: GainConfig, starts, h, samples,
               outs=()):
    """The states after RK4 steps of lengths h from the times starts,
    chained from est, given the IMU samples (omega, a) at each step's
    start, middle and end (an end is the next start) and, for one step,
    the outputs (y, C) | None there.  H Z of a stage (see step) is H0 Z,
    H0 the template at omega = 0 and S = 0, plus -skew(omega) (_LEVI) on
    Z's ten 3-row blocks and S X on the lambda rows: no 30 x 30 generator
    is stored per stage.  Z runs on with no restart; the attitude follows
    each step's stages (rk4_exp_floats)."""
    omega, a = (np.array(x, dtype=float) for x in zip(*samples))
    A, w = build_A(np.zeros(3), cfg.gravity), (omega @ _LEVI).reshape(-1, 3, 3)
    H0, f = np.zeros((30, 30)), np.zeros((len(omega), 30))
    H0[:15, :15], H0[:15, 15:], H0[15:, 15:] = A, cfg.v_matrix(), -A.T
    S, f[:, 12:15] = [None] * len(omega), a
    for j, out in enumerate(outs):  # S = C^T Q C, -C^T Q y forcing lambda
        if out is not None:
            y, C = out
            S[j], f[j, 15:] = cfg.q * C.T @ C, -cfg.q * C.T @ y
    measured = any(x is not None for x in S)
    Z, nodes = np.zeros((30, 16)), np.empty((len(h), 30, 16))
    Z[:15, :15], Z[:15, 15], Z[15:, :15] = est.P, _body_frame(est), I15
    omega, R, Rs = omega.tolist(), est.R.tolist(), []
    for k, hk in enumerate(h):
        zj, ks, xis = Z, [], []
        for j, c in zip((2 * k, 2 * k + 1, 2 * k + 1, 2 * k + 2),
                        (0.5 * hk, 0.5 * hk, hk, None)):
            x = zj[3:12, 15]    # xi_e, but x - X Y^-1 lambda for lambda != 0
            if measured and ks:
                x = x - zj[3:12, :15] @ np.linalg.solve(zj[15:, :15],
                                                         zj[15:, 15])
            xis.append(x.tolist())
            ks.append(H0 @ zj)
            ks[-1] += (w[j] @ zj.reshape(10, 3, 16)).reshape(30, 16)
            if S[j] is not None:
                ks[-1][15:] += S[j] @ zj[:15]
            ks[-1][:, 15] += f[j]
            if c is not None:
                zj = Z + c * ks[-1]
        Z = nodes[k] = Z + (hk / 6.0) * (ks[0] + 2 * ks[1] + 2 * ks[2] + ks[3])
        R = rk4_exp_floats(R, partial(_corrected_rate, xis,
                                      omega[2 * k:2 * k + 3], cfg), hk)
        Rs.append(R)
    Rs = np.array(Rs)
    # P^T = Y^-T X^T, whose symmetric part is that of P = X Y^-1
    P = np.linalg.solve(nodes[:, 15:, :15].transpose(0, 2, 1),
                        nodes[:, :15, :15].transpose(0, 2, 1))
    ok = (np.isfinite(nodes).all(axis=(1, 2))
          & np.isfinite(P).all(axis=(1, 2)) & np.isfinite(Rs).all(axis=(1, 2)))
    if not ok.all():
        raise _nonfinite_error(est, starts[int(ok.argmin())])
    # free the stack before the states are built, each in arrays of its
    # own, which a state that a jump replaces then frees
    xl, nodes, states = nodes[:, :, 15].copy(), None, []
    for xk, Pk, Rk in zip(xl, P, project_to_rotation(Rs)):
        Pk = 0.5 * (Pk.T + Pk)
        W = (xk[:15] - Pk @ xk[15:]).reshape(5, 3) @ Rk.T
        states.append(ObserverState(R=Rk.copy(), p=W[0], v=W[4], e=W[1:4],
                                    P=Pk))
    return states


def flow(est: ObserverState, imu, cfg: GainConfig, times) -> list:
    """The measurement-free flow of est from times[0] through the ascending
    node times: the estimates at times[1:], each one RK4 step of `step`.
    With S = 0, P advances as Phi P Phi^T + int Phi V Phi^T (Van Loan,
    IEEE TAC 23(3), 1978), and Z, which never reads the attitude, runs on
    from node to node with no restart, which in exact arithmetic is a
    restart at each node: the RK4 map commutes with the right
    multiplication a restart applies.  imu is called once per distinct
    stage time, 2 n + 1 times for n steps.  A batch of at most _BATCH steps
    shares one template, one solve for its nodes' P and one projection of
    their attitudes; Z restarts at each batch.  Raises NonFiniteStateError
    naming the start of the first step that turns non-finite.
    """
    times, states = [float(t) for t in times], [est]
    samples = [imu(times[0])]
    for i in range(0, len(times) - 1, _BATCH):
        nodes = times[i:i + _BATCH + 1]
        h = [b - a for a, b in zip(nodes, nodes[1:])]
        for a, hk, b in zip(nodes, h, nodes[1:]):
            samples += (imu(a + 0.5 * hk), imu(b))
        states += _integrate(states[-1], cfg, nodes, h, samples)
        samples = samples[-1:]
    return states[1:]


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
    Z0 = [[P, xi], [I, 0]], Zdot = H Z + f e_16^T with H = [[A, V],
    [S, -A^T]] and f the forcing a of v and -C^T Q y of lambda:
    P = X Y^-1 and xi = x - P lambda at every time (Kenney & Leipnik, IEEE
    TAC 30(10), 1985).  Its eigenvalues are about +-sqrt(eig(V S)), so the
    system is not stiff where the Riccati form is, and restarting it at
    each step keeps X Y^-1 well conditioned.  Z never reads the attitude:
    the attitude's RK4 in exponential coordinates, R = R0 exp(sig), runs
    after Z's stages, each correcting it with the sigma_R of that stage's
    e = R xi_e (_corrected_rate).  With no measurement rows at any stage the
    step is the one-step `flow` over [t, t + dt], fed the samples queried
    here.

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
    return _integrate(est, cfg, [t], [dt], [s for s, _ in queried], outs)[0]


# ---------------------------------------------------------------------------
# measurement sources for simulation-driven runs


class FrameSource:
    """Continuous-time linear output t -> (y, C) | None (see linear_output)
    from a measurement frame per query time, frame_at(t) -> frame | None;
    a subclass may instead give the output itself, output(t).

    No estimate enters (y, C), so the finished output of the last two
    query times is kept: a step asks for t + dt/2 and t + dt, and the next
    step starts at that t + dt.  A call for a kept time does no numeric
    work.  cams are the cameras of the measurement mode, and lms are kept
    in ascending ids.
    """

    def __init__(self, cams, lms):
        self.cams = list(cams)
        self.lms = sorted(lms, key=lambda lm: lm.id)
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
        super().__init__(mode_cameras(mode, cams), lms)
        self.traj = traj
        self._p = np.array([lm.p for lm in self.lms],
                           dtype=float).reshape(-1, 3)
        self._rig = None if mode == "position3d" else rig_arrays(self.cams)

    def output(self, t: float):
        state = self.traj.state(t)
        Y = (synth_positions(state, self.lms)[:, None] if self._rig is None
             else synth_bearings(state, self.lms, self.cams))
        return linear_output(observation_blocks(
            self._p, Y, np.ones(Y.shape[:-1], dtype=bool), self._rig))


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
