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

from .errors import NonFiniteStateError
from .geom import I3, project_to_rotation, rk4_exp_floats, skew
# exp_so3 and dexpinv_body stay importable here: the benchmark's span tracer
# (perfbench/tracer.py) wraps them in this namespace.
from .geom import dexpinv_body, exp_so3  # noqa: F401
from .measurement import (landmark_blocks, linear_output, mode_arrays,
                          mode_cameras, stacked_gains)
from .sim import GRAVITY, synth_bearings, synth_positions
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

    def v_matrix(self) -> np.ndarray:
        if np.isscalar(self.v):
            return float(self.v) * I15
        V = np.asarray(self.v, dtype=float)
        if V.shape != (15, 15):
            raise ValueError(f"V has shape {V.shape}, expected (15, 15)")
        return V


@dataclass(slots=True)      # a run keeps one state per IMU step
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


# the most steps in one batch, so that what a batch holds stays small
_BATCH = 16

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


def _transposed_P(Z):
    """P^T = Y^-T X^T of a stack of Z = [[X, x], [Y, lambda]], one solve;
    its symmetric part is that of P = X Y^-1."""
    return np.linalg.solve(Z[:, 15:, :15].transpose(0, 2, 1),
                           Z[:, :15, :15].transpose(0, 2, 1))


def _batch_steps(start, omega, a, gains):
    """The steps (start, middle, end) of one batch from its inputs at the
    middles and ends of its steps, and first at its start when start is
    None (the first batch): imu's stacks omega and a, and the source's
    (S, g, has) or None (see step).  Each stage's inputs (omega as
    floats, -skew(omega) (_LEVI), a, gain (S, g) or None) read off the
    stacks as the step comes, under the onset rule of step: a step whose
    middle has no gain takes none at its end.  Returns the last end, its
    gain copied off the stacks, so that they are freed before the next
    batch's inputs."""
    w, W = omega.tolist(), (omega @ _LEVI).reshape(-1, 3, 3)

    def stage(k):
        return w[k], W[k], a[k], (None if gains is None or not gains[2][k]
                                  else (gains[0][k], gains[1][k]))

    first = int(start is None)
    if first:
        start = stage(0)
    for k in range(first, len(w), 2):
        mid, end = stage(k), stage(k + 1)
        yield start, mid, end[:3] + (None,) if mid[3] is None else end
        start = end
    *last, gain = start
    return (*last, gain and (gain[0].copy(), gain[1].copy()))


def _stage_inputs(imu, meas, cfg: GainConfig, times, h):
    """Step by step, the stage inputs at its start, middle and end (an end
    is the next start), from one call of imu and then of meas per batch of
    at most _BATCH steps: at the middles and ends of its steps, and at
    times[0] with the first (_batch_steps).  Raises ValueError naming the
    batch's first time unless imu answers with (T, 3) stacks."""
    starts, end = times[:-1], None
    for i in range(0, len(h), _BATCH):
        taus = np.stack((starts[i:i + _BATCH] + 0.5 * h[i:i + _BATCH],
                         times[i + 1:i + 1 + _BATCH]), 1).ravel()
        if not i:
            taus = np.concatenate((times[:1], taus))
        omega, a = imu(taus)
        if np.shape(omega) != (len(taus), 3) or np.shape(a) != (len(taus), 3):
            raise ValueError(
                f"imu answered the {len(taus)} stage times from "
                f"t={taus[0]:.9g} with shapes {np.shape(omega)} and "
                f"{np.shape(a)}, expected ({len(taus)}, 3) stacks")
        end = yield from _batch_steps(
            end, omega, a, None if meas is None else meas(taus, cfg.q))


def _integrate(est: ObserverState, cfg: GainConfig, starts, h, inputs,
               chain: bool):
    """One batch: the states after RK4 steps of lengths h from the times
    starts, from est, each step's stage inputs drawn from the iterator
    inputs.  H Z of a stage (see step) is H0 Z, H0 the template at
    omega = 0 and S = 0, plus -skew(omega) on Z's ten 3-row blocks and
    S X on the lambda rows.  With chain (no source) Z runs on from node to
    node, every node's P comes from one solve at the end, and lambda stays
    0, so xi = x at every stage and node.  Otherwise Z restarts at every
    node from its (P, xi), and one solve per step gives the node's P and
    the P of the step's later stages, whose xi = x - P lambda the attitude
    needs.  The attitude RK4 runs after all Z stages, and one SVD projects
    the batch's attitudes.  Between steps a batch holds each node's P and
    xi, or with chain its Z, each stage's omega and xi_e, and the stacks
    of its stage inputs.  S and g cover the first 12 entries of the state
    (output_gains)."""
    A = build_A(np.zeros(3), cfg.gravity)
    H0 = np.zeros((30, 30))
    H0[:15, :15], H0[:15, 15:], H0[15:, 15:] = A, cfg.v_matrix(), -A.T
    n, Z = len(h), np.zeros((30, 16))        # Z = [[P, xi], [I, 0]]
    Z[:15, :15], Z[:15, 15], Z[15:, :15] = est.P, _body_frame(est), I15
    Z0, ends, xi, P, omegas = Z, [], np.empty((n, 4, 9)), [], []
    zs = np.empty((4, 30, 16))      # a step's later stages, then its end
    for k, (hk, stage) in enumerate(zip(h, inputs)):
        z, ks = Z, []
        for i, (c, (_, w, a, g)) in enumerate(zip(
                (0.5 * hk, 0.5 * hk, hk, None),
                (stage[0], stage[1], stage[1], stage[2]))):
            xi[k, i] = z[3:12, 15]
            dz = H0 @ z
            dz += (w @ z.reshape(10, 3, 16)).reshape(30, 16)
            dz[12:15, 15] += a
            if g is not None:       # S X on the lambda rows, g forcing them
                dz[15:27] += g[0] @ z[:12]
                dz[15:27, 15] += g[1]
            ks.append(dz)
            if c is not None:       # a restart solves on the stages in zs
                z = Z + c * dz if chain else np.add(Z, c * dz, out=zs[i])
        Z = Z + (hk / 6.0) * (ks[0] + 2 * ks[1] + 2 * ks[2] + ks[3])
        if chain:
            ends.append(Z)
        else:
            zs[3] = Z
            Pt = _transposed_P(zs)
            xi[k, 1:] -= (zs[:3, None, 15:, 15] @ Pt[:3, :, 3:12])[:, 0]
            P.append(0.5 * (Pt[3].T + Pt[3]))
            ends.append(Z[:15, 15] - P[-1] @ Z[15:, 15])
            Z0[:15, :15], Z0[:15, 15] = P[-1], ends[-1]      # the restart
            Z = Z0
        omegas.append([s[0] for s in stage])
    R, Rs = est.R.tolist(), []
    for x, omega, hk in zip(xi, omegas, h):
        R = rk4_exp_floats(R, partial(_corrected_rate, x.tolist(), omega, cfg),
                           hk)
        Rs.append(R)
    ends = np.array(ends)       # each node's xi, or with chain its Z
    if chain:
        Pt = _transposed_P(ends)
        P, ends = 0.5 * (Pt.transpose(0, 2, 1) + Pt), ends[:, :15, 15]
    Rs = np.array(Rs)
    ok = (np.isfinite(ends).all(axis=1) & np.isfinite(Rs).all(axis=(1, 2))
          & (np.isfinite(P).all(axis=(1, 2)) if chain
             else [np.isfinite(Pk).all() for Pk in P]))
    if not ok.all():
        raise _nonfinite_error(est, starts[int(ok.argmin())])
    # each state in arrays of its own, which a state that a jump replaces
    # then frees
    states = []
    for Pk, xk, Rk in zip(P, ends, project_to_rotation(Rs)):
        W = xk.reshape(5, 3) @ Rk.T
        states.append(ObserverState(R=Rk.copy(), p=W[0], v=W[4], e=W[1:4],
                                    P=Pk.copy() if chain else Pk))
    return states


def _drive(est: ObserverState, imu, meas, cfg: GainConfig, times,
           h=None) -> list:
    """The one RK4 driver: the estimates at times[1:], a step from each
    node time to the next (of length h[k], by default their difference),
    in batches of at most _BATCH steps (_integrate), each batch's stage
    inputs from one call of imu and of meas (_stage_inputs).  Each
    distinct stage time is queried once: 2 n + 1 times for n steps.
    Raises ValueError naming the first step whose length is not positive
    (node times must strictly ascend), and NonFiniteStateError naming the
    start of the first step that turns non-finite."""
    times = np.asarray(times, dtype=float)
    h = np.diff(times) if h is None else np.asarray(h, dtype=float)
    if not (h > 0).all():
        k = int((h > 0).argmin())
        raise ValueError(f"step at t={float(times[k])!r} has length "
                         f"{float(h[k])!r}: node times must strictly ascend")
    inputs, states = _stage_inputs(imu, meas, cfg, times, h), [est]
    for i in range(0, len(h), _BATCH):
        states += _integrate(states[-1], cfg, times[i:i + _BATCH].tolist(),
                             h[i:i + _BATCH].tolist(), inputs, meas is None)
    return states[1:]


def flow(est: ObserverState, imu, cfg: GainConfig, times) -> list:
    """The measurement-free flow of est from times[0] through the strictly
    ascending node times: the estimates at times[1:], each one RK4 step of
    `step` (_drive without a source).  With S = 0, P advances as
    Phi P Phi^T + int Phi V Phi^T (Van Loan, IEEE TAC 23(3), 1978), and Z
    runs on from node to node with no restart, which in exact arithmetic
    is a restart at each node: the RK4 map commutes with the right
    multiplication a restart applies.  Z restarts at each batch.
    """
    return _drive(est, imu, None, cfg, times)


def step(est: ObserverState, imu, cfg: GainConfig, dt: float, t: float = 0.0,
         meas=None) -> ObserverState:
    """Advance the observer by dt seconds starting at time t: one RK4 step,
    the one-node case of run_continuous.

    imu and meas are functions of an array of T stage times.  imu(times)
    answers with (T, 3) stacks of omega and a (EightTrajectory.imu,
    dataio.interpolating_imu), and meas is None (pure inertial flow) or a
    source, meas(times, q) -> (S, g, has) (TruthSource,
    dataio.DatasetProvider): stacked_gains' output_gains of each time's
    linear output y = C x of the translational state (linear_output), and
    the mask of the times with a measurement.  Neither reads the estimate,
    so a run calls imu and then meas once per batch of steps, at the
    middles and ends of its steps and at the first batch's start; a step
    calls each once, over t, t + dt/2 and t + dt.  Each time's answer must
    not depend on the times stacked with it, so that a run and a loop of
    steps see the same inputs.

    In the body frame, xi = R^T (p, e1, e2, e3, v), the translational
    estimate is a Kalman-Bucy filter: xi_dot = A xi + (0, 0, 0, 0, a)
    + K (y - C xi) with K = P C^T Q, and P solves the Riccati equation
    P_dot = A P + P A^T + V - P S P with S = C^T Q C.  Both are carried by
    the linear Hamiltonian system Z = [[X, x], [Y, lambda]] (30 x 16) from
    Z0 = [[P, xi], [I, 0]], Zdot = H Z + f e_16^T with H = [[A, V],
    [S, -A^T]] and f the forcing a of v and -C^T Q y of lambda:
    P = X Y^-1 and xi = x - P lambda at every time (Kenney & Leipnik, IEEE
    TAC 30(10), 1985).  Its eigenvalues are about +-sqrt(eig(V S)), so the
    system is not stiff where the Riccati form is.  Over a run of steps
    (run_continuous, in batches) Z chains across the frame-free nodes of
    a flow without a source and restarts at every node of a run with
    one: S makes Y ill-conditioned, and chaining 32 measured stereo steps
    moved R by 2e-9 and p, v and e by up to 5e-8 of their largest entry
    over 2 s, where a restart at each node keeps P bit for bit that of one
    step at a time.  Z never
    reads the attitude: the attitude's RK4 in exponential coordinates,
    R = R0 exp(sig), runs after Z's stages, each correcting it with the
    sigma_R of that stage's e = R xi_e (_corrected_rate).

    A measurement first seen at t + dt, where t + dt/2 saw none, belongs
    to the next step: the step that ends on a stream's first frame is the
    measurement-free flow.

    Raises ValueError unless dt is positive and imu answers with (T, 3)
    stacks, and NonFiniteStateError naming t and the first non-finite
    field of est (or its inputs) when the step turns non-finite.
    """
    return _drive(est, imu, meas, cfg, [t, t + dt], [dt])[0]


# ---------------------------------------------------------------------------
# measurement sources for simulation-driven runs


class TruthSource:
    """Continuous measurements of a mode synthesized, noise free, from a
    reference trajectory: bearings of the cameras mode_cameras(mode, cams)
    or body-frame landmark positions.

    source(times, q) -> (S, g, has) at an array of times (see step)
    synthesizes the frames of all the times as one (T, L, K, 3) stack
    from the trajectory's stacked state (sim.synth_bearings or
    sim.synth_positions), rows in ascending landmark ids, and hands it to
    stacked_gains; has is False only without landmarks or cameras.
    """

    def __init__(self, traj, lms, mode: str, cams=()):
        self.traj = traj
        self.lms = sorted(lms, key=lambda lm: lm.id)
        self.cams = mode_cameras(mode, cams)
        self._p, self._rig = mode_arrays(mode, cams, lms)

    def __call__(self, times, q):
        state = self.traj.state(np.asarray(times, dtype=float))
        Y = (synth_positions(state, self.lms)[..., None, :]
             if self._rig is None
             else synth_bearings(state, self.lms, self.cams))
        return stacked_gains(self._p, Y, np.ones(Y.shape[:-1], dtype=bool),
                             self._rig, q)


def StereoBearingSource(traj, lms, cams) -> TruthSource:
    """Continuous stereo bearings synthesized from a reference trajectory."""
    return TruthSource(traj, lms, "stereo", cams)


def MonoBearingSource(traj, lms, cam) -> TruthSource:
    """Continuous single-camera bearings from a reference trajectory."""
    return TruthSource(traj, lms, "monocular", [cam])


def PositionSource(traj, lms) -> TruthSource:
    """Continuous body-frame landmark positions from a reference trajectory."""
    return TruthSource(traj, lms, "position3d")


def imu_grid(t0: float, t_end: float, dt: float,
             reach: bool = False) -> np.ndarray:
    """The node times t0 + dt * arange(n + 1) of a run over [t0, t_end] in
    steps of dt: n = round((t_end - t0) / dt), or with reach the fewest
    steps whose last node is not before t_end - 1e-12.  Raises ValueError
    naming dt unless it is positive, and t_end when it is before t0."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got dt={float(dt)!r}")
    if not t_end >= t0:
        raise ValueError(f"t_end={float(t_end)!r} is before t0={float(t0)!r}")
    n = (np.ceil((t_end - t0 - 1e-12) / dt) if reach
         else round((t_end - t0) / dt))
    return t0 + dt * np.arange(int(n) + 1)


def run_continuous(est: ObserverState, imu, provider, cfg: GainConfig,
                   t_end: float, dt: float = 1.0 / 200.0, t0: float = 0.0):
    """Integrate the observer over [t0, t_end] on the IMU grid
    times = imu_grid(t0, t_end, dt), in batches of steps, with one call
    of imu and then of provider per batch (see step).

    Returns (times, states) with the initial state included; states[k] is
    the estimate at times[k].  Step k takes dt = times[k+1] - times[k],
    exact by Sterbenz's lemma once times[k] >= dt, so it ends on times[k+1]
    bit for bit and one query of that time serves both steps that meet
    on it.  With provider None this is flow over times.
    """
    times = imu_grid(t0, t_end, dt)
    return times, [est.copy(), *_drive(est, imu, provider, cfg, times)]
