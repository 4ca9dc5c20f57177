"""Reference computations for the benchmark's output checks.

Everything here is written from the paper's definitions and uses numpy
alone; nothing is imported from visnav, so the checks compare the program
against an independent computation, never against its own output.

Conventions: R maps body to inertial axes and obeys dR/dt = R [omega]x;
the translational error is ordered (p, e1, e2, e3, v) in body axes.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

GRAVITY = np.array([0.0, 0.0, -9.81])
I3 = np.eye(3)
I15 = np.eye(15)

# Landmark layouts are drawn from the seed in the cube [-5, 5]^3 and kept
# only when sum_i (1 + |p_i|^2) lies in this band.  That sum sets the
# Frobenius norm of the output matrix C, hence the stiffness the continuous
# estimator sizes its substeps by, so the band keeps the amount of work per
# run nearly independent of the seed while the geometry still varies.
LAYOUT_BAND = (125.0, 135.0)
N_LANDMARKS = 5


def omega(t):
    """Body rotation rate of the figure-eight."""
    return np.array([-np.cos(2.0 * t), 1.0, np.sin(2.0 * t)])


def position(t):
    return np.array([2.0 * np.sin(t), 2.0 * np.sin(t) * np.cos(t), 2.0])


def velocity(t):
    return np.array([2.0 * np.cos(t), 2.0 * np.cos(2.0 * t), 0.0])


def skew(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def expm_so3(v):
    """Rodrigues exponential; Taylor series below 1e-4 rad."""
    th2 = float(v @ v)
    S = skew(v)
    if th2 < 1e-8:
        a = 1.0 - th2 / 6.0
        b = 0.5 - th2 / 24.0
    else:
        th = np.sqrt(th2)
        a = np.sin(th) / th
        b = (1.0 - np.cos(th)) / th2
    return I3 + a * S + b * (S @ S)


def _magnus4(R, t, h, w_fn):
    # fourth-order Magnus step for dR/dt = R [w(t)]x (Gauss-Legendre nodes)
    c = np.sqrt(3.0) / 6.0
    w1 = w_fn(t + (0.5 - c) * h)
    w2 = w_fn(t + (0.5 + c) * h)
    sig = 0.5 * h * (w1 + w2) + (np.sqrt(3.0) / 12.0) * h * h * np.cross(w1, w2)
    return R @ expm_so3(sig)


def attitude(times, h_max: float = 1.0 / 1600.0):
    """R(t) at each of the sorted times, integrated from R(0) = I.

    Each gap between consecutive requested times is split into equal
    Magnus steps no longer than h_max; the global error is below 1e-12.
    """
    out = []
    R, t = I3.copy(), 0.0
    for t_next in times:
        gap = float(t_next) - t
        if gap < -1e-12:
            raise ValueError("attitude times must be sorted and >= 0")
        n = int(np.ceil(gap / h_max - 1e-9)) if gap > 1e-15 else 0
        for k in range(n):
            R = _magnus4(R, t + k * gap / n, gap / n, omega)
        t = float(t_next)
        out.append(R.copy())
    return out


class Truth:
    """Closed-form position and velocity with integrated attitude, tabulated
    at a fixed set of times."""

    def __init__(self, times):
        self.times = np.asarray(times, dtype=float)
        self.R = attitude(self.times)
        self._index = {round(t * 1e9): k for k, t in enumerate(self.times)}

    def at(self, t):
        k = self._index[round(float(t) * 1e9)]
        return self.R[k], position(self.times[k]), velocity(self.times[k])


def dist_identity(R):
    return float(np.sqrt(np.clip(np.trace(I3 - R), 0.0, 4.0) / 4.0))


# ---------------------------------------------------------------------------
# landmark layouts


def draw_landmarks(seed: int, n: int = N_LANDMARKS):
    """n points uniform in [-5, 5]^3, drawn one 3-vector at a time from
    numpy's default generator seeded with `seed`."""
    rng = np.random.default_rng(seed)
    return np.array([rng.uniform(-5.0, 5.0, 3) for _ in range(n)])


def layout_seed(seed: int):
    """First seed of the sequence 1000*seed, 1000*seed+1, ... whose layout
    lies in LAYOUT_BAND; returns (layout seed, landmark positions)."""
    for j in range(1000):
        s = 1000 * seed + j
        pts = draw_landmarks(s)
        if LAYOUT_BAND[0] <= len(pts) + float(np.sum(pts * pts)) <= LAYOUT_BAND[1]:
            return s, pts
    raise RuntimeError(f"no layout in band for seed {seed}")


# ---------------------------------------------------------------------------
# measurements and the error state


def bearing(R, p, lm, cam_R, cam_p):
    """Unit bearing to landmark lm in a camera mounted at (cam_R, cam_p)."""
    r = R.T @ (lm - p) - cam_p
    return cam_R.T @ (r / np.linalg.norm(r))


def output_matrix(lms, projectors):
    """Rows [Pi, -x Pi, -y Pi, -z Pi, 0] per landmark, Pi the summed
    projector of the cameras that see it."""
    rows = []
    for lm, Pi in zip(lms, projectors):
        rows.append(np.hstack([Pi, -lm[0] * Pi, -lm[1] * Pi, -lm[2] * Pi,
                               np.zeros((3, 3))]))
    return np.vstack(rows)


def projector(y):
    return I3 - np.outer(y, y)


def error_state(R, p, v, est):
    """Translational error (p, e1, e2, e3, v) of an estimate in body axes."""
    x = np.empty(15)
    x[0:3] = R.T @ p - est.R.T @ est.p
    for i in range(3):
        x[3 + 3 * i:6 + 3 * i] = R[i, :] - est.R.T @ est.e[i]
    x[12:15] = R.T @ v - est.R.T @ est.v
    return x


# ---------------------------------------------------------------------------
# transition matrix and Gramian


def abar(gravity=GRAVITY):
    """Measurement-free generator without rotation: velocity feeds position,
    the auxiliary vectors feed velocity through gravity.  Abar^3 = 0."""
    A = np.zeros((15, 15))
    A[0:3, 12:15] = I3
    for j in range(3):
        A[12:15, 3 + 3 * j:6 + 3 * j] = gravity[j] * I3
    return A


def zoh_rotation(imu_t, imu_w, t0, t1):
    """Rotation transported over [t0, t1] by zero-order-hold rates: the
    product of exp(omega_k dt_k) over the held pieces, exact for that input."""
    R = I3.copy()
    k = int(np.searchsorted(imu_t, t0 + 1e-12, side="right")) - 1
    t = t0
    while t1 - t > 1e-12:
        t_next = imu_t[k + 1] if k + 1 < len(imu_t) else np.inf
        seg = min(t_next, t1) - t
        R = R @ expm_so3(imu_w[k] * seg)
        t += seg
        k += 1
    return R


def phi_closed_form(R0, R1, tau, gravity=GRAVITY):
    """Phi(t1, t0) = (I5 x R1^T)(I + Abar tau + Abar^2 tau^2 / 2)(I5 x R0)."""
    A = abar(gravity)
    E = I15 + A * tau + (A @ A) * (0.5 * tau * tau)
    return np.kron(np.eye(5), R1.T) @ E @ np.kron(np.eye(5), R0)


def phi_zoh(imu_t, imu_w, t0, t1, gravity=GRAVITY):
    return phi_closed_form(I3, zoh_rotation(imu_t, imu_w, t0, t1), t1 - t0,
                           gravity)


def gramian_extremes(phis, cs):
    W = np.zeros((15, 15))
    for Phi, C in zip(phis, cs):
        CPhi = C @ Phi
        W += CPhi.T @ CPhi
    ev = np.linalg.eigvalsh(0.5 * (W + W.T))
    return float(ev[0]), float(ev[-1])


def stereo_witness(lms, ids, gravity=GRAVITY, eps_area=1e-6, eps_grav=1e-6):
    """First triple, in lexicographic order, of non-aligned landmarks whose
    plane does not contain the gravity direction, or None."""
    gn = np.linalg.norm(gravity)
    for a, b, c in combinations(range(len(lms)), 3):
        n = np.cross(lms[b] - lms[a], lms[c] - lms[a])
        area = np.linalg.norm(n)
        if area > eps_area and abs(float(n @ gravity)) > eps_grav * gn * area:
            return ids[a], ids[b], ids[c]
    return None
