"""The one measurement model of the three modes.

Frames of landmark observations (stereo or monocular bearings, or
body-frame landmark positions) stacked into arrays, their per-landmark
blocks (p, Pi, b), each a linear constraint Pi z = b on a body-frame
landmark position z, and the linear output y = C x of the body-frame
translational state that the blocks give, or the gains q C^T C and
-q C^T y of the continuous observer formed straight from them.  The
blocks, outputs and gains take leading axes, so a stack of frames or
stage times goes through each kernel in one pass.
"""

from __future__ import annotations

import numpy as np

from .errors import NotUnitError, UnknownLandmarkError
from .geom import I3
from .sim import PositionFrame, rig_arrays

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
    linear_output's of that frame; the kernels run once over the stack.
    """
    return linear_output(observation_blocks(*frame_arrays(frames, cams, lms)))


def observation_blocks(p, Y, seen, rig):
    """(p, Pi, b) of landmarks at p (L, 3) from their rows of
    frame_arrays' stack, observations Y (..., L, K, 3) and seen mask
    (..., L, K), and its rig: bearing_blocks with a rig (Rc, c); without
    one (None) Y holds body-frame positions z in one column, and Pi = I,
    b = z where seen and Pi = 0, b = 0 where not.  Pi is (..., L, 3, 3)
    and b (..., L, 3).
    """
    if rig is not None:
        return bearing_blocks(p, Y, seen, *rig)
    return p, seen[..., 0, None, None] * I3, Y[..., 0, :]


def bearing_blocks(p, Y, seen, Rc, c):
    """(p, Pi, b) of stacked camera-frame bearings.

    Y (..., L, K, 3) holds the bearing of landmark l, at p[l], in camera k
    of a rig with rotations Rc (K, 3, 3) and centres c (K, 3); seen
    (..., L, K) marks the bearings observed, and the others must be
    finite.  With x = R_c y the rotated bearing, Pi = sum_c pi(x_c) and
    b = sum_c pi(x_c) c_c over the cameras that see the landmark, in the
    order of the rig; a landmark no camera sees gets Pi = 0 and b = 0.
    The outer products x x^T are a matmul and the projector is formed in
    place: numpy's elementwise loops copy a broadcast operand of a stack
    into a buffer of the result's size, matmul does not.

    Raises NotUnitError for a seen rotated bearing whose norm is off 1 by
    more than 1e-6.
    """
    X = (Rc @ Y[..., None])[..., 0]
    norm = np.sqrt(np.einsum("...ki,...ki->...k", X, X))
    off = seen & (np.abs(norm - 1.0) > 1e-6)
    if off.any():
        raise NotUnitError(
            f"expected a unit vector, got norm {float(norm[off][0])!r}")
    proj = X[..., :, None] @ X[..., None, :]
    np.subtract(I3, proj, out=proj)
    proj *= seen[..., None, None]
    return p, proj.sum(axis=-3), np.einsum("...kij,kj->...i", proj, c)


def linear_output(blocks):
    """The linear output (y, C) of landmark_blocks: y = C x for the
    body-frame translational state x of error_state, with y = -b and row
    block r_i^T (x) Pi_i per landmark, r_i = (1, -p_i, 0).  Blocks with
    leading axes give y (..., 3L) and C (..., 3L, 15).  No estimate
    enters it."""
    p, Pi, b = blocks
    C = _output_matrix(p, Pi, 5)
    return -b.reshape(C.shape[:-1]), C


def _output_matrix(p, Pi, n):
    """C (..., 3L, 3n) of blocks Pi (..., L, 3, 3) of landmarks at p: the
    first n of the row weights r_i = (1, -p_i, 0) of linear_output, each
    entry the product r_ij Pi_i[a, b], as a matmul of single-term sums,
    which buffers no broadcast operand (see bearing_blocks)."""
    r = np.zeros((len(p), n))
    r[:, 0] = 1.0
    r[:, 1:4] = -p
    C = r[:, None, :, None] @ Pi[..., None, :]
    return C.reshape(*Pi.shape[:-3], 3 * len(p), 3 * n)


def output_gains(y, C, q):
    """(S, g) = (q C^T C, -q C^T y) of a linear output y = C x on the
    first 12 entries of the state, (12, 12) and (12,): no output reads v,
    so the rows and columns of v are zero and are left out."""
    return (q * C.T @ C)[:12, :12], (-q * C.T @ y)[:12]


def stacked_gains(p, Y, seen, rig, q):
    """(S, g, has) of a source's answer (see observer.step) at T times
    from observation stacks as frame_arrays' of T frames: Y (T, L, K, 3)
    and seen (T, L, K) of the landmarks at p (L, 3), and rig.  S and g are
    the output_gains of each time's linear output over every landmark (an
    unseen one has zero rows), (T, 12, 12) and (T, 12); has marks the
    times that see a landmark.

    The blocks, the output matrices C (without the zero columns of v) and
    the products (q C^T) C and (q C^T) b = -q C^T y are each one stacked
    pass over a half of the times, so that the stacks of C and q C^T are
    half the batch's: under tracemalloc one 33-time stereo source query
    peaks at about 110 KB in halves and 165 KB over the whole stack.
    Each time's S and g are the products output_gains forms, bit for bit:
    one matmul per time of the same operands, as the onset of a measured
    stereo run amplifies a reordered sum of S (the Kronecker form
    sum_l (r_l r_l^T) (x) (Pi_l^T Pi_l)) about ten thousandfold.
    """
    T = len(seen)
    S, g = np.empty((T, 12, 12)), np.empty((T, 12, 1))
    for h in (slice(T // 2), slice(T // 2, T)):
        _gains_into(p, Y[h], seen[h], rig, q, S[h], g[h])
    return S, g[..., 0], seen.any(axis=(1, 2))


def _gains_into(p, Y, seen, rig, q, S, g):
    """stacked_gains' S and g of a stack of times into S and g (T, 12, 1)."""
    _, Pi, b = observation_blocks(p, Y, seen, rig)
    C = _output_matrix(p, Pi, 4)
    qCt = q * C.transpose(0, 2, 1)
    np.matmul(qCt, C, out=S)
    np.matmul(qCt, b.reshape(*C.shape[:2], 1), out=g)
