"""Tests for the SO(3) geometry kernel."""

import numpy as np
import pytest

from visnav.errors import NotAntisymmetricError, NotUnitError
from visnav.geom import (
    I3,
    AttitudeTable,
    cross,
    dexpinv_body,
    dist_identity,
    exp_so3,
    is_rotation,
    pi_proj,
    potential_terms,
    project_to_rotation,
    psi_antisym,
    random_rotation,
    rk4_exp_floats,
    rotation_axis,
    skew,
    vee,
)
from visnav.observer import GainConfig, attitude_innovation


def exp_series(v, terms=26):
    # independent oracle: truncated matrix exponential series
    # (term k has size |v|^k / k!; 26 terms keep the tail below 1e-13
    # for |v| <= pi)
    A = skew(v)
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    return out


def test_skew_basics():
    assert np.allclose(skew([1, 0, 0]) @ [0, 1, 0], [0, 0, 1])
    assert np.allclose(skew([0, 0, 0]), np.zeros((3, 3)))
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rng.normal(size=3)
        w = rng.normal(size=3)
        S = skew(v)
        assert np.linalg.norm(S + S.T) <= 1e-15
        assert np.allclose(S @ w, np.cross(v, w), atol=1e-14)


def test_vee_roundtrip():
    assert np.allclose(vee(skew([1, 2, 3])), [1, 2, 3])
    assert np.allclose(vee(np.zeros((3, 3))), [0, 0, 0])
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.normal(size=3)
        assert np.linalg.norm(vee(skew(v)) - v) <= 1e-12


def test_vee_rejects_non_antisymmetric():
    with pytest.raises(NotAntisymmetricError):
        vee(np.eye(3))


def test_psi_antisym():
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = rng.normal(size=3)
        assert np.allclose(psi_antisym(skew(w)), w, atol=1e-14)
        A = rng.normal(size=(3, 3))
        S = A + A.T
        assert np.allclose(psi_antisym(S), np.zeros(3), atol=1e-14)
        # generic matrix: equals vee of the antisymmetric part
        assert np.allclose(psi_antisym(A), vee((A - A.T) / 2), atol=1e-14)


def test_pi_proj_properties():
    assert np.allclose(pi_proj(np.array([0.0, 0.0, 1.0])), np.diag([1.0, 1.0, 0.0]))
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.normal(size=3)
        x = x / np.linalg.norm(x)
        P = pi_proj(x)
        assert np.allclose(P, P.T)
        assert np.linalg.norm(P @ x) <= 1e-12
        assert np.linalg.norm(P @ P - P) <= 1e-12
        ev = np.sort(np.linalg.eigvalsh(P))
        assert np.allclose(ev, [0.0, 1.0, 1.0], atol=1e-12)
        # rotation equivariance
        R = random_rotation(rng)
        assert np.linalg.norm(R @ P @ R.T - pi_proj(R @ x)) <= 1e-12


def test_pi_proj_rejects_non_unit():
    with pytest.raises(NotUnitError):
        pi_proj(np.array([1.0, 1.0, 0.0]))


def test_exp_so3_against_series():
    assert np.allclose(exp_so3(np.zeros(3)), I3)
    assert np.allclose(exp_so3([np.pi, 0, 0]), np.diag([1.0, -1.0, -1.0]), atol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform(0, np.pi)
        R = exp_so3(v)
        assert np.linalg.norm(R - exp_series(v)) <= 1e-10
        assert np.linalg.norm(R @ R.T - I3) <= 1e-9
        assert abs(np.linalg.det(R) - 1.0) <= 1e-9
    # tiny-angle branch stays consistent with the series
    for scale in (1e-12, 1e-9, 1e-7):
        v = np.array([1.0, -2.0, 0.5]) * scale
        assert np.linalg.norm(exp_so3(v) - exp_series(v)) <= 1e-15


def test_dist_identity_values():
    assert dist_identity(I3) == 0.0
    assert abs(dist_identity(exp_so3([np.pi, 0, 0])) - 1.0) <= 1e-12
    assert abs(dist_identity(exp_so3([np.pi / 2, 0, 0])) - np.sqrt(2) / 2) <= 1e-12
    rng = np.random.default_rng(6)
    Rs = np.array([random_rotation(rng) for _ in range(100)])
    for R, d in zip(Rs, dist_identity(Rs)):     # a stack, row by row
        assert d == dist_identity(R) and 0.0 <= d <= 1.0
    assert dist_identity(Rs[:0]).shape == (0,)


def test_dist_identity_reads_small_angles_and_defects_exactly():
    # the angle form reads a 1e-9 rad rotation to full precision, where
    # sqrt(tr(I - R)/4) reads 0 (the trace rounds to 3), and an
    # orthogonality defect of 1e-13 to first order, where the trace form
    # reads about its square root
    u = np.array([1.0, -2.0, 2.0]) / 3.0
    assert abs(dist_identity(exp_so3(1e-9 * u)) - np.sin(0.5e-9)) <= 1e-12
    D = np.array([[1.0, 0.3, -0.2], [0.3, 2.0, 0.5], [-0.2, 0.5, 1.5]])
    assert abs(dist_identity(I3 - 1e-13 * D)) <= 1e-12
    R = exp_so3(0.7 * u)
    th = np.arctan2(np.linalg.norm(psi_antisym(R)), 0.5 * (np.trace(R) - 1))
    assert abs(dist_identity(R - 1e-13 * D) - np.sin(0.5 * th)) <= 1e-12


def test_rotation_axis():
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = rng.normal(size=3)
        u = u / np.linalg.norm(u)
        th = rng.uniform(1e-3, np.pi - 1e-3)
        ax = rotation_axis(exp_so3(th * u))
        assert np.linalg.norm(ax - u) <= 1e-6
    # near a half turn the antisymmetric part vanishes but the axis survives
    u = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    ax = rotation_axis(exp_so3((np.pi - 1e-7) * u))
    assert min(np.linalg.norm(ax - u), np.linalg.norm(ax + u)) <= 1e-4
    assert rotation_axis(I3) is None


def test_potential_terms_base_point():
    M = np.diag([0.5, 0.3, 0.2])
    terms = potential_terms(M, I3)
    assert np.allclose(terms.m_bar, np.diag([0.25, 0.35, 0.4]))
    assert terms.alpha == 1.0
    # at the identity the cross term reduces to m_bar itself
    assert np.allclose(terms.e, terms.m_bar)


def test_potential_terms_norm_bound():
    M = np.diag([0.5, 0.3, 0.2])
    m_bar = (np.trace(M) * I3 - M) / 2
    rng = np.random.default_rng(8)
    for _ in range(100):
        R = random_rotation(rng)
        terms = potential_terms(M, R)
        assert np.linalg.norm(terms.e) <= np.linalg.norm(m_bar) + 1e-12


def test_potential_terms_trace_bounds():
    M = np.diag([0.5, 0.3, 0.2])
    m_bar = (np.trace(M) * I3 - M) / 2
    lo, hi = np.min(np.diag(m_bar)), np.max(np.diag(m_bar))
    rng = np.random.default_rng(9)
    for _ in range(200):
        R = random_rotation(rng)
        d2 = dist_identity(R) ** 2
        val = np.trace((I3 - R) @ M)
        assert 4 * lo * d2 - 1e-12 <= val <= 4 * hi * d2 + 1e-12


def test_potential_identity():
    # ||psi_a(M R)||^2 = alpha(M, R) * tr((I - R) m_under)
    M = np.diag([0.5, 0.3, 0.2])
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        R = random_rotation(rng)
        terms = potential_terms(M, R)
        lhs = np.linalg.norm(psi_antisym(M @ R)) ** 2
        rhs = terms.alpha * np.trace((I3 - R) @ terms.m_under)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9


def test_potential_identity_general_psd():
    rng = np.random.default_rng(11)
    for _ in range(200):
        B = rng.normal(size=(3, 3))
        M = B @ B.T
        R = random_rotation(rng)
        terms = potential_terms(M, R)
        lhs = np.linalg.norm(psi_antisym(M @ R)) ** 2
        rhs = terms.alpha * np.trace((I3 - R) @ terms.m_under)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(M) ** 2)


def test_project_to_rotation():
    rng = np.random.default_rng(12)
    for _ in range(100):
        R = random_rotation(rng)
        noisy = R + 1e-6 * rng.normal(size=(3, 3))
        fixed = project_to_rotation(noisy)
        assert is_rotation(fixed)
        assert np.linalg.norm(fixed - R) <= 1e-5
    # projection of an exact rotation is (numerically) itself
    R = random_rotation(rng)
    assert np.linalg.norm(project_to_rotation(R) - R) <= 1e-14


def test_cross_matches_np_cross():
    # the component formula must equal np.cross bit for bit, and so must
    # the closed form of the attitude innovation against its np.cross loop
    rng = np.random.default_rng(23)
    for _ in range(200):
        a, b = rng.normal(size=3), rng.normal(size=3)
        E = rng.normal(size=(3, 3))
        assert np.array_equal(cross(a, b), np.cross(a, b))
        cfg = GainConfig(k_r=rng.uniform(0.5, 30.0),
                         rho=tuple(rng.uniform(0.1, 1.0, 3)))
        s = np.zeros(3)
        for i in range(3):
            s += cfg.rho[i] * np.cross(E[i], np.eye(3)[i])
        assert np.array_equal(attitude_innovation(E, cfg), 0.5 * cfg.k_r * s)


def test_dexpinv_body_inverts_differential():
    # d/dt exp(sigma(t)) = exp(sigma) omega^x  must hold when
    # sigma' = dexpinv_body(sigma, omega); check by finite differences.
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(50):
        sig = rng.normal(size=3) * 0.05  # truncation defect is O(|sig|^4)
        omega = rng.normal(size=3)
        ds = dexpinv_body(sig, omega)
        lhs = (exp_so3(sig + h * ds) - exp_so3(sig - h * ds)) / (2 * h)
        rhs = exp_so3(sig) @ skew(omega)
        # a flipped sign convention would leave an O(|sig||omega|) ~ 1e-1 gap
        assert np.linalg.norm(lhs - rhs) <= 5e-6


def test_rk4_exp_floats_is_exact_for_a_constant_rate():
    # a constant body rate keeps sigma parallel to it, so every dexpinv
    # correction vanishes and the step is R0 exp(h w); the rate is asked at
    # stages 0..3 with each stage's R0 exp(sigma)
    rng = np.random.default_rng(4)
    R0, w, h = random_rotation(rng), np.array([0.3, -1.2, 0.7]), 0.05
    seen = []

    def rate(j, R):
        seen.append((j, np.array(R)))
        return w.tolist()

    R = np.array(rk4_exp_floats(R0.tolist(), rate, h))
    assert np.max(np.abs(R - R0 @ exp_so3(h * w))) <= 1e-15
    assert [j for j, _ in seen] == [0, 1, 2, 3]
    for (_, Rj), c in zip(seen, (0.0, 0.5, 0.5, 1.0)):
        assert np.max(np.abs(Rj - R0 @ exp_so3(c * h * w))) <= 1e-15


def eight_omega(t):
    return np.array([-np.cos(2.0 * t), 1.0, np.sin(2.0 * t)])


def test_attitude_table_exact_for_held_rate_and_fourth_order():
    w = np.array([0.3, -1.2, 0.7])
    held = AttitudeTable([0.4, 0.65], lambda t: w)
    assert np.max(np.abs(held.R[-1] - exp_so3(0.25 * w))) <= 1e-15
    assert np.max(np.abs(held(0.5) - exp_so3(0.1 * w))) <= 1e-15

    def integrate(n):
        return AttitudeTable(np.arange(n + 1) / n, eight_omega).R[-1]

    # the exact R(1) of that coning motion: exp([w0 + 2 e_y]x) exp(-2 [e_y]x)
    # with w0 = (-1, 1, 0) the rate at t = 0
    c, s = np.cos(2.0), np.sin(2.0)
    ref = exp_so3([-1.0, 3.0, 0.0]) @ np.array([[c, 0.0, -s],
                                                 [0.0, 1.0, 0.0],
                                                 [s, 0.0, c]])
    e10, e20, e40 = (np.max(np.abs(integrate(n) - ref)) for n in (10, 20, 40))
    # halving the step divides a fourth-order global error by about 16
    assert 15.5 < e10 / e20 < 16.5 and 15.5 < e20 / e40 < 16.5


def test_exp_so3_stack_matches_single_vectors():
    rng = np.random.default_rng(31)
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    V = np.vstack([np.zeros(3), 3e-9 * u, 0.5e-8 * u,
                   rng.normal(size=(200, 3)),
                   (np.pi - 1e-9) * u, np.pi * u, (np.pi + 1e-7) * u])
    E = exp_so3(V)
    assert E.shape == (V.shape[0], 3, 3)
    for v, R in zip(V, E):
        assert np.max(np.abs(R - exp_so3(v))) <= 1e-15
    assert np.array_equal(E[0], I3)


def test_project_to_rotation_stack_is_bit_identical():
    rng = np.random.default_rng(32)
    M = np.vstack([random_rotation(rng)[None] + 1e-3 * rng.normal(size=(20, 3, 3)),
                   rng.normal(size=(20, 3, 3))])
    assert (np.linalg.det(M) < 0).any()
    P = project_to_rotation(M)
    for m, r in zip(M, P):
        assert np.array_equal(r, project_to_rotation(m))
        assert np.linalg.det(r) > 0


def test_attitude_table_matches_stepwise_projected_integration():
    # reference: one Magnus step from the projected node below, and one
    # projection per node, over 30 s on the 200 Hz grid
    c, dt = np.sqrt(3.0) / 6.0, 1.0 / 200.0
    ts = np.arange(6001) * dt
    table = AttitudeTable(ts, eight_omega)
    R, worst = I3, 0.0
    for k, t in enumerate(ts[:-1]):
        w1, w2 = eight_omega(t + (0.5 - c) * dt), eight_omega(t + (0.5 + c) * dt)
        sigma = 0.5 * dt * (w1 + w2) + (0.5 * c * dt * dt) * np.cross(w1, w2)
        R = project_to_rotation(R @ exp_so3(sigma))
        worst = max(worst, np.max(np.abs(table.R[k + 1] - R)))
    assert worst <= 1e-12
    defect = np.abs(table.R @ table.R.transpose(0, 2, 1) - I3).max()
    assert defect <= 1e-14
    # a query on a node (or a hair below it) reads the node; off the grid
    # it takes one step from the node below
    assert np.array_equal(table(ts[137]), table.R[137])
    assert np.array_equal(table(ts[137] - 1e-13), table.R[137])
    t = ts[137] + 0.4 * dt
    ref = table.R[137] @ AttitudeTable([ts[137], t], eight_omega).R[1]
    assert np.max(np.abs(table(t) - ref)) <= 1e-15


def test_exp_so3_single_vector_matches_the_stack():
    # the single-vector path (Python floats) agrees with the stack branch
    # to an ulp or two at zero, below the series switch, at random angles
    # and up to a half-turn
    rng = np.random.default_rng(32)
    th = np.concatenate([np.zeros(1), [1e-12, 1e-9, 0.99e-8],
                         rng.uniform(0.0, 1e-8, 46),
                         rng.uniform(0.0, np.pi, 300),
                         np.pi - rng.uniform(0.0, 1e-6, 48), [np.pi, np.pi]])
    u = rng.normal(size=(len(th), 3))
    V = th[:, None] * (u / np.linalg.norm(u, axis=1)[:, None])
    for v, R in zip(V, exp_so3(V)):
        single = exp_so3(v)
        assert single.shape == (3, 3)
        assert np.max(np.abs(single - R)) <= 1e-15
    assert np.array_equal(exp_so3(np.zeros(3)), I3)
    assert np.array_equal(exp_so3([0.1, -0.2, 0.3]),
                          exp_so3(np.array([0.1, -0.2, 0.3])))
