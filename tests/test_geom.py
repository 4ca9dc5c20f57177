"""Tests for the SO(3) geometry kernel."""

import numpy as np
import pytest

from visnav.errors import NotAntisymmetricError, NotUnitError
from visnav.geom import (
    I3,
    dexpinv_body,
    dist_identity,
    exp_so3,
    is_rotation,
    pi_proj,
    potential_terms,
    project_to_rotation,
    psi_antisym,
    random_rotation,
    rotation_axis,
    rotation_step,
    skew,
    vee,
)


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
    for _ in range(100):
        d = dist_identity(random_rotation(rng))
        assert 0.0 <= d <= 1.0


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


def test_rotation_step_exact_for_held_rate_and_fourth_order():
    w = np.array([0.3, -1.2, 0.7])
    R0 = exp_so3(np.array([0.2, 0.1, -0.4]))
    held = rotation_step(R0, lambda t: w, 0.4, 0.25)
    assert np.max(np.abs(held - R0 @ exp_so3(0.25 * w))) <= 1e-15

    def omega(t):
        return np.array([-np.cos(2.0 * t), 1.0, np.sin(2.0 * t)])

    def integrate(n):
        R = I3
        for k in range(n):
            R = rotation_step(R, omega, k / n, 1.0 / n)
        return R

    ref = integrate(640)
    assert is_rotation(ref, tol=1e-12)
    e10, e20 = (np.max(np.abs(integrate(n) - ref)) for n in (10, 20))
    # halving the step divides a fourth-order global error by about 16
    assert 12.0 < e10 / e20 < 20.0
