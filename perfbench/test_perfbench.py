"""Tests of the benchmark itself: its oracle, its metric names and a short
run of every workload.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _brute_phi(imu_t, imu_w, t0, t1, substeps=8):
    """RK4 on dPhi/dt = (Abar - I5 x [w]x) Phi, each held IMU piece split
    into `substeps` steps so that no stage crosses a sample instant."""
    A0 = oracle.abar()
    Phi = np.eye(15)
    t = t0
    while t1 - t > 1e-12:
        k = int(np.searchsorted(imu_t, t + 1e-12, side="right")) - 1
        seg = min(imu_t[k + 1], t1) - t
        A = A0 - np.kron(np.eye(5), oracle.skew(imu_w[k]))
        h = seg / substeps
        for _ in range(substeps):
            k1 = A @ Phi
            k2 = A @ (Phi + 0.5 * h * k1)
            k3 = A @ (Phi + 0.5 * h * k2)
            k4 = A @ (Phi + h * k3)
            Phi = Phi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += seg
    return Phi


@pytest.mark.parametrize("t0,t1", [(0.0, 0.05), (0.0123, 0.3), (1.7, 1.95),
                                   (2.0, 2.0)])
def test_phi_oracle_matches_brute_force_integration(t0, t1):
    imu_t = np.arange(0, 401) / 200.0
    rng = np.random.default_rng(3)
    imu_w = np.array([oracle.omega(t) for t in imu_t]) \
        + 0.05 * rng.normal(size=(imu_t.size, 3))
    ref = _brute_phi(imu_t, imu_w, t0, t1)
    assert np.abs(oracle.phi_zoh(imu_t, imu_w, t0, t1) - ref).max() <= 1e-10


def test_abar_is_nilpotent_of_index_three():
    A = oracle.abar()
    assert np.any(A @ A) and not np.any(A @ A @ A)


def test_attitude_oracle_converges_and_follows_the_rate():
    times = np.linspace(0.0, 3.0, 31)
    fine = oracle.attitude(times)
    coarse = oracle.attitude(times, h_max=1.0 / 400.0)
    assert max(np.abs(a - b).max() for a, b in zip(fine, coarse)) <= 1e-10
    # dR/dt = R [omega]x by central differences at t = 1
    h = 1e-5
    Rm, R, Rp = oracle.attitude([1.0 - h, 1.0, 1.0 + h])
    dR = (Rp - Rm) / (2 * h)
    assert np.abs(dR - R @ oracle.skew(oracle.omega(1.0))).max() <= 1e-8


def test_layouts_lie_in_the_band_and_follow_the_seed():
    for seed in range(5):
        s, pts = oracle.layout_seed(seed)
        lo, hi = oracle.LAYOUT_BAND
        assert lo <= len(pts) + float(np.sum(pts * pts)) <= hi
        assert np.array_equal(pts, oracle.draw_landmarks(s))
    assert oracle.layout_seed(7)[0] != oracle.layout_seed(8)[0]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_short_run_passes_checks_and_names_every_metric(workload):
    result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_names_every_per_layer_metric():
    result = _run("dataset-hybrid", trace=1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["hybrid.jumps"]["value"] == 80
