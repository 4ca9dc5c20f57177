"""Span tracer for the traced benchmark run.

The tracer replaces public functions of visnav, for the length of one
round, by wrappers placed in the namespace of the module that calls them
(for example `visnav.observer.innovation_stereo`, which the measurement
sources look up there, or `rotation` on one trajectory instance).  Each
wrapper records a span (name, start, end, parent, self time) in memory;
`layer_metrics` turns the spans into the per-layer metrics and `write`
saves them when the run ends.  Nothing inside visnav is edited.
"""

from __future__ import annotations

import gzip
import os
from collections import defaultdict
from time import perf_counter_ns

_MISSING = object()

INNOVATIONS = (("innovation_position", "observer.innovation.position3d"),
               ("innovation_stereo", "observer.innovation.stereo"),
               ("innovation_mono", "observer.innovation.monocular"))
GEOM = ("exp_so3", "dexpinv_body", "project_to_rotation")


class Tracer:
    """In-memory span recorder with reversible patches."""

    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent, self_ns)
        self.counts = defaultdict(int)
        self._stack = []
        self._child_ns = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, tally=None):
        """Callable recording one span per call of fn; `tally`, if given,
        is a count key bumped on every call."""
        spans, stack, child = self.spans, self._stack, self._child_ns
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            child.append(0)
            if tally is not None:
                counts[tally] += 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                covered = child.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1,
                              t1 - t0 - covered)
                if child:
                    child[-1] += t1 - t0

        return traced

    def patch(self, obj, attr, replacement):
        """setattr(obj, attr, replacement) until restore()."""
        self._patches.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, replacement)

    def patch_wrap(self, obj, attr, name, tally=None):
        self.patch(obj, attr, self.wrap(name, getattr(obj, attr), tally))

    def restore(self):
        while self._patches:
            obj, attr, old = self._patches.pop()
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)

    # -- output --------------------------------------------------------------

    def write(self, path):
        """Spans as gzip CSV: index,name,start_ns,end_ns,parent,self_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,self_ns\n")
            for i, (name, t0, t1, parent, own) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0},{t1},{parent},{own}\n")


def install(tracer):
    """Wrap the public functions of every visnav module at their call sites.

    EightTrajectory calls `rotation` through self, so that method is wrapped
    on each instance, through constructor wrappers in visnav.sim (used by
    the benchmark) and visnav.cli (used by `visnav simulate`).
    """
    from visnav import cli, dataio, hybrid, observer, sim

    tr = tracer
    for mod in (observer, dataio, hybrid, cli):
        for attr, name in INNOVATIONS:
            tr.patch_wrap(mod, attr, name)
    for attr in GEOM:
        tr.patch_wrap(observer, attr, f"geom.{attr}", tally="geom.from_observer")
        tr.patch_wrap(sim, attr, f"geom.{attr}")
    tr.patch_wrap(observer, "step", "observer.step")
    tr.patch_wrap(hybrid, "step", "observer.step")
    for mod in (observer, cli):
        tr.patch_wrap(mod, "make_bearing_frame", "sim.bearing_frame")
        tr.patch_wrap(mod, "make_position_frame", "sim.bearing_frame")
    for attr in ("flow", "jump", "tune_vq"):
        tr.patch_wrap(hybrid, attr, f"hybrid.{attr}")
    for attr in ("gramian_discrete", "check_stereo_condition",
                 "check_mono_motion"):
        tr.patch_wrap(cli, attr, f"observability.{attr}")
    tr.patch_wrap(cli, "classify_static_degeneracy",
                  "observability.static_degeneracy")
    for attr in ("save_dataset", "write_trace"):
        tr.patch_wrap(cli, attr, f"dataio.{attr}")
    tr.patch_wrap(cli, "main", "cli.main")

    def wrap_rotation(traj):
        tr.patch(traj, "rotation", tr.wrap("sim.rotation", traj.rotation))
        return traj

    make_traj = tr.wrap("sim.trajectory_table", sim.EightTrajectory)
    for mod in (sim, cli):
        tr.patch(mod, "EightTrajectory",
                 lambda *a, **k: wrap_rotation(make_traj(*a, **k)))

    load = tr.wrap("dataio.load_dataset", cli.load_dataset)

    def load_dataset(path):
        for entry in os.scandir(path):
            tr.counts["dataio.bytes_read"] += entry.stat().st_size
        return load(path)

    tr.patch(cli, "load_dataset", load_dataset)

    def traced_run(name, fn, imu_name, meas_name):
        run = tr.wrap(name, fn)

        def call(est, imu, provider, *args, **kwargs):
            imu = tr.wrap(imu_name, imu, tally="observer.imu_calls")
            if meas_name is not None:
                provider = tr.wrap(meas_name, provider,
                                   tally="observer.meas_calls")
            return run(est, imu, provider, *args, **kwargs)

        return call

    tr.patch(observer, "run_continuous",
             traced_run("observer.run_continuous", observer.run_continuous,
                        "sim.imu", "observer.source"))
    tr.patch(cli, "run_continuous",
             traced_run("observer.run_continuous", cli.run_continuous,
                        "dataio.interp_imu", "dataio.provider"))
    tr.patch(cli, "hybrid_run",
             traced_run("hybrid.run", cli.hybrid_run, "hybrid.imu", None))

    transition = tr.wrap("observability.transition_matrix",
                         cli.transition_matrix)

    def transition_matrix(omega_fn, *args, **kwargs):
        def counted(t):
            tr.counts["observability.omega_evals"] += 1
            return omega_fn(t)
        return transition(counted, *args, **kwargs)

    tr.patch(cli, "transition_matrix", transition_matrix)


# ---------------------------------------------------------------------------
# per-layer metrics

LAYER_METRICS = (
    ("sim.rotation_calls_per_step", "count"),
    ("sim.rotation_us", "us"),
    ("sim.bearing_frame_us", "us"),
    ("sim.self_s", "s"),
    ("observer.substeps_per_step", "count"),
    ("observer.substeps_max", "count"),
    ("observer.meas_calls_per_step", "count"),
    ("observer.imu_calls_per_step", "count"),
    ("observer.useful_meas_ratio", "ratio"),
    ("observer.innovation_us.position3d", "us"),
    ("observer.innovation_us.stereo", "us"),
    ("observer.innovation_us.monocular", "us"),
    ("observer.step_p50_us", "us"),
    ("observer.step_p99_us", "us"),
    ("observer.step_max_s", "s"),
    ("observer.self_s", "s"),
    ("geom.exp_so3_us", "us"),
    ("geom.dexpinv_body_us", "us"),
    ("geom.project_to_rotation_us", "us"),
    ("geom.calls_per_step", "count"),
    ("hybrid.flow_us", "us"),
    ("hybrid.jump_us", "us"),
    ("hybrid.tune_vq_us", "us"),
    ("hybrid.jumps", "count"),
    ("hybrid.self_s", "s"),
    ("observability.transition_matrix_calls", "count"),
    ("observability.omega_evals", "count"),
    ("observability.transition_matrix_ms", "ms"),
    ("observability.gramian_discrete_us", "us"),
    ("observability.static_degeneracy_ms", "ms"),
    ("observability.checks_ms", "ms"),
    ("dataio.load_dataset_s", "s"),
    ("dataio.write_trace_s", "s"),
    ("dataio.save_dataset_s", "s"),
    ("dataio.bytes_read", "bytes"),
    ("dataio.provider_us", "us"),
    ("dataio.interp_imu_us", "us"),
    ("cli.self_s", "s"),
)


def _percentile(sorted_vals, q):
    # nearest-rank percentile of an ascending list
    if not sorted_vals:
        return 0.0
    k = max(0, min(len(sorted_vals) - 1,
                   int(-(-q * len(sorted_vals) // 100)) - 1))
    return sorted_vals[k]


def layer_metrics(tracer, n_imu_steps, n_windows):
    """Per-layer metrics from the recorded spans.

    n_imu_steps is the number of 200 Hz IMU instants the round covers
    (setup and timed operation) and n_windows the number of Gramian
    windows analysed; layers a workload never calls read 0.
    """
    calls = defaultdict(int)
    total = defaultdict(int)
    own = defaultdict(int)
    by_layer_self = defaultdict(int)
    step_ns = []
    substeps = defaultdict(int)
    for name, t0, t1, parent, self_ns in tracer.spans:
        calls[name] += 1
        total[name] += t1 - t0
        own[name] += self_ns
        by_layer_self[name.split(".", 1)[0]] += self_ns
        if name == "observer.step":
            step_ns.append(t1 - t0)
        elif name == "geom.project_to_rotation" and parent >= 0 \
                and tracer.spans[parent][0] == "observer.step":
            substeps[parent] += 1
    counts = tracer.counts

    def mean(name, scale):
        return total[name] / calls[name] * scale if calls[name] else 0.0

    def per(count, base):
        return count / base if base else 0.0

    steps = calls["observer.step"]
    n_sub = sum(substeps.values())
    n_inn = sum(calls[name] for _, name in INNOVATIONS)
    step_ns.sort()
    us, ms, s = 1e-3, 1e-6, 1e-9
    out = {
        "sim.rotation_calls_per_step": per(calls["sim.rotation"], n_imu_steps),
        "sim.rotation_us": mean("sim.rotation", us),
        "sim.bearing_frame_us": mean("sim.bearing_frame", us),
        "sim.self_s": by_layer_self["sim"] * s,
        "observer.substeps_per_step": per(n_sub, steps),
        "observer.substeps_max": max(substeps.values(), default=0),
        "observer.meas_calls_per_step": per(counts["observer.meas_calls"],
                                            steps),
        "observer.imu_calls_per_step": per(counts["observer.imu_calls"],
                                           steps),
        "observer.useful_meas_ratio": per(4 * n_sub, n_inn),
        "observer.step_p50_us": _percentile(step_ns, 50) * us,
        "observer.step_p99_us": _percentile(step_ns, 99) * us,
        "observer.step_max_s": (step_ns[-1] if step_ns else 0) * s,
        "observer.self_s": by_layer_self["observer"] * s,
        "geom.calls_per_step": per(counts["geom.from_observer"], steps),
        "hybrid.flow_us": mean("hybrid.flow", us),
        "hybrid.jump_us": mean("hybrid.jump", us),
        "hybrid.tune_vq_us": mean("hybrid.tune_vq", us),
        "hybrid.jumps": calls["hybrid.jump"],
        "hybrid.self_s": by_layer_self["hybrid"] * s,
        "observability.transition_matrix_calls":
            calls["observability.transition_matrix"],
        "observability.omega_evals": per(counts["observability.omega_evals"],
                                         n_windows),
        "observability.transition_matrix_ms":
            mean("observability.transition_matrix", ms),
        "observability.gramian_discrete_us":
            mean("observability.gramian_discrete", us),
        "observability.static_degeneracy_ms":
            mean("observability.static_degeneracy", ms),
        "observability.checks_ms":
            (total["observability.check_stereo_condition"]
             + total["observability.check_mono_motion"]) * ms,
        "dataio.load_dataset_s": mean("dataio.load_dataset", s),
        "dataio.write_trace_s": mean("dataio.write_trace", s),
        "dataio.save_dataset_s": mean("dataio.save_dataset", s),
        "dataio.bytes_read": counts["dataio.bytes_read"],
        "dataio.provider_us": mean("dataio.provider", us),
        "dataio.interp_imu_us": mean("dataio.interp_imu", us),
        "cli.self_s": by_layer_self["cli"] * s,
    }
    for _, name in INNOVATIONS:
        out["observer.innovation_us." + name.rsplit(".", 1)[1]] = mean(name, us)
    for attr in GEOM:
        out[f"geom.{attr}_us"] = mean(f"geom.{attr}", us)
    units = dict(LAYER_METRICS)
    return {name: {"value": out[name], "unit": units[name]}
            for name, _ in LAYER_METRICS}
