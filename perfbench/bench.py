"""Closed-loop latency benchmark of the falconnet library.

One caller sends the next operation only after the previous one returned.
An operation is one fused ``forward`` call, or one ``verify_equivalence``
trial of the train form against the fused form. Set-up (``build_model``,
``load_weights``, ``fuse_model`` and a warm-up operation) is repeated
``SETUP_REPS`` times and timed on its own. With ``trace`` on, every
operation is also replayed kernel by kernel (see tracing.py) to give the
per-layer numbers.

Every operation is checked: logits must be finite and of the right shape,
and a verify trial must pass. A sample of operations (the first and the
last) is also re-run untimed: through the train-form graph, image by image
for batched workloads, and against the warm-up runs of the same input.
Failures are counted, never dropped.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from falconnet import (build_model, cost_report, forward, fuse_model, init_weights, load_weights,
                       preset_config, save_weights, verify_equivalence)
from falconnet.model import ModelConfig

from tracing import KERNELS, STAGES, Replay, Trace, leaves

# Weights are fixed across runs so that their digest identifies the model;
# the workload seed varies only the inputs.
WEIGHT_SEED = 0
SETUP_REPS = 3
MIN_OPS = 3
# Train/fused tolerance: the default of `falconnet verify`. Logits reach
# about 14 in magnitude; the measured discrepancy is near 5e-6.
FUSE_TOL = 1e-4
# A batched row against the same image run alone; measured differences are
# below 1e-5.
BATCH_TOL = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    batch: int
    verify: bool  # an operation is one verify_equivalence trial, not one forward


WORKLOADS = {w.name: w for w in (
    Workload("fused-falcon-b1", "falconnet", 1, False),
    Workload("fused-lightnet-b8", "lightnet-repso", 8, False),
    Workload("verify-falcon", "falconnet", 1, True),
)}


@dataclass
class Model:
    graph: object
    store: object
    fused_graph: object
    fused_store: object


@dataclass
class OpOut:
    """Logits of one operation, the inputs they came from, and the verify report."""
    inputs: tuple
    logits: tuple
    report: object = None


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def input_shape(wl: Workload, cfg: ModelConfig) -> tuple:
    return (wl.batch, 3, cfg.input_resolution, cfg.input_resolution)


def op_input(wl: Workload, cfg: ModelConfig, seed: int, i: int):
    """A verify trial draws its own input from the per-operation seed."""
    s = op_seed(seed, i)
    if wl.verify:
        return s
    return np.random.default_rng(s).standard_normal(input_shape(wl, cfg), dtype=np.float32)


def run_op(wl: Workload, cfg: ModelConfig, m: Model, inp) -> OpOut:
    if not wl.verify:
        return OpOut((inp,), (forward(m.fused_graph, m.fused_store, inp),))
    inputs, logits = [], []

    def keep(graph, store):
        def run(x):
            y = forward(graph, store, x)
            inputs.append(x)
            logits.append(y)
            return y
        return run

    report = verify_equivalence(keep(m.graph, m.store), keep(m.fused_graph, m.fused_store),
                                1, input_shape(wl, cfg), FUSE_TOL, inp)
    return OpOut(tuple(inputs), tuple(logits), report)


def op_problems(out: OpOut, shape: tuple) -> list:
    problems = []
    for y in out.logits:
        if y.shape != shape:
            problems.append(f"logits shape {y.shape}, expected {shape}")
        elif not np.isfinite(y).all():
            problems.append("non-finite logits")
    if out.report is not None and not out.report.passed:
        problems.append(f"verify failed, max_abs_error {out.report.max_abs_error:.3e}")
    return problems


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def sample_check(wl: Workload, m: Model, i: int, out: OpOut) -> tuple:
    """Untimed re-runs of a fused operation: each image alone, and one image
    through the train-form graph. Returns (problems, batch error, train error)."""
    x, y = out.inputs[0], out.logits[0]
    problems = []
    singles = [forward(m.fused_graph, m.fused_store, x[r:r + 1]) for r in range(wl.batch)]
    batch_err = max(float(np.max(np.abs(y[r] - s[0]))) for r, s in enumerate(singles))
    if not batch_err <= BATCH_TOL:
        problems.append(f"batched row differs from single-image run by {batch_err:.3e}")
    r = i % wl.batch
    fuse_err = float(np.max(np.abs(forward(m.graph, m.store, x[r:r + 1]) - singles[r])))
    if not fuse_err <= FUSE_TOL:
        problems.append(f"train form differs from fused form by {fuse_err:.3e}")
    return problems, batch_err, fuse_err


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def store_digest(store) -> str:
    h = hashlib.sha256()
    for name, arr in store.items():
        h.update(f"{name}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def identity(wl: Workload, m: Model, weights_path) -> dict:
    """Counts that repeat exactly for one model; a change of architecture or
    weights shows up as a mismatch."""
    fused = cost_report(m.graph, "inference")
    graphs = (m.graph, m.fused_graph) if wl.verify else (m.fused_graph,)
    return {
        "flops_per_img": fused.total_flops,
        "params": fused.total_params,
        "train_flops_per_img": cost_report(m.graph, "train").total_flops,
        "nodes": sum(len(list(leaves(g.nodes))) for g in graphs),
        "weights_sha256": file_digest(weights_path),
        "fused_weights_sha256": store_digest(m.fused_store),
    }


def git_commit(root: Path) -> str:
    """The commit checked out at ``root``, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(wl: Workload, cfg: ModelConfig, seed: int, root: Path) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(root),
        "seed": seed,
        "batch": wl.batch,
        "resolution": cfg.input_resolution,
        "weight_seed": WEIGHT_SEED,
    }


def write_weights(cfg: ModelConfig, path) -> None:
    save_weights(init_weights(build_model(cfg), WEIGHT_SEED), path)


def set_up(wl: Workload, cfg: ModelConfig, weights_path, inp):
    """Returns the model, the warm-up output, and the seconds spent in
    build_model, load_weights and fuse_model and in the warm-up."""
    t0 = perf_counter()
    graph = build_model(cfg)
    store = load_weights(weights_path)
    t1 = perf_counter()
    fused_graph, fused_store = fuse_model(graph, store)
    t2 = perf_counter()
    m = Model(graph, store, fused_graph, fused_store)
    out = run_op(wl, cfg, m, inp)
    t3 = perf_counter()
    return m, out, {"setup": t3 - t0, "load": t1 - t0, "fuse": t2 - t1}


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def measure(wl: Workload, cfg: ModelConfig, weights_path, seed: int, seconds: float,
            trace: bool, root: Path) -> tuple:
    """Run one workload; returns (result, record). ``result`` is the object
    printed last, ``record`` adds environment, identity and detail."""
    shape = (wl.batch, cfg.num_classes)
    failed: dict = {}

    def fail(i, why):
        failed.setdefault(i, why)
        print(f"operation {i} failed: {why}", file=sys.stderr)

    setups, warm = [], []
    for _ in range(SETUP_REPS):
        m = None  # free the previous model first, so set-ups do not add up in peak_rss_mb
        m, out, times = set_up(wl, cfg, weights_path, op_input(wl, cfg, seed, 0))
        setups.append(times)
        warm.append(out)
    replays = None
    if trace:
        replays = [Replay(m.graph, m.store)] if wl.verify else []
        replays.append(Replay(m.fused_graph, m.fused_store))

    lat, cpu, fuse_errs, batch_errs = [], [], [], []
    traced = []  # (untraced seconds, replay seconds, Trace) per replayed operation
    first = last = None
    deadline = perf_counter() + seconds
    i = 0
    while i < MIN_OPS or perf_counter() < deadline:
        inp = op_input(wl, cfg, seed, i)
        c0, t0 = process_time(), perf_counter()
        try:
            out = run_op(wl, cfg, m, inp)
        except Exception:  # a failing operation is counted; the run goes on
            out = None
            fail(i, traceback.format_exc())
        lat.append(perf_counter() - t0)
        cpu.append(process_time() - c0)
        if out is not None:
            for why in op_problems(out, shape):
                fail(i, why)
            if out.report is not None:
                fuse_errs.append(out.report.max_abs_error)
            if trace:
                tr = Trace()
                t0 = perf_counter()
                replayed = [rp.run(x, tr) for rp, x in zip(replays, out.inputs)]
                traced.append((lat[-1], perf_counter() - t0, tr))
                if not all(same_bits(a, b) for a, b in zip(replayed, out.logits)):
                    fail(i, "replayed logits differ from forward's")
            if first is None:
                first = (i, out)
            last = (i, out)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if first is not None and first[0] == 0:
        if not all(same_bits(a, b) for w in warm for a, b in zip(w.logits, first[1].logits)):
            fail(0, "same input gave different bits than the warm-up runs")
    if not wl.verify:
        for j, out in {first[0]: first[1], last[0]: last[1]}.items() if first else ():
            problems, batch_err, fuse_err = sample_check(wl, m, j, out)
            batch_errs.append(batch_err)
            fuse_errs.append(fuse_err)
            for why in problems:
                fail(j, why)

    attempted = len(lat)
    ident = identity(wl, m, weights_path)
    table = kernel_table(wl, [tr for _, _, tr in traced], replays) if trace else None
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed)}
    if trace:
        result["metrics"] = per_layer_metrics(table, setups, cpu, traced, fuse_errs, ident)
    else:
        result["metrics"] = {
            "latency_ms_p50": {"value": median(lat) * 1e3, "unit": "ms"},
            "throughput_img_s": {"value": attempted * wl.batch / sum(lat), "unit": "img/s"},
            "setup_s": {"value": median([s["setup"] for s in setups]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "success_rate": {"value": (attempted - len(failed)) / attempted, "unit": "ratio"},
        }
    latency = {"n": attempted, "p50_ms": median(lat) * 1e3,
               "ops_ms": [round(t * 1e3, 3) for t in lat]}
    if attempted >= 100:  # p90 needs ten samples beyond it
        latency["p90_ms"] = statistics.quantiles(lat, n=10)[-1] * 1e3
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(wl, cfg, seed, root),
        "identity": ident,
        "latency": latency,
        "setup_s": setups,
        "failures": {str(k): v.splitlines()[-1] for k, v in sorted(failed.items())},
        "fuse_max_abs_err": max(fuse_errs, default=None),
        "batch_max_abs_err": max(batch_errs, default=None),
        **result,
    }
    if trace:
        record["kernels"] = table
    return result, record


def kernel_table(wl: Workload, traces: list, replays: list) -> dict:
    """Per kernel: median ms per operation, Flops and computed bytes per
    operation, and achieved GFLOP/s (a multiply-add counts as one Flop)."""
    table = {}
    for name in KERNELS:
        ms = median([t.kernel_s.get(name, 0.0) for t in traces]) * 1e3
        flops = sum(rp.flops.get(name, 0) for rp in replays) * wl.batch
        table[name] = {
            "ms": ms, "flops": flops,
            "computed_bytes": median([t.kernel_bytes.get(name, 0) for t in traces]),
            "gflops": flops / ms / 1e6 if ms > 0 else 0.0,
        }
    return table


def per_layer_metrics(table, setups, cpu, traced, fuse_errs, ident) -> dict:
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for name in ("ops.conv2d_dw", "ops.conv2d_dense", "ops.conv2d_other", "ops.relu", "ops.add",
                 "ops.batch_norm", "spatial.repso_forward", "channel.refco_forward",
                 "channel.sfconv_forward"):
        put(f"{name}.ms", table[name]["ms"], "ms")
    for name in ("ops.conv2d_dw", "ops.conv2d_dense", "channel.sfconv_forward"):
        put(f"{name}.gflops", table[name]["gflops"], "GFLOP/s")
    put("fuse.fuse_model.ms", median([s["fuse"] for s in setups]) * 1e3, "ms")
    put("store.load_weights.ms", median([s["load"] for s in setups]) * 1e3, "ms")
    put("fuse.max_abs_err", max(fuse_errs, default=0.0), "logit")
    put("model.overhead.ms",
        median([a - sum(tr.kernel_s.values()) for a, _, tr in traced]) * 1e3, "ms")
    for stage in STAGES:
        put(f"model.stage.{stage}.ms",
            median([tr.stage_s.get(stage, 0.0) for _, _, tr in traced]) * 1e3, "ms")
    put("process.cpu_ms", median(cpu) * 1e3, "ms")
    put("trace.overhead_pct", median([r / a - 1 for a, r, _ in traced]) * 100, "%")
    put("costs.flops_per_img", ident["flops_per_img"], "count")
    put("costs.params", ident["params"], "count")
    put("model.nodes", ident["nodes"], "count")
    return out
