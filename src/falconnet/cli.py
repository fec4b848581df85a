"""Command-line front end.

Subcommands: gen-config, summarize, fuse, verify, infer, analyze-range,
analyze-magnitude. Every command exits 0 on success and nonzero on any
error; operational errors print a single machine-parsable line of the form
"error: <message>" on stderr. Output that is meant to be parsed is
tab-separated with a leading record tag.
"""

from __future__ import annotations

import argparse
import fnmatch
import inspect
import sys

import numpy as np

from .channel import ChannelPattern, SFConvSpec, choose_kernel_size, receptive_range
from .costs import cost_report
from .model import (PRESET_NAMES, build_model, forward, fuse_model, fused_structure,
                    iter_param_entries, load_config, preset_config, save_config,
                    verify_equivalence)
from .spatial import kernel_magnitude_matrix
from .store import load_input_tensor, load_weights, save_weights

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="falconnet",
        description="Factorized lightweight CNN toolkit: build, fuse, verify, "
                    "infer and analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-config", help="write a preset model configuration")
    p.add_argument("preset", choices=PRESET_NAMES)
    p.add_argument("--out", required=True, metavar="PATH")

    p = sub.add_parser("summarize", help="per-layer parameter and Flops table")
    p.add_argument("--config", required=True, metavar="PATH")

    tolerance = inspect.signature(verify_equivalence).parameters["tolerance"].default
    for name, text in (("fuse", "fuse weights to inference form and verify"),
                       ("verify", "measure train/inference output discrepancy")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, metavar="PATH")
        p.add_argument("--weights", required=True, metavar="PATH")
        if name == "fuse":
            p.add_argument("--out", required=True, metavar="PATH")
        p.add_argument("--trials", type=int, default=16, metavar="N")
        p.add_argument("--tolerance", type=float, default=tolerance, metavar="F")

    p = sub.add_parser("infer", help="classify one input file")
    p.add_argument("input", metavar="INPUT")
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--weights", required=True, metavar="PATH")
    p.add_argument("--top-k", type=int, default=5, metavar="N")
    p.add_argument("--softmax", action="store_true")

    p = sub.add_parser("analyze-range", help="receptive ranges of a channel pattern")
    p.add_argument("--kind", required=True, choices=("dense", "group", "channelwise", "sf"))
    p.add_argument("--c-in", type=int, required=True, metavar="N")
    p.add_argument("--c-out", type=int, default=None, metavar="N")
    p.add_argument("--groups", type=int, default=None, metavar="N")
    p.add_argument("--window", type=int, default=None, metavar="N")
    p.add_argument("--reduction", type=int, default=SFConvSpec.reduction, metavar="N")

    p = sub.add_parser("analyze-magnitude", help="average kernel magnitude matrix")
    p.add_argument("pattern", metavar="GLOB")
    p.add_argument("--weights", required=True, metavar="PATH")
    p.add_argument("--out", default=None, metavar="PATH", help="also write CSV here")

    return parser


def _cmd_gen_config(args) -> int:
    cfg = preset_config(args.preset)
    save_config(cfg, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_summarize(args) -> int:
    cfg = load_config(args.config)
    graph = build_model(cfg)
    report = cost_report(graph, mode="inference")
    print("record\tname\tkind\tcategory\tout\tparams\tflops")
    for row in report.layers:
        print(f"layer\t{row.name}\t{row.kind}\t{row.category}\t"
              f"{row.out_h}x{row.out_w}\t{row.params}\t{row.flops}")
    for cat in ("spatial", "channel", "other"):
        print(f"total\t{cat}\t{report.params_by_category[cat]}\t{report.flops_by_category[cat]}")
    print(f"total\thead\t{report.params_by_category['head']}\t{report.flops_by_category['head']}")
    print(f"total\tbackbone\t{report.backbone_params}\t{report.backbone_flops}")
    print(f"total\tmodel\t{report.total_params}\t{report.total_flops}")
    shares = report.param_shares()
    for cat in ("spatial", "channel", "other"):
        print(f"share\t{cat}\t{shares[cat]:.2f}")
    return 0


def _report_line(report) -> str:
    shape = "x".join(str(d) for d in report.input_shape)
    passed = "yes" if report.passed else "no"
    return (f"fusion\ttrials\t{report.trials}\tseed\t{report.seed}\tinput\t{shape}\t"
            f"max_abs_error\t{report.max_abs_error:.3e}\ttolerance\t"
            f"{report.tolerance:.3e}\tpassed\t{passed}")


def _verify_report(cfg, graph, store, trials, tolerance):
    """Fuse ``graph`` and verify the fused form against it. Under numpy's
    silenced warnings, a fused weight or bias that is not finite, or logits
    of either form that are not, is an error, raised before any verdict."""
    shape = (1, 3, cfg.input_resolution, cfg.input_resolution)
    with np.errstate(all="ignore"):
        fused_graph, fused_store = fuse_model(graph, store)
        _check_finite(fused_graph, fused_store)
        report = verify_equivalence(
            lambda x: _finite_logits(forward(graph, store, x), "train-form logits"),
            lambda x: _finite_logits(forward(fused_graph, fused_store, x), "inference-form logits"),
            trials, shape, tolerance)
    return fused_graph, fused_store, report


def _finite_logits(logits, name: str = "logits"):
    """``logits``, or an error naming them and the first class that is not finite."""
    finite = np.isfinite(logits)
    if not finite.all():
        raise ValueError(f"{name} are not finite, first at class {np.argwhere(~finite)[0, -1]}")
    return logits


def _check_finite(graph, store) -> None:
    """Raise at the first weight or bias of ``graph`` in ``store`` that is
    not finite; BN statistics are checked where they are set up."""
    for e in iter_param_entries(graph):
        if not e.role.startswith("bn_"):
            _require_finite(e.key, store.get(e.key))


def _require_finite(key: str, arr) -> None:
    """Raise, naming ``key`` and the flat index of the first value of ``arr``
    that is not finite."""
    ok = np.isfinite(arr)
    if not ok.all():
        raise ValueError(f"{key} must be finite, violated at index {ok.argmin()}")


def _load_model(args, train_form: bool):
    """The config, graph and weights of ``args``. The graph is in train form
    when the weights hold its every entry, else in inference form; with
    ``train_form``, inference-form weights are an error, as is a weight or
    bias that is not finite."""
    cfg = load_config(args.config)
    graph = build_model(cfg)
    store = load_weights(args.weights)
    missing = [e.key for e in iter_param_entries(graph) if e.key not in store]
    if missing:
        fused = fused_structure(graph)
        if any(e.key not in store for e in iter_param_entries(fused)):
            raise ValueError(f"weights incomplete for model: missing '{missing[0]}' "
                             f"and {len(missing) - 1} more")
        if train_form:
            raise ValueError("no fusible slots: weights are already in inference form")
        graph = fused
    _check_finite(graph, store)
    return cfg, graph, store


def _cmd_fuse(args) -> int:
    cfg, graph, store = _load_model(args, train_form=True)
    _, fused_store, report = _verify_report(cfg, graph, store, args.trials, args.tolerance)
    save_weights(fused_store, args.out)
    print(_report_line(report))
    print(f"wrote {args.out}")
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    cfg, graph, store = _load_model(args, train_form=True)
    _, _, report = _verify_report(cfg, graph, store, args.trials, args.tolerance)
    print(_report_line(report))
    return 0 if report.passed else 1


def _cmd_infer(args) -> int:
    cfg, graph, store = _load_model(args, train_form=False)
    x = load_input_tensor(args.input, cfg.input_resolution)
    with np.errstate(all="ignore"):  # an overflow is reported below, as one error line
        logits = _finite_logits(forward(graph, store, x)[0])
    scores = logits
    if args.softmax:
        z = logits - logits.max()
        e = np.exp(z)
        scores = e / e.sum()
    k = max(1, min(args.top_k, scores.shape[0]))
    # Stable sort on the negated scores: ties rank by ascending class index.
    order = np.argsort(-scores, kind="stable")[:k]
    print("rank\tclass\tscore")
    for rank, idx in enumerate(order, start=1):
        print(f"{rank}\t{int(idx)}\t{scores[idx]:.6f}")
    return 0


def _cmd_analyze_range(args) -> int:
    c_in = args.c_in
    c_out = args.c_out if args.c_out is not None else c_in
    if args.kind == "dense":
        pattern = ChannelPattern.dense(c_in, c_out)
        detail = ""
    elif args.kind == "group":
        if args.groups is None:
            raise ValueError("analyze-range --kind group requires --groups")
        pattern = ChannelPattern.group(c_in, args.groups, c_out)
        detail = f"\tgroups\t{args.groups}"
    elif args.kind == "channelwise":
        if args.window is None:
            raise ValueError("analyze-range --kind channelwise requires --window")
        pattern = ChannelPattern.channel_wise(c_in, args.window, c_out)
        detail = f"\twindow\t{args.window}"
    else:
        k = choose_kernel_size(c_in, c_out, args.reduction)
        pattern = ChannelPattern.sf(SFConvSpec(c_in, c_out, k, args.reduction))
        detail = f"\tkernel\t{k}\treduction\t{args.reduction}"
    ranges = receptive_range(pattern)
    print(f"pattern\t{args.kind}\tc_in\t{c_in}\tc_out\t{c_out}{detail}")
    for o, r in enumerate(ranges):
        print(f"range\t{o}\t{int(r)}")
    print(f"summary\tmin\t{int(ranges.min())}\tmax\t{int(ranges.max())}\t"
          f"mean\t{float(ranges.mean()):.2f}")
    return 0


def _cmd_analyze_magnitude(args) -> int:
    kernels = []
    for name, arr in load_weights(args.weights).items():
        if arr.ndim == 4 and fnmatch.fnmatch(name, args.pattern):
            _require_finite(name, arr)
            if not arr.size:
                raise ValueError(f"{name} is an empty kernel of shape {arr.shape}")
            kernels.append(arr)
    if not kernels:
        raise ValueError(f"no rank-4 weight entries match '{args.pattern}'")
    kh, kw = kernels[0].shape[-2:]
    matrix = kernel_magnitude_matrix(kernels, kh, kw)
    report = [f"magnitude\tkernels\t{len(kernels)}\tsize\t{kh}x{kw}"]
    report += [" ".join(f"{matrix[r, c]:.4f}" for c in range(kw)) for r in range(kh)]
    if args.out is not None:  # written first, so a failed write prints no report
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("r,c,value\n")
            for r in range(kh):
                for c in range(kw):
                    f.write(f"{r},{c},{matrix[r, c]:.6f}\n")
        report.append(f"wrote {args.out}")
    print("\n".join(report))
    return 0


_COMMANDS = {
    "gen-config": _cmd_gen_config,
    "summarize": _cmd_summarize,
    "fuse": _cmd_fuse,
    "verify": _cmd_verify,
    "infer": _cmd_infer,
    "analyze-range": _cmd_analyze_range,
    "analyze-magnitude": _cmd_analyze_magnitude,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
