"""Command line entry points.

Subcommands mirror the pipeline stages: design, simulate, identify, recover,
evaluate, compare; the first five call the stage functions of nestlab.harness
that the comparison grid runs.  Designs and models travel as JSON, choice
counts as CSV; see the package README for the file schemas.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys

import numpy as np

from . import designs, harness, identify, model, sampling


def _cmd_design(args) -> int:
    config = harness.ExperimentConfig(
        num_random_assortments=args.num_assortments, size_rule=args.size_rule
    )
    rng = np.random.default_rng(args.seed)
    design = harness.build_design(args.scheme, args.n, args.base, config, rng)
    unseparated = designs.verify_separation(design)
    if unseparated:
        print(f"warning: {len(unseparated)} ordered pairs unseparated", file=sys.stderr)
    designs.save_design(design, args.out)
    print(f"wrote {args.out} ({design.num_experiments} experiments)")
    return 0


def _cmd_simulate(args) -> int:
    design = designs.load_design(args.design)
    if args.model:
        truth = model.load_model(args.model)
    else:
        truth = model.generate_ground_truth(
            design.n, np.random.default_rng(args.generate_seed), outside=not args.no_outside
        )
    probs = model.design_probabilities(truth, design)
    table = harness.sample_counts(probs, design, args.customers, args.seed)
    # written only once the counts are drawn, so a failed run leaves no file
    if args.save_model and not args.model:
        model.save_model(truth, args.save_model)
        print(f"wrote {args.save_model}")
    sampling.save_counts(table, args.out)
    print(f"wrote {args.out} ({args.customers} customers)")
    return 0


def _write_edges(edges, path: str) -> None:
    n = edges.n
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item", *range(1, n + 1)])
        for i, row in enumerate(edges.values.tolist(), start=1):
            writer.writerow([i, *(f"{v:.10g}" for v in row)])


IDENTIFY_DELTA = 0.1


def _reject_ignored_flags(parser: argparse.ArgumentParser, args) -> None:
    # These flags default to None, so a flag that is set was given.
    reads = {"exact": ("tol",), "noisy": ("alpha", "beta"), "ztheorem": ("threshold", "delta")}
    for name in ("threshold", "alpha", "beta", "delta", "tol"):
        if name not in reads[args.mode] and getattr(args, name) is not None:
            parser.error(f"identify: --{name} has no effect in {args.mode} mode")
    if args.threshold is not None and args.delta is not None:
        parser.error("identify: --delta has no effect in ztheorem mode with --threshold")


def _load_design_and_counts(args):
    """The --design and --counts files, rejecting counts of other assortments.

    The count rows must offer the design's control and then its experiments,
    in order; the first row that differs is named.
    """
    design = designs.load_design(args.design)
    table = sampling.load_counts(args.counts, design.n)
    planned = zip(("control", *design.labels), (design.control, *design.experiments))
    counted = zip(table.labels, table.assortments)
    for r, ((name, items), (label, offered)) in enumerate(
        itertools.zip_longest(planned, counted, fillvalue=(None, None))
    ):
        if items == offered:
            continue
        if label is None:
            detail = f"the counts end before the design's {name}"
        elif name is None:
            detail = f"the design ends before the counts' {label}"
        else:
            detail = f"the design's {name} and the counts' {label} offer different items"
        sys.exit(f"nestlab {args.command}: counts do not match the design at row {r}: {detail}")
    return design, table


def _cmd_identify(args) -> int:
    design, table = _load_design_and_counts(args)
    threshold = args.threshold
    if args.mode == "ztheorem" and threshold is None:
        pairs = identify.theorem_pair_count(design.n, design.num_experiments)
        delta = IDENTIFY_DELTA if args.delta is None else args.delta
        threshold = identify.theorem_z_threshold(pairs, delta)
        print(f"z threshold {threshold:.4f} (K = {pairs})", file=sys.stderr)
    # Exact mode reads only boosts and tol: _reject_ignored_flags keeps the rest unset.
    config = identify.TestConfig(
        alpha=identify.TestConfig.alpha if args.alpha is None else args.alpha,
        beta=args.beta,
        z_threshold=threshold,
    )
    boosts = identify.boost_factors_from_counts(table) if args.mode == "exact" else None
    tol = identify.EXACT_TOLERANCE if args.tol is None else args.tol
    edges, partition = harness.identify_partition(table, design, config, boosts, tol)
    if edges.inconsistencies:
        print(f"note: {len(edges.inconsistencies)} contradictory deductions", file=sys.stderr)
    model.write_json(model.partition_to_dict(partition), args.out_partition)
    print(f"wrote {args.out_partition} ({partition.num_nests} nests)")
    if args.out_edges:
        _write_edges(edges, args.out_edges)
        print(f"wrote {args.out_edges}")
    return 0


def _cmd_recover(args) -> int:
    design, table = _load_design_and_counts(args)
    partition = model.load_partition(args.partition)
    probs = sampling.empirical_probabilities(table) if args.exact else None
    fitted, flags = harness.recover_model(table, partition, design, probs)
    for flag in flags:
        print(f"note: {flag}", file=sys.stderr)
    model.save_model(fitted, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    """Print evaluate_model's scores, the Rand index of the estimate's own partition."""
    truth = model.load_model(args.true)
    estimate = model.load_model(args.est)
    design = designs.load_design(args.design) if args.design else None
    print(json.dumps(harness.evaluate_model(truth, estimate, design=design), indent=2))
    return 0


def _cmd_compare(args) -> int:
    config = harness.load_config(args.config)
    if args.output_dir:
        config = harness.config_from_dict({**config.to_dict(), "output_dir": args.output_dir})
    report = harness.compare_designs(config)
    if config.output_dir:
        print(f"wrote {config.output_dir}/summary.json")
    else:
        print(json.dumps(report.summary(), indent=2))
    if report.assumption_violations:
        for line in report.assumption_violations:
            print(f"assumption violation: {line}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nestlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="construct an experiment design")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--scheme", choices=harness.DESIGN_SCHEMES, default="slice")
    p.add_argument("--num-assortments", type=int, default=None)
    p.add_argument("--size-rule", choices=["uniform_3_6", "half"], default="uniform_3_6")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="design.json")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("simulate", help="sample choice counts from a model")
    p.add_argument("--design", required=True)
    p.add_argument("--model", default=None, help="model JSON; omit to generate one")
    p.add_argument("--generate-seed", type=int, default=0)
    p.add_argument("--no-outside", action="store_true", help="generated model drops the outside option")
    p.add_argument("--save-model", default=None)
    p.add_argument("--customers", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="counts.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("identify", help="estimate the nest partition from counts")
    p.add_argument("--counts", required=True)
    p.add_argument("--design", required=True)
    p.add_argument("--mode", choices=["exact", "noisy", "ztheorem"], default="noisy")
    p.add_argument("--alpha", type=float, default=None, help=f"default {identify.TestConfig.alpha}")
    p.add_argument("--beta", type=float, default=None, help="default 1 - alpha")
    p.add_argument("--tol", type=float, default=None, help="exact mode; relative tolerance")
    p.add_argument("--threshold", type=float, default=None, help="explicit |z| cutoff")
    p.add_argument("--delta", type=float, default=None, help=f"ztheorem mode; default {IDENTIFY_DELTA}")
    p.add_argument("--out-partition", default="partition.json")
    p.add_argument("--out-edges", default=None)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("recover", help="fit nest parameters given a partition")
    p.add_argument("--counts", required=True)
    p.add_argument("--design", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--exact", action="store_true", help="treat frequencies as exact")
    p.add_argument("--out", default="model.json")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("evaluate", help="score an estimated model against the truth")
    p.add_argument("--true", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--design", default=None, help="adds the design-restricted score")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="run a design comparison grid from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "identify":
        _reject_ignored_flags(parser, args)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # RecoveryError and JSONDecodeError are ValueErrors
        sys.exit(f"nestlab {args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
