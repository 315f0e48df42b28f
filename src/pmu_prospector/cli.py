"""Command-line entry point.

Subcommands cover the whole pipeline: scan, analyze-umask, detect,
sidechannel and report.  Every setting is one flag, with its default and
choices declared on the parser.  Exit codes: 0 success, 1 runtime failure,
2 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import os
import re
import sys

from . import collector, detection, outputs, reporting, sidechannel, umask
from .backend import load_sim_model, probe_native_backend
from .corpus import NativeExecutor, SimulatedExecutor, load_corpus_file
from .errors import ConfigError, ProspectorError
from .events import format_selector, load_catalog_file, parse_selector
from .seeding import derive_seed

log = logging.getLogger(__name__)


def _int_flag(text: str) -> int:
    """Decimal digits with an optional leading minus: int() alone also takes
    "1_0", " 3" and "+2"."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _count_flag(text: str) -> int:
    """An _int_flag that is not negative, checked before any work."""
    value = _int_flag(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return value


def _float_flag(text: str) -> float:
    """float() without the "_" separators and surrounding whitespace it forgives."""
    if "_" not in text and text == text.strip():
        with contextlib.suppress(ValueError):
            return float(text)
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


def _read_secret(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            secret = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read secret file {path}: {exc}") from exc
    if not secret:
        raise ConfigError(f"secret file {path} is empty")
    return secret


def cmd_scan(args: argparse.Namespace) -> int:
    scan_config = collector.ScanConfig(args.repetitions, args.quiet_threshold, args.any_thread)
    entries, issues = load_corpus_file(args.corpus)
    for issue in issues:
        log.warning("%s:%d: %s", args.corpus, issue.line, issue.message)
    catalog = load_catalog_file(args.catalog)
    with contextlib.ExitStack() as stack:  # closes the records file, the probes, then the MSR device
        if args.backend == "native":
            native, probe_report = probe_native_backend(cpu=args.cpu)
            if native is None:
                print(probe_report, file=sys.stderr)
                return 1
            stack.callback(native.close)
            print(probe_report)
            executor = NativeExecutor(native)
            stack.callback(executor.close)
        elif args.sim_model is None:
            raise ConfigError("--sim-model is required for the sim backend")
        else:
            model = load_sim_model(args.sim_model)
            executor = SimulatedExecutor(
                model.make_backend(args.seed),
                fault_table=model.fault_table,
                supported_extensions=model.supported_extensions,
            )
        sink = None
        if args.records:
            records_fh = stack.enter_context(outputs.completed_stream(args.records))
            sink = collector.ndjson_record_sink(records_fh)
        report = collector.full_scan(entries, catalog, executor, scan_config, record_sink=sink)
    collector.persist_report(report, args.out)
    print(
        f"scanned {report.total_instructions} instructions "
        f"({report.executed_success} executed): "
        f"{len(report.hidden_events)} hidden events -> {args.out}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    report = collector.load_report(args.input)
    print(reporting.render_summary(report))
    return 0


def cmd_analyze_umask(args: argparse.Namespace) -> int:
    report = collector.load_report(args.report)
    os.makedirs(args.out, exist_ok=True)
    distribution_path = os.path.join(args.out, "umask_distribution.csv")
    masks_path = os.path.join(args.out, "relevance_masks.csv")
    umask.write_distribution_csv(report, distribution_path)
    masks = umask.infer_report_masks(report)
    umask.write_masks_csv(masks, masks_path)
    consistent = sum(1 for m in masks.values() if m.consistent)
    print(
        f"{len(report.hidden_events)} hidden selectors over {len(masks)} event codes "
        f"({consistent} with consistent masks) -> {args.out}"
    )
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    if args.detect_command == "collect":
        selector = parse_selector(args.selector)
        backend = load_sim_model(args.sim_model).make_backend(args.seed)
        dataset = detection.build_dataset(selector, args.attack, backend, args.samples, args.seed)
        detection.write_dataset_csv(dataset, args.out)
        print(
            f"collected {len(dataset.samples)} windows for {format_selector(selector)} "
            f"against {args.attack} -> {args.out}"
        )
        return 0
    if args.detect_command == "train":
        selector = parse_selector(args.selector)
        dataset = detection.load_dataset_csv(args.dataset, selector, args.seed)
        result = detection.train(dataset)
        metrics = detection.compute_metrics(result.model, result.test_samples)
        detection.save_model_json(selector, result.model, metrics, args.out)
        print(
            f"{format_selector(selector)}: trained {result.epochs} epochs on "
            f"{len(result.train_samples)} windows; test accuracy {metrics.accuracy:.3f} "
            f"f1 {metrics.f1:.3f} auc {metrics.auc:.3f} -> {args.out}"
        )
        return 0
    # screen
    reports: dict[int, detection.MetricsReport] = {}
    sources: dict[int, str] = {}
    for path in args.models:
        selector, _, metrics = detection.load_model_json(path)
        if selector in sources:
            raise ConfigError(
                f"--models gives two detectors for {format_selector(selector)}: "
                f"{sources[selector]} and {path}"
            )
        reports[selector] = metrics
        sources[selector] = path
    passed = detection.screen(reports, exclude_perfect=args.exclude_perfect,
                              exclude_f1_band=args.exclude_f1_band)
    detection.write_screen_csv(reports, passed, args.out)
    if args.plot_out:
        reporting.write_metrics_plot_csv(reports, args.plot_out, args.plot_sample, args.seed)
    print(f"{len(passed)} of {len(reports)} detectors pass the screen -> {args.out}")
    return 0


def cmd_sidechannel(args: argparse.Namespace) -> int:
    backend = load_sim_model(args.sim_model).make_backend(args.seed)
    secret = _read_secret(args.secret_file)
    victim = sidechannel.SimVictim(
        secret=secret,
        false_fire_prob=args.false_fire,
        noise_seed=derive_seed(args.seed, "channel-noise"),
    )
    spec = sidechannel.GadgetSpec(
        iterations=args.iterations,
        suppression=args.suppression,
        secret_length=args.length if args.length is not None else min(16, len(secret)),
        attack_kind=args.attack,
        transmit_class=args.transmit_class,
    )
    if args.sidechannel_command == "run":
        selector = parse_selector(args.selector)
        result = sidechannel.recover_secret(spec, selector, backend, victim)
        metrics = sidechannel.channel_metrics(result, secret)
        sidechannel.write_result_json(selector, spec, result, metrics, args.out)
        print(
            f"{args.attack} via {format_selector(selector)}: "
            f"error {metrics.error_rate:.4f}, {metrics.throughput_bps:.2f} B/s -> {args.out}"
        )
        return 0
    # screen
    report = collector.load_report(args.report)
    rows = sidechannel.screen_channel_events(report.hidden_events, spec, backend, victim)
    reporting.write_selector_csv(args.out, ["selector", "accuracy"], rows)
    if args.plot_out:
        reporting.write_accuracy_plot_csv(rows, args.plot_out, args.plot_sample, args.seed)
    print(
        f"{len(rows)} of {len(report.hidden_events)} hidden events "
        f"carry the channel at >={sidechannel.MIN_CHANNEL_ACCURACY:.0%} accuracy -> {args.out}"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmu-prospector",
        description="Discover undocumented PMU events and put them to work.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress details")
    sub = parser.add_subparsers(dest="command", required=True)
    dflt = " (default: %(default)s)"
    seeded = argparse.ArgumentParser(add_help=False)  # --seed, on every command that draws
    seeded.add_argument("--seed", type=_int_flag, default=0, help="root seed of every draw" + dflt)

    scan = sub.add_parser("scan", parents=[seeded], help="scan the selector space against a corpus")
    scan.add_argument("--corpus", required=True, help="instruction corpus TSV")
    scan.add_argument("--catalog", required=True, help="documented-event CSV")
    scan.add_argument("--backend", choices=["sim", "native"], default="sim", help="backend" + dflt)
    scan.add_argument("--sim-model", dest="sim_model", help="simulated PMU JSON model (sim only)")
    scan.add_argument("--cpu", type=_int_flag, default=0, help="CPU for the native backend" + dflt)
    scan.add_argument("--repetitions", type=_int_flag, default=collector.ScanConfig.repetitions,
                      help="runs per selector, lower median kept" + dflt)
    scan.add_argument("--quiet-threshold", dest="quiet_threshold", type=_int_flag,
                      default=collector.ScanConfig.quiet_threshold,
                      help="smallest delta that counts as a reaction" + dflt)
    scan.add_argument("--any-thread", dest="any_thread", action="store_true")
    scan.add_argument("--records", help="optional NDJSON stream of every measurement")
    scan.add_argument("--out", required=True, help="scan report JSON")
    scan.set_defaults(handler=cmd_scan)

    analyze = sub.add_parser("analyze-umask", help="infer umask relevance bits from a report")
    analyze.add_argument("--report", required=True, help="scan report JSON")
    analyze.add_argument("--out", required=True, help="output directory for CSV datasets")
    analyze.set_defaults(handler=cmd_analyze_umask)

    detect = sub.add_parser("detect", help="train and screen attack detectors")
    detect_sub = detect.add_subparsers(dest="detect_command", required=True)
    collect = detect_sub.add_parser("collect", parents=[seeded],
                                    help="synthesize labeled count windows")
    collect.add_argument("--selector", required=True, help='packed selector, e.g. "0x016C"')
    collect.add_argument("--attack", required=True, choices=sorted(detection.DEFAULT_ATTACKS))
    collect.add_argument("--sim-model", dest="sim_model", required=True)
    collect.add_argument("--samples", type=_int_flag, default=2000, help="windows per class" + dflt)
    collect.add_argument("--out", required=True, help="dataset CSV")
    collect.set_defaults(handler=cmd_detect)
    train = detect_sub.add_parser("train", parents=[seeded],
                                  help="fit the logistic detector on a dataset")
    train.add_argument("--dataset", required=True, help="dataset CSV from detect collect")
    train.add_argument("--selector", required=True)
    train.add_argument("--out", required=True, help="model JSON")
    train.set_defaults(handler=cmd_detect)
    screen = detect_sub.add_parser("screen", parents=[seeded],
                                   help="filter trained detectors by metrics")
    screen.add_argument("--models", nargs="+", required=True, help="model JSON files")
    screen.add_argument("--exclude-perfect", action="store_true",
                        help="drop detectors with any metric exactly 1.0")
    screen.add_argument("--exclude-f1-band", action="store_true",
                        help="drop detectors with F1 in (0.9, 1.0)")
    screen.add_argument("--plot-out", help="optional metrics scatter CSV")
    screen.add_argument("--plot-sample", type=_count_flag, default=400, help="plotted rows" + dflt)
    screen.add_argument("--out", required=True, help="screening CSV")
    screen.set_defaults(handler=cmd_detect)

    side = sub.add_parser("sidechannel", help="run the count-based covert channel")
    side_sub = side.add_subparsers(dest="sidechannel_command", required=True)
    channel = argparse.ArgumentParser(add_help=False, parents=[seeded])  # shared by run and screen
    gadget = sidechannel.GadgetSpec  # its field defaults are the flags' defaults
    channel.add_argument("--sim-model", dest="sim_model", required=True)
    channel.add_argument("--secret-file", dest="secret_file", required=True)
    channel.add_argument("--length", type=_int_flag,
                         help="bytes to recover (default min(16, secret))")
    channel.add_argument("--iterations", type=_int_flag, default=gadget.iterations,
                         help="trials per candidate byte" + dflt)
    channel.add_argument("--suppression", choices=sidechannel.EXEC_MODES,
                         default=gadget.suppression, help="fault suppression" + dflt)
    channel.add_argument("--transmit-class", dest="transmit_class",
                         default=gadget.transmit_class, help="transmit class" + dflt)
    channel.add_argument("--false-fire", dest="false_fire", type=_float_flag, default=0.0,
                         help="chance a wrong candidate still fires" + dflt)
    channel.set_defaults(handler=cmd_sidechannel)
    run = side_sub.add_parser("run", parents=[channel], help="recover a secret through one event")
    run.add_argument("--attack", required=True, choices=list(sidechannel.ATTACK_KINDS))
    run.add_argument("--selector", required=True)
    run.add_argument("--out", required=True, help="recovery result JSON")
    cscreen = side_sub.add_parser("screen", parents=[channel],
                                  help="find hidden events that carry the channel")
    cscreen.add_argument("--report", required=True, help="scan report JSON")
    cscreen.add_argument("--attack", default=sidechannel.MELTDOWN,
                         choices=list(sidechannel.ATTACK_KINDS), help="attack" + dflt)
    cscreen.add_argument("--plot-out", help="optional accuracy scatter CSV")
    cscreen.add_argument("--plot-sample", type=_count_flag, default=100, help="plotted rows" + dflt)
    cscreen.add_argument("--out", required=True, help="screening CSV")

    report = sub.add_parser("report", help="summarize a scan report")
    report.add_argument("--in", dest="input", required=True, help="scan report JSON")
    report.set_defaults(handler=cmd_report)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse arguments and run one subcommand, mapping errors to exit codes.

    The parser is built on the first call and reused by every later call in
    the process; each parse still returns a fresh Namespace.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # basicConfig adds a handler only once per process, so the level is set on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProspectorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # the library rejecting an out-of-range value
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
