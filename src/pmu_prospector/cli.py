"""Command-line entry point.

Subcommands cover the whole pipeline: scan, analyze-umask, detect,
sidechannel and report.  Exit codes: 0 success, 1 runtime failure, 2 usage
or configuration errors.  Defaults may come from a key=value config file
named by --config or the PMU_PROSPECTOR_CONFIG environment variable; flags
always win over config values.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections.abc import Callable, Mapping

from . import collector, detection, reporting, sidechannel, umask
from .backend import SimModel, load_sim_model, probe_native_backend
from .corpus import (
    NativeExecutor,
    SIGNAL_HANDLER,
    SimulatedExecutor,
    TRANSACTIONAL,
    load_corpus_file,
)
from .errors import ConfigError, ProspectorError
from .events import EventSelector, format_selector, load_catalog_file, parse_selector
from .seeding import derive_seed

log = logging.getLogger(__name__)

CONFIG_ENV_VAR = "PMU_PROSPECTOR_CONFIG"

# keys a config file may set; anything else is a spelling mistake worth failing on
_CONFIG_KEYS = frozenset(
    {"backend", "sim_model", "corpus", "catalog", "seed", "repetitions",
     "quiet_threshold", "capture", "suppression", "iterations", "samples"}
)


def parse_config_text(text: str, source: str) -> dict[str, str]:
    """Parse key=value lines; blank lines and # comments are ignored."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"{source}:{line_no}: expected key=value, got {line!r}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        values[key] = value.strip().strip('"')
    return values


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read(), path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _setting(args: argparse.Namespace, config: Mapping[str, str], name: str,
             default=None, cast: Callable = str):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        raw = config[name]
        try:
            return cast(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"config value {name}={raw!r} is not a valid {cast.__name__}") from None
    return default


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"{flag} is required (flag or config file)")
    return value


def _load_model(args: argparse.Namespace, config: Mapping[str, str]) -> SimModel:
    path = _require(_setting(args, config, "sim_model"), "--sim-model")
    return load_sim_model(path)


def _read_secret(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            secret = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read secret file {path}: {exc}") from exc
    if not secret:
        raise ConfigError(f"secret file {path} is empty")
    return secret


def cmd_scan(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    corpus_path = _require(_setting(args, config, "corpus"), "--corpus")
    catalog_path = _require(_setting(args, config, "catalog"), "--catalog")
    backend_kind = _setting(args, config, "backend", default="sim")
    seed = _setting(args, config, "seed", default=0, cast=int)
    scan_config = collector.ScanConfig(
        repetitions=_setting(args, config, "repetitions", default=5, cast=int),
        quiet_threshold=_setting(args, config, "quiet_threshold", default=1, cast=int),
        mode=_setting(args, config, "capture", default=SIGNAL_HANDLER),
        any_thread=bool(args.any_thread),
    )
    entries, issues = load_corpus_file(corpus_path)
    for issue in issues:
        log.warning("%s:%d: %s", corpus_path, issue.line, issue.message)
    catalog = load_catalog_file(catalog_path)
    native = None
    if backend_kind == "native":
        native, probe_report = probe_native_backend(cpu=args.cpu)
        if native is None:
            print(probe_report, file=sys.stderr)
            return 1
        print(probe_report)
        executor = NativeExecutor(native)
    elif backend_kind == "sim":
        model = _load_model(args, config)
        entry_map = {e.id: e for e in entries}
        executor = SimulatedExecutor(
            model.make_backend(seed),
            entry_map,
            fault_table=model.fault_table,
            supported_extensions=model.supported_extensions,
        )
    else:
        raise ConfigError(f"unknown backend {backend_kind!r} (choose sim or native)")
    sink = None
    records_fh = None
    if args.records:
        records_fh = open(args.records, "w", encoding="utf-8")
        sink = collector.ndjson_record_sink(records_fh)
    try:
        report = collector.full_scan(
            entries, catalog, executor, scan_config, record_sink=sink
        )
    finally:
        if records_fh is not None:
            records_fh.close()
        if native is not None:
            native.close()
    report.catalog_source = os.path.basename(catalog.source)
    collector.persist_report(report, args.out)
    print(
        f"scanned {report.total_instructions} instructions "
        f"({report.executed_success} executed): "
        f"{len(report.hidden_events)} hidden events -> {args.out}"
    )
    return 0


def cmd_report(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    report = collector.load_report(args.input)
    print(reporting.render_summary(report))
    return 0


def cmd_analyze_umask(args: argparse.Namespace, config: Mapping[str, str]) -> int:
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


def cmd_detect(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    seed = _setting(args, config, "seed", default=0, cast=int)
    if args.detect_command == "collect":
        selector = parse_selector(args.selector)
        model = _load_model(args, config)
        backend = model.make_backend(seed)
        dataset = detection.build_dataset(
            selector,
            args.attack,
            backend,
            samples_per_class=_setting(args, config, "samples", default=2000, cast=int),
            seed=seed,
        )
        detection.write_dataset_csv(dataset, args.out)
        print(
            f"collected {len(dataset.samples)} windows for {format_selector(selector)} "
            f"against {args.attack} -> {args.out}"
        )
        return 0
    if args.detect_command == "train":
        selector = parse_selector(args.selector)
        dataset = detection.load_dataset_csv(args.dataset, selector, seed)
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
    reports: dict[EventSelector, detection.MetricsReport] = {}
    for path in args.models:
        selector, _, metrics = detection.load_model_json(path)
        reports[selector] = metrics
    criteria = detection.ScreenCriteria(
        exclude_perfect=args.exclude_perfect, exclude_f1_band=args.exclude_f1_band
    )
    passed = detection.screen(reports, criteria)
    detection.write_screen_csv(reports, passed, args.out)
    if args.plot_out:
        reporting.write_metrics_plot_csv(
            reports, args.plot_out, sample_size=args.plot_sample, seed=seed
        )
    print(f"{len(passed)} of {len(reports)} detectors pass the screen -> {args.out}")
    return 0


def cmd_sidechannel(args: argparse.Namespace, config: Mapping[str, str]) -> int:
    seed = _setting(args, config, "seed", default=0, cast=int)
    model = _load_model(args, config)
    backend = model.make_backend(seed)
    secret = _read_secret(args.secret_file)
    victim = sidechannel.SimVictim(
        secret=secret,
        false_fire_prob=args.false_fire,
        noise_seed=derive_seed(seed, "channel-noise"),
    )
    # the screen binds each hidden event in turn; run binds --selector
    run = args.sidechannel_command == "run"
    selector = parse_selector(args.selector) if run else EventSelector(0, 0)
    spec = sidechannel.GadgetSpec(
        bound_selector=selector,
        iterations=_setting(args, config, "iterations", default=10, cast=int),
        suppression=_setting(args, config, "suppression", default=SIGNAL_HANDLER),
        secret_length=args.length if args.length is not None else min(16, len(secret)),
        attack_kind=args.attack,
        transmit_class=args.transmit_class,
    )
    if run:
        result = sidechannel.recover_secret(spec, backend, victim)
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
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("selector,accuracy\n")
        for selector, accuracy in rows:
            fh.write(f"{format_selector(selector)},{accuracy:.6f}\n")
    if args.plot_out:
        reporting.write_accuracy_plot_csv(
            rows, args.plot_out, sample_size=args.plot_sample, seed=seed
        )
    print(
        f"{len(rows)} of {len(report.hidden_events)} hidden events "
        f"carry the channel at >={sidechannel.MIN_CHANNEL_ACCURACY:.0%} accuracy -> {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmu-prospector",
        description="Discover undocumented PMU events and put them to work.",
    )
    parser.add_argument("--config", help=f"key=value config file (default: ${CONFIG_ENV_VAR})")
    parser.add_argument("--verbose", action="store_true", help="log progress details")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="scan the selector space against a corpus")
    scan.add_argument("--corpus", help="instruction corpus TSV")
    scan.add_argument("--catalog", help="documented-event CSV")
    scan.add_argument("--backend", choices=["sim", "native"])
    scan.add_argument("--sim-model", dest="sim_model", help="simulated PMU JSON model")
    scan.add_argument("--cpu", type=int, default=0, help="CPU for the native backend")
    scan.add_argument("--repetitions", type=int)
    scan.add_argument("--quiet-threshold", dest="quiet_threshold", type=int)
    scan.add_argument("--capture", choices=[SIGNAL_HANDLER, TRANSACTIONAL])
    scan.add_argument("--any-thread", dest="any_thread", action="store_true")
    scan.add_argument("--seed", type=int)
    scan.add_argument("--records", help="optional NDJSON stream of every measurement")
    scan.add_argument("--out", required=True, help="scan report JSON")
    scan.set_defaults(handler=cmd_scan)

    analyze = sub.add_parser("analyze-umask", help="infer umask relevance bits from a report")
    analyze.add_argument("--report", required=True, help="scan report JSON")
    analyze.add_argument("--out", required=True, help="output directory for CSV datasets")
    analyze.set_defaults(handler=cmd_analyze_umask)

    detect = sub.add_parser("detect", help="train and screen attack detectors")
    detect_sub = detect.add_subparsers(dest="detect_command", required=True)
    collect = detect_sub.add_parser("collect", help="synthesize labeled count windows")
    collect.add_argument("--selector", required=True, help='packed selector, e.g. "0x016C"')
    collect.add_argument("--attack", required=True, choices=sorted(detection.DEFAULT_ATTACKS))
    collect.add_argument("--sim-model", dest="sim_model")
    collect.add_argument("--samples", type=int, help="windows per class")
    collect.add_argument("--seed", type=int)
    collect.add_argument("--out", required=True, help="dataset CSV")
    collect.set_defaults(handler=cmd_detect)
    train = detect_sub.add_parser("train", help="fit the logistic detector on a dataset")
    train.add_argument("--dataset", required=True, help="dataset CSV from detect collect")
    train.add_argument("--selector", required=True)
    train.add_argument("--seed", type=int)
    train.add_argument("--out", required=True, help="model JSON")
    train.set_defaults(handler=cmd_detect)
    screen = detect_sub.add_parser("screen", help="filter trained detectors by metrics")
    screen.add_argument("--models", nargs="+", required=True, help="model JSON files")
    screen.add_argument("--exclude-perfect", action="store_true",
                        help="drop detectors with any metric exactly 1.0")
    screen.add_argument("--exclude-f1-band", action="store_true",
                        help="drop detectors with F1 in (0.9, 1.0)")
    screen.add_argument("--plot-out", help="optional metrics scatter CSV")
    screen.add_argument("--plot-sample", type=int, default=400)
    screen.add_argument("--seed", type=int)
    screen.add_argument("--out", required=True, help="screening CSV")
    screen.set_defaults(handler=cmd_detect)

    side = sub.add_parser("sidechannel", help="run the count-based covert channel")
    side_sub = side.add_subparsers(dest="sidechannel_command", required=True)
    run = side_sub.add_parser("run", help="recover a secret through one event")
    run.add_argument("--attack", required=True, choices=list(sidechannel.ATTACK_KINDS))
    run.add_argument("--selector", required=True)
    run.add_argument("--sim-model", dest="sim_model")
    run.add_argument("--secret-file", dest="secret_file", required=True)
    run.add_argument("--length", type=int, help="bytes to recover (default min(16, secret))")
    run.add_argument("--iterations", type=int)
    run.add_argument("--suppression", choices=[SIGNAL_HANDLER, TRANSACTIONAL])
    run.add_argument("--transmit-class", dest="transmit_class", default="memory-load")
    run.add_argument("--false-fire", dest="false_fire", type=float, default=0.0)
    run.add_argument("--seed", type=int)
    run.add_argument("--out", required=True, help="recovery result JSON")
    run.set_defaults(handler=cmd_sidechannel)
    cscreen = side_sub.add_parser("screen", help="find hidden events that carry the channel")
    cscreen.add_argument("--report", required=True, help="scan report JSON")
    cscreen.add_argument("--attack", default=sidechannel.MELTDOWN,
                         choices=list(sidechannel.ATTACK_KINDS))
    cscreen.add_argument("--sim-model", dest="sim_model")
    cscreen.add_argument("--secret-file", dest="secret_file", required=True)
    cscreen.add_argument("--length", type=int)
    cscreen.add_argument("--iterations", type=int)
    cscreen.add_argument("--suppression", choices=[SIGNAL_HANDLER, TRANSACTIONAL])
    cscreen.add_argument("--transmit-class", dest="transmit_class", default="memory-load")
    cscreen.add_argument("--false-fire", dest="false_fire", type=float, default=0.0)
    cscreen.add_argument("--seed", type=int)
    cscreen.add_argument("--plot-out", help="optional accuracy scatter CSV")
    cscreen.add_argument("--plot-sample", type=int, default=100)
    cscreen.add_argument("--out", required=True, help="screening CSV")
    cscreen.set_defaults(handler=cmd_sidechannel)

    report = sub.add_parser("report", help="summarize a scan report")
    report.add_argument("--in", dest="input", required=True, help="scan report JSON")
    report.set_defaults(handler=cmd_report)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse arguments and run one subcommand, mapping errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = _load_config(args.config)
        return args.handler(args, config)
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
