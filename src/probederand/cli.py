"""Command-line driver: ingest, cluster, evaluate, tune, generate.

Configuration precedence is command-line flags over config-file values
over built-in defaults. Every output file starts with a comment line
recording the tool version and the full effective configuration, and
identical inputs with the same seed produce byte-identical outputs.

Each subcommand's parser is the one record of the settings it takes:
``ingest``, ``cluster``, ``evaluate`` and ``tune`` read ``--config``,
and the commands that draw random numbers (``cluster``, ``evaluate``,
``tune`` and ``generate``) take ``--seed``.

Exit codes: 0 success, 1 processing error, 2 usage error: bad flags or
setting values, a missing input path, a config file that cannot be read
or is not a JSON object of known keys with correctly typed, in-range
values, or fewer than two labelled devices for ``evaluate`` and
``tune``. ``main`` prints every error as one ``error: <message>`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import (
    NOISE,
    DbscanConfig,
    KmeansConfig,
    UsageError,
    ie_only_cluster,
    n_clusters,
    two_stage_labelings,
    write_labeling_file,
)
from .features import (
    DEFAULT_BURST_GAP,
    group_bursts,
    ie_stability_violations,
    read_feature_file,
    write_feature_file,
)
from .metrics import (
    METHOD_IE_ONLY,
    METHOD_TWO_STAGE,
    METHODS,
    EvalConfig,
    run_protocol,
    tune_dbscan,
    write_report_files,
    write_tuning_file,
)
from .pcap import Error as CaptureError
from .pcap import ParseDiagnostics, read_dataset
from .randomness import DEFAULT_SEED
from .synth import generate_scenario, json_object, json_typed, load_scenario

# The library's defaults, plus the CLI-only method and jobs settings.
DEFAULTS = {
    **asdict(DbscanConfig()),
    "k_max": KmeansConfig().k_max,
    "d": EvalConfig().d,
    "gap_seconds": DEFAULT_BURST_GAP,
    "seed": DEFAULT_SEED,
    "method": METHOD_TWO_STAGE,
    "jobs": 1,
}


def _check_ranges(settings: dict) -> tuple[DbscanConfig, KmeansConfig, EvalConfig]:
    """The library configs of ``settings``, which holds every ``DEFAULTS``
    key; raise UsageError for the first value out of range."""
    configs = (
        DbscanConfig(eps=settings["eps"], min_pts=settings["min_pts"]),
        KmeansConfig(k_max=settings["k_max"], seed=settings["seed"]),
        EvalConfig(d=settings["d"], seed=settings["seed"]),
    )
    if settings["jobs"] < 1:
        raise UsageError("jobs must be at least 1")
    if not settings["gap_seconds"] > 0:
        raise UsageError("gap_seconds must be positive")
    if settings["method"] not in METHODS:
        raise UsageError(f"method must be one of {', '.join(METHODS)}, got {settings['method']!r}")
    return configs


def _effective_config(
    args: argparse.Namespace,
) -> tuple[dict, DbscanConfig, KmeansConfig, EvalConfig]:
    """Merge defaults, config-file values, and explicit flags for every
    ``DEFAULTS`` key the subcommand's parser defines: the merged settings
    and the library configs built from them.

    A config file may hold any ``DEFAULTS`` key, so one file serves every
    subcommand, and every command checks the whole file: a file that
    cannot be read or parsed, a key outside ``DEFAULTS``, a value without
    its default's type (an integer may stand for a float), or a value
    out of range is a usage error.
    """
    keys = [k for k in DEFAULTS if k in vars(args)]
    config = {k: DEFAULTS[k] for k in keys}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"config file {args.config}: {exc}") from exc
        try:
            for k, value in json_object("settings", loaded, DEFAULTS).items():
                json_typed(k, value, type(DEFAULTS[k]))
            _check_ranges({**DEFAULTS, **loaded})
        except ValueError as exc:
            raise UsageError(f"config file {args.config}: {exc}") from exc
        config.update((k, loaded[k]) for k in keys if k in loaded)
    for k in keys:
        value = getattr(args, k)
        if value is not None:
            config[k] = value
    return (config, *_check_ranges({**DEFAULTS, **config}))


def _header(subcommand: str, config: dict) -> str:
    settings = " ".join(f"{k}={config[k]}" for k in sorted(config))
    return f"probederand {__version__} | {subcommand} | {settings} | ie_encoding=byte-sum"


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _effective_config(args)[0]
    diagnostics = ParseDiagnostics()
    frames, truths = read_dataset(args.dataset_root, diagnostics)
    bursts = group_bursts(frames, config["gap_seconds"], truths)
    out = _out_dir(args)
    write_feature_file(bursts, out / "bursts.csv", _header("ingest", config))

    audit = ie_stability_violations(bursts)
    print(f"frames: {len(frames)}  bursts: {len(bursts)}")
    print(
        "diagnostics: "
        f"records={diagnostics.records_total} "
        f"probe_requests={diagnostics.probe_requests} "
        f"skipped_other={diagnostics.skipped_other} "
        f"truncated={diagnostics.skipped_truncated} "
        f"truncated_tail={diagnostics.truncated_tail} "
        f"fcs_bad={diagnostics.skipped_fcs_bad} "
        f"bad_radiotap={diagnostics.skipped_bad_radiotap} "
        f"ie_overruns={diagnostics.ie_overruns}"
    )
    if diagnostics.empty_files:
        print(f"empty captures: {', '.join(diagnostics.empty_files)}")
    if audit:
        print(f"ie-feature instability in {len(audit)} burst(s): {audit[:10]}")
    print("note: frames seen by several sniffers are kept, not deduplicated")
    print(f"wrote {out / 'bursts.csv'}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    config, dbscan_cfg, kmeans_cfg, _ = _effective_config(args)
    bursts = read_feature_file(args.features)
    if len(bursts) == 0:
        raise ValueError("need at least one burst")
    if config["method"] == METHOD_IE_ONLY:
        coarse = final = ie_only_cluster(bursts.ie_features, dbscan_cfg)
    else:
        coarse, final = two_stage_labelings(bursts, dbscan_cfg, kmeans_cfg)
    out = _out_dir(args)
    write_labeling_file(bursts, coarse, final, out / "labeling.csv", _header("cluster", config))

    noise = int((final == NOISE).sum())
    summary = {
        "n_clusters": n_clusters(final),
        "n_coarse_clusters": n_clusters(coarse),
        "noise_bursts": noise,
        "cluster_sizes": np.bincount(final[final != NOISE]).tolist(),
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"clusters: {summary['n_clusters']}  noise bursts: {noise}")
    print(f"wrote {out / 'labeling.csv'} and {out / 'summary.json'}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config, dbscan_cfg, kmeans_cfg, eval_cfg = _effective_config(args)
    bursts = read_feature_file(args.features)
    sections = run_protocol(bursts, eval_cfg, dbscan_cfg, kmeans_cfg, config["jobs"])
    out = _out_dir(args)
    write_report_files(
        sections.items(),
        out / "report_runs.csv",
        out / "report_summary.csv",
        _header("evaluate", config),
    )
    for method, reports in sections.items():
        mean_v = sum(r.v_measure for r in reports) / len(reports)
        print(f"{method}: {len(reports)} runs, mean V-measure {mean_v:.4f}")
    print(f"wrote {out / 'report_runs.csv'} and {out / 'report_summary.csv'}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    config, _, _, eval_cfg = _effective_config(args)
    if any(c in args.eps_grid + args.minpts_grid for c in "\r\n"):
        raise UsageError("hyperparameter grid: holds a line break")
    try:
        eps_grid = [float(x) for x in args.eps_grid.split(",") if x != ""]
        minpts_grid = [int(x) for x in args.minpts_grid.split(",") if x != ""]
    except ValueError as exc:
        raise UsageError(f"hyperparameter grid: {exc}") from exc
    bursts = read_feature_file(args.features)
    rows = tune_dbscan(bursts, eps_grid, minpts_grid, eval_cfg)
    out = _out_dir(args)
    config["eps_grid"] = args.eps_grid
    config["minpts_grid"] = args.minpts_grid
    write_tuning_file(rows, out / "tuning.csv", _header("tune", config))
    best = rows[0]
    print(
        f"recommended: eps={best.eps} min_pts={best.min_pts} "
        f"(mean V {best.mean_v:.4f}, mean |delta| {best.mean_abs_delta:.4f})"
    )
    print(f"wrote {out / 'tuning.csv'}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    root = generate_scenario(scenario, args.out, overwrite=args.overwrite)
    n_files = sum(1 for _ in root.rglob("*.pcap"))
    print(f"generated {len(scenario.profiles)} device(s), {n_files} capture file(s) under {root}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a UsageError instead of printing a
    usage block and exiting, so ``main`` reports it like any other."""

    def error(self, message):
        raise UsageError(message)


def _existing_path(text: str) -> str:
    """Argument type of an input path, which must exist."""
    if not Path(text).exists():
        raise argparse.ArgumentTypeError(f"path does not exist: {text}")
    return text


def _out_path(text: str) -> str:
    """Argument type of an output directory, made after the work: neither it nor a parent may be a file."""
    if any(p.exists() and not p.is_dir() for p in (Path(text), *Path(text).parents)):
        raise argparse.ArgumentTypeError(f"not a directory: {text}")
    return text


def _add_settings(parser: argparse.ArgumentParser, *keys: str, seeded: bool) -> None:
    """A flag for each ``DEFAULTS`` key in ``keys``, and for ``seed`` when
    the command draws random numbers, then ``--out`` and ``--config``.
    Each flag is ``--`` plus its key with ``-`` for ``_``, typed as the
    key's default; an absent flag parses as None, so a config-file value
    or the default holds."""
    for key in keys + ("seed",) * seeded:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, type=type(DEFAULTS[key]), help=f"default: {DEFAULTS[key]}")
    parser.add_argument("--out", required=True, type=_out_path, help="output directory")
    parser.add_argument("--config", help="JSON config file (flags take precedence)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="probederand",
        description="De-randomize probe-request MAC addresses by two-stage burst clustering.",
    )
    parser.add_argument("--version", action="version", version=f"probederand {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_ingest = sub.add_parser("ingest", help="parse a dataset tree into a burst feature file")
    p_ingest.add_argument(
        "dataset_root", type=_existing_path, help="directory laid out as <root>/<device-id>/<channel>.pcap"
    )
    _add_settings(p_ingest, "gap_seconds", seeded=False)
    p_ingest.set_defaults(func=cmd_ingest)

    p_cluster = sub.add_parser("cluster", help="run the clustering pipeline on a feature file")
    p_cluster.add_argument("features", type=_existing_path, help="burst feature file from ingest")
    _add_settings(p_cluster, "eps", "min_pts", "k_max", "method", seeded=True)
    p_cluster.set_defaults(func=cmd_cluster)

    p_eval = sub.add_parser("evaluate", help="run the subset protocol for both methods")
    p_eval.add_argument("features", type=_existing_path, help="labeled burst feature file")
    _add_settings(p_eval, "eps", "min_pts", "k_max", "d", "jobs", seeded=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_tune = sub.add_parser("tune", help="sweep DBSCAN hyperparameters")
    p_tune.add_argument("features", type=_existing_path, help="labeled burst feature file")
    p_tune.add_argument("--eps-grid", required=True, help="comma-separated eps values")
    p_tune.add_argument("--minpts-grid", required=True, help="comma-separated MinPts values")
    _add_settings(p_tune, "d", seeded=True)
    p_tune.set_defaults(func=cmd_tune)

    p_gen = sub.add_parser("generate", help="synthesize a labeled capture dataset")
    p_gen.add_argument("scenario", type=_existing_path, help="scenario JSON document")
    p_gen.add_argument("--out", required=True, type=_out_path, help="output directory")
    p_gen.add_argument("--overwrite", action="store_true")
    p_gen.add_argument("--seed", type=int, default=None, help="seed that overrides the scenario's own")
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CaptureError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
