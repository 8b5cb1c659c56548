"""Command-line interface: ingest, profile, simulate, suite, report."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .backends import LiveConfig, TransportError
from .corpus import (
    difficulty_profile,
    fixture_corpus_path,
    group_by_domain,
    load_corpus,
    save_corpus,
)
from .harness import (
    BACKEND_KINDS,
    ConfigError,
    VariantConfig,
    build_backend,
    default_suite_configs,
    default_synthetic_corpus,
    rerender_reports,
    run_suite,
    run_variant,
)
from .metrics import compute_metrics
from .personas import Learner, Persona
from .protocol import solve_exercise
from .writer import write_file

# config-file `mock` keys and the VariantConfig fields they set
MOCK_KEYS = {"base_difficulty": "mock_base_difficulty", "bonus": "mock_bonus"}


def _required(cls) -> list[str]:
    return [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]


def _read_config(args) -> tuple[list[VariantConfig], str | None, LiveConfig | None]:
    """The variants, corpus spec and live settings from ``args.config``, every shape checked.

    ``--seed`` and ``--backend`` override a variant's keys, which override the
    top-level ones. A suite without a config file runs the default variants.
    """
    path, suite = args.config, args.command == "suite"

    def obj(value, key, allowed, required=()):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: {key} must be an object, got {value!r}")
        unknown = sorted(set(value).difference(allowed))
        if unknown:
            raise ConfigError(f"{path}: {key}: unknown key(s) {unknown}")
        missing = [k for k in required if k not in value]
        if missing:
            raise ConfigError(f"{path}: {key}: missing key(s) {missing}")
        return value

    raw = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise ConfigError(f"{path}: {exc}") from None
    shared_keys = ("corpus", "seed", "backend", "train_domains", "mock", "live")
    obj(raw, "the top level", (*shared_keys, "variants" if suite else "variant"), () if suite else ("variant",))
    if not isinstance(raw.get("corpus", ""), str):
        raise ConfigError(f"{path}: corpus must be a string, got {raw['corpus']!r}")
    live = None
    if "live" in raw:
        live_keys = obj(raw["live"], "live", [f.name for f in fields(LiveConfig)], _required(LiveConfig))
        try:
            live = LiveConfig(**live_keys)
        except ConfigError as exc:  # LiveConfig checks itself; the message names the file too
            raise ConfigError(f"{path}: {exc}") from None
    shared = {key: raw[key] for key in ("seed", "backend", "train_domains") if key in raw}
    for key, value in obj(raw.get("mock", {}), "mock", MOCK_KEYS).items():
        # an int in float range becomes a float (1 and 1.0 name the same mock); VariantConfig rejects any other value
        shared[MOCK_KEYS[key]] = float(value) if type(value) is int and abs(value) <= sys.float_info.max else value
    flags = {key: value for key, value in (("seed", args.seed), ("backend", args.backend)) if value is not None}
    if suite and "variants" not in raw:
        if shared.get("train_domains") == []:
            del shared["train_domains"]  # an empty list keeps the default split
        return default_suite_configs(**{**shared, **flags}), raw.get("corpus"), live
    variants = raw["variants"] if suite else [raw["variant"]]
    if not isinstance(variants, list):
        raise ConfigError(f"{path}: variants must be a list of objects, got {variants!r}")
    variant_keys, required = [f.name for f in fields(VariantConfig)], _required(VariantConfig)
    return [
        VariantConfig(**{**shared, **obj(v, f"variants[{i}]" if suite else "variant", variant_keys, required), **flags})
        for i, v in enumerate(variants)
    ], raw.get("corpus"), live


def _resolve_corpus(spec):
    if spec in (None, "synthetic"):
        return default_synthetic_corpus()
    if spec == "fixture":
        return load_corpus(fixture_corpus_path())
    return load_corpus(spec)


def _cmd_ingest(args) -> int:
    exercises = load_corpus(args.path)
    out = Path(args.out)
    save_corpus(exercises, out / "corpus.csv")
    blocks = group_by_domain(exercises)
    summary = {
        "exercises": len(exercises),
        "domains": {b.domain: len(b) for b in blocks},
        "categories": {},
    }
    for e in exercises:
        summary["categories"][e.category] = summary["categories"].get(e.category, 0) + 1
    write_file(out / "summary.json", json.dumps(summary, indent=1, sort_keys=True))
    print(f"ingested {len(exercises)} exercises from {len(blocks)} domains -> {out}")
    return 0


def _cmd_profile(args) -> int:
    if args.repeats < 1:
        raise ConfigError(f"profile: repeats must be >= 1, got {args.repeats}")
    if not math.isfinite(args.threshold):
        raise ConfigError(f"profile: threshold must be a finite number, got {args.threshold}")
    cfg = VariantConfig(
        name="profile", role_setting=False, co_learning=False,
        seed=args.seed or 0, backend=args.backend or "mock",
    )
    exercises = _resolve_corpus(args.path)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # before the first call: an unusable --out costs none
    backend = build_backend(cfg, cache_dir=out / "cache")
    probe = Learner(id="probe", persona=Persona(0, 0))
    # a generator: each record holds its prompt, so a list of every answer would hold every prompt at once.
    # Exercise-major: one prompt's repeats reach the backend back to back, so the mock reads it once.
    records = (
        solve_exercise(probe, exercise, backend, seed=repeat, use_persona=False)
        for exercise in exercises
        for repeat in range(args.repeats)
    )
    profile = difficulty_profile(exercises, records, args.repeats)
    profile.save(out / "difficulty.csv")
    share = profile.share_below(args.threshold)
    print(
        f"profiled {len(exercises)} exercises x {args.repeats} repeats; "
        f"{share:.1%} fall below the {args.threshold} mark -> {out / 'difficulty.csv'}"
    )
    return 0


def _cmd_simulate(args) -> int:
    (cfg,), corpus, live = _read_config(args)
    result = run_variant(cfg, _resolve_corpus(corpus), out_dir=args.out, live=live)
    for category, cell in compute_metrics(result.per_learner).items():
        print(f"{cfg.name} {category}: mean={cell.mean:.4f} best={cell.best:.4f} std={cell.std:.4f}")
    return 0


def _cmd_suite(args) -> int:
    configs, corpus, live = _read_config(args)
    suite = run_suite(configs, _resolve_corpus(corpus), out_dir=args.out, live=live)
    print(suite.gain_text)
    print(f"reports written to {args.out}")
    return 0


def _cmd_report(args) -> int:
    rerender_reports(args.out)
    print(f"reports re-rendered in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peermatch",
        description="Simulate learner agents and match study partners from Pareto fronts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate a corpus and write a consolidated store")
    p_ingest.add_argument("path", help="corpus directory or CSV file")
    p_ingest.add_argument("--out", required=True, help="output directory")
    p_ingest.set_defaults(fn=_cmd_ingest)

    p_profile = sub.add_parser("profile", help="repeat-solve a corpus and export difficulty means")
    p_profile.add_argument("path", help="corpus path, or 'fixture'/'synthetic'")
    p_profile.add_argument("--repeats", type=int, default=10)
    p_profile.add_argument("--threshold", type=float, default=0.6)
    p_profile.add_argument("--seed", type=int, default=None)
    p_profile.add_argument("--backend", choices=("mock", "cache"), default=None)
    p_profile.add_argument("--out", required=True)
    p_profile.set_defaults(fn=_cmd_profile)

    p_sim = sub.add_parser("simulate", help="run one variant from a config file")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--backend", choices=BACKEND_KINDS, default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_suite = sub.add_parser("suite", help="run the full variant suite and write reports")
    p_suite.add_argument("--config", default=None)
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.add_argument("--backend", choices=BACKEND_KINDS, default=None)
    p_suite.add_argument("--out", required=True)
    p_suite.set_defaults(fn=_cmd_suite)

    p_report = sub.add_parser("report", help="re-render reports from stored results")
    p_report.add_argument("--out", required=True, help="directory holding results.json")
    p_report.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
