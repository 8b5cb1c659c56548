"""Command-line interface: ingest, profile, simulate, suite, report."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Iterable

from .backends import DecodeParams, LiveConfig, TransportError
from .corpus import (
    difficulty_profile,
    fixture_corpus_path,
    group_by_domain,
    load_corpus,
    save_corpus,
)
from .harness import (
    CONFIG_KEYS,
    ConfigError,
    VariantConfig,
    build_backend,
    default_suite_configs,
    default_synthetic_corpus,
    rerender_reports,
    run_suite,
    run_variant,
)
from .personas import Learner, Persona
from .protocol import solve_exercise

SUITE_KEYS = {"corpus", "seed", "backend", "train_domains", "mock", "live", "variants", "variant"}
# config-file `mock` keys and the VariantConfig fields they set
MOCK_KEYS = {"base_difficulty": "mock_base_difficulty", "bonus": "mock_bonus"}
LIVE_KEYS = tuple(f.name for f in fields(LiveConfig))


def _reject_unknown(mapping: dict, allowed: Iterable[str], where: str) -> None:
    unknown = sorted(set(mapping).difference(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}")


def _variant_from_dict(raw: dict, shared: dict) -> VariantConfig:
    _reject_unknown(raw, CONFIG_KEYS, f"variant {raw.get('name', '?')!r}")
    merged = {**shared, **raw}
    missing = [k for k in ("name", "role_setting", "co_learning") if k not in merged]
    if missing:
        raise ConfigError(f"variant {raw.get('name', '?')!r}: missing key(s) {missing}")
    return VariantConfig(**merged)


def _load_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    _reject_unknown(raw, SUITE_KEYS, path)
    if "mock" in raw:
        _reject_unknown(raw["mock"], MOCK_KEYS, f"{path}: mock")
    if "live" in raw:
        _reject_unknown(raw["live"], LIVE_KEYS, f"{path}: live")
        missing = [f.name for f in fields(LiveConfig) if f.default is MISSING and f.name not in raw["live"]]
        if missing:
            raise ConfigError(f"{path}: live: missing key(s) {missing}")
    return raw


def _shared_from_config(raw: dict, args) -> dict:
    shared: dict = {}
    if "seed" in raw:
        shared["seed"] = raw["seed"]
    if "backend" in raw:
        shared["backend"] = raw["backend"]
    if "train_domains" in raw:
        shared["train_domains"] = raw["train_domains"]
    for key, value in raw.get("mock", {}).items():
        # a number becomes a float (1 and 1.0 name the same mock); any other value is left for validate() to reject
        shared[MOCK_KEYS[key]] = float(value) if type(value) in (int, float) else value
    if args.seed is not None:
        shared["seed"] = args.seed
    if args.backend is not None:
        shared["backend"] = args.backend
    return shared


def _live_from_config(raw: dict) -> LiveConfig | None:
    return LiveConfig(**raw["live"]) if "live" in raw else None


def _resolve_corpus(spec):
    if spec in (None, "synthetic"):
        return default_synthetic_corpus()
    if spec == "fixture":
        return load_corpus(fixture_corpus_path())
    return load_corpus(spec)


def _cmd_ingest(args) -> int:
    exercises = load_corpus(args.path)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(exercises, out / "corpus.csv")
    blocks = group_by_domain(exercises)
    summary = {
        "exercises": len(exercises),
        "domains": {b.domain: len(b) for b in blocks},
        "categories": {},
    }
    for e in exercises:
        summary["categories"][e.category] = summary["categories"].get(e.category, 0) + 1
    (out / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True), "utf-8")
    print(f"ingested {len(exercises)} exercises from {len(blocks)} domains -> {out}")
    return 0


def _cmd_profile(args) -> int:
    exercises = _resolve_corpus(args.path)
    cfg = VariantConfig(
        name="profile", role_setting=False, co_learning=False,
        seed=args.seed or 0, backend=args.backend or "mock",
    )
    out = Path(args.out)
    backend = build_backend(cfg, cache_dir=out / "cache")
    probe = Learner(id="probe", persona=Persona(0, 0))
    # a generator: each record holds its prompt, so a list of every answer would hold every prompt at once
    records = (
        solve_exercise(probe, exercise, backend, params=DecodeParams(seed=repeat), use_persona=False)
        for repeat in range(args.repeats)
        for exercise in exercises
    )
    profile = difficulty_profile(exercises, records, args.repeats)
    out.mkdir(parents=True, exist_ok=True)
    profile.save(out / "difficulty.csv")
    share = profile.share_below(args.threshold)
    print(
        f"profiled {len(exercises)} exercises x {args.repeats} repeats; "
        f"{share:.1%} fall below the {args.threshold} mark -> {out / 'difficulty.csv'}"
    )
    return 0


def _cmd_simulate(args) -> int:
    raw = _load_config_file(args.config)
    if "variants" in raw:
        raise ConfigError(f"{args.config}: simulate takes a single 'variant', not 'variants'")
    shared = _shared_from_config(raw, args)
    variant_raw = raw.get("variant")
    if variant_raw is None:
        raise ConfigError(f"{args.config}: simulate needs a 'variant' object")
    cfg = _variant_from_dict(variant_raw, shared)
    corpus = _resolve_corpus(raw.get("corpus"))
    result = run_variant(cfg, corpus, out_dir=args.out, live=_live_from_config(raw))
    stats = result.stats()
    for category, cell in stats.items():
        print(f"{cfg.name} {category}: mean={cell.mean:.4f} best={cell.best:.4f} std={cell.std:.4f}")
    return 0


def _cmd_suite(args) -> int:
    if args.config:
        raw = _load_config_file(args.config)
        if "variant" in raw:
            raise ConfigError(f"{args.config}: suite takes a 'variants' list, not 'variant'")
    else:
        raw = {}
    shared = _shared_from_config(raw, args)
    if "variants" in raw:
        configs = [_variant_from_dict(v, shared) for v in raw["variants"]]
    else:
        if not shared.get("train_domains"):
            shared.pop("train_domains", None)  # an empty list keeps the default split
        configs = default_suite_configs(**shared)
    corpus = _resolve_corpus(raw.get("corpus"))
    suite = run_suite(configs, corpus, out_dir=args.out, live=_live_from_config(raw))
    print(suite.gain_text)
    if args.out:
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
    p_sim.add_argument("--backend", choices=("mock", "cache", "live"), default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_suite = sub.add_parser("suite", help="run the full variant suite and write reports")
    p_suite.add_argument("--config", default=None)
    p_suite.add_argument("--seed", type=int, default=None)
    p_suite.add_argument("--backend", choices=("mock", "cache", "live"), default=None)
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
    except (ConfigError, ValueError, FileNotFoundError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
