"""Command-line interface.

Subcommands: mine (the full pipeline), repair, eval, gen-traces, export-milp,
bench. A run setting is its flag's value, else its key in the INI file that
--config names, else the default of its field in RunConfig, SemanticsParams
or SearchBudget. Exit codes: 0 success / threshold met, 2 best-effort
(threshold or a suite check missed), >2 specific error classes (see
EXIT_CODES); any invalid setting or usage error exits 17, and `mine` exits
so before it asks the provider.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import errors
from .errors import ConfigError, JanakaError
from .formulas import PropositionSet, parse_formula
from .milp import export_milp
from .pipeline import (
    CHOICES,
    RunConfig,
    _outcome_dict,
    bench_run,
    cast_setting,
    checked,
    eval_formula,
    format_bench_table,
    janaka_run,
    load_sample,
    setting_cast,
)
from .repair import SearchBudget, repair
from .semantics import DISCOUNTED, ROBUST, SemanticsParams
from .templates import parse_template
from .traces import generate_traces, serialize_sample

EXIT_OK = 0
EXIT_BEST_EFFORT = 2
EXIT_CODES = {
    errors.FormulaSyntaxError: 3,
    errors.TraceSyntaxError: 3,
    errors.UnknownAtomError: 4,
    errors.EmptyInputError: 5,
    errors.EmptyTraceError: 5,
    errors.EmptySampleError: 5,
    errors.MixedPaddingError: 6,
    errors.PartialAssignmentError: 6,
    errors.PadTooShortError: 6,
    errors.UnsupportedNegationError: 7,
    errors.DepthExceededError: 8,
    errors.NotInNNFError: 9,
    errors.BudgetExhaustedError: 10,
    errors.ProviderUnreachableError: 11,
    errors.RateLimitedError: 12,
    errors.AuthMissingError: 13,
    errors.NoValidFormulaError: 14,
    errors.NoTemplatesError: 15,
    errors.UnsupportedForExportError: 16,
    errors.ConfigError: 17,
}


def exit_code_for(exc: Exception) -> int:
    for cls, code in EXIT_CODES.items():
        if isinstance(exc, cls):
            return code
    if isinstance(exc, JanakaError):
        return 18
    if isinstance(exc, OSError):
        return 19
    return 20


class _Parser(argparse.ArgumentParser):
    """Exits a usage error with ConfigError's code, as an invalid INI value
    exits, not with argparse's 2, which here means best effort."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CODES[ConfigError], f"{self.prog}: error: {message}\n")


def _add_semantics_flags(p: argparse.ArgumentParser):
    p.add_argument("--semantics", choices=[ROBUST, DISCOUNTED], default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)


def _read_config(path: str | None) -> dict:
    if not path:
        return {}
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path}")
    merged: dict = {}
    for section in parser.sections():
        merged.update(parser[section])
    return merged


def _setting(args, config: dict, key: str, cast):
    """The flag's value, else the INI text through `cast`, else None. An INI
    text the cast refuses raises ConfigError naming the key."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None or key not in config:
        return value
    return cast_setting(key, config[key], cast)


def _given(args, config: dict, cls, **keys) -> dict:
    """Keyword arguments for the dataclass `cls`, one per field that a flag or
    INI key gives. A field's key is its name with '-' for '_', or the key
    `keys` maps it to (None: the field is not read)."""
    out = {}
    for f in fields(cls):
        key = keys.get(f.name, f.name.replace("_", "-"))
        value = key and _setting(args, config, key, setting_cast(cls, f.name))
        if value is not None:
            out[f.name] = value
    return out


def _run_config(args) -> RunConfig:
    """A command's run settings, each its flag, else its INI key, else the
    default of its field."""
    config = _read_config(args.config)
    given = _given(args, config, RunConfig, traces_path="traces",
                   explanation_path="explanation", semantics=None, budget=None)
    props = given.pop("props", None)
    semantics = _given(args, config, SemanticsParams, kind="semantics")
    return RunConfig(
        **given,
        props=props.split(",") if props else None,
        semantics=checked(SemanticsParams, **semantics),
        budget=checked(SearchBudget, **_given(args, config, SearchBudget)),
    )


def _write_out(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_mine(args) -> int:
    report = janaka_run(_run_config(args))
    _write_out(report.to_json(), args.out)
    return EXIT_OK if report.path in ("llm-direct", "repaired") else EXIT_BEST_EFFORT


def cmd_repair(args) -> int:
    cfg = _run_config(args)
    sample = load_sample(cfg)
    templates = [parse_template(t) for t in args.template]
    outcome = repair(sample, templates, cfg.semantics, kappa=cfg.kappa, budget=cfg.budget)
    _write_out(json.dumps(_outcome_dict(outcome, None), indent=2, sort_keys=True) + "\n",
               args.out)
    return EXIT_OK if outcome.threshold_met else EXIT_BEST_EFFORT


def cmd_eval(args) -> int:
    cfg = _run_config(args)
    result = eval_formula(args.formula, load_sample(cfg), cfg.semantics, both=args.both)
    _write_out(json.dumps(result, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_gen_traces(args) -> int:
    props = PropositionSet(args.props.split(","))
    f = parse_formula(args.formula, props)
    sample = checked(
        generate_traces, f, props, count=args.count, min_len=args.min_len,
        max_len=args.max_len, seed=args.seed, budget=args.budget,
    )
    _write_out(serialize_sample(sample, pad_to=args.pad_to), args.out)
    return EXIT_OK


def cmd_export_milp(args) -> int:
    cfg = _run_config(args)
    sample = load_sample(cfg)
    template = parse_template(args.template)
    _write_out(export_milp(template, sample, cfg.semantics, d=template.depth), args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    suite = bench_run(args.suite, out_dir=args.out)
    sys.stdout.write(format_bench_table(suite) + "\n")
    return EXIT_OK if suite["ok"] else EXIT_BEST_EFFORT


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="janaka",
        description="Mine LTL specifications from demonstration traces and explanations.",
    )
    top.add_argument("--verbose", action="store_true", help="debug logging")
    sub = top.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="run the full pipeline")
    mine.add_argument("--traces", help="trace file (wire format)")
    mine.add_argument("--explanation", help="natural-language explanation file")
    mine.add_argument("--props", help="comma-separated atoms (default: inferred)")
    _add_semantics_flags(mine)
    mine.add_argument("--kappa", type=float, default=None)
    mine.add_argument("--depth", "-d", type=int, default=None, help="hole depth bound")
    mine.add_argument("--top", "-k", type=int, default=None, help="top-k candidates")
    mine.add_argument("--strategy", choices=CHOICES["strategy"], default=None)
    mine.add_argument("--hole-prob", type=float, default=None)
    mine.add_argument("--provider", choices=CHOICES["provider"], default=None)
    mine.add_argument("--endpoint", default=None)
    mine.add_argument("--model", default=None)
    mine.add_argument("--temperature", type=float, default=None)
    mine.add_argument("--fixtures", default=None, help="mock response directory")
    mine.add_argument("--seed", type=int, default=None)
    mine.add_argument("--time-limit", type=float, default=None)
    mine.add_argument("--node-limit", type=int, default=None)
    mine.add_argument("--n-candidates", type=int, default=None)
    mine.add_argument("--mode", choices=CHOICES["mode"], default=None)
    mine.add_argument("--template-count", type=int, default=None)
    mine.add_argument("--max-retries", type=int, default=None)
    mine.add_argument("--config", default=None, help="INI config file")
    mine.add_argument("--out", default=None, help="report JSON path (default stdout)")
    mine.set_defaults(func=cmd_mine)

    rep = sub.add_parser("repair", help="fill template holes against traces")
    rep.add_argument("--traces", required=True)
    rep.add_argument("--template", action="append", required=True,
                     help="template text; repeatable")
    rep.add_argument("--props", default=None)
    _add_semantics_flags(rep)
    rep.add_argument("--kappa", type=float, default=None)
    rep.add_argument("--time-limit", type=float, default=None)
    rep.add_argument("--node-limit", type=int, default=None)
    rep.add_argument("--config", default=None)
    rep.add_argument("--out", default=None)
    rep.set_defaults(func=cmd_repair)

    ev = sub.add_parser("eval", help="score a formula over traces")
    ev.add_argument("--formula", required=True)
    ev.add_argument("--traces", required=True)
    ev.add_argument("--props", default=None)
    _add_semantics_flags(ev)
    ev.add_argument("--both", action="store_true", help="report both semantics")
    ev.add_argument("--config", default=None)
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_eval)

    gen = sub.add_parser("gen-traces", help="rejection-sample satisfying traces")
    gen.add_argument("--formula", required=True)
    gen.add_argument("--props", required=True)
    gen.add_argument("--count", type=int, default=10)
    gen.add_argument("--min-len", type=int, default=3)
    gen.add_argument("--max-len", type=int, default=6)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--budget", type=int, default=100_000)
    gen.add_argument("--pad-to", type=int, default=None)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen_traces)

    exp = sub.add_parser("export-milp", help="emit the LP model for a template")
    exp.add_argument("--template", required=True)
    exp.add_argument("--traces", required=True)
    exp.add_argument("--props", default=None)
    _add_semantics_flags(exp)
    exp.add_argument("--config", default=None)
    exp.add_argument("--out", default=None)
    exp.set_defaults(func=cmd_export_milp)

    bench = sub.add_parser("bench", help="run a benchmark suite directory")
    bench.add_argument("--suite", required=True,
                       help="suite directory, or a bundled suite name (e.g. table1)")
    bench.add_argument("--out", default=None, help="per-case report directory")
    bench.set_defaults(func=cmd_bench)

    return top


def _resolve_bundled_suite(args):
    if args.command == "bench" and not Path(args.suite).exists():
        bundled = Path(__file__).parent / "suites" / args.suite
        if bundled.exists():
            args.suite = str(bundled)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(name)s %(levelname)s %(message)s",
    )
    _resolve_bundled_suite(args)
    try:
        return args.func(args)
    except JanakaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 19


if __name__ == "__main__":
    sys.exit(main())
