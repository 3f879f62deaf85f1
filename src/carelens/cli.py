"""Command-line interface: generate | train | eval | cv | inspect.

Options resolve as defaults < --config JSON file < explicit flags; unknown
config keys are rejected and every run writes its resolved options next to
its outputs.  Failures exit nonzero with one JSON error line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .data import Dataset, load_dataset, save_dataset, typed
from .metrics import bootstrap_eval
from .model import load_model, save_model
from .synthetic import SyntheticSpec, generate_synthetic, save_manifest
from .train import TrainConfig, cross_validate, fit, split_train_val, _derive_seed


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


# each command's option table: defaults, and types that its flags and its
# config-file checks come from
GENERATE_OPTS = {"cases": 200, "features": 4, "baseline": 3, "profile": None,
                 "interaction": [], "noise": 0.0, "prevalence": 0.5, "seed": 0,
                 "w_fast": 1.0, "w_slow": 1.0, "w_int": 1.0}
# each option takes its default's type; a profile is a comma list of tags
GENERATE_TYPES = dict({k: type(v) for k, v in GENERATE_OPTS.items()},
                      profile=str | None)

TRAIN_OPTS = asdict(TrainConfig())
TRAIN_TYPES = get_type_hints(TrainConfig)      # e.g. "d_ff": int | None

EVAL_OPTS = {"bootstrap": 100, "seed": 0}
EVAL_TYPES = {"bootstrap": int, "seed": int}

CV_OPTS = dict(TRAIN_OPTS, k=10)
CV_TYPES = dict(TRAIN_TYPES, k=int)

INSPECT_OPTS = {"per_patient": False}
INSPECT_TYPES = {"per_patient": bool}

HELP = {"profile": "comma list of fast/slow tags",
        "interaction": "FEATURE:FLAG planted interaction (repeatable)",
        "noise": "label flip probability", "bootstrap": "bootstrap replicates"}


def _resolve(args, defaults: dict, types: dict) -> tuple[dict, dict]:
    """The options as given (defaults < --config file < flags), as
    ``resolved_config.json`` records them, and the same options once each
    value is checked against its type."""
    opts = dict(defaults)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                filecfg = json.load(fh)
        except (ValueError, RecursionError) as exc:     # not UTF-8, not JSON, too deep
            raise CliError(f"{args.config}: not a JSON document: {exc}") from None
        if type(filecfg) is not dict:
            raise CliError("a config file must hold one JSON object")
        unknown = sorted(set(filecfg) - set(defaults))
        if unknown:
            raise CliError(f"unknown config key '{unknown[0]}'")
        opts.update(filecfg)
    for key in defaults:
        v = getattr(args, key, None)
        if v is not None:
            opts[key] = v
    try:
        return opts, {k: typed(f"config key '{k}'", v, types[k]) for k, v in opts.items()}
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _usage(check) -> None:
    """Run ``check``, a rule on the options alone, before any file is read:
    its ValueError is a usage error."""
    try:
        check()
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _write_json(path: Path, doc: dict) -> None:
    """``doc`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_resolved(out_dir: Path, command: str, opts: dict, **paths) -> None:
    _write_json(out_dir / "resolved_config.json",
                {"command": command, **{k: str(v) for k, v in paths.items()}, **opts})


def _out_dir(args) -> Path:
    """``--out``, made only once a run has passed its checks and has its
    results, so that a refused run leaves no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_cases(path) -> Dataset:
    """``load_dataset``, refused when it kept no case, naming the file, the
    reject count and the first reject's reason."""
    dataset = load_dataset(path)
    if not dataset.cases:
        n = len(dataset.rejects)
        first = f"; the first: {dataset.rejects[0][1]}" if n else ""
        raise CliError(f"{path}: no usable case, {n} rejected{first}")
    return dataset


def _interaction(pair) -> tuple[int, int]:
    """A ``FEATURE:FLAG`` string as a pair of indices."""
    if type(pair) is str:
        fi, _, bi = pair.partition(":")
        try:
            return int(fi), int(bi)
        except ValueError:
            pass
    raise CliError(f"bad interaction '{pair}', expected FEATURE:FLAG")


def cmd_generate(args) -> int:
    given, opts = _resolve(args, GENERATE_OPTS, GENERATE_TYPES)
    interaction = [_interaction(pair) for pair in opts["interaction"]]
    profile = (None if not opts["profile"]
               else [p.strip() for p in opts["profile"].split(",")])
    spec = SyntheticSpec(
        n_features=opts["features"], n_baseline=opts["baseline"],
        n_cases=opts["cases"], decay_profile=profile, interaction=interaction,
        label_noise=opts["noise"], seed=opts["seed"],
        prevalence=opts["prevalence"], w_fast=opts["w_fast"],
        w_slow=opts["w_slow"], w_int=opts["w_int"])
    _usage(spec.validate)
    dataset, manifest = generate_synthetic(spec)
    out = _out_dir(args)
    save_dataset(dataset, out / "dataset.jsonl")
    save_manifest(manifest, out / "manifest.json")
    _write_resolved(out, "generate", given, out=out)
    print(f"wrote {len(dataset)} cases "
          f"(prevalence {manifest['empirical_prevalence']:.3f}) to "
          f"{out / 'dataset.jsonl'}")
    return 0


def cmd_train(args) -> int:
    given, opts = _resolve(args, TRAIN_OPTS, TRAIN_TYPES)
    config = TrainConfig(**opts)
    _usage(config.validate)
    dataset = _load_cases(args.data)
    train_ids, val_ids = split_train_val(
        dataset.ids(), dataset.labels(), config.val_fraction,
        _derive_seed(config.seed, 9))
    model = fit(dataset, train_ids, val_ids, config)
    out = _out_dir(args)
    save_model(model, out / "model.json")
    with open(out / "train_log.jsonl", "w", encoding="utf-8") as fh:
        for entry in model.log:
            fh.write(json.dumps(entry) + "\n")
    _write_resolved(out, "train", given, data=args.data, out=out)
    best = max((e["val_auprc"] for e in model.log), default=float("nan"))
    print(f"trained {len(model.log)} epochs, best val_auprc {best:.4f}, "
          f"model at {out / 'model.json'}")
    return 0


def _case_counts(labels, dataset) -> dict:
    """What a command read: cases used, lines rejected, share of positives."""
    return {"n_cases": len(labels), "n_rejected": len(dataset.rejects),
            "prevalence": float(np.mean(labels))}


def _format_counts(counts: dict) -> str:
    return (f"{counts['n_cases']} cases ({counts['n_rejected']} rejected), "
            f"prevalence {counts['prevalence']:.3f}")


def cmd_eval(args) -> int:
    given, opts = _resolve(args, EVAL_OPTS, EVAL_TYPES)
    for key, least in (("bootstrap", 1), ("seed", 0)):
        if opts[key] < least:
            raise CliError(f"option '{key}' must be at least {least}, got {opts[key]}")
    model = load_model(args.model)
    dataset = _load_cases(args.data)
    scores, labels = model.score(dataset)
    report = bootstrap_eval(scores, labels, opts["bootstrap"], opts["seed"])
    scored = _case_counts(labels, dataset)
    out = _out_dir(args)
    _write_json(out / "report.json", {"metrics": report.to_json(), **scored})
    _write_resolved(out, "eval", given, model=args.model, data=args.data, out=out)
    print(f"scored {_format_counts(scored)}")
    print(report.format_table())
    return 0


def cmd_cv(args) -> int:
    given, opts = _resolve(args, CV_OPTS, CV_TYPES)
    k = opts.pop("k")
    if k < 2:
        raise CliError(f"option 'k' must be at least 2, got {k}")
    config = TrainConfig(**opts)
    _usage(config.validate)
    dataset = _load_cases(args.data)
    report = cross_validate(dataset, k, config)
    out = _out_dir(args)
    _write_json(out / "report.json", {"metrics": report.to_json()})
    _write_resolved(out, "cv", given, data=args.data, out=out)
    print(report.format_table())
    return 0


def _parse_filters(pairs: list[str]) -> list[tuple[str, float]]:
    out = []
    for pair in pairs:
        key, _, val = pair.partition("=")
        try:
            value = float(val)
        except ValueError:
            raise CliError(f"bad filter '{pair}', expected KEY=NUMBER") from None
        if key.strip() == "label" and value not in (0.0, 1.0):
            raise CliError(f"bad filter '{pair}', label must be 0 or 1")
        out.append((key.strip(), value))
    return out


def cmd_inspect(args) -> int:
    given, opts = _resolve(args, INSPECT_OPTS, INSPECT_TYPES)
    filters = _parse_filters(args.filter or [])
    model = load_model(args.model)
    dataset = _load_cases(args.data)
    model.check_compatible(dataset)
    selected = dataset.cases
    for key, val in filters:
        if key == "label":
            selected = [c for c in selected if c.label == val]
        elif key in dataset.baseline_names:
            j = dataset.baseline_names.index(key)
            selected = [c for c in selected if c.baseline[j] == val]
        else:
            raise CliError(f"unknown filter key '{key}'")
    if not selected:
        raise CliError("filter matched no cases")
    ids = [c.id for c in selected]
    out = _out_dir(args)

    with open(out / "decay_rates.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["feature", "decay_rate"])
        for name, rate in model.decay_rates().items():
            w.writerow([name, f"{rate:.10g}"])

    traces = model.trace_cases(dataset, ids)
    names = model.feature_names + ["baseline"]
    heads = np.stack([t["head_attn"] for t in traces])   # (C, M, P, P)
    for m in range(heads.shape[1]):
        grid = heads[:, m].mean(axis=0)
        with open(out / f"attention_head{m}.csv", "w", newline="",
                  encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["query\\key"] + names)
            for i, row in enumerate(grid):
                w.writerow([names[i]] + [f"{x:.10g}" for x in row])

    with open(out / "final_attention.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        if opts["per_patient"]:
            w.writerow(["id"] + names)
            for t in traces:
                w.writerow([t["id"]] + [f"{x:.10g}" for x in t["final_alpha"]])
        else:
            w.writerow(names)
            mean_alpha = np.stack([t["final_alpha"] for t in traces]).mean(axis=0)
            w.writerow([f"{x:.10g}" for x in mean_alpha])

    counts = _case_counts([c.label for c in selected], dataset)
    _write_json(out / "summary.json", counts)
    _write_resolved(out, "inspect", dict(given, filter=args.filter or []),
                    model=args.model, data=args.data, out=out)
    print(f"inspected {_format_counts(counts)}, tables in {out}")
    return 0


def flags(p: argparse.ArgumentParser, types: dict) -> None:
    """One flag per option; a bool gets --x and --no-x, a list is
    repeatable.  --seed is added with the other common flags."""
    for name, hint in types.items():
        if name != "seed":
            kind = ({"action": argparse.BooleanOptionalAction} if hint is bool
                    else {"action": "append"} if hint is list
                    else {"type": (get_args(hint) or (hint,))[0]})  # int | None: int
            p.add_argument("--" + name.replace("_", "-"), help=HELP.get(name), **kind)


def build_parser() -> _Parser:
    parser = _Parser(prog="carelens",
                     description="Clinical risk prediction with time-damped, "
                                 "context-aware feature attention")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, types, files, about in (
            ("generate", cmd_generate, GENERATE_TYPES, (), "write a synthetic cohort"),
            ("train", cmd_train, TRAIN_TYPES, ("data",), "fit a model"),
            ("eval", cmd_eval, EVAL_TYPES, ("model", "data"),
             "score a dataset with bootstrap CIs"),
            ("cv", cmd_cv, CV_TYPES, ("data",), "k-fold cross-validation"),
            ("inspect", cmd_inspect, INSPECT_TYPES, ("model", "data"),
             "export decay rates and attention maps")):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", help="JSON file of option overrides")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", required=True, help="output directory")
        for f in files:
            p.add_argument(f"--{f}", required=True)
        if name == "inspect":
            p.add_argument("--filter", action="append",
                           help="KEY=VALUE case filter, e.g. label=1 (repeatable)")
        flags(p, types)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # surface anything as one parseable line
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
