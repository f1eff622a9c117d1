"""Pipeline command line: file-to-file stages over JSONL artifacts.

Every stage reads and writes plain files so partial reruns and diffing work;
output files are written atomically. Errors surface as one JSON line on
stderr with exit code 1; argparse keeps its usual exit code 2 for bad flags.
Each stage imports its modules inside its `cmd_*` function, so a call loads
only what its own stage runs and `--help` loads this module and `util` only.

Every setting is declared once, in `SETTINGS`: its default and the commands
that take it as a `--flag`. `main` fills each setting a flag left unset from
the `--config` file, then from the default, so a `cmd_*` reads typed values
from `args` alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .util import (
    ChatClient,
    CrashlensError,
    StrategyKind,
    StubChatClient,
    atomic_write,
    atomic_write_json,
    atomic_write_jsonl,
    bounded_map,
    iter_jsonl,
    parse_annotated,
    parse_yaml,
    read_jsonl,
    string_fields,
)

DEFAULT_TARGET_RATIO = 2654 / 1779

# Every setting once: its default, the commands whose `--name` flag sets it
# (underscores become dashes in the flag) and the flag's help if it has one.
# A config file may give any setting.
SETTINGS: dict[str, tuple] = {
    "seed": (0, "ingest train-ref"),
    "offline": (False, "augment analyze eval", "use the deterministic stub chat client"),
    "jobs": (1, "augment analyze eval"),
    "balance": (False, "ingest", "downsample the majority class"),
    "target_ratio": (DEFAULT_TARGET_RATIO, "ingest"),
    "column_maps": (None, ""),  # config file only
    "lexicon": (None, "narrate"),
    "templates": (None, "narrate"),
    "dim": (32, "train-ref"),
    # the label is predicted from the final window, so it must be wide
    # enough to keep same-tail narratives with different labels apart
    "window": (48, "train-ref"),
    "epochs": (60, "train-ref"),
    "lr": (0.05, "train-ref"),
    "L": (100, "attribute"),
    "b": (1, "attribute"),
    "display_divisor": (20.0, "attribute"),
    "grouping_rules": (None, "analyze"),
    "category_lexicon": (None, "analyze"),
    "top_k": (5, "analyze"),
    "threshold_hi": (3.0, "export"),
    "temperature": (0.1, "augment eval"),
    "endpoint": ("", "augment analyze eval"),
}


class CliError(CrashlensError):
    pass


def _add_settings(parser: argparse.ArgumentParser, command: str) -> None:
    """The `--name` flags of the settings `command` takes; each defaults to
    None so that `main` can tell an unset flag from a given one."""
    for key, (default, commands, *help) in SETTINGS.items():
        if command not in commands.split():
            continue
        if isinstance(default, bool):
            kind: dict = {"action": "store_true"}
        else:
            kind = {"type": str if default is None else type(default)}
        parser.add_argument("--" + key.replace("_", "-"), default=None, help=next(iter(help), None), **kind)


def _config_types(key: str) -> tuple[type, ...]:
    """The types a config file may give `key`: its default's, with an int
    allowed for a float; the data-file paths are strings."""
    default = SETTINGS[key][0]
    if key == "column_maps":
        return (dict,)
    if default is None:
        return (str,)
    if isinstance(default, float):
        return (int, float)
    return (type(default),)


def _check_column_maps(maps: dict) -> None:
    """Each entry maps a table name to a mapping of field name to column name."""
    for table, columns in maps.items():
        if not isinstance(columns, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in columns.items()
        ):
            raise CliError(f"config key 'column_maps' entry {table!r} must map strings to strings")


def load_config(path: Optional[str]) -> dict[str, object]:
    """Defaults, overlaid with the YAML config; unknown keys and values of
    the wrong type are fatal, and an int given for a float is a float."""
    cfg = {key: setting[0] for key, setting in SETTINGS.items()}
    if path is None:
        return cfg
    doc = parse_yaml(Path(path).read_text(encoding="utf-8"))
    if doc is None:  # an empty document; a `0`, `false`, `""` or `[]` is no mapping
        doc = {}
    if not isinstance(doc, dict):
        raise CliError(f"config {path} must be a mapping")
    for key, value in doc.items():
        if key not in SETTINGS:
            raise CliError(f"unknown config key {key!r}")
        types = _config_types(key)
        # bool is an int subclass: a bool fits only a bool default, and only a bool does
        if not isinstance(value, types) or isinstance(value, bool) != (types == (bool,)):
            names = " or ".join(t.__name__ for t in types)
            raise CliError(f"config key {key!r} must be {names}, not {type(value).__name__}")
        if key == "column_maps":
            _check_column_maps(value)
        if float in types:
            try:
                value = float(value)
            except OverflowError:
                raise CliError(f"config key {key!r} is too large for a float") from None
        cfg[key] = value
    return cfg


def _emit(summary: dict) -> None:
    print(json.dumps(summary, ensure_ascii=False))


def _attribution_record(doc: dict) -> dict:
    """The two fields analyze and export read; the rest of the record is dropped."""
    caseno, annotated = string_fields(doc, "caseno", "annotated")
    return {"caseno": caseno, "annotated": annotated}


def _read_jsonl(path: str | Path) -> list[dict]:
    """Attribution records; a bad line is a ParseError naming its number."""
    return read_jsonl(path, _attribution_record)


def _chat_client(args: argparse.Namespace) -> ChatClient:
    """The stub offline; else a client of `--endpoint`, or of
    $CRASHLENS_CHAT_ENDPOINT without one, sending $CRASHLENS_CHAT_API_KEY."""
    if args.offline:
        return StubChatClient()
    endpoint = args.endpoint or os.environ.get("CRASHLENS_CHAT_ENDPOINT", "")
    if not endpoint:
        raise CliError("no chat endpoint configured; pass --offline to use the stub client")
    from .chat import HttpChatClient

    return HttpChatClient(endpoint, os.environ.get("CRASHLENS_CHAT_API_KEY", ""))


def cmd_ingest(args: argparse.Namespace) -> int:
    from . import schema

    if args.balance:  # a bad ratio fails before the tables load
        schema.check_target_ratio(args.target_ratio)
    tables = schema.load_tables(
        args.crashes, args.segments, args.vehicles, args.persons, column_maps=args.column_maps
    )
    result = schema.integrate(tables)
    cases = result.cases
    if args.balance:
        cases = schema.stratified_downsample(cases, args.target_ratio, args.seed)
    atomic_write_jsonl(args.out, [schema.case_to_dict(c) for c in cases])
    _emit(
        {
            "cases": len(cases),
            "rejected_rows": len(tables.rejects),
            "rejects": [{"table": r.table, "line": r.line, "reason": r.reason} for r in tables.rejects],
            "orphan_vehicles": len(result.report.orphan_vehicles),
            "orphan_persons": len(result.report.orphan_persons),
            "ambiguous_links": len(result.report.ambiguous_links),
            "out": str(args.out),
        }
    )
    return 0


def cmd_narrate(args: argparse.Namespace) -> int:
    from . import narrator, schema
    from .records import pair_to_dict

    cases = schema.deserialize_cases(args.cases)
    lexicon = narrator.load_lexicon(args.lexicon)
    templates = narrator.load_templates(args.templates)
    pairs, skipped = [], []
    n_warnings = 0
    for case in cases:
        normalized = narrator.normalize(case, lexicon)
        n_warnings += len(normalized.warnings)
        try:  # a case whose template cannot be filled is skipped, not the batch
            pairs.append(narrator.render(normalized, templates))
        except narrator.MissingRequiredSlotError as exc:
            skipped.append({"caseno": exc.caseno, "reason": str(exc)})
    atomic_write_jsonl(args.out, [pair_to_dict(p) for p in pairs])
    _emit(
        {
            "narratives": len(pairs),
            "warnings": n_warnings,
            "skipped_cases": len(skipped),
            "skipped": skipped,
            "out": str(args.out),
        }
    )
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    from .augment import ConstraintKind, augment_batch
    from .records import read_pairs

    pairs = read_pairs(args.narratives)
    client = _chat_client(args)
    results = augment_batch([p.descriptive for p in pairs], client, args.temperature, jobs=args.jobs)
    records = []
    fallbacks = 0
    failed = dict.fromkeys((kind.value for kind in ConstraintKind), 0)
    for pair, (text, report) in zip(pairs, results):
        if not report.passed:
            fallbacks += 1
        for r in report.failures:
            failed[r.kind.value] += 1
        records.append(
            {
                "caseno": pair.caseno,
                "original": pair.descriptive,
                "augmented": text,
                "passed": report.passed,
                "failures": [
                    {"constraint": r.kind.value, "offending": r.offending}
                    for r in report.failures
                ],
                "error": report.error,
            }
        )
    atomic_write_jsonl(args.out, records)
    _emit(
        {"narratives": len(records), "fallbacks": fallbacks, "failed_constraints": failed, "out": str(args.out)}
    )
    return 0


def cmd_train_ref(args: argparse.Namespace) -> int:
    from . import refmodel
    from .records import read_pairs

    config = refmodel.TrainConfig(lr=args.lr, epochs=args.epochs, seed=args.seed)
    pairs = read_pairs(args.narratives)
    if not pairs:
        raise CliError("no narratives to train on")
    tokenizer = refmodel.Tokenizer.from_texts([p.descriptive for p in pairs])
    examples = []
    for pair in pairs:
        context = (refmodel.BOS_ID, *tokenizer.encode(pair.descriptive))
        examples.append(refmodel.TrainingExample(context, tokenizer.label_id(pair.label)))
    unk = tokenizer.id_of(refmodel.UNK)
    words = sum(len(ex.context) - 1 for ex in examples)  # less `<bos>`
    unk_share = sum(ex.context.count(unk) for ex in examples) / words if words else 0.0
    model = refmodel.TinyLM.init(tokenizer.size, dim=args.dim, window=args.window, seed=args.seed)
    trained = refmodel.train(model, examples, config)
    trained.save(args.out_model)
    tokenizer.save(args.out_tokenizer)
    _emit(
        {
            "examples": len(examples),
            "vocab": tokenizer.size,
            "unk_share": round(unk_share, 6),
            "final_nll": round(trained.loss_history[-1], 6),
            "model": str(args.out_model),
            "tokenizer": str(args.out_tokenizer),
        }
    )
    return 0


def cmd_attribute(args: argparse.Namespace) -> int:
    L, b, divisor = args.L, args.b, args.display_divisor
    # b >= L would zero every score, and an infinite divisor every annotation;
    # scores pass through float64, which holds every integer only up to 2**53
    if not (1 <= L <= 2**53 and 0 <= b < L and 0 < divisor < float("inf")):
        raise ValueError(
            f"need 1 <= L <= 2**53, 0 <= b < L and a finite display_divisor > 0; got {L}, {b} and {divisor}"
        )
    from . import attribution, refmodel
    from .records import read_pairs

    pairs = read_pairs(args.narratives)
    if args.caseno:
        pairs = [p for p in pairs if p.caseno == args.caseno]
        if not pairs:
            raise CliError(f"caseno {args.caseno!r} not found in narratives")
    model = refmodel.TinyLM.load(args.model)
    tokenizer = refmodel.Tokenizer.load(args.tokenizer)
    if model.vocab_size != tokenizer.size:
        raise refmodel.RefModelError(
            f"model vocabulary has {model.vocab_size} tokens but the tokenizer has {tokenizer.size}"
        )
    importance_fn = (
        attribution.occlusion_importance if args.method == "occlusion" else attribution.taylor_importance
    )

    fragments = attribution.token_fragments(tokenizer.tokens)

    def lines() -> Iterator[str]:
        for pair in pairs:
            spans = tokenizer.encode_with_spans(pair.descriptive)
            context = [refmodel.BOS_ID, *(tid for tid, _, _ in spans)]
            dist = model.distribution(context)  # one forward pass for the label and the scores
            target = tokenizer.label_id(refmodel.classify(tokenizer, dist)[0])
            scores = attribution.normalize_scores(importance_fn(model, context, target, dist), L, b)
            words = attribution.aggregate_to_words(scores, pair.descriptive, spans, divisor)
            annotated = attribution.annotate_narrative(pair.descriptive, words)
            yield attribution.attribution_record(
                pair.caseno, args.method, fragments, spans, target, scores, annotated
            ) + "\n"

    atomic_write(args.out, lines())
    _emit({"records": len(pairs), "method": args.method, "out": str(args.out)})
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.top_k < 1:  # terms[:k] would silently drop every factor
        raise ValueError(f"need top_k >= 1; got {args.top_k}")
    from . import analytics

    records = _read_jsonl(args.attributions)
    rules = analytics.load_grouping_rules(args.grouping_rules)
    lexicon = analytics.load_category_lexicon(args.category_lexicon)
    if args.offline:  # the rules alone; no chat client

        def summarize(rec: dict) -> analytics.FactorSummary:
            return analytics.rule_based_factors(parse_annotated(rec["annotated"])[1], lexicon, rec["caseno"])

    else:
        client = _chat_client(args)

        def summarize(rec: dict) -> analytics.FactorSummary:
            return analytics.summarize_factors(rec["annotated"], client, rec["caseno"], lexicon)

    summaries = bounded_map(summarize, records, args.jobs)
    out_records, per_case_grouped = [], []
    for rec, summary in zip(records, summaries):
        top = analytics.extract_top_factors(summary, k=args.top_k)
        grouped = analytics.semantic_group(top, rules)
        per_case_grouped.append(grouped)
        out_records.append(
            {
                "caseno": rec["caseno"],
                "source": summary.source,
                "categories": {
                    aspect: {
                        "summary": summary.categories[aspect].summary,
                        "terms": [[t.term, t.score] for t in summary.categories[aspect].terms],
                    }
                    for aspect in analytics.ASPECTS
                },
                "top_factors": top,
                "grouped_factors": grouped,
            }
        )
    graph = analytics.cooccurrence(per_case_grouped)
    atomic_write_jsonl(args.out, out_records)
    if args.graph_out:
        analytics.export_sankey(graph, json_path=args.graph_out)
    _emit(
        {
            "cases": len(out_records),
            # summaries the rules made because the client failed for them
            "fallbacks": 0 if args.offline else sum(s.source == "rules" for s in summaries),
            # repair requests the summaries sent after a reply that held no factor JSON
            "repairs": sum(s.repairs for s in summaries),
            "nodes": len(graph.nodes),
            "links": len(graph.links),
            "out": str(args.out),
        }
    )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from . import analytics

    if args.kind == "sankey":
        if not args.graph:
            raise CliError("--graph is required for sankey export")
        doc = json.loads(Path(args.graph).read_text(encoding="utf-8"))
        graph = analytics.graph_from_json(doc)
        analytics.export_sankey(graph, html_path=args.out)
        _emit(
            {
                "kind": "sankey",
                "nodes": len(graph.nodes),
                "links": len(graph.links),
                "out": str(args.out),
            }
        )
        return 0
    if not args.attributions or not args.caseno:
        raise CliError("--attributions and --caseno are required for heatmap export")
    if not args.threshold_hi > 0:  # an unscored word scores 0, so it would be red
        raise ValueError(f"need threshold_hi > 0; got {args.threshold_hi}")
    # the first record for the case; the lines after it are not read
    with closing(iter_jsonl(args.attributions, _attribution_record)) as records:
        rec = next((r for r in records if r["caseno"] == args.caseno), None)
    if rec is None:
        raise CliError(f"caseno {args.caseno!r} not found in attributions")
    analytics.export_heatmap(rec["annotated"], args.threshold_hi, args.out, caseno=args.caseno)
    _emit({"kind": "heatmap", "caseno": args.caseno, "out": str(args.out)})
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from . import evaluation
    from .records import Severity, read_pairs

    pairs = read_pairs(args.narratives)
    kind = StrategyKind(args.strategy)
    shots: tuple = ()  # few-shot: the first minor and the first severe pair, not evaluated
    if kind is StrategyKind.FEW_SHOT:
        minor = next((p for p in pairs if p.label is Severity.MINOR), None)
        severe = next((p for p in pairs if p.label is Severity.SEVERE), None)
        if minor is None or severe is None:
            raise CliError("few-shot evaluation needs at least one narrative per class")
        shots = (minor, severe)
    shown = {shot.caseno for shot in shots}
    eval_pairs = [p for p in pairs if p.caseno not in shown]
    if not eval_pairs:
        raise CliError("no narratives left to evaluate")
    client = _chat_client(args)
    predictions, golds = evaluation.run_evaluation(
        eval_pairs, kind, shots, client, temperature=args.temperature, jobs=args.jobs
    )
    report = evaluation.compute_metrics(predictions, golds)
    atomic_write_jsonl(
        args.out,
        [
            {
                "caseno": p.caseno,
                "raw_output": p.raw_output,
                "label": p.label.value if p.label else None,
                "parse_status": p.parse_status.value,
            }
            for p in predictions
        ],
    )
    if args.metrics_out:
        atomic_write_json(
            args.metrics_out,
            {
                "macro_f1": report.macro_f1,
                "accuracy": report.accuracy,
                "macro_recall": report.macro_recall,
                "macro_precision": report.macro_precision,
                "n_failed_parses": report.n_failed_parses,
                "confusion": {
                    f"{g.value}->{p.value}": report.confusion[(g, p)]
                    for g in Severity
                    for p in Severity
                },
                "formatted": report.format(),
            },
        )
    _emit(
        {
            "cases": len(predictions),
            "accuracy": round(report.accuracy, 4),
            "macro_f1": round(report.macro_f1, 4),
            "failed_parses": report.n_failed_parses,
            "out": str(args.out),
        }
    )
    return 0


def cmd_build_sft(args: argparse.Namespace) -> int:
    from . import evaluation
    from .records import read_pairs

    pairs = read_pairs(args.narratives)
    records = evaluation.build_sft_dataset(pairs)
    atomic_write_jsonl(args.out, [evaluation.sft_record_to_dict(r) for r in records])
    _emit({"records": len(records), "out": str(args.out)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config file; explicit flags override it")

    parser = argparse.ArgumentParser(prog="crashlens", description="Crash narrative pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="join the four CSV tables into cases.jsonl")
    p.add_argument("--crashes", required=True)
    p.add_argument("--segments", required=True)
    p.add_argument("--vehicles", required=True)
    p.add_argument("--persons", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("narrate", parents=[common], help="render cases into narrative pairs")
    p.add_argument("--cases", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_narrate)

    p = sub.add_parser("augment", parents=[common], help="constrained narrative rewrites")
    p.add_argument("--narratives", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train-ref", parents=[common], help="train the reference classifier")
    p.add_argument("--narratives", required=True)
    p.add_argument("--out-model", dest="out_model", required=True)
    p.add_argument("--out-tokenizer", dest="out_tokenizer", required=True)
    p.set_defaults(func=cmd_train_ref)

    p = sub.add_parser("attribute", parents=[common], help="token attribution for model decisions")
    p.add_argument("--narratives", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=["occlusion", "taylor"], required=True)
    p.add_argument("--caseno", default=None, help="restrict to one case")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("analyze", parents=[common], help="factor summaries, grouping, co-occurrence")
    p.add_argument("--attributions", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--graph-out", dest="graph_out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export", parents=[common], help="render sankey or heatmap HTML")
    p.add_argument("--kind", choices=["sankey", "heatmap"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--graph", default=None)
    p.add_argument("--attributions", default=None)
    p.add_argument("--caseno", default=None)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("eval", parents=[common], help="prompted severity classification")
    p.add_argument("--narratives", required=True)
    p.add_argument("--strategy", choices=[k.value for k in StrategyKind], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics-out", dest="metrics_out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("build-sft", parents=[common], help="masked fine-tuning dataset")
    p.add_argument("--narratives", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_sft)

    # each command's own settings follow its other flags
    for name, p in sub.choices.items():
        _add_settings(p, name)
    return parser


def _handled() -> tuple[type[BaseException], ...]:
    """The errors that end as one JSON line on stderr. A YAML error can only
    have been raised once `yaml` is loaded, so it is looked up only then."""
    yaml = sys.modules.get("yaml")
    return (OSError, ValueError, KeyError, CrashlensError) + ((yaml.YAMLError,) if yaml else ())


# the variables a BLAS library reads its thread count from when it loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: Optional[Sequence[str]] = None) -> int:
    # TinyLM's products are at most d x V, too small for a second BLAS thread
    # to pay for its wake-ups: it doubles the CPU time and adds wall time. So
    # a CLI process runs BLAS on one thread, unless the environment names a
    # count or numpy (and with it BLAS) was loaded before this call
    if "numpy" not in sys.modules and not any(var in os.environ for var in _BLAS_THREAD_VARS):
        os.environ["OMP_NUM_THREADS"] = "1"
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a flag wins over the config file, which wins over the default
        for key, value in load_config(args.config).items():
            if getattr(args, key, None) is None:
                setattr(args, key, value)
        return args.func(args)
    except _handled() as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}, ensure_ascii=False),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
