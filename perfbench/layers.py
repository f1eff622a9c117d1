"""Per-layer tracing of an in-process chain, done from outside the program.

`Tracer.install` replaces the public functions of each crashlens module with
wrappers that record a span (name, start, end, parent, stage) per call and
update counters at the same boundary; `Tracer.restore` puts the originals
back. Nothing under src/ is changed. Spans are kept in memory and written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

PER_LAYER = (
    "import.total_s", "import.numpy_s", "import.requests_s", "import.jsonschema_s", "import.yaml_s",
    "cli.self_s",
    "schema.load_tables_s", "schema.integrate_s", "schema.cases_write_s", "schema.cases_read_s",
    "narrator.normalize_s", "narrator.render_s", "narrator.tokens_per_case",
    "io.jsonl_write_s", "io.jsonl_read_s", "io.bytes_written",
    "augment.batch_s", "augment.verify_s", "augment.fallbacks",
    "chat.requests", "chat.wait_s", "chat.latency_p50_ms", "chat.latency_p90_ms",
    "refmodel.tokenizer_s", "refmodel.encode_s", "refmodel.train_s", "refmodel.epoch_s",
    "refmodel.positions_trained", "refmodel.final_nll", "refmodel.save_s", "refmodel.load_s",
    "refmodel.classify_ms_per_case",
    "attribution.occlusion_ms_per_case", "attribution.taylor_ms_per_case",
    "attribution.variants_scored", "attribution.useful_variant_ratio",
    "attribution.normalize_s", "attribution.aggregate_s", "attribution.scored_token_share",
    "analytics.rule_factors_s", "analytics.summarize_s", "analytics.repairs",
    "analytics.cooccurrence_s", "analytics.export_sankey_s", "analytics.export_heatmap_s",
    "analytics.nodes", "analytics.aspects_reached",
    "evaluation.build_prompt_s", "evaluation.run_s", "evaluation.parse_exact",
    "evaluation.parse_fuzzy", "evaluation.parse_failed", "evaluation.sft_s",
    "chain.cpu_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_ms_per_case"):
        return "ms/case"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name == "io.bytes_written":
        return "bytes"
    if name == "narrator.tokens_per_case":
        return "tokens/case"
    if name == "refmodel.final_nll":
        return "nats"
    return "count"


class TimedClient:
    """Wraps the chat client a stage gets, timing every request."""

    def __init__(self, client: Any, tracer: "Tracer"):
        self._client = client
        self._tracer = tracer

    def send(self, system: str, user: str, temperature: float) -> str:
        with self._tracer.span("chat.send") as span:
            reply = self._client.send(system, user, temperature)
        self._tracer.add("chat.requests", 1)
        self._tracer.latencies.append(span["end"] - span["start"])
        return reply


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.latencies: list[float] = []
        self.epoch_ends: list[float] = []
        self.stage = ""
        self._t0 = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stage_span: Optional[int] = None
        self._patches: list[tuple[object, str, object]] = []

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    # --- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """`after(result, arguments)` sees the call's arguments by parameter name."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, signature.bind(*args, **kwargs).arguments)
            return result

        return wrapper

    def patch_function(self, module: object, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Wrap a module-level function in every crashlens module that binds it."""
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("crashlens"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def patch_method(self, cls: type, attr: str, name: str, after: Optional[Callable] = None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new: object = classmethod(self._wrap(name, raw.__func__, after))
        else:
            new = self._wrap(name, raw, after)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        from crashlens import analytics, attribution, augment, cli, evaluation, narrator, refmodel, schema, util

        add = self.add
        pf, pm = self.patch_function, self.patch_method
        pf(cli, "_read_jsonl", "cli.read_jsonl")
        make_client = cli._chat_client
        self._patches.append((cli, "_chat_client", make_client))
        cli._chat_client = lambda get: TimedClient(make_client(get), self)
        pf(util, "atomic_write_jsonl", "util.atomic_write_jsonl")
        pf(util, "atomic_write_text", "util.atomic_write_text",
           after=lambda _, args: add("io.bytes_written", len(args["text"].encode("utf-8"))))
        pf(schema, "load_tables", "schema.load_tables")
        pf(schema, "integrate", "schema.integrate")
        pf(schema, "case_to_dict", "schema.case_to_dict")
        pf(schema, "deserialize_cases", "schema.deserialize_cases")
        pf(narrator, "load_lexicon", "narrator.load_lexicon")
        pf(narrator, "load_templates", "narrator.load_templates")
        pf(narrator, "normalize", "narrator.normalize")
        pf(narrator, "render", "narrator.render",
           after=lambda pair, _: add("narrator.tokens", len(pair.descriptive.split())))
        pf(narrator, "read_pairs", "narrator.read_pairs")
        pf(augment, "augment_batch", "augment.augment_batch",
           after=lambda res, _: add("augment.fallbacks", sum(not rep.passed for _, rep in res)))
        pf(augment, "verify_preservation", "augment.verify_preservation")
        pm(refmodel.Tokenizer, "from_texts", "refmodel.Tokenizer.from_texts")
        pm(refmodel.Tokenizer, "encode_with_spans", "refmodel.Tokenizer.encode_with_spans")
        pm(refmodel.Tokenizer, "save", "refmodel.Tokenizer.save")
        pm(refmodel.Tokenizer, "load", "refmodel.Tokenizer.load")
        pm(refmodel.TinyLM, "save", "refmodel.TinyLM.save")
        pm(refmodel.TinyLM, "load", "refmodel.TinyLM.load")
        pm(refmodel.TinyLM, "batch_probs", "refmodel.TinyLM.batch_probs", after=self._count_variants)
        pf(refmodel, "train", "refmodel.train", after=self._count_training)
        pf(refmodel, "_corpus_nll", "refmodel.corpus_nll",
           after=lambda *_: self.epoch_ends.append(time.perf_counter()))
        pf(refmodel, "classify", "refmodel.classify")
        pf(attribution, "occlusion_importance", "attribution.occlusion_importance")
        pf(attribution, "taylor_importance", "attribution.taylor_importance")
        pf(attribution, "normalize_scores", "attribution.normalize_scores", after=self._count_scored)
        pf(attribution, "aggregate_to_words", "attribution.aggregate_to_words")
        pf(attribution, "annotate_narrative", "attribution.annotate_narrative")
        pf(attribution, "attribution_record", "attribution.attribution_record")
        pf(analytics, "load_grouping_rules", "analytics.load_grouping_rules")
        pf(analytics, "load_category_lexicon", "analytics.load_category_lexicon")
        pf(analytics, "rule_based_factors", "analytics.rule_based_factors")
        pf(analytics, "summarize_factors", "analytics.summarize_factors")
        pf(analytics, "extract_top_factors", "analytics.extract_top_factors")
        pf(analytics, "semantic_group", "analytics.semantic_group")
        pf(analytics, "cooccurrence", "analytics.cooccurrence", after=self._count_graph)
        pf(analytics, "export_sankey", "analytics.export_sankey")
        pf(analytics, "export_heatmap", "analytics.export_heatmap")
        pf(evaluation, "build_prompt", "evaluation.build_prompt")
        pf(evaluation, "run_evaluation", "evaluation.run_evaluation", after=self._count_parses)
        pf(evaluation, "compute_metrics", "evaluation.compute_metrics")
        pf(evaluation, "build_sft_dataset", "evaluation.build_sft_dataset")

    # --- counters taken at call boundaries --------------------------------

    def _count_variants(self, _, args: dict) -> None:
        w, contexts = args["self"].window, args["contexts"]
        distinct = {tuple(c[-w:]) if len(c) else (0,) for c in contexts}
        self.add("attribution.variants_scored", len(contexts))
        self.add("attribution.distinct_windows", len(distinct))

    def _count_training(self, trained, args: dict) -> None:
        positions = sum(sum(ex.loss_mask) for ex in args["examples"])
        self.add("refmodel.positions_trained", positions * args["config"].epochs)
        self.counters["refmodel.final_nll"] = trained.loss_history[-1]

    def _count_scored(self, scores, _) -> None:
        self.add("attribution.rows", scores.scores.shape[0])
        self.add("attribution.scored_rows", int((scores.scores.max(axis=1) > 0).sum()))

    def _count_graph(self, graph, _) -> None:
        self.counters["analytics.nodes"] = len(graph.nodes)
        self.counters["analytics.aspects_reached"] = len({n.aspect for n in graph.nodes})

    def _count_parses(self, result, _) -> None:
        for pred in result[0]:
            self.add(f"evaluation.parse_{pred.parse_status.value}", 1)

    # --- results ----------------------------------------------------------

    def total(self, *names: str, stage: Optional[str] = None) -> float:
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] in names and (stage is None or s["stage"] == stage)
        )

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def repairs(self) -> int:
        """Chat requests a factor summary made beyond its first one."""
        summaries = {s["id"] for s in self.spans if s["name"] == "analytics.summarize_factors"}
        sends = sum(1 for s in self.spans if s["name"] == "chat.send" and s["parent"] in summaries)
        return sends - len(summaries)

    def stage_self_time(self) -> float:
        """Summed duration of the stage spans minus what their children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = 0.0
        for s in self.spans:
            if s["parent"] is not None:
                continue
            covered, cursor = 0.0, s["start"]
            for start, end in sorted(children[s["id"]]):
                start, end = max(start, cursor), min(end, s["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            out += (s["end"] - s["start"]) - covered
        return out

    def metrics(self) -> dict[str, float]:
        t, c = self.total, self.counters

        def per_case_ms(name: str) -> float:
            n = self.calls(name)
            return 1000.0 * t(name) / n if n else 0.0

        train = [s for s in self.spans if s["name"] == "refmodel.train"]
        epochs = []
        if train:
            marks = [train[-1]["start"]] + [e for e in self.epoch_ends if e >= train[-1]["start"]]
            epochs = [b - a for a, b in zip(marks, marks[1:])]
        lat = sorted(self.latencies)
        renders = self.calls("narrator.render")
        return {
            "cli.self_s": self.stage_self_time(),
            "schema.load_tables_s": t("schema.load_tables"),
            "schema.integrate_s": t("schema.integrate"),
            "schema.cases_write_s": t("schema.case_to_dict") + t("util.atomic_write_jsonl", stage="ingest"),
            "schema.cases_read_s": t("schema.deserialize_cases"),
            "narrator.normalize_s": t("narrator.normalize"),
            "narrator.render_s": t("narrator.render"),
            "narrator.tokens_per_case": c["narrator.tokens"] / renders if renders else 0.0,
            "io.jsonl_write_s": t("util.atomic_write_jsonl"),
            "io.jsonl_read_s": t("narrator.read_pairs", "cli.read_jsonl", "schema.deserialize_cases"),
            "io.bytes_written": c["io.bytes_written"],
            "augment.batch_s": t("augment.augment_batch"),
            "augment.verify_s": t("augment.verify_preservation"),
            "augment.fallbacks": c["augment.fallbacks"],
            "chat.requests": c["chat.requests"],
            "chat.wait_s": sum(lat),
            "chat.latency_p50_ms": 1000.0 * statistics.median(lat) if lat else 0.0,
            # a p99 would need 1000 samples to have ten beyond it; a chain makes a few hundred
            "chat.latency_p90_ms": 1000.0 * statistics.quantiles(lat, n=10)[-1] if len(lat) >= 2 else 0.0,
            "refmodel.tokenizer_s": t("refmodel.Tokenizer.from_texts"),
            "refmodel.encode_s": t("refmodel.Tokenizer.encode_with_spans"),
            "refmodel.train_s": t("refmodel.train"),
            "refmodel.epoch_s": statistics.median(epochs) if epochs else 0.0,
            "refmodel.positions_trained": c["refmodel.positions_trained"],
            "refmodel.final_nll": c["refmodel.final_nll"],
            "refmodel.save_s": t("refmodel.TinyLM.save", "refmodel.Tokenizer.save"),
            "refmodel.load_s": t("refmodel.TinyLM.load", "refmodel.Tokenizer.load"),
            "refmodel.classify_ms_per_case": per_case_ms("refmodel.classify"),
            "attribution.occlusion_ms_per_case": per_case_ms("attribution.occlusion_importance"),
            "attribution.taylor_ms_per_case": per_case_ms("attribution.taylor_importance"),
            "attribution.variants_scored": c["attribution.variants_scored"],
            "attribution.useful_variant_ratio": (
                c["attribution.distinct_windows"] / c["attribution.variants_scored"]
                if c["attribution.variants_scored"] else 0.0
            ),
            "attribution.normalize_s": t("attribution.normalize_scores"),
            "attribution.aggregate_s": t("attribution.aggregate_to_words"),
            "attribution.scored_token_share": (
                c["attribution.scored_rows"] / c["attribution.rows"] if c["attribution.rows"] else 0.0
            ),
            "analytics.rule_factors_s": t("analytics.rule_based_factors"),
            "analytics.summarize_s": t("analytics.summarize_factors"),
            "analytics.repairs": self.repairs(),
            "analytics.cooccurrence_s": t("analytics.cooccurrence"),
            "analytics.export_sankey_s": t("analytics.export_sankey"),
            "analytics.export_heatmap_s": t("analytics.export_heatmap"),
            "analytics.nodes": c["analytics.nodes"],
            "analytics.aspects_reached": c["analytics.aspects_reached"],
            "evaluation.build_prompt_s": t("evaluation.build_prompt"),
            "evaluation.run_s": t("evaluation.run_evaluation"),
            "evaluation.parse_exact": c["evaluation.parse_exact"],
            "evaluation.parse_fuzzy": c["evaluation.parse_fuzzy"],
            "evaluation.parse_failed": c["evaluation.parse_failed"],
            "evaluation.sft_s": t("evaluation.build_sft_dataset"),
        }

    def dump(self) -> dict:
        return {
            "spans": [
                {k: s[k] for k in ("id", "name", "stage", "parent")}
                | {"start": s["start"] - self._t0, "end": s["end"] - self._t0}
                for s in self.spans
            ],
            "counters": dict(self.counters),
        }


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self) -> dict:
        tr = self.tracer
        stack = tr._stack()
        # a span opened on a worker thread hangs under the stage that started it
        parent = stack[-1] if stack else tr._stage_span
        with tr._lock:
            sid = len(tr.spans)
            self.record = {"id": sid, "name": self.name, "stage": tr.stage, "parent": parent,
                           "start": time.perf_counter(), "end": None}
            tr.spans.append(self.record)
        if self.name.startswith("cli.") and not stack:
            tr._stage_span = sid
        stack.append(sid)
        return self.record

    def __exit__(self, *exc: object) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer._stack().pop()
