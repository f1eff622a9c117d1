"""Output checks for the artifacts of one chain.

Every check recomputes what an artifact must hold from the chain's inputs, or
tests a property the method must have. None compares against a stored copy
of earlier output, so the model, the narratives and the scores are free to
change as long as they stay correct. A check raises CheckFailed naming
itself; `run_all` runs every check that applies to the chain.
"""

from __future__ import annotations

import csv
import html
import json
import math
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import fakechat

BOS_ID = 0
TOP_K = 5  # the CLI's default --top-k
OCCLUSION_SAMPLE = 6
STRATEGIES = ("zs", "zs-cot", "fs")
ARTIFACTS = (
    "cases.jsonl",
    "narratives.jsonl",
    "augmented.jsonl",
    "model.json",
    "tokenizer.json",
    "attr_occlusion.jsonl",
    "attr_taylor.jsonl",
    "factors.jsonl",
    "graph.json",
    "sankey.html",
    "heatmap.html",
    "sft.jsonl",
    *(f"pred_{s}.jsonl" for s in STRATEGIES),
    *(f"metrics_{s}.json" for s in STRATEGIES),
)

_NULLS = {"", "nan", "unknown", "n/a"}
_NULL_MARKER_RE = re.compile(r"\b(nan|unknown|None)\b|\bn/a\b", re.IGNORECASE)
# label strings and the outcome sentence's phrases; none may reach an input text
_LABEL_STRINGS = (
    "noapparentorminor",
    "seriousorfatal",
    "no apparent or minor injur",
    "serious injur",
    "fatal",
)
_GOLD_PHRASE = {
    "NoApparentOrMinor": fakechat.MINOR_PHRASE,
    "SeriousOrFatal": fakechat.SEVERE_PHRASE,
}
_CLASSES = tuple(_GOLD_PHRASE)


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"check {check!r} failed: {detail}")


@dataclass
class Context:
    """What a chain was run on."""

    corpus: Path
    seed: int
    offline: bool
    heatmap_caseno: str
    url: str = ""


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_artifacts(chain_dir: Path) -> dict[str, object]:
    """Every artifact of a chain, parsed, plus train-ref's summary line."""
    art: dict[str, object] = {}
    for name in ARTIFACTS:
        path = chain_dir / name
        if name.endswith(".jsonl"):
            art[name] = read_jsonl(path)
        elif name.endswith(".json"):
            art[name] = json.loads(path.read_text(encoding="utf-8"))
        else:
            art[name] = path.read_text(encoding="utf-8")
    art["train_summary"] = json.loads(
        (chain_dir / "train-ref.stdout").read_text(encoding="utf-8").strip().splitlines()[-1]
    )
    art["chain_dir"] = chain_dir
    return art


def _require(ok: bool, check: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(check, detail)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _opt_int(raw: str) -> Optional[int]:
    return None if raw.strip().lower() in _NULLS else int(raw)


def _gold(ctx: Context) -> dict[str, str]:
    return {row["CASENO"].strip(): row["SEVERITY"].strip() for row in read_csv(ctx.corpus / "crashes.csv")}


def check_join(art: dict, ctx: Context) -> None:
    """cases.jsonl equals a nested-loop join of the four CSV tables."""
    crashes = read_csv(ctx.corpus / "crashes.csv")
    segments = read_csv(ctx.corpus / "segments.csv")
    vehicles = read_csv(ctx.corpus / "vehicles.csv")
    persons = read_csv(ctx.corpus / "persons.csv")
    expected = []
    for crash in crashes:
        caseno = crash["CASENO"].strip()
        route, milepost = crash["ROUTE_ID"].strip(), float(crash["MILEPOST"])
        units = []
        for veh in sorted(
            (v for v in vehicles if v["CASENO"].strip() == caseno), key=lambda v: int(v["UNIT_ID"])
        ):
            uid = int(veh["UNIT_ID"])
            people = [
                (p["ROLE"].strip(), _opt_int(p["AGE"]), p["SEX"].strip(), p["SOBRIETY"].strip())
                for p in persons
                if p["CASENO"].strip() == caseno and int(p["UNIT_ID"]) == uid
            ]
            units.append((uid, veh["MAKE"].strip(), veh["MODEL"].strip(), people))
        matches = [
            s
            for s in segments
            if s["ROUTE_ID"].strip() == route
            and float(s["FROM_MEASURE"]) <= milepost < float(s["TO_MEASURE"])
        ]
        seg = min(matches, key=lambda s: float(s["FROM_MEASURE"])) if matches else None
        seg_key = (float(seg["FROM_MEASURE"]), float(seg["TO_MEASURE"])) if seg else None
        expected.append((caseno, seg_key, units))
    got = []
    for case in art["cases.jsonl"]:
        seg = case["segment"]
        units = [
            (
                u["vehicle"]["unit_id"],
                u["vehicle"]["make"],
                u["vehicle"]["model"],
                [(p["role"], p["age"], p["sex"], p["sobriety"]) for p in u["persons"]],
            )
            for u in case["units"]
        ]
        seg_key = (seg["from_measure"], seg["to_measure"]) if seg else None
        got.append((case["crash"]["caseno"], seg_key, units))
    _require(len(got) == len(expected), "join", f"{len(got)} cases, oracle has {len(expected)}")
    for g, e in zip(got, expected):
        _require(g == e, "join", f"case {e[0]}: got {g}, oracle {e}")


def check_narratives(art: dict, ctx: Context) -> None:
    """One leak-free narrative per case that voices its county, route and date."""
    crashes = read_csv(ctx.corpus / "crashes.csv")
    narratives = art["narratives.jsonl"]
    _require(len(narratives) == len(crashes), "narratives", f"{len(narratives)} for {len(crashes)} cases")
    for crash, rec in zip(crashes, narratives):
        caseno, text = crash["CASENO"].strip(), rec["descriptive"]
        _require(rec["caseno"] == caseno, "narratives", f"{rec['caseno']} in place of {caseno}")
        _require(rec["label"] == crash["SEVERITY"].strip(), "narratives", f"{caseno}: label {rec['label']}")
        marker = _NULL_MARKER_RE.search(text)
        _require(marker is None, "narratives", f"{caseno}: null marker {marker and marker.group(0)!r}")
        folded = text.lower()
        leaks = [s for s in _LABEL_STRINGS if s in folded]
        _require(not leaks, "narratives", f"{caseno}: label phrase {leaks}")
        y, mo, d = (int(x) for x in crash["DATE"].split("-"))
        month = ("January February March April May June July August September October "
                 "November December").split()[mo - 1]
        for fact in (crash["COUNTY"].strip(), crash["ROUTE_ID"].strip(), f"{month} {d}, {y}"):
            _require(fact in text, "narratives", f"{caseno}: {fact!r} not voiced")


def check_augment_offline(art: dict, ctx: Context) -> None:
    """The offline stub echoes, so every rewrite must equal its original."""
    narratives, records = art["narratives.jsonl"], art["augmented.jsonl"]
    _require(len(records) == len(narratives), "augment-offline", "record count differs")
    for nar, rec in zip(narratives, records):
        ok = (
            rec["caseno"] == nar["caseno"]
            and rec["original"] == nar["descriptive"]
            and rec["augmented"] == rec["original"]
            and rec["passed"] is True
        )
        _require(ok, "augment-offline", f"{nar['caseno']}: rewrite differs or failed")


def check_augment_endpoint(art: dict, ctx: Context) -> None:
    """Exactly the records the server broke fall back, byte-identical."""
    narratives, records = art["narratives.jsonl"], art["augmented.jsonl"]
    _require(len(records) == len(narratives), "augment-endpoint", "record count differs")
    broken = 0
    for nar, rec in zip(narratives, records):
        was_broken = fakechat.breaks_augment(ctx.seed, nar["descriptive"])
        broken += was_broken
        ok = (
            rec["caseno"] == nar["caseno"]
            and rec["original"] == nar["descriptive"]
            and rec["augmented"] == nar["descriptive"]
            and rec["passed"] is (not was_broken)
            and bool(rec["failures"]) is was_broken
        )
        _require(ok, "augment-endpoint", f"{nar['caseno']}: broken={was_broken}, got {rec}")
    _require(broken > 0, "augment-endpoint", "the server broke no record, so no fallback was tested")


def _model_arrays(art: dict):
    doc = art["model.json"]
    return tuple(
        np.asarray(doc[k], dtype=np.float64)
        for k in ("embeddings", "position_weights", "output_weights", "output_bias")
    )


def _encode(art: dict, text: str) -> list[int]:
    vocab = {tok: i for i, tok in enumerate(art["tokenizer.json"]["tokens"])}
    unk = vocab["<unk>"]
    return [BOS_ID] + [vocab.get(w, unk) for w in text.split()]


def _label_ids(art: dict) -> dict[str, int]:
    tokens = art["tokenizer.json"]["tokens"]
    return {c: tokens.index(f"<label:{c}>") for c in _CLASSES}


def _model(art: dict):
    from crashlens import refmodel

    emb, pos, out_w, out_b = _model_arrays(art)
    return refmodel.TinyLM(emb, pos, out_w, out_b)


def _predict(art: dict, model, text: str) -> str:
    from crashlens import refmodel

    context = _encode(art, text)
    probs = {c: refmodel.prob(model, context, tid) for c, tid in _label_ids(art).items()}
    minor, severe = _CLASSES
    return minor if probs[minor] >= probs[severe] else severe


def check_model(art: dict, ctx: Context) -> None:
    """The checkpoint loads and fits: finite NLL below ln(vocab), and training
    accuracy above the majority-class rate."""
    emb, pos, out_w, out_b = _model_arrays(art)
    vocab = len(art["tokenizer.json"]["tokens"])
    shapes_ok = (
        emb.shape[0] == vocab and out_w.shape == (emb.shape[1], vocab) and out_b.shape == (vocab,)
    )
    _require(shapes_ok, "model", f"shapes {emb.shape} {out_w.shape} {out_b.shape} for vocab {vocab}")
    from crashlens import refmodel

    refmodel.TinyLM.load(art["chain_dir"] / "model.json")
    nll = art["train_summary"]["final_nll"]
    ok = isinstance(nll, (int, float)) and math.isfinite(nll) and nll < math.log(vocab)
    _require(ok, "model", f"final_nll {nll} not finite or not below ln({vocab})")
    model = _model(art)
    narratives = art["narratives.jsonl"]
    correct = sum(_predict(art, model, r["descriptive"]) == r["label"] for r in narratives)
    majority = max(Counter(r["label"] for r in narratives).values())
    _require(correct > majority, "model", f"{correct}/{len(narratives)} right, majority class {majority}")


def _check_scores(records: list[dict], art: dict, check: str) -> int:
    """Checks one method's records; returns how many columns peak at L + 1."""
    over = 0
    by_case = {r["caseno"]: r for r in art["narratives.jsonl"]}
    label_ids = _label_ids(art)
    model = _model(art)
    _require(len(records) == len(by_case), check, f"{len(records)} records for {len(by_case)} cases")
    for rec in records:
        L, b = rec["L"], rec["b"]
        text = by_case[rec["caseno"]]["descriptive"]
        predicted = label_ids[_predict(art, model, text)]
        ids = _encode(art, text) + [predicted]
        _require([t["id"] for t in rec["tokens"]] == ids, check, f"{rec['caseno']}: token ids differ")
        _require(
            [t["id"] for t in rec["output_tokens"]] == [predicted],
            check,
            f"{rec['caseno']}: output token is not the more likely label",
        )
        columns: dict[int, list[int]] = {}
        for n, m, s in rec["score_matrix"]:
            ok = type(s) is int and b < s <= L + 1 and 0 <= n < len(ids) and m == 0
            _require(ok, check, f"{rec['caseno']}: entry {[n, m, s]} outside (b, L]")
            columns.setdefault(m, []).append(s)
        for m, col in columns.items():
            top = max(col)
            _require(top in (L, L + 1), check, f"{rec['caseno']}: column {m} tops out at {top}, not L={L}")
            # Known fault: ceil(L * v / colmax) can round the column's own
            # maximum up to L + 1; such columns are counted so it stays visible.
            over += top == L + 1
    return over


def check_scores(art: dict, ctx: Context) -> None:
    """Scores are integers in {0} u (b, L], every nonzero column reaches L,
    and the scored label is the one the model prefers."""
    over = sum(_check_scores(art[f"attr_{m}.jsonl"], art, f"scores-{m}") for m in ("occlusion", "taylor"))
    if over:
        print(f"known fault: {over} attribution columns peak at L + 1", file=sys.stderr)


def check_occlusion(art: dict, ctx: Context) -> None:
    """Recompute occlusion with refmodel.prob, one deletion at a time, on a
    seeded sample of cases; scores agree except within 1e-9 of a rounding
    boundary of ceil(L * v / colmax), where either side of it may be stored."""
    from crashlens import refmodel

    model = _model(art)
    records = art["attr_occlusion.jsonl"]
    by_case = {r["caseno"]: r for r in art["narratives.jsonl"]}
    for rec in random.Random(ctx.seed).sample(records, min(OCCLUSION_SAMPLE, len(records))):
        context = _encode(art, by_case[rec["caseno"]]["descriptive"])
        target = rec["output_tokens"][0]["id"]
        base = refmodel.prob(model, context, target)
        raw = [base - refmodel.prob(model, context[:q] + context[q + 1 :], target) for q in range(len(context))]
        colmax = max(max(raw), 0.0)  # the label row itself scores 0
        stored = {n: s for n, _, s in rec["score_matrix"]}
        b = rec["b"]
        for q, v in enumerate(raw):
            if colmax <= 0:
                allowed = {0}
            else:
                x = rec["L"] * v / colmax
                ceilings = {math.ceil(x)}
                if abs(x - round(x)) <= 1e-9:
                    ceilings |= {round(x), round(x) + 1}
                allowed = {c if c > b else 0 for c in ceilings}
            got = stored.get(q, 0)
            _require(got in allowed, "occlusion", f"{rec['caseno']} token {q}: stored {got}, recomputed {sorted(allowed)}")


def _brute_pairs(factors: list[dict]) -> Counter:
    pairs: Counter = Counter()
    for rec in factors:
        items = [(aspect, name) for aspect, names in rec["grouped_factors"].items() for name in set(names)]
        for x in items:
            for y in items:
                if x[0] != y[0] and x < y:
                    pairs[(x, y)] += 1
    return pairs


def check_graph(art: dict, ctx: Context) -> None:
    """graph.json equals a brute-force cross-aspect pair count over factors.jsonl,
    and the Sankey page draws every node."""
    pairs = _brute_pairs(art["factors.jsonl"])
    graph = art["graph.json"]
    nodes = [(n["aspect"], n["name"]) for n in graph["nodes"]]
    _require(len(set(nodes)) == len(nodes), "graph", "duplicate node")
    got: Counter = Counter()
    for link in graph["links"]:
        a, b = sorted((nodes[link["source"]], nodes[link["target"]]))
        got[(a, b)] += link["count"]
    _require(got == pairs, "graph", f"links {dict(got)} != brute force {dict(pairs)}")
    totals: Counter = Counter()
    for (a, b), count in pairs.items():
        totals[a] += count
        totals[b] += count
    node_counts = {(n["aspect"], n["name"]): n["count"] for n in graph["nodes"]}
    _require(node_counts == dict(totals), "graph", "node counts differ from brute force")
    page = art["sankey.html"]
    _require(page.count("<rect ") == len(nodes), "graph", "sankey page does not draw every node")
    missing = [n for _, n in nodes if html.escape(n) not in page]
    _require(not missing, "graph", f"sankey page lacks {missing}")


def check_factors_endpoint(art: dict, ctx: Context) -> None:
    """Every summary came from the server, and the top factors are the
    server's terms re-ranked by score, then by position."""
    by_case = {r["caseno"]: r for r in art["attr_occlusion.jsonl"]}
    for rec in art["factors.jsonl"]:
        _require(rec["source"] == "llm", "factors-endpoint", f"{rec['caseno']}: source {rec['source']}")
        terms = fakechat.factor_terms(ctx.seed, by_case[rec["caseno"]]["annotated"])
        for aspect, names in rec["top_factors"].items():
            ranked = sorted(
                ((t, s, i) for i, (t, s) in enumerate(terms[aspect]) if s > 0),
                key=lambda item: (-item[1], item[2]),
            )
            expect = [t for t, _, _ in ranked[:TOP_K]]
            _require(names == expect, "factors-endpoint", f"{rec['caseno']} {aspect}: {names} != {expect}")


def check_heatmap(art: dict, ctx: Context) -> None:
    """The heatmap text with its tags stripped equals the narrative."""
    page = art["heatmap.html"]
    body = re.search(r"<p>\n(.*)\n</p>", page, re.DOTALL)
    _require(body is not None, "heatmap", "no paragraph")
    text = html.unescape(re.sub(r"<[^>]*>", "", body.group(1)))
    narrative = next(r["descriptive"] for r in art["narratives.jsonl"] if r["caseno"] == ctx.heatmap_caseno)
    _require(text == narrative, "heatmap", "stripped text differs from the narrative")
    _require(f"Case {ctx.heatmap_caseno}" in page, "heatmap", "case number missing")


def _metrics(preds: list[dict], gold: dict[str, str]) -> tuple[float, float]:
    """Accuracy and macro-F1; an unparsed answer is a miss for its gold class."""
    confusion = Counter((gold[p["caseno"]], p["label"]) for p in preds)
    f1s = []
    for c in _CLASSES:
        tp = confusion[(c, c)]
        predicted = sum(n for (g, p), n in confusion.items() if p == c)
        support = sum(n for (g, p), n in confusion.items() if g == c)
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    accuracy = sum(confusion[(c, c)] for c in _CLASSES) / len(preds)
    return accuracy, sum(f1s) / len(f1s)


def check_eval(art: dict, ctx: Context) -> None:
    """Each strategy's accuracy and macro-F1 equal a recomputation from its
    predictions and the gold labels of the crash table."""
    gold = _gold(ctx)
    narratives = art["narratives.jsonl"]
    exemplars = {
        next(r["caseno"] for r in narratives if r["label"] == c) for c in _CLASSES
    }
    for strategy in STRATEGIES:
        preds = art[f"pred_{strategy}.jsonl"]
        expect = [r["caseno"] for r in narratives if strategy != "fs" or r["caseno"] not in exemplars]
        _require([p["caseno"] for p in preds] == expect, "eval", f"{strategy}: predicted cases differ")
        for p in preds:
            ok = (p["label"] is None) == (p["parse_status"] == "failed")
            _require(ok, "eval", f"{strategy} {p['caseno']}: label and parse status disagree")
        accuracy, macro_f1 = _metrics(preds, gold)
        doc = art[f"metrics_{strategy}.json"]
        ok = abs(doc["accuracy"] - accuracy) <= 1e-12 and abs(doc["macro_f1"] - macro_f1) <= 1e-12
        _require(ok, "eval", f"{strategy}: reported {doc['accuracy']}/{doc['macro_f1']}, recomputed {accuracy}/{macro_f1}")


def check_eval_endpoint(art: dict, ctx: Context) -> None:
    """Every prediction is the label the server sent, parsed exactly."""
    by_case = {r["caseno"]: r["descriptive"] for r in art["narratives.jsonl"]}
    phrase_to_label = {v: k for k, v in _GOLD_PHRASE.items()}
    for strategy in STRATEGIES:
        for p in art[f"pred_{strategy}.jsonl"]:
            sent = phrase_to_label[fakechat.eval_label(ctx.seed, by_case[p["caseno"]])]
            ok = p["label"] == sent and p["parse_status"] == "exact"
            _require(ok, "eval-endpoint", f"{strategy} {p['caseno']}: {p['label']}/{p['parse_status']}, server sent {sent}")


def check_sft(art: dict, ctx: Context) -> None:
    """No record leaks a label into its prompt, and every mask boundary splits
    the rendered record exactly before the response."""
    gold = _gold(ctx)
    narratives, records = art["narratives.jsonl"], art["sft.jsonl"]
    _require(len(records) == len(narratives), "sft", "record count differs")
    for nar, rec in zip(narratives, records):
        caseno = nar["caseno"]
        _require(rec["caseno"] == caseno and rec["user"].startswith(nar["descriptive"]), "sft", f"{caseno}: wrong narrative")
        leaks = [s for s in _LABEL_STRINGS if s in rec["user"].lower()]
        _require(not leaks, "sft", f"{caseno}: label {leaks} in the user turn")
        _require(rec["response"] == _GOLD_PHRASE[gold[caseno]], "sft", f"{caseno}: response {rec['response']!r}")
        rendered = f"{rec['system']}\n{rec['user']}\n{rec['response']}"
        boundary = rec["mask_boundary"]
        ok = boundary == len(rendered) - len(rec["response"]) and rendered[boundary:] == rec["response"]
        _require(ok, "sft", f"{caseno}: mask boundary {boundary} is not where the response starts")


def check_determinism(chain_dirs: list[Path]) -> None:
    """Every chain of a run wrote byte-identical artifacts."""
    first = chain_dirs[0]
    for other in chain_dirs[1:]:
        for name in ARTIFACTS:
            same = (first / name).read_bytes() == (other / name).read_bytes()
            _require(same, "determinism", f"{name} differs between {first.name} and {other.name}")


def checks_for(ctx: Context) -> list[tuple[str, Callable[[dict, Context], None]]]:
    checks = [
        ("join", check_join),
        ("narratives", check_narratives),
        ("augment-offline" if ctx.offline else "augment-endpoint",
         check_augment_offline if ctx.offline else check_augment_endpoint),
        ("model", check_model),
        ("scores", check_scores),
        ("occlusion", check_occlusion),
        ("graph", check_graph),
        ("heatmap", check_heatmap),
        ("eval", check_eval),
        ("sft", check_sft),
    ]
    if not ctx.offline:
        checks += [("factors-endpoint", check_factors_endpoint), ("eval-endpoint", check_eval_endpoint)]
    return checks


def run_all(chain_dir: Path, ctx: Context) -> list[str]:
    """Run every applicable check on one chain; returns the names that passed."""
    art = load_artifacts(chain_dir)
    names = []
    for name, check in checks_for(ctx):
        check(art, ctx)
        names.append(name)
    return names
