"""Factor analytics over attributed narratives.

Scored words become five-category factor summaries (LLM-backed with a
deterministic rule-based fallback), get trimmed to top factors per aspect,
canonicalized by grouping rules, and counted into a cross-aspect
co-occurrence graph for Sankey export.
"""

from __future__ import annotations

import html
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .util import (
    ChatClient,
    CrashlensError,
    UnavailableError,
    WordAttribution,
    atomic_write_json,
    atomic_write_text,
    load_yaml_section,
    parse_annotated,
)


# aspect name -> (summary label, Sankey color), in Sankey column order; the
# names are the keys of category_lexicon.yaml, the LLM reply, factors.jsonl
# and graph.json
ASPECTS = {
    "environmental": ("environmental", "#4e79a7"),
    "vehicle_occupant": ("vehicle and occupant", "#f28e2b"),
    "behavioral": ("behavioral", "#e15759"),
    "infrastructure": ("infrastructure", "#76b7b2"),
    "unusual": ("unusual or standout", "#af7aa1"),
}

_ASPECT_ORDER = {aspect: i for i, aspect in enumerate(ASPECTS)}

FACTOR_PROMPT = (
    "You are a road safety analyst. You will receive a crash narrative in "
    "which each word is followed by its attribution score in brackets. "
    "Identify the high-scoring words relevant to each factor category and "
    "reply with only a JSON object of the form "
    '{"environmental": {"summary": str, "terms": [{"term": str, "score": number}]}, '
    '"vehicle_occupant": {...}, "behavioral": {...}, "infrastructure": {...}, '
    '"unusual": {...}}. Every category key must be present even when its '
    "term list is empty."
)

_REPAIR_PROMPT = (
    "Your previous reply could not be parsed. Respond again with only the "
    "JSON object in the exact shape requested, no prose and no code fences."
)


class AnalyticsError(CrashlensError):
    pass


class ValidationError(AnalyticsError):
    """A Sankey graph document that `validate_sankey` rejects."""


@dataclass(frozen=True)
class FactorTerm:
    term: str
    score: float
    position: int = 0  # earlier narrative position wins score ties


@dataclass
class CategorySummary:
    summary: str
    terms: list[FactorTerm] = field(default_factory=list)


@dataclass
class FactorSummary:
    caseno: str
    categories: dict[str, CategorySummary]
    source: str = "llm"
    repairs: int = 0  # repair requests the summary cost

    def __post_init__(self):
        for aspect in ASPECTS:
            if aspect not in self.categories:
                raise AnalyticsError(f"missing category {aspect!r}")
        for summary in self.categories.values():
            summary.terms = sorted(
                (t for t in summary.terms if t.score > 0),
                key=lambda t: (-t.score, t.position),
            )


@dataclass(frozen=True)
class GroupingRule:
    pattern: re.Pattern
    name: str


@dataclass(frozen=True)
class GroupingRules:
    rules: tuple[GroupingRule, ...]

    def canonical(self, factor: str) -> str:
        for rule in self.rules:
            if rule.pattern.search(factor):
                return rule.name
        return factor


@dataclass(frozen=True)
class FactorNode:
    name: str
    aspect: str
    count: int


@dataclass(frozen=True)
class FactorLink:
    source: int  # node indices
    target: int
    count: int


@dataclass
class CooccurrenceGraph:
    nodes: list[FactorNode]
    links: list[FactorLink]


def load_grouping_rules(path: Optional[str | Path] = None) -> GroupingRules:
    rules = []
    for i, entry in enumerate(load_yaml_section("grouping_rules.yaml", "rules", list, path)):
        try:
            pattern = re.compile(entry["match"], re.IGNORECASE)
        except (re.error, KeyError, TypeError) as exc:
            raise AnalyticsError(f"grouping rule {i} invalid: {exc}") from exc
        rules.append(GroupingRule(pattern=pattern, name=str(entry["name"])))
    grouping = GroupingRules(rules=tuple(rules))
    for rule in rules:
        # canonical names must be fixed points or grouping is not idempotent
        if grouping.canonical(rule.name) != rule.name:
            raise AnalyticsError(
                f"canonical name {rule.name!r} is itself regrouped; rules not idempotent"
            )
    return grouping


class CategoryLexicon:
    """Keyword lists per aspect, validated and compiled once.

    `category(folded)` gives a lowercased, punctuation-stripped term the
    first aspect, in declaration order, one of whose keywords it contains
    (a plain keyword as a substring, an "re:" keyword by regex search), or
    "unusual"; each distinct term is matched once. A key that is not an
    aspect name raises AnalyticsError naming it; so does a keyword that is
    not a non-empty string, or an "re:" keyword that does not compile,
    naming its category and index.
    """

    def __init__(self, keywords: Mapping[str, Sequence[str]]):
        for key in keywords:
            if key not in ASPECTS:
                raise AnalyticsError(f"category {key!r} is not an aspect")
        self.keywords = {aspect: tuple(keywords.get(aspect, ())) for aspect in ASPECTS}
        self._rules: list[tuple[str, list[str], list[re.Pattern]]] = []
        for cat, entries in self.keywords.items():
            plain, patterns = [], []
            for i, keyword in enumerate(entries):
                if not isinstance(keyword, str) or not keyword:
                    raise AnalyticsError(
                        f"category {cat!r} keyword {i}: {keyword!r} is not a non-empty string"
                    )
                if not keyword.startswith("re:"):
                    plain.append(keyword)
                    continue
                try:
                    patterns.append(re.compile(keyword[3:]))
                except re.error as exc:
                    raise AnalyticsError(f"category {cat!r} keyword {i}: {keyword!r}: {exc}") from exc
            self._rules.append((cat, plain, patterns))
        self._memo: dict[str, str] = {}

    def category(self, folded: str) -> str:
        cat = self._memo.get(folded)
        if cat is None:
            cat = next(
                (
                    c
                    for c, plain, patterns in self._rules
                    if any(k in folded for k in plain) or any(p.search(folded) for p in patterns)
                ),
                "unusual",
            )
            self._memo[folded] = cat
        return cat


def load_category_lexicon(path: Optional[str | Path] = None) -> CategoryLexicon:
    doc = load_yaml_section("category_lexicon.yaml", "categories", dict, path)
    for key, keywords in doc.items():
        if not isinstance(keywords, list):
            raise AnalyticsError(f"category {key!r}: keywords are not a list")
    return CategoryLexicon(doc)


_PUNCT_STRIP = ".,;:!?()'\"[]"


def rule_based_factors(words: Sequence[WordAttribution], lexicon: CategoryLexicon, caseno: str) -> FactorSummary:
    """Deterministic offline categorizer: first matching category wins,
    unmatched scored words land in the unusual/standout bucket."""
    buckets: dict[str, dict[str, FactorTerm]] = {aspect: {} for aspect in ASPECTS}
    for word in words:
        if word.score <= 0:
            continue
        term = word.word.strip(_PUNCT_STRIP)
        if not term:
            continue
        folded = term.lower()
        bucket = buckets[lexicon.category(folded)]
        existing = bucket.get(folded)
        if existing is None or word.score > existing.score:
            position = existing.position if existing else word.char_span[0]
            bucket[folded] = FactorTerm(
                term=term, score=word.score, position=min(position, word.char_span[0])
            )
    # FactorSummary sorts each category's terms; its summary names the top five
    categories = {cat: CategorySummary("", list(terms.values())) for cat, terms in buckets.items()}
    summary = FactorSummary(caseno=caseno, categories=categories, source="rules")
    for cat, category in summary.categories.items():
        top, label = ", ".join(t.term for t in category.terms[:5]), ASPECTS[cat][0]
        category.summary = f"Notable {label} terms: {top}." if top else f"No notable {label} terms."
    return summary


_FENCE = re.compile(r"```(?:json)?\s*(.*?)\s*```", re.DOTALL)


def _factor_document(completion: str):
    """The JSON a reply holds: the whole reply, else its first fenced block,
    else the first JSON object in it. ValueError when none of them parses."""
    text = completion.strip()
    try:
        return json.loads(text)
    except ValueError:
        pass
    fence = _FENCE.search(text)
    if fence:
        try:
            return json.loads(fence.group(1))
        except ValueError:
            pass
    start = text.find("{")
    if start < 0:
        raise ValueError("completion holds no JSON object")
    return json.JSONDecoder().raw_decode(text, start)[0]


def _parse_factor_payload(completion: str, caseno: str) -> FactorSummary:
    doc = _factor_document(completion)
    if not isinstance(doc, dict):
        raise ValueError("completion is not a JSON object")
    categories = {}
    for cat in ASPECTS:
        entry = doc[cat]  # KeyError -> parse failure -> repair/fallback
        terms = []
        for i, item in enumerate(entry.get("terms", [])):
            if isinstance(item, Mapping):
                term, score = str(item["term"]), float(item["score"])
            else:
                term, score = str(item[0]), float(item[1])
            if not math.isfinite(score):  # `inf` would reach factors.jsonl as `Infinity`, not JSON
                raise ValueError(f"term {term!r} has a non-finite score")
            terms.append(FactorTerm(term=term, score=score, position=i))
        categories[cat] = CategorySummary(summary=str(entry.get("summary", "")), terms=terms)
    return FactorSummary(caseno=caseno, categories=categories, source="llm")


def summarize_factors(annotated: str, client: ChatClient, caseno: str, lexicon: CategoryLexicon) -> FactorSummary:
    """LLM factor summary with one repair request; falls back to the rules,
    with `lexicon`, when the reply cannot be repaired or the client is
    unavailable. A reply whose JSON `_factor_document` finds needs no repair."""
    user, repairs, summary = annotated, 0, None
    try:
        for repairs in range(2):
            completion = client.send(FACTOR_PROMPT, user, 0.0)
            try:
                summary = _parse_factor_payload(completion, caseno)
                break
            except (ValueError, KeyError, TypeError, IndexError):
                user = f"{annotated}\n\n{_REPAIR_PROMPT}"
    except UnavailableError:
        pass
    if summary is None:
        summary = rule_based_factors(parse_annotated(annotated)[1], lexicon, caseno)
    summary.repairs = repairs
    return summary


def extract_top_factors(summary: FactorSummary, k: int) -> dict[str, list[str]]:
    """Top-k terms for the four named aspects (unusual/standout excluded);
    `FactorSummary` keeps each aspect's terms ordered by (-score, position)."""
    return {
        cat: [t.term for t in summary.categories[cat].terms[:k]]
        for cat in ASPECTS
        if cat != "unusual"
    }


def semantic_group(
    factors: Mapping[str, Sequence[str]], rules: GroupingRules
) -> dict[str, list[str]]:
    """Canonicalize factor names (first matching rule wins) and dedupe."""
    out: dict[str, list[str]] = {}
    for cat, names in factors.items():
        seen: set[str] = set()
        grouped: list[str] = []
        for name in names:
            canonical = rules.canonical(name)
            if canonical not in seen:
                seen.add(canonical)
                grouped.append(canonical)
        out[cat] = grouped
    return out


def cooccurrence(
    case_factors: Sequence[Mapping[str, Sequence[str]]],
) -> CooccurrenceGraph:
    """Count, once per case, every unordered cross-aspect factor pair."""
    pair_counts: Counter = Counter()
    for case in case_factors:
        items = sorted(
            {(cat, name) for cat, names in case.items() for name in names},
            key=lambda item: (_ASPECT_ORDER[item[0]], item[1]),
        )
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                if items[i][0] == items[j][0]:
                    continue
                pair_counts[(items[i], items[j])] += 1

    node_totals: Counter = Counter()
    for (a, b), count in pair_counts.items():
        node_totals[a] += count
        node_totals[b] += count
    keys = sorted(node_totals, key=lambda item: (_ASPECT_ORDER[item[0]], item[1]))
    index = {key: i for i, key in enumerate(keys)}
    nodes = [FactorNode(name=name, aspect=cat, count=node_totals[(cat, name)]) for cat, name in keys]
    links = sorted(
        (
            FactorLink(source=index[a], target=index[b], count=count)
            for (a, b), count in pair_counts.items()
        ),
        key=lambda link: (link.source, link.target),
    )
    return CooccurrenceGraph(nodes=nodes, links=links)


def graph_to_json(graph: CooccurrenceGraph) -> dict:
    return {
        "nodes": [
            {
                "name": node.name,
                "aspect": node.aspect,
                "count": node.count,
                "color": ASPECTS[node.aspect][1],
            }
            for node in graph.nodes
        ],
        "links": [
            {"source": link.source, "target": link.target, "count": link.count}
            for link in graph.links
        ],
    }


def graph_from_json(doc: Mapping) -> CooccurrenceGraph:
    validate_sankey(doc)
    nodes = [
        FactorNode(name=n["name"], aspect=n["aspect"], count=n["count"])
        for n in doc["nodes"]
    ]
    links = [FactorLink(source=l["source"], target=l["target"], count=l["count"]) for l in doc["links"]]
    return CooccurrenceGraph(nodes=nodes, links=links)


_COLOR_RE = re.compile("^#[0-9a-f]{6}$")


def _sankey_integer(value: object, minimum: int) -> bool:
    """JSON Schema's integer (an integral float counts, a bool does not) at or above `minimum`."""
    if isinstance(value, float):
        return value.is_integer() and value >= minimum
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _sankey_items(doc: dict, key: str, fields: tuple[str, ...]) -> list[dict]:
    items = doc[key]
    if not isinstance(items, list):
        raise ValidationError(f"{key} is not an array")
    for i, item in enumerate(items):
        if not isinstance(item, dict) or set(item) != set(fields):
            raise ValidationError(f"{key}[{i}] is not an object with exactly the keys {', '.join(fields)}")
    return items


def validate_sankey(doc: Mapping) -> None:
    """A Sankey graph document is an object with exactly the keys `nodes` and
    `links`. Each node has exactly a non-empty string `name`, an aspect name
    `aspect`, an integer `count` >= 1 and a string `color` that `_COLOR_RE`
    finds (a trailing newline passes, as under JSON Schema's `pattern`); each
    link has exactly integer `source` and `target` node indices and an
    integer `count` >= 1. Integers follow JSON Schema: an integral float
    counts, a bool does not. Anything else raises ValidationError."""
    if not isinstance(doc, dict) or set(doc) != {"nodes", "links"}:
        raise ValidationError("document is not an object with exactly the keys nodes, links")
    for i, node in enumerate(_sankey_items(doc, "nodes", ("name", "aspect", "count", "color"))):
        name, aspect, color = node["name"], node["aspect"], node["color"]
        if not isinstance(name, str) or not name:
            raise ValidationError(f"nodes[{i}].name is not a non-empty string")
        if not (isinstance(aspect, str) and aspect in ASPECTS):
            raise ValidationError(f"nodes[{i}].aspect {aspect!r} is not an aspect")
        if not _sankey_integer(node["count"], 1):
            raise ValidationError(f"nodes[{i}].count is not an integer >= 1")
        if not (isinstance(color, str) and _COLOR_RE.search(color)):
            raise ValidationError(f"nodes[{i}].color {color!r} does not match {_COLOR_RE.pattern!r}")
    n = len(doc["nodes"])
    for i, link in enumerate(_sankey_items(doc, "links", ("source", "target", "count"))):
        for key in ("source", "target"):
            if not _sankey_integer(link[key], 0):
                raise ValidationError(f"links[{i}].{key} is not an integer >= 0")
            if link[key] >= n:
                raise ValidationError("link endpoint out of node range")
        if not _sankey_integer(link["count"], 1):
            raise ValidationError(f"links[{i}].count is not an integer >= 1")


def _sankey_html(doc: Mapping) -> str:
    width, height, pad = 960.0, 600.0, 8.0
    columns: dict[str, list[int]] = {aspect: [] for aspect in ASPECTS}
    for i, node in enumerate(doc["nodes"]):
        columns[node["aspect"]].append(i)
    active = [aspect for aspect in columns if columns[aspect]]
    geom: dict[int, list[float]] = {}
    col_w = 18.0
    for ci, aspect in enumerate(active):
        ids = columns[aspect]
        total = sum(doc["nodes"][i]["count"] for i in ids)
        usable = height - pad * (len(ids) + 1)
        x = 40.0 + (width - 120.0) * (ci / max(len(active) - 1, 1))
        y = pad
        for i in ids:
            h = max(usable * doc["nodes"][i]["count"] / total, 4.0) if total else 4.0
            geom[i] = [x, y, h]
            y += h + pad
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\"><title>Factor co-occurrence</title>",
        "<style>body{font-family:sans-serif;background:#fff}text{font-size:11px}</style>",
        "</head><body>",
        f'<svg width="{width:.0f}" height="{height:.0f}">',
    ]
    out_off = {i: 0.0 for i in geom}
    in_off = {i: 0.0 for i in geom}
    out_total, in_total = Counter(), Counter()  # each node's summed link counts, out and in
    for link in doc["links"]:
        out_total[link["source"]] += link["count"]
        in_total[link["target"]] += link["count"]
    for link in doc["links"]:
        s, t = link["source"], link["target"]
        sx, sy, sh = geom[s]
        tx, ty, th = geom[t]
        w_s = sh * link["count"] / max(out_total[s], 1)
        w_t = th * link["count"] / max(in_total[t], 1)
        y0 = sy + out_off[s] + w_s / 2
        y1 = ty + in_off[t] + w_t / 2
        out_off[s] += w_s
        in_off[t] += w_t
        x0, x1 = sx + col_w, tx
        mid = (x0 + x1) / 2
        color = doc["nodes"][s]["color"]
        parts.append(
            f'<path d="M{x0:.1f},{y0:.1f} C{mid:.1f},{y0:.1f} {mid:.1f},{y1:.1f} {x1:.1f},{y1:.1f}" '
            f'stroke="{color}" stroke-width="{max((w_s + w_t) / 2, 1.0):.1f}" fill="none" opacity="0.35"/>'
        )
    for i, node in enumerate(doc["nodes"]):
        x, y, h = geom[i]
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{col_w:.0f}" height="{h:.1f}" fill="{node["color"]}"/>'
        )
        parts.append(
            f'<text x="{x + col_w + 4:.1f}" y="{y + h / 2 + 4:.1f}">'
            f"{html.escape(node['name'])} ({node['count']})</text>"
        )
    parts.append("</svg></body></html>")
    return "\n".join(parts) + "\n"


def export_sankey(
    graph: CooccurrenceGraph,
    json_path: Optional[str | Path] = None,
    html_path: Optional[str | Path] = None,
) -> dict:
    doc = graph_to_json(graph)
    if json_path is not None:
        atomic_write_json(json_path, doc)
    if html_path is not None:
        atomic_write_text(html_path, _sankey_html(doc))
    return doc


_HEATMAP_CSS = (
    "body{font-family:Georgia,serif;max-width:54em;margin:2em auto;line-height:1.6}"
    ".hi{background:#f4cccc;color:#990000;padding:0 2px}"
    ".mid{background:#d9ead3;color:#38761d;padding:0 2px}"
)


def export_heatmap(annotated: str, threshold_hi: float, path: str | Path, caseno: str) -> str:
    """Binary red/green rendering: score >= threshold_hi red, positive green."""
    narrative, words = parse_annotated(annotated)
    parts = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        f"<title>Attribution heatmap {html.escape(caseno)}</title>",
        f"<style>{_HEATMAP_CSS}</style></head><body>",
        f"<h3>Case {html.escape(caseno)}</h3>",
        "<p>",
    ]
    cursor = 0
    body: list[str] = []
    for word in words:
        start, end = word.char_span
        body.append(html.escape(narrative[cursor:start]))
        text = html.escape(narrative[start:end])
        if word.score >= threshold_hi:
            body.append(f'<span class="hi" title="{word.score:.2f}">{text}</span>')
        elif word.score > 0:
            body.append(f'<span class="mid" title="{word.score:.2f}">{text}</span>')
        else:
            body.append(text)
        cursor = end
    body.append(html.escape(narrative[cursor:]))
    parts.append("".join(body))
    parts.append("</p></body></html>")
    text = "\n".join(parts) + "\n"
    atomic_write_text(path, text)
    return text
