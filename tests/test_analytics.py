from __future__ import annotations

import itertools
import json
from collections import Counter

import jsonschema
import pytest

from crashlens.analytics import (
    AnalyticsError,
    AspectCategory,
    CategorySummary,
    CooccurrenceGraph,
    FactorLink,
    FactorNode,
    FactorSummary,
    FactorTerm,
    GroupingRule,
    GroupingRules,
    UnavailableError,
    cooccurrence,
    export_heatmap,
    export_sankey,
    extract_top_factors,
    graph_from_json,
    graph_to_json,
    load_category_lexicon,
    load_grouping_rules,
    rule_based_factors,
    semantic_group,
    summarize_factors,
    validate_sankey,
)
from crashlens.attribution import WordAttribution, annotate_narrative


def _w(word: str, score: float, pos: int = 0) -> WordAttribution:
    return WordAttribution(word=word, char_span=(pos, pos + len(word)), score=score)


def test_rule_based_category_assignments():
    words = [
        _w("dusk", 3.0, 10),
        _w("intoxication", 4.0, 30),
        _w("milepost", 2.0, 50),
        _w("hit-and-run", 2.5, 70),
        _w("2005", 1.5, 90),
        _w("8:00", 1.0, 110),
        _w("PM,", 1.0, 115),
        _w("motorcycle", 2.0, 130),
        _w("shoulder", 1.0, 150),
    ]
    summary = rule_based_factors(words, caseno="T1")
    got = {
        cat: [t.term for t in block.terms] for cat, block in summary.categories.items()
    }
    assert got[AspectCategory.ENVIRONMENTAL] == ["dusk", "8:00", "PM"]
    assert got[AspectCategory.VEHICLE_OCCUPANT] == ["motorcycle", "2005"]
    assert got[AspectCategory.BEHAVIORAL] == ["intoxication"]
    assert got[AspectCategory.INFRASTRUCTURE] == ["shoulder"]
    assert got[AspectCategory.UNUSUAL] == ["hit-and-run", "milepost"]
    assert summary.source == "rules"
    assert summary.caseno == "T1"


def test_rule_based_skips_nonpositive_and_dedupes():
    words = [
        _w("dusk", 0.0, 0),
        _w("dusk", 2.0, 10),
        _w("Dusk,", 5.0, 40),
        _w("dusk", 3.0, 20),
    ]
    summary = rule_based_factors(words)
    terms = summary.categories[AspectCategory.ENVIRONMENTAL].terms
    assert len(terms) == 1
    # max score wins, earliest position is kept
    assert terms[0].score == 5.0
    assert terms[0].position == 10


def test_rule_based_summary_sentences():
    summary = rule_based_factors([_w("snow", 2.0)])
    env = summary.categories[AspectCategory.ENVIRONMENTAL]
    assert env.summary == "Notable environmental terms: snow."
    assert (
        summary.categories[AspectCategory.BEHAVIORAL].summary
        == "No notable behavioral terms."
    )


def test_factor_summary_requires_all_categories():
    with pytest.raises(AnalyticsError, match="missing category"):
        FactorSummary(
            caseno="x",
            categories={AspectCategory.ENVIRONMENTAL: CategorySummary("s", [])},
        )


def test_factor_summary_sorts_and_drops_nonpositive_terms():
    cats = {
        cat: CategorySummary(summary="s", terms=[]) for cat in AspectCategory
    }
    cats[AspectCategory.BEHAVIORAL] = CategorySummary(
        summary="s",
        terms=[
            FactorTerm("low", 1.0, position=0),
            FactorTerm("zero", 0.0, position=1),
            FactorTerm("high", 9.0, position=2),
        ],
    )
    summary = FactorSummary(caseno="x", categories=cats)
    assert [t.term for t in summary.categories[AspectCategory.BEHAVIORAL].terms] == [
        "high",
        "low",
    ]


def test_bundled_grouping_rules_load_and_group():
    rules = load_grouping_rules()
    assert rules.canonical("aadt") == "traffic volume"
    assert rules.canonical("AADT") == "traffic volume"
    assert rules.canonical("mph") == "posted speed"
    assert rules.canonical("36-year-old") == "occupant age"
    assert rules.canonical("intoxication") == "impairment"
    assert rules.canonical("dusk") == "time of day"
    assert rules.canonical("2005") == "date"
    assert rules.canonical("restraint") == "restraint use"
    # unmatched names pass through untouched
    assert rules.canonical("motorcycle") == "motorcycle"


def test_grouping_rules_must_be_idempotent(tmp_path):
    bad = tmp_path / "rules.yaml"
    # "dark conditions" re-matches the first rule, so grouping twice would
    # move it again: exactly the non-idempotence the loader must reject
    bad.write_text(
        "rules:\n"
        "  - match: dark\n"
        "    name: lighting\n"
        "  - match: light\n"
        "    name: dark conditions\n"
    )
    with pytest.raises(AnalyticsError, match="idempotent"):
        load_grouping_rules(bad)


def test_grouping_rules_reject_bad_regex(tmp_path):
    bad = tmp_path / "rules.yaml"
    bad.write_text("rules:\n  - match: '['\n    name: broken\n")
    with pytest.raises(AnalyticsError, match="invalid"):
        load_grouping_rules(bad)


def test_semantic_group_dedupes_canonical_names():
    rules = load_grouping_rules()
    grouped = semantic_group(
        {
            AspectCategory.ENVIRONMENTAL: ["dusk", "8:00", "evening"],
            AspectCategory.BEHAVIORAL: ["alcohol", "intoxication"],
        },
        rules,
    )
    assert grouped[AspectCategory.ENVIRONMENTAL] == ["time of day"]
    assert grouped[AspectCategory.BEHAVIORAL] == ["impairment"]


def test_extract_top_factors_excludes_unusual_and_caps():
    cats = {cat: CategorySummary("s", []) for cat in AspectCategory}
    cats[AspectCategory.UNUSUAL] = CategorySummary(
        "s", [FactorTerm("weird", 9.0, 0)]
    )
    cats[AspectCategory.INFRASTRUCTURE] = CategorySummary(
        "s", [FactorTerm(f"t{i}", 10.0 - i, i) for i in reversed(range(8))]
    )
    # FactorSummary orders the terms; extract_top_factors reads them in order
    summary = FactorSummary(caseno="x", categories=cats)
    top = extract_top_factors(summary, k=5)
    assert AspectCategory.UNUSUAL not in top
    assert top[AspectCategory.INFRASTRUCTURE] == ["t0", "t1", "t2", "t3", "t4"]


def _case(mapping: dict[AspectCategory, list[str]]) -> dict:
    return mapping


def test_cooccurrence_counts_once_per_case():
    cases = [
        _case(
            {
                AspectCategory.ENVIRONMENTAL: ["dusk", "dusk"],
                AspectCategory.BEHAVIORAL: ["impairment"],
            }
        ),
        _case(
            {
                AspectCategory.ENVIRONMENTAL: ["dusk"],
                AspectCategory.BEHAVIORAL: ["impairment"],
            }
        ),
    ]
    graph = cooccurrence(cases)
    assert len(graph.nodes) == 2
    assert len(graph.links) == 1
    assert graph.links[0].count == 2
    dusk = next(n for n in graph.nodes if n.name == "dusk")
    assert dusk.count == 2


def test_cooccurrence_excludes_same_aspect_pairs():
    graph = cooccurrence(
        [_case({AspectCategory.ENVIRONMENTAL: ["dusk", "snow"]})]
    )
    assert graph.nodes == []
    assert graph.links == []


def test_cooccurrence_matches_bruteforce_on_randoms():
    import random

    rng = random.Random(99)
    names = ["a", "b", "c", "d", "e"]
    aspects = list(AspectCategory)
    for _ in range(30):
        cases = []
        for _ in range(rng.randrange(1, 8)):
            case: dict[AspectCategory, list[str]] = {}
            for aspect in rng.sample(aspects, rng.randrange(1, 4)):
                case[aspect] = [
                    rng.choice(names) for _ in range(rng.randrange(1, 4))
                ]
            cases.append(case)
        graph = cooccurrence(cases)

        expected: Counter = Counter()
        for case in cases:
            items = {
                (aspect, name) for aspect, names_ in case.items() for name in names_
            }
            for x, y in itertools.combinations(sorted(items, key=str), 2):
                if x[0] is not y[0]:
                    expected[frozenset((x, y))] += 1

        got: Counter = Counter()
        for link in graph.links:
            src = graph.nodes[link.source]
            dst = graph.nodes[link.target]
            got[frozenset(((src.aspect, src.name), (dst.aspect, dst.name)))] = link.count
        assert got == expected
        for i, node in enumerate(graph.nodes):
            incident = sum(
                l.count for l in graph.links if i in (l.source, l.target)
            )
            assert node.count == incident


def test_sankey_json_round_trip_and_schema():
    graph = cooccurrence(
        [
            _case(
                {
                    AspectCategory.ENVIRONMENTAL: ["dusk"],
                    AspectCategory.BEHAVIORAL: ["impairment"],
                    AspectCategory.INFRASTRUCTURE: ["posted speed"],
                }
            )
        ]
    )
    doc = graph_to_json(graph)
    validate_sankey(doc)
    back = graph_from_json(doc)
    assert back == graph


def test_sankey_schema_rejects_bad_documents():
    good = graph_to_json(
        cooccurrence(
            [
                _case(
                    {
                        AspectCategory.ENVIRONMENTAL: ["dusk"],
                        AspectCategory.BEHAVIORAL: ["impairment"],
                    }
                )
            ]
        )
    )
    bad_color = json.loads(json.dumps(good))
    bad_color["nodes"][0]["color"] = "red"
    with pytest.raises(jsonschema.ValidationError):
        validate_sankey(bad_color)

    bad_index = json.loads(json.dumps(good))
    bad_index["links"][0]["target"] = 99
    with pytest.raises((jsonschema.ValidationError, AnalyticsError, ValueError)):
        validate_sankey(bad_index)

    extra_key = json.loads(json.dumps(good))
    extra_key["nodes"][0]["mystery"] = 1
    with pytest.raises(jsonschema.ValidationError):
        validate_sankey(extra_key)


def test_export_sankey_writes_json_and_html(tmp_path):
    graph = cooccurrence(
        [
            _case(
                {
                    AspectCategory.ENVIRONMENTAL: ["dusk"],
                    AspectCategory.BEHAVIORAL: ["impairment"],
                }
            )
        ]
    )
    json_path = tmp_path / "graph.json"
    html_path = tmp_path / "graph.html"
    export_sankey(graph, json_path=json_path, html_path=html_path)
    validate_sankey(json.loads(json_path.read_text()))
    html = html_path.read_text()
    assert "<svg" in html
    assert "dusk" in html and "impairment" in html
    # repeated export is byte-stable
    export_sankey(graph, html_path=tmp_path / "again.html")
    assert (tmp_path / "again.html").read_text() == html


def test_export_heatmap_colors_by_threshold(tmp_path):
    text = "alpha beta gamma"
    words = [
        _w("alpha", 4.5, 0),
        _w("beta", 1.5, 6),
    ]
    annotated = annotate_narrative(text, words)
    path = tmp_path / "heat.html"
    export_heatmap(annotated, threshold_hi=3.0, path=path, caseno="C1")
    html = path.read_text()
    assert '<span class="hi" title="4.50">alpha</span>' in html
    assert '<span class="mid" title="1.50">beta</span>' in html
    assert "gamma" in html
    assert '<span class="hi" title="1.50">' not in html


class ScriptedClient:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def send(self, system: str, user: str, temperature: float) -> str:
        self.calls += 1
        if isinstance(self.responses[0], Exception):
            raise self.responses.pop(0)
        return self.responses.pop(0)


def _llm_payload() -> str:
    doc = {
        cat.value: {"summary": f"about {cat.value}", "terms": []}
        for cat in AspectCategory
    }
    doc["behavioral"]["terms"] = [
        {"term": "speeding", "score": 4.0},
        ["alcohol", 2.0],
    ]
    return json.dumps(doc)


def test_summarize_factors_parses_llm_payload():
    annotated = "the driver was speeding[4.00] after alcohol[2.00]"
    client = ScriptedClient([_llm_payload()])
    summary = summarize_factors(annotated, client, caseno="C7")
    assert summary.source == "llm"
    terms = summary.categories[AspectCategory.BEHAVIORAL].terms
    assert [t.term for t in terms] == ["speeding", "alcohol"]
    assert client.calls == 1


def test_summarize_factors_strips_markdown_fence():
    fenced = f"```json\n{_llm_payload()}\n```"
    summary = summarize_factors("x[1.00]", ScriptedClient([fenced]))
    assert summary.source == "llm"


def test_summarize_factors_repairs_once_then_falls_back():
    annotated = "the dusk[3.00] crash"
    client = ScriptedClient(["not json", "still not json"])
    summary = summarize_factors(annotated, client)
    assert client.calls == 2
    assert summary.source == "rules"
    env = summary.categories[AspectCategory.ENVIRONMENTAL].terms
    assert [t.term for t in env] == ["dusk"]


def test_summarize_factors_repair_can_succeed():
    client = ScriptedClient(["garbage", _llm_payload()])
    summary = summarize_factors("x[1.00]", client)
    assert client.calls == 2
    assert summary.source == "llm"


def test_summarize_factors_unavailable_client_falls_back_to_rules():
    annotated = "the dusk[3.00] crash"
    client = ScriptedClient([UnavailableError("transport failed after 4 attempts")])
    summary = summarize_factors(annotated, client)
    assert client.calls == 1
    assert summary.source == "rules"
    env = summary.categories[AspectCategory.ENVIRONMENTAL].terms
    assert [t.term for t in env] == ["dusk"]


def test_summarize_factors_unavailable_repair_falls_back_to_rules():
    client = ScriptedClient(["not json", UnavailableError("down")])
    summary = summarize_factors("the dusk[3.00] crash", client)
    assert client.calls == 2
    assert summary.source == "rules"


def test_category_lexicon_loads_all_aspects():
    lexicon = load_category_lexicon()
    for cat in (
        AspectCategory.ENVIRONMENTAL,
        AspectCategory.VEHICLE_OCCUPANT,
        AspectCategory.BEHAVIORAL,
        AspectCategory.INFRASTRUCTURE,
    ):
        assert lexicon[cat], cat
