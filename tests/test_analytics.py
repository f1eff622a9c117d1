from __future__ import annotations

import itertools
import json
import re
from collections import Counter

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashlens import analytics
from crashlens.analytics import (
    ASPECTS,
    AnalyticsError,
    CategoryLexicon,
    CategorySummary,
    CooccurrenceGraph,
    FactorLink,
    FactorNode,
    FactorSummary,
    FactorTerm,
    GroupingRule,
    GroupingRules,
    ValidationError,
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
from crashlens.util import UnavailableError, parse_annotated
from conftest import WHITESPACE
from oracles import SANKEY_SCHEMA, parse_annotated_scans, rule_based_factors_loop


BUNDLED = load_category_lexicon()


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
    summary = rule_based_factors(words, BUNDLED, "T1")
    got = {
        cat: [t.term for t in block.terms] for cat, block in summary.categories.items()
    }
    assert got["environmental"] == ["dusk", "8:00", "PM"]
    assert got["vehicle_occupant"] == ["motorcycle", "2005"]
    assert got["behavioral"] == ["intoxication"]
    assert got["infrastructure"] == ["shoulder"]
    assert got["unusual"] == ["hit-and-run", "milepost"]
    assert summary.source == "rules"
    assert summary.caseno == "T1"


def test_rule_based_skips_nonpositive_and_dedupes():
    words = [
        _w("dusk", 0.0, 0),
        _w("dusk", 2.0, 10),
        _w("Dusk,", 5.0, 40),
        _w("dusk", 3.0, 20),
    ]
    summary = rule_based_factors(words, BUNDLED, "")
    terms = summary.categories["environmental"].terms
    assert len(terms) == 1
    # max score wins, earliest position is kept
    assert terms[0].score == 5.0
    assert terms[0].position == 10


def test_rule_based_summary_sentences():
    summary = rule_based_factors([_w("snow", 2.0)], BUNDLED, "")
    env = summary.categories["environmental"]
    assert env.summary == "Notable environmental terms: snow."
    assert (
        summary.categories["behavioral"].summary
        == "No notable behavioral terms."
    )


def test_factor_summary_requires_all_categories():
    with pytest.raises(AnalyticsError, match="missing category"):
        FactorSummary(
            caseno="x",
            categories={"environmental": CategorySummary("s", [])},
        )


def test_factor_summary_sorts_and_drops_nonpositive_terms():
    cats = {
        cat: CategorySummary(summary="s", terms=[]) for cat in ASPECTS
    }
    cats["behavioral"] = CategorySummary(
        summary="s",
        terms=[
            FactorTerm("low", 1.0, position=0),
            FactorTerm("zero", 0.0, position=1),
            FactorTerm("high", 9.0, position=2),
        ],
    )
    summary = FactorSummary(caseno="x", categories=cats)
    assert [t.term for t in summary.categories["behavioral"].terms] == [
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
            "environmental": ["dusk", "8:00", "evening"],
            "behavioral": ["alcohol", "intoxication"],
        },
        rules,
    )
    assert grouped["environmental"] == ["time of day"]
    assert grouped["behavioral"] == ["impairment"]


def test_extract_top_factors_excludes_unusual_and_caps():
    cats = {cat: CategorySummary("s", []) for cat in ASPECTS}
    cats["unusual"] = CategorySummary(
        "s", [FactorTerm("weird", 9.0, 0)]
    )
    cats["infrastructure"] = CategorySummary(
        "s", [FactorTerm(f"t{i}", 10.0 - i, i) for i in reversed(range(8))]
    )
    # FactorSummary orders the terms; extract_top_factors reads them in order
    summary = FactorSummary(caseno="x", categories=cats)
    top = extract_top_factors(summary, k=5)
    assert "unusual" not in top
    assert top["infrastructure"] == ["t0", "t1", "t2", "t3", "t4"]


def _case(mapping: dict[str, list[str]]) -> dict:
    return mapping


def test_cooccurrence_counts_once_per_case():
    cases = [
        _case(
            {
                "environmental": ["dusk", "dusk"],
                "behavioral": ["impairment"],
            }
        ),
        _case(
            {
                "environmental": ["dusk"],
                "behavioral": ["impairment"],
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
        [_case({"environmental": ["dusk", "snow"]})]
    )
    assert graph.nodes == []
    assert graph.links == []


def test_cooccurrence_matches_bruteforce_on_randoms():
    import random

    rng = random.Random(99)
    names = ["a", "b", "c", "d", "e"]
    aspects = list(ASPECTS)
    for _ in range(30):
        cases = []
        for _ in range(rng.randrange(1, 8)):
            case: dict[str, list[str]] = {}
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
                if x[0] != y[0]:
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
                    "environmental": ["dusk"],
                    "behavioral": ["impairment"],
                    "infrastructure": ["posted speed"],
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
                        "environmental": ["dusk"],
                        "behavioral": ["impairment"],
                    }
                )
            ]
        )
    )
    bad_color = json.loads(json.dumps(good))
    bad_color["nodes"][0]["color"] = "red"
    with pytest.raises(ValidationError):
        validate_sankey(bad_color)

    bad_index = json.loads(json.dumps(good))
    bad_index["links"][0]["target"] = 99
    with pytest.raises(ValidationError):
        validate_sankey(bad_index)

    extra_key = json.loads(json.dumps(good))
    extra_key["nodes"][0]["mystery"] = 1
    with pytest.raises(ValidationError):
        validate_sankey(extra_key)


def test_export_sankey_writes_json_and_html(tmp_path):
    graph = cooccurrence(
        [
            _case(
                {
                    "environmental": ["dusk"],
                    "behavioral": ["impairment"],
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


def test_sankey_links_split_a_node_by_their_counts(tmp_path):
    """A node with outgoing links of counts 1 and 3 gives them bands of
    height h/4 and 3h/4, stacked from its top; their two targets share a
    column in the same 1 : 3 proportion, so the stroke widths are 1 : 3 too."""
    graph = CooccurrenceGraph(
        nodes=[
            FactorNode("dusk", "environmental", 4),
            FactorNode("speeding", "behavioral", 1),
            FactorNode("impairment", "behavioral", 3),
        ],
        links=[FactorLink(0, 1, 1), FactorLink(0, 2, 3)],
    )
    export_sankey(graph, html_path=tmp_path / "graph.html")
    html = (tmp_path / "graph.html").read_text()
    rects = re.findall(r'<rect x="[\d.]+" y="([\d.]+)" width="\d+" height="([\d.]+)"', html)
    links = re.findall(r'<path d="M[\d.]+,([\d.]+) .*? stroke-width="([\d.]+)"', html)
    (top, height), (_, h_one), (_, h_three) = [tuple(map(float, m)) for m in rects]
    assert h_three == 3 * h_one
    (y_one, width_one), (y_three, width_three) = [tuple(map(float, m)) for m in links]
    # each link's stroke is centred on its band: offsets h/8 and h/4 + 3h/8 below the top
    assert (y_one - top, y_three - top) == (height / 8, height / 4 + 3 * height / 8)
    assert width_three == 3 * width_one


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
    assert "<h3>Case C1</h3>" in html
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
        cat: {"summary": f"about {cat}", "terms": []}
        for cat in ASPECTS
    }
    doc["behavioral"]["terms"] = [
        {"term": "speeding", "score": 4.0},
        ["alcohol", 2.0],
    ]
    return json.dumps(doc)


def test_summarize_factors_parses_llm_payload():
    annotated = "the driver was speeding[4.00] after alcohol[2.00]"
    client = ScriptedClient([_llm_payload()])
    summary = summarize_factors(annotated, client, "C7", BUNDLED)
    assert summary.source == "llm"
    terms = summary.categories["behavioral"].terms
    assert [t.term for t in terms] == ["speeding", "alcohol"]
    assert client.calls == 1


def test_summarize_factors_strips_markdown_fence():
    fenced = f"```json\n{_llm_payload()}\n```"
    summary = summarize_factors("x[1.00]", ScriptedClient([fenced]), "", BUNDLED)
    assert summary.source == "llm"


@pytest.mark.parametrize(
    "reply",
    [
        "Here is the factor summary you asked for:\n```json\n{}\n```",
        "```json\n{}\n```\nEach term is scored by its attribution.",
        "```\n{}\n```",
        "The factors follow. {} Let me know if you need more.",
    ],
    ids=["prose-then-fence", "fence-then-prose", "bare-fence", "object-after-prose"],
)
def test_summarize_factors_finds_the_json_around_prose_without_a_repair(reply):
    client = ScriptedClient([reply.format(_llm_payload())])
    summary = summarize_factors("x[1.00]", client, "C1", BUNDLED)
    assert client.calls == 1
    assert (summary.source, summary.repairs) == ("llm", 0)
    assert [t.term for t in summary.categories["behavioral"].terms] == ["speeding", "alcohol"]


def test_summarize_factors_fenced_bad_json_costs_exactly_one_repair():
    client = ScriptedClient(["Here it is:\n```json\n{behavioral: speeding}\n```", _llm_payload()])
    summary = summarize_factors("x[1.00]", client, "", BUNDLED)
    assert client.calls == 2
    assert (summary.source, summary.repairs) == ("llm", 1)


def test_summarize_factors_repairs_once_then_falls_back():
    annotated = "the dusk[3.00] crash"
    client = ScriptedClient(["not json", "still not json"])
    summary = summarize_factors(annotated, client, "", BUNDLED)
    assert client.calls == 2
    assert (summary.source, summary.repairs) == ("rules", 1)
    env = summary.categories["environmental"].terms
    assert [t.term for t in env] == ["dusk"]


def test_summarize_factors_repair_can_succeed():
    client = ScriptedClient(["garbage", _llm_payload()])
    summary = summarize_factors("x[1.00]", client, "", BUNDLED)
    assert client.calls == 2
    assert summary.source == "llm"


@pytest.mark.parametrize("score", ['"inf"', "1e999", '"nan"', "-Infinity"])
def test_summarize_factors_non_finite_score_is_a_parse_failure(score):
    """A non-finite score asks for a repair, and then falls back to the rules."""
    bad = _llm_payload().replace('"score": 4.0', f'"score": {score}')
    assert bad != _llm_payload()
    client = ScriptedClient([bad, bad])
    summary = summarize_factors("the dusk[3.00] crash", client, "", BUNDLED)
    assert client.calls == 2
    assert summary.source == "rules"


def test_summarize_factors_unavailable_client_falls_back_to_rules():
    annotated = "the dusk[3.00] crash"
    client = ScriptedClient([UnavailableError("transport failed after 4 attempts")])
    summary = summarize_factors(annotated, client, "", BUNDLED)
    assert client.calls == 1
    assert summary.source == "rules"
    env = summary.categories["environmental"].terms
    assert [t.term for t in env] == ["dusk"]


def test_summarize_factors_unavailable_repair_falls_back_to_rules():
    client = ScriptedClient(["not json", UnavailableError("down")])
    summary = summarize_factors("the dusk[3.00] crash", client, "", BUNDLED)
    assert client.calls == 2
    assert summary.source == "rules"


def test_category_lexicon_loads_all_aspects():
    lexicon = load_category_lexicon()
    for cat in (
        "environmental",
        "vehicle_occupant",
        "behavioral",
        "infrastructure",
    ):
        assert lexicon.keywords[cat], cat


@pytest.mark.parametrize(
    "entries, detail",
    [
        ({"environmental": ["dusk", "re:(dusk"]}, "category 'environmental' keyword 1"),
        ({"behavioral": [1, None]}, "category 'behavioral' keyword 0"),
        ({"infrastructure": ["lane", ""]}, "category 'infrastructure' keyword 1"),
        ({"environmental": ["dusk"], "weather": ["rain"]}, "category 'weather' is not an aspect"),
    ],
    ids=["bad-regex", "non-string", "empty", "unknown-key"],
)
def test_category_lexicon_rejects_bad_entries_at_load(tmp_path, entries, detail):
    path = tmp_path / "lexicon.json"  # JSON is YAML
    path.write_text(json.dumps({"categories": entries}))
    with pytest.raises(AnalyticsError, match=detail):
        load_category_lexicon(path)


def test_category_lexicon_rejects_a_key_that_is_not_an_aspect():
    with pytest.raises(AnalyticsError, match="category 'enviromental' is not an aspect"):
        CategoryLexicon({"enviromental": ["dusk"]})


def test_bundled_category_lexicon_keys_are_aspects():
    doc = analytics.load_yaml_section("category_lexicon.yaml", "categories", dict)
    assert doc and set(doc) <= set(ASPECTS)


def test_factor_prompt_names_every_aspect():
    for aspect in ASPECTS:
        assert f'"{aspect}": {{' in analytics.FACTOR_PROMPT, aspect


def test_lexicon_memo_matches_keyword_loop_on_chain_records(chain_annotations):
    lexicon = load_category_lexicon()
    for records in chain_annotations.values():
        for annotated in records:
            plain, words = parse_annotated(annotated)
            assert (plain, words) == parse_annotated_scans(annotated)
            assert rule_based_factors(words, lexicon, "") == rule_based_factors_loop(words, lexicon.keywords)


_annotation_pieces = st.one_of(
    st.sampled_from(WHITESPACE),
    st.text(st.sampled_from("abcDusk.,:[]()-0123456789\u00e9"), min_size=1, max_size=6),
    st.sampled_from(["dusk", "Motorcycle", "intoxication,", "2005", "8:00", "lane.", "rain", "restraint"]),
    st.tuples(st.integers(0, 10**5), st.integers(0, 99)).map(lambda t: f"[{t[0]}.{t[1]:02d}]"),
    st.sampled_from(["[1.0]", "[.50]", "[\u0663.\u0661\u0662]", "[", "]"]),
)


# the bundled regexes are all anchored; these are not, and overlap
_UNANCHORED = CategoryLexicon(
    {
        "environmental": ["re:us", "re:\\d\\.\\d"],
        "behavioral": ["a", "re:k$"],
        "infrastructure": ["us", "re:^[0-9]"],
    }
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_annotation_pieces, max_size=16).map("".join))
def test_parse_and_rules_match_oracles_on_generated_annotations(annotated):
    """Tags mid-word and back to back, multi-digit and non-ASCII-digit scores,
    and non-ASCII whitespace."""
    plain, words = parse_annotated(annotated)
    assert (plain, words) == parse_annotated_scans(annotated)
    for lexicon in (load_category_lexicon(), _UNANCHORED):
        assert rule_based_factors(words, lexicon, "") == rule_based_factors_loop(words, lexicon.keywords)


_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.sampled_from([0.0, 1.0, 2.0, 1.5, -1.0, float("nan"), float("inf"), 1e300]),
    st.sampled_from(["", "dusk", "environmental", "other", "#4e79a7", "#4e79a7\n", "#4E79A7", "red", "#4e79a7 "]),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from(["a", "name"]), st.integers(0, 2), max_size=2),
)


def _integral(low: int, high: int) -> st.SearchStrategy:
    return st.integers(low, high) | st.integers(low, high).map(float)


@st.composite
def _valid_documents(draw) -> dict:
    nodes = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "name": st.sampled_from(["dusk", "impairment"]),
                    "aspect": st.sampled_from(list(ASPECTS)),
                    "count": _integral(1, 3),
                    "color": st.sampled_from(["#4e79a7", "#e15759", "#4e79a7\n"]),
                }
            ),
            min_size=1,
            max_size=4,
        )
    )
    end = _integral(0, len(nodes) - 1)
    links = st.fixed_dictionaries({"source": end, "target": end, "count": _integral(1, 3)})
    return {"nodes": nodes, "links": draw(st.lists(links, max_size=4))}


_DROP = object()


def _edit(part: str, keys: list) -> st.SearchStrategy:
    return st.tuples(st.just(part), st.integers(0, 3), st.sampled_from(keys), _ODD_VALUES | st.just(_DROP))


# (part, item index, key, value): set or drop (_DROP) a key of the document
# or of one node or link, or with key None replace the document or the item
_edits = st.lists(
    _edit("doc", ["nodes", "links", "mystery", None])
    | _edit("nodes", ["name", "aspect", "count", "color", "mystery", None])
    | _edit("links", ["source", "target", "count", "mystery", None]),
    max_size=2,
)


def _edited(doc: dict, edits: list) -> object:
    for part, index, key, value in edits:
        if part == "doc":
            target = doc
        elif isinstance(doc, dict) and isinstance(doc.get(part), list) and doc[part]:
            items = doc[part]
            if key is None:
                items[index % len(items)] = value
                continue
            target = items[index % len(items)]
        else:
            continue
        if key is None:
            doc = value
        elif isinstance(target, dict) and value is _DROP:
            target.pop(key, None)
        elif isinstance(target, dict):
            target[key] = value
    return doc


def _jsonschema_accepts(doc) -> bool:
    if not jsonschema.Draft202012Validator(SANKEY_SCHEMA).is_valid(doc):
        return False
    n = len(doc["nodes"])
    return all(link["source"] < n and link["target"] < n for link in doc["links"])


@settings(max_examples=500, deadline=None)
@given(_valid_documents(), _edits)
def test_validate_sankey_agrees_with_jsonschema(doc, edits):
    """Integral floats count as integers, bools do not, a colour may end in a
    newline, nodes may be non-objects and aspects unhashable; the checker
    raises nothing but ValidationError."""
    doc = _edited(doc, edits)
    try:
        validate_sankey(doc)
        accepted = True
    except ValidationError:
        accepted = False
    assert accepted == _jsonschema_accepts(doc)


def test_sankey_schema_oracle_is_a_valid_schema():
    jsonschema.Draft202012Validator.check_schema(SANKEY_SCHEMA)
