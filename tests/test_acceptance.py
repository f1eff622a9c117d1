"""Acceptance gate: one test per release criterion.

Each test prints a single `[criterion N]` line with the measured numbers so a
`pytest -v` run doubles as the sign-off report.
"""
from __future__ import annotations

import itertools
import random
import re
import time
from collections import Counter
from datetime import datetime
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import ReplyClient, corpus_path, run_cli
from crashlens.analytics import ASPECTS, cooccurrence, graph_from_json, graph_to_json, validate_sankey
from crashlens.attribution import (
    normalize_scores,
    occlusion_importance,
    taylor_importance,
)
from crashlens.augment import augment_batch
from crashlens.evaluation import (
    ParseStatus,
    Prediction,
    StrategyKind,
    build_prompt,
    build_sft_dataset,
    compute_metrics,
    render_sft,
)
from crashlens.narrator import load_lexicon, load_templates, normalize, render
from crashlens.records import NarrativePair
from crashlens.refmodel import BOS_ID, TinyLM
from crashlens.schema import (
    CrashRecord,
    IntegrationReport,
    RoadSegment,
    Severity,
    integrate,
    link_segment,
    stratified_downsample,
)
from tablegen import random_tables, severity_cases
from oracles import fact_values, grad_prob_wrt_embeddings, normalize_scores_bruteforce
from test_refmodel import fd_gradient

FIXTURES = Path(__file__).parent / "fixtures" / "prompts"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# 1. analytic gradient vs central finite differences


def test_c01_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        vocab = int(rng.integers(6, 14))
        model = TinyLM.init(
            vocab, dim=int(rng.integers(3, 7)), window=8, seed=int(rng.integers(1 << 30))
        )
        context = [BOS_ID] + [int(t) for t in rng.integers(1, vocab, size=int(rng.integers(0, 7)))]
        target = int(rng.integers(0, vocab))
        analytic = grad_prob_wrt_embeddings(model, context, target)
        numeric = fd_gradient(model, context, target, step=1e-4)
        for a, f in zip(analytic, numeric):
            err = np.linalg.norm(f - a) / max(np.linalg.norm(a), 1e-12)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "gradient vs finite differences",
        worst <= 1e-5 and elapsed < 10.0,
        f"100 models, max rel err {worst:.3e}, {elapsed:.2f}s",
    )


# 2. first-order scores track occlusion on the trained reference model


def test_c02_taylor_tracks_occlusion(reference_model, corpus_tokenizer):
    rng = np.random.default_rng(7)
    vocab = corpus_tokenizer.size
    rhos = []
    for _ in range(50):
        n = int(rng.integers(11, 24))
        seq = [BOS_ID] + [int(t) for t in rng.integers(5, vocab, size=n)]
        dist = reference_model.distribution(seq[:-1])  # one forward pass serves both routes
        occ = occlusion_importance(reference_model, seq[:-1], seq[-1], dist)
        tay = taylor_importance(reference_model, seq[:-1], seq[-1], dist)
        rhos.append(float(spearmanr(occ, tay)[0]))
    lo, q1, med, q3, hi = (float(q) for q in np.percentile(rhos, [0, 25, 50, 75, 100]))
    _report(
        2,
        "Spearman(occlusion, taylor)",
        med >= 0.7,
        f"50 sequences, min {lo:.3f} / q1 {q1:.3f} / median {med:.3f} / q3 {q3:.3f} / max {hi:.3f}",
    )


# 3. score normalization is bit-exact against a brute-force rewrite


def test_c03_normalization_bit_exact():
    rng = np.random.default_rng(5150)
    mismatches = 0
    for _ in range(1000):
        rows = int(rng.integers(1, 10))
        cols = int(rng.integers(1, 5))
        scale = float(rng.choice([1e-9, 1e-3, 1.0, 1e3, 1e7]))
        values = rng.normal(scale=scale, size=(rows, cols))
        draw = rng.random()
        if draw < 0.25:
            col = int(rng.integers(cols))
            values[:, col] = -np.abs(values[:, col])
        elif draw < 0.35:
            values[:, int(rng.integers(cols))] = 0.0
        # normalized column by column; each drops its target's 0 row
        ours = np.column_stack([normalize_scores(c, 100, 1).scores[:-1, 0] for c in values.T]).tolist()
        reference = normalize_scores_bruteforce(values.tolist())
        mismatches += ours != reference
    _report(3, "score normalization bit-exact", mismatches == 0, f"1000 matrices, {mismatches} mismatches")


# 4. relational integration vs a nested-loop join oracle


def _oracle_check(tables, result) -> None:
    crash_ids = {c.caseno for c in tables.crashes}
    kept = [v for v in tables.vehicles if v.caseno in crash_ids]
    vehicle_keys = {(v.caseno, v.unit_id) for v in kept}

    assert [c.crash.caseno for c in result.cases] == [c.caseno for c in tables.crashes]
    for case in result.cases:
        expected_units = sorted(
            (v for v in kept if v.caseno == case.crash.caseno), key=lambda v: v.unit_id
        )
        assert [u[0] for u in case.units] == expected_units
        for veh, persons in case.units:
            assert persons == [
                p for p in tables.persons if (p.caseno, p.unit_id) == (veh.caseno, veh.unit_id)
            ]
        matches = [
            s
            for s in tables.segments
            if s.route_id == case.crash.route_id
            and s.from_measure <= case.crash.milepost < s.to_measure
        ]
        assert case.segment == (min(matches, key=lambda s: s.from_measure) if matches else None)
    assert result.report.orphan_vehicles == [v for v in tables.vehicles if v.caseno not in crash_ids]
    assert result.report.orphan_persons == [
        p for p in tables.persons if (p.caseno, p.unit_id) not in vehicle_keys
    ]


def test_c04_integration_matches_join_oracle():
    rng = random.Random(1234)
    for _ in range(100):
        tables = random_tables(rng)
        _oracle_check(tables, integrate(tables))

    segment = RoadSegment(
        route_id="A", from_measure=0.0, to_measure=10.0, lane_count=2, lane_width=12.0,
        left_shoulder_width=4.0, right_shoulder_width=6.0, speed_limit=60,
        surface_type="1", aadt=1000, locale="rural",
    )

    def crash_at(milepost: float) -> CrashRecord:
        return CrashRecord(
            caseno="k", occurred_at=datetime(2022, 6, 29, 20, 0), county="Chelan",
            route_id="A", milepost=milepost, weather="1", lighting="3",
            surface_condition="1", latitude=None, longitude=None,
            hit_and_run=False, severity=Severity.MINOR,
        )

    report = IntegrationReport()
    at_start = link_segment(crash_at(0.0), [segment], report) is segment
    at_end = link_segment(crash_at(10.0), [segment], report) is None
    _report(
        4,
        "integration join oracle",
        at_start and at_end and not report.ambiguous_links,
        "100 random table sets match; boundary half-open",
    )


# 5. stratified downsampling hits the published counts exactly


def test_c05_downsampling_exact_counts():
    cases = severity_cases(n_minor=49648, n_severe=1779)
    first = stratified_downsample(cases, 2654 / 1779, 7)
    second = stratified_downsample(cases, 2654 / 1779, 7)
    minor = sum(1 for c in first if c.crash.severity is Severity.MINOR)
    severe = sum(1 for c in first if c.crash.severity is Severity.SEVERE)
    same = [c.crash.caseno for c in first] == [c.crash.caseno for c in second]
    _report(
        5,
        "stratified downsampling",
        minor == 2654 and severe == 1779 and same,
        f"49648/1779 -> {minor}/{severe}, seed-stable={same}",
    )


# 6. every non-null normalized fact is voiced; no null markers leak


def test_c06_fact_coverage_on_bundled_corpus(cases):
    lexicon = load_lexicon()
    templates = load_templates()
    marker = re.compile(r"\b(nan|unknown)\b|\bn/a\b", re.IGNORECASE)
    total = 0
    missing: list[tuple[str, str]] = []
    leaks = 0
    for case in cases:
        normalized = normalize(case, lexicon)
        pair = render(normalized, templates)
        narrative = f"{pair.descriptive}\n{pair.outcome}"
        for value in fact_values(normalized):
            total += 1
            if value not in narrative:
                missing.append((case.crash.caseno, value))
        leaks += len(marker.findall(narrative))
    _report(
        6,
        "narrative fact coverage",
        not missing and leaks == 0,
        f"{total} facts over {len(cases)} cases, {len(missing)} unvoiced, {leaks} null markers",
    )


# 7. adversarial rewrites always fall back to the byte-identical original


ORIGINAL = (
    "On June 29, 2022, at 8:00 PM, a traffic accident occurred on Alternate "
    "Route 097ARi in Chelan, Washington. The crash site was at milepost 22.4. "
    "The posted speed limit was 60 mph. By 9:15 PM the road had been cleared."
)


def test_c07_augmentation_falls_back_on_adversaries():
    adversaries = {
        "dropped date": lambda s: s.replace("June 29, 2022", "that day"),
        "injected unknown": lambda s: s + " The driver's condition was unknown.",
        "injected n/a": lambda s: s.replace("Chelan", "N/A"),
        "dropped number": lambda s: s.replace("milepost 22.4", "the milepost"),
        "changed number": lambda s: s.replace("60 mph", "65 mph"),
        "dropped proper noun": lambda s: s.replace(" in Chelan, Washington", ""),
        "reordered times": lambda s: s.replace("8:00 PM", "@@")
        .replace("9:15 PM", "8:00 PM")
        .replace("@@", "9:15 PM"),
    }
    fallbacks = 0
    flagged = 0
    for name, adversary in adversaries.items():
        text, report = augment_batch([ORIGINAL], ReplyClient(adversary), 0.1, jobs=1)[0]
        fallbacks += text == ORIGINAL
        flagged += not report.passed and bool(report.failures)
    n = len(adversaries)
    _report(
        7,
        "augmentation fallback",
        fallbacks == n and flagged == n,
        f"{fallbacks}/{n} byte-identical fallbacks, {flagged}/{n} flagged",
    )


# 8. metrics oracle on fixed confusion matrices


def _metrics_for(confusion: dict[tuple[Severity, Severity], int]):
    preds: list[Prediction] = []
    golds: list[Severity] = []
    for (gold, pred), count in confusion.items():
        for _ in range(count):
            preds.append(Prediction(caseno="k", raw_output="r", label=pred, parse_status=ParseStatus.EXACT))
            golds.append(gold)
    return compute_metrics(preds, golds)


def test_c08_metrics_match_hand_computed_values():
    M, S = Severity.MINOR, Severity.SEVERE
    fixtures = [
        ({(M, M): 20, (M, S): 5, (S, M): 10, (S, S): 15}, Fraction(7, 10), Fraction(23, 33)),
        ({(M, M): 25, (S, M): 25}, Fraction(1, 2), Fraction(1, 3)),
        ({(M, M): 10, (S, S): 10}, Fraction(1, 1), Fraction(1, 1)),
        ({(M, M): 3, (M, S): 7, (S, M): 2, (S, S): 8}, Fraction(11, 20), Fraction(13, 25)),
        ({(M, S): 30, (S, S): 10}, Fraction(1, 4), Fraction(1, 5)),
    ]
    worst = 0.0
    for confusion, accuracy, macro_f1 in fixtures:
        report = _metrics_for(confusion)
        worst = max(
            worst,
            abs(report.accuracy - float(accuracy)),
            abs(report.macro_f1 - float(macro_f1)),
        )
    _report(8, "metrics oracle", worst <= 1e-12, f"5 confusion matrices, max deviation {worst:.2e}")


# 9. prompts byte-match their golden files


GOLDEN_NARRATIVE = (
    "On March 3, 2022, at 7:45 AM, a traffic accident occurred on Route 005 in "
    "King, Washington. The crash happened in rainy weather on a wet road "
    "surface under daylight conditions."
)
MINOR_SHOT = NarrativePair(
    caseno="G1",
    descriptive=(
        "On May 1, 2022, at 2:10 PM, a traffic accident occurred on Route 101 in "
        "Clallam, Washington. The vehicle was slowing or stopping in clear weather."
    ),
    outcome="",
    label=Severity.MINOR,
)
SEVERE_SHOT = NarrativePair(
    caseno="G2",
    descriptive=(
        "On December 12, 2022, at 11:30 PM, a traffic accident occurred on Route "
        "090 in Kittitas, Washington. The driver showed evidence of alcohol "
        "involvement under dark conditions."
    ),
    outcome="",
    label=Severity.SEVERE,
)


def test_c09_prompts_match_golden_files():
    plans = [
        (StrategyKind.ZERO_SHOT, "zs", ()),
        (StrategyKind.CHAIN_OF_THOUGHT, "zs-cot", ()),
        (StrategyKind.FEW_SHOT, "fs", (MINOR_SHOT, SEVERE_SHOT)),
    ]
    mismatched = []
    for kind, stem, shots in plans:
        system, user = build_prompt(kind, shots, GOLDEN_NARRATIVE)
        expected = (FIXTURES / f"{stem}.txt").read_text(encoding="utf-8")
        if f"{system}\n===\n{user}" != expected:
            mismatched.append(stem)
    _report(
        9,
        "prompt golden files",
        not mismatched,
        "zs, zs-cot, fs byte-identical" if not mismatched else f"mismatch: {mismatched}",
    )


# 10. co-occurrence graph vs brute-force pair counting


def test_c10_cooccurrence_matches_bruteforce():
    rng = random.Random(2468)
    names = ["dusk", "wet surface", "impairment", "posted speed", "lane change", "traffic volume"]
    aspects = list(ASPECTS)
    checked_links = 0
    for _ in range(200):
        case_sets = []
        for _ in range(rng.randrange(1, 9)):
            case: dict[str, list[str]] = {}
            for aspect in rng.sample(aspects, rng.randrange(1, 5)):
                case[aspect] = [rng.choice(names) for _ in range(rng.randrange(1, 4))]
            case_sets.append(case)
        graph = cooccurrence(case_sets)

        expected: Counter = Counter()
        for case in case_sets:
            items = {(aspect, name) for aspect, terms in case.items() for name in terms}
            for x, y in itertools.combinations(sorted(items, key=str), 2):
                if x[0] != y[0]:
                    expected[frozenset((x, y))] += 1
        got: Counter = Counter()
        for link in graph.links:
            src, dst = graph.nodes[link.source], graph.nodes[link.target]
            got[frozenset(((src.aspect, src.name), (dst.aspect, dst.name)))] = link.count
        assert got == expected
        checked_links += len(graph.links)

        doc = graph_to_json(graph)
        validate_sankey(doc)
        assert graph_from_json(doc) == graph
    _report(
        10,
        "co-occurrence oracle",
        True,
        f"200 factor sets, {checked_links} links verified, schema round-trip ok",
    )


# 11. the offline pipeline is byte-deterministic and fast


def _run_chain(d: Path) -> None:
    steps = [
        [
            "ingest",
            "--crashes", str(corpus_path("crashes")),
            "--segments", str(corpus_path("segments")),
            "--vehicles", str(corpus_path("vehicles")),
            "--persons", str(corpus_path("persons")),
            "--out", str(d / "cases.jsonl"),
        ],
        ["narrate", "--cases", str(d / "cases.jsonl"), "--out", str(d / "narratives.jsonl")],
        [
            "train-ref",
            "--narratives", str(d / "narratives.jsonl"),
            "--out-model", str(d / "model.json"),
            "--out-tokenizer", str(d / "tok.json"),
            "--seed", "7", "--epochs", "12", "--window", "32",
        ],
        [
            "attribute",
            "--narratives", str(d / "narratives.jsonl"),
            "--model", str(d / "model.json"),
            "--tokenizer", str(d / "tok.json"),
            "--method", "occlusion",
            "--out", str(d / "attributions.jsonl"),
        ],
        [
            "analyze", "--offline",
            "--attributions", str(d / "attributions.jsonl"),
            "--out", str(d / "factors.jsonl"),
            "--graph-out", str(d / "graph.json"),
        ],
        ["export", "--kind", "sankey", "--graph", str(d / "graph.json"), "--out", str(d / "sankey.html")],
        [
            "export", "--kind", "heatmap",
            "--attributions", str(d / "attributions.jsonl"),
            "--caseno", "C0001",
            "--out", str(d / "heatmap.html"),
        ],
    ]
    for args in steps:
        code, out = run_cli(args)
        assert code == 0, f"{args[0]} failed: {out}"


def test_c11_pipeline_is_deterministic(tmp_path):
    start = time.perf_counter()
    for name in ("r1", "r2"):
        d = tmp_path / name
        d.mkdir()
        _run_chain(d)
    elapsed = time.perf_counter() - start
    names = sorted(p.name for p in (tmp_path / "r1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "r2").iterdir())
    diffs = [
        n for n in names
        if (tmp_path / "r1" / n).read_bytes() != (tmp_path / "r2" / n).read_bytes()
    ]
    _report(
        11,
        "pipeline determinism",
        not diffs and elapsed < 60.0,
        f"{len(names)} files byte-identical across runs, {elapsed:.1f}s for both",
    )


# 12. instruction-tuning records never leak the label into the user turn


def test_c12_sft_dataset_has_no_label_leakage(pairs):
    records = build_sft_dataset(pairs)
    assert len(records) == len(pairs)
    label_strings = ("no apparent or minor injury", "serious injury or fatal")
    leaks = 0
    bad_boundaries = 0
    for record in records:
        lowered = record.user.lower()
        leaks += any(phrase in lowered for phrase in label_strings)
        rendered = render_sft(record)
        if not (0 < record.mask_boundary < len(rendered)) or rendered[record.mask_boundary:] != record.response:
            bad_boundaries += 1
    _report(
        12,
        "SFT leakage scan",
        leaks == 0 and bad_boundaries == 0,
        f"{len(records)} records, {leaks} label leaks, {bad_boundaries} bad mask boundaries",
    )
