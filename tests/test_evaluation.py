from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OverlapProbe, ReplyClient
from crashlens.evaluation import (
    SFT_QUESTION,
    SFT_SYSTEM_PROMPT,
    SYSTEM_PROMPT,
    EvaluationError,
    ParseStatus,
    Prediction,
    SftRecord,
    StrategyKind,
    build_prompt,
    build_sft_dataset,
    compute_metrics,
    parse_label,
    render_sft,
    run_evaluation,
    sft_record_to_dict,
    _normalize,
)
from crashlens.narrator import NarrativePair
from crashlens.schema import Severity
from crashlens.util import UnavailableError
from oracles import normalize_regex

MINOR = Severity.MINOR
SEVERE = Severity.SEVERE
ZS = StrategyKind.ZERO_SHOT


def _shot(narrative: str, label: Severity) -> NarrativePair:
    return NarrativePair(caseno=narrative, descriptive=narrative, outcome="", label=label)


def _pred(label, status, caseno="k", raw="r"):
    return Prediction(caseno=caseno, raw_output=raw, label=label, parse_status=status)


# --- prompt construction ---


def test_zero_shot_prompt_layout():
    system, user = build_prompt(ZS, (), "NARRATIVE HERE")
    assert system == SYSTEM_PROMPT
    blocks = user.split("\n\n")
    assert blocks[0] == "You are given a detailed description for a traffic crash."
    assert "classify the severity" in blocks[1]
    assert "'Serious injury or fatal accident'" in blocks[1]
    assert blocks[-1] == "NARRATIVE HERE"


def test_cot_prompt_asks_for_reasoning_first():
    _, user = build_prompt(StrategyKind.CHAIN_OF_THOUGHT, (), "N")
    assert "careful reasoning first" in user
    assert "at the end of your answer" in user


def test_few_shot_prompt_orders_minor_then_severe():
    shots = (_shot("MINOR STORY", MINOR), _shot("SEVERE STORY", SEVERE))
    _, user = build_prompt(StrategyKind.FEW_SHOT, shots, "N")
    assert user.index("MINOR STORY") < user.index("SEVERE STORY")
    assert user.index("MINOR STORY") < user.index("No apparent or minor injury")
    assert user.index("SEVERE STORY") < user.index("Serious injury or fatal\n")
    assert user.endswith("N")


class _CountingClient:
    def __init__(self) -> None:
        self.calls = 0

    def send(self, system: str, user: str, temperature: float) -> str:
        self.calls += 1
        return "No apparent or minor injury"


@pytest.mark.parametrize(
    "kind, shots",
    [
        # few-shot: one minor pair, then one severe pair
        (StrategyKind.FEW_SHOT, (_shot("a", MINOR), _shot("b", MINOR))),
        (StrategyKind.FEW_SHOT, (_shot("a", SEVERE), _shot("b", MINOR))),
        (StrategyKind.FEW_SHOT, (_shot("a", MINOR),)),
        (StrategyKind.FEW_SHOT, (_shot("a", MINOR), _shot("b", SEVERE), _shot("c", SEVERE))),
        (StrategyKind.FEW_SHOT, ()),
        # the other strategies show no shots
        (ZS, (_shot("a", MINOR),)),
        (StrategyKind.CHAIN_OF_THOUGHT, (_shot("a", MINOR), _shot("b", SEVERE))),
    ],
    ids=["both-minor", "severe-first", "one", "three", "none", "zs-with-one", "zs-cot-with-two"],
)
def test_shots_that_do_not_fit_the_strategy_fail_before_any_request(kind, shots):
    client = _CountingClient()
    with pytest.raises(EvaluationError, match=f"^{kind.value} takes shots labelled"):
        run_evaluation(_pairs(), kind, shots, client, 0.0, jobs=1)
    assert client.calls == 0


# --- label parsing ---


def test_parse_exact_phrases():
    assert parse_label("No apparent or minor injury", ZS) == (MINOR, ParseStatus.EXACT)
    assert parse_label("Serious injury or fatal", ZS) == (SEVERE, ParseStatus.EXACT)
    assert parse_label("  serious INJURY or fatal.  ", ZS) == (SEVERE, ParseStatus.EXACT)
    assert parse_label("The answer is: 'No apparent or minor injury'.", ZS) == (
        MINOR,
        ParseStatus.EXACT,
    )


def test_parse_exact_beats_fuzzy():
    label, status = parse_label("Although it sounds serious, I say no apparent or minor injury", ZS)
    assert (label, status) == (MINOR, ParseStatus.EXACT)


def test_parse_first_occurrence_wins_outside_cot():
    text = "No apparent or minor injury... wait, Serious injury or fatal"
    assert parse_label(text, StrategyKind.ZERO_SHOT) == (MINOR, ParseStatus.EXACT)
    assert parse_label(text, StrategyKind.FEW_SHOT) == (MINOR, ParseStatus.EXACT)


def test_parse_last_occurrence_wins_for_cot():
    text = (
        "The two categories are 'No apparent or minor injury' and 'Serious injury "
        "or fatal'. Given the rollover at highway speed, the crash is best "
        "classified as Serious injury or fatal."
    )
    assert parse_label(text, StrategyKind.CHAIN_OF_THOUGHT) == (SEVERE, ParseStatus.EXACT)
    assert parse_label(text, StrategyKind.ZERO_SHOT) == (MINOR, ParseStatus.EXACT)


def test_parse_fuzzy_keywords():
    assert parse_label("this was clearly a serious crash", ZS) == (SEVERE, ParseStatus.FUZZY)
    assert parse_label("probably fatal", ZS) == (SEVERE, ParseStatus.FUZZY)
    assert parse_label("just minor damage", ZS) == (MINOR, ParseStatus.FUZZY)
    assert parse_label("there was no apparent harm", ZS) == (MINOR, ParseStatus.FUZZY)


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        st.one_of(
            # İ lowers to two code points, ß and ﬁ do not split, Arabic-Indic digits are no [0-9]
            st.sampled_from(list("İßﬁ٣٤ \u2028\x1c\x85\t-.,:'Aaz09")),
            st.characters(),
        ),
        max_size=40,
    )
)
def test_normalize_matches_the_regex_oracle(text):
    assert _normalize(text) == normalize_regex(text)


def test_parse_failure_modes():
    assert parse_label("I cannot tell", ZS) == (None, ParseStatus.FAILED)
    assert parse_label("serious but also minor", ZS) == (None, ParseStatus.FAILED)
    assert parse_label("", ZS) == (None, ParseStatus.FAILED)


def test_prediction_invariant():
    _pred(MINOR, ParseStatus.EXACT)
    _pred(None, ParseStatus.FAILED)
    with pytest.raises(EvaluationError):
        _pred(None, ParseStatus.EXACT)
    with pytest.raises(EvaluationError):
        _pred(MINOR, ParseStatus.FAILED)


# --- metrics ---


def _score(confusion: dict[tuple[Severity, Severity], int], failed: dict[Severity, int] = {}):
    preds: list[Prediction] = []
    golds: list[Severity] = []
    for (gold, pred), count in confusion.items():
        for _ in range(count):
            preds.append(_pred(pred, ParseStatus.EXACT))
            golds.append(gold)
    for gold, count in failed.items():
        for _ in range(count):
            preds.append(_pred(None, ParseStatus.FAILED))
            golds.append(gold)
    return compute_metrics(preds, golds)


def test_metrics_on_known_confusion():
    report = _score({(MINOR, MINOR): 20, (MINOR, SEVERE): 5, (SEVERE, MINOR): 10, (SEVERE, SEVERE): 15})
    assert report.total == 50
    assert report.accuracy == pytest.approx(0.7, abs=1e-15)
    minor = report.per_class[MINOR]
    assert minor.precision == pytest.approx(float(Fraction(20, 30)), abs=1e-15)
    assert minor.recall == pytest.approx(float(Fraction(20, 25)), abs=1e-15)
    assert minor.f1 == pytest.approx(float(Fraction(8, 11)), abs=1e-15)
    severe = report.per_class[SEVERE]
    assert severe.f1 == pytest.approx(float(Fraction(2, 3)), abs=1e-15)
    assert report.macro_f1 == pytest.approx(float(Fraction(23, 33)), abs=1e-15)


def test_metrics_always_minor_on_balanced_set():
    report = _score({(MINOR, MINOR): 25, (SEVERE, MINOR): 25})
    assert report.accuracy == pytest.approx(0.5, abs=1e-15)
    assert report.macro_f1 == pytest.approx(float(Fraction(1, 3)), abs=1e-15)
    assert report.per_class[SEVERE].precision == 0.0
    assert report.per_class[SEVERE].recall == 0.0


def test_failed_parses_hurt_accuracy_and_recall_only():
    report = _score(
        {(MINOR, MINOR): 8, (SEVERE, SEVERE): 6},
        failed={MINOR: 2, SEVERE: 4},
    )
    assert report.total == 20
    assert report.n_failed_parses == 6
    assert report.failed_by_gold == {MINOR: 2, SEVERE: 4}
    assert report.accuracy == pytest.approx(0.7, abs=1e-15)
    # precision sees only parsed predictions; recall pays for the failures
    assert report.per_class[MINOR].precision == 1.0
    assert report.per_class[MINOR].recall == pytest.approx(0.8, abs=1e-15)
    assert report.per_class[SEVERE].recall == pytest.approx(0.6, abs=1e-15)
    assert sum(report.confusion.values()) == 14


def test_metrics_are_consistent_with_own_confusion():
    report = _score(
        {(MINOR, MINOR): 13, (MINOR, SEVERE): 3, (SEVERE, MINOR): 7, (SEVERE, SEVERE): 11},
        failed={SEVERE: 2},
    )
    c = report.confusion
    for sev in Severity:
        tp = c[(sev, sev)]
        fp = sum(c[(g, sev)] for g in Severity if g is not sev)
        support = sum(c[(sev, p)] for p in Severity) + report.failed_by_gold[sev]
        m = report.per_class[sev]
        assert abs(m.precision - (tp / (tp + fp) if tp + fp else 0.0)) < 1e-12
        assert abs(m.recall - (tp / support if support else 0.0)) < 1e-12
        denom = m.precision + m.recall
        f1 = 2 * m.precision * m.recall / denom if denom else 0.0
        assert abs(m.f1 - f1) < 1e-12
    assert abs(report.macro_f1 - sum(m.f1 for m in report.per_class.values()) / 2) < 1e-12


def test_metrics_reject_empty_or_mismatched():
    with pytest.raises(EvaluationError):
        compute_metrics([], [])
    with pytest.raises(EvaluationError):
        compute_metrics([_pred(MINOR, ParseStatus.EXACT)], [])


def test_metrics_format_lines():
    report = _score({(MINOR, MINOR): 1, (SEVERE, SEVERE): 1})
    text = report.format()
    assert "accuracy   1.0000" in text
    assert "macro-F1   1.0000" in text
    assert "NoApparentOrMinor" in text


# --- end-to-end with a scripted client ---


class EchoLastWordClient:
    """Answers with a canned completion keyed on the narrative body."""

    def __init__(self, answers: dict[str, str]):
        self.answers = answers

    def send(self, system: str, user: str, temperature: float) -> str:
        narrative = user.rsplit("\n\n", 1)[1]
        return self.answers[narrative]


def _pairs():
    return [
        NarrativePair(caseno="A", descriptive="crash one", outcome="", label=MINOR),
        NarrativePair(caseno="B", descriptive="crash two", outcome="", label=SEVERE),
        NarrativePair(caseno="C", descriptive="crash three", outcome="", label=SEVERE),
    ]


def test_run_evaluation_collects_predictions_and_golds():
    client = EchoLastWordClient(
        {
            "crash one": "No apparent or minor injury",
            "crash two": "Serious injury or fatal",
            "crash three": "hard to say",
        }
    )
    predictions, golds = run_evaluation(_pairs(), ZS, (), client, 0.0, jobs=1)
    assert [p.caseno for p in predictions] == ["A", "B", "C"]
    assert golds == [MINOR, SEVERE, SEVERE]
    assert predictions[0].label is MINOR
    assert predictions[2].parse_status is ParseStatus.FAILED
    report = compute_metrics(predictions, golds)
    assert report.total == 3
    assert report.n_failed_parses == 1
    assert report.accuracy == pytest.approx(2 / 3)


def test_run_evaluation_unavailable_case_costs_only_that_case():
    def answer(user: str) -> str:
        if user.endswith("crash two"):
            raise UnavailableError("transport failed after 4 attempts")
        return "Serious injury or fatal"

    predictions, golds = run_evaluation(
        _pairs(), ZS, (), ReplyClient(answer), 0.0, jobs=1
    )
    assert [p.caseno for p in predictions] == ["A", "B", "C"]
    assert predictions[1].raw_output == ""
    assert predictions[1].label is None
    assert predictions[1].parse_status is ParseStatus.FAILED
    assert predictions[2].label is SEVERE
    report = compute_metrics(predictions, golds)
    assert report.n_failed_parses == 1
    assert report.accuracy == pytest.approx(1 / 3)


def test_run_evaluation_parallel_matches_serial(pairs):
    def answer(user: str) -> str:
        # a pure function of the request, including a few unavailable cases
        if len(user) % 7 == 0:
            raise UnavailableError("down")
        return "Serious injury or fatal" if len(user) % 2 else "no apparent injury, I think"

    cot = StrategyKind.CHAIN_OF_THOUGHT
    serial = run_evaluation(pairs, cot, (), ReplyClient(answer), 0.0, jobs=1)
    probe = OverlapProbe(ReplyClient(answer))
    parallel = run_evaluation(pairs, cot, (), probe, 0.0, jobs=4)
    assert parallel == serial
    assert probe.overlapped
    assert {p.parse_status for p in serial[0]} == set(ParseStatus)


# --- SFT records ---


def test_sft_records_keep_labels_out_of_user():
    records = build_sft_dataset(_pairs())
    for record, pair in zip(records, _pairs()):
        assert record.caseno == pair.caseno
        assert record.system == SFT_SYSTEM_PROMPT
        assert record.user == f"{pair.descriptive}\n\n{SFT_QUESTION}"
        assert record.response == pair.label.phrase
        for phrase in (MINOR.phrase, SEVERE.phrase):
            assert phrase not in record.user


def test_sft_mask_boundary_splits_exactly_before_response():
    records = build_sft_dataset(_pairs())
    for record in records:
        rendered = render_sft(record)
        assert rendered[: record.mask_boundary].endswith(f"{SFT_QUESTION}\n")
        assert rendered[record.mask_boundary :] == record.response


def sft_record_from_dict(doc: dict) -> SftRecord:
    """The record of a dict; its mask boundary follows from the layout."""
    return SftRecord(
        caseno=str(doc["caseno"]),
        system=str(doc["system"]),
        user=str(doc["user"]),
        response=str(doc["response"]),
    )


def test_sft_record_dict_round_trip():
    record = build_sft_dataset(_pairs())[0]
    doc = sft_record_to_dict(record)
    assert sft_record_from_dict(doc) == record
    assert sft_record_to_dict(sft_record_from_dict(doc)) == doc
