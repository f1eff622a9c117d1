"""Severity-classification evaluation harness.

Builds zero-shot, chain-of-thought, and few-shot prompts, parses free-text
completions back into severity labels, scores predictions, and emits masked
supervised fine-tuning records. A few-shot prompt shows two narrative pairs
(`shots`), a minor one and then a severe one; the other strategies show none.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .records import NarrativePair, Severity
from .util import ChatClient, CrashlensError, UnavailableError, bounded_map, check_temperature
from .util import StrategyKind  # re-exported; in util so the CLI parser need not import this module

SYSTEM_PROMPT = "You are a professional road safety engineer."

_TASK_LINE = "You are given a detailed description for a traffic crash."
_CLASSIFY_LINE = (
    "Please classify the severity of the crash into one of two categories: "
    "'No apparent or minor injury', 'Serious injury or fatal accident'."
)
_CLASSIFY_LINE_SHORT = (
    "Please classify the severity of the crash into one of two categories: "
    "'No apparent or minor injury', 'Serious injury or fatal'."
)
_OUTPUT_LINE = "You can only output one of the classification result in your answer."
_COT_CLASSIFY_LINE = (
    "Please analyze this traffic crash with careful reasoning first, and then "
    "classify the severity of the crash into one of the two categories: "
    "'No apparent or minor injury', 'Serious injury or fatal accident'."
)
_COT_OUTPUT_LINE = (
    "You can only output one of the classification result at the end of your answer."
)
_FEW_SHOT_HEADER = "Here are two examples of traffic crashes and their severity classification:"

SFT_SYSTEM_PROMPT = (
    "You are a professional road safety engineer. Classify the severity of the "
    "crash into one of two categories: 'No apparent or minor injury', "
    "'Serious injury or fatal'."
)
SFT_QUESTION = "What is the severity of this crash?"


class EvaluationError(CrashlensError):
    pass


class ParseStatus(enum.Enum):
    EXACT = "exact"
    FUZZY = "fuzzy"
    FAILED = "failed"


def _check_shots(kind: StrategyKind, shots: Sequence[NarrativePair]) -> None:
    """A few-shot prompt takes a minor pair and then a severe one; the
    other strategies take none."""
    wanted = (Severity.MINOR, Severity.SEVERE) if kind is StrategyKind.FEW_SHOT else ()
    got = tuple(shot.label for shot in shots)
    if got != wanted:
        raise EvaluationError(
            f"{kind.value} takes shots labelled {[s.value for s in wanted]}, not {[s.value for s in got]}"
        )


def build_prompt(kind: StrategyKind, shots: Sequence[NarrativePair], narrative: str) -> tuple[str, str]:
    """Return (system, user). The narrative is appended after a blank line;
    a few-shot prompt shows its (minor, severe) `shots` before the task."""
    if kind is StrategyKind.ZERO_SHOT:
        blocks = [_TASK_LINE, _CLASSIFY_LINE, _OUTPUT_LINE]
    elif kind is StrategyKind.CHAIN_OF_THOUGHT:
        blocks = [_TASK_LINE, _COT_CLASSIFY_LINE, _COT_OUTPUT_LINE]
    else:
        minor, severe = shots
        blocks = [
            _FEW_SHOT_HEADER,
            minor.descriptive,
            minor.label.phrase,
            severe.descriptive,
            severe.label.phrase,
            _TASK_LINE,
            _CLASSIFY_LINE_SHORT,
            _OUTPUT_LINE,
        ]
    blocks.append(narrative)
    return SYSTEM_PROMPT, "\n\n".join(blocks)


_MINOR_PHRASE = Severity.MINOR.phrase.lower()
_SEVERE_PHRASE = Severity.SEVERE.phrase.lower()
_SEVERE_WORDS = ("serious", "fatal")
_MINOR_WORDS = ("minor",)


class _Keep(dict):
    """A `str.translate` table: [0-9a-z] stay, any other code point becomes a
    space, cached the first time it is seen."""

    def __missing__(self, code: int) -> str:
        self[code] = " "
        return " "


_KEEP = _Keep({ord(c): c for c in "0123456789abcdefghijklmnopqrstuvwxyz"})


def _normalize(text: str) -> str:
    """Lower-case words of [0-9a-z] only, single-spaced."""
    return " ".join(text.lower().translate(_KEEP).split())


def _phrase_positions(text: str, phrase: str) -> list[int]:
    padded = f" {text} "
    target = f" {phrase} "
    positions = []
    start = 0
    while True:
        i = padded.find(target, start)
        if i < 0:
            return positions
        positions.append(i)
        start = i + 1


def parse_label(raw_output: str, kind: StrategyKind) -> tuple[Optional[Severity], ParseStatus]:
    """Two tiers: exact category phrases, then severity keywords.

    Chain-of-thought replies restate the categories while reasoning, so for
    that strategy the last phrase occurrence decides; otherwise the first.
    Ambiguous or absent keyword evidence fails the parse.
    """
    text = _normalize(raw_output)
    hits = [(pos, Severity.MINOR) for pos in _phrase_positions(text, _MINOR_PHRASE)]
    hits += [(pos, Severity.SEVERE) for pos in _phrase_positions(text, _SEVERE_PHRASE)]
    if hits:
        decider = max if kind is StrategyKind.CHAIN_OF_THOUGHT else min
        return decider(hits)[1], ParseStatus.EXACT
    words = set(text.split())
    severe_hit = any(w in words for w in _SEVERE_WORDS)
    minor_hit = any(w in words for w in _MINOR_WORDS) or bool(
        _phrase_positions(text, "no apparent")
    )
    if severe_hit == minor_hit:
        return None, ParseStatus.FAILED
    return (Severity.SEVERE if severe_hit else Severity.MINOR), ParseStatus.FUZZY


@dataclass(frozen=True)
class Prediction:
    caseno: str
    raw_output: str
    label: Optional[Severity]
    parse_status: ParseStatus

    def __post_init__(self):
        if (self.label is None) != (self.parse_status is ParseStatus.FAILED):
            raise EvaluationError("parse_status failed exactly when no label was parsed")


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    total: int
    n_failed_parses: int
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: dict[Severity, ClassMetrics]
    confusion: dict[tuple[Severity, Severity], int]
    failed_by_gold: dict[Severity, int]

    def format(self) -> str:
        lines = [
            f"cases      {self.total}",
            f"failed     {self.n_failed_parses}",
            f"accuracy   {self.accuracy:.4f}",
            f"macro-P    {self.macro_precision:.4f}",
            f"macro-R    {self.macro_recall:.4f}",
            f"macro-F1   {self.macro_f1:.4f}",
        ]
        for sev in Severity:
            m = self.per_class[sev]
            lines.append(
                f"{sev.value:<22} P {m.precision:.4f}  R {m.recall:.4f}  "
                f"F1 {m.f1:.4f}  n={m.support}"
            )
        return "\n".join(lines)


def compute_metrics(
    predictions: Sequence[Prediction], golds: Sequence[Severity]
) -> MetricsReport:
    """Failed parses count against accuracy and the gold class's recall but
    never enter the confusion matrix."""
    if not predictions:
        raise EvaluationError("no predictions to score")
    if len(predictions) != len(golds):
        raise EvaluationError("predictions and golds differ in length")
    confusion: dict[tuple[Severity, Severity], int] = {
        (g, p): 0 for g in Severity for p in Severity
    }
    failed_by_gold = {sev: 0 for sev in Severity}
    for pred, gold in zip(predictions, golds):
        if pred.label is None:
            failed_by_gold[gold] += 1
        else:
            confusion[(gold, pred.label)] += 1
    per_class = {}
    for sev in Severity:
        tp = confusion[(sev, sev)]
        fp = sum(confusion[(g, sev)] for g in Severity if g is not sev)
        support = sum(confusion[(sev, p)] for p in Severity) + failed_by_gold[sev]
        fn = support - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[sev] = ClassMetrics(precision=precision, recall=recall, f1=f1, support=support)
    total = len(predictions)
    correct = sum(confusion[(sev, sev)] for sev in Severity)
    n_classes = len(Severity)
    return MetricsReport(
        total=total,
        n_failed_parses=sum(failed_by_gold.values()),
        accuracy=correct / total,
        macro_precision=sum(m.precision for m in per_class.values()) / n_classes,
        macro_recall=sum(m.recall for m in per_class.values()) / n_classes,
        macro_f1=sum(m.f1 for m in per_class.values()) / n_classes,
        per_class=per_class,
        confusion=confusion,
        failed_by_gold=failed_by_gold,
    )


def run_evaluation(
    pairs: Sequence[NarrativePair],
    kind: StrategyKind,
    shots: Sequence[NarrativePair],
    client: ChatClient,
    temperature: float,
    jobs: int,
) -> tuple[list[Prediction], list[Severity]]:
    """One prediction per pair, in order; an unavailable client costs only
    that case, which is recorded as an empty completion (a failed parse).
    A temperature outside [0, 2], as in `augment`, or `shots` that do not
    fit `kind` fail before any request."""
    check_temperature(temperature)
    _check_shots(kind, shots)

    def predict(pair: NarrativePair) -> Prediction:
        system, user = build_prompt(kind, shots, pair.descriptive)
        try:
            completion = client.send(system, user, temperature)
        except UnavailableError:
            completion = ""
        label, status = parse_label(completion, kind)
        return Prediction(caseno=pair.caseno, raw_output=completion, label=label, parse_status=status)

    return bounded_map(predict, pairs, jobs), [pair.label for pair in pairs]


@dataclass(frozen=True)
class SftRecord:
    caseno: str
    system: str
    user: str
    response: str

    @property
    def mask_boundary(self) -> int:
        """Where the response starts in `render_sft(self)`: the loss covers
        only what follows it."""
        return len(render_sft(self)) - len(self.response)


def render_sft(record: SftRecord) -> str:
    """The one layout of a record: system, user and response, one line break apart."""
    return f"{record.system}\n{record.user}\n{record.response}"


def build_sft_dataset(pairs: Sequence[NarrativePair]) -> list[SftRecord]:
    """Question side stays label-free; the category names live in the system
    prompt so the response is the only place a label string appears."""
    return [
        SftRecord(
            caseno=pair.caseno,
            system=SFT_SYSTEM_PROMPT,
            user=f"{pair.descriptive}\n\n{SFT_QUESTION}",
            response=pair.label.phrase,
        )
        for pair in pairs
    ]


def sft_record_to_dict(record: SftRecord) -> dict:
    return {
        "caseno": record.caseno,
        "system": record.system,
        "user": record.user,
        "response": record.response,
        "mask_boundary": record.mask_boundary,
    }
