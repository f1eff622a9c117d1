"""The severity label and the narrative pair: `narrate` writes each pair
with `pair_to_dict`, and every stage after it reads them with `read_pairs`.

They live apart from `schema` and `narrator` so that a stage which only
reads narratives (augment, train-ref, attribute, eval, build-sft) loads
neither the table loader nor the template renderer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

from .util import read_jsonl, string_fields


class Severity(enum.Enum):
    MINOR = "NoApparentOrMinor"
    SEVERE = "SeriousOrFatal"

    @property
    def phrase(self) -> str:
        if self is Severity.MINOR:
            return "No apparent or minor injury"
        return "Serious injury or fatal"

    @classmethod
    def parse(cls, text: str) -> "Severity":
        t = text.strip().lower()
        for sev in cls:
            if t in (sev.value.lower(), sev.phrase.lower()):
                return sev
        raise ValueError(f"unknown severity label {text!r}")


@dataclass(frozen=True)
class NarrativePair:
    caseno: str
    descriptive: str
    outcome: str
    label: Severity


def read_pairs(path: str | Path) -> list[NarrativePair]:
    def pair(d: dict) -> NarrativePair:
        caseno, descriptive, outcome = string_fields(d, "caseno", "descriptive", "outcome")
        return NarrativePair(caseno, descriptive, outcome, Severity(d["label"]))

    return read_jsonl(path, pair)


def pair_to_dict(pair: NarrativePair) -> dict:
    return {
        "caseno": pair.caseno,
        "descriptive": pair.descriptive,
        "outcome": pair.outcome,
        "label": pair.label.value,
    }
