"""Narrative rewriting through any `ChatClient`, with verification.

The rewrite itself is untrusted: every completion is checked against
mechanical preservation constraints (numbers, dates/times, proper nouns,
null markers, chronology) and a failing rewrite falls back to the original
text so factual integrity never regresses.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .util import NULL_MARKERS, ChatClient, UnavailableError, bounded_map, check_temperature

# A pattern led by `\b` gives `re` no first character to skip ahead to, so
# each pattern below opens with a digit or a lookahead on its first letters.

# each null marker as a whole word; the empty one cannot show in a text
_MARKERS = sorted(m for m in NULL_MARKERS if m)
# equivalent: every alternative opens with one of the lookahead's letters
NULL_MARKER_RE = re.compile(
    "(?=[%s])(?:%s)"
    % ("".join(sorted({re.escape(m[0]) for m in _MARKERS})), "|".join(rf"\b{re.escape(m)}\b" for m in _MARKERS)),
    re.IGNORECASE,
)

_MONTHS = (
    "January|February|March|April|May|June|July|August|September|October|November|December"
)
# equivalent: every month opens with one of the lookahead's letters
_DATE_RE = re.compile(rf"(?=[ADFJMNOS])\b({_MONTHS})\s+(\d{{1,2}}),\s+(\d{{4}})\b")
# equivalent to `\b(\d{4})`: a digit is a word character, so `\b` before it means no word character does
_ISO_DATE_RE = re.compile(r"(\d(?<!\w\d)\d{3})-(\d{2})-(\d{2})\b")
# `(\d(?<![\w:]\d)\d?)` is `(?<!:)\b(\d{1,2})` in the three clock patterns, for the
# same reason: no match starts inside `12:30:45` (whose `:SS` the two with minutes
# take) or at the minutes of `12:3 PM`
_CLOCK_AMPM_RE = re.compile(r"(\d(?<![\w:]\d)\d?):(\d{2})(?::(\d{2}))?\s*([APap])\.?[Mm]\.?\b")
_CLOCK_RE = re.compile(r"(\d(?<![\w:]\d)\d?):(\d{2})(?::(\d{2}))?\b")
_HOUR_AMPM_RE = re.compile(r"(\d(?<![\w:]\d)\d?)\s*([APap])\.?[Mm]\.?\b")
_NUMBER_RE = re.compile(r"\d+(?:,\d{3})*(?:\.\d+)?")
_MONTH_INDEX = {name: i + 1 for i, name in enumerate(_MONTHS.split("|"))}


class ConstraintKind(enum.Enum):
    NUMBERS = "NumbersPreserved"
    DATES_TIMES = "DatesTimesPreserved"
    PROPER_NOUNS = "ProperNounsPreserved"
    NO_NULL_MARKERS = "NoNullMarkers"
    CHRONOLOGY = "ChronologyPreserved"


SYSTEM_PROMPT = """\
You are a professional editor specializing in rewriting traffic accident \
reports. Rewrite the report you are given as a single fluent narrative, \
improving readability without adding, removing, or altering any fact.

Requirements:
- Keep every numeric value exactly as given (counts, measurements, coordinates, identifiers).
- Keep all dates and times; converting between 12-hour and 24-hour clock forms is acceptable.
- Keep all place names, route names, and other proper nouns verbatim.
- Never write placeholder values such as 'unknown', 'nan', or 'N/A'.
- Relate events in the same chronological order as the original report."""


@dataclass
class ConstraintResult:
    kind: ConstraintKind
    passed: bool
    offending: list[str] = field(default_factory=list)


@dataclass
class ConstraintReport:
    results: list[ConstraintResult]
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(r.passed for r in self.results)

    @property
    def failures(self) -> list[ConstraintResult]:
        return [r for r in self.results if not r.passed]


def _canonical_times(text: str) -> tuple[list[str], str]:
    """Extract time expressions in order as canonical 24h tokens, `THH:MM`
    or, for a time with seconds, `THH:MM:SS`.

    Returns (tokens, residual text with times blanked out) so plain-number
    extraction does not double-count clock digits.
    """
    found: list[tuple[int, str]] = []
    out = text

    def grab(pattern: re.Pattern, to_token: Callable[[re.Match], str]) -> None:
        nonlocal out

        def blank(m: re.Match) -> str:
            found.append((m.start(), to_token(m)))
            # equal length, so offsets stay comparable across passes
            return " " * (m.end() - m.start())

        out = pattern.sub(blank, out)

    def clock_token(hour: int, m: re.Match) -> str:
        seconds = f":{m.group(3)}" if m.group(3) else ""
        return f"T{hour:02d}:{m.group(2)}{seconds}"

    def ampm_token(m: re.Match) -> str:
        hour = int(m.group(1)) % 12
        if m.group(4).lower() == "p":
            hour += 12
        return clock_token(hour, m)

    grab(_CLOCK_AMPM_RE, ampm_token)
    grab(_CLOCK_RE, lambda m: clock_token(int(m.group(1)), m))

    def hour_token(m: re.Match) -> str:
        hour = int(m.group(1)) % 12
        if m.group(2).lower() == "p":
            hour += 12
        return f"T{hour:02d}:00"

    grab(_HOUR_AMPM_RE, hour_token)
    found.sort(key=lambda pair: pair[0])
    return [token for _, token in found], out


def _canonical_dates(text: str) -> list[str]:
    dates = [
        f"D{m.group(3)}-{_MONTH_INDEX[m.group(1)]:02d}-{int(m.group(2)):02d}"
        for m in _DATE_RE.finditer(text)
    ]
    dates.extend(
        f"D{m.group(1)}-{m.group(2)}-{m.group(3)}" for m in _ISO_DATE_RE.finditer(text)
    )
    return dates


@dataclass(frozen=True)
class _TextFacts:
    """What the constraints compare, extracted from one text once."""

    times: list[str]  # canonical clock tokens to the minute, in text order
    numbers: Counter  # plain numbers, plus the clock tokens to the minute
    dates_times: Counter  # dates, plus the clock tokens with their seconds


def _text_facts(text: str) -> _TextFacts:
    """A dropped or changed seconds field fails DatesTimesPreserved alone;
    the other checks read a clock time to the minute."""
    times, residual = _canonical_times(text)
    minutes = [t[: len("THH:MM")] for t in times]
    numbers = Counter(m.group(0).replace(",", "") for m in _NUMBER_RE.finditer(residual))
    numbers.update(minutes)
    return _TextFacts(minutes, numbers, Counter(_canonical_dates(text)) + Counter(times))


_MERIDIEMS = frozenset({"AM", "PM"})


_STRIP = ".,;:!?()'\""
# the whitespace before a token and the token, if its first character past
# leading punctuation may be a capital (`isupper` decides)
_CAP_TOKEN_RE = re.compile(rf"\s([{re.escape(_STRIP)}]*[^\W\d_a-z]\S*)")


def _starts_sentence(text: str, i: int) -> bool:
    """Whether the last non-space character before text[i] ends a
    sentence, or there is none."""
    while i > 0 and text[i - 1].isspace():
        i -= 1
    return i == 0 or text[i - 1] in ".!?"


def _proper_noun_runs(text: str) -> list[str]:
    """Capitalized runs and standalone capitalized words, skipping sentence
    starts. A meridiem ends a run and is never part of one: the clock-form
    constraint owns it.

    A run is capitalized tokens one character apart; trailing punctuation
    ends it.
    """
    runs: list[str] = []
    current: list[str] = []
    end = 0  # where the last token of `current` ends

    def flush() -> None:
        if current:
            runs.append(" ".join(current))
        current.clear()

    padded = " " + text  # so the first token follows whitespace too
    for m in _CAP_TOKEN_RE.finditer(padded):
        word = m.group(1)
        start = m.start(1)
        if current and start != end + 1:
            flush()
        bare = word.strip(_STRIP)
        capitalized = bare[0].isalpha() and bare[0].isupper()
        # the first word of a sentence is capitalized by convention, not meaning
        if not capitalized or bare in _MERIDIEMS or _starts_sentence(padded, start):
            flush()
            continue
        current.append(bare)
        end = m.end()
        if word[-1] in _STRIP:
            flush()
    flush()
    return runs


def verify_preservation(original: str, augmented: str) -> ConstraintReport:
    """Mechanically check each constraint; report offending tokens per failure."""
    orig = _text_facts(original)
    # the facts are a function of the text, so an unchanged rewrite reuses them
    aug = orig if augmented == original else _text_facts(augmented)
    aug_times = iter(aug.times)
    offending = {
        ConstraintKind.NUMBERS: sorted((orig.numbers - aug.numbers).elements()),
        ConstraintKind.DATES_TIMES: sorted((orig.dates_times - aug.dates_times).elements()),
        ConstraintKind.PROPER_NOUNS: [r for r in _proper_noun_runs(original) if r not in augmented],
        ConstraintKind.NO_NULL_MARKERS: [m.group(0) for m in NULL_MARKER_RE.finditer(augmented)],
        # each original time must occur in the rewrite after the previous one's match
        ConstraintKind.CHRONOLOGY: [t for t in orig.times if not any(t == a for a in aug_times)],
    }
    return ConstraintReport([ConstraintResult(k, not offending[k], offending[k]) for k in ConstraintKind])


def augment_batch(
    narratives: Sequence[str],
    client: ChatClient,
    temperature: float,
    jobs: int,
) -> list[tuple[str, ConstraintReport]]:
    """Rewrite a batch, order-preserving.

    A record that is blank (sent no request), whose request fails, whose
    completion is blank or whose rewrite fails verification comes back as
    the byte-identical original, with the report flagging why. A
    temperature outside [0, 2] raises before any request.
    """
    check_temperature(temperature)

    def one(narrative: str) -> tuple[str, ConstraintReport]:
        if not narrative.strip():
            return narrative, ConstraintReport(results=[], error="ValueError: narrative is empty")
        try:
            completion = client.send(SYSTEM_PROMPT, narrative, temperature)
        except UnavailableError as exc:
            return narrative, ConstraintReport(results=[], error=f"UnavailableError: {exc}")
        if not completion.strip():
            return narrative, ConstraintReport(
                results=[], error="EmptyCompletionError: model returned an empty completion"
            )
        report = verify_preservation(narrative, completion)
        return (completion, report) if report.passed else (narrative, report)

    return bounded_map(one, narratives, jobs)
