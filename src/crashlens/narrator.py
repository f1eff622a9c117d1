"""Template narration: coded crash cases to plain-English text.

Normalization swaps categorical codes for lexicon phrases and drops
null-marked values; rendering fills clause-level templates so that a missing
optional value elides its clause instead of leaving a blank. Descriptive text
and outcome text are kept in separate sections throughout.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .schema import CrashCase, Severity
from .util import is_null, load_yaml_section, read_jsonl, string_fields

_FORMATTER = string.Formatter()

# an unknown (None) flag has no phrase, so its clause is dropped
_HIT_AND_RUN = {True: "a hit-and-run incident", False: "not a hit-and-run incident"}
_LANE_WORDS = {1: "one-lane", 2: "two-lane", 3: "three-lane", 4: "four-lane", 5: "five-lane", 6: "six-lane"}
_ORDINALS = [
    "first", "second", "third", "fourth", "fifth", "sixth",
    "seventh", "eighth", "ninth", "tenth", "eleventh", "twelfth",
]


class NarratorError(Exception):
    pass


class MissingRequiredSlotError(NarratorError):
    def __init__(self, slot: str, caseno: str):
        super().__init__(f"required slot {slot!r} has no value for case {caseno}")
        self.slot = slot
        self.caseno = caseno


@dataclass(frozen=True)
class Lexicon:
    """Per-field code -> phrase maps."""

    fields: dict[str, dict[str, str]]

    def lookup(self, field_name: str, code: str) -> tuple[str, Optional[str]]:
        """Return (phrase, warning). Unknown codes pass through verbatim."""
        mapping = self.fields.get(field_name, {})
        if code in mapping:
            return mapping[code], None
        return code, f"no {field_name} phrase for code {code!r}; kept verbatim"


@dataclass(frozen=True)
class Clause:
    text: str
    required: bool = False


@dataclass(frozen=True)
class NarrativeTemplate:
    section: str  # descriptive | outcome
    scope: str  # case | vehicle | person
    clauses: tuple[Clause, ...]


@dataclass
class VehicleView:
    fields: dict[str, str]
    persons: list[dict[str, str]]


@dataclass
class NormalizedCase:
    caseno: str
    severity: Severity
    fields: dict[str, str]
    vehicles: list[VehicleView]
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class NarrativePair:
    caseno: str
    descriptive: str
    outcome: str
    label: Severity


def load_lexicon(path: Optional[str | Path] = None) -> Lexicon:
    fields = {}
    for name, codes in load_yaml_section("lexicon.yaml", "fields", dict, path).items():
        if not isinstance(codes, dict):
            raise NarratorError(f"lexicon field {name!r}: not a code -> phrase mapping")
        fields[str(name)] = {str(c): str(p) for c, p in codes.items()}
    return Lexicon(fields=fields)


def load_templates(path: Optional[str | Path] = None) -> list[NarrativeTemplate]:
    templates = []
    for i, entry in enumerate(load_yaml_section("templates.yaml", "templates", list, path)):
        clauses = entry.get("clauses") if isinstance(entry, dict) else None
        if not isinstance(clauses, list) or not all(
            isinstance(c, dict) and isinstance(c.get("text"), str) for c in clauses
        ):
            raise NarratorError(f"template {i}: not a mapping with a list of clauses that have a text")
        section = entry.get("section", "descriptive")
        scope = entry.get("scope", "case")
        if section not in ("descriptive", "outcome"):
            raise NarratorError(f"template {i}: bad section {section!r}")
        if scope not in ("case", "vehicle", "person"):
            raise NarratorError(f"template {i}: bad scope {scope!r}")
        clauses = tuple(
            Clause(text=c["text"], required=bool(c.get("required", False))) for c in clauses
        )
        templates.append(NarrativeTemplate(section=section, scope=scope, clauses=clauses))
    return templates


def _ordinal(i: int) -> str:
    return _ORDINALS[i - 1] if 1 <= i <= len(_ORDINALS) else f"number {i}"


def _article(phrase: str) -> str:
    head = phrase.split()[0] if phrase.split() else ""
    if head[:1].isdigit():
        # spoken forms: "an 8...", "an 11...", "an 18..."
        return "an" if re.match(r"8|11(\D|$)|18(\D|$)", head) else "a"
    return "an" if head[:1].lower() in "aeiou" else "a"


def _fmt_time(hour: int, minute: int) -> str:
    h12 = hour % 12 or 12
    return f"{h12}:{minute:02d} {'AM' if hour < 12 else 'PM'}"


def normalize(case: CrashCase, lexicon: Lexicon) -> NormalizedCase:
    """Resolve codes to phrases, format numerics, and drop null-marked facts.

    Duplicate phrases within one record are kept once; unmapped codes stay
    verbatim with a warning so one bad code cannot sink a batch.
    """
    crash = case.crash
    warnings: list[str] = []
    fields: dict[str, str] = {}
    seen_phrases: set[str] = set()

    def put(name: str, value: object) -> None:
        if value is None:
            return
        text = str(value).strip()
        if is_null(text):
            return
        fields[name] = text

    def lookup(name: str, raw: str) -> str:
        phrase, warn = lexicon.lookup(name, raw)
        if warn:
            warnings.append(f"{crash.caseno}: {warn}")
        return phrase

    def put_phrase(name: str, code: object) -> None:
        if code is None:
            return
        raw = str(code).strip()
        if is_null(raw):
            return
        phrase = lookup(name, raw)
        if phrase in seen_phrases:
            return
        seen_phrases.add(phrase)
        fields[name] = phrase

    dt = crash.occurred_at
    put("date", f"{dt:%B} {dt.day}, {dt.year}")
    put("time", _fmt_time(dt.hour, dt.minute))
    put("weekday", f"{dt:%A}")
    route_kind = "Alternate Route" if "AR" in crash.route_id.upper() else "State Route"
    put("route_title", f"{route_kind} {crash.route_id}")
    put("county", crash.county)
    put("milepost", f"{crash.milepost:g}")
    # the coordinate clause voices both values or neither; storing one side
    # alone would leave an unvoiced fact
    if crash.latitude is not None and crash.longitude is not None:
        put("latitude", f"{crash.latitude:.4f}")
        put("longitude", f"{crash.longitude:.4f}")
    put_phrase("weather", crash.weather)
    put_phrase("surface_condition", crash.surface_condition)
    put_phrase("lighting", crash.lighting)
    put("hit_and_run", _HIT_AND_RUN.get(crash.hit_and_run))
    for col, value in crash.extra.items():
        key = col.strip().lower()
        raw = str(value).strip()
        if is_null(raw):
            continue
        if key in lexicon.fields:
            put_phrase(key, raw)
        else:
            warnings.append(f"{crash.caseno}: unrendered attribute {col!r}")

    seg = case.segment
    if seg is not None:
        road_words = []
        if not is_null(seg.locale):
            road_words.append(lookup("locale", seg.locale.strip()))
        road_words.append(_LANE_WORDS.get(seg.lane_count, f"{seg.lane_count}-lane"))
        road = " ".join(road_words) + " road"
        put("road_description", f"{_article(road)} {road}")
        put("speed_limit", seg.speed_limit)
        put_phrase("surface_type", seg.surface_type)
        if seg.lane_width is not None:
            put("lane_width", f"{seg.lane_width:g}")
        if seg.left_shoulder_width is not None:
            put("left_shoulder_width", f"{seg.left_shoulder_width:g}")
        if seg.right_shoulder_width is not None:
            put("right_shoulder_width", f"{seg.right_shoulder_width:g}")
        put("aadt", f"{seg.aadt:,}")

    outcome = (
        "no apparent or minor injuries"
        if crash.severity is Severity.MINOR
        else "serious injuries or a fatality"
    )
    put("outcome_phrase", outcome)

    vehicles: list[VehicleView] = []
    for i, (veh, persons) in enumerate(case.units, start=1):
        vfields: dict[str, str] = {"ordinal": _ordinal(i)}
        name_words = []
        if veh.model_year is not None:
            name_words.append(str(veh.model_year))
        for part in (veh.make, veh.model):
            if not is_null(part):
                name_words.append(part.strip())
        if name_words:
            desc = " ".join(name_words)
            vfields["description"] = f"{_article(desc)} {desc}"
        raw_moves = str(veh.maneuver).strip()
        if not is_null(raw_moves):
            vfields["maneuver"] = lookup("maneuver", raw_moves)

        person_views: list[dict[str, str]] = []
        for per in persons:
            pf: dict[str, str] = {}
            role_raw = per.role.strip()
            if is_null(role_raw):
                continue
            pf["subject"] = f"{lookup('role', role_raw)} the {_ordinal(i)} vehicle"
            profile_words = []
            if per.age is not None:
                profile_words.append(f"{per.age}-year-old")
            if not is_null(per.sex):
                profile_words.append(lookup("sex", per.sex.strip()))
            elif per.age is not None:
                profile_words.append("person")
            if profile_words:
                profile = " ".join(profile_words)
                pf["profile"] = f"{_article(profile)} {profile}"
            for pname, raw in (
                ("restraint", per.restraint),
                ("airbag", per.airbag),
                ("sobriety", per.sobriety),
            ):
                raw = str(raw).strip()
                if is_null(raw):
                    continue
                pf[pname] = lookup(pname, raw)
            person_views.append(pf)
        vehicles.append(VehicleView(fields=vfields, persons=person_views))

    return NormalizedCase(
        caseno=crash.caseno,
        severity=crash.severity,
        fields=fields,
        vehicles=vehicles,
        warnings=warnings,
    )


def _slot_names(text: str) -> list[str]:
    return [name for _, name, _, _ in _FORMATTER.parse(text) if name]


def _render_sentence(
    template: NarrativeTemplate, values: dict[str, str], caseno: str
) -> Optional[str]:
    parts: list[str] = []
    rendered_slots = False
    for clause in template.clauses:
        names = _slot_names(clause.text)
        missing = [n for n in names if n not in values]
        if missing:
            if clause.required:
                raise MissingRequiredSlotError(missing[0], caseno)
            continue
        parts.append(clause.text.format_map(values))
        if names:
            rendered_slots = True
    # a sentence that voiced no fact is dropped entirely
    if not rendered_slots:
        return None
    return "".join(parts)


def render(case: NormalizedCase, templates: Sequence[NarrativeTemplate]) -> NarrativePair:
    """Fill templates in order, grouping vehicle/person sentences per entity."""
    sections: dict[str, list[str]] = {"descriptive": [], "outcome": []}

    def emit(template: NarrativeTemplate, values: dict[str, str]) -> None:
        sentence = _render_sentence(template, values, case.caseno)
        if sentence is not None:
            sections[template.section].append(sentence)

    i = 0
    while i < len(templates):
        scope = templates[i].scope
        j = i
        while j < len(templates) and templates[j].scope == scope:
            j += 1
        run = templates[i:j]
        if scope == "case":
            for tpl in run:
                emit(tpl, case.fields)
        elif scope == "vehicle":
            for veh in case.vehicles:
                for tpl in run:
                    emit(tpl, veh.fields)
        else:
            for veh in case.vehicles:
                for person in veh.persons:
                    for tpl in run:
                        emit(tpl, person)
        i = j

    return NarrativePair(
        caseno=case.caseno,
        descriptive=" ".join(sections["descriptive"]),
        outcome=" ".join(sections["outcome"]),
        label=case.severity,
    )


def pair_to_dict(pair: NarrativePair) -> dict:
    return {
        "caseno": pair.caseno,
        "descriptive": pair.descriptive,
        "outcome": pair.outcome,
        "label": pair.label.value,
    }


def read_pairs(path: str | Path) -> list[NarrativePair]:
    def pair(d: dict) -> NarrativePair:
        caseno, descriptive, outcome = string_fields(d, "caseno", "descriptive", "outcome")
        return NarrativePair(caseno, descriptive, outcome, Severity(d["label"]))

    return read_jsonl(path, pair)
