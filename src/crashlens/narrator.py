"""Template narration: coded crash cases to plain-English text.

Normalization swaps categorical codes for lexicon phrases and drops
null-marked values; rendering fills clause-level templates so that a missing
optional value elides its clause instead of leaving a blank. Descriptive text
and outcome text are kept in separate sections throughout.
"""

from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence

from .records import NarrativePair, Severity, read_pairs  # re-exported
from .schema import CrashCase
from .util import CrashlensError, is_null, load_yaml_section

_FORMATTER = string.Formatter()

# an unknown (None) flag has no phrase, so its clause is dropped
_HIT_AND_RUN = {True: "a hit-and-run incident", False: "not a hit-and-run incident"}
_LANE_WORDS = {1: "one-lane", 2: "two-lane", 3: "three-lane", 4: "four-lane", 5: "five-lane", 6: "six-lane"}
_ORDINALS = [
    "first", "second", "third", "fourth", "fifth", "sixth",
    "seventh", "eighth", "ninth", "tenth", "eleventh", "twelfth",
]


class NarratorError(CrashlensError):
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


def _present(value: object) -> Optional[str]:
    """The stripped text of `value`, or None when it is None or null-marked:
    the one rule for whether a raw fact is there to voice."""
    if value is None:
        return None
    text = str(value).strip()
    return None if is_null(text) else text


def normalize(case: CrashCase, lexicon: Lexicon) -> NormalizedCase:
    """Resolve codes to phrases, format numerics, and drop null-marked facts.

    Every raw fact is read through `_present` and every code through
    `phrase`, so an absent one leaves neither a slot nor a warning. Duplicate
    case-level phrases are kept once; unmapped codes stay verbatim with a
    warning so one bad code cannot sink a batch.
    """
    crash = case.crash
    warnings: list[str] = []
    fields: dict[str, str] = {}
    seen_phrases: set[str] = set()

    def put(name: str, value: object) -> None:
        text = _present(value)
        if text is not None:
            fields[name] = text

    def phrase(name: str, code: object) -> Optional[str]:
        raw = _present(code)
        if raw is None:
            return None
        text, warn = lexicon.lookup(name, raw)
        if warn:
            warnings.append(f"{crash.caseno}: {warn}")
        return text

    def put_phrase(name: str, code: object) -> None:
        text = phrase(name, code)
        if text is not None and text not in seen_phrases:
            seen_phrases.add(text)
            fields[name] = text

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
        if key in lexicon.fields:
            put_phrase(key, value)
        elif _present(value) is not None:
            warnings.append(f"{crash.caseno}: unrendered attribute {col!r}")

    seg = case.segment
    if seg is not None:
        lanes = _LANE_WORDS.get(seg.lane_count, f"{seg.lane_count}-lane")
        road = " ".join(w for w in (phrase("locale", seg.locale), lanes, "road") if w is not None)
        put("road_description", f"{_article(road)} {road}")
        put("speed_limit", seg.speed_limit)
        put_phrase("surface_type", seg.surface_type)
        for name in ("lane_width", "left_shoulder_width", "right_shoulder_width"):
            width = getattr(seg, name)
            if width is not None:
                put(name, f"{width:g}")
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
        name_words = [_present(part) for part in (veh.model_year, veh.make, veh.model)]
        desc = " ".join(w for w in name_words if w is not None)
        if desc:
            vfields["description"] = f"{_article(desc)} {desc}"
        maneuver = phrase("maneuver", veh.maneuver)
        if maneuver is not None:
            vfields["maneuver"] = maneuver

        person_views: list[dict[str, str]] = []
        for per in persons:
            role = phrase("role", per.role)
            if role is None:
                continue
            pf: dict[str, str] = {"subject": f"{role} the {_ordinal(i)} vehicle"}
            profile_words = []
            if per.age is not None:
                profile_words.append(f"{per.age}-year-old")
            sex = phrase("sex", per.sex)
            if sex is not None:
                profile_words.append(sex)
            elif per.age is not None:
                profile_words.append("person")
            if profile_words:
                profile = " ".join(profile_words)
                pf["profile"] = f"{_article(profile)} {profile}"
            for pname in ("restraint", "airbag", "sobriety"):
                text = phrase(pname, getattr(per, pname))
                if text is not None:
                    pf[pname] = text
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
    """Fill templates in order. Each run of same-scope templates is filled
    once per entity of that scope (the case, each vehicle, each person), so
    one entity's sentences stay together; a sentence that voices no fact is
    dropped."""
    entities = {
        "case": [case.fields],
        "vehicle": [veh.fields for veh in case.vehicles],
        "person": [person for veh in case.vehicles for person in veh.persons],
    }
    sections: dict[str, list[str]] = {"descriptive": [], "outcome": []}
    for scope, group in itertools.groupby(templates, key=attrgetter("scope")):
        run = list(group)
        for values in entities[scope]:
            for template in run:
                sentence = _render_sentence(template, values, case.caseno)
                if sentence is not None:
                    sections[template.section].append(sentence)

    return NarrativePair(
        caseno=case.caseno,
        descriptive=" ".join(sections["descriptive"]),
        outcome=" ".join(sections["outcome"]),
        label=case.severity,
    )
