"""Small shared helpers."""

from __future__ import annotations

import enum
import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Protocol, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Raw values that mean "no value", compared after strip() and lower().
NULL_MARKERS = frozenset({"", "nan", "unknown", "n/a"})

_TAG_RE = re.compile(r"\[(\d+\.\d{2})\]")


class StrategyKind(enum.Enum):
    """The prompting strategies of `evaluation`; defined here so the CLI can
    list them without importing that module."""

    ZERO_SHOT = "zs"
    CHAIN_OF_THOUGHT = "zs-cot"
    FEW_SHOT = "fs"


class CrashlensError(Exception):
    """Base of the package's own errors: the CLI reports each as one JSON
    line on stderr with exit 1."""


class UnavailableError(CrashlensError):
    """A chat request that got no usable completion."""


class ChatClient(Protocol):
    """`send` returns the completion or raises UnavailableError."""

    def send(self, system: str, user: str, temperature: float) -> str: ...


class StubChatClient:
    """Offline client: the reply echoes the user message, so it passes every preservation check."""

    def send(self, system: str, user: str, temperature: float) -> str:
        return user


def check_temperature(temperature: float) -> None:
    """A chat temperature outside [0, 2] raises ValueError."""
    if not 0.0 <= temperature <= 2.0:
        raise ValueError(f"temperature {temperature} outside [0, 2]")


class ParseError(ValueError):
    """A JSONL line that is not a JSON object, or not a valid record."""

    def __init__(self, line: int, detail: str):
        super().__init__(f"line {line}: {detail}")
        self.line = line
        self.detail = detail


def is_null(raw: str) -> bool:
    return raw.strip().lower() in NULL_MARKERS


def parse_yaml(text: str) -> Any:
    """The YAML document `text` holds, parsed by libyaml when PyYAML is
    built with it; the data files and the CLI config both read through it."""
    import yaml

    return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_yaml_section(name: str, key: str, kind: type, path: Optional[str | Path] = None) -> Any:
    """The one section of a YAML data file: `path`, or the bundled file `name`.

    The document must be a mapping whose only key is `key`, holding a `kind`
    (dict or list); anything else raises ValueError.
    """
    if path is None:
        from importlib import resources

        raw = resources.files("crashlens.data").joinpath(name).read_text("utf-8")
    else:
        raw = Path(path).read_text("utf-8")
    doc = parse_yaml(raw)
    if not isinstance(doc, dict) or list(doc) != [key] or not isinstance(doc[key], kind):
        raise ValueError(
            f"{path or name} must be a mapping whose only key is {key!r}, holding a {kind.__name__}"
        )
    return doc[key]


def bounded_map(fn: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    """`[fn(x) for x in items]` on at most `jobs` threads, in input order;
    fewer than one job raises before any call. With one worker no thread
    pool is started."""
    if jobs < 1:
        raise ValueError(f"need jobs >= 1; got {jobs}")
    workers = max(1, min(jobs, len(items)))
    if workers == 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def atomic_write(path: str | Path, chunks: Iterable[str]) -> None:
    """Write `chunks` one by one into a sibling temp file, then rename it over
    `path`, so readers never see partials. If producing a chunk raises, the
    temp file is removed and `path` is left as it was."""
    import tempfile

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write(path, (text,))


def atomic_write_json(path: str | Path, doc: object) -> None:
    atomic_write_text(path, json.dumps(doc, ensure_ascii=False, indent=2) + "\n")


def atomic_write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One JSON line per record, written as `records` yields them."""
    atomic_write(path, (json.dumps(r, ensure_ascii=False) + "\n" for r in records))


def string_fields(doc: dict, *keys: str) -> list[str]:
    """doc[key] for each key; a missing key or a non-string value raises."""
    for key in keys:
        if not isinstance(doc[key], str):
            raise TypeError(f"{key!r} is not a string")
    return [doc[key] for key in keys]


def iter_jsonl(path: str | Path, parse: Callable[[dict], T]) -> Iterator[T]:
    """Each non-blank line of a JSONL file, as a JSON object passed through
    `parse`, read as the caller asks for it. A line that is not a JSON
    object, or that `parse` rejects with a KeyError, TypeError or
    ValueError, raises ParseError naming the line.
    """
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
                record = parse(doc)
            except KeyError as exc:
                raise ParseError(i, f"missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ParseError(i, str(exc)) from exc
            yield record


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """Every record of `iter_jsonl`."""
    return list(iter_jsonl(path, parse))


class WordAttribution(NamedTuple):
    word: str
    char_span: tuple[int, int]
    score: float


def annotate_narrative(narrative: str, words: Sequence[WordAttribution]) -> str:
    """Append [score] after each given word; scores render with two decimals."""
    ordered = sorted(words, key=lambda w: w.char_span)
    parts: list[str] = []
    cursor = 0
    for word in ordered:
        _, end = word.char_span
        parts.append(narrative[cursor:end])
        parts.append(f"[{word.score:.2f}]")
        cursor = end
    parts.append(narrative[cursor:])
    return "".join(parts)


def parse_annotated(annotated: str) -> tuple[str, list[WordAttribution]]:
    """Invert annotate_narrative: the plain text and the words that carry a score.

    The plain text drops each tag that follows a non-space, so no word vanishes
    (a lone tag stays a word). Each word whose annotated form ends in a tag
    comes back with its span in the plain text and that tag's score."""
    parts, tagged = [], []
    cursor = removed = prev_end = token_start = token_removed = 0  # `removed`: tag characters dropped
    for m in _TAG_RE.finditer(annotated):
        s, e = m.span()
        start = s  # walk back to the word's start, or to the previous tag inside it
        while start > prev_end and not annotated[start - 1].isspace():
            start -= 1
        if start > prev_end:  # a new word; the tag characters dropped before it
            token_start, token_removed = start, removed
        if s > token_start:  # the tag follows a non-space: not part of the text
            parts.append(annotated[cursor:s])
            cursor, removed = e, removed + e - s
        if e == len(annotated) or annotated[e].isspace():
            tagged.append((token_start - token_removed, e - removed, float(m[1])))
        prev_end = e
    plain = "".join(parts) + annotated[cursor:]
    return plain, [WordAttribution(plain[a:b], (a, b), score) for a, b, score in tagged]
