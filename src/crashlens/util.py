"""Small shared helpers."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")


class ParseError(ValueError):
    """A JSONL line that is not a JSON object, or not a valid record."""

    def __init__(self, line: int, detail: str):
        super().__init__(f"line {line}: {detail}")
        self.line = line
        self.detail = detail


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a sibling temp file + rename so readers never see partials."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: str | Path, doc: object) -> None:
    atomic_write_text(path, json.dumps(doc, ensure_ascii=False, indent=2) + "\n")


def atomic_write_jsonl(path: str | Path, records: list[dict]) -> None:
    lines = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    atomic_write_text(path, lines)


def string_fields(doc: dict, *keys: str) -> list[str]:
    """doc[key] for each key; a missing key or a non-string value raises."""
    for key in keys:
        if not isinstance(doc[key], str):
            raise TypeError(f"{key!r} is not a string")
    return [doc[key] for key in keys]


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """Each non-blank line of a JSONL file, as a JSON object passed through
    `parse`. A line that is not a JSON object, or that `parse` rejects with
    a KeyError, TypeError or ValueError, raises ParseError naming the line.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
                records.append(parse(doc))
            except KeyError as exc:
                raise ParseError(i, f"missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ParseError(i, str(exc)) from exc
    return records
