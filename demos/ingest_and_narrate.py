"""From four raw CSV tables to plain-English crash narratives.

Runs on the small corpus bundled with the package, so it works offline.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from crashlens.narrator import load_lexicon, load_templates, normalize, render
from crashlens.records import pair_to_dict
from crashlens.schema import Severity, integrate, load_tables, stratified_downsample
from crashlens.util import atomic_write_jsonl

OUT = Path(__file__).parent / "out"


def corpus(name: str) -> Path:
    return Path(resources.files("crashlens").joinpath(f"data/corpus/{name}.csv"))


def main() -> None:
    tables = load_tables(
        corpus("crashes"), corpus("segments"), corpus("vehicles"), corpus("persons")
    )
    print(f"loaded {len(tables.crashes)} crashes, {len(tables.segments)} segments, "
          f"{len(tables.vehicles)} vehicles, {len(tables.persons)} persons "
          f"({len(tables.rejects)} rejected rows)")

    result = integrate(tables)
    report = result.report
    print(f"integrated {len(result.cases)} cases; "
          f"{len(report.orphan_vehicles)} orphan vehicles, "
          f"{len(report.orphan_persons)} orphan persons, "
          f"{len(report.ambiguous_links)} ambiguous segment links")

    minor = sum(1 for c in result.cases if c.crash.severity is Severity.MINOR)
    print(f"class balance: {minor} minor / {len(result.cases) - minor} severe")
    balanced = stratified_downsample(result.cases, 1.0, 7)
    print(f"after 1:1 downsampling (seed 7): {len(balanced)} cases kept")

    lexicon = load_lexicon()
    templates = load_templates()
    pairs = [render(normalize(case, lexicon), templates) for case in result.cases]

    print()
    for pair in pairs[:2]:
        print(f"--- {pair.caseno} [{pair.label.name}]")
        print(pair.descriptive)
        print(pair.outcome)
        print()

    OUT.mkdir(exist_ok=True)
    out = OUT / "narratives.jsonl"
    atomic_write_jsonl(out, [pair_to_dict(p) for p in pairs])
    print(f"wrote {len(pairs)} narrative pairs to {out}")


if __name__ == "__main__":
    main()
