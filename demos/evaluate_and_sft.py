"""Prompted severity classification and the instruction-tuning dataset.

A scripted client stands in for a live model: it answers from a crude
keyword rule and garbles one answer on purpose, so the parse tiers and
the failed-parse accounting in the metrics are visible. The same
narrative pairs then become loss-masked SFT records.
"""
from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from crashlens.cli import load_config
from crashlens.evaluation import (
    StrategyKind,
    build_prompt,
    build_sft_dataset,
    compute_metrics,
    render_sft,
    run_evaluation,
    sft_record_to_dict,
)
from crashlens.narrator import load_lexicon, load_templates, normalize, render
from crashlens.schema import integrate, load_tables

OUT = Path(__file__).parent / "out"


def corpus(name: str) -> Path:
    return Path(resources.files("crashlens").joinpath(f"data/corpus/{name}.csv"))


class KeywordClient:
    """Offline stand-in: severe iff the narrative smells severe."""

    def __init__(self) -> None:
        self.calls = 0

    def send(self, system: str, user: str, temperature: float) -> str:
        self.calls += 1
        if self.calls == 13:  # one deliberately unparseable answer
            return "It is hard to tell from the description."
        narrative = user.rsplit("\n\n", 1)[1].lower()
        impaired = "there was evidence of alcohol" in narrative
        dark = "under dark conditions" in narrative
        hit_run = "was a hit-and-run incident" in narrative
        severe = "motorcycle" in narrative or (impaired and (dark or hit_run)) or (dark and hit_run)
        return "Serious injury or fatal accident" if severe else "No apparent or minor injury"


def main() -> None:
    tables = load_tables(
        corpus("crashes"), corpus("segments"), corpus("vehicles"), corpus("persons")
    )
    lexicon, templates = load_lexicon(), load_templates()
    pairs = [render(normalize(c, lexicon), templates) for c in integrate(tables).cases]

    kind = StrategyKind.ZERO_SHOT  # zero-shot shows no example pairs, so its shots are ()
    system, user = build_prompt(kind, (), pairs[0].descriptive)
    print("zero-shot prompt for the first case:")
    print(f"  [system] {system}")
    print("  [user]   " + user.replace("\n", "\n           "))
    print()

    client = KeywordClient()
    # `eval`'s default temperature; one job, since the client counts its calls
    temperature = load_config(None)["temperature"]
    predictions, golds = run_evaluation(pairs, kind, (), client, temperature, jobs=1)
    report = compute_metrics(predictions, golds)
    print(report.format())

    OUT.mkdir(exist_ok=True)
    records = build_sft_dataset(pairs)
    with open(OUT / "sft.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(sft_record_to_dict(record), ensure_ascii=False) + "\n")
    print(f"\nwrote {len(records)} SFT records to {OUT / 'sft.jsonl'}")

    record = records[0]
    rendered = render_sft(record)
    print(f"\nsample record ({record.caseno}), loss mask opens at byte {record.mask_boundary}:")
    print(f"  trained on: {rendered[record.mask_boundary:]!r}")


if __name__ == "__main__":
    main()
