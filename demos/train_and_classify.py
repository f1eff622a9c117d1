"""Train the small reference model to predict severity labels.

The model is a windowed bag-of-embeddings next-token predictor in pure
numpy. Training it to predict one label token after each narrative, and
nothing else, turns it into a classifier; the window has to be
wide enough that narratives sharing a tail but not a label stay apart.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from crashlens.cli import load_config
from crashlens.narrator import load_lexicon, load_templates, normalize, render
from crashlens.refmodel import (
    BOS_ID,
    TinyLM,
    Tokenizer,
    TrainConfig,
    TrainingExample,
    classify,
    train,
)
from crashlens.schema import integrate, load_tables


def corpus(name: str) -> Path:
    return Path(resources.files("crashlens").joinpath(f"data/corpus/{name}.csv"))


def main() -> None:
    tables = load_tables(
        corpus("crashes"), corpus("segments"), corpus("vehicles"), corpus("persons")
    )
    lexicon, templates = load_lexicon(), load_templates()
    pairs = [render(normalize(c, lexicon), templates) for c in integrate(tables).cases]

    tokenizer = Tokenizer.from_texts([p.descriptive for p in pairs])
    print(f"vocabulary: {tokenizer.size} tokens")

    # the one target of each example is the label after the narrative
    examples = [
        TrainingExample((BOS_ID, *tokenizer.encode(p.descriptive)), tokenizer.label_id(p.label))
        for p in pairs
    ]

    # the model `train-ref` builds at its default settings, here from seed 7
    cfg = load_config(None)
    model = TinyLM.init(tokenizer.size, dim=cfg["dim"], window=cfg["window"], seed=7)
    trained = train(model, examples, TrainConfig(lr=cfg["lr"], epochs=cfg["epochs"], seed=7))
    history = trained.loss_history
    print(f"label NLL: {history[0]:.4f} (epoch 1) -> {history[-1]:.4f} (epoch {len(history)})")

    # a decode reads the label tokens off one forward pass after the narrative
    traces = [classify(tokenizer, trained.distribution(ex.context)) for ex in examples]
    hits = 0
    for pair, (label, trace) in zip(pairs, traces):
        hits += label is pair.label
        if trace.tie:
            print(f"  tie on {pair.caseno}, defaulted to minor")
    print(f"training-set accuracy: {hits}/{len(pairs)}")

    sample = pairs[0]
    label, trace = traces[0]
    print(f"\n{sample.caseno}: predicted {label.name}, gold {sample.label.name}")
    for sev, score in trace.log_scores.items():
        print(f"  log p({sev.name}) = {score:.3f}")


if __name__ == "__main__":
    main()
