"""Which words made the model call a crash severe?

Two answers to the same question: occlusion (delete a token, watch the
output probability move) and a first-order Taylor estimate from one
gradient pass. The same TinyLM architecture serves twice here, with the
objective picked by the training examples: every prefix of a narrative
followed by its next word, for measuring how well the two methods agree,
and each narrative followed by its label, for the classifier whose
verdicts get annotated.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from crashlens.attribution import (
    aggregate_to_words,
    annotate_narrative,
    normalize_scores,
    occlusion_importance,
    taylor_importance,
)
from crashlens.cli import load_config
from crashlens.narrator import load_lexicon, load_templates, normalize, render
from crashlens.refmodel import BOS_ID, TinyLM, Tokenizer, TrainConfig, TrainingExample, classify, train
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

    # part 1: do the two methods agree where both are live? Measure on a
    # next-token model with sequences short enough to fit its window;
    # outside the window the gradient is exactly zero and any comparison
    # would measure truncation, not agreement.
    print("training next-token model for the agreement check (a few seconds)...")
    lm_examples = []
    for pair in pairs:
        ids = (BOS_ID, *tokenizer.encode(pair.descriptive))
        lm_examples.extend(TrainingExample(ids[:j], ids[j]) for j in range(1, len(ids)))
    lm = train(
        TinyLM.init(tokenizer.size, dim=32, window=32, seed=7),
        lm_examples,
        TrainConfig(lr=0.01, epochs=5, seed=7),
    )
    rng = np.random.default_rng(7)
    rhos = []
    for _ in range(30):
        n = int(rng.integers(11, 24))
        seq = [BOS_ID] + [int(t) for t in rng.integers(5, tokenizer.size, size=n)]
        dist = lm.distribution(seq[:-1])  # one forward pass serves both methods
        occ = occlusion_importance(lm, seq[:-1], seq[-1], dist)
        tay = taylor_importance(lm, seq[:-1], seq[-1], dist)
        rhos.append(float(spearmanr(occ, tay)[0]))
    print(f"median Spearman over 30 in-window sequences: {float(np.median(rhos)):.3f}")

    # part 2: explain a severity verdict and annotate the narrative with the
    # classifier and the scale that `train-ref` and `attribute` default to
    cfg = load_config(None)
    clf_examples = [
        TrainingExample((BOS_ID, *tokenizer.encode(p.descriptive)), tokenizer.label_id(p.label))
        for p in pairs
    ]
    clf = train(
        TinyLM.init(tokenizer.size, dim=cfg["dim"], window=cfg["window"], seed=7),
        clf_examples,
        TrainConfig(lr=cfg["lr"], epochs=cfg["epochs"], seed=7),
    )

    pair = pairs[0]
    spans = tokenizer.encode_with_spans(pair.descriptive)
    context = [BOS_ID, *(tid for tid, _, _ in spans)]
    dist = clf.distribution(context)  # one forward pass for the label and the scores
    label, _ = classify(tokenizer, dist)
    print(f"\n{pair.caseno}: explaining prediction {label.name} "
          f"(only the final {clf.window} tokens are visible to the classifier)")

    # one score per context token; word n of the narrative is token n + 1
    values = occlusion_importance(clf, context, tokenizer.label_id(label), dist)
    scores = normalize_scores(values, cfg["L"], cfg["b"])
    words = aggregate_to_words(scores, pair.descriptive, spans, cfg["display_divisor"])
    annotated = annotate_narrative(pair.descriptive, words)
    print(f"\nannotated narrative (word[score], display scale /{cfg['display_divisor']:g}):\n")
    print(annotated)


if __name__ == "__main__":
    main()
