"""From per-word attribution scores to aspect factors, a co-occurrence
graph, and two self-contained HTML exports.

Everything here is the offline path: factors come from the bundled
keyword lexicon, grouping from the bundled synonym rules. Swapping in an
LLM summarizer changes one function call, not the data flow.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from crashlens.analytics import (
    cooccurrence,
    export_heatmap,
    export_sankey,
    extract_top_factors,
    load_category_lexicon,
    load_grouping_rules,
    rule_based_factors,
    semantic_group,
)
from crashlens.attribution import (
    aggregate_to_words,
    annotate_narrative,
    normalize_scores,
    occlusion_importance,
)
from crashlens.cli import load_config
from crashlens.narrator import load_lexicon, load_templates, normalize, render
from crashlens.refmodel import BOS_ID, TinyLM, Tokenizer, TrainConfig, TrainingExample, classify, train
from crashlens.schema import integrate, load_tables

OUT = Path(__file__).parent / "out"


def corpus(name: str) -> Path:
    return Path(resources.files("crashlens").joinpath(f"data/corpus/{name}.csv"))


def main() -> None:
    tables = load_tables(
        corpus("crashes"), corpus("segments"), corpus("vehicles"), corpus("persons")
    )
    lexicon, templates = load_lexicon(), load_templates()
    pairs = [render(normalize(c, lexicon), templates) for c in integrate(tables).cases]
    tokenizer = Tokenizer.from_texts([p.descriptive for p in pairs])

    # the chain's model and settings at their defaults, the model from seed 7
    cfg = load_config(None)
    examples = [
        TrainingExample((BOS_ID, *tokenizer.encode(p.descriptive)), tokenizer.label_id(p.label))
        for p in pairs
    ]
    model = train(
        TinyLM.init(tokenizer.size, dim=cfg["dim"], window=cfg["window"], seed=7),
        examples,
        TrainConfig(lr=cfg["lr"], epochs=cfg["epochs"], seed=7),
    )

    rules, category_lexicon = load_grouping_rules(), load_category_lexicon()
    per_case = []
    first_annotated = ""
    for pair in pairs:
        spans = tokenizer.encode_with_spans(pair.descriptive)
        context = [BOS_ID, *(tid for tid, _, _ in spans)]
        dist = model.distribution(context)  # one forward pass for the label and the scores
        label, _ = classify(tokenizer, dist)
        values = occlusion_importance(model, context, tokenizer.label_id(label), dist)
        scores = normalize_scores(values, cfg["L"], cfg["b"])
        words = aggregate_to_words(scores, pair.descriptive, spans, cfg["display_divisor"])
        summary = rule_based_factors(words, category_lexicon, pair.caseno)
        top = extract_top_factors(summary, cfg["top_k"])
        grouped = semantic_group(top, rules)
        per_case.append(grouped)
        if not first_annotated:
            first_annotated = annotate_narrative(pair.descriptive, words)
            print(f"{pair.caseno} top factors by aspect (canonical name in parentheses):")
            for aspect, names in top.items():
                if names:
                    canon = ", ".join(f"{n} ({rules.canonical(n)})" for n in names)
                    print(f"  {aspect:<18} {canon}")

    graph = cooccurrence(per_case)
    print(f"\nco-occurrence graph over {len(per_case)} cases: "
          f"{len(graph.nodes)} nodes, {len(graph.links)} links")
    for link in sorted(graph.links, key=lambda l: -l.count)[:5]:
        src, dst = graph.nodes[link.source], graph.nodes[link.target]
        print(f"  {src.name} <-> {dst.name}: {link.count}")

    OUT.mkdir(exist_ok=True)
    export_sankey(graph, json_path=OUT / "sankey.json", html_path=OUT / "sankey.html")
    export_heatmap(
        first_annotated, threshold_hi=cfg["threshold_hi"], path=OUT / "heatmap.html", caseno=pairs[0].caseno
    )
    print(f"\nwrote {OUT / 'sankey.html'} and {OUT / 'heatmap.html'}")


if __name__ == "__main__":
    main()
