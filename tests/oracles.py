"""Loop implementations kept as test oracles for the vectorized library code.

Each function is the straightforward per-example / per-element version of
a library routine: `distribution_given_window` for the pooled forward of
`refmodel.TinyLM`, `train_loop` and `corpus_nll_loop` for `refmodel.train`,
`occlusion_loop` and `occlusion_variants` (which scores each distinct window
the deletions leave) for `attribution.occlusion_importance`, `taylor_loop`
for `attribution.taylor_importance` and `normalize_scores_bruteforce` for
`attribution.normalize_scores`. `parse_annotated_scans` is the three-scan
`util.parse_annotated`, `rule_based_factors_loop` matches every keyword of
every word as `analytics.rule_based_factors` did before its lexicon
memoized terms, and `SANKEY_SCHEMA` is the JSON Schema that, with its node
range check, `analytics.validate_sankey` must agree with.
`fact_values` lists what `narrator.render` must voice for a case.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Sequence

import numpy as np

from crashlens.analytics import (
    _ASPECT_LABELS,
    _PUNCT_STRIP,
    AspectCategory,
    CategorySummary,
    FactorSummary,
    FactorTerm,
)
from crashlens.narrator import NormalizedCase
from crashlens.refmodel import (
    BOS_ID,
    TinyLM,
    TrainConfig,
    TrainingDivergedError,
    TrainingExample,
    grad_prob_wrt_embeddings,
    prob,
)
from crashlens.util import WordAttribution, strip_annotations


def fact_values(normalized: NormalizedCase) -> list[str]:
    """Every normalized value that the templates are expected to voice."""
    out = list(normalized.fields.values())
    for veh in normalized.vehicles:
        out.extend(veh.fields.values())
        for person in veh.persons:
            out.extend(person.values())
    return out


def distribution_given_window(model: TinyLM, window_embs: np.ndarray) -> np.ndarray:
    """Next-token distribution from the embeddings of one window's tokens,
    the reference forward that finite differences perturb."""
    k = window_embs.shape[0]
    hidden = model.position_weights[:k] @ window_embs
    logits = model.output_weights.T @ hidden + model.output_bias
    logits = logits - logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


def corpus_nll_loop(model: TinyLM, examples: Sequence[TrainingExample]) -> float:
    total = 0.0
    for ex in examples:
        total -= np.log(max(prob(model, ex.context, ex.target), 1e-300))
    return total / len(examples) if examples else 0.0


def train_loop(model: TinyLM, examples: Sequence[TrainingExample], config: TrainConfig) -> TinyLM:
    """One forward and backward pass per example, into dense gradients."""
    m = model.copy()
    m.loss_history = []
    rng = np.random.default_rng(config.seed)
    v, d, w = m.vocab_size, m.dim, m.window

    for epoch in range(config.epochs):
        for idx in rng.permutation(len(examples)):
            ex = examples[idx]
            ids = (list(ex.context) or [BOS_ID])[-w:]
            k = len(ids)
            embs = m.embeddings[ids]
            hidden = m.position_weights[:k] @ embs
            dz = distribution_given_window(m, embs)
            dz[ex.target] -= 1.0  # dNLL/dlogits = p - onehot
            dh = m.output_weights @ dz
            grad_e = np.zeros((v, d))
            for slot, tok in enumerate(ids):
                grad_e[tok] += m.position_weights[slot] * dh
            grad_a = np.zeros(w)
            grad_a[:k] = embs @ dh
            m.embeddings -= config.lr * grad_e
            m.position_weights -= config.lr * grad_a
            m.output_weights -= config.lr * np.outer(hidden, dz)
            m.output_bias -= config.lr * dz
        nll = corpus_nll_loop(m, examples)
        if not np.isfinite(nll):
            raise TrainingDivergedError(epoch)
        m.loss_history.append(nll)
    return m


def occlusion_loop(model: TinyLM, context: Sequence[int], target: int) -> np.ndarray:
    """Scores one variant per context token, n + 1 forward passes."""
    context = list(context)
    variants = [context] + [context[:q] + context[q + 1 :] for q in range(len(context))]
    probs = np.array([prob(model, variant, target) for variant in variants])
    return probs[0] - probs[1:]


def occlusion_variants(model: TinyLM, context: Sequence[int], target: int) -> np.ndarray:
    """The windows that the deletions leave, each distinct one scored once.

    Removing a token before the window leaves the window as it was, and
    removing one inside it pulls the window back by one token, so there are
    at most W + 1 distinct windows; `batch_probs` scores each of them.
    """
    context = list(context)
    n = len(context)
    first = max(n - model.window, 0)
    variants = [context[first:]]
    variants += [context[max(first - 1, 0) : q] + context[q + 1 :] for q in range(first, n)]
    # an empty context reads as <bos>; equal variants are scored once
    distinct: dict[tuple[int, ...], int] = {}
    rows = [distinct.setdefault(tuple(v) or (BOS_ID,), len(distinct)) for v in variants]
    probs = model.batch_probs(list(distinct), target)
    values = np.zeros(n)
    values[first:] = probs[rows[0]] - probs[rows[1:]]
    return values


def taylor_loop(model: TinyLM, context: Sequence[int], target: int) -> np.ndarray:
    """One gradient per context position, dotted with its embedding."""
    grads = grad_prob_wrt_embeddings(model, context, target)
    return np.array([float(np.dot(grad, model.embeddings[tok])) for grad, tok in zip(grads, context)])


def normalize_scores_bruteforce(values, L: int = 100, b: int = 1) -> list[list[int]]:
    """Scalar per-element ceil(L * (v / colmax)), kept where it exceeds b."""
    n = len(values)
    m = len(values[0]) if n else 0
    out = [[0] * m for _ in range(n)]
    for col in range(m):
        colmax = max(values[row][col] for row in range(n))
        if colmax <= 0.0:
            continue
        for row in range(n):
            scaled = math.ceil(L * (values[row][col] / colmax))
            if scaled > b:
                out[row][col] = scaled
    return out


def parse_annotated_scans(annotated: str) -> tuple[str, list[WordAttribution]]:
    """Strip the tags, then pair the words of the plain and annotated texts
    and read each annotated word's trailing tag."""
    plain = strip_annotations(annotated)
    plain_words = list(re.finditer(r"\S+", plain))
    raw_words = [m.group(0) for m in re.finditer(r"\S+", annotated)]
    if len(plain_words) != len(raw_words):
        raise ValueError("annotation structure does not line up with the text")
    tail = re.compile(r"^(.*)\[(\d+\.\d{2})\]$", re.DOTALL)
    words = []
    for span, raw in zip(plain_words, raw_words):
        m = tail.match(raw)
        score = float(m.group(2)) if m else 0.0
        words.append(WordAttribution(word=span.group(0), char_span=span.span(), score=score))
    return plain, words


def _match_keyword(keyword: str, word: str) -> bool:
    if keyword.startswith("re:"):
        return re.search(keyword[3:], word) is not None
    return keyword in word


def rule_based_factors_loop(
    words: Sequence[WordAttribution],
    keywords: Mapping[AspectCategory, Sequence[str]],
    caseno: str = "",
) -> FactorSummary:
    """Every scored word matched against every keyword, category by category."""
    buckets: dict[AspectCategory, dict[str, FactorTerm]] = {cat: {} for cat in AspectCategory}
    for word in words:
        if word.score <= 0:
            continue
        term = word.word.strip(_PUNCT_STRIP)
        if not term:
            continue
        folded = term.lower()
        category = AspectCategory.UNUSUAL
        for cat in AspectCategory:
            if any(_match_keyword(k, folded) for k in keywords.get(cat, ())):
                category = cat
                break
        existing = buckets[category].get(folded)
        if existing is None or word.score > existing.score:
            position = existing.position if existing else word.char_span[0]
            buckets[category][folded] = FactorTerm(
                term=term, score=word.score, position=min(position, word.char_span[0])
            )
    categories = {}
    for cat in AspectCategory:
        terms = sorted(buckets[cat].values(), key=lambda t: (-t.score, t.position))
        label = _ASPECT_LABELS[cat]
        if terms:
            summary = f"Notable {label} terms: {', '.join(t.term for t in terms[:5])}."
        else:
            summary = f"No notable {label} terms."
        categories[cat] = CategorySummary(summary=summary, terms=terms)
    return FactorSummary(caseno=caseno, categories=categories, source="rules")


SANKEY_SCHEMA = {
    "type": "object",
    "required": ["nodes", "links"],
    "additionalProperties": False,
    "properties": {
        "nodes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "aspect", "count", "color"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "aspect": {"enum": [cat.value for cat in AspectCategory]},
                    "count": {"type": "integer", "minimum": 1},
                    "color": {"type": "string", "pattern": "^#[0-9a-f]{6}$"},
                },
            },
        },
        "links": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["source", "target", "count"],
                "additionalProperties": False,
                "properties": {
                    "source": {"type": "integer", "minimum": 0},
                    "target": {"type": "integer", "minimum": 0},
                    "count": {"type": "integer", "minimum": 1},
                },
            },
        },
    },
}
