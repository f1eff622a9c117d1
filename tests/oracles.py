"""Loop implementations kept as test oracles for the vectorized library code.

Each function is the straightforward per-example / per-element version of
a library routine: `distribution_given_window` for the pooled forward of
`refmodel.TinyLM`, `train_loop` and `corpus_nll_loop` for `refmodel.train`,
`occlusion_loop` and `occlusion_variants` (which scores each distinct window
the deletions leave) for `attribution.occlusion_importance`, `taylor_loop`
for `attribution.taylor_importance` (through `grad_prob_wrt_embeddings`,
the gradient of `refmodel.prob` w.r.t. each position's embedding) and
`normalize_scores_bruteforce` for `attribution.normalize_scores`.
`aggregate_to_words_scan` reads each word off a second `\\S+` scan of the
narrative, as `attribution.aggregate_to_words` did before it took the
encoder's spans, and `attribution_record_dict` builds the record as the
dict whose `json.dumps` `attribution.attribution_record` must equal.
`parse_annotated_scans` is the three-scan `util.parse_annotated`,
`rule_based_factors_loop` matches every keyword of every word as
`analytics.rule_based_factors` did before its lexicon memoized terms, and
`SANKEY_SCHEMA` is the JSON Schema that, with its node range check,
`analytics.validate_sankey` must agree with.
`fact_values` lists what `narrator.render` must voice for a case.
`verify_preservation_scans` is `augment.verify_preservation` as it was
before its patterns became digit-led and its proper-noun pass visited only
capitalized tokens: `\\b`-led patterns (kept in `SCAN_PATTERNS` under the
names of their rewritten forms), a sentence split, and every token of
every sentence. `normalize_regex` is `evaluation._normalize` as a
per-character regex substitution, before it became a cached translate table.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from typing import Callable, Mapping, Sequence

import numpy as np

from crashlens.analytics import (
    _PUNCT_STRIP,
    ASPECTS,
    CategorySummary,
    FactorSummary,
    FactorTerm,
)
from crashlens.augment import (
    _MERIDIEMS,
    _MONTH_INDEX,
    _MONTHS,
    _NUMBER_RE,
    ConstraintKind,
    ConstraintReport,
    ConstraintResult,
    _TextFacts,
)
from crashlens.narrator import NormalizedCase
from crashlens.attribution import ScoreMatrix
from crashlens.refmodel import (
    BOS_ID,
    TinyLM,
    Tokenizer,
    TrainConfig,
    TrainingDivergedError,
    TrainingExample,
    grad_prob_wrt_hidden,
    prob,
)
from crashlens.util import NULL_MARKERS, WordAttribution


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


def grad_prob_wrt_embeddings(model: TinyLM, context: Sequence[int], target: int) -> np.ndarray:
    """Analytic gradient of prob() w.r.t. each context position's embedding,
    one row per position (one `<bos>` row for an empty context).

    With h = sum_j a_j e_j over the window, dp_t/de_j = a_j * dp_t/dh
    (`grad_prob_wrt_hidden`). Positions that fell out of the window get
    exact zero rows.
    """
    k = len(model.window_of(context))
    grads = np.zeros((max(len(context), 1), model.dim))
    g_hidden = grad_prob_wrt_hidden(model, model.distribution(context), target)
    grads[len(grads) - k :] = model.position_weights[:k, None] * g_hidden
    return grads


def corpus_nll_loop(model: TinyLM, examples: Sequence[TrainingExample]) -> float:
    total = 0.0
    for ex in examples:
        total -= np.log(max(prob(model, ex.context, ex.target), 1e-300))
    return total / len(examples) if examples else 0.0


def train_loop(model: TinyLM, examples: Sequence[TrainingExample], config: TrainConfig) -> TinyLM:
    """One forward and backward pass per example, into dense gradients
    already scaled by the learning rate."""
    m = model.copy()
    m.loss_history = []
    rng = random.Random(config.seed)
    order = list(range(len(examples)))
    v, d, w = m.vocab_size, m.dim, m.window

    for epoch in range(config.epochs):
        rng.shuffle(order)
        for idx in order:
            ex = examples[idx]
            ids = (list(ex.context) or [BOS_ID])[-w:]
            k = len(ids)
            embs = m.embeddings[ids]
            hidden = m.position_weights[:k] @ embs
            dz = distribution_given_window(m, embs)
            dz[ex.target] -= 1.0  # dNLL/dlogits = p - onehot
            dz *= config.lr  # the step's lr, folded into dNLL/dlogits once
            dh = m.output_weights @ dz
            # each row's gradient is (the sum of its slots' a_j, in slot order) * dh
            slot_sums: dict[int, float] = {}
            for slot, tok in enumerate(ids):
                slot_sums[tok] = slot_sums.get(tok, 0.0) + m.position_weights[slot]
            grad_e = np.zeros((v, d))
            for tok, weight in slot_sums.items():
                grad_e[tok] = weight * dh
            grad_a = np.zeros(w)
            grad_a[:k] = embs @ dh
            m.embeddings -= grad_e
            m.position_weights -= grad_a
            m.output_weights -= np.outer(hidden, dz)
            m.output_bias -= dz
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


def aggregate_to_words_scan(
    scores: ScoreMatrix, narrative: str, display_divisor: float = 1.0
) -> list[WordAttribution]:
    """Word n of a `\\S+` scan of the narrative, with context token n + 1's
    score over the display divisor, where that score is above 0."""
    return [
        WordAttribution(m.group(0), m.span(), raw / display_divisor)
        for m, raw in zip(re.finditer(r"\S+", narrative), scores.scores[1:, 0].tolist())
        if raw > 0
    ]


def attribution_record_dict(
    caseno: str,
    method: str,
    tokenizer: Tokenizer,
    spans: Sequence[tuple[int, int, int]],
    target: int,
    scores: ScoreMatrix,
    annotated: str,
) -> dict:
    """An attribution record as a JSON-ready dict with a sparse score matrix:
    rows `<bos>`, the narrative's words and the target."""
    label = {"text": tokenizer.tokens[target], "id": target}
    nonzero = np.nonzero(scores.scores)
    return {
        "caseno": caseno,
        "method": method,
        "L": scores.L,
        "b": scores.b,
        "tokens": [
            {"text": tokenizer.tokens[BOS_ID], "id": BOS_ID, "start": None, "end": None},
            *({"text": tokenizer.tokens[tid], "id": tid, "start": s, "end": e} for tid, s, e in spans),
            {**label, "start": None, "end": None},
        ],
        "output_tokens": [label],
        "score_matrix": np.column_stack([*nonzero, scores.scores[nonzero]]).tolist(),
        "annotated": annotated,
    }


def parse_annotated_scans(annotated: str) -> tuple[str, list[WordAttribution]]:
    """Strip the tags, then pair the words of the plain and annotated texts
    and keep each annotated word that ends in a tag, with that tag's score."""
    plain = re.sub(r"(?<=\S)\[\d+\.\d{2}\]", "", annotated)
    plain_words = list(re.finditer(r"\S+", plain))
    raw_words = [m.group(0) for m in re.finditer(r"\S+", annotated)]
    if len(plain_words) != len(raw_words):
        raise ValueError("annotation structure does not line up with the text")
    tail = re.compile(r"^(.*)\[(\d+\.\d{2})\]$", re.DOTALL)
    words = []
    for span, raw in zip(plain_words, raw_words):
        m = tail.match(raw)
        if m:
            words.append(WordAttribution(word=span.group(0), char_span=span.span(), score=float(m.group(2))))
    return plain, words


def normalize_regex(text: str) -> str:
    return " ".join(re.sub(r"[^0-9a-z]+", " ", text.lower()).split())


def _match_keyword(keyword: str, word: str) -> bool:
    if keyword.startswith("re:"):
        return re.search(keyword[3:], word) is not None
    return keyword in word


def rule_based_factors_loop(
    words: Sequence[WordAttribution],
    keywords: Mapping[str, Sequence[str]],
    caseno: str = "",
) -> FactorSummary:
    """Every scored word matched against every keyword, category by category."""
    buckets: dict[str, dict[str, FactorTerm]] = {cat: {} for cat in ASPECTS}
    for word in words:
        if word.score <= 0:
            continue
        term = word.word.strip(_PUNCT_STRIP)
        if not term:
            continue
        folded = term.lower()
        category = "unusual"
        for cat in ASPECTS:
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
    for cat, (label, _) in ASPECTS.items():
        terms = sorted(buckets[cat].values(), key=lambda t: (-t.score, t.position))
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
                    "aspect": {"enum": list(ASPECTS)},
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


# the verifier's patterns as they were, each led by `\b`
SCAN_PATTERNS = {
    "NULL_MARKER_RE": re.compile(
        "|".join(rf"\b{re.escape(m)}\b" for m in sorted(NULL_MARKERS) if m), re.IGNORECASE
    ),
    "_DATE_RE": re.compile(rf"\b({_MONTHS})\s+(\d{{1,2}}),\s+(\d{{4}})\b"),
    "_ISO_DATE_RE": re.compile(r"\b(\d{4})-(\d{2})-(\d{2})\b"),
    "_CLOCK_AMPM_RE": re.compile(r"(?<!:)\b(\d{1,2}):(\d{2})(?::(\d{2}))?\s*([APap])\.?[Mm]\.?\b"),
    "_CLOCK_RE": re.compile(r"(?<!:)\b(\d{1,2}):(\d{2})(?::(\d{2}))?\b"),
    "_HOUR_AMPM_RE": re.compile(r"(?<!:)\b(\d{1,2})\s*([APap])\.?[Mm]\.?\b"),
}


def _canonical_times_scans(text: str) -> tuple[list[str], str]:
    found: list[tuple[int, str]] = []
    out = text

    def grab(pattern: re.Pattern, to_token: Callable[[re.Match], str]) -> None:
        nonlocal out

        def blank(m: re.Match) -> str:
            found.append((m.start(), to_token(m)))
            return " " * (m.end() - m.start())

        out = pattern.sub(blank, out)

    def ampm_token(m: re.Match) -> str:
        hour = int(m.group(1)) % 12
        if m.group(4).lower() == "p":
            hour += 12
        return f"T{hour:02d}:" + ":".join(filter(None, m.group(2, 3)))

    grab(SCAN_PATTERNS["_CLOCK_AMPM_RE"], ampm_token)
    grab(SCAN_PATTERNS["_CLOCK_RE"], lambda m: f"T{int(m.group(1)):02d}:" + ":".join(filter(None, m.group(2, 3))))

    def hour_token(m: re.Match) -> str:
        hour = int(m.group(1)) % 12
        if m.group(2).lower() == "p":
            hour += 12
        return f"T{hour:02d}:00"

    grab(SCAN_PATTERNS["_HOUR_AMPM_RE"], hour_token)
    found.sort(key=lambda pair: pair[0])
    return [token for _, token in found], out


def _canonical_dates_scans(text: str) -> list[str]:
    dates = [
        f"D{m.group(3)}-{_MONTH_INDEX[m.group(1)]:02d}-{int(m.group(2)):02d}"
        for m in SCAN_PATTERNS["_DATE_RE"].finditer(text)
    ]
    dates.extend(
        f"D{m.group(1)}-{m.group(2)}-{m.group(3)}" for m in SCAN_PATTERNS["_ISO_DATE_RE"].finditer(text)
    )
    return dates


def _text_facts_scans(text: str) -> _TextFacts:
    times, residual = _canonical_times_scans(text)
    minutes = [":".join(t.split(":")[:2]) for t in times]
    numbers = Counter(m.group(0).replace(",", "") for m in _NUMBER_RE.finditer(residual))
    numbers.update(minutes)
    return _TextFacts(minutes, numbers, Counter(_canonical_dates_scans(text)) + Counter(times))


def proper_noun_runs_scans(text: str) -> list[str]:
    """Split into sentences, then walk every token of each one."""
    runs: list[str] = []
    for sentence in re.split(r"(?<=[.!?])\s+", text):
        tokens = list(re.finditer(r"\S+", sentence))
        current: list[str] = []

        def flush() -> None:
            if current:
                runs.append(" ".join(current))
            current.clear()

        prev_end = None
        for i, m in enumerate(tokens):
            word = m.group(0)
            bare = word.strip(".,;:!?()'\"")
            is_cap = bool(bare) and bare[0].isalpha() and bare[0].isupper()
            adjacent = prev_end is not None and m.start() == prev_end + 1
            if is_cap and i > 0 and bare not in _MERIDIEMS:
                if current and not adjacent:
                    flush()
                current.append(bare)
            else:
                flush()
            if bare and not word.endswith(bare):
                flush()
            prev_end = m.end()
        flush()
    return runs


def verify_preservation_scans(original: str, augmented: str) -> ConstraintReport:
    """Both texts' facts extracted afresh, with the `\\b`-led patterns."""
    orig, aug = _text_facts_scans(original), _text_facts_scans(augmented)
    aug_times = iter(aug.times)
    offending = {
        ConstraintKind.NUMBERS: sorted((orig.numbers - aug.numbers).elements()),
        ConstraintKind.DATES_TIMES: sorted((orig.dates_times - aug.dates_times).elements()),
        ConstraintKind.PROPER_NOUNS: [r for r in proper_noun_runs_scans(original) if r not in augmented],
        ConstraintKind.NO_NULL_MARKERS: [m.group(0) for m in SCAN_PATTERNS["NULL_MARKER_RE"].finditer(augmented)],
        ConstraintKind.CHRONOLOGY: [t for t in orig.times if not any(t == a for a in aug_times)],
    }
    return ConstraintReport([ConstraintResult(k, not offending[k], offending[k]) for k in ConstraintKind])
