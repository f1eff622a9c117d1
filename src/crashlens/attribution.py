"""Input-token attribution for the one decision the classifier makes.

The attribute stage explains one target token per narrative: the severity
label the model prefers after `<bos>` and the narrative's words. Two routes
score every context token for that target: exact occlusion, which deletes
the token and scores what is left, all deletions at once from running sums,
and a first-order Taylor approximation from one gradient pass. Raw
importances are normalized to integers in (b, L] and read off per word: the
tokenizer makes one token per whitespace word, so word n of the narrative
is context token n + 1 (token 0 is `<bos>`).
"""

from __future__ import annotations

import json
from typing import NamedTuple, Sequence

import numpy as np

from .refmodel import BOS_ID, TinyLM, grad_prob_wrt_hidden, prob

# The annotated-narrative format lives in util, so that analytics reads it
# without loading numpy; its names stay importable from here.
from .util import WordAttribution, annotate_narrative, parse_annotated


class ScoreMatrix(NamedTuple):
    scores: np.ndarray  # int64, (context + target) x 1; the target's own row is 0
    L: int
    b: int


def occlusion_importance(model: TinyLM, context: Sequence[int], target: int, dist: np.ndarray) -> np.ndarray:
    """Exact leave-one-out importance: for each context token, the drop in
    p(target | context) when that token is removed; the sequence really
    shortens. Removing an in-window token keeps the slots of the tokens on
    one side of it and moves the others by one, so each pooled vector is a
    prefix running sum plus a suffix one, and one product scores them all.
    `dist` is `model.distribution(context)`, the caller's forward pass.
    """
    ids = np.asarray(context, dtype=np.intp)
    n = len(ids)
    base = float(dist[target])
    if n < 2:  # removing the one token leaves the empty context, read as <bos>
        return np.full(n, base - prob(model, [], target))
    first = max(n - model.window, 0)  # tokens before the window leave it as it was: exactly 0
    embs = model.embeddings[ids[max(first - 1, 0) :]]  # every token that holds a slot after one deletion
    a = model.position_weights[: len(embs) - 1, None]
    # row r removes embs[r]: the tokens before it keep slot p, the ones after move to p - 1
    before = np.cumsum(np.vstack([np.zeros(model.dim), a * embs[:-1]]), axis=0)
    after = np.cumsum(np.vstack([a * embs[1:], np.zeros(model.dim)])[::-1], axis=0)[::-1]
    values = np.zeros(n)
    values[first:] = base - model._softmax_rows((before + after)[first - n :])[:, target]
    # removing any copy in a run of equal tokens leaves one sequence: each takes the first copy's value
    return values[np.maximum.accumulate(np.where(np.r_[True, ids[1:] != ids[:-1]], np.arange(n), 0))]


def taylor_importance(model: TinyLM, context: Sequence[int], target: int, dist: np.ndarray) -> np.ndarray:
    """First-order approximation: <d p(target | context) / d E[x_n], E[x_n]>.

    From the caller's forward pass, `dist` = `model.distribution(context)`,
    and one product: the gradient at window slot j is a_j * dp/dh, so the
    scores are a * (E[window] @ dp/dh). Tokens before the window score
    exactly 0.
    """
    window = model.window_of(context)
    k = len(window)
    g_hidden = grad_prob_wrt_hidden(model, dist, target)
    values = np.zeros(len(context))
    # an empty context reads <bos> alone, which is no context token: values[-1:] is empty then
    values[len(values) - k :] = model.position_weights[:k] * (model.embeddings[window] @ g_hidden)
    return values


def normalize_scores(values: np.ndarray, L: int, b: int) -> ScoreMatrix:
    """ceil(L * (v / max)) where that exceeds b, else 0, as one column with
    a 0 row appended for the target token, which is not in its own context.

    The max is signed; scores whose max is <= 0 have no positively
    influential token and normalize to all zeros. A negative value scores 0
    either way, so it is clipped to 0 first: next to a tiny max it would
    overflow. Dividing first makes the max exactly 1, so it scores exactly L.
    """
    scores = np.zeros((len(values) + 1, 1), dtype=np.int64)
    top = values.max(initial=0.0)
    if top > 0.0:
        scaled = np.ceil(L * (np.maximum(values, 0.0) / top))
        scores[:-1, 0] = np.where(scaled > b, scaled, 0)
    return ScoreMatrix(scores, L, b)


def aggregate_to_words(
    scores: ScoreMatrix,
    narrative: str,
    spans: Sequence[tuple[int, int, int]],
    display_divisor: float,
) -> list[WordAttribution]:
    """The narrative's words that scored above 0, each with its score over
    the display divisor. Word n is context token n + 1 and spans
    narrative[s:e] for the n-th (id, s, e) of `spans`, as
    `Tokenizer.encode_with_spans` gives them."""
    return [
        WordAttribution(narrative[s:e], (s, e), raw / display_divisor)
        for (_, s, e), raw in zip(spans, scores.scores[1:, 0].tolist())
        if raw > 0
    ]


# the tail of a token row with no place in the narrative: <bos> and the target
_NO_SPAN = '"start": null, "end": null}'


def token_fragments(tokens: Sequence[str]) -> list[str]:
    """Each vocabulary token's row of an attribution record up to its span,
    `{"text": <token>, "id": <id>, `, in the bytes `json.dumps` writes.
    Built once per vocabulary, then shared by every record."""
    return [f'{{"text": {json.dumps(tok, ensure_ascii=False)}, "id": {i}, ' for i, tok in enumerate(tokens)]


def attribution_record(
    caseno: str,
    method: str,
    fragments: Sequence[str],
    spans: Sequence[tuple[int, int, int]],
    target: int,
    scores: ScoreMatrix,
    annotated: str,
) -> str:
    """One attribution record as a JSON line without its newline: the bytes
    `json.dumps(record, ensure_ascii=False)` writes for the record
    {caseno, method, L, b, tokens, output_tokens, score_matrix, annotated}.
    Its token rows are `<bos>`, the narrative's words (`spans`, as
    `Tokenizer.encode_with_spans` gives them) and the target, each built from
    its `token_fragments` entry; the score matrix is sparse, one
    [row, column, score] per nonzero score. Word scores are in `annotated`
    (`parse_annotated` reads them back)."""
    rows, cols = np.nonzero(scores.scores)
    matrix = ", ".join(
        f"[{n}, {m}, {v}]" for n, m, v in zip(rows.tolist(), cols.tolist(), scores.scores[rows, cols].tolist())
    )
    tokens = ", ".join(
        [
            fragments[BOS_ID] + _NO_SPAN,
            *[f'{fragments[tid]}"start": {s}, "end": {e}}}' for tid, s, e in spans],
            fragments[target] + _NO_SPAN,
        ]
    )
    label = fragments[target][:-2] + "}"
    return (
        f'{{"caseno": {json.dumps(caseno, ensure_ascii=False)}, "method": {json.dumps(method, ensure_ascii=False)}, '
        f'"L": {scores.L}, "b": {scores.b}, "tokens": [{tokens}], "output_tokens": [{label}], '
        f'"score_matrix": [{matrix}], "annotated": {json.dumps(annotated, ensure_ascii=False)}}}'
    )
