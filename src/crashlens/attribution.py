"""Input-token attribution for a next-token model.

Two routes to the same question ("how much did token n matter for output
m"): exact occlusion, which literally deletes the token and re-runs the
model on each distinct window that leaves, and a first-order Taylor
approximation using one gradient pass per output position. Raw importances
are normalized per output column to integers in (b, L], then folded up to
word level for display.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .refmodel import BOS_ID, TinyLM, Tokenizer, grad_prob_wrt_hidden

# The annotated-narrative format lives in util, so that analytics reads it
# without loading numpy; its names stay importable from here.
from .util import WordAttribution, annotate_narrative, parse_annotated, positive_words, strip_annotations


class TokenInfo(NamedTuple):
    text: str
    token_id: int
    start: Optional[int] = None  # char span into the source narrative
    end: Optional[int] = None


@dataclass
class ImportanceMatrix:
    values: np.ndarray  # (len(prompt) + len(response)) x len(response)
    input_tokens: list[TokenInfo]
    output_tokens: list[TokenInfo]
    method: str

    def __post_init__(self):
        n, m = self.values.shape
        if n != len(self.input_tokens) or m != len(self.output_tokens):
            raise ValueError("matrix shape does not match token lists")
        if not np.isfinite(self.values).all():
            raise ValueError("importance values must be finite")


@dataclass(frozen=True)
class NormalizationConfig:
    L: int = 100
    b: int = 1

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be >= 1")
        if self.b < 0:
            raise ValueError("b must be >= 0")


@dataclass
class ScoreMatrix:
    scores: np.ndarray  # int64, same shape as the importance matrix
    input_tokens: list[TokenInfo]
    output_tokens: list[TokenInfo]
    L: int
    b: int


def _token_infos(
    ids: Sequence[int],
    tokenizer: Optional[Tokenizer],
    spans: Optional[Sequence[Optional[tuple[int, int]]]] = None,
) -> list[TokenInfo]:
    texts = [tokenizer.tokens[tid] for tid in ids] if tokenizer is not None else map(str, ids)
    return [
        TokenInfo(text, tid, *(span or (None, None)))
        for text, tid, span in zip(texts, ids, spans if spans is not None else [None] * len(ids))
    ]


def occlusion_importance(
    model: TinyLM,
    prompt: Sequence[int],
    response: Sequence[int],
    tokenizer: Optional[Tokenizer] = None,
    prompt_spans: Optional[Sequence[Optional[tuple[int, int]]]] = None,
) -> ImportanceMatrix:
    """Exact leave-one-out importance.

    Column m scores every token of Z_m = prompt + response[:m] by the drop
    in p(response[m] | Z_m) when that token is removed; the sequence really
    shortens. Rows for response tokens at or past position m are 0: they
    are not in Z_m.

    The model reads only the last W tokens, so removing a token before that
    window leaves the window as it was and scores exactly 0, while removing
    one inside it pulls the window back by one token. A column therefore
    has at most W + 1 distinct windows, and only those are scored.
    """
    if not response:
        raise ValueError("response is empty")
    n_prompt, n_out = len(prompt), len(response)
    values = np.zeros((n_prompt + n_out, n_out))
    for m in range(n_out):
        context = list(prompt) + list(response[:m])
        n = len(context)
        first = max(n - model.window, 0)  # first position inside the window
        variants = [context[first:]]
        variants += [context[max(first - 1, 0) : q] + context[q + 1 :] for q in range(first, n)]
        # an empty context reads as <bos>; equal variants are scored once
        distinct: dict[tuple[int, ...], int] = {}
        rows = [distinct.setdefault(tuple(v) or (BOS_ID,), len(distinct)) for v in variants]
        probs = model.batch_probs(list(distinct), response[m])
        values[first:n, m] = probs[rows[0]] - probs[rows[1:]]
    spans = list(prompt_spans) + [None] * n_out if prompt_spans is not None else None
    infos = _token_infos(list(prompt) + list(response), tokenizer, spans)
    return ImportanceMatrix(
        values=values,
        input_tokens=infos,
        output_tokens=_token_infos(response, tokenizer),
        method="occlusion",
    )


def taylor_importance(
    model: TinyLM,
    prompt: Sequence[int],
    response: Sequence[int],
    tokenizer: Optional[Tokenizer] = None,
    prompt_spans: Optional[Sequence[Optional[tuple[int, int]]]] = None,
) -> ImportanceMatrix:
    """First-order approximation: <d p(y_m|Z_m) / d E[x_n], E[x_n]>.

    One forward pass and one product per output position: the gradient at
    window slot j is a_j * dp/dh, so the column is a * (E[window] @ dp/dh).
    Tokens before the window score exactly 0.
    """
    if not response:
        raise ValueError("response is empty")
    n_prompt, n_out = len(prompt), len(response)
    values = np.zeros((n_prompt + n_out, n_out))
    tokens = list(prompt) + list(response)
    for m in range(n_out):
        n = n_prompt + m
        if n == 0:  # an empty context reads <bos>, which has no row
            continue
        first = max(n - model.window, 0)
        embs = model.embeddings[tokens[first:n]]
        g_hidden = grad_prob_wrt_hidden(model, model.distribution_given_window(embs), response[m])
        values[first:n, m] = model.position_weights[: n - first] * (embs @ g_hidden)
    spans = list(prompt_spans) + [None] * n_out if prompt_spans is not None else None
    infos = _token_infos(tokens, tokenizer, spans)
    return ImportanceMatrix(
        values=values,
        input_tokens=infos,
        output_tokens=_token_infos(response, tokenizer),
        method="taylor",
    )


def normalize_scores(
    matrix: ImportanceMatrix, cfg: NormalizationConfig = NormalizationConfig()
) -> ScoreMatrix:
    """Per-column rescale: ceil(L * (I / colmax)) where that exceeds b, else 0.

    The column max is signed; a column whose max is <= 0 has no positively
    influential token and normalizes to all zeros. Dividing first makes the
    column's own maximum exactly 1, so it scores exactly L.
    """
    values = matrix.values
    scores = np.zeros(values.shape, dtype=np.int64)
    for m in range(values.shape[1]):
        column = values[:, m]
        colmax = column.max() if column.size else 0.0
        if colmax <= 0.0:
            continue
        scaled = np.ceil(cfg.L * (column / colmax))
        keep = scaled > cfg.b
        scores[keep, m] = scaled[keep].astype(np.int64)
    return ScoreMatrix(
        scores=scores,
        input_tokens=matrix.input_tokens,
        output_tokens=matrix.output_tokens,
        L=cfg.L,
        b=cfg.b,
    )


def aggregate_to_words(
    scores: ScoreMatrix, narrative: str, display_divisor: float = 1.0
) -> list[WordAttribution]:
    """Fold token scores up to whitespace words of the narrative.

    A word's raw score is the max over its sub-tokens of each token's max
    over output positions; the display divisor only rescales for rendering.
    A word's sub-tokens are those that start inside it and end by its end.
    Every word is returned, including score-0 ones (callers filter for
    "high attribution" lists but keep zeros for full annotations).
    """
    if display_divisor <= 0:
        raise ValueError("display_divisor must be positive")
    matches = list(re.finditer(r"\S+", narrative))
    w_start = np.array([m.start() for m in matches], dtype=np.intp)
    w_end = np.array([m.end() for m in matches], dtype=np.intp)
    spanned = [(i, tok.start, tok.end) for i, tok in enumerate(scores.input_tokens) if tok.start is not None]
    rows, t_start, t_end = np.array(spanned, dtype=np.intp).reshape(-1, 3).T
    # the last word starting at or before each token, if the token ends by its end
    word = np.searchsorted(w_start, t_start, side="right") - 1
    inside = word >= 0
    inside[inside] = t_end[inside] <= w_end[word[inside]]
    rows, word = rows[inside], word[inside]
    best = np.zeros(len(matches), dtype=np.int64)
    np.maximum.at(best, word, scores.scores.max(axis=1, initial=0)[rows])
    # rows grouped by word, in row order within a word
    order = np.argsort(word, kind="stable")
    grouped = rows[order].tolist()
    bounds = np.cumsum(np.bincount(word, minlength=len(matches))).tolist()
    return [
        WordAttribution(m.group(0), m.span(), raw / display_divisor, tuple(grouped[lo:hi]))
        for m, raw, lo, hi in zip(matches, best.tolist(), [0] + bounds, bounds)
    ]


def attribution_record(
    caseno: str, matrix: ImportanceMatrix, scores: ScoreMatrix, annotated: str
) -> dict:
    """JSON-ready export with a sparse score matrix. Word scores are in
    `annotated` (`parse_annotated` reads them back)."""
    nonzero = np.nonzero(scores.scores)
    return {
        "caseno": caseno,
        "method": matrix.method,
        "L": scores.L,
        "b": scores.b,
        "tokens": [
            {"text": text, "id": tid, "start": start, "end": end}
            for text, tid, start, end in matrix.input_tokens
        ],
        "output_tokens": [{"text": t.text, "id": t.token_id} for t in matrix.output_tokens],
        "score_matrix": np.column_stack([*nonzero, scores.scores[nonzero]]).tolist(),
        "annotated": annotated,
    }
