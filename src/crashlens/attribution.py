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
from typing import Optional, Sequence

import numpy as np

from .refmodel import BOS_ID, TinyLM, Tokenizer, grad_prob_wrt_embeddings

# The annotated-narrative format lives in util, so that analytics reads it
# without loading numpy; its names stay importable from here.
from .util import WordAttribution, annotate_narrative, parse_annotated, positive_words, strip_annotations


@dataclass(frozen=True)
class TokenInfo:
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
    infos = []
    for i, tid in enumerate(ids):
        text = tokenizer.tokens[tid] if tokenizer is not None else str(tid)
        span = spans[i] if spans is not None else None
        infos.append(TokenInfo(text=text, token_id=tid, start=span and span[0], end=span and span[1]))
    return infos


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

    One gradient pass per output position, not per (token, output) pair.
    """
    if not response:
        raise ValueError("response is empty")
    n_prompt, n_out = len(prompt), len(response)
    values = np.zeros((n_prompt + n_out, n_out))
    for m in range(n_out):
        context = list(prompt) + list(response[:m])
        grads = grad_prob_wrt_embeddings(model, context, response[m])
        for q, tok in enumerate(context):
            values[q, m] = float(np.dot(grads[q], model.embeddings[tok]))
    spans = list(prompt_spans) + [None] * n_out if prompt_spans is not None else None
    infos = _token_infos(list(prompt) + list(response), tokenizer, spans)
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
    Every word is returned, including score-0 ones (callers filter for
    "high attribution" lists but keep zeros for full annotations).
    """
    if display_divisor <= 0:
        raise ValueError("display_divisor must be positive")
    tokens = scores.input_tokens
    row_best = scores.scores.max(axis=1).tolist() if scores.scores.size else [0] * len(tokens)
    # one merge over the tokens by start offset: a word collects the tokens
    # that start inside it and end by its end
    order = sorted((tok.start, i) for i, tok in enumerate(tokens) if tok.start is not None)
    cursor = 0
    words: list[WordAttribution] = []
    for m in re.finditer(r"\S+", narrative):
        w_start, w_end = m.span()
        while cursor < len(order) and order[cursor][0] < w_start:
            cursor += 1
        rows = []
        while cursor < len(order) and order[cursor][0] <= w_end:
            i = order[cursor][1]
            if tokens[i].end <= w_end:
                rows.append(i)
            cursor += 1
        rows.sort()
        words.append(
            WordAttribution(
                word=m.group(0),
                char_span=(w_start, w_end),
                score=max([row_best[i] for i in rows], default=0) / display_divisor,
                contributing_token_ids=tuple(rows),
            )
        )
    return words


def attribution_record(
    caseno: str,
    matrix: ImportanceMatrix,
    scores: ScoreMatrix,
    words: Sequence[WordAttribution],
    annotated: str,
) -> dict:
    """JSON-ready export with a sparse score matrix."""
    sparse = [
        [int(n), int(m), int(scores.scores[n, m])]
        for n, m in zip(*np.nonzero(scores.scores))
    ]
    return {
        "caseno": caseno,
        "method": matrix.method,
        "L": scores.L,
        "b": scores.b,
        "tokens": [
            {"text": t.text, "id": t.token_id, "start": t.start, "end": t.end}
            for t in matrix.input_tokens
        ],
        "output_tokens": [{"text": t.text, "id": t.token_id} for t in matrix.output_tokens],
        "score_matrix": sparse,
        "words": [
            {"word": w.word, "start": w.char_span[0], "end": w.char_span[1], "score": w.score}
            for w in words
        ],
        "annotated": annotated,
    }
