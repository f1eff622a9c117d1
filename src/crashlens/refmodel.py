"""A tiny next-token model small enough to verify by hand.

The model embeds the last `window` context tokens, mixes them with learned
per-slot weights, and maps the pooled vector through a linear-softmax head.
Everything is float64 numpy with closed-form gradients, so attribution math
downstream can be checked against finite differences to tight tolerances.
One rule says which tokens the model reads, `TinyLM.window_of`: the last W
ids of a context, `<bos>` alone for an empty one. One pooled forward,
`TinyLM.hidden`, weighs that window's k tokens by the first k slot weights.
Scoring a context, the per-epoch NLL and training all read one window per
context, so no pass pads a window to W or gathers a slot it does not read.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .records import Severity
from .util import CrashlensError, atomic_write, atomic_write_text

BOS = "<bos>"
EOS = "<eos>"
UNK = "<unk>"


def label_token(severity: Severity) -> str:
    return f"<label:{severity.value}>"


_SPECIALS = (BOS, EOS, UNK) + tuple(label_token(sev) for sev in Severity)

BOS_ID = 0

# a tokenizer keeps the words seen at least this often in its texts;
# rarer ones, mostly one-off numbers, read as `<unk>`
MIN_WORD_COUNT = 2

# contexts per output matmul in the per-epoch NLL: its memory is chunk x V,
# not N x V, which at 20k cases (V ~5.7k) would be ~0.9 GB per epoch
NLL_CHUNK = 1024

# a checkpoint's arrays, in the order `TinyLM` takes and `TinyLM.save` writes them
_ARRAYS = ("embeddings", "position_weights", "output_weights", "output_bias")


class RefModelError(CrashlensError):
    pass


class TrainingDivergedError(RefModelError):
    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


def _read_object(path: str | Path, what: str) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise RefModelError(f"{what} {path} must hold a JSON object, not {type(doc).__name__}")
    return doc


def _require_keys(doc: dict, path: str | Path, what: str, keys: Sequence[str]) -> None:
    missing = [key for key in keys if key not in doc]
    if missing:
        raise RefModelError(f"{what} {path} lacks {', '.join(map(repr, missing))}")


@dataclass
class Tokenizer:
    """Whitespace word tokenizer with char-span tracking; a word outside the
    vocabulary is UNK."""

    tokens: list[str]
    vocab: dict[str, int] = field(init=False, repr=False)
    # a word's id: its vocabulary id, but `<unk>` for a word that spells a special
    _word_ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if tuple(self.tokens[: len(_SPECIALS)]) != _SPECIALS:
            raise ValueError("vocabulary must start with the special tokens")
        self.vocab = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.vocab) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")
        self._word_ids = self.vocab | dict.fromkeys(_SPECIALS, self.vocab[UNK])

    @classmethod
    def from_texts(cls, texts: Sequence[str]) -> "Tokenizer":
        """The specials, then the sorted words (`text.split()`, as `encode`
        reads them) seen at least MIN_WORD_COUNT times; a word that spells a
        special is never counted."""
        counts = Counter(w for text in texts for w in text.split())
        words = (w for w, n in counts.items() if n >= MIN_WORD_COUNT and w not in _SPECIALS)
        return cls(tokens=list(_SPECIALS) + sorted(words))

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.vocab.get(token, self.vocab[UNK])

    def label_id(self, severity: Severity) -> int:
        return self.vocab[label_token(severity)]

    def encode(self, text: str) -> list[int]:
        """The ids of `encode_with_spans`, without locating the words."""
        get, unk = self._word_ids.get, self.vocab[UNK]
        return [get(word, unk) for word in text.split()]

    def encode_with_spans(self, text: str) -> list[tuple[int, int, int]]:
        """Token ids with (start, end) character spans into `text`, one per
        word of `text.split()`, the rule `from_texts` reads words by. A word
        that spells a special token, such as a label, reads as `<unk>`."""
        get, unk = self._word_ids.get, self.vocab[UNK]
        spans, end = [], 0
        for word in text.split():
            start = text.find(word, end)  # only whitespace lies between the last word and this one
            end = start + len(word)
            spans.append((get(word, unk), start, end))
        return spans

    def save(self, path: str | Path) -> None:
        doc = {"version": 1, "mode": "word", "tokens": self.tokens}
        atomic_write_text(path, json.dumps(doc, ensure_ascii=False))

    @classmethod
    def load(cls, path: str | Path) -> "Tokenizer":
        doc = _read_object(path, "tokenizer")
        _require_keys(doc, path, "tokenizer", ("mode", "tokens"))
        if doc["mode"] != "word":
            raise RefModelError(f"unsupported tokenizer mode {doc['mode']!r}")
        tokens = doc["tokens"]
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise RefModelError(f"tokenizer {path}: 'tokens' must be a list of strings")
        return cls(tokens=tokens)


@dataclass(eq=False)
class TinyLM:
    embeddings: np.ndarray  # V x d
    position_weights: np.ndarray  # W, slot j weights the j-th window token
    output_weights: np.ndarray  # d x V
    output_bias: np.ndarray  # V
    loss_history: list[float] = field(default_factory=list)

    @classmethod
    def init(cls, vocab_size: int, dim: int, window: int, seed: int) -> "TinyLM":
        if dim < 1 or window < 1:
            raise RefModelError(f"dim and window must be >= 1, not {dim} and {window}")
        # the standard library's stream: numpy.random's extension modules
        # would cost several MB of RSS to draw these few thousand values
        rng = random.Random(seed)

        def u(*shape: int) -> np.ndarray:
            return np.array([rng.uniform(-0.05, 0.05) for _ in range(math.prod(shape))]).reshape(shape)

        # slot weights start near uniform mixing; random-sign slots make the
        # pooled vector alternate direction token-to-token and destabilize
        # early training
        return cls(
            embeddings=u(vocab_size, dim),
            position_weights=1.0 + u(window),
            output_weights=u(dim, vocab_size),
            output_bias=u(vocab_size),
        )

    @property
    def vocab_size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def window(self) -> int:
        return self.position_weights.shape[0]

    def copy(self) -> "TinyLM":
        return TinyLM(
            embeddings=self.embeddings.copy(),
            position_weights=self.position_weights.copy(),
            output_weights=self.output_weights.copy(),
            output_bias=self.output_bias.copy(),
            loss_history=list(self.loss_history),
        )

    def window_of(self, context: Sequence[int]) -> np.ndarray:
        """The tokens the model reads after `context`: its last W ids, or
        `<bos>` alone for an empty context."""
        return np.array(list(context[-self.window :]) or [BOS_ID], dtype=np.intp)

    def hidden(self, window: np.ndarray) -> np.ndarray:
        """The pooled vector of one window's k tokens, h = sum_j a_j e_j."""
        return self.position_weights[: len(window)] @ self.embeddings[window]

    def _softmax_rows(self, hidden: np.ndarray) -> np.ndarray:
        probs = hidden @ self.output_weights
        probs += self.output_bias
        probs -= probs.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs

    def batch_probs(self, contexts: Sequence[Sequence[int]], target: int) -> np.ndarray:
        """p(target | context) for each context."""
        return np.array([self.distribution(context)[target] for context in contexts])

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        return self._softmax_rows(self.hidden(self.window_of(context))[None])[0]

    def save(self, path: str | Path) -> None:
        """Write the bytes of `json.dumps` of the checkpoint document, one
        array row at a time, so neither the document nor its text is held."""
        atomic_write(path, self._json_chunks())

    def _json_chunks(self) -> Iterator[str]:
        yield '{"version": 1'
        for key in _ARRAYS:
            array = getattr(self, key)
            yield f', "{key}": '
            if array.ndim == 1:
                yield json.dumps(array.tolist())
                continue
            yield "["
            for i, row in enumerate(array):
                yield (", " if i else "") + json.dumps(row.tolist())
            yield "]"
        yield "}"

    @classmethod
    def load(cls, path: str | Path) -> "TinyLM":
        doc = _read_object(path, "checkpoint")
        if doc.get("version") != 1:
            raise RefModelError(f"unsupported checkpoint version {doc.get('version')!r}")
        _require_keys(doc, path, "checkpoint", _ARRAYS)
        try:
            model = cls(*(np.array(doc[key], dtype=np.float64) for key in _ARRAYS))
        except (TypeError, ValueError) as exc:  # not numbers, or ragged
            raise RefModelError(f"checkpoint {path}: {exc}") from exc
        emb = model.embeddings
        if not (
            emb.ndim == 2
            and model.position_weights.ndim == 1
            and model.output_weights.shape == emb.shape[::-1]
            and model.output_bias.shape == emb.shape[:1]
            and model.window >= 1
        ):
            shapes = ", ".join(f"{key} {getattr(model, key).shape}" for key in _ARRAYS)
            raise RefModelError(f"checkpoint {path} arrays do not fit one model: {shapes}")
        if not all(np.isfinite(getattr(model, key)).all() for key in _ARRAYS):
            raise RefModelError(f"checkpoint {path} holds a non-finite value")
        return model


@dataclass(frozen=True)
class TrainingExample:
    """A context and the one token after it, the only position the loss scores."""

    context: tuple[int, ...]
    target: int

    @property
    def loss_mask(self) -> tuple[bool, ...]:
        return (False,) * len(self.context) + (True,)


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    epochs: int
    seed: int

    def __post_init__(self):
        if not (self.epochs >= 1 and np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"need epochs >= 1 and a finite lr > 0; got {self.epochs} and {self.lr}")


def prob(model: TinyLM, context: Sequence[int], target: int) -> float:
    """Softmax probability of `target` after `context` (empty context = BOS)."""
    return float(model.distribution(context)[target])


def grad_prob_wrt_hidden(model: TinyLM, p: np.ndarray, target: int) -> np.ndarray:
    """dp_t/dh = p_t (U[:, t] - U p), for p = softmax(U^T h + c)."""
    return p[target] * (model.output_weights[:, target] - model.output_weights @ p)


def _corpus_nll(model: TinyLM, windows: Sequence[np.ndarray], targets: np.ndarray) -> float:
    """Mean NLL of each window's target, scored NLL_CHUNK windows per output
    matmul; one mean over all N target probabilities, so N <= NLL_CHUNK
    scores exactly as one matmul over them all.

    A chunk pools its windows of one length k together: one gather of their
    rows and one product with the first k slot weights, the product
    `TinyLM.hidden` takes for each of them, so every pooled vector is the
    same to the bit. A gather holds at most the chunk's n x V values, the
    size of its probability block.
    """
    p = np.empty(len(targets))
    for lo in range(0, len(targets), NLL_CHUNK):
        chunk = windows[lo : lo + NLL_CHUNK]
        n = len(chunk)
        by_length: dict[int, list[int]] = {}
        for i, window in enumerate(chunk):
            by_length.setdefault(len(window), []).append(i)
        hidden = np.empty((n, model.dim))
        for k, rows in by_length.items():
            per_gather = max(1, n * model.vocab_size // (k * model.dim))
            for start in range(0, len(rows), per_gather):
                part = rows[start : start + per_gather]
                ids = np.concatenate([chunk[i] for i in part]).reshape(len(part), k)
                hidden[part] = model.position_weights[:k] @ model.embeddings.take(ids, axis=0)
        # one expression, so a chunk's probabilities are freed before the next chunk's
        p[lo : lo + n] = model._softmax_rows(hidden)[np.arange(n), targets[lo : lo + n]]
    return float(-np.log(np.maximum(p, 1e-300)).mean())


def train(model: TinyLM, examples: Sequence[TrainingExample], config: TrainConfig) -> TinyLM:
    """SGD on the NLL of each example's target; deterministic for a given seed.

    One parameter update per example, from its window (`window_of`, taken
    once before the first epoch): a step pools the k rows it gathers, as
    `TinyLM.hidden` does, and writes only those embedding rows and the
    first k slot weights.
    """
    if not examples:
        raise ValueError("no training examples")
    for ex in examples:
        ids = (*ex.context, ex.target)
        if min(ids) < 0 or max(ids) >= model.vocab_size:
            raise ValueError("example token id outside model vocabulary")

    m = model.copy()
    m.loss_history = []
    emb, slot_w, out_w, out_b = m.embeddings, m.position_weights, m.output_weights, m.output_bias
    rng = random.Random(config.seed)
    order = list(range(len(examples)))  # shuffled in place, once per epoch
    lr = config.lr
    windows = [m.window_of(ex.context) for ex in examples]
    targets = [ex.target for ex in examples]
    # per window: its distinct ids, the embedding rows a step updates, and each slot's index into them
    uniques = [np.unique(window, return_inverse=True) for window in windows]
    grad_u = np.empty_like(out_w)  # reused: a fresh d x V array per step costs page faults

    # a diverging run overflows on the way; the finite-NLL check below
    # reports it, so numpy's own warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            rng.shuffle(order)
            for idx in order:
                window = windows[idx]
                slots = slot_w[: len(window)]
                embs = emb.take(window, axis=0)  # emb[window], without fancy indexing's set-up
                hidden = slots @ embs
                # the softmax of `TinyLM._softmax_rows`, on the one row
                dz = hidden @ out_w
                dz += out_b
                dz -= dz.max()
                np.exp(dz, out=dz)
                dz /= dz.sum()
                dz[targets[idx]] -= 1.0  # dNLL/dlogits = p - onehot
                dz *= lr  # so dh and both output updates come out scaled by lr
                dh = out_w @ dz
                # dNLL/de = a_j dh for each slot: a row gets the sum of its slots' a_j, in slot order
                # and before the slot update below, times dh
                rows, slot_rows = uniques[idx]
                emb[rows] = emb.take(rows, axis=0) - np.bincount(slot_rows, slots, len(rows))[:, None] * dh
                slots -= embs @ dh  # dNLL/da_j = e_j . dh
                np.dot(hidden[:, None], dz[None], out=grad_u)
                out_w -= grad_u
                out_b -= dz
            nll = _corpus_nll(m, windows, np.array(targets, dtype=np.intp))
            if not np.isfinite(nll):
                raise TrainingDivergedError(epoch)
            m.loss_history.append(nll)
    return m


@dataclass(frozen=True)
class DecodeTrace:
    log_scores: dict[Severity, float]
    tie: bool


def classify(tokenizer: Tokenizer, dist: np.ndarray) -> tuple[Severity, DecodeTrace]:
    """Constrained decode from one forward pass: `dist` is the model's
    distribution after `<bos>` and a narrative's token ids. Picks the label
    token with the higher log-prob; ties go to the minor-injury label,
    flagged in the trace.
    """
    scores = {
        sev: float(np.log(max(float(dist[tokenizer.label_id(sev)]), 1e-300))) for sev in Severity
    }
    tie = scores[Severity.MINOR] == scores[Severity.SEVERE]
    winner = Severity.MINOR if scores[Severity.MINOR] >= scores[Severity.SEVERE] else Severity.SEVERE
    return winner, DecodeTrace(log_scores=scores, tie=tie)
