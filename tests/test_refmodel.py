from __future__ import annotations

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashlens import synth
from crashlens.cli import load_config
from crashlens.narrator import load_lexicon, load_templates, normalize, render
from crashlens.refmodel import (
    BOS_ID,
    MIN_WORD_COUNT,
    NLL_CHUNK,
    DecodeTrace,
    RefModelError,
    TinyLM,
    Tokenizer,
    TrainConfig,
    TrainingDivergedError,
    TrainingExample,
    UNK,
    _SPECIALS,
    _corpus_nll,
    classify,
    label_token,
    prob,
    train,
)
from crashlens.schema import Severity, integrate, load_tables
from conftest import WHITESPACE
from oracles import distribution_given_window, grad_prob_wrt_embeddings, train_loop


def fd_gradient(model: TinyLM, context: list[int], target: int, step: float = 1e-4):
    """Central finite differences on per-position window embeddings."""
    ids = context if context else [BOS_ID]
    k = min(len(ids), model.window)
    start = len(ids) - k
    base = model.embeddings[ids[start:]].copy()
    grads = [np.zeros(model.dim) for _ in ids]
    for j in range(k):
        for c in range(model.dim):
            hi = base.copy()
            hi[j, c] += step
            lo = base.copy()
            lo[j, c] -= step
            grads[start + j][c] = (
                float(distribution_given_window(model, hi)[target])
                - float(distribution_given_window(model, lo)[target])
            ) / (2 * step)
    return grads


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(10):
        v = int(rng.integers(8, 16))
        model = TinyLM.init(v, dim=6, window=8, seed=int(rng.integers(1 << 30)))
        n = int(rng.integers(1, 7))
        context = [BOS_ID] + [int(t) for t in rng.integers(1, v, size=n)]
        target = int(rng.integers(0, v))
        analytic = grad_prob_wrt_embeddings(model, context, target)
        numeric = fd_gradient(model, context, target)
        for a, f in zip(analytic, numeric):
            err = np.linalg.norm(f - a) / max(np.linalg.norm(a), 1e-12)
            worst = max(worst, err)
    assert worst <= 1e-5, worst


def test_gradient_zero_outside_window():
    model = TinyLM.init(10, dim=4, window=3, seed=0)
    context = [1, 2, 3, 4, 5]
    grads = grad_prob_wrt_embeddings(model, context, target=7)
    assert np.array_equal(grads[0], np.zeros(4))
    assert np.array_equal(grads[1], np.zeros(4))
    assert any(np.any(g != 0) for g in grads[2:])


def test_distribution_is_a_probability():
    model = TinyLM.init(20, dim=8, window=6, seed=1)
    dist = model.distribution([3, 5, 7])
    assert dist.shape == (20,)
    assert np.all(dist > 0)
    assert np.isclose(dist.sum(), 1.0, atol=1e-12)


def test_empty_context_means_bos():
    model = TinyLM.init(9, dim=4, window=5, seed=2)
    assert np.array_equal(model.distribution([]), model.distribution([BOS_ID]))


def test_window_truncates_left():
    model = TinyLM.init(15, dim=4, window=3, seed=4)
    long = [1, 2, 3, 4, 5, 6, 7]
    assert np.array_equal(model.distribution(long), model.distribution(long[-3:]))


def test_windows_match_plain_slicing():
    """Empty, shorter than W, exactly W and longer than W: the window is the
    last W tokens as intp ids, <bos> alone for none."""
    model = TinyLM.init(15, dim=4, window=4, seed=3)
    for context in ([], [5, 6], [1, 2, 3, 4], [9, 8, 7, 6, 5, 4]):
        window = model.window_of(context)
        assert window.dtype == np.intp
        assert window.tolist() == (list(context) or [BOS_ID])[-4:]


@pytest.mark.parametrize("window", [48, 400])
def test_distribution_equals_the_window_oracle_bit_for_bit(window):
    """Contexts of 0 to 2W + 1 tokens at dim 32: the forward pools only the
    window's k tokens, as the oracle does (a tiny model hides the summation
    order that padding to W changes)."""
    rng = np.random.default_rng(window)
    model = TinyLM.init(300, dim=32, window=window, seed=1)
    for _ in range(200):
        context = rng.integers(0, 300, size=int(rng.integers(0, 2 * window + 2))).tolist()
        reference = distribution_given_window(model, model.embeddings[(context or [BOS_ID])[-window:]])
        assert np.array_equal(model.distribution(context), reference)


def test_corpus_nll_memory_follows_the_contexts_at_a_full_window():
    """At W = 400 the per-epoch NLL stacks one hidden vector per window and
    scores them in one product; it gathers no W x d slot tensor per context
    (20.2 MiB at this size, 32% of it padding)."""
    rng = np.random.default_rng(0)
    model = TinyLM.init(935, dim=32, window=400, seed=0)
    windows = [model.window_of(rng.integers(0, 935, size=int(rng.integers(150, 392)))) for _ in range(200)]
    targets = rng.integers(0, 935, size=200)
    tracemalloc.start()
    try:
        _corpus_nll(model, windows, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"corpus NLL peak at W=400 over 200 contexts: {peak / 2**20:.1f} MiB")
    assert peak <= 4 * 2**20


def _nll_in_one_matmul(model: TinyLM, windows, targets) -> float:
    probs = model._softmax_rows(np.stack([model.hidden(window) for window in windows]))
    return float(-np.log(np.maximum(probs[np.arange(len(targets)), targets], 1e-300)).mean())


def test_corpus_nll_memory_is_bounded_by_its_chunk():
    """Past NLL_CHUNK contexts the per-epoch NLL holds one chunk x V block
    of probabilities, not N x V, and scores as one matmul over them all
    would, up to rounding."""
    rng = np.random.default_rng(1)
    vocab, n = 500, 4 * NLL_CHUNK
    model = TinyLM.init(vocab, dim=8, window=6, seed=1)
    windows = [model.window_of(rng.integers(0, vocab, size=int(rng.integers(0, 9)))) for _ in range(n)]
    targets = rng.integers(0, vocab, size=n)
    tracemalloc.start()
    try:
        nll = _corpus_nll(model, windows, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = NLL_CHUNK * vocab * 8
    print(f"corpus NLL peak over {n} contexts: {peak / 2**20:.1f} MiB, one chunk block {block / 2**20:.1f} MiB")
    assert peak <= 1.5 * block < n * vocab * 8
    assert nll == pytest.approx(_nll_in_one_matmul(model, windows, targets), rel=1e-12)
    # at most one chunk is the one matmul itself
    assert _corpus_nll(model, windows[:NLL_CHUNK], targets[:NLL_CHUNK]) == _nll_in_one_matmul(
        model, windows[:NLL_CHUNK], targets[:NLL_CHUNK]
    )


def _nll_window_by_window(model: TinyLM, windows, targets) -> float:
    """The per-epoch NLL with each window pooled alone by `TinyLM.hidden`,
    scored NLL_CHUNK windows per output matmul."""
    p = []
    for lo in range(0, len(targets), NLL_CHUNK):
        chunk = windows[lo : lo + NLL_CHUNK]
        probs = model._softmax_rows(np.stack([model.hidden(window) for window in chunk]))
        p.extend(probs[np.arange(len(chunk)), targets[lo : lo + NLL_CHUNK]])
    return float(-np.log(np.maximum(np.array(p), 1e-300)).mean())


def test_corpus_nll_pools_each_window_as_hidden_does_exactly():
    """Over more than NLL_CHUNK windows of mixed length (an empty context,
    read as `<bos>`, windows shorter than W and full W windows, more of them
    in a chunk than one gather holds) the grouped per-epoch NLL equals the
    window-by-window one to the bit, chunk by chunk and over them all. A
    gather holds at most a chunk's n x V values, so the peak is two such
    blocks and the chunk's pooled vectors, not every full window's rows."""
    rng = np.random.default_rng(5)
    vocab, window, n = 20, 40, 2 * NLL_CHUNK + 37
    model = TinyLM.init(vocab, dim=16, window=window, seed=5)
    contexts = [[]] + [rng.integers(0, vocab, size=int(rng.integers(0, 2 * window))).tolist() for _ in range(n - 1)]
    windows = [model.window_of(context) for context in contexts]
    targets = rng.integers(0, vocab, size=n)
    lengths = [len(w) for w in windows]
    assert windows[0].tolist() == [BOS_ID] and min(lengths) == 1
    assert lengths.count(window) > NLL_CHUNK * vocab // (window * model.dim)
    for lo in range(0, n, NLL_CHUNK):
        chunk = slice(lo, lo + NLL_CHUNK)
        assert _corpus_nll(model, windows[chunk], targets[chunk]) == _nll_window_by_window(
            model, windows[chunk], targets[chunk]
        )
    tracemalloc.start()
    try:
        nll = _corpus_nll(model, windows, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nll == _nll_window_by_window(model, windows, targets)
    block, pooled = NLL_CHUNK * vocab * 8, NLL_CHUNK * model.dim * 8
    assert peak <= 2 * block + pooled + 2**16


def test_batch_probs_matches_loop():
    model = TinyLM.init(18, dim=6, window=4, seed=5)
    contexts = [[1], [2, 3], [4, 5, 6, 7, 8], []]
    batched = model.batch_probs(contexts, target=9)
    singles = [prob(model, c, 9) for c in contexts]
    assert np.allclose(batched, singles, rtol=0, atol=1e-15)
    # the per-window reference forward, on plainly sliced windows
    reference = [
        distribution_given_window(model, model.embeddings[(c or [BOS_ID])[-4:]])[9] for c in contexts
    ]
    assert np.allclose(batched, reference, rtol=0, atol=1e-15)


def test_training_memorizes_toy_patterns():
    # two disjoint contexts deterministically followed by different tokens
    examples = [TrainingExample((0, 5, 6), 10), TrainingExample((0, 7, 8), 11)]
    model = TinyLM.init(12, dim=8, window=4, seed=0)
    trained = train(model, examples, TrainConfig(lr=0.5, epochs=120, seed=0))
    assert len(trained.loss_history) == 120
    assert trained.loss_history[-1] < trained.loss_history[0]
    assert trained.loss_history[-1] < 0.05
    assert int(np.argmax(trained.distribution([0, 5, 6]))) == 10
    assert int(np.argmax(trained.distribution([0, 7, 8]))) == 11
    # the input model is untouched; training returns a copy
    assert not np.array_equal(model.embeddings, trained.embeddings)


def _random_examples(rng, n, vocab, window):
    """Examples whose contexts run from 0 to 2W + 1 tokens: always one empty,
    one of exactly W and one of 2W + 1, the rest drawn from that range."""
    lengths = [0, window, 2 * window + 1, *rng.integers(0, 2 * window + 2, size=n - 3)]
    return [
        TrainingExample(tuple(int(t) for t in rng.integers(0, vocab, size=length)), int(rng.integers(vocab)))
        for length in lengths
    ]


def _params(model: TinyLM):
    return (model.embeddings, model.position_weights, model.output_weights, model.output_bias)


def _synth_narrative_examples(tmp_path, window):
    """One example per prefix of the first seed-1 synth narrative, under a
    vocabulary of its own repeated words, so most windows repeat tokens."""
    paths = synth.write_corpus(tmp_path, n_cases=1, seed=1)
    case = integrate(load_tables(*(paths[name] for name in ("crashes", "segments", "vehicles", "persons")))).cases[0]
    text = render(normalize(case, load_lexicon()), load_templates()).descriptive
    tokenizer = Tokenizer.from_texts([text])
    examples = _prefix_examples((BOS_ID, *tokenizer.encode(text)))
    repeats = sum(len(set(ex.context[-window:])) < len(ex.context[-window:]) for ex in examples)
    assert len(examples) > window and repeats > len(examples) // 2
    return tokenizer.size, examples


def test_train_matches_loop_oracle_exactly_on_label_only_masks(tmp_path):
    rng = np.random.default_rng(31)
    trials = []
    for trial in range(60):
        vocab, window = int(rng.integers(6, 30)), int(rng.integers(2, 10))
        examples = _random_examples(rng, 12, vocab, window)
        trials.append((vocab, 5, window, examples, TrainConfig(lr=0.2, epochs=4, seed=trial)))
    vocab, examples = _synth_narrative_examples(tmp_path, 48)
    trials.append((vocab, 8, 48, examples, TrainConfig(lr=0.05, epochs=2, seed=60)))
    for trial, (vocab, dim, window, examples, config) in enumerate(trials):
        model = TinyLM.init(vocab, dim=dim, window=window, seed=trial)
        ours, oracle = train(model, examples, config), train_loop(model, examples, config)
        for a, b in zip(_params(ours), _params(oracle)):
            assert np.array_equal(a, b)
        # the per-epoch NLL is summed in another order
        assert np.allclose(ours.loss_history, oracle.loss_history, rtol=1e-12, atol=0)


def test_loss_mask_marks_the_target_alone():
    assert TrainingExample((0, 4, 5), 6).loss_mask == (False, False, False, True)
    assert TrainingExample((), 3).loss_mask == (True,)


def _prefix_examples(tokens):
    return [TrainingExample(tuple(tokens[:j]), tokens[j]) for j in range(1, len(tokens))]


def test_training_is_seed_deterministic():
    examples = _prefix_examples((0, 2, 3, 4)) + _prefix_examples((0, 4, 3, 2))
    model = TinyLM.init(6, dim=4, window=4, seed=1)
    a = train(model, examples, TrainConfig(lr=0.1, epochs=5, seed=9))
    b = train(model, examples, TrainConfig(lr=0.1, epochs=5, seed=9))
    assert np.array_equal(a.embeddings, b.embeddings)
    assert a.loss_history == b.loss_history
    c = train(model, examples, TrainConfig(lr=0.1, epochs=5, seed=10))
    assert not np.array_equal(a.embeddings, c.embeddings)


def test_divergence_raises_with_epoch():
    examples = _prefix_examples([0] + [1, 2, 3] * 6)
    model = TinyLM.init(5, dim=4, window=8, seed=0)
    with pytest.raises(TrainingDivergedError) as err:
        train(model, examples, TrainConfig(lr=1e6, epochs=50, seed=0))
    assert err.value.epoch >= 0


def test_bad_examples_rejected():
    model = TinyLM.init(4, dim=2, window=2, seed=0)
    for bad in (TrainingExample((0, 99), 1), TrainingExample((0, 1), 4), TrainingExample((0,), -1)):
        with pytest.raises(ValueError):
            train(model, [bad], TrainConfig(lr=0.05, epochs=1, seed=0))
    with pytest.raises(ValueError, match="no training examples"):
        train(model, [], TrainConfig(lr=0.05, epochs=1, seed=0))


def test_classify_tie_goes_to_minor_and_is_flagged():
    tokenizer = Tokenizer.from_texts(["a b", "a b"])
    model = TinyLM.init(tokenizer.size, dim=4, window=4, seed=0)
    model.embeddings[:] = 0.0
    model.position_weights[:] = 0.0
    model.output_weights[:] = 0.0
    model.output_bias[:] = 0.0
    winner, trace = classify(tokenizer, model.distribution([BOS_ID, *tokenizer.encode("a b")]))
    assert winner is Severity.MINOR
    assert isinstance(trace, DecodeTrace)
    assert trace.tie is True
    assert trace.log_scores[Severity.MINOR] == trace.log_scores[Severity.SEVERE]


def test_classify_learns_labels_from_training(pairs, corpus_tokenizer):
    examples = []
    for pair in pairs:
        context = (BOS_ID, *corpus_tokenizer.encode(pair.descriptive))
        examples.append(TrainingExample(context, corpus_tokenizer.label_id(pair.label)))
    # the model `train-ref` builds, at its default settings and seed 7
    cfg = load_config(None)
    model = TinyLM.init(corpus_tokenizer.size, dim=cfg["dim"], window=cfg["window"], seed=7)
    trained = train(model, examples, TrainConfig(lr=cfg["lr"], epochs=cfg["epochs"], seed=7))
    hits = sum(
        classify(corpus_tokenizer, trained.distribution(ex.context))[0] is p.label
        for p, ex in zip(pairs, examples)
    )
    assert hits / len(pairs) >= 0.9


def test_tokenizer_word_mode_round_trip():
    tok = Tokenizer.from_texts(["the quick brown fox", "the quick lazy dog", "jumps over the lazy dog"])
    text = "the quick dog"
    ids = tok.encode(text)
    assert " ".join(tok.tokens[i] for i in ids) == text
    spans = tok.encode_with_spans(text)
    for tid, start, end in spans:
        assert text[start:end] in tok.tokens or tok.tokens[tid] == "<unk>"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([*WHITESPACE, "\x85"]), st.sampled_from(["a", "b", "ab", "ba", "é", "a.b"])),
        max_size=20,
    ).map("".join)
)
def test_encode_with_spans_matches_an_s_plus_scan(text):
    """The words of `str.split()` located by a running find are the words of
    an `\\S+` scan, spans and all, whatever whitespace separates them."""
    tok = Tokenizer.from_texts([text, "a b a b"])
    scan = [(tok.id_of(m[0]), m.start(), m.end()) for m in re.finditer(r"\S+", text)]
    assert tok.encode_with_spans(text) == scan
    assert tok.encode(text) == [tid for tid, _, _ in scan]


def test_encode_is_the_ids_of_encode_with_spans(pairs, corpus_tokenizer):
    """`encode` maps the words to ids without locating them: the same ids
    over the bundled narratives, a word that spells a label and words split
    by Unicode whitespace."""
    label = label_token(Severity.SEVERE)
    texts = [p.descriptive for p in pairs]
    texts += [f"the {label} crash", f"{label}", "".join(f"the{ws}crash" for ws in [*WHITESPACE, "\x85"])]
    for text in texts:
        assert corpus_tokenizer.encode(text) == [i for i, _, _ in corpus_tokenizer.encode_with_spans(text)]
    assert corpus_tokenizer.encode(label) == [corpus_tokenizer.id_of(UNK)]


def test_tokenizer_keeps_the_words_seen_at_least_min_word_count_times():
    assert MIN_WORD_COUNT == 2
    tok = Tokenizer.from_texts(["b a c a", "d b", "e"])
    assert tok.tokens == ["<bos>", "<eos>", "<unk>", "<label:NoApparentOrMinor>", "<label:SeriousOrFatal>", "a", "b"]
    assert [tok.tokens[i] for i in tok.encode("a c b")] == ["a", "<unk>", "b"]


def test_a_word_that_spells_a_special_token_is_never_counted_and_reads_as_unk():
    """A text may spell a special: the vocabulary does not take it as a word,
    and it encodes as `<unk>`, so a narrative cannot hand the model its label."""
    tok = Tokenizer.from_texts(["a <unk> b", "a <unk> b"] + [f"a {special} b" for special in _SPECIALS] * 2)
    assert tok.tokens == [*_SPECIALS, "a", "b"]
    a, b, unk = tok.id_of("a"), tok.id_of("b"), tok.id_of("<unk>")
    text = f"a {label_token(Severity.SEVERE)}  <bos> b"
    assert tok.encode_with_spans(text) == [(a, 0, 1), (unk, 2, 24), (unk, 26, 31), (b, 32, 33)]


def test_tokenizer_unknown_word_is_unk():
    tok = Tokenizer.from_texts(["alpha beta", "alpha beta"])
    unk = tok.id_of("never-seen")
    assert tok.tokens[unk] == "<unk>"
    assert tok.id_of("alpha") != unk


def test_tokenizer_label_ids_are_special():
    tok = Tokenizer.from_texts(["x"])
    minor = tok.label_id(Severity.MINOR)
    severe = tok.label_id(Severity.SEVERE)
    assert minor != severe
    assert tok.tokens[minor] == label_token(Severity.MINOR)
    assert minor < 5 and severe < 5


def test_tokenizer_save_load_round_trip(tmp_path):
    tok = Tokenizer.from_texts(["some words here"] * 2)
    assert tok.tokens[5:] == ["here", "some", "words"]
    path = tmp_path / "tok.json"
    tok.save(path)
    back = Tokenizer.load(path)
    assert back.tokens == tok.tokens
    assert json.loads(path.read_text())["mode"] == "word"


def test_tokenizer_load_rejects_other_modes(tmp_path):
    path = tmp_path / "tok.json"
    Tokenizer.from_texts(["some words"]).save(path)
    doc = json.loads(path.read_text())
    doc["mode"] = "subword"
    path.write_text(json.dumps(doc))
    with pytest.raises(RefModelError, match="subword"):
        Tokenizer.load(path)


def _checkpoint_doc(model: TinyLM) -> dict:
    """The checkpoint as one document, before `save` wrote it row by row."""
    return {
        "version": 1,
        "embeddings": model.embeddings.tolist(),
        "position_weights": model.position_weights.tolist(),
        "output_weights": model.output_weights.tolist(),
        "output_bias": model.output_bias.tolist(),
    }


@pytest.mark.parametrize(
    "vocab, dim, window", [(len(_SPECIALS), 1, 1), (len(_SPECIALS), 3, 2), (40, 1, 7), (60, 8, 48)]
)
def test_model_save_load_round_trip(tmp_path, vocab, dim, window):
    """`save` writes the bytes of `json.dumps` of the whole checkpoint, and
    `load` reads every array back exactly."""
    model = TinyLM.init(vocab, dim=dim, window=window, seed=vocab + dim)
    # values whose repr is unusual: signed zero, subnormal, huge, many digits
    model.embeddings[0, 0] = -0.0
    model.output_bias[:4] = [5e-324, -1.7976931348623157e308, 1e16, 0.1 + 0.2]
    path = tmp_path / "model.json"
    model.save(path)
    assert path.read_text(encoding="utf-8") == json.dumps(_checkpoint_doc(model))
    back = TinyLM.load(path)
    for a, b in zip(_params(model), _params(back)):
        assert np.array_equal(a, b)
    assert np.signbit(back.embeddings[0, 0])
    context = [1, 2, 3]
    assert np.array_equal(model.distribution(context), back.distribution(context))


def test_model_save_memory_is_one_row_not_the_document(tmp_path):
    """At the 20k-case vocabulary the whole document's lists and text took
    ~27 MiB; written row by row, `save` holds one row's."""
    model = TinyLM.init(5700, dim=32, window=48, seed=0)
    tracemalloc.start()
    try:
        model.save(tmp_path / "model.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"save peak at V=5700, d=32: {peak / 2**20:.2f} MiB")
    assert peak < 2**20


def test_model_save_that_fails_midway_leaves_the_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    TinyLM.init(300, dim=4, window=4, seed=0).save(path)
    before = path.read_bytes()
    chunks = TinyLM._json_chunks

    def failing(self):
        for i, chunk in enumerate(chunks(self)):
            if i == 200:  # inside the embedding rows, after some bytes reached the temp file
                raise OSError("disk full")
            yield chunk

    monkeypatch.setattr(TinyLM, "_json_chunks", failing)
    with pytest.raises(OSError, match="disk full"):
        TinyLM.init(300, dim=4, window=4, seed=1).save(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("dim, window", [(0, 4), (3, 0), (-1, 4)])
def test_init_rejects_an_empty_dimension(dim, window):
    with pytest.raises(RefModelError, match="must be >= 1"):
        TinyLM.init(6, dim=dim, window=window, seed=0)


def test_model_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"version": 99}')
    with pytest.raises(RefModelError):
        TinyLM.load(path)


@pytest.mark.parametrize(
    "doc, detail",
    [
        ([1], "must hold a JSON object, not list"),
        ({"mode": "word"}, "lacks 'tokens'"),
        ({"mode": "word", "tokens": 5}, "'tokens' must be a list of strings"),
    ],
    ids=["list", "no-tokens", "tokens-int"],
)
def test_tokenizer_load_rejects_malformed_file(tmp_path, doc, detail):
    path = tmp_path / "tok.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(RefModelError, match=detail):
        Tokenizer.load(path)


def _checkpoint(**changes) -> dict:
    doc = _checkpoint_doc(TinyLM.init(6, dim=3, window=4, seed=1))
    doc.update(changes)
    return {k: v for k, v in doc.items() if v is not None}


@pytest.mark.parametrize(
    "doc, detail",
    [
        ([1], "must hold a JSON object, not list"),
        (_checkpoint(output_bias=None), "lacks 'output_bias'"),
        (_checkpoint(embeddings={"a": 1}), "float"),
        (_checkpoint(embeddings=[[1.0, 2.0], [3.0]]), "inhomogeneous"),
        (_checkpoint(output_bias=[0.0]), "arrays do not fit one model"),
        (_checkpoint(position_weights=[]), "arrays do not fit one model"),
        (_checkpoint(embeddings=[[]] * 6, output_weights=[]), "arrays do not fit one model"),
        (_checkpoint(output_bias=[0.0, float("nan"), 0.0, 0.0, 0.0, 0.0]), "non-finite"),
        (_checkpoint(position_weights=[1.0, float("inf"), 1.0, 1.0]), "non-finite"),
    ],
    ids=[
        "list", "no-bias", "embeddings-object", "embeddings-ragged", "bias-too-short",
        "zero-window", "zero-dim", "bias-nan", "weight-inf",
    ],
)
def test_model_load_rejects_malformed_file(tmp_path, doc, detail):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(RefModelError, match=detail):
        TinyLM.load(path)
