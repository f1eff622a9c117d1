from __future__ import annotations

import json
import re
import sys
from collections import Counter
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashlens.attribution import (
    ScoreMatrix,
    WordAttribution,
    aggregate_to_words,
    annotate_narrative,
    attribution_record,
    normalize_scores,
    occlusion_importance,
    parse_annotated,
    taylor_importance,
    token_fragments,
)
from crashlens.refmodel import BOS_ID, MIN_WORD_COUNT, UNK, TinyLM, Tokenizer
from oracles import (
    aggregate_to_words_scan,
    attribution_record_dict,
    distribution_given_window,
    normalize_scores_bruteforce,
    occlusion_loop,
    occlusion_variants,
    taylor_loop,
)


def small_model(vocab: int = 10, dim: int = 4, window: int = 8, seed: int = 0) -> TinyLM:
    return TinyLM.init(vocab, dim=dim, window=window, seed=seed)


def _occlusion(model: TinyLM, context, target: int) -> np.ndarray:
    """`occlusion_importance` on the forward pass its caller runs."""
    return occlusion_importance(model, context, target, model.distribution(context))


def _taylor(model: TinyLM, context, target: int) -> np.ndarray:
    """`taylor_importance` on the forward pass its caller runs."""
    return taylor_importance(model, context, target, model.distribution(context))


def test_occlusion_matches_direct_probability_arithmetic():
    model = small_model(seed=11)

    def p(context, target):
        return float(model.distribution(context)[target])

    values = _occlusion(model, [1, 2, 3], 4)
    assert values[0] == pytest.approx(p([1, 2, 3], 4) - p([2, 3], 4), abs=1e-15)
    assert values[1] == pytest.approx(p([1, 2, 3], 4) - p([1, 3], 4), abs=1e-15)
    assert values[2] == pytest.approx(p([1, 2, 3], 4) - p([1, 2], 4), abs=1e-15)
    # deleting the last context token counts too
    values = _occlusion(model, [1, 2, 3, 4], 5)
    assert values[3] == pytest.approx(p([1, 2, 3, 4], 5) - p([1, 2, 3], 5), abs=1e-15)


def test_occlusion_response_rows_are_structural_zeros():
    """The target is not in its own context: its row of the scores is 0."""
    model = small_model(seed=7)
    values = _occlusion(model, [1, 2], 3)
    assert values.shape == (2,)
    scores = normalize_scores(np.abs(values), 100, 1).scores
    assert scores.shape == (3, 1)
    assert scores[-1, 0] == 0 and scores.max() == 100


def test_occlusion_values_bounded_by_one():
    model = small_model(seed=3)
    values = _occlusion(model, [1, 2, 3, 4, 5], 6)
    assert np.all(np.abs(values) <= 1.0)


def test_occlusion_adjacent_duplicates_score_equally():
    model = small_model(seed=5)
    # deleting either copy of a doubled token yields the same shorter sequence
    values = _occlusion(model, [1, 4, 4, 2], 6)
    assert values[1] == values[2]


def test_occlusion_matches_loop_oracle():
    rng = np.random.default_rng(41)
    for trial in range(30):
        vocab, window = int(rng.integers(5, 20)), int(rng.integers(1, 9))
        model = small_model(vocab=vocab, dim=4, window=window, seed=trial)
        # contexts shorter than, equal to and longer than the window, and empty
        context = [int(t) for t in rng.integers(0, vocab, size=int(rng.integers(0, 3 * window)))]
        target = int(rng.integers(0, vocab))
        ours = _occlusion(model, context, target)
        oracle = occlusion_loop(model, context, target)
        assert ours.shape == oracle.shape == (len(context),)
        # probabilities <= 1 from batched vs single-row matmuls: a few ulps apart
        assert np.allclose(ours, oracle, rtol=0, atol=1e-14)
        assert not ours[: max(len(context) - window, 0)].any()


OCCLUSION_KINDS = ("tiny", "short", "full", "one-over", "two-over", "long", "straddle")


def _occlusion_contexts(rng: np.random.Generator, vocab: int, window: int, kind: str) -> list[int]:
    """A random context of one length kind: 0 to 2 tokens, shorter than W,
    W, W + 1, W + 2, at least 2W, or longer than W with a run of equal
    tokens across the window's first slot."""
    lengths = {
        "tiny": int(rng.integers(0, 3)),
        "short": int(rng.integers(0, window)),
        "full": window,
        "one-over": window + 1,
        "two-over": window + 2,
        "long": int(rng.integers(2 * window, 3 * window + 1)),
        "straddle": int(rng.integers(window + 2, 2 * window + 3)),
    }
    n = lengths[kind]
    context = [int(t) for t in rng.integers(0, vocab, size=n)]
    if kind == "straddle":
        first = n - window
        lo, hi = int(rng.integers(0, first)), int(rng.integers(first + 1, n + 1))
        context[lo:hi] = [int(rng.integers(0, vocab))] * (hi - lo)
    return context


@pytest.mark.parametrize("kind", OCCLUSION_KINDS)
def test_occlusion_closed_form_matches_variant_route(kind):
    rng = np.random.default_rng(OCCLUSION_KINDS.index(kind))
    worst = 0.0
    for trial in range(60):
        # small vocabularies make runs of equal tokens common
        vocab, window = int(rng.integers(3, 20)), int(rng.integers(1, 12))
        model = small_model(vocab=vocab, dim=int(rng.integers(1, 9)), window=window, seed=trial)
        context = _occlusion_contexts(rng, vocab, window, kind)
        target = int(rng.integers(0, vocab))
        ours = _occlusion(model, context, target)
        oracle = occlusion_variants(model, context, target)
        assert ours.shape == oracle.shape == (len(context),)
        worst = max(worst, float(np.abs(ours - oracle).max(initial=0.0)))
        first = max(len(context) - window, 0)
        assert not ours[:first].any()  # never computed, exactly 0
        for q in range(1, len(context)):
            if context[q] == context[q - 1]:  # one sequence whichever copy goes
                assert ours[q] == ours[q - 1]
    print(f"{kind}: largest |closed form - variant route| = {worst:.2e}")
    assert worst <= 1e-15


def test_occlusion_memory_stays_small_at_a_full_window():
    """At W = 400 the scores come from running sums over the context, not a
    W x d window per deletion (~43 MiB at this size)."""
    model = TinyLM.init(935, dim=32, window=400, seed=0)
    context = [int(t) for t in np.random.default_rng(0).integers(0, 935, size=391)]
    dist = model.distribution(context)
    tracemalloc.start()
    try:
        occlusion_importance(model, context, 7, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"occlusion peak at W=400, n=391: {peak / 2**20:.1f} MiB")
    assert peak <= 8 * 2**20


def test_taylor_zero_embedding_scores_zero():
    model = small_model(seed=13)
    model.embeddings[2][:] = 0.0
    values = _taylor(model, [1, 2, 3], 4)
    assert values[1] == 0.0


@pytest.mark.parametrize("n_prompt", [0, 3, 8, 13])
def test_taylor_matches_per_position_gradient_reference(n_prompt):
    """Contexts shorter than, as long as and longer than the window of 8."""
    model = small_model(seed=19)
    rng = np.random.default_rng(n_prompt)
    context = rng.integers(0, 10, size=n_prompt).tolist()
    target = int(rng.integers(0, 10))
    values = _taylor(model, context, target)
    assert values.shape == (n_prompt,)
    np.testing.assert_allclose(values, taylor_loop(model, context, target), rtol=1e-12, atol=0)


def test_taylor_matches_directional_finite_difference():
    model = small_model(seed=17)
    context = [1, 2, 3, 4]
    values = _taylor(model, context, 5)
    eps = 1e-6
    base = model.embeddings[context].copy()
    for j in range(len(context)):
        # scale token j's contribution by (1 - eps): first-order change is -eps * I
        perturbed = base.copy()
        perturbed[j] *= 1.0 - eps
        delta = float(distribution_given_window(model, perturbed)[5]) - float(
            distribution_given_window(model, base)[5]
        )
        assert delta / (-eps) == pytest.approx(values[j], rel=1e-4)


def test_normalization_matches_bruteforce_on_randoms():
    rng = np.random.default_rng(21)
    for _ in range(50):
        rows = int(rng.integers(1, 12))
        values = rng.normal(scale=float(rng.choice([1e-6, 1.0, 1e4])), size=rows)
        if rng.random() < 0.3:
            values = -np.abs(values)
        ours = normalize_scores(values, 100, 1).scores
        reference = normalize_scores_bruteforce([[v] for v in values.tolist()])
        assert ours.tolist() == reference + [[0]]


def test_normalization_thresholds_and_zeroes():
    scores = normalize_scores(np.array([0.5, 1.0, 0.004]), L=100, b=1)
    # max 1.0 -> 50, 100, ceil(0.4) = 1 which b suppresses to 0; the target row is 0
    assert scores.scores[:, 0].tolist() == [50, 100, 0, 0]
    assert (scores.L, scores.b) == (100, 1)
    # the max is negative -> all zero by definition
    assert normalize_scores(np.array([-1.0, -2.0, -0.5]), 100, 1).scores[:, 0].tolist() == [0, 0, 0, 0]


def test_normalization_of_a_tiny_max_next_to_a_negative_does_not_overflow():
    # -1 / 2.2e-308 times L is past the largest float; clipped to 0 first, it is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scores = normalize_scores(np.array([sys.float_info.min, -1.0, sys.float_info.min / 2]), 100, 1)
    assert scores.scores[:, 0].tolist() == [100, 0, 50, 0]


# a tokenizer that knows no word: it still gives every word its span
_SPECIALS_ONLY = Tokenizer.from_texts([])


def test_aggregate_to_words_reads_word_n_from_token_n_plus_1():
    text = "alpha  beta\tgamma"
    # rows: <bos>, alpha, beta, gamma, then the target's 0 row
    scores = normalize_scores(np.array([9.0, 1.0, 4.0, 2.0]), 100, 1)
    words = aggregate_to_words(scores, text, _SPECIALS_ONLY.encode_with_spans(text), display_divisor=20.0)
    assert words == [
        WordAttribution("alpha", (0, 5), 12 / 20),
        WordAttribution("beta", (7, 11), 45 / 20),
        WordAttribution("gamma", (12, 17), 23 / 20),
    ]


def test_positive_words_filter():
    """Only words that scored above 0 come back, so only they are annotated."""
    text = "a b c d"
    # b's ceil(100 * 0.005) = 1 is not above b = 1; c's score is negative
    scores = normalize_scores(np.array([0.0, 0.25, 0.005, -1.0, 1.0]), 100, 1)
    words = aggregate_to_words(scores, text, _SPECIALS_ONLY.encode_with_spans(text), display_divisor=1.0)
    assert [(w.word, w.score) for w in words] == [("a", 25.0), ("d", 100.0)]
    assert annotate_narrative(text, words) == "a[25.00] b c d[100.00]"


def test_tokenizer_spans_are_the_narrative_words(pairs, corpus_tokenizer):
    """attribute reads word n of a narrative off context token n + 1 (after
    <bos>), so the tokenizer must give exactly one span per \\S+ word, known
    or not; the corpus tokenizer reads exactly the words seen fewer than
    MIN_WORD_COUNT times as <unk>, and one built from five narratives more."""
    rng = np.random.default_rng(47)
    narrow = Tokenizer.from_texts([p.descriptive for p in pairs[:5]])
    counts = Counter(w for p in pairs for w in p.descriptive.split())
    rare = sum(counts[w] < MIN_WORD_COUNT for p in pairs[::7] for w in p.descriptive.split())
    unknown = {}
    for name, tokenizer in (("corpus", corpus_tokenizer), ("narrow", narrow)):
        unknown[name] = 0
        for pair in pairs[::7]:
            text = pair.descriptive
            spans = tokenizer.encode_with_spans(text)
            matches = list(re.finditer(r"\S+", text))
            assert [(s, e) for _, s, e in spans] == [m.span() for m in matches]
            assert [tid for tid, _, _ in spans] == [tokenizer.id_of(m.group(0)) for m in matches]
            unknown[name] += sum(tid == tokenizer.id_of(UNK) for tid, _, _ in spans)
            scores = normalize_scores(rng.normal(size=1 + len(spans)), 100, 1)
            assert aggregate_to_words(scores, text, spans, 20.0) == aggregate_to_words_scan(scores, text, 20.0)
    assert 0 < unknown["corpus"] == rare < unknown["narrow"]


def test_annotation_round_trip():
    text = "the quick brown fox jumps"
    words = [
        WordAttribution(word="quick", char_span=(4, 9), score=3.25),
        WordAttribution(word="fox", char_span=(16, 19), score=5.0),
    ]
    annotated = annotate_narrative(text, words)
    assert annotated == "the quick[3.25] brown fox[5.00] jumps"
    assert parse_annotated(annotated)[0] == text
    plain, parsed = parse_annotated(annotated)
    assert plain == text
    by_word = {w.word: w.score for w in parsed}
    assert by_word["quick"] == 3.25
    assert by_word["fox"] == 5.0
    assert "brown" not in by_word  # only the tagged words come back


@settings(max_examples=200, deadline=None)
@given(
    text=st.text(st.sampled_from("ab1.,:]é٣ \t\n\x1c\x85\xa0 　"), max_size=40),
    data=st.data(),
)
def test_parse_annotated_inverts_annotate_narrative(text, data):
    """Any subset of a tag-free text's words, scored in hundredths, comes
    back from its annotation exactly, in order; nothing else does."""
    spans = [m.span() for m in re.finditer(r"\S+", text)]
    chosen = data.draw(st.lists(st.sampled_from(spans), unique=True) if spans else st.just([]))
    hundredths = data.draw(st.lists(st.integers(0, 10**6), min_size=len(chosen), max_size=len(chosen)))
    words = sorted((WordAttribution(text[s:e], (s, e), n / 100) for (s, e), n in zip(chosen, hundredths)),
                   key=lambda w: w.char_span)
    assert parse_annotated(annotate_narrative(text, words)) == (text, words)


def test_attribution_record_round_trips_sparse_matrix(reference_model, corpus_tokenizer, pairs):
    text = pairs[0].descriptive
    spans = corpus_tokenizer.encode_with_spans(text)[:12]
    context = [BOS_ID] + [tid for tid, _, _ in spans]
    target = context[3]
    scores = normalize_scores(_occlusion(reference_model, context, target), 100, 1)
    words = aggregate_to_words(scores, text, spans, display_divisor=20.0)
    annotated = annotate_narrative(text, words)
    fragments = token_fragments(corpus_tokenizer.tokens)
    line = attribution_record("C0000", "occlusion", fragments, spans, target, scores, annotated)
    record = json.loads(line)
    dense = np.zeros_like(scores.scores)
    for n, m, v in record["score_matrix"]:
        dense[n, m] = v
    assert np.array_equal(dense, scores.scores)
    assert record["method"] == "occlusion"
    assert list(record) == ["caseno", "method", "L", "b", "tokens", "output_tokens", "score_matrix", "annotated"]
    label = {"text": corpus_tokenizer.tokens[target], "id": target}
    assert record["output_tokens"] == [label]
    assert record["tokens"] == [
        {"text": "<bos>", "id": BOS_ID, "start": None, "end": None},
        *({"text": corpus_tokenizer.tokens[tid], "id": tid, "start": s, "end": e} for tid, s, e in spans),
        {**label, "start": None, "end": None},
    ]
    # every scored word's display score comes back from the annotation; a
    # multiple of 1/20 survives the two-decimal rendering exactly
    plain, parsed = parse_annotated(record["annotated"])
    assert plain == text
    assert parsed == words


# token texts that JSON escapes, or writes as they are with ensure_ascii off
_AWKWARD = st.text(st.sampled_from('ab "\\/\x00\x01\x1f\x7f\n\r\t\u2028\u2029\xe9\u4e2d\U0001f697[].'), max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    words=st.lists(st.one_of(_AWKWARD, st.text(max_size=6)), unique=True, max_size=10),
    caseno=st.one_of(_AWKWARD, st.text(max_size=8)),
    annotated=st.one_of(_AWKWARD, st.text(max_size=40)),
    L=st.integers(1, 1000),
    b=st.integers(0, 999),
    data=st.data(),
)
def test_attribution_record_is_the_json_dumps_of_the_record(words, caseno, annotated, L, b, data):
    """The line `attribution_record` builds from token fragments has the bytes
    `json.dumps` writes for the record dict, whatever the token texts hold;
    an all-zero score column gives an empty matrix."""
    tokenizer = Tokenizer(_SPECIALS_ONLY.tokens + [w for w in words if w not in _SPECIALS_ONLY.vocab])
    ids = st.integers(0, tokenizer.size - 1)
    spans = data.draw(st.lists(st.tuples(ids, st.integers(0, 10**6), st.integers(0, 10**6)), max_size=12))
    target = data.draw(ids)
    rows = len(spans) + 2  # <bos>, the words, the target
    column = data.draw(st.lists(st.sampled_from([0, 0, 1, 2, 57, L]), min_size=rows, max_size=rows))
    fragments = token_fragments(tokenizer.tokens)
    for values in (column, [0] * rows):
        scores = ScoreMatrix(np.array(values, dtype=np.int64)[:, None], L, b)
        line = attribution_record(caseno, "taylor", fragments, spans, target, scores, annotated)
        record = attribution_record_dict(caseno, "taylor", tokenizer, spans, target, scores, annotated)
        assert line == json.dumps(record, ensure_ascii=False)
    assert json.loads(line)["score_matrix"] == []


@settings(max_examples=150, deadline=None)
@given(
    text=st.text(st.sampled_from("ab.\u00e9 \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000"), max_size=40),
    data=st.data(),
)
def test_aggregate_to_words_with_spans_matches_a_rescan(text, data):
    """Word n read off the encoder's n-th span is word n of an `\\S+` scan
    of the narrative, whatever whitespace separates the words."""
    spans = Tokenizer.from_texts([text, text]).encode_with_spans(text)
    rows = len(spans) + 1  # <bos> and the words
    raw = data.draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=rows, max_size=rows))
    scores = normalize_scores(np.array(raw), 100, 1)
    assert aggregate_to_words(scores, text, spans, 20.0) == aggregate_to_words_scan(scores, text, 20.0)
