from __future__ import annotations

import re

import numpy as np
import pytest

from crashlens.attribution import (
    ImportanceMatrix,
    NormalizationConfig,
    TokenInfo,
    WordAttribution,
    aggregate_to_words,
    annotate_narrative,
    attribution_record,
    normalize_scores,
    occlusion_importance,
    parse_annotated,
    positive_words,
    strip_annotations,
    taylor_importance,
)
from crashlens.refmodel import BOS_ID, TinyLM, Tokenizer
from oracles import aggregate_to_words_quadratic, normalize_scores_bruteforce, occlusion_loop, taylor_loop


def small_model(vocab: int = 10, dim: int = 4, window: int = 8, seed: int = 0) -> TinyLM:
    return TinyLM.init(vocab, dim=dim, window=window, seed=seed)


def synthetic_matrix(values: np.ndarray, method: str = "occlusion") -> ImportanceMatrix:
    n, m = values.shape
    return ImportanceMatrix(
        values=values,
        input_tokens=[TokenInfo(text=f"t{i}", token_id=i) for i in range(n)],
        output_tokens=[TokenInfo(text=f"o{j}", token_id=j) for j in range(m)],
        method=method,
    )


def test_occlusion_matches_direct_probability_arithmetic():
    model = small_model(seed=11)
    prompt, response = [1, 2, 3], [4, 5]
    matrix = occlusion_importance(model, prompt, response)

    def p(context, target):
        return float(model.distribution(context)[target])

    # column 0: target 4 given [1,2,3]
    assert matrix.values[0, 0] == pytest.approx(p([1, 2, 3], 4) - p([2, 3], 4), abs=1e-15)
    assert matrix.values[1, 0] == pytest.approx(p([1, 2, 3], 4) - p([1, 3], 4), abs=1e-15)
    assert matrix.values[2, 0] == pytest.approx(p([1, 2, 3], 4) - p([1, 2], 4), abs=1e-15)
    # column 1: target 5 given [1,2,3,4]; deleting the response token 4 counts too
    assert matrix.values[3, 1] == pytest.approx(p([1, 2, 3, 4], 5) - p([1, 2, 3], 5), abs=1e-15)


def test_occlusion_response_rows_are_structural_zeros():
    model = small_model(seed=7)
    prompt, response = [1, 2], [3, 4, 5]
    matrix = occlusion_importance(model, prompt, response)
    n_prompt = len(prompt)
    for m in range(len(response)):
        for n in range(n_prompt + m, matrix.values.shape[0]):
            assert matrix.values[n, m] == 0.0


def test_occlusion_values_bounded_by_one():
    model = small_model(seed=3)
    matrix = occlusion_importance(model, [1, 2, 3, 4], [5, 6])
    assert np.all(np.abs(matrix.values) <= 1.0)


def test_occlusion_adjacent_duplicates_score_equally():
    model = small_model(seed=5)
    # deleting either copy of a doubled token yields the same shorter sequence
    matrix = occlusion_importance(model, [1, 4, 4, 2], [6])
    assert matrix.values[1, 0] == matrix.values[2, 0]


def test_occlusion_matches_loop_oracle():
    rng = np.random.default_rng(41)
    for trial in range(30):
        vocab, window = int(rng.integers(5, 20)), int(rng.integers(1, 9))
        model = small_model(vocab=vocab, dim=4, window=window, seed=trial)
        # prompts shorter than, equal to and longer than the window, and empty
        prompt = [int(t) for t in rng.integers(0, vocab, size=int(rng.integers(0, 3 * window)))]
        response = [int(t) for t in rng.integers(0, vocab, size=int(rng.integers(1, 4)))]
        ours = occlusion_importance(model, prompt, response).values
        oracle = occlusion_loop(model, prompt, response)
        # probabilities <= 1 from batched vs single-row matmuls: a few ulps apart
        assert np.allclose(ours, oracle, rtol=0, atol=1e-14)
        for m in range(len(response)):
            before_window = max(len(prompt) + m - window, 0)
            assert not ours[:before_window, m].any()


def test_occlusion_rejects_empty_response():
    with pytest.raises(ValueError):
        occlusion_importance(small_model(), [1, 2], [])


def test_taylor_zero_embedding_scores_zero():
    model = small_model(seed=13)
    model.embeddings[2][:] = 0.0
    matrix = taylor_importance(model, [1, 2, 3], [4])
    assert matrix.values[1, 0] == 0.0


@pytest.mark.parametrize("n_prompt", [0, 3, 8, 13])
def test_taylor_matches_per_position_gradient_reference(n_prompt):
    """Contexts shorter than, as long as and longer than the window of 8."""
    model = small_model(seed=19)
    rng = np.random.default_rng(n_prompt)
    prompt = rng.integers(0, 10, size=n_prompt).tolist()
    response = rng.integers(0, 10, size=3).tolist()
    values = taylor_importance(model, prompt, response).values
    np.testing.assert_allclose(values, taylor_loop(model, prompt, response), rtol=1e-12, atol=0)


def test_taylor_matches_directional_finite_difference():
    model = small_model(seed=17)
    prompt, response = [1, 2, 3, 4], [5]
    matrix = taylor_importance(model, prompt, response)
    eps = 1e-6
    k = len(prompt)
    base = model.embeddings[prompt].copy()
    for j in range(k):
        # scale token j's contribution by (1 - eps): first-order change is -eps * I
        perturbed = base.copy()
        perturbed[j] *= 1.0 - eps
        delta = float(model.distribution_given_window(perturbed)[5]) - float(
            model.distribution_given_window(base)[5]
        )
        assert delta / (-eps) == pytest.approx(matrix.values[j, 0], rel=1e-4)


def test_importance_matrix_shape_validation():
    with pytest.raises(ValueError):
        ImportanceMatrix(
            values=np.zeros((2, 2)),
            input_tokens=[],
            output_tokens=[],
            method="occlusion",
        )
    with pytest.raises(ValueError):
        synthetic_matrix(np.array([[np.nan]]))


def test_normalization_matches_bruteforce_on_randoms():
    rng = np.random.default_rng(21)
    for _ in range(50):
        rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 6))
        values = rng.normal(scale=float(rng.choice([1e-6, 1.0, 1e4])), size=(rows, cols))
        if rng.random() < 0.3:
            col = int(rng.integers(cols))
            values[:, col] = -np.abs(values[:, col])
        ours = normalize_scores(synthetic_matrix(values))
        reference = normalize_scores_bruteforce(values.tolist())
        assert ours.scores.tolist() == reference


def test_normalization_thresholds_and_zeroes():
    values = np.array([[0.5, -1.0], [1.0, -2.0], [0.004, -0.5]])
    scores = normalize_scores(
        synthetic_matrix(values, method="taylor"), NormalizationConfig(L=100, b=1)
    ).scores
    # column 0: colmax 1.0 -> 50, 100, ceil(0.4) = 1 which b suppresses to 0
    assert scores[:, 0].tolist() == [50, 100, 0]
    # column 1: colmax is negative -> whole column zero by definition
    assert scores[:, 1].tolist() == [0, 0, 0]


def _piece_infos(text: str, spans: list[tuple[int, int]]) -> list[TokenInfo]:
    return [TokenInfo(text=text[s:e], token_id=5 + i, start=s, end=e) for i, (s, e) in enumerate(spans)]


def _cut_words(text: str, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Spans that cut each word of `text` into pieces at 0-2 random inner offsets."""
    spans = []
    for m in re.finditer(r"\S+", text):
        start, end = m.span()
        k = min(int(rng.integers(0, 3)), end - start - 1)
        cuts = sorted(rng.choice(np.arange(start + 1, end), size=k, replace=False).tolist())
        bounds = [start, *cuts, end]
        spans += zip(bounds, bounds[1:])
    return spans


def test_aggregate_to_words_takes_row_max_per_word():
    text = "alpha beta"
    values = np.array([[10.0], [40.0], [20.0]])
    matrix = ImportanceMatrix(
        values=values,
        input_tokens=_piece_infos(text, [(0, 2), (2, 5), (6, 10)]),
        output_tokens=[TokenInfo(text="y", token_id=1)],
        method="occlusion",
    )
    scores = normalize_scores(matrix)
    words = aggregate_to_words(scores, text, display_divisor=20.0)
    assert [w.word for w in words] == ["alpha", "beta"]
    # alpha covers rows 0-1: max(ceil(25), 100) = 100 -> 5.0 after display scaling
    assert words[0].score == pytest.approx(5.0)
    assert words[1].score == pytest.approx(50 / 20)
    assert words[0].char_span == (0, 5)
    assert words[0].contributing_token_ids == (0, 1)


def test_aggregate_to_words_matches_quadratic_oracle():
    rng = np.random.default_rng(43)
    words = ["alpha", "beta", "betata", "gamma", "qqq", "x", "alphap", "zz"]
    for _ in range(40):
        text = " ".join(rng.choice(words, size=int(rng.integers(1, 12))))
        spans = _cut_words(text, rng)
        infos = [TokenInfo(text="<bos>", token_id=BOS_ID)]  # no span
        infos += _piece_infos(text, spans)
        if rng.random() < 0.5:
            # a span one past its word's end belongs to no word
            start, end = spans[int(rng.integers(len(spans)))]
            infos.append(TokenInfo(text="x", token_id=1, start=start, end=end + 1))
        infos.append(TokenInfo(text="<label>", token_id=3))  # response token, no span
        values = rng.normal(size=(len(infos), 2))
        matrix = ImportanceMatrix(
            values=values,
            input_tokens=infos,
            output_tokens=[TokenInfo(text="y", token_id=1), TokenInfo(text="z", token_id=2)],
            method="occlusion",
        )
        scores = normalize_scores(matrix)
        assert aggregate_to_words(scores, text, 20.0) == aggregate_to_words_quadratic(scores, text, 20.0)


def test_aggregate_to_words_matches_quadratic_oracle_on_tokenizer_spans(pairs, corpus_tokenizer):
    """Tokens as the attribute stage lays them out: <bos>, one span per word
    of the narrative, the label; a tokenizer built from other narratives
    reads some words as <unk>."""
    rng = np.random.default_rng(47)
    model = small_model(vocab=corpus_tokenizer.size, seed=3)
    narrow = Tokenizer.from_texts([p.descriptive for p in pairs[:5]])
    for tokenizer in (corpus_tokenizer, narrow):
        for pair in pairs[::7]:
            text = pair.descriptive
            spans = tokenizer.encode_with_spans(text)
            prompt = [BOS_ID] + [tid for tid, _, _ in spans]
            prompt_spans = [None] + [(s, e) for _, s, e in spans]
            laid_out = taylor_importance(model, prompt, [prompt[-1]], tokenizer, prompt_spans)
            matrix = ImportanceMatrix(
                values=rng.normal(size=laid_out.values.shape),
                input_tokens=laid_out.input_tokens,
                output_tokens=laid_out.output_tokens,
                method="taylor",
            )
            scores = normalize_scores(matrix)
            words = aggregate_to_words(scores, text, 20.0)
            assert words == aggregate_to_words_quadratic(scores, text, 20.0)
            assert [w.contributing_token_ids for w in words] == [(i,) for i in range(1, len(prompt))]


def test_annotation_round_trip():
    text = "the quick brown fox jumps"
    words = [
        WordAttribution(word="quick", char_span=(4, 9), score=3.25),
        WordAttribution(word="fox", char_span=(16, 19), score=5.0),
    ]
    annotated = annotate_narrative(text, words)
    assert annotated == "the quick[3.25] brown fox[5.00] jumps"
    assert strip_annotations(annotated) == text
    plain, parsed = parse_annotated(annotated)
    assert plain == text
    by_word = {w.word: w.score for w in parsed}
    assert by_word["quick"] == 3.25
    assert by_word["fox"] == 5.0
    assert by_word["brown"] == 0.0


def test_positive_words_filter():
    words = [
        WordAttribution(word="a", char_span=(0, 1), score=0.0),
        WordAttribution(word="b", char_span=(2, 3), score=0.1),
    ]
    assert [w.word for w in positive_words(words)] == ["b"]


def test_attribution_record_round_trips_sparse_matrix(reference_model, corpus_tokenizer, pairs):
    text = pairs[0].descriptive
    spans = corpus_tokenizer.encode_with_spans(text)[:12]
    prompt = [0] + [tid for tid, _, _ in spans]
    prompt_spans = [None] + [(s, e) for _, s, e in spans]
    matrix = occlusion_importance(
        reference_model, prompt, [prompt[3]], corpus_tokenizer, prompt_spans
    )
    scores = normalize_scores(matrix)
    words = aggregate_to_words(scores, text, display_divisor=20.0)
    annotated = annotate_narrative(text, positive_words(words))
    record = attribution_record("C0000", matrix, scores, annotated)
    dense = np.zeros_like(scores.scores)
    for n, m, v in record["score_matrix"]:
        dense[n, m] = v
    assert np.array_equal(dense, scores.scores)
    assert record["method"] == "occlusion"
    assert list(record) == ["caseno", "method", "L", "b", "tokens", "output_tokens", "score_matrix", "annotated"]
    # every word's display score comes back from the annotation; a
    # multiple of 1/20 survives the two-decimal rendering exactly
    plain, parsed = parse_annotated(record["annotated"])
    assert plain == text
    assert [(w.word, w.char_span, w.score) for w in parsed] == [(w.word, w.char_span, w.score) for w in words]
    assert parsed[0].word == text.split()[0]
