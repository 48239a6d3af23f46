from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sepll.data import MappingMatrix
from sepll.encoder import (
    EncoderConfig,
    Vocabulary,
    featurize_split,
    fit_vocabulary,
)
from sepll.errors import ConfigError, DataError
from sepll.model import forward_batch, init_params, load_checkpoint, save_checkpoint
from sepll.nnet import init_mlp, mlp_backward, mlp_forward
from sepll.text import tokenize, tokenize_split

INV_SQRT2 = 0.7071067811865476


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_lowercases_and_splits_on_nonword():
    assert tokenize("Hello, WORLD! it's me") == ["hello", "world", "it", "s", "me"]


def test_tokenize_drops_underscores_keeps_digits():
    assert tokenize("foo_bar baz42") == ["foo", "bar", "baz42"]


def test_tokenize_no_lowercase():
    assert tokenize("Hello World", lowercase=False) == ["Hello", "World"]


# ---------------------------------------------------------------------------
# vocabulary


def test_vocabulary_ranked_by_df_then_token():
    vocab = fit_vocabulary(tokenize_split(["b a", "b a", "b c"]))
    # df: b=3, a=2, c=1
    assert vocab.tokens == ("b", "a", "c")
    assert vocab.df.tolist() == [3, 2, 1]
    assert vocab.n_docs == 3


def test_vocabulary_ties_break_lexicographically():
    vocab = fit_vocabulary(tokenize_split(["z q", "z q"]))
    assert vocab.tokens == ("q", "z")


def test_vocabulary_min_df_filters():
    cfg = EncoderConfig(min_df=2)
    vocab = fit_vocabulary(tokenize_split(["a b", "a c"]), cfg)
    assert vocab.tokens == ("a",)


def test_vocabulary_max_features_truncates():
    cfg = EncoderConfig(max_features=2)
    vocab = fit_vocabulary(tokenize_split(["a b c", "a b", "a"]), cfg)
    assert vocab.tokens == ("a", "b")


def test_vocabulary_df_counts_documents_not_occurrences():
    vocab = fit_vocabulary(tokenize_split(["a a a", "b"]))
    assert dict(zip(vocab.tokens, vocab.df.tolist())) == {"a": 1, "b": 1}


def test_empty_corpus_rejected():
    with pytest.raises(DataError):
        fit_vocabulary(tokenize_split([]))
    with pytest.raises(DataError, match="min_df"):
        fit_vocabulary(tokenize_split(["a", "b"]), EncoderConfig(min_df=5))


def test_idf_frozen_value():
    # two docs, token in one: idf = ln((1+2)/(1+1)) + 1 = ln(3/2) + 1
    vocab = fit_vocabulary(tokenize_split(["common rare", "common"]))
    idx = vocab.index["rare"]
    assert vocab.idf[idx] == pytest.approx(math.log(1.5) + 1.0, abs=1e-15)
    idx_c = vocab.index["common"]
    assert vocab.idf[idx_c] == pytest.approx(1.0, abs=1e-15)


def test_encoder_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(dim=0)
    with pytest.raises(ConfigError):
        EncoderConfig(min_df=0)
    with pytest.raises(ConfigError):
        EncoderConfig(nonlinearity="swish")


# ---------------------------------------------------------------------------
# featurization


def reference_featurize(text: str, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """One text's (ascending indices, weights), one Counter per text: the
    per-text featurizer that featurize_split replaced, kept as its oracle."""
    counts: Counter[int] = Counter()
    for tok in tokenize(text, lowercase=vocab.lowercase):
        idx = vocab.index.get(tok)
        if idx is not None:
            counts[idx] += 1
    if not counts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    indices = np.array(sorted(counts), dtype=np.int64)
    weights = np.array([counts[i] for i in indices], dtype=np.float64) * vocab.idf[indices]
    weights /= np.linalg.norm(weights)
    return indices, weights


def featurize_one(text: str, vocab: Vocabulary):
    """The single row of ``featurize_split(tokenize_split([text], vocab.lowercase), vocab)``."""
    X = featurize_split(tokenize_split([text], vocab.lowercase), vocab)
    assert X.shape == (1, len(vocab))
    return X.indices, X.data


def test_featurize_equal_idf_two_tokens_gives_inv_sqrt2():
    vocab = fit_vocabulary(tokenize_split(["a b", "a b"]))  # both idf = 1
    _, weights = featurize_one("a b", vocab)
    assert sorted(weights.tolist()) == pytest.approx([INV_SQRT2, INV_SQRT2])
    assert np.linalg.norm(weights) == pytest.approx(1.0, abs=1e-12)


def test_featurize_counts_scale_with_tf():
    vocab = fit_vocabulary(tokenize_split(["a b", "a b"]))
    indices, weights = featurize_one("a a b", vocab)
    w = dict(zip(indices.tolist(), weights.tolist()))
    ia, ib = vocab.index["a"], vocab.index["b"]
    assert w[ia] == pytest.approx(2 / math.sqrt(5))
    assert w[ib] == pytest.approx(1 / math.sqrt(5))


def test_featurize_out_of_vocab_is_zero_vector():
    vocab = fit_vocabulary(tokenize_split(["a b"]))
    indices, weights = featurize_one("zzz qqq", vocab)
    assert indices.size == 0
    assert weights.size == 0


@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=12))
def test_featurize_order_insensitive(tokens):
    vocab = fit_vocabulary(tokenize_split(["a b c d", "a b", "c"]))
    forward = featurize_one(" ".join(tokens), vocab)
    backward = featurize_one(" ".join(reversed(tokens)), vocab)
    assert np.array_equal(forward[0], backward[0])
    assert np.allclose(forward[1], backward[1], atol=1e-15)


@given(st.text(alphabet="abcd efg", min_size=0, max_size=40))
def test_featurize_unit_norm_or_zero(text):
    vocab = fit_vocabulary(tokenize_split(["ab cd efg a b", "ab b"]))
    _, weights = featurize_one(text, vocab)
    norm = np.linalg.norm(weights)
    assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0


def test_feature_matrix_matches_featurize_rows():
    vocab = fit_vocabulary(tokenize_split(["a b c", "b c", "c"]))
    texts = ["a c", "zzz", "b b c"]
    X = featurize_split(tokenize_split(texts), vocab)
    assert X.shape == (3, len(vocab))
    assert X.indptr.tolist() == [0, 2, 2, 4]
    for i, t in enumerate(texts):
        indices, weights = reference_featurize(t, vocab)
        lo, hi = X.indptr[i], X.indptr[i + 1]
        assert X.indices[lo:hi].tolist() == indices.tolist()
        assert X.data[lo:hi].tolist() == weights.tolist()


# 60 distinct lowercase words, so a row can hold more nonzeros than one BLAS
# dot kernel block; "Ab"/"aB"/"AB" collide only when lowercased
_WORDS = [f"w{i}" for i in range(60)] + ["Ab", "aB", "AB", "Émile"]


def _texts(words):
    return st.builds(
        lambda tokens, seps: "".join(w + s for w, s in zip(tokens, seps)),
        st.lists(st.sampled_from(words), max_size=90),
        st.lists(st.sampled_from([" ", ", ", "_", "!  ", "\\n"]), min_size=90, max_size=90),
    )


@given(
    corpus=st.lists(_texts(_WORDS), min_size=1, max_size=6),
    # "zz*" never enter the vocabulary
    texts=st.lists(_texts(_WORDS + ["zz1", "ZZ2"]) | st.just("") | st.just("zz1 ZZ2 zz1"), max_size=8),
    lowercase=st.booleans(),
    min_df=st.integers(1, 2),
)
def test_featurize_split_equals_per_text_reference_bitwise(corpus, texts, lowercase, min_df):
    try:
        vocab = fit_vocabulary(tokenize_split(corpus, lowercase), EncoderConfig(lowercase=lowercase, min_df=min_df))
    except DataError:  # every corpus token filtered out
        return
    X = featurize_split(tokenize_split(texts, lowercase), vocab)
    assert X.shape == (len(texts), len(vocab))
    assert X.indptr.dtype == X.indices.dtype == np.int64 and X.data.dtype == np.float64
    assert X.indptr[0] == 0 and X.indptr.size == len(texts) + 1
    for i, text in enumerate(texts):
        indices, weights = reference_featurize(text, vocab)
        lo, hi = X.indptr[i], X.indptr[i + 1]
        assert np.array_equal(X.indices[lo:hi], indices)
        assert np.array_equal(X.data[lo:hi].view(np.int64), weights.view(np.int64))
    assert X.indptr[-1] == X.indices.size == X.data.size


def test_featurize_split_of_no_texts_is_empty():
    vocab = fit_vocabulary(tokenize_split(["a b"]))
    X = featurize_split(tokenize_split([]), vocab)
    assert X.shape == (0, 2)
    assert X.indptr.tolist() == [0]
    assert X.indices.size == X.data.size == 0


def reference_fit_vocabulary(texts, config: EncoderConfig) -> Vocabulary:
    """One Counter of each text's token set: the per-text fit_vocabulary that
    the id-based one replaced, kept as its oracle."""
    if not texts:
        raise DataError("cannot fit a vocabulary on an empty corpus")
    df: Counter[str] = Counter()
    for text in texts:
        df.update(set(tokenize(text, lowercase=config.lowercase)))
    kept = [(tok, n) for tok, n in df.items() if n >= config.min_df]
    if not kept:
        raise DataError("vocabulary is empty after min_df filtering")
    kept.sort(key=lambda item: (-item[1], item[0]))
    kept = kept[: config.max_features]
    return Vocabulary(
        tokens=tuple(tok for tok, _ in kept),
        df=np.array([n for _, n in kept], dtype=np.int64),
        n_docs=len(texts),
        lowercase=config.lowercase,
    )


@given(
    texts=st.lists(_texts(_WORDS) | st.just(""), max_size=8),
    lowercase=st.booleans(),
    min_df=st.integers(1, 2),
    max_features=st.integers(1, 12),
)
def test_fit_vocabulary_equals_per_text_reference(texts, lowercase, min_df, max_features):
    config = EncoderConfig(max_features=max_features, min_df=min_df, lowercase=lowercase)
    try:
        expected = reference_fit_vocabulary(texts, config)
    except DataError as exc:  # no texts, or every token filtered out
        with pytest.raises(DataError, match=f"^{exc}$"):
            fit_vocabulary(tokenize_split(texts, lowercase), config)
        return
    vocab = fit_vocabulary(tokenize_split(texts, lowercase), config)
    assert vocab.tokens == expected.tokens
    assert vocab.df.tolist() == expected.df.tolist()
    assert vocab.n_docs == expected.n_docs
    assert vocab.lowercase == lowercase


@given(texts=st.lists(_texts(_WORDS) | st.just(""), max_size=8), lowercase=st.booleans())
def test_tokenize_split_decodes_to_tokenize(texts, lowercase):
    tokens = tokenize_split(texts, lowercase)
    names = list(tokens.index)
    assert tokens.ids.dtype == tokens.starts.dtype == np.int64
    assert tokens.starts.size == len(texts) + 1 and tokens.starts[-1] == tokens.ids.size
    assert list(tokens.index.values()) == list(range(len(names)))  # numbered in order
    for i, text in enumerate(texts):
        row = tokens.ids[tokens.starts[i] : tokens.starts[i + 1]]
        assert [names[t] for t in row.tolist()] == tokenize(text, lowercase)


# ---------------------------------------------------------------------------
# the model's encoder path: params.encoder, whose output is trace.z


def small_config(**kw):
    base = dict(max_features=100, min_df=1, hidden=(5,), dim=3, nonlinearity="tanh")
    base.update(kw)
    return EncoderConfig(**base)


def encoder_params(input_dim, cfg, rng):
    """Model parameters whose encoder path is built from ``cfg``."""
    mapping = MappingMatrix(c=2, class_of=np.array([0, 1]))
    return init_params(input_dim, mapping, cfg, rng=rng)


def test_encode_zero_vector_uses_biases_only():
    cfg = small_config()
    params = encoder_params(4, cfg, np.random.default_rng(0))
    # force nonzero biases so the check is meaningful
    params.encoder[0].b[:] = 0.3
    params.encoder[1].b[:] = -0.2
    vocab = Vocabulary(tokens=("a", "b", "c", "d"), df=np.ones(4, dtype=np.int64), n_docs=2, lowercase=True)
    z = forward_batch(params, featurize_split(tokenize_split(["zzz"]), vocab)).z[0]
    h = np.tanh(params.encoder[0].b)
    expected = h @ params.encoder[1].W + params.encoder[1].b
    assert np.allclose(z, expected, atol=1e-15)


def test_encode_identity_single_layer():
    cfg = EncoderConfig(hidden=(), dim=2, nonlinearity="identity")
    params = encoder_params(3, cfg, np.random.default_rng(1))
    params.encoder[0].W[:] = np.eye(3)[:, :2]
    params.encoder[0].b[:] = 0.0
    x = np.array([[0.5, -0.25, 9.0]])
    z = forward_batch(params, x).z
    assert np.allclose(z, [[0.5, -0.25]], atol=1e-15)


def test_encode_batch_matches_naive_loop(rng):
    cfg = small_config(hidden=(7, 5), dim=4)
    params = encoder_params(6, cfg, rng)
    X = rng.normal(size=(10, 6))
    Z = forward_batch(params, X).z
    assert Z.shape == (10, 4)
    for i in range(10):
        h = X[i]
        for li, layer in enumerate(params.encoder):
            h = h @ layer.W + layer.b
            if li < len(params.encoder) - 1:
                h = np.tanh(h)
        assert np.allclose(Z[i], h, atol=1e-12)


def test_encode_batch_accepts_sparse(rng, to_csr):
    cfg = small_config()
    params = encoder_params(4, cfg, rng)
    X = rng.normal(size=(6, 4))
    X[X < 0.5] = 0.0
    dense_out = forward_batch(params, X).z
    sparse_out = forward_batch(params, to_csr(X)).z
    assert np.allclose(dense_out, sparse_out, atol=1e-12)


def test_init_encoder_deterministic_and_xavier_bounded():
    cfg = small_config(hidden=(8,), dim=4)
    a = encoder_params(10, cfg, np.random.default_rng(42))
    b = encoder_params(10, cfg, np.random.default_rng(42))
    # the encoder takes the generator's first draws, layer by layer
    fresh = init_mlp([10, 8, 4], np.random.default_rng(42))
    for la, lb, lf in zip(a.encoder, b.encoder, fresh):
        assert np.array_equal(la.W, lb.W)
        assert np.array_equal(la.W, lf.W)
        assert np.all(la.b == 0.0)
    bound0 = math.sqrt(6.0 / (10 + 8))
    assert np.max(np.abs(a.encoder[0].W)) <= bound0
    bound1 = math.sqrt(6.0 / (8 + 4))
    assert np.max(np.abs(a.encoder[1].W)) <= bound1


def test_encoder_finite_difference_gradient(rng):
    cfg = small_config(hidden=(5,), dim=3)
    layers = encoder_params(4, cfg, rng).encoder
    x = rng.normal(size=(2, 4))
    v = rng.normal(size=(2, 3))  # scalar objective: sum(v * z)

    out, cache = mlp_forward(layers, x, cfg.nonlinearity)
    grads, input_grad = mlp_backward(layers, cache, v, cfg.nonlinearity, need_input_grad=False)
    assert input_grad is None

    eps = 1e-6
    for li, layer in enumerate(layers):
        for arr, g in zip((layer.W, layer.b), grads[li]):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up, _ = mlp_forward(layers, x, cfg.nonlinearity)
                arr[idx] = orig - eps
                dn, _ = mlp_forward(layers, x, cfg.nonlinearity)
                arr[idx] = orig
                fd = (np.sum(v * up) - np.sum(v * dn)) / (2 * eps)
                denom = max(abs(fd), abs(g[idx]), 1e-6)
                assert abs(fd - g[idx]) / denom < 1e-4


def test_encoder_save_load_round_trip(tmp_path, rng):
    cfg = small_config(hidden=(6,), dim=3, nonlinearity="relu")
    params = encoder_params(5, cfg, rng)
    vocab = Vocabulary(tokens=tuple("abcde"), df=np.ones(5, dtype=np.int64), n_docs=2)
    path = tmp_path / "model.sepll"
    save_checkpoint(path, params, vocab)
    loaded, _, _ = load_checkpoint(path)
    assert loaded.encoder_nonlinearity == "relu"
    assert len(loaded.encoder) == len(params.encoder)
    for la, lb in zip(params.encoder, loaded.encoder):
        assert np.array_equal(la.W, lb.W)
        assert np.array_equal(la.b, lb.b)
    X = np.random.default_rng(3).normal(size=(4, 5))
    assert np.array_equal(forward_batch(params, X).z, forward_batch(loaded, X).z)
