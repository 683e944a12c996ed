import hashlib
import math

import numpy as np
import pytest

from topiccf.ingest import ConfigurationError, DocumentCorpus
from topiccf.lda import (
    build_vocabulary,
    corpus_log_likelihood,
    default_stopwords,
    item_profiles,
    load_item_profiles,
    save_phi,
    save_theta,
    save_topics,
    tokenize,
    topic_top_words,
    train_lda,
)


# ---------- tokenize ----------

def test_tokenize_basic():
    assert tokenize("Oskar Schindler, a German...", frozenset({"a"})) == [
        "oskar", "schindler", "german"
    ]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_drops_pure_numbers_keeps_mixed():
    assert tokenize("WWII 1943 war") == ["wwii", "war"]


def test_tokenize_short_tokens_dropped():
    assert tokenize("go to the gym") == ["the", "gym"] or tokenize("go to the gym") == ["gym"]
    # with stopwords applied, only real content remains
    assert tokenize("go to the gym", frozenset({"the"})) == ["gym"]


def test_default_stopwords_nonempty():
    sw = default_stopwords()
    assert "the" in sw and "and" in sw
    assert len(sw) > 100


# ---------- vocabulary ----------

def test_build_vocabulary_counts():
    corpus = DocumentCorpus({1: "war war peace", 2: "war love"})
    vocab, encoded = build_vocabulary(corpus, min_df=1)
    assert vocab.tokens == ("love", "peace", "war")
    war = vocab.token_to_index["war"]
    peace = vocab.token_to_index["peace"]
    assert encoded.docs[0] == [war, war, peace]
    assert encoded.item_ids == (1, 2)


def test_build_vocabulary_min_df():
    corpus = DocumentCorpus({1: "war war peace", 2: "war love"})
    vocab, encoded = build_vocabulary(corpus, min_df=2)
    assert vocab.tokens == ("war",)
    assert encoded.docs[1] == [0]


def test_fully_filtered_document_retained_empty():
    corpus = DocumentCorpus({1: "war peace", 2: "war peace", 3: "zzz"})
    vocab, encoded = build_vocabulary(corpus, min_df=2)
    assert encoded.docs[2] == []
    assert len(encoded) == 3


def test_stopwords_never_reach_vocabulary():
    corpus = DocumentCorpus({1: "the war and the peace", 2: "the war"})
    vocab, _ = build_vocabulary(corpus, stopwords=frozenset({"the", "and"}))
    assert vocab.tokens == ("peace", "war")


def test_all_documents_empty_is_error():
    corpus = DocumentCorpus({1: "a b", 2: "c"})
    with pytest.raises(ConfigurationError):
        build_vocabulary(corpus, min_df=1)


def test_empty_corpus_is_error():
    with pytest.raises(ConfigurationError):
        build_vocabulary(DocumentCorpus({}))


# ---------- training ----------

def _toy_model(T=2, iterations=50, seed=9, alpha_sum=2.0):
    corpus = DocumentCorpus({
        1: "war battle army soldier war",
        2: "love romance heart love kiss",
        3: "war army love",
        4: "battle soldier battle",
    })
    vocab, encoded = build_vocabulary(corpus)
    model = train_lda(encoded, vocab, T=T, alpha_sum=alpha_sum, beta=0.01,
                      iterations=iterations, seed=seed)
    return model, encoded, vocab


def test_single_topic_degenerate_closed_form():
    corpus = DocumentCorpus({1: "war war peace", 2: "war love"})
    vocab, encoded = build_vocabulary(corpus)
    model = train_lda(encoded, vocab, T=1, alpha_sum=1.0, beta=0.01,
                      iterations=5, seed=0)
    assert np.array_equal(model.theta, np.ones((2, 1)))
    total = encoded.total_tokens()
    V = len(vocab)
    counts = {"love": 1, "peace": 1, "war": 3}
    for token, c in counts.items():
        w = vocab.token_to_index[token]
        assert model.phi[0][w] == pytest.approx((c + 0.01) / (total + V * 0.01), abs=1e-12)


def test_training_deterministic():
    a, _, _ = _toy_model(seed=7)
    b, _, _ = _toy_model(seed=7)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.phi, b.phi)
    assert a.assignments == b.assignments


def test_progress_fires_every_100_sweeps_without_changing_the_model():
    corpus = DocumentCorpus({1: "war battle army", 2: "love romance heart"})
    vocab, encoded = build_vocabulary(corpus)
    seen = []
    model = train_lda(encoded, vocab, T=2, alpha_sum=2.0, iterations=250, seed=3,
                      on_progress=lambda it, ll: seen.append((it, ll)))
    quiet = train_lda(encoded, vocab, T=2, alpha_sum=2.0, iterations=250, seed=3)
    assert [it for it, _ in seen] == [100, 200]
    assert all(math.isfinite(ll) and ll < 0 for _, ll in seen)
    assert model.assignments == quiet.assignments


def test_training_seed_changes_assignments():
    a, _, _ = _toy_model(seed=7, iterations=3)
    b, _, _ = _toy_model(seed=8, iterations=3)
    assert a.assignments != b.assignments


def test_rows_stochastic_and_positive():
    model, _, _ = _toy_model(T=3, alpha_sum=3.0)
    assert np.all(model.theta > 0)
    assert np.all(model.phi > 0)
    np.testing.assert_allclose(model.theta.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)


def test_counts_from_assignments_reproduce_theta_phi():
    model, encoded, vocab = _toy_model(T=2, alpha_sum=2.0)
    T, V = model.T, len(vocab)
    alpha = model.alpha_sum / T
    n_dt = np.zeros((len(encoded.docs), T))
    n_tw = np.zeros((T, V))
    for d, (doc, zs) in enumerate(zip(encoded.docs, model.assignments)):
        assert len(doc) == len(zs)
        for w, t in zip(doc, zs):
            n_dt[d][t] += 1
            n_tw[t][w] += 1
    lens = np.array([len(d) for d in encoded.docs], dtype=float)
    theta = (n_dt + alpha) / (lens[:, None] + model.alpha_sum)
    phi = (n_tw + model.beta) / (n_tw.sum(axis=1, keepdims=True) + V * model.beta)
    np.testing.assert_allclose(model.theta, theta, atol=1e-12)
    np.testing.assert_allclose(model.phi, phi, atol=1e-12)


def test_empty_document_gets_uniform_theta():
    corpus = DocumentCorpus({1: "war war peace peace", 2: "war peace", 3: "zzz"})
    vocab, encoded = build_vocabulary(corpus, min_df=2)
    model = train_lda(encoded, vocab, T=2, alpha_sum=2.0, beta=0.01,
                      iterations=5, seed=0)
    np.testing.assert_allclose(model.theta[2], [0.5, 0.5], atol=1e-12)


def test_quick_two_topic_recovery():
    # 40 single-topic docs over disjoint vocabularies; dominant mass should be high
    rng = np.random.default_rng(5)
    docs = {}
    for d in range(40):
        words = ["aaa", "bbb", "ccc", "ddd"] if d % 2 == 0 else ["eee", "fff", "ggg", "hhh"]
        docs[d] = " ".join(rng.choice(words) for _ in range(30))
    vocab, encoded = build_vocabulary(DocumentCorpus(docs))
    model = train_lda(encoded, vocab, T=2, alpha_sum=2.0, beta=0.01,
                      iterations=200, seed=3)
    dominant = model.theta.max(axis=1)
    assert dominant.mean() > 0.9


def test_sampler_output_is_pinned():
    # A change to the random stream, the per-token arithmetic or its order
    # changes these digests; any other implementation of the sweep must match them.
    corpus = DocumentCorpus({
        1: "war battle army soldier war",
        2: "love romance heart love kiss",
        3: "the and",                      # empty once stopwords are dropped
        4: "war army love heart",
        5: "battle soldier battle kiss",
    })
    vocab, encoded = build_vocabulary(corpus, frozenset({"the", "and"}))
    model = train_lda(encoded, vocab, T=3, alpha_sum=3.0, beta=0.01, iterations=5, seed=7)
    assert model.assignments[2] == ()
    assert hashlib.sha256(repr(model.assignments).encode()).hexdigest() == (
        "ae32d15db5c796c262a1b254fca71aced12e1647f1f672c0eecdb381f8548889")
    assert hashlib.sha256(model.theta.tobytes()).hexdigest() == (
        "9a7e397033210e625db7b091befbd982136202020673709d5e89692bfac43a25")
    assert hashlib.sha256(model.phi.tobytes()).hexdigest() == (
        "f1cb79697265b4d2bfdf31e843ed36258ccd1910fd00e876797d594cfa6257d8")


def test_invalid_parameters():
    corpus = DocumentCorpus({1: "war war peace"})
    vocab, encoded = build_vocabulary(corpus)
    with pytest.raises(ConfigurationError):
        train_lda(encoded, vocab, T=0, iterations=5)
    with pytest.raises(ConfigurationError):
        train_lda(encoded, vocab, T=2, iterations=0)


# ---------- top words ----------

def _fixed_model():
    corpus = DocumentCorpus({1: "aa0 bb1 cc2"})
    vocab, encoded = build_vocabulary(corpus)
    model = train_lda(encoded, vocab, T=1, alpha_sum=1.0, beta=0.01,
                      iterations=1, seed=0)
    return model, vocab


def test_topic_top_words_sorted():
    model, vocab = _fixed_model()
    model.phi = np.array([[0.5, 0.3, 0.2]])
    assert topic_top_words(model, 0, 2) == ["aa0", "bb1"]


def test_topic_top_words_clamps():
    model, vocab = _fixed_model()
    model.phi = np.array([[0.5, 0.3, 0.2]])
    assert len(topic_top_words(model, 0, 10)) == 3


def test_topic_top_words_tie_breaks_by_index():
    model, vocab = _fixed_model()
    model.phi = np.array([[0.4, 0.4, 0.2]])
    assert topic_top_words(model, 0, 1) == ["aa0"]


# ---------- log likelihood ----------

def test_log_likelihood_single_doc_single_topic():
    corpus = DocumentCorpus({1: "war war peace"})
    vocab, encoded = build_vocabulary(corpus)
    model = train_lda(encoded, vocab, T=1, alpha_sum=1.0, beta=0.01,
                      iterations=1, seed=0)
    expected = sum(math.log(model.phi[0][w]) for w in encoded.docs[0])
    assert corpus_log_likelihood(model, encoded) == pytest.approx(expected, rel=1e-12)


def test_log_likelihood_empty_corpus():
    corpus = DocumentCorpus({1: "war war peace", 2: "love"})
    vocab, encoded = build_vocabulary(corpus)
    model = train_lda(encoded, vocab, T=2, alpha_sum=2.0, beta=0.01,
                      iterations=3, seed=1)
    empty = type(encoded)(docs=[], item_ids=())
    assert corpus_log_likelihood(model, empty) == 0.0


def test_log_likelihood_matches_naive_double_loop():
    model, encoded, vocab = _toy_model(T=2)
    expected = 0.0
    for d, doc in enumerate(encoded.docs):
        for w in doc:
            p = 0.0
            for t in range(model.T):
                p += model.theta[d][t] * model.phi[t][w]
            expected += math.log(p)
    assert corpus_log_likelihood(model, encoded) == pytest.approx(expected, rel=1e-10)


# ---------- persistence ----------

def test_theta_round_trip(tmp_path):
    model, encoded, _ = _toy_model()
    path = tmp_path / "theta.csv"
    save_theta(model, path)
    profiles = load_item_profiles(path)
    assert set(profiles) == set(encoded.item_ids)
    for d, item_id in enumerate(encoded.item_ids):
        np.testing.assert_array_equal(profiles[item_id].distribution, model.theta[d])


def test_item_profiles_view():
    model, encoded, _ = _toy_model()
    profiles = item_profiles(model)
    np.testing.assert_array_equal(profiles[encoded.item_ids[0]].distribution, model.theta[0])


def test_phi_file_has_header_and_threshold(tmp_path):
    model, _, vocab = _toy_model()
    path = tmp_path / "phi.csv"
    save_phi(model, path, threshold=1e-6)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# T=2 alpha_sum=")
    assert all(float(l.split(",")[2]) > 1e-6 for l in lines[1:])


def test_topics_file_lists_top_words(tmp_path):
    model, _, _ = _toy_model()
    path = tmp_path / "topics.txt"
    save_topics(model, path, top_n=3)
    lines = path.read_text().splitlines()
    assert len(lines) == model.T
    assert lines[0].startswith("T0\t")
