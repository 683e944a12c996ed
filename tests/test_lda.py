import hashlib
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from topiccf import ingest, lda, similarity
from topiccf.ingest import (ConfigurationError, DocumentCorpus, ParseError, RatingDataset,
                            RatingRecord, write_ratings_csv)
from topiccf.lda import (
    EncodedCorpus,
    TopicModel,
    Vocabulary,
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

from oracles import repr_phi_text, repr_rows_text


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


@pytest.fixture(params=["native", "python"])
def sweep(request, monkeypatch):
    """Runs a test once on the compiled Gibbs kernel and once on the Python sweep."""
    if request.param == "python":
        monkeypatch.setattr(lda, "load_kernels", lambda: (None, "python (test)"))
    elif lda.load_kernels()[0] is None:
        pytest.skip(lda.load_kernels()[1])
    return request.param


def test_sampler_output_is_pinned(sweep):
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
    for alpha_sum, beta in [(-1.0, 0.01), (0.0, 0.01), (math.nan, 0.01), (math.inf, 0.01),
                            (2.0, 0.0), (2.0, -0.01), (2.0, math.nan), (2.0, math.inf)]:
        with pytest.raises(ConfigurationError, match="alpha_sum and beta must be finite"):
            train_lda(encoded, vocab, T=2, alpha_sum=alpha_sum, beta=beta, iterations=5)
    for bad in ([0, len(vocab)], [-1, 0]):
        with pytest.raises(ConfigurationError, match="outside the vocabulary"):
            train_lda(EncodedCorpus([bad], (1,)), vocab, T=2, iterations=1)


def test_train_lda_refuses_an_empty_vocabulary_or_only_empty_documents():
    vocab, _ = build_vocabulary(DocumentCorpus({1: "war war peace"}))
    with pytest.raises(ConfigurationError, match="^empty vocabulary$"):
        train_lda(EncodedCorpus([[]], (1,)), Vocabulary((), {}), T=2, iterations=1)
    with pytest.raises(ConfigurationError, match="^corpus has no non-empty documents$"):
        train_lda(EncodedCorpus([[], []], (1, 2)), vocab, T=2, iterations=1)


def _random_corpus(docs=30, words=40, max_len=25, seed=4):
    rng = np.random.default_rng(seed)
    return DocumentCorpus({
        d: " ".join(f"tok{k}" for k in rng.integers(0, words, rng.integers(0, max_len)))
        for d in range(docs)
    })


# (corpus, stopwords, train_lda arguments): T in {1, 2, 3, 50}, a document
# emptied by stopwords, a one-word vocabulary, single-token documents, 1-5
# sweeps, and 200 sweeps so that on_progress fires.
_SWEEP_CASES = {
    "T1-emptied-doc": (DocumentCorpus({1: "war war peace", 2: "the and", 3: "peace love war"}),
                       frozenset({"the", "and"}), dict(T=1, iterations=1)),
    "T2-one-word": (DocumentCorpus({1: "war war war", 2: "war", 3: "war war"}),
                    frozenset(), dict(T=2, iterations=2)),
    "T3-one-token-docs": (DocumentCorpus(dict(enumerate(["war", "love", "peace", "war", "kiss"]))),
                          frozenset(), dict(T=3, iterations=3)),
    "T50": (_random_corpus(), frozenset(), dict(T=50, alpha_sum=50.0, iterations=5)),
    "T3-progress": (_random_corpus(docs=8, words=6, max_len=8, seed=2), frozenset(),
                    dict(T=3, alpha_sum=3.0, iterations=200)),
}


@pytest.mark.parametrize("case", list(_SWEEP_CASES))
def test_native_sweep_is_bit_identical_to_python_sweep(case, monkeypatch):
    native = lda.load_kernels()[0]
    if native is None:
        pytest.skip(lda.load_kernels()[1])
    corpus, stopwords, kwargs = _SWEEP_CASES[case]
    vocab, encoded = build_vocabulary(corpus, stopwords)
    runs = []
    for lib in (native, None):
        monkeypatch.setattr(lda, "load_kernels", lambda lib=lib: (lib, ""))
        seen = []
        model = train_lda(encoded, vocab, seed=11, on_progress=lambda *p: seen.append(p), **kwargs)
        runs.append((model.assignments, model.theta.tobytes(), model.phi.tobytes(), seen))
    assert runs[0] == runs[1]
    assert len(runs[0][3]) == kwargs["iterations"] // 100


def test_native_topic_weights_are_bit_identical_token_by_token():
    # A last-bit change in a topic weight almost never changes a sampled topic,
    # so the models above cannot see one; the cumulative weights of every token can.
    lib, how = lda.load_kernels()
    if lib is None:
        pytest.skip(how)
    rng = np.random.default_rng(3)
    n, D, V, T = 1000, 20, 100, 50
    words = rng.integers(0, V, n).astype(np.int32)
    doc_of = np.sort(rng.integers(0, D, n)).astype(np.int32)
    z = rng.integers(0, T, n).astype(np.int32)
    counts = [np.bincount(doc_of * T + z, minlength=D * T).reshape(D, T).astype(np.int32),
              np.bincount(words * T + z, minlength=V * T).reshape(V, T).astype(np.int32),
              np.bincount(z, minlength=T).astype(np.int32)]
    states = [(z.copy(), *(c.copy() for c in counts), np.empty(T)) for _ in range(2)]
    u = rng.random(n)
    for i in range(n):
        token = slice(i, i + 1)
        for sweep, (zs, n_dt, n_wt, n_t, cum) in zip((lib.topiccf_gibbs_sweep,
                                                      lda._sweep_python), states):
            sweep(1, T, words[token], doc_of[token], zs[token], n_dt, n_wt, n_t, u[token],
                  1.0, 0.01, V * 0.01, cum)
        assert states[0][4].tobytes() == states[1][4].tobytes(), i
    for native_part, python_part in zip(*states):
        assert np.array_equal(native_part, python_part)


def _fresh_kernel(monkeypatch, home, compiler=None):
    """load_kernels() as a process with this home directory and compiler would load it."""
    monkeypatch.setenv("HOME", str(home))
    if compiler is not None:
        monkeypatch.setattr(lda, "_COMPILER", compiler)
    lda.load_kernels.cache_clear()
    try:
        return lda.load_kernels()
    finally:
        lda.load_kernels.cache_clear()


def test_missing_compiler_falls_back_to_the_same_model(tmp_path, monkeypatch):
    reference, _, _ = _toy_model(T=3, iterations=5)
    lib, how = _fresh_kernel(monkeypatch, tmp_path, compiler="topiccf-no-such-cc")
    assert lib is None and how.startswith("python (") and "topiccf-no-such-cc" in how
    monkeypatch.setattr(lda, "load_kernels", lambda: (lib, how))
    model, _, _ = _toy_model(T=3, iterations=5)
    assert model.assignments == reference.assignments
    assert model.theta.tobytes() == reference.theta.tobytes()
    assert model.phi.tobytes() == reference.phi.tobytes()


def test_failing_compiler_falls_back_naming_its_exit_and_last_stderr_line(tmp_path, monkeypatch):
    # A Python script, so it runs where PATH holds no shell tools.
    compiler = tmp_path / "cc"
    compiler.write_text(f"#!{sys.executable}\nimport sys\n"
                        "sys.stderr.write('cc: warming up\\ncc: out of luck\\n')\nsys.exit(3)\n")
    compiler.chmod(0o755)
    assert _fresh_kernel(monkeypatch, tmp_path, compiler=str(compiler)) == (
        None, f"python ({compiler} exited 3: cc: out of luck)")


def test_kernel_is_compiled_once_into_a_private_cache(tmp_path, monkeypatch):
    lib, how = _fresh_kernel(monkeypatch, tmp_path)
    if lib is None:
        pytest.skip(how)
    cache = tmp_path / ".cache" / "topiccf"
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert how == f"native ({next(cache.iterdir())})" and len(list(cache.iterdir())) == 1
    # The cached library is loaded again without a compiler.
    assert _fresh_kernel(monkeypatch, tmp_path, compiler="topiccf-no-such-cc")[1] == how


def test_sweep_and_loops_share_one_compile_and_one_load(tmp_path, monkeypatch):
    import ctypes

    calls = {"compile": 0, "load": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setattr(lda, "_compile_kernel", counted("compile", lda._compile_kernel))
    monkeypatch.setattr(ctypes, "CDLL", counted("load", ctypes.CDLL))
    lda.load_kernels.cache_clear()
    try:
        lib, how = lda.load_kernels()
        _toy_model(T=3, iterations=2)
        similarity._exp(similarity._log(np.array([0.5, 2.0])))
        write_ratings_csv(RatingDataset([RatingRecord(1, 2, 3.0)]), tmp_path / "r.csv")
    finally:
        lda.load_kernels.cache_clear()
    if lib is None:
        pytest.skip(how)
    assert calls == {"compile": 1, "load": 1}


def test_patching_load_kernels_alone_sends_every_loop_to_its_twin(tmp_path, monkeypatch):
    # Each loop is run once first, so that a copy of the library cached by any
    # other accessor would be in place before load_kernels is patched.
    ds = RatingDataset([RatingRecord(1, 2, 3.0, 7), RatingRecord(2, 1, 4.5),
                        RatingRecord(2, 2, 1.0), RatingRecord(3, 1, 2.0)])
    x = np.array([0.5, 2.0, 3.0])

    def llr():
        return [similarity.llr_row(2, ds).tobytes(), similarity.item_llr_col(1, ds).tobytes()]

    lda.load_kernels()
    _toy_model(T=3, iterations=2)
    similarity._log(x)
    write_ratings_csv(ds, tmp_path / "native.csv")
    native = llr()
    calls = {"sweep": 0, "log": 0, "reprs": 0, "bincount": 0}

    def spy(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lda, "load_kernels", lambda: (None, "python (test)"))
    monkeypatch.setattr(lda, "_sweep_python", spy("sweep", lda._sweep_python))
    monkeypatch.setattr(math, "log", spy("log", math.log))
    # The native writer's one Python helper: its twin formats each row itself.
    monkeypatch.setattr(ingest, "float_reprs", spy("reprs", ingest.float_reprs))
    _toy_model(T=3, iterations=2)
    logs = similarity._log(x)
    write_ratings_csv(ds, tmp_path / "twin.csv")
    monkeypatch.setattr(np, "bincount", spy("bincount", np.bincount))
    twin = llr()
    assert calls["sweep"] == 2 and calls["reprs"] == 0 and calls["log"] >= len(x)
    assert calls["bincount"] == 2  # one co-count each for the row and the column
    assert logs.tolist() == [math.log(v) for v in x.tolist()]
    want = b"1,2,3.0,7\n2,1,4.5\n2,2,1.0\n3,1,2.0\n"
    assert (tmp_path / "twin.csv").read_bytes() == (tmp_path / "native.csv").read_bytes() == want
    assert twin == native


@pytest.mark.parametrize("kernels", ["gibbs_kernel", "log_exp_kernels"])
def test_native_functions_refuse_arrays_of_another_type_or_layout(tmp_path, monkeypatch, kernels):
    # One group of loops per case (the Gibbs sweep, or the log and exp loops),
    # each on a library compiled and loaded afresh into a new private cache.
    import ctypes

    lib, how = _fresh_kernel(monkeypatch, tmp_path)
    if lib is None:
        pytest.skip(how)
    T, words, doc_of = 2, np.array([0, 1, 0], np.int32), np.zeros(3, np.int32)
    z = np.array([0, 1, 0], np.int32)
    counts = [np.array([[2, 1]], np.int32), np.array([[2, 0], [0, 1]], np.int32),
              np.array([2, 1], np.int32)]
    x = np.array([0.25, 0.5, 0.75])
    # (function, its arguments, the position of a float64 input among them)
    calls = {"gibbs_kernel": [(lib.topiccf_gibbs_sweep,
                               [3, T, words, doc_of, z, *counts, x, 1.0, 0.01, 0.02, np.empty(T)],
                               8)],
             "log_exp_kernels": [(lib.topiccf_log, [3, x, np.empty(3)], 1),
                                 (lib.topiccf_exp, [3, x, np.empty(3)], 1)]}
    for fn, args, at in calls[kernels]:
        fn(*args)  # the right arrays pass
        for bad in (x.astype(np.float32), np.repeat(x, 2)[::2]):
            with pytest.raises(ctypes.ArgumentError):
                fn(*args[:at], bad, *args[at + 1:])


def test_co_counts_refuses_arrays_of_another_type_or_layout():
    import ctypes

    lib, how = lda.load_kernels()
    if lib is None:
        pytest.skip(how)
    # Row 0 holds columns 0 and 2, row 1 holds column 1; count rows 1 and 0.
    args = [2, np.array([1, 0], np.int32), np.array([0, 2, 3], np.int32),
            np.array([0, 2, 1], np.int32), np.zeros(3, np.int64)]
    lib.topiccf_co_counts(*args)
    assert args[4].tolist() == [1, 1, 1]
    read_only = np.zeros(3, np.int64)
    read_only.flags.writeable = False
    for at in range(1, 5):
        other = np.int64 if args[at].dtype == np.int32 else np.int32
        bad = [args[at].astype(other), np.repeat(args[at], 2)[::2]] + [read_only] * (at == 4)
        for arg in bad:
            with pytest.raises(ctypes.ArgumentError):
                lib.topiccf_co_counts(*args[:at], arg, *args[at + 1:])
    assert args[4].tolist() == [1, 1, 1]


@pytest.mark.parametrize("home", ["shared", "absent"])
def test_kernel_is_built_in_a_temporary_directory_without_a_private_cache(tmp_path, monkeypatch,
                                                                           home):
    if home == "shared":
        (tmp_path / ".cache" / "topiccf").mkdir(parents=True)
        (tmp_path / ".cache" / "topiccf").chmod(0o777)
    lib, how = _fresh_kernel(monkeypatch, tmp_path / home if home == "absent" else tmp_path)
    if lib is None:
        pytest.skip(how)
    assert str(tmp_path) not in how
    assert sorted(p.name for p in tmp_path.rglob("*")) == (
        [".cache", "topiccf"] if home == "shared" else [])


def test_importing_the_cli_neither_loads_nor_compiles_the_kernel(tmp_path):
    # numpy may load ctypes itself, so the measure is what `import numpy` alone loads.
    probe = ("import sys; import {}; "
             "print([m for m in ('ctypes', 'subprocess') if m in sys.modules])")
    env = {**os.environ, "HOME": str(tmp_path)}
    loaded = [subprocess.run([sys.executable, "-c", probe.format(module)], env=env, check=True,
                             capture_output=True, text=True).stdout
              for module in ("numpy", "topiccf.cli")]
    assert loaded[1] == loaded[0]
    assert not (tmp_path / ".cache").exists()


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


@pytest.mark.parametrize("topic", [-1, 1])
def test_topic_top_words_rejects_a_topic_out_of_range(topic):
    model, _ = _fixed_model()
    with pytest.raises(ValueError, match=rf"^topic {topic} out of range \[0, 1\)$"):
        topic_top_words(model, topic, 2)


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
        np.testing.assert_array_equal(profiles[item_id], model.theta[d])


def test_item_profiles_view():
    model, encoded, _ = _toy_model()
    profiles = item_profiles(model)
    np.testing.assert_array_equal(profiles[encoded.item_ids[0]], model.theta[0])


def test_phi_file_has_header_and_threshold(tmp_path):
    model, _, vocab = _toy_model()
    path = tmp_path / "phi.csv"
    save_phi(model, path, threshold=1e-6)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# T=2 alpha_sum=")
    assert all(float(l.split(",")[2]) > 1e-6 for l in lines[1:])


def _hand_model():
    """Estimates with repeated values, -0.0 beside 0.0, a scientific repr and a
    phi value exactly at save_phi's 1e-6 threshold."""
    tokens = ("alpha", "beta", "gamma", "delta")
    vocab = Vocabulary(tokens, {t: i for i, t in enumerate(tokens)})
    theta = np.array([[0.25, 0.25, 0.5], [0.5, -0.0, 0.5], [1e-16, 0.0, 1.0 - 1e-16],
                      [0.1, 0.2, 0.7]])
    phi = np.array([[1e-6, 0.5, 0.5 - 1e-6, 0.0], [0.25, 0.25, 0.25, 0.25],
                    [1.5e-05, 1e-16, 0.7, 0.3 - 1.5e-05 - 1e-16]])
    return TopicModel(T=3, alpha_sum=1.5, beta=0.01, phi=phi, theta=theta, assignments=(),
                      seed=1, vocab=vocab, item_ids=(4, 7, 9, 30))


@pytest.mark.parametrize("block", [1, 7, None])  # values per write_rows block; None: default
def test_theta_file_is_each_value_by_its_own_repr(tmp_path, monkeypatch, block):
    if block:
        monkeypatch.setattr(lda, "_BLOCK_CELLS", block)
    model = _hand_model()
    path = tmp_path / "theta.csv"
    save_theta(model, path)
    assert path.read_text() == repr_rows_text(zip(model.item_ids, model.theta))
    assert "7,0.5,-0.0,0.5\n" in path.read_text()


@pytest.mark.parametrize("block", [1, 7, None])
def test_phi_file_is_each_value_by_its_own_repr(tmp_path, monkeypatch, block):
    if block:
        monkeypatch.setattr(lda, "_BLOCK_CELLS", block)
    model = _hand_model()
    path = tmp_path / "phi.csv"
    save_phi(model, path, threshold=1e-6)
    text = path.read_text()
    assert text == repr_phi_text(model.phi, model.vocab.tokens,
                                 "# T=3 alpha_sum=1.5 beta=0.01\n", 1e-6)
    assert "0,alpha," not in text  # exactly at the threshold: excluded
    assert "2,alpha,1.5e-05\n" in text


def test_topics_file_lists_top_words(tmp_path):
    model, _, _ = _toy_model()
    path = tmp_path / "topics.txt"
    save_topics(model, path, top_n=3)
    lines = path.read_text().splitlines()
    assert len(lines) == model.T
    assert lines[0].startswith("T0\t")


# ---------- columnar topic-row reader: the line parser's rows and errors ----------

def _read_both(path, zero_ok, monkeypatch):
    """(read_topic_rows' rows or ParseError text, the line parser's, whether
    the columnar reader accepted the file)."""
    def read():
        try:
            return [(i, v.tobytes()) for i, v in lda.read_topic_rows(path, zero_ok).items()]
        except ParseError as exc:
            return str(exc)
    lines = [(n, line) for n, line in enumerate(path.read_text().splitlines(), 1)
             if line.strip() and not line.startswith("#")]
    columnar = lda._topic_columns(lines, zero_ok) is not None
    got = read()
    with monkeypatch.context() as m:
        m.setattr(lda, "_topic_columns", lambda *args: None)
        return got, read(), columnar


_GOOD_ROWS = [
    "4,0.25,0.25,0.5\n7,0.5,-0.0,0.5\n9,1e-16,0.0,0.9999999999999999\n",
    "# header\n\n3,0.1,0.2,0.7\n  \n#undefined:1\n5,0.0,0.0,0.0\n",
    " 3 , 0.1,0.2 ,0.7\n+5,0.5,0.5,0.0\n007,1.0,0.0,0.0\n",
    "3,0.3333333333333333,0.3333333333333333,0.3333333333333334\n4,1,0,0\n",
]


@pytest.mark.parametrize("text", _GOOD_ROWS)
def test_topic_rows_columnar_equal_the_line_parser(tmp_path, monkeypatch, text):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    got, want, columnar = _read_both(path, True, monkeypatch)
    assert got == want and columnar
    assert all(isinstance(i, int) for i, _ in got)


@pytest.mark.parametrize("text,zero_ok", [
    ("3,0.5,0.5\n4,0.5,abc\n", False),               # non-numeric
    ("3,0.5,0.5\n4,1.0\n", False),                   # narrower
    ("3,0.5,0.5\n4,0.5,0.25,0.25\n", False),         # wider
    ("3,0.5,0.5\n4,1.5,-0.5\n", False),              # negative
    ("3,0.5,0.5\n4,0.5,0.25\n", False),              # does not sum to 1
    ("3,0.5,0.5\n4,nan,0.5\n", False),               # NaN
    ("3,0.5,0.5\n4,0.0,0.0\n", False),               # all zero, not allowed
    ("3,0.5,0.5\n4,\n", False),                      # empty, not allowed
    ("3,0.5,0.5\n4.0,0.5,0.5\n", False),             # float text as an id
    ("3,0.5,0.5\n4,0.5,0.5#x\n", False),             # a '#' inside a row
    ("3,0.5,0.5\n4,\n5,0.0,0.0\n", True),            # empty and all-zero rows allowed
    ("4,\n3,0.5,0.5\n", True),                       # the first row empty
    ("1_000,0.5,0.5\n3,1_0e-1,0.0\n", False),        # only Python reads these
    ("99999999999999999999,0.5,0.5\n", False),      # an id beyond int64
    ("", False),
])
def test_topic_rows_columnar_errors_and_fallbacks_equal_the_line_parser(
        tmp_path, monkeypatch, text, zero_ok):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    got, want, columnar = _read_both(path, zero_ok, monkeypatch)
    assert got == want and not columnar


def test_topic_rows_columnar_equal_the_line_parser_at_scale(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    values = rng.dirichlet(np.full(50, 0.3), size=400)
    values[::37] = 0.0
    path = tmp_path / "rows.csv"
    with open(path, "w", encoding="utf-8") as fh:
        lda.write_rows(fh, [[str(i) for i in range(1, 401)]], values)
    got, want, columnar = _read_both(path, True, monkeypatch)
    assert got == want and columnar
    assert not lda.read_topic_rows(path, zero_ok=True)[1].flags.writeable
