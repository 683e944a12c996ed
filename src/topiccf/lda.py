"""Topic model training over the item corpus: tokenization, vocabulary, collapsed Gibbs LDA.

The sampler is the exact sequential collapsed Gibbs algorithm: each token's
topic is resampled from

    p(z = t)_ propto (n_dt + alpha) * (n_tw + beta) / (n_t + V*beta)

with the current token excluded from all counts, alpha = alpha_sum / T.
After the final sweep the point estimates are

    theta[d][t] = (n_dt + alpha) / (len_d + alpha_sum)
    phi[t][w]   = (n_tw + beta)  / (n_t + V*beta)

Everything is deterministic given (corpus, T, alpha_sum, beta, iterations, seed).
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .ingest import ConfigurationError, DocumentCorpus, ParseError

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
PROGRESS_EVERY = 100  # sweeps between on_progress reports


def _parse_stopwords(text: str) -> frozenset[str]:
    tokens = (line.strip().lower() for line in text.splitlines())
    return frozenset(t for t in tokens if t and not t.startswith("#"))


def load_stopwords(path) -> frozenset[str]:
    """One token per line; blank lines and '#' comments ignored."""
    return _parse_stopwords(Path(path).read_text(encoding="utf-8"))


def default_stopwords() -> frozenset[str]:
    """The English stoplist shipped with the package."""
    return _parse_stopwords(
        resources.files("topiccf").joinpath("stopwords.txt").read_text(encoding="utf-8"))


def tokenize(text: str, stopwords: frozenset[str] = frozenset()) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop short tokens, numbers, stopwords."""
    return [t for t in _TOKEN_RE.findall(text.lower())
            if len(t) >= 3 and not t.isdigit() and t not in stopwords]


@dataclass
class Vocabulary:
    tokens: tuple[str, ...]              # index -> token, lexicographic
    token_to_index: dict[str, int]
    doc_freq: tuple[int, ...]            # per token, aligned with `tokens`

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class EncodedCorpus:
    docs: list[list[int]]                # vocabulary indices per document
    item_ids: tuple[int, ...]            # doc position -> item_id, sorted ascending

    def __len__(self) -> int:
        return len(self.docs)

    def total_tokens(self) -> int:
        return sum(len(d) for d in self.docs)


def build_vocabulary(
    corpus: DocumentCorpus,
    stopwords: frozenset[str] = frozenset(),
    min_df: int = 1,
) -> tuple[Vocabulary, EncodedCorpus]:
    """Tokenize every document, drop tokens with document frequency < min_df, encode.

    Documents are encoded in item_id order. A document whose every token is
    filtered stays in the corpus as an empty sequence; its theta row comes out
    uniform from the smoothing.
    """
    if not corpus.docs:
        raise ConfigurationError("corpus is empty")
    item_ids = corpus.item_ids()
    tokenized = [tokenize(corpus.docs[i], stopwords) for i in item_ids]
    df = Counter(t for toks in tokenized for t in set(toks))
    kept = sorted(t for t, c in df.items() if c >= min_df)
    if not kept:
        raise ConfigurationError("all documents empty after token filtering")
    index = {t: i for i, t in enumerate(kept)}
    docs = [[index[t] for t in toks if t in index] for toks in tokenized]
    vocab = Vocabulary(tuple(kept), index, tuple(df[t] for t in kept))
    return vocab, EncodedCorpus(docs, tuple(item_ids))


@dataclass
class TopicModel:
    T: int
    alpha_sum: float
    beta: float
    phi: np.ndarray                      # T x V, row-stochastic
    theta: np.ndarray                    # D x T, row-stochastic
    assignments: tuple[tuple[int, ...], ...]
    seed: int
    vocab: Vocabulary
    item_ids: tuple[int, ...]


@dataclass
class ItemTopicProfile:
    item_id: int
    distribution: np.ndarray


def train_lda(
    corpus: EncodedCorpus,
    vocab: Vocabulary,
    T: int = 50,
    alpha_sum: float = 50.0,
    beta: float = 0.01,
    iterations: int = 1000,
    seed: int = 1,
    on_progress: Callable[[int, float], None] | None = None,
) -> TopicModel:
    """Collapsed Gibbs sampling; returns the point estimate from the final sweep.

    ``on_progress(iteration, log_likelihood)``, when set, fires every
    PROGRESS_EVERY (100) sweeps; it never consumes randomness.
    """
    if T < 1:
        raise ConfigurationError(f"T must be >= 1, got {T}")
    if iterations < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    V = len(vocab)
    if V == 0:
        raise ConfigurationError("empty vocabulary")
    if corpus.total_tokens() == 0:
        raise ConfigurationError("corpus has no non-empty documents")

    rng = np.random.default_rng(seed)
    alpha = alpha_sum / T
    vbeta = V * beta
    docs = corpus.docs
    # The token stream in document order: token i is word words[i] of doc_of[i], topic z[i].
    words = [w for doc in docs for w in doc]
    doc_of = [d for d, doc in enumerate(docs) for _ in doc]
    z = rng.integers(0, T, size=len(words)).tolist()

    n_dt = [[0] * T for _ in docs]
    n_wt = [[0] * T for _ in range(V)]   # word-major for fast row binding
    n_t = [0] * T
    for w, d, t in zip(words, doc_of, z):
        n_dt[d][t] += 1
        n_wt[w][t] += 1
        n_t[t] += 1

    cum = [0.0] * T
    t_range = range(T)
    for sweep in range(iterations):
        u = rng.random(len(words))
        for i, w in enumerate(words):
            row = n_dt[doc_of[i]]
            rw = n_wt[w]
            t_old = z[i]
            row[t_old] -= 1
            rw[t_old] -= 1
            n_t[t_old] -= 1
            total = 0.0
            for t in t_range:
                total += (row[t] + alpha) * (rw[t] + beta) / (n_t[t] + vbeta)
                cum[t] = total
            r = u[i] * total
            t_new = 0
            while cum[t_new] < r:
                t_new += 1
            z[i] = t_new
            row[t_new] += 1
            rw[t_new] += 1
            n_t[t_new] += 1
        if on_progress and (sweep + 1) % PROGRESS_EVERY == 0:
            theta, phi = _estimates(n_dt, n_wt, docs, alpha, alpha_sum, beta, vbeta)
            on_progress(sweep + 1, _log_likelihood(theta, phi, docs))

    theta, phi = _estimates(n_dt, n_wt, docs, alpha, alpha_sum, beta, vbeta)
    stream = iter(z)
    return TopicModel(
        T=T,
        alpha_sum=alpha_sum,
        beta=beta,
        phi=phi,
        theta=theta,
        assignments=tuple(tuple(islice(stream, len(doc))) for doc in docs),
        seed=seed,
        vocab=vocab,
        item_ids=corpus.item_ids,
    )


def _estimates(n_dt, n_wt, docs, alpha, alpha_sum, beta, vbeta):
    doc_lens = np.array([len(d) for d in docs], dtype=float)
    theta = (np.array(n_dt, dtype=float) + alpha) / (doc_lens[:, None] + alpha_sum)
    n_tw = np.array(n_wt, dtype=float).T
    phi = (n_tw + beta) / (n_tw.sum(axis=1, keepdims=True) + vbeta)
    return theta, phi


def _log_likelihood(theta: np.ndarray, phi: np.ndarray, docs) -> float:
    total = 0.0
    for d, doc in enumerate(docs):
        if doc:
            total += float(np.log(theta[d] @ phi[:, doc]).sum())
    return total


def corpus_log_likelihood(model: TopicModel, corpus: EncodedCorpus) -> float:
    """Token log likelihood sum_{d,w} log sum_t theta[d][t] * phi[t][w]; 0 for an empty corpus."""
    return _log_likelihood(model.theta, model.phi, corpus.docs)


def topic_top_words(model: TopicModel, topic: int, n: int) -> list[str]:
    """Top-n tokens of a topic by phi, ties broken by ascending token index."""
    if not (0 <= topic < model.T):
        raise ValueError(f"topic {topic} out of range [0, {model.T})")
    order = np.argsort(-model.phi[topic], kind="stable")
    return [model.vocab.tokens[i] for i in order[: min(n, len(model.vocab))]]


def item_profiles(model: TopicModel) -> dict[int, ItemTopicProfile]:
    return {
        item_id: ItemTopicProfile(item_id, model.theta[d])
        for d, item_id in enumerate(model.item_ids)
    }


def write_topic_rows(rows: Iterable[tuple[int, np.ndarray]], path, trailer: str = "") -> None:
    """Rows ``id,p_0,...,p_{T-1}`` (floats by repr), then ``trailer`` verbatim."""
    with open(path, "w", encoding="utf-8") as fh:
        for row_id, dist in rows:
            fh.write(f"{row_id}," + ",".join(repr(float(x)) for x in dist) + "\n")
        fh.write(trailer)


def read_topic_rows(path) -> list[tuple[int, int, np.ndarray]]:
    """Inverse of write_topic_rows, as (1-based line, id, values) per row; '#' lines are
    skipped and ``id,`` reads as an empty row. A non-numeric field, or a non-empty
    row wider or narrower than the first, is a ParseError."""
    rows, width = [], 0
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        head, _, rest = line.partition(",")
        try:
            dist = np.array([float(x) for x in rest.split(",")] if rest else [])
            rows.append((line_no, int(head), dist))
        except ValueError as exc:
            raise ParseError(line_no, f"{path}: {exc}") from None
        width = width or len(dist)
        if len(dist) not in (0, width):
            raise ParseError(line_no, f"{path}: {len(dist)} values, expected {width}")
    return rows


def save_theta(model: TopicModel, path) -> None:
    """Rows ``item_id,p_0,...,p_{T-1}`` in item_id order."""
    write_topic_rows(zip(model.item_ids, model.theta), path)


def load_item_profiles(path) -> dict[int, ItemTopicProfile]:
    return {i: ItemTopicProfile(i, dist) for _, i, dist in read_topic_rows(path)}


def save_phi(model: TopicModel, path, threshold: float = 1e-6) -> None:
    """Rows ``topic,token,probability`` above threshold; smoothing parameters in the header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# T={model.T} alpha_sum={model.alpha_sum!r} beta={model.beta!r}\n")
        tokens = model.vocab.tokens
        for t, row in enumerate(model.phi):
            probs = row.tolist()  # one row at a time: a whole-matrix list costs ~30 bytes a cell
            fh.write("".join(f"{t},{tok},{p!r}\n" for tok, p in zip(tokens, probs) if p > threshold))


def save_topics(model: TopicModel, path, top_n: int = 20) -> None:
    """Human-readable top words per topic."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in range(model.T):
            fh.write(f"T{t}\t" + " ".join(topic_top_words(model, t, top_n)) + "\n")
