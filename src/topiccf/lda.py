"""Topic model training over the item corpus: tokenization, vocabulary, collapsed Gibbs LDA.

The sampler is the exact sequential collapsed Gibbs algorithm: each token's
topic is resampled from

    p(z = t)_ propto (n_dt + alpha) * (n_tw + beta) / (n_t + V*beta)

with the current token excluded from all counts, alpha = alpha_sum / T.
After the final sweep the point estimates are

    theta[d][t] = (n_dt + alpha) / (len_d + alpha_sum)
    phi[t][w]   = (n_tw + beta)  / (n_t + V*beta)

Everything is deterministic given (corpus, T, alpha_sum, beta, iterations, seed).
A sweep runs in the C library _kernels.c where a compiler can build it, else
in _sweep_python; both give the same bits. The same library holds the log and
exp loops of the similarity rows, the co-count loop of the item-LLR columns and
the ratings csv writer. load_kernels is the one way any module reaches it: a
caller takes its function from ``load_kernels()[0]``, or its Python twin where
that is None. Every array argument goes to C as a plain pointer, so a call
leaves no reference cycle.
"""
from __future__ import annotations

import contextlib
import functools
import math
import os
import re
import tempfile
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

from .ingest import (ConfigurationError, DocumentCorpus, ParseError, float_reprs, loadtxt_or_none,
                     read_text)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
PROGRESS_EVERY = 100  # sweeps between on_progress reports
SUM_TOLERANCE = 1e-6  # how far a stored topic distribution's sum may stray from 1


def rows_sum_to_one(block: np.ndarray) -> np.ndarray:
    """Whether each row of the 2-D block sums to 1 within SUM_TOLERANCE; never
    for a NaN sum. Each row's sum is numpy's sum of that row alone."""
    return np.abs(block.sum(axis=1) - 1.0) <= SUM_TOLERANCE


def check_smoothing(alpha_sum: float, beta: float) -> None:
    """ConfigurationError unless both Dirichlet parameters are finite and positive."""
    if not (0.0 < alpha_sum < math.inf and 0.0 < beta < math.inf):
        raise ConfigurationError(f"alpha_sum and beta must be finite and positive, "
                                 f"got alpha_sum={alpha_sum!r}, beta={beta!r}")


def _parse_stopwords(text: str) -> frozenset[str]:
    tokens = (line.strip().lower() for line in text.splitlines())
    return frozenset(t for t in tokens if t and not t.startswith("#"))


def load_stopwords(path) -> frozenset[str]:
    """One token per line; blank lines and '#' comments ignored."""
    return _parse_stopwords(read_text(path))


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
    vocab = Vocabulary(tuple(kept), index)
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
    check_smoothing(alpha_sum, beta)
    V = len(vocab)
    if V == 0:
        raise ConfigurationError("empty vocabulary")
    docs = corpus.docs
    lens = np.array([len(doc) for doc in docs], dtype=np.int64)
    n = int(lens.sum())
    if n == 0:
        raise ConfigurationError("corpus has no non-empty documents")
    # The token stream in document order: token i is word words[i] of doc_of[i], topic z[i].
    words = np.fromiter(chain.from_iterable(docs), dtype=np.int64, count=n)
    if words.min() < 0 or words.max() >= V:
        raise ConfigurationError(f"corpus has a word index outside the vocabulary [0, {V})")
    doc_of = np.repeat(np.arange(len(docs)), lens)

    rng = np.random.default_rng(seed)
    alpha = alpha_sum / T
    vbeta = V * beta
    z = rng.integers(0, T, size=n)
    n_dt = np.bincount(doc_of * T + z, minlength=len(docs) * T).reshape(-1, T).astype(np.int32)
    n_wt = np.bincount(words * T + z, minlength=V * T).reshape(V, T).astype(np.int32)
    n_t = np.bincount(z, minlength=T).astype(np.int32)
    words, doc_of, z = words.astype(np.int32), doc_of.astype(np.int32), z.astype(np.int32)

    lib = load_kernels()[0]
    sweep = _sweep_python if lib is None else lib.topiccf_gibbs_sweep
    cum = np.empty(T)
    for it in range(iterations):
        sweep(n, T, words, doc_of, z, n_dt, n_wt, n_t, rng.random(n), alpha, beta, vbeta, cum)
        if on_progress and (it + 1) % PROGRESS_EVERY == 0:
            theta, phi = _estimates(n_dt, n_wt, docs, alpha, alpha_sum, beta, vbeta)
            on_progress(it + 1, _log_likelihood(theta, phi, docs))

    theta, phi = _estimates(n_dt, n_wt, docs, alpha, alpha_sum, beta, vbeta)
    stream = iter(z.tolist())
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


def _sweep_python(n, T, words, doc_of, z, n_dt, n_wt, n_t, u, alpha, beta, vbeta, cum):
    """One Gibbs sweep over the token stream, updating z and the counts in place; cum is
    left holding the last token's cumulative topic weights.

    The fallback where _kernels.c cannot be built, and its oracle: the kernel
    takes the same arguments and does the same arithmetic in the same order.
    """
    zs, dt, wt, nt, cs = z.tolist(), n_dt.tolist(), n_wt.tolist(), n_t.tolist(), cum.tolist()
    t_range, last = range(T), T - 1
    for i, (w, d, ui) in enumerate(zip(words.tolist(), doc_of.tolist(), u.tolist())):
        row = dt[d]
        rw = wt[w]
        t_old = zs[i]
        row[t_old] -= 1
        rw[t_old] -= 1
        nt[t_old] -= 1
        total = 0.0
        for t in t_range:
            total += (row[t] + alpha) * (rw[t] + beta) / (nt[t] + vbeta)
            cs[t] = total
        r = ui * total
        t_new = 0
        while t_new < last and cs[t_new] < r:
            t_new += 1
        zs[i] = t_new
        row[t_new] += 1
        rw[t_new] += 1
        nt[t_new] += 1
    z[:], n_dt[:], n_wt[:], n_t[:], cum[:] = zs, dt, wt, nt, cs


# No -ffast-math and no FMA contraction: either would round differently from the
# Python twins of the native loops. libm goes after the source, so log and exp resolve to it.
_KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_KERNEL_LIBS = ("-lm",)
_COMPILER = "cc"


def _private_dir(path: Path) -> Path:
    """path, made with mode 0700 if absent (its grandparent must exist); PermissionError
    unless only this user can write it."""
    path.parent.mkdir(exist_ok=True)
    path.mkdir(mode=0o700, exist_ok=True)
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022 or not os.access(path, os.W_OK):
        raise PermissionError(f"{path} is not a directory only this user can write")
    return path


def _compile_kernel(cache: Path) -> Path:
    """_kernels.c built in cache under a name keyed by the source and flags, unless it is there."""
    import hashlib
    import subprocess

    source = resources.files("topiccf").joinpath("_kernels.c").read_bytes()
    key = hashlib.sha256(source + "\0".join(_KERNEL_FLAGS + _KERNEL_LIBS).encode()).hexdigest()
    so = cache / f"_kernels-{key[:16]}.so"
    if not so.exists():
        tmp = cache / f"{so.name}.{os.getpid()}.tmp"
        try:
            subprocess.run([_COMPILER, *_KERNEL_FLAGS, "-x", "c", "-", "-o", str(tmp),
                            *_KERNEL_LIBS], input=source, capture_output=True, check=True,
                           timeout=120)
            os.replace(tmp, so)
        finally:
            tmp.unlink(missing_ok=True)
    return so


def _array_arg(dtype, flags: str):
    """The argtype of a C array of ``dtype`` with ``flags``: np.ctypeslib.ndpointer's
    checks (a failed one raises ctypes.ArgumentError), but the array goes as a
    ctypes.c_void_p of its data. ndpointer passes ``arr.ctypes``, which ctypes.cast
    converts with a reference cycle per array (bpo-12836), so thousands of calls
    would leave work for the cyclic garbage collector; a bare int would be
    truncated to a C int."""
    import ctypes

    class ArrayArg(np.ctypeslib.ndpointer(dtype, flags=flags)):
        @classmethod
        def from_param(cls, obj):
            return ctypes.c_void_p(super().from_param(obj).data)

    return ArrayArg


@functools.cache
def load_kernels():
    """_kernels.c as a loaded library: (the ctypes.CDLL, "native (<.so path>)"), or
    (None, "python (<why not>)") when it cannot be compiled or loaded. Once per process,
    with the argument and result types of every function in it set.

    Compiled on first use into ~/.cache/topiccf, or into a temporary directory
    when there is no home directory or that is not a directory only this user can write.
    """
    import ctypes
    import subprocess

    try:
        cache = _private_dir(Path.home() / ".cache" / "topiccf")
        where = contextlib.nullcontext(cache)
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        where = tempfile.TemporaryDirectory(prefix="topiccf-")
    try:
        with where as cache:
            so = _compile_kernel(Path(cache))
            lib = ctypes.CDLL(str(so))
    except subprocess.CalledProcessError as exc:
        why = exc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return None, f"python ({_COMPILER} exited {exc.returncode}: {' '.join(why)})"
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"python ({exc})"
    c_long, c_int, c_double = ctypes.c_long, ctypes.c_int, ctypes.c_double
    (i32, i32_out), (f64, f64_out), (i64, i64_out), (u8, u8_out) = (
        [_array_arg(t, f) for f in ("C_CONTIGUOUS", "C_CONTIGUOUS,WRITEABLE")]
        for t in (np.int32, np.float64, np.int64, np.uint8))
    loop = [c_long, f64, f64_out]  # fn(n, x, out)
    signatures = {"topiccf_gibbs_sweep": [c_long, c_int, i32, i32, *[i32_out] * 4, f64,
                                          c_double, c_double, c_double, f64_out],
                  "topiccf_log": loop, "topiccf_exp": loop,
                  "topiccf_co_counts": [c_long, i32, i32, i32, i64_out],
                  "topiccf_write_ratings": [c_long, i64, i64, i64, u8, i64, i64, u8, u8_out]}
    for name, argtypes in signatures.items():  # all return void but the writer's length
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, c_long if name == "topiccf_write_ratings" else None
    return lib, f"native ({so})"


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


_BLOCK_CELLS = 1 << 14  # values write_rows formats and joins at a time


def write_rows(fh: TextIO, keys: Sequence[Sequence[str]], values: np.ndarray) -> None:
    """One line ``k_1,...,k_m,v_1,...,v_n`` per row of the 2-D ``values`` to ``fh``:
    the key columns' texts as given, each value by repr.

    Rows go in blocks of about _BLOCK_CELLS values. Within a block each distinct
    value is formatted once and one join makes the lines. A block's strings stay
    in cache: the 302k all-distinct persona values of an ML-1M run write about
    20% faster in blocks than all at once. The dedup stays because the topic
    lists' scores are k/N fractions of few levels: 453k scores at 30 levels
    write in 0.06 s against 0.19 s with a repr per value, while 453k
    all-distinct values cost 9% more (0.254 against 0.233 s; process CPU, best
    of 3, 2-core x86 VM).
    """
    n, width = values.shape
    step = max(1, _BLOCK_CELLS // max(width, 1))
    for start in range(0, n, step):
        block = values[start:start + step]
        text, inverse = float_reprs(block)
        # A row of no values still ends its keys with a comma: ``id,``.
        fields = np.full((len(block), 2 * (len(keys) + width) + (width == 0)), ",", dtype=object)
        for j, key in enumerate(keys):
            fields[:, 2 * j] = key[start:start + step]
        fields[:, 2 * len(keys):-1:2] = np.array(text, dtype=object)[inverse].reshape(block.shape)
        fields[:, -1] = "\n"
        fh.write("".join(fields.ravel().tolist()))


def read_topic_rows(path, zero_ok: bool = False) -> list[tuple[int, int, np.ndarray]]:
    """Rows ``id,p_0,...,p_{T-1}`` as write_rows writes them, as (1-based line, id,
    values) per row; '#' lines are skipped and ``id,`` reads as an empty row. A
    non-numeric field, a non-empty row wider or narrower than the first, a negative
    value or a row that does not sum to 1 is a ParseError; with ``zero_ok``, empty
    and all-zero rows are let through.

    The file is parsed by one loadtxt_or_none (_topic_columns); where numpy refuses it
    or a row breaks a rule, the line parser (_topic_lines) reads it and names the
    first bad line.
    """
    lines = [(line_no, line) for line_no, line
             in enumerate(read_text(path).splitlines(), 1)
             if line.strip() and not line.startswith("#")]
    rows = _topic_columns(lines, zero_ok)
    return _topic_lines(path, lines, zero_ok) if rows is None else rows


def _topic_columns(lines: list[tuple[int, str]], zero_ok: bool):
    """read_topic_rows of the numbered data lines by one loadtxt_or_none, ids as int64;
    None where only _topic_lines can decide.

    It accepts a subset of what _topic_lines accepts, with the same values: numpy
    rejects ``1_000``, an id beyond int64 and float text as an id, and every row
    must have the first row's width, at least 1. The values are rows of one
    read-only block, as _topic_lines' are read-only.
    """
    width = lines[0][1].count(",") if lines else 0
    if not width:
        return None
    dtype = [("id", np.int64), ("p", np.float64, (width,))]
    table = loadtxt_or_none([line for _, line in lines], dtype)
    if table is None:
        return None
    values = np.ascontiguousarray(table["p"])
    fine = rows_sum_to_one(values) | (zero_ok & ~values.any(axis=1))
    if len(values) != len(lines) or (values < 0).any() or not fine.all():
        return None
    values.flags.writeable = False
    return list(zip([line_no for line_no, _ in lines], table["id"].tolist(), values))


def _topic_lines(path, lines: list[tuple[int, str]], zero_ok: bool):
    """read_topic_rows of the numbered data lines, line by line: the reference
    parser, and the one that names a bad line."""
    rows, width = [], 0
    for line_no, line in lines:
        head, _, rest = line.partition(",")
        try:
            dist = np.array([float(x) for x in rest.split(",")] if rest else [])
            dist.flags.writeable = False
            rows.append((line_no, int(head), dist))
        except ValueError as exc:
            raise ParseError(line_no, f"{path}: {exc}") from None
        width = width or len(dist)
        if len(dist) not in (0, width):
            raise ParseError(line_no, f"{path}: {len(dist)} values, expected {width}")
        if (dist < 0).any():
            raise ParseError(line_no, f"{path}: negative value {float(dist.min())!r}")
        if not rows_sum_to_one(dist[None])[0] and (dist.any() or not zero_ok):
            raise ParseError(line_no, f"{path}: values sum to {float(dist.sum())!r}, not 1")
    return rows


def save_theta(model: TopicModel, path) -> None:
    """Rows ``item_id,p_0,...,p_{T-1}`` in item_id order."""
    with open(path, "w", encoding="utf-8") as fh:
        write_rows(fh, [[str(i) for i in model.item_ids]], model.theta)


def topic_rows_by_id(path, zero_ok: bool = False) -> dict[int, np.ndarray]:
    """read_topic_rows as {id: values}; an id on two lines is a ParseError naming both."""
    first, by_id = {}, {}
    for line_no, id_, dist in read_topic_rows(path, zero_ok):
        if first.setdefault(id_, line_no) != line_no:
            raise ParseError(line_no, f"{path}: id {id_} repeats line {first[id_]}")
        by_id[id_] = dist
    return by_id


def load_item_profiles(path) -> dict[int, ItemTopicProfile]:
    return {i: ItemTopicProfile(i, dist) for i, dist in topic_rows_by_id(path).items()}


def save_phi(model: TopicModel, path, threshold: float = 1e-6) -> None:
    """Rows ``topic,token,probability`` above threshold; smoothing parameters in the header."""
    tokens = np.array(model.vocab.tokens, dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# T={model.T} alpha_sum={model.alpha_sum!r} beta={model.beta!r}\n")
        # A topic at a time: the fields of all T x V cells at once cost ~150 bytes a cell.
        for t, row in enumerate(model.phi):
            keep = row > threshold
            write_rows(fh, [[str(t)] * int(keep.sum()), tokens[keep]], row[keep, None])


def save_topics(model: TopicModel, path, top_n: int = 20) -> None:
    """Human-readable top words per topic."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in range(model.T):
            fh.write(f"T{t}\t" + " ".join(topic_top_words(model, t, top_n)) + "\n")
