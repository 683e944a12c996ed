"""User-user and item-item similarity measures.

Latent-topic similarity maps symmetric KL divergence between personas to
(0, 1] via exp(-KL). Rating-overlap similarity is either Pearson correlation
over co-rated items or a log-likelihood-ratio score on the 2x2 preference
contingency table, mapped to [0, 1) by 1 - 1/(1 + G2). The hybrid score is
the product of the topic term and the LLR term.

Each measure also has a batch form that scores one user (or one item)
against every train user (or item) at once, in ``train.index`` order.
Every float a batch form gives equals the per-pair function's bit for bit:
a per-pair Pearson, LLR or item-LLR value is the entry of its batch row
(pearson_row, llr_row, item_llr_col), so co-rated items are gathered one way,
by the rating index; item_llr_block stacks item_llr_col of every item; the
symmetric KL has one definition, over many candidates, of which symmetric_kl
is the one-candidate case, and one input check; the hybrid rule has one too.

The symmetric KL is a fixed-order sum over the topics, taken elementwise over
a T-major block of floored candidate distributions and their logs, which the
topic row builds once per read-only persona map. No BLAS call or numpy
reduction decides a bit, so a topic score does not depend on which kernels
numpy picks for the CPU.

Every log and exp, of G2 and of the topic term, is libm's log or exp, the
functions math.log and math.exp call: _log and _exp map them over an array in
one native loop of the library lda.load_kernels gives, or through math.log and
math.exp where it is None; both give the same bits. np.log and np.exp are not
used, because their SIMD loops differ from libm in the last bit. An item
column counts its co-ratings in the same library's integer loop, or by
_co_counts where it is not built.
"""
from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import lda
from .ingest import RatingDataset, csr_entries, csr_row, position
from .lda import rows_sum_to_one
from .persona import UserPersona

KL_FLOOR = 1e-10


class SimilarityScore(NamedTuple):
    value: float
    defined: bool = True


UNDEFINED = SimilarityScore(0.0, False)


def symmetric_kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p||q) + KL(q||p), after flooring entries at 1e-10 and renormalizing.

    The floor keeps the divergence finite for distributions that picked up
    exact zeros in file round-trips; LDA-smoothed profiles are strictly
    positive and pass through unchanged. _kl_rows of the one candidate q;
    raises _checked's ValueError, naming p or q.
    """
    f, logs = _floored_log(np.ascontiguousarray(_checked([p, q], ("p", "q")).T))
    return float(_kl_rows(f[:, 0], logs[:, 0], f[:, 1:], logs[:, 1:])[0])


def _checked(dists: list, names: Sequence[str], width: int | None = None) -> np.ndarray:
    """The distributions as the rows of one float array. Raises ValueError naming
    the first that is not 1-D of ``width`` (else of the first one's width), then
    the first that does not sum to 1 within lda.SUM_TOLERANCE."""
    want = np.shape(dists[0])[:1] if width is None else (width,)
    for name, d in zip(names, dists):
        if np.shape(d) != want or not want:
            raise ValueError(f"{name}: dimension mismatch: {np.shape(d)} vs {want}")
    rows = np.array(dists, dtype=float)
    ok = rows_sum_to_one(rows)
    if not ok.all():
        i = ok.argmin()
        raise ValueError(f"{names[i]} does not sum to 1 (got {rows[i].sum()!r})")
    return rows


def _floored_log(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floors the columns of the C-contiguous T-major block d (topics x
    distributions) at KL_FLOOR and renormalises them, in place; returns d and
    its logs.

    Each column's total is the left-to-right sum over the topics, one vector
    add per topic (numpy's own sum adds in an order its SIMD loop picks); the
    logs are _log's, of values > 0.
    """
    np.maximum(d, KL_FLOOR, out=d)
    total = np.zeros(d.shape[1])
    for row in d:
        total += row
    d /= total
    return d, _log(d)


def _libm(x: np.ndarray, name: str, scalar) -> np.ndarray:
    """scalar(v) for each value v of x, in x's shape; scalar is math.log or math.exp,
    and name the library's loop over the same libm function ("topiccf_log" or
    "topiccf_exp"), which does it where the library loads; else scalar is mapped
    value by value."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    lib = lda.load_kernels()[0]
    if lib is None:
        return np.fromiter(map(scalar, x.flat), float, x.size).reshape(x.shape)
    out = np.empty_like(x)
    getattr(lib, name)(x.size, x, out)
    return out


def _log(x: np.ndarray) -> np.ndarray:
    """math.log of each value of x, all > 0 (math.log raises where C's log does not)."""
    return _libm(x, "topiccf_log", math.log)


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp of each value of x, all finite."""
    return _libm(x, "topiccf_exp", math.exp)


def _kl_rows(p: np.ndarray, lp: np.ndarray, q: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """Symmetric KL of the floored distribution p (log lp) to each column of the
    floored T-major block q (logs lq): sum over t of (p[t] - q[t]) * (lp[t] - lq[t]),
    left to right from 0.0, for every column at once. A topic at a time, so the
    vectors stay in cache when there are thousands of columns."""
    acc = np.zeros(q.shape[1])
    term, dlog = np.empty_like(acc), np.empty_like(acc)
    for pt, lpt, qt, lqt in zip(p.tolist(), lp.tolist(), q, lq):
        np.subtract(pt, qt, out=term)
        np.subtract(lpt, lqt, out=dlog)
        term *= dlog
        acc += term
    return acc


def topic_similarity(u: UserPersona | None, v: UserPersona | None) -> SimilarityScore:
    """exp(-symmetric KL) between personas; undefined if either persona is."""
    if u is None or v is None or not u.defined or not v.defined:
        return UNDEFINED
    return SimilarityScore(math.exp(-symmetric_kl(u.distribution, v.distribution)))


def pearson_similarity(u: int, v: int, train: RatingDataset) -> SimilarityScore:
    """Pearson correlation over co-rated items, each user centered on their own
    mean over that subset. Undefined below 2 co-rated items or at zero variance.
    pearson_row(u) at v."""
    value = _entry(pearson_row(u, train), train.index.user_ids, v, math.nan)
    return UNDEFINED if math.isnan(value) else SimilarityScore(value)


def _entry(row: np.ndarray, ids: np.ndarray, id_: int, absent: float) -> float:
    """row's value at id_'s position in ids; ``absent`` when id_ is not there."""
    pos = position(ids, id_)
    return absent if pos is None else float(row[pos])


def _pearson_rows(x: np.ndarray, y: np.ndarray, cand: np.ndarray, size: int) -> np.ndarray:
    """Pearson correlation of each of ``size`` candidates over its entries: the
    co-rated pairs (x[k], y[k]) with cand[k] == c, in item order. NaN where
    undefined: below 2 entries, or where either sum of squares is 0.

    Every sum is the left-to-right sum over a candidate's entries in item
    order (np.bincount adds in input order), starting from 0.0: the means
    (sum / n), then dot, ssx and ssy of the centered ratings.
    """
    n = np.bincount(cand, minlength=size)
    count = np.where(n > 0, n, np.nan)
    dx = x - (np.bincount(cand, x, minlength=size) / count)[cand]
    dy = y - (np.bincount(cand, y, minlength=size) / count)[cand]
    dot = np.bincount(cand, dx * dy, minlength=size)
    ssx = np.bincount(cand, dx * dx, minlength=size)
    ssy = np.bincount(cand, dy * dy, minlength=size)
    defined = (n >= 2) & (ssx != 0.0) & (ssy != 0.0)
    value = dot / np.sqrt(np.where(defined, ssx * ssy, np.nan))
    return np.clip(value, -1.0, 1.0)


def pearson_row(user: int, train: RatingDataset) -> np.ndarray:
    """pearson_similarity(user, v, train).value for every train user v, in index
    order; NaN where undefined.

    The entries are the raters of each of the user's items, item after item,
    so each candidate's co-rated pairs arrive in item order.
    """
    ix = train.index
    own = csr_row(ix.user_ptr, ix.user_ids, user)
    items = ix.user_items[own]
    entries = csr_entries(ix.item_ptr, items)
    x = np.repeat(train.columns.rating[own], ix.item_degree[items])
    return _pearson_rows(x, ix.item_ratings[entries], ix.item_users[entries], len(ix.user_ids))


def llr_similarity(u: int, v: int, train: RatingDataset) -> SimilarityScore:
    """Log-likelihood-ratio association of the two users' item sets, in [0, 1).

    The table counts co-rated items, each user's exclusive items, and the rest
    of the item universe. Always defined; independence gives exactly 0.
    llr_row(u) at v.
    """
    return SimilarityScore(_entry(llr_row(u, train), train.index.user_ids, v, 0.0))


def item_llr_similarity(i: int, j: int, train: RatingDataset) -> SimilarityScore:
    """llr_similarity with the roles of users and items swapped: item_llr_col(j) at i."""
    return SimilarityScore(_entry(item_llr_col(j, train), train.index.item_ids, i, 0.0))


def _g2_rows(k11: np.ndarray, k12: np.ndarray, k21: np.ndarray, k22: np.ndarray) -> np.ndarray:
    """G2 statistic of each 2x2 table: 2 * sum k * ln(k*N / (rowSum*colSum)), 0*ln0 = 0,
    clamped at 0 against float cancellation.

    The four cells are added in a fixed order; a cell with k = 0 adds +0.0.
    The logs are _log's, all 4 x n of them in one call; every argument is > 0
    (1.0 where k = 0). Exact while every k*N and r*c < 2**53.
    """
    n = k11 + k12 + k21 + k22
    r1, r2 = k11 + k12, k21 + k22
    c1, c2 = k11 + k21, k12 + k22
    k = np.stack([k11, k12, k21, k22])
    arg = np.ones(k.shape)
    np.divide(k * n, np.stack([r1 * c1, r1 * c2, r2 * c1, r2 * c2]), out=arg, where=k > 0)
    terms = k * _log(arg)
    g2 = 2.0 * (0.0 + terms[0] + terms[1] + terms[2] + terms[3])
    return np.where(g2 > 0.0, g2, 0.0)


def _llr_rows(k11: np.ndarray, size_a, size_b, universe: int) -> np.ndarray:
    """1 - 1/(1 + G2) of many tables (shared ids, ids only in a, only in b, in
    neither), given |a & b|, |a| and |b| of each."""
    k12 = size_a - k11
    k21 = size_b - k11
    return 1.0 - 1.0 / (1.0 + _g2_rows(k11, k12, k21, universe - k11 - k12 - k21))


def _co_counts(ptr: np.ndarray, cols: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """For each of ``size`` column positions, how many of the CSR ``rows`` hold it.
    The twin of _kernels.c's topiccf_co_counts: its fallback and its oracle."""
    return np.bincount(cols[csr_entries(ptr, rows)], minlength=size)


def llr_row(user: int, train: RatingDataset) -> np.ndarray:
    """llr_similarity(user, v, train).value for every train user v, in index order."""
    ix = train.index
    items = ix.user_items[csr_row(ix.user_ptr, ix.user_ids, user)]
    k11 = _co_counts(ix.item_ptr, ix.item_users, items, len(ix.user_ids))
    return _llr_rows(k11, len(items), ix.user_degree, train.num_items)


def item_llr_col(item: int, train: RatingDataset) -> np.ndarray:
    """item_llr_similarity(i, item, train).value for every train item i, in index order."""
    ix = train.index
    users = ix.item_users[csr_row(ix.item_ptr, ix.item_ids, item)]
    lib = lda.load_kernels()[0]
    if lib is None:
        k11 = _co_counts(ix.user_ptr, ix.user_items, users, len(ix.item_ids))
    else:  # the same counts in one walk, without _co_counts' gathered entries
        k11 = np.zeros(len(ix.item_ids), dtype=np.int64)
        lib.topiccf_co_counts(len(users), users, ix.user_ptr, ix.user_items, k11)
    return _llr_rows(k11, ix.item_degree, len(users), train.num_users)


def item_llr_block(train: RatingDataset) -> np.ndarray:
    """Every train item's item_llr_col as one items x items float64 block: row j
    is the column of the item at index position j. Filled in place, a row at a
    time, so the block is never held twice."""
    ids = train.index.item_ids
    block = np.empty((len(ids), len(ids)))
    for j, item in enumerate(ids.tolist()):
        block[j] = item_llr_col(item, train)
    return block


# One slot: (train.index, a read-only persona map, their block). The key holds
# the objects, so an identity compare cannot match a new object at a recycled address.
_block_memo: list = [None, None, None]


def _t_major(personas: list[UserPersona]) -> np.ndarray:
    """The defined personas' distributions as the columns of one C-contiguous
    T-major block; _checked, each named by its user id."""
    names = [f"persona of user {p.user_id}" for p in personas]
    return np.ascontiguousarray(_checked([p.distribution for p in personas], names).T)


def _candidate_block(personas: Mapping[int, UserPersona], train: RatingDataset):
    """The defined personas of train's users, in index order: their positions, and
    their floored distributions and logs as T-major blocks, as (pos, q, lq); None
    when there is none. Raises _t_major's ValueError, naming the first bad persona.

    A read-only map (a MappingProxyType, as build_all_personas and load_personas_csv
    return) is taken not to change, so a proxy over a dict that is still edited must
    not be passed: its block is kept until another map or train set comes. Any other
    Mapping gets a new block on every call."""
    ix = train.index
    if _block_memo[0] is ix and _block_memo[1] is personas:
        return _block_memo[2]
    _block_memo[:] = [None, None, None]  # the old block goes before a new one is built
    cands = list(map(personas.get, ix.user_ids.tolist()))
    pos = [i for i, q in enumerate(cands) if q is not None and q.defined]
    q = _t_major([cands[i] for i in pos]) if pos else None
    block = None if q is None else (np.array(pos, dtype=np.intp), *_floored_log(q))
    if isinstance(personas, MappingProxyType):
        _block_memo[:] = [ix, personas, block]
    return block


def topic_row(user: int, personas: Mapping[int, UserPersona], train: RatingDataset) -> np.ndarray:
    """topic_similarity of user's persona to every train user's, in index order;
    NaN where undefined, so all NaN unless user's and some train user's persona
    are defined. Then a bad persona, a candidate's or user's own, raises _checked's
    ValueError naming its user; no input makes the row call a per-pair function.

    The candidates' floored distributions and logs come from one T-major block,
    kept per read-only persona map (_candidate_block); _kl_rows scores them all
    at once.
    """
    p = personas.get(user)
    block = None if p is None or not p.defined else _candidate_block(personas, train)
    values = np.full(len(train.index.user_ids), np.nan)
    if block is not None:
        pos, q, lq = block
        d = _checked([p.distribution], [f"persona of user {p.user_id}"], len(q))
        fp, lp = _floored_log(d.T)
        values[pos] = _exp(-_kl_rows(fp[:, 0], lp[:, 0], q, lq))
    return values


def _hybrid(topic, llr):
    """The hybrid rule, on floats or arrays: topic * LLR, or bare LLR where
    topic is NaN (undefined)."""
    return np.where(np.isnan(topic), llr, topic * llr)


def hybrid_row(user: int, personas: Mapping[int, UserPersona], train: RatingDataset) -> np.ndarray:
    """hybrid_similarity(user, v, ...).value for every train user v, in index order."""
    return _hybrid(topic_row(user, personas, train), llr_row(user, train))


def hybrid_similarity(
    u: int,
    v: int,
    personas: Mapping[int, UserPersona],
    train: RatingDataset,
) -> SimilarityScore:
    """topic_similarity * llr_similarity; falls back to LLR alone when either
    persona is undefined, so such users stay recommendable."""
    t = topic_similarity(personas.get(u), personas.get(v))
    topic = t.value if t.defined else math.nan
    return SimilarityScore(float(_hybrid(topic, llr_similarity(u, v, train).value)))


def write_similarity_audit(
    path,
    personas: Mapping[int, UserPersona],
    train: RatingDataset,
) -> None:
    """All-pairs audit dump ``user_a,user_b,topic,llr,hybrid`` (a < b), from one
    topic_row and one llr_row per user a. Desk-scale only: the file holds
    n(n-1)/2 lines, about 18M at 6040 users."""
    users = train.users()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_a,user_b,topic,llr,hybrid\n")
        for a_pos, a in enumerate(users):
            topic, llr = topic_row(a, personas, train), llr_row(a, train)
            rows = np.stack([topic, llr, _hybrid(topic, llr)], axis=1)[a_pos + 1:].tolist()
            for b, (t, lr, h) in zip(users[a_pos + 1:], rows):
                fh.write(f"{a},{b},{'undefined' if math.isnan(t) else repr(t)},{lr!r},{h!r}\n")
