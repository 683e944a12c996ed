"""User-user and item-item similarity measures.

Latent-topic similarity maps symmetric KL divergence between personas to
(0, 1] via exp(-KL). Rating-overlap similarity is either Pearson correlation
over co-rated items or a log-likelihood-ratio score on the 2x2 preference
contingency table, mapped to [0, 1) by 1 - 1/(1 + G2). The hybrid score is
the product of the topic term and the LLR term.

Each measure but Pearson also has a batch form that scores one user (or one
item) against every train user (or item) at once, in ``train.index`` order.
The batch forms repeat the per-pair arithmetic operation for operation, so
every float they give equals the per-pair function's bit for bit.
"""
from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from .ingest import RatingDataset, csr_entries
from .persona import UserPersona, sums_to_one

KL_FLOOR = 1e-10


class SimilarityScore(NamedTuple):
    value: float
    defined: bool = True


UNDEFINED = SimilarityScore(0.0, False)


def symmetric_kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p||q) + KL(q||p), after flooring entries at 1e-10 and renormalizing.

    The floor keeps the divergence finite for distributions that picked up
    exact zeros in file round-trips; LDA-smoothed profiles are strictly
    positive and pass through unchanged.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    for name, d in (("p", p), ("q", q)):
        if not sums_to_one(d):
            raise ValueError(f"{name} does not sum to 1 (got {d.sum()!r})")
    return _kl(_floored_log(p), _floored_log(q))


def _floored_log(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d floored at KL_FLOOR and renormalised, and its log."""
    f = np.maximum(d, KL_FLOOR)
    f = f / f.sum()
    return f, np.log(f)


def _kl(p: tuple[np.ndarray, np.ndarray], q: tuple[np.ndarray, np.ndarray]) -> float:
    """Symmetric KL of two _floored_log results.

    ``a.dot(b)`` is the C function np.dot(a, b) calls, without its dispatch cost.
    """
    diff = p[1] - q[1]
    return float(p[0].dot(diff)) - float(q[0].dot(diff))


def topic_similarity(u: UserPersona | None, v: UserPersona | None) -> SimilarityScore:
    """exp(-symmetric KL) between personas; undefined if either persona is."""
    if u is None or v is None or not u.defined or not v.defined:
        return UNDEFINED
    return SimilarityScore(math.exp(-symmetric_kl(u.distribution, v.distribution)))


def pearson_similarity(u: int, v: int, train: RatingDataset) -> SimilarityScore:
    """Pearson correlation over co-rated items, each user centered on their own
    mean over that subset. Undefined below 2 co-rated items or at zero variance."""
    common = train.user_items(u) & train.user_items(v)
    if len(common) < 2:
        return UNDEFINED
    xs = [r for i, r in train.by_user[u] if i in common]  # by_user is in item order
    ys = [r for i, r in train.by_user[v] if i in common]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    dot = ssx = ssy = 0.0
    for x, y in zip(xs, ys):
        dx = x - mx
        dy = y - my
        dot += dx * dy
        ssx += dx * dx
        ssy += dy * dy
    if ssx == 0.0 or ssy == 0.0:
        return UNDEFINED
    value = dot / math.sqrt(ssx * ssy)
    return SimilarityScore(max(-1.0, min(1.0, value)))


def _g2(k11: int, k12: int, k21: int, k22: int) -> float:
    """G2 statistic of a 2x2 table: 2 * sum k * ln(k*N / (rowSum*colSum)), 0*ln0 = 0."""
    n = k11 + k12 + k21 + k22
    r1, r2 = k11 + k12, k21 + k22
    c1, c2 = k11 + k21, k12 + k22
    total = 0.0
    for k, r, c in ((k11, r1, c1), (k12, r1, c2), (k21, r2, c1), (k22, r2, c2)):
        if k > 0:
            total += k * math.log(k * n / (r * c))
    return max(0.0, 2.0 * total)  # clamp guards float cancellation


def _llr(a: frozenset[int], b: frozenset[int], universe: int) -> SimilarityScore:
    """1 - 1/(1 + G2) of the table: shared ids, ids only in a, only in b, in neither."""
    k11 = len(a & b)
    k12 = len(a) - k11
    k21 = len(b) - k11
    g2 = _g2(k11, k12, k21, universe - k11 - k12 - k21)
    return SimilarityScore(1.0 - 1.0 / (1.0 + g2))


def llr_similarity(u: int, v: int, train: RatingDataset) -> SimilarityScore:
    """Log-likelihood-ratio association of the two users' item sets, in [0, 1).

    The table counts co-rated items, each user's exclusive items, and the rest
    of the item universe. Always defined; independence gives exactly 0.
    """
    return _llr(train.user_items(u), train.user_items(v), train.num_items)


def item_llr_similarity(i: int, j: int, train: RatingDataset) -> SimilarityScore:
    """llr_similarity with the roles of users and items swapped."""
    return _llr(train.item_users(i), train.item_users(j), train.num_users)


def _g2_rows(k11: np.ndarray, k12: np.ndarray, k21: np.ndarray, k22: np.ndarray) -> np.ndarray:
    """_g2 of many tables at once, by the same operations in the same cell order.

    A cell with k = 0 adds +0.0 where _g2 skips it, which changes no sum; its
    log argument is fed as 1.0. The logs are math.log's, taken once per
    distinct argument: np.log differs from it in the last bit on some
    arguments. Exact while every k*N and r*c < 2**53.
    """
    n = k11 + k12 + k21 + k22
    r1, r2 = k11 + k12, k21 + k22
    c1, c2 = k11 + k21, k12 + k22
    k = np.stack([k11, k12, k21, k22])
    arg = np.ones(k.shape)
    np.divide(k * n, np.stack([r1 * c1, r1 * c2, r2 * c1, r2 * c2]), out=arg, where=k > 0)
    distinct, inverse = np.unique(arg.ravel(), return_inverse=True)
    logs = np.array(list(map(math.log, distinct.tolist())))
    terms = k * logs[inverse].reshape(k.shape)
    g2 = 2.0 * (0.0 + terms[0] + terms[1] + terms[2] + terms[3])
    return np.where(g2 > 0.0, g2, 0.0)  # max(0.0, g2), as _g2 clamps


def _llr_rows(k11: np.ndarray, size_a, size_b, universe: int) -> np.ndarray:
    """_llr's value for many tables, given |a & b|, |a| and |b| of each."""
    k12 = size_a - k11
    k21 = size_b - k11
    return 1.0 - 1.0 / (1.0 + _g2_rows(k11, k12, k21, universe - k11 - k12 - k21))


def _csr_row(ptr: np.ndarray, cols: np.ndarray, ids: np.ndarray, id_: int) -> np.ndarray:
    """The CSR row of the entity with id ``id_``; empty when it is not in ``ids``."""
    pos = int(np.searchsorted(ids, id_))
    if pos == len(ids) or ids[pos] != id_:
        return cols[:0]
    return cols[ptr[pos]:ptr[pos + 1]]


def _co_counts(ptr: np.ndarray, cols: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """For each of ``size`` column positions, how many of the CSR ``rows`` hold it."""
    return np.bincount(cols[csr_entries(ptr, rows)], minlength=size)


def llr_row(user: int, train: RatingDataset) -> np.ndarray:
    """llr_similarity(user, v, train).value for every train user v, in index order."""
    ix = train.index
    items = _csr_row(ix.user_ptr, ix.user_items, ix.user_ids, user)
    k11 = _co_counts(ix.item_ptr, ix.item_users, items, len(ix.user_ids))
    return _llr_rows(k11, len(items), ix.user_degree, train.num_items)


def item_llr_col(item: int, train: RatingDataset) -> np.ndarray:
    """item_llr_similarity(i, item, train).value for every train item i, in index order."""
    ix = train.index
    users = _csr_row(ix.item_ptr, ix.item_users, ix.item_ids, item)
    k11 = _co_counts(ix.user_ptr, ix.user_items, users, len(ix.item_ids))
    return _llr_rows(k11, ix.item_degree, len(users), train.num_users)


def _persona_terms(persona: UserPersona) -> tuple[bool, tuple[np.ndarray, np.ndarray] | None]:
    """(whether it sums to 1, its _floored_log if so) of a defined persona, kept on it."""
    if persona.kl_terms is None:
        d = np.asarray(persona.distribution, dtype=float)
        ok = sums_to_one(d)
        persona.kl_terms = (ok, _floored_log(d) if ok else None)
    return persona.kl_terms


def topic_row(user: int, personas: Mapping[int, UserPersona], train: RatingDataset) -> np.ndarray:
    """topic_similarity of user's persona to every train user's, in index order;
    NaN where undefined. Raises the ValueError topic_similarity raises on the
    first bad pair."""
    ids = train.index.user_ids
    values = np.full(len(ids), np.nan)
    p = personas.get(user)
    if p is None or not p.defined:
        return values
    pos, qs = [], []
    for i, v in enumerate(ids.tolist()):
        q = personas.get(v)
        if q is not None and q.defined:
            pos.append(i)
            qs.append(_persona_terms(q))
    p_ok, pt = _persona_terms(p)
    if qs and not (p_ok and all(ok and qt[0].shape == pt[0].shape for ok, qt in qs)):
        for v in ids.tolist():  # some pair is bad: raise topic_similarity's error for it
            topic_similarity(p, personas.get(v))
    # exp and the two dots per pair: np.exp and a matrix product change bits.
    values[pos] = [math.exp(-_kl(pt, qt)) for _, qt in qs]
    return values


def hybrid_row(user: int, personas: Mapping[int, UserPersona], train: RatingDataset) -> np.ndarray:
    """hybrid_similarity(user, v, ...).value for every train user v, in index order."""
    topic = topic_row(user, personas, train)
    llr = llr_row(user, train)
    return np.where(np.isnan(topic), llr, topic * llr)  # _combine's rule


def _combine(topic: SimilarityScore, overlap: SimilarityScore) -> SimilarityScore:
    """The hybrid rule: topic * LLR, or bare LLR when topic is undefined."""
    if not topic.defined:
        return overlap
    return SimilarityScore(topic.value * overlap.value)


def hybrid_similarity(
    u: int,
    v: int,
    personas: Mapping[int, UserPersona],
    train: RatingDataset,
) -> SimilarityScore:
    """topic_similarity * llr_similarity; falls back to LLR alone when either
    persona is undefined, so such users stay recommendable."""
    return _combine(topic_similarity(personas.get(u), personas.get(v)),
                    llr_similarity(u, v, train))


def write_similarity_audit(
    path,
    personas: Mapping[int, UserPersona],
    train: RatingDataset,
) -> None:
    """All-pairs audit dump ``user_a,user_b,topic,llr,hybrid`` (a < b). Desk-scale only."""
    users = train.users()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_a,user_b,topic,llr,hybrid\n")
        for a_pos, a in enumerate(users):
            for b in users[a_pos + 1:]:
                topic = topic_similarity(personas.get(a), personas.get(b))
                llr = llr_similarity(a, b, train)
                hyb = _combine(topic, llr)
                topic_field = f"{float(topic.value)!r}" if topic.defined else "undefined"
                fh.write(f"{a},{b},{topic_field},{float(llr.value)!r},{float(hyb.value)!r}\n")
