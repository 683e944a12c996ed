"""User-user and item-item similarity measures.

Latent-topic similarity maps symmetric KL divergence between personas to
(0, 1] via exp(-KL). Rating-overlap similarity is either Pearson correlation
over co-rated items or a log-likelihood-ratio score on the 2x2 preference
contingency table, mapped to [0, 1) by 1 - 1/(1 + G2). The hybrid score is
the product of the topic term and the LLR term.
"""
from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from .ingest import RatingDataset
from .persona import UserPersona

KL_FLOOR = 1e-10
SUM_TOLERANCE = 1e-6


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
        if abs(d.sum() - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"{name} does not sum to 1 (got {d.sum()!r})")
    pf = np.maximum(p, KL_FLOOR)
    pf = pf / pf.sum()
    qf = np.maximum(q, KL_FLOOR)
    qf = qf / qf.sum()
    diff = np.log(pf) - np.log(qf)
    return float(np.dot(pf, diff) - np.dot(qf, diff))


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
