"""Top-K recommendation: the hybrid neighborhood algorithm, its topic-only
variant, and user-based / item-based CF baselines.

Neighborhood recommenders rank candidate items by total_weight: the fraction
of the neighborhood that liked the item. Baselines rank by a similarity-
weighted average of neighbor (or own) ratings. Every top-N neighborhood and
every top-K list is picked by ``_top`` from a score array over the train
users or items (NaN: not scored): highest score first, ties by ascending id,
so every run is reproducible.

Hybrid, topic-only, LLR user-based and item-based CF score a user against
everyone at once through similarity's batch rows, which equal the per-pair
functions bit for bit; Pearson user-based CF scores one pair at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .ingest import RatingDataset, csr_entries, csr_row
from .persona import UserPersona
from .similarity import (  # the per-pair functions stay importable from here
    UNDEFINED,
    SimilarityScore,
    hybrid_row,
    hybrid_similarity,
    item_llr_col,
    item_llr_similarity,
    llr_row,
    llr_similarity,
    pearson_similarity,
    topic_row,
    topic_similarity,
)

SimilarityFn = Callable[[int, int], SimilarityScore]

USER_SIMILARITIES = ("pearson", "llr")


@dataclass
class NeighborSet:
    user_id: int
    neighbors: tuple[tuple[int, float], ...]  # (user_id, similarity), similarity desc


class Recommendation(NamedTuple):
    item_id: int
    score: float


@dataclass
class RecommendationList:
    user_id: int
    items: tuple[Recommendation, ...]

    def item_ids(self) -> list[int]:
        return [r.item_id for r in self.items]


def _top(ids: np.ndarray, scores: np.ndarray, keep: np.ndarray, n: int) -> list[tuple[int, float]]:
    """The n best (id, score) pairs that ``keep`` selects, ordered by (-score, id)."""
    ids, scores = ids[keep], scores[keep]
    if len(scores) > n:  # only scores at or above the n-th best can be picked
        keep = scores >= np.partition(scores, -n)[-n]
        ids, scores = ids[keep], scores[keep]
    return sorted(zip(ids.tolist(), scores.tolist()), key=lambda pair: (-pair[1], pair[0]))[:n]


def _ranked(user: int, scores: np.ndarray, train: RatingDataset, K: int) -> RecommendationList:
    """The top K of a score array over every train item, in index order (NaN:
    not scored), leaving out the user's own train items."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    ix = train.index
    keep = ~np.isnan(scores)
    keep[ix.user_items[csr_row(ix.user_ptr, ix.user_ids, user)]] = False
    best = _top(ix.item_ids, scores, keep, K)
    return RecommendationList(user, tuple(Recommendation(item, s) for item, s in best))


def build_neighborhood(user: int, sim: SimilarityFn, train: RatingDataset, N: int) -> NeighborSet:
    """Top-N other train users by sim; undefined or non-positive scores are
    excluded even if that leaves fewer than N."""
    scores = [UNDEFINED if other == user else sim(user, other) for other in train.users()]
    row = np.array([s.value if s.defined else np.nan for s in scores], dtype=float)
    return _row_neighborhood(user, row, train, N)


def _row_neighborhood(user: int, row: np.ndarray, train: RatingDataset, N: int) -> NeighborSet:
    """The top N of a similarity row over every train user, in index order
    (NaN: undefined), leaving out the user, undefined scores and scores <= 0,
    even if that leaves fewer than N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    ids = train.index.user_ids
    keep = (row > 0.0) & (ids != user)  # NaN > 0.0 is False
    return NeighborSet(user, tuple(_top(ids, row, keep, N)))


def recommend_neighborhood(
    user: int,
    neighbors: NeighborSet,
    train: RatingDataset,
    K: int,
    like_threshold: float = 1.0,
) -> RecommendationList:
    """Rank every item some neighbor liked (rating >= like_threshold) by the
    fraction of the neighborhood that liked it, drop the user's own train
    items, return the top K.

    The denominator is the actual neighbor count, which may be below the
    nominal N for sparse users. Candidates nobody liked are not ranked.
    """
    ix = train.index
    ids = np.array([v for v, _ in neighbors.neighbors], dtype=np.int64)
    rated = csr_entries(ix.user_ptr, np.searchsorted(ix.user_ids, ids[np.isin(ids, ix.user_ids)]))
    liked = rated[train.columns.rating[rated] >= like_threshold]
    counts = np.bincount(ix.user_items[liked], minlength=len(ix.item_ids))
    # counts / neighbor count: both exact as floats, so as exact as Python's int / int
    return _ranked(user, counts / np.where(counts > 0, len(neighbors.neighbors), np.nan), train, K)


def recommend_user_based(
    user: int,
    train: RatingDataset,
    sim: str = "llr",
    N: int = 30,
    K: int = 75,
) -> RecommendationList:
    """Standard user-based CF: rating-overlap neighborhood, then predicted
    rating sum(sim * r) / sum(|sim|) over neighbors who rated the candidate.
    np.add.at adds the terms one by one in neighbor order, as a loop would."""
    if sim not in USER_SIMILARITIES:
        raise ValueError(f"unknown similarity {sim!r}; expected one of {USER_SIMILARITIES}")
    if sim == "pearson":
        neighbors = build_neighborhood(
            user, lambda a, b: pearson_similarity(a, b, train), train, N)
    else:
        neighbors = _row_neighborhood(user, llr_row(user, train), train, N)
    ix = train.index
    rows = np.searchsorted(ix.user_ids, [v for v, _ in neighbors.neighbors])
    rated = csr_entries(ix.user_ptr, rows)
    sims = np.repeat([s for _, s in neighbors.neighbors], ix.user_degree[rows])
    num = np.zeros(len(ix.item_ids))
    den = np.zeros(len(ix.item_ids))
    np.add.at(num, ix.user_items[rated], sims * train.columns.rating[rated])
    np.add.at(den, ix.user_items[rated], np.abs(sims))
    return _ranked(user, num / np.where(den > 0.0, den, np.nan), train, K)


def recommend_item_based(user: int, train: RatingDataset, K: int = 75) -> RecommendationList:
    """Standard item-based CF: predicted rating for an unseen item is the
    item-LLR-weighted average of the user's own ratings; zero-similarity terms
    are skipped.

    Every candidate's sums grow together, one rated item at a time in stored
    order; a skipped term adds +0.0, which leaves each sum's bits unchanged.
    """
    ix = train.index
    own = csr_row(ix.user_ptr, ix.user_ids, user)
    num = np.zeros(len(ix.item_ids))
    den = np.zeros(len(ix.item_ids))
    for j, rating in zip(ix.item_ids[ix.user_items[own]].tolist(),
                         train.columns.rating[own].tolist()):
        s = item_llr_col(j, train)
        s = np.where(s > 0.0, s, 0.0)
        num = num + s * rating
        den = den + s
    return _ranked(user, num / np.where(den > 0.0, den, np.nan), train, K)


def recommend_hybrid(
    user: int,
    personas: Mapping[int, UserPersona],
    train: RatingDataset,
    N: int = 30,
    K: int = 75,
    like_threshold: float = 1.0,
) -> RecommendationList:
    """Neighborhood by topic x rating-overlap similarity, then total_weight ranking."""
    neighbors = _row_neighborhood(user, hybrid_row(user, personas, train), train, N)
    return recommend_neighborhood(user, neighbors, train, K, like_threshold)


def recommend_topic_only(
    user: int,
    personas: Mapping[int, UserPersona],
    train: RatingDataset,
    N: int = 30,
    K: int = 75,
    like_threshold: float = 1.0,
) -> RecommendationList:
    """Neighborhood by latent-topic similarity alone, then total_weight ranking."""
    neighbors = _row_neighborhood(user, topic_row(user, personas, train), train, N)
    return recommend_neighborhood(user, neighbors, train, K, like_threshold)


def write_recommendations_csv(lists: Mapping[int, RecommendationList], path) -> None:
    """Rows ``user_id,rank,item_id,score``, users ascending, rank starting at 1."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,rank,item_id,score\n")
        for user in sorted(lists):
            for rank, rec in enumerate(lists[user].items, start=1):
                fh.write(f"{user},{rank},{rec.item_id},{float(rec.score)!r}\n")
