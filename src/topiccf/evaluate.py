"""Precision / recall / f-measure at K, per user, averaged across users.

A user's relevant set is their held-out test items (optionally thresholded by
rating). Users with an empty relevant set are skipped. Precision divides by
the actual returned list length, so users with short lists are still scored;
f-measure is computed per user and then averaged.
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from operator import add
from typing import Callable, Iterable, Sequence

import numpy as np

from .ingest import RatingDataset
from .recommend import RecommendationList

DEFAULT_KS = tuple(range(5, 76, 5))


@dataclass
class EvalRow:
    K: int
    precision: float
    recall: float
    f_measure: float
    users_evaluated: int


@dataclass
class EvalReport:
    algorithm: str
    rows: list[EvalRow]


def precision_recall_at_k(recs: Sequence[int], relevant: set[int]) -> tuple[float, float]:
    """(hits/|recs|, hits/|relevant|); precision is 0 for an empty list.
    Callers must skip users whose relevant set is empty."""
    if not relevant:
        raise ValueError("relevant set is empty; caller should skip this user")
    hits = sum(1 for item in recs if item in relevant)
    precision = hits / len(recs) if recs else 0.0
    recall = hits / len(relevant)
    return precision, recall


def f_measure(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate_sweep(
    recommender: Callable[[int], RecommendationList],
    train: RatingDataset,
    test: RatingDataset,
    Ks: Sequence[int] = DEFAULT_KS,
    max_K: int = 75,
    relevance_threshold: float | None = None,
    detail_sink=None,
) -> list[EvalRow]:
    """Generate max_K recommendations once per user, truncate per K, average.

    A test user's relevant set, read from the test columns by ``user_runs``,
    is their items rated at least ``relevance_threshold`` (all when None).
    ``recommender(user)`` must return the user's full list (up to max_K items).
    ``detail_sink``, when given, receives per-user csv lines
    ``user_id,K,precision,recall,f``.
    """
    Ks = sorted(Ks)
    if len(set(Ks)) != len(Ks):
        raise ValueError("duplicate K values")
    if Ks and max_K < Ks[-1]:
        raise ValueError(f"max_K={max_K} below largest K={Ks[-1]}")
    user_ids, ptr = test.user_runs
    kept = (np.ones(len(test), dtype=bool) if relevance_threshold is None
            else test.columns.rating >= relevance_threshold)
    # user k's relevant items are kept_items[bounds[k]:bounds[k + 1]]
    kept_items, bounds = test.columns.item[kept].tolist(), np.append(0, np.cumsum(kept))[ptr]
    relevant_by_user = {user: set(kept_items[start:end]) for user, start, end
                        in zip(user_ids.tolist(), bounds.tolist(), bounds[1:].tolist())
                        if end > start}

    sums = {k: (0.0, 0.0, 0.0) for k in Ks}  # precision, recall, f
    for user, relevant in relevant_by_user.items():
        items = recommender(user).item_ids()
        for k in Ks:
            p, r = precision_recall_at_k(items[:k], relevant)
            f = f_measure(p, r)
            sums[k] = tuple(map(add, sums[k], (p, r, f)))
            if detail_sink is not None:
                detail_sink.write(f"{user},{k},{p!r},{r!r},{f!r}\n")

    n = len(relevant_by_user)
    return [EvalRow(k, *(total / n if n else 0.0 for total in sums[k]), n) for k in Ks]


def emit_report(reports: EvalReport | Iterable[EvalReport], sink) -> None:
    """csv ``algorithm,K,precision,recall,f_measure,users`` at 6 decimal places,
    rows grouped by algorithm then K. Byte-identical across reruns."""
    if isinstance(reports, EvalReport):
        reports = [reports]
    own = isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__")
    with open(sink, "w", encoding="utf-8") if own else nullcontext(sink) as fh:
        fh.write("# precision_denominator=actual_list_length\n")
        fh.write("algorithm,K,precision,recall,f_measure,users\n")
        for report in reports:
            for row in report.rows:
                fh.write(
                    f"{report.algorithm},{row.K},{row.precision:.6f},"
                    f"{row.recall:.6f},{row.f_measure:.6f},{row.users_evaluated}\n"
                )
