"""User personas: each user projected into topic space as a rating-weighted mix
of the topic profiles of the items they rated.

The mixing weight of item i for user u is r_ui / sum_j r_uj, where the sum
runs over u's rated items that actually have topic profiles, so every defined
persona is a proper distribution. Users none of whose rated items are
documented get an undefined persona.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import lda
from .ingest import RatingDataset
from .lda import ItemTopicProfile


@dataclass
class UserPersona:
    user_id: int
    distribution: np.ndarray | None          # None when undefined
    documented_item_count: int | None = None  # None when unknown (e.g. loaded from csv)
    # similarity's (sums to 1, (floored distribution, its log) if so), filled on first use
    kl_terms: tuple[bool, tuple[np.ndarray, np.ndarray] | None] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def defined(self) -> bool:
        return self.distribution is not None


def build_persona(
    user_id: int,
    ratings: Iterable[tuple[int, float]],
    profiles: Mapping[int, ItemTopicProfile],
) -> UserPersona:
    """Weighted sum of profiled items' topic rows; weights are ratings normalized
    over the documented items only, by their left-to-right sum in the given order."""
    documented = [(i, r) for i, r in ratings if i in profiles]
    if not documented:
        return UserPersona(user_id, None, documented_item_count=0)
    total = 0.0
    for _, r in documented:  # left to right: Python 3.12's sum() is compensated
        total += r
    dist = None
    for item, r in documented:
        contrib = (r / total) * profiles[item].distribution
        dist = contrib if dist is None else dist + contrib
    return UserPersona(user_id, dist, documented_item_count=len(documented))


def build_all_personas(
    train: RatingDataset,
    profiles: Mapping[int, ItemTopicProfile],
) -> dict[int, UserPersona]:
    """One persona per train user, keyed by user_id."""
    return {
        u: build_persona(u, train.by_user[u], profiles)
        for u in train.users()
    }


def undefined_count(personas: Mapping[int, UserPersona]) -> int:
    return sum(1 for p in personas.values() if not p.defined)


def write_personas_csv(personas: Mapping[int, UserPersona], path) -> None:
    """Rows ``user_id,p_0,...,p_{T-1}``; undefined personas persist as all-zero rows.
    A ``#undefined:<count>`` trailer records how many."""
    dims = {len(p.distribution) for p in personas.values() if p.defined}
    zeros = np.zeros(dims.pop() if dims else 0)
    lda.write_topic_rows(
        ((u, personas[u].distribution if personas[u].defined else zeros) for u in sorted(personas)),
        path, trailer=f"#undefined:{undefined_count(personas)}\n",
    )


def load_personas_csv(path) -> dict[int, UserPersona]:
    """Inverse of write_personas_csv; all-zero and empty rows come back undefined.
    documented_item_count is not persisted, so loaded personas carry None.
    Any other row must sum to 1, or it is a ParseError naming its line."""
    return {u: UserPersona(u, dist) if dist.any() else UserPersona(u, None, documented_item_count=0)
            for _, u, dist in lda.read_topic_rows(path, zero_ok=True)}
