"""User personas: each user projected into topic space as a rating-weighted mix
of the topic profiles {item_id: theta row} of the items they rated.

The mixing weight of item i for user u is r_ui / sum_j r_uj, where the sum
runs over u's rated items that actually have topic profiles, so every defined
persona is a proper distribution. Users none of whose rated items are
documented get an undefined persona.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from . import lda
from .ingest import RatingDataset


@dataclass(frozen=True)
class UserPersona:
    user_id: int
    distribution: np.ndarray | None          # None when undefined
    documented_item_count: int | None = None  # None when unknown (e.g. loaded from csv)

    @property
    def defined(self) -> bool:
        return self.distribution is not None


def _personas(user_ids: np.ndarray, rows: np.ndarray, items: np.ndarray, ratings: np.ndarray,
              profiles: Mapping[int, np.ndarray]) -> Mapping[int, UserPersona]:
    """The persona of each of the ascending ``user_ids``: rating j is user
    ``user_ids[rows[j]]``'s rating ``ratings[j]`` of item ``items[j]``, with
    each user's ratings in the order they are added.

    A user's total is the left-to-right sum of their documented ratings, and
    their mix adds (r / total) * theta row in the same order: np.bincount and
    np.add.at add in input order, and the mix starts from -0.0, which gives
    back each first term as it is, so the bits are those of the per-user loop.
    The map is read-only, its distributions rows of one read-only (users x T) block.
    """
    profiled = np.array(sorted(profiles), dtype=np.int64)
    block = (np.array([profiles[i] for i in profiled.tolist()], dtype=float)
             if profiles else np.zeros((0, 0)))
    pos = np.searchsorted(profiled, items)
    documented = pos < len(profiled)
    documented[documented] = profiled[pos[documented]] == items[documented]
    rows, pos, ratings = rows[documented], pos[documented], ratings[documented]
    count = np.bincount(rows, minlength=len(user_ids))
    weight = ratings / np.bincount(rows, ratings, minlength=len(user_ids))[rows]
    acc = np.full((block.shape[1], len(user_ids)), -0.0)
    for acc_t, topic in zip(acc, block.T):
        np.add.at(acc_t, rows, weight * topic[pos])
    mix = np.ascontiguousarray(acc.T)
    mix.flags.writeable = False
    return MappingProxyType({u: UserPersona(u, mix[j] if n else None, documented_item_count=n)
                             for j, (u, n) in enumerate(zip(user_ids.tolist(), count.tolist()))})


def build_persona(
    user_id: int,
    ratings: Iterable[tuple[int, float]],
    profiles: Mapping[int, np.ndarray],
) -> UserPersona:
    """Weighted sum of profiled items' topic rows; weights are ratings normalized
    over the documented items only, by their left-to-right sum in the given order.
    The one-user case of build_all_personas."""
    pairs = list(ratings)
    return _personas(np.array([user_id]), np.zeros(len(pairs), dtype=np.int64),
                     np.array([i for i, _ in pairs], dtype=np.int64),
                     np.array([r for _, r in pairs], dtype=float), profiles)[user_id]


def build_all_personas(
    train: RatingDataset,
    profiles: Mapping[int, np.ndarray],
) -> Mapping[int, UserPersona]:
    """One persona per train user, keyed by user_id, from the ratings in item order."""
    user_ids, ptr = train.user_runs
    rows = np.repeat(np.arange(len(user_ids)), np.diff(ptr))
    return _personas(user_ids, rows, train.columns.item, train.columns.rating, profiles)


def undefined_count(personas: Mapping[int, UserPersona]) -> int:
    return sum(1 for p in personas.values() if not p.defined)


def write_personas_csv(personas: Mapping[int, UserPersona], path) -> None:
    """Rows ``user_id,p_0,...,p_{T-1}``; undefined personas persist as all-zero rows.
    A ``#undefined:<count>`` trailer records how many."""
    dims = {len(p.distribution) for p in personas.values() if p.defined}
    zeros = np.zeros(dims.pop() if dims else 0)
    users = sorted(personas)
    values = [personas[u].distribution if personas[u].defined else zeros for u in users]
    with open(path, "w", encoding="utf-8") as fh:
        lda.write_rows(fh, [[str(u) for u in users]],
                       np.array(values, dtype=float).reshape(len(users), len(zeros)))
        fh.write(f"#undefined:{undefined_count(personas)}\n")


def load_personas_csv(path) -> Mapping[int, UserPersona]:
    """Inverse of write_personas_csv; all-zero and empty rows come back undefined.
    documented_item_count is not persisted, so defined personas carry None and
    undefined ones 0. Any other row must sum to 1, and no user id may repeat, or it is
    a ParseError naming its line."""
    return MappingProxyType({u: UserPersona(u, dist) if dist.any() else UserPersona(u, None, 0)
                             for u, dist in lda.read_topic_rows(path, zero_ok=True).items()})
