"""User personas: each user projected into topic space as a rating-weighted mix
of the topic profiles {item_id: theta row} of the items they rated.

The mixing weight of item i for user u is r_ui / sum_j r_uj, where the sum
runs over u's rated items that actually have topic profiles, so every defined
persona is a proper distribution. Users none of whose rated items are
documented get an undefined persona. Many users' personas are one PersonaTable,
which also keeps the floored block that similarity.topic_row scores against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

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


class PersonaTable(Mapping[int, UserPersona]):
    """The personas of the ascending ``user_ids`` as a read-only Mapping, whose values,
    made once, are UserPersonas over the rows of the users x T ``block``. The table
    takes ``block`` and ``defined`` and makes them read-only, the block +0.0s where
    not defined; ``counts`` are the documented item counts, or None."""

    def __init__(self, user_ids: np.ndarray, block: np.ndarray, defined: np.ndarray, counts=None):
        block[~defined] = 0.0
        block.flags.writeable = defined.flags.writeable = False
        self.user_ids, self.block, self.defined, self.counts = user_ids, block, defined, counts
        known = [None] * len(user_ids) if counts is None else counts.tolist()
        self._personas = {u: UserPersona(u, row, n) if ok else UserPersona(u, None, 0)
                          for u, row, ok, n in zip(user_ids.tolist(), block, defined.tolist(), known)}
        self._aligned: tuple = (None,)

    @classmethod
    def gather(cls, personas: Mapping[int, UserPersona], user_ids: np.ndarray) -> PersonaTable:
        """A table of copies of the personas of the ascending ``user_ids`` in any Mapping, a
        lacking one undefined; _checked raises naming the first bad defined persona."""
        from .similarity import _checked  # similarity imports this module
        found = [personas.get(u) for u in user_ids.tolist()]
        defined = np.array([p is not None and p.defined for p in found], dtype=bool)
        kept = [p for p, ok in zip(found, defined.tolist()) if ok]
        rows = (_checked([p.distribution for p in kept], [f"persona of user {p.user_id}" for p in kept])
                if kept else np.zeros((0, 0)))
        block = np.zeros((len(found), rows.shape[1]))
        block[defined] = rows
        return cls(user_ids, block, defined)

    def __reduce__(self):
        """Pickled and copied as a new table over copies of the arrays, so the copy's
        block is read-only and its personas are views of it."""
        arrays = (self.user_ids, self.block, self.defined, self.counts)
        return type(self), tuple(None if a is None else a.copy() for a in arrays)

    def __getitem__(self, user_id: int) -> UserPersona:
        return self._personas[user_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self._personas)

    def __len__(self) -> int:
        return len(self._personas)

    @cached_property
    def topic_block(self) -> tuple[np.ndarray, np.ndarray]:
        """The defined rows, _checked, then floored and with their logs by
        similarity._floored_log as the columns of a T-major block: (q, lq)."""
        from .similarity import _checked, _floored_log  # similarity imports this module
        names = [f"persona of user {u}" for u in self.user_ids[self.defined].tolist()]
        return _floored_log(np.ascontiguousarray(_checked(self.block[self.defined], names).T))

    def aligned(self, user_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray | slice]:
        """(at, cols): where the ascending ``user_ids`` hold this table's defined personas,
        and their columns in topic_block (a slice: all); kept for the last user_ids."""
        if self._aligned[0] is not user_ids:
            mine = self.user_ids[self.defined]
            at = np.flatnonzero(np.isin(user_ids, mine))
            cols = slice(None) if len(at) == len(mine) else np.searchsorted(mine, user_ids[at])
            self._aligned = (user_ids, at, cols)
        return self._aligned[1:]


def _personas(user_ids: np.ndarray, rows: np.ndarray, items: np.ndarray, ratings: np.ndarray,
              profiles: Mapping[int, np.ndarray]) -> PersonaTable:
    """The personas of the ascending ``user_ids``: rating j is user
    ``user_ids[rows[j]]``'s rating ``ratings[j]`` of item ``items[j]``, with
    each user's ratings in the order they are added.

    A user's total is the left-to-right sum of their documented ratings, and
    their mix adds (r / total) * theta row in the same order: np.bincount and
    np.add.at add in input order, and the mix starts from -0.0, which gives
    back each first term as it is, so the bits are those of the per-user loop.
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
    return PersonaTable(user_ids, np.ascontiguousarray(acc.T), count > 0, count)


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
) -> PersonaTable:
    """One persona per train user from the ratings in item order, on train's own user_ids."""
    user_ids, ptr = train.user_runs
    rows = np.repeat(np.arange(len(user_ids)), np.diff(ptr))
    return _personas(user_ids, rows, train.columns.item, train.columns.rating, profiles)


def undefined_count(personas: Mapping[int, UserPersona]) -> int:
    return sum(1 for p in personas.values() if not p.defined)


def write_personas_csv(personas: Mapping[int, UserPersona], path) -> None:
    """Rows ``user_id,p_0,...,p_{T-1}`` of a table's block, users ascending, so
    undefined personas persist as all-zero rows; any other Mapping is gathered
    into a table first. A ``#undefined:<count>`` trailer records how many."""
    table = personas if isinstance(personas, PersonaTable) else PersonaTable.gather(
        personas, np.array(sorted(personas), dtype=np.int64))
    with open(path, "w", encoding="utf-8") as fh:
        lda.write_rows(fh, [[str(u) for u in table.user_ids.tolist()]], table.block)
        fh.write(f"#undefined:{undefined_count(table)}\n")


def load_personas_csv(path) -> PersonaTable:
    """Inverse of write_personas_csv; all-zero and empty rows come back undefined.
    documented_item_count is not persisted, so defined personas carry None and
    undefined ones 0. Any other row must sum to 1, and no user id may repeat, or it is
    a ParseError naming its line."""
    by_id = lda.read_topic_rows(path, zero_ok=True)
    return PersonaTable.gather({u: UserPersona(u, row if row.any() else None)
                                for u, row in by_id.items()}, np.array(sorted(by_id), dtype=np.int64))
