"""Rating-file and item-corpus ingestion, plus deterministic per-user train/test splits.

Supported rating formats:
  movielens_dat  lines ``UserID::MovieID::Rating::Timestamp`` (literal ``::``)
  csv            header-less ``user,item,rating[,timestamp]``

An item corpus is either a directory of ``<item_id>.txt`` UTF-8 files or a
single TSV with ``item_id<TAB>text`` lines.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

RATING_MIN = 1.0
RATING_MAX = 5.0

FORMATS = ("movielens_dat", "csv")


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class RatingRangeError(ValueError):
    """Rating outside the 1-5 scale."""

    def __init__(self, line_no: int, rating: float):
        super().__init__(f"line {line_no}: rating {rating} outside [1, 5]")
        self.line_no = line_no
        self.rating = rating


class ConfigurationError(ValueError):
    """Invalid parameter or degenerate configuration."""


class RatingRecord(NamedTuple):
    user_id: int
    item_id: int
    rating: float
    timestamp: int | None = None


class RatingIndex(NamedTuple):
    """Positional int32 view of a RatingDataset for the batch similarity rows.

    Users and items are numbered by their place in the ascending id arrays.
    ``user_items[user_ptr[u]:user_ptr[u + 1]]`` are user u's item positions,
    ascending; ``item_users[item_ptr[i]:item_ptr[i + 1]]`` are item i's user
    positions, ascending. The degrees are the row lengths.
    """

    user_ids: np.ndarray
    item_ids: np.ndarray
    user_ptr: np.ndarray
    user_items: np.ndarray
    item_ptr: np.ndarray
    item_users: np.ndarray
    user_degree: np.ndarray
    item_degree: np.ndarray


def _csr(rows: np.ndarray, cols: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(row pointers, columns) of the pairs (rows[k], cols[k]), stably grouped by row."""
    ptr = np.zeros(n_rows + 1, dtype=np.int32)
    ptr[1:] = np.cumsum(np.bincount(rows, minlength=n_rows))
    return ptr, cols[np.argsort(rows, kind="stable")].astype(np.int32)


class RatingDataset:
    """Immutable user-item ratings, one per (user, item): the last one given.

    ``duplicates_dropped`` counts the others. ``records`` are in (user, item)
    order; ``by_user`` maps users, ascending, to (item_id, rating) tuples in
    item order. Item-set and user-set views serve the per-pair similarity
    measures, ``index`` the batch ones.
    """

    def __init__(self, records: Iterable[RatingRecord]):
        given = list(records)
        latest = {(r.user_id, r.item_id): r for r in given}
        # (user, item) is unique here, so tuple order is (user, item) order.
        self.records = tuple(sorted(latest.values()))
        self.duplicates_dropped = len(given) - len(self.records)
        groups = groupby(self.records, attrgetter("user_id"))
        self.by_user = {u: tuple((r.item_id, r.rating) for r in g) for u, g in groups}
        item_users: dict[int, list[int]] = {}
        for r in self.records:
            item_users.setdefault(r.item_id, []).append(r.user_id)
        self.num_users = len(self.by_user)
        self.num_items = len(item_users)
        self._user_sets = {u: frozenset(i for i, _ in v) for u, v in self.by_user.items()}
        self._item_sets = {i: frozenset(item_users[i]) for i in sorted(item_users)}

    def user_items(self, user_id: int) -> frozenset[int]:
        return self._user_sets.get(user_id, frozenset())

    def item_users(self, item_id: int) -> frozenset[int]:
        return self._item_sets.get(item_id, frozenset())

    def users(self) -> list[int]:
        return list(self.by_user)

    def items(self) -> list[int]:
        return list(self._item_sets)

    def record_set(self) -> frozenset[RatingRecord]:
        return frozenset(self.records)

    @cached_property
    def index(self) -> RatingIndex:
        """The ratings as user->item and item->user CSR arrays, built on first use."""
        user_ids = np.array(self.users(), dtype=np.int64)
        item_ids = np.array(self.items(), dtype=np.int64)
        # Records run user by user, ascending: a user's position repeats its rating count.
        users = np.repeat(np.arange(len(user_ids)), [len(v) for v in self.by_user.values()])
        items = np.searchsorted(item_ids, np.fromiter(
            map(attrgetter("item_id"), self.records), np.int64, len(self.records)))
        user_ptr, user_items = _csr(users, items, len(user_ids))
        item_ptr, item_users = _csr(items, users, len(item_ids))
        return RatingIndex(user_ids, item_ids, user_ptr, user_items, item_ptr, item_users,
                           np.diff(user_ptr), np.diff(item_ptr))

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class DocumentCorpus:
    """item_id -> UTF-8 text (plot + genre description); empty texts are never stored."""

    docs: dict[int, str]
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.docs)

    def item_ids(self) -> list[int]:
        return sorted(self.docs)


@dataclass
class SplitPair:
    train: RatingDataset
    test: RatingDataset
    seed: int
    fraction: float


def _open_text(source) -> tuple[IO[str], bool]:
    """Returns (text stream, whether we own it and must close it)."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    if hasattr(source, "read"):
        if isinstance(source.read(0), bytes):
            return io.TextIOWrapper(source, encoding="utf-8"), False
        return source, False
    raise TypeError(f"unsupported source type: {type(source)!r}")


def _parse_line(line: str, fmt: str, line_no: int) -> RatingRecord:
    if fmt == "movielens_dat":
        fields = line.split("::")
        if len(fields) != 4:
            raise ParseError(line_no, f"expected 4 '::' fields, got {len(fields)}")
    else:
        fields = line.split(",")
        if len(fields) not in (3, 4):
            raise ParseError(line_no, f"expected 3 or 4 ',' fields, got {len(fields)}")
    try:
        user = int(fields[0])
        item = int(fields[1])
        rating = float(fields[2])
        ts = int(fields[3]) if len(fields) == 4 else None
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None
    if not (RATING_MIN <= rating <= RATING_MAX):
        raise RatingRangeError(line_no, rating)
    return RatingRecord(user, item, rating, ts)


def parse_ratings(source, fmt: str = "movielens_dat") -> RatingDataset:
    """Parse a rating stream into a RatingDataset.

    Duplicate (user, item) pairs keep the last occurrence;
    ``dataset.duplicates_dropped`` counts the discarded ones.
    """
    if fmt not in FORMATS:
        raise ConfigurationError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    fh, owned = _open_text(source)
    try:
        return RatingDataset(
            _parse_line(line, fmt, line_no)
            for line_no, line in enumerate(map(str.strip, fh), start=1)
            if line
        )
    finally:
        if owned:
            fh.close()


def write_ratings_csv(ds: RatingDataset, path) -> None:
    """Write header-less ``user,item,rating[,timestamp]`` rows in (user, item) order."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in ds.records:
            base = f"{rec.user_id},{rec.item_id},{float(rec.rating)!r}"
            if rec.timestamp is not None:
                base += f",{rec.timestamp}"
            fh.write(base + "\n")


def _corpus_entries(source) -> Iterator[tuple[str, str | Path]]:
    """(id text, document text or the file holding it) per directory entry or TSV line.

    A directory entry that is not a ``.txt`` file gets the id text "", which
    load_corpus skips like any other non-integer id.
    """
    if isinstance(source, (str, Path)) and Path(source).is_dir():
        for entry in sorted(Path(source).iterdir()):
            yield (entry.stem if entry.is_file() and entry.suffix == ".txt" else ""), entry
        return
    fh, owned = _open_text(source)
    try:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            head, sep, text = line.rstrip("\n").partition("\t")
            if not sep:
                raise ParseError(line_no, "expected item_id<TAB>text")
            yield head, text
    finally:
        if owned:
            fh.close()


def load_corpus(source) -> DocumentCorpus:
    """Load an item document corpus from a directory of ``<item_id>.txt`` files or a TSV.

    Directory entries that are not ``.txt`` files, non-integer ids and empty
    texts are skipped (counted in ``corpus.skipped``). Items present in ratings
    but absent here are fine; downstream code treats them as undocumented.
    """
    docs: dict[int, str] = {}
    skipped = 0
    for head, text in _corpus_entries(source):
        try:
            item_id = int(head)
        except ValueError:
            skipped += 1
            continue
        # A directory entry is read only once its stem has parsed as an id.
        text = (text.read_text(encoding="utf-8") if isinstance(text, Path) else text).strip()
        if not text:
            skipped += 1
            continue
        docs[item_id] = text
    return DocumentCorpus(docs, skipped=skipped)


def split_train_test(ds: RatingDataset, fraction: float, seed: int) -> SplitPair:
    """Per-user random split; first round(fraction * |R_u|) shuffled records go to train.

    The shuffle for each user is seeded by (seed, user_id), so the split
    depends only on the record set, not on input file order. Rounding is
    half-up, so single-rating users keep their rating in train.
    """
    if not (0.0 < fraction < 1.0):
        raise ConfigurationError(f"fraction must be in (0, 1), got {fraction}")
    train_recs: list[RatingRecord] = []
    test_recs: list[RatingRecord] = []
    for user, group in groupby(ds.records, attrgetter("user_id")):
        recs = list(group)  # in item order
        rng = np.random.default_rng([seed, user])
        order = rng.permutation(len(recs))
        n_train = math.floor(fraction * len(recs) + 0.5)
        for rank, idx in enumerate(order):
            (train_recs if rank < n_train else test_recs).append(recs[idx])
    return SplitPair(RatingDataset(train_recs), RatingDataset(test_recs), seed, fraction)


def dataset_summary(ds: RatingDataset) -> dict:
    """Users / items / max and average ratings-per-user, as in the usual dataset tables."""
    counts = [len(v) for v in ds.by_user.values()]
    return {
        "users": ds.num_users,
        "items": ds.num_items,
        "ratings": len(ds.records),
        "max_ratings_per_user": max(counts) if counts else 0,
        "avg_ratings_per_user": (len(ds.records) / ds.num_users) if ds.num_users else 0.0,
    }
