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
from pathlib import Path
from typing import IO, Iterable

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


@dataclass(frozen=True)
class RatingRecord:
    user_id: int
    item_id: int
    rating: float
    timestamp: int | None = None


class RatingDataset:
    """Immutable user-item ratings with a per-user index.

    ``by_user`` holds (item_id, rating) tuples; item-set and user-set views
    are pre-built for similarity computations.
    """

    def __init__(self, records: Iterable[RatingRecord], duplicates_dropped: int = 0):
        recs = tuple(records)
        by_user: dict[int, list[tuple[int, float]]] = {}
        item_users: dict[int, list[int]] = {}
        for r in recs:
            by_user.setdefault(r.user_id, []).append((r.item_id, r.rating))
            item_users.setdefault(r.item_id, []).append(r.user_id)
        self.records = recs
        self.by_user = {u: tuple(v) for u, v in by_user.items()}
        self.num_users = len(self.by_user)
        self.num_items = len(item_users)
        self.duplicates_dropped = duplicates_dropped
        self._user_sets = {u: frozenset(i for i, _ in v) for u, v in self.by_user.items()}
        self._item_sets = {i: frozenset(v) for i, v in item_users.items()}

    def user_items(self, user_id: int) -> frozenset[int]:
        return self._user_sets.get(user_id, frozenset())

    def item_users(self, item_id: int) -> frozenset[int]:
        return self._item_sets.get(item_id, frozenset())

    def users(self) -> list[int]:
        return sorted(self.by_user)

    def items(self) -> list[int]:
        return sorted(self._item_sets)

    def record_set(self) -> frozenset[RatingRecord]:
        return frozenset(self.records)

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
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8")), True
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
    seen: dict[tuple[int, int], RatingRecord] = {}
    duplicates = 0
    fh, owned = _open_text(source)
    try:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            rec = _parse_line(line, fmt, line_no)
            key = (rec.user_id, rec.item_id)
            if key in seen:
                duplicates += 1
            seen[key] = rec
    finally:
        if owned:
            fh.close()
    return RatingDataset(seen.values(), duplicates_dropped=duplicates)


def write_ratings_csv(ds: RatingDataset, path) -> None:
    """Write header-less ``user,item,rating[,timestamp]`` rows sorted by (user, item)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in sorted(ds.records, key=lambda r: (r.user_id, r.item_id)):
            base = f"{rec.user_id},{rec.item_id},{float(rec.rating)!r}"
            if rec.timestamp is not None:
                base += f",{rec.timestamp}"
            fh.write(base + "\n")


def load_corpus(source) -> DocumentCorpus:
    """Load an item document corpus from a directory of ``<item_id>.txt`` files or a TSV.

    Non-integer filename stems and empty texts are skipped (counted in
    ``corpus.skipped``). Items present in ratings but absent here are fine;
    downstream code treats them as undocumented.
    """
    docs: dict[int, str] = {}
    skipped = 0
    if isinstance(source, (str, Path)) and Path(source).is_dir():
        for entry in sorted(Path(source).iterdir()):
            if not entry.is_file() or entry.suffix != ".txt":
                skipped += 1
                continue
            try:
                item_id = int(entry.stem)
            except ValueError:
                skipped += 1
                continue
            text = entry.read_text(encoding="utf-8").strip()
            if not text:
                skipped += 1
                continue
            docs[item_id] = text
    else:
        fh, owned = _open_text(source)
        try:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line.strip():
                    continue
                head, sep, text = line.partition("\t")
                if not sep:
                    raise ParseError(line_no, "expected item_id<TAB>text")
                try:
                    item_id = int(head)
                except ValueError:
                    skipped += 1
                    continue
                text = text.strip()
                if not text:
                    skipped += 1
                    continue
                docs[item_id] = text
        finally:
            if owned:
                fh.close()
    return DocumentCorpus(docs, skipped=skipped)


def split_train_test(ds: RatingDataset, fraction: float, seed: int) -> SplitPair:
    """Per-user random split; first round(fraction * |R_u|) shuffled records go to train.

    The shuffle for each user is seeded by (seed, user_id), so the split
    depends only on the record set, not on input file order. Rounding is
    half-up, so single-rating users keep their rating in train.
    """
    if not (0.0 < fraction < 1.0):
        raise ConfigurationError(f"fraction must be in (0, 1), got {fraction}")
    by_user: dict[int, list[RatingRecord]] = {}
    for r in ds.records:
        by_user.setdefault(r.user_id, []).append(r)
    train_recs: list[RatingRecord] = []
    test_recs: list[RatingRecord] = []
    for user in sorted(by_user):
        recs = sorted(by_user[user], key=lambda r: r.item_id)
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
