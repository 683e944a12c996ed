"""Rating-file and item-corpus ingestion, plus deterministic per-user train/test splits.

Supported rating formats:
  movielens_dat  lines ``UserID::MovieID::Rating::Timestamp`` (literal ``::``)
  csv            header-less ``user,item,rating[,timestamp]``

Parsing, de-duplication, the split and the csv writer work on numpy columns
(RatingColumns); a file numpy refuses goes to the line parser, which names
the bad line or accepts what only it accepts.

An item corpus is either a directory of ``<item_id>.txt`` UTF-8 files or a
single TSV with ``item_id<TAB>text`` lines.
"""
from __future__ import annotations

import io
import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
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


class RatingColumns(NamedTuple):
    """Ratings as parallel columns, one rating per row.

    Ids and timestamps are int64, ratings float64; ``has_timestamp`` marks the
    rows that have a timestamp (the others hold 0).
    """

    user: np.ndarray
    item: np.ndarray
    rating: np.ndarray
    timestamp: np.ndarray
    has_timestamp: np.ndarray

    def take(self, rows) -> RatingColumns:
        """The rows selected by ``rows`` (a mask or positions), in that order."""
        return RatingColumns(*(column[rows] for column in self))


_DTYPES = (np.int64, np.int64, np.float64, np.int64, np.bool_)
_INT64 = np.iinfo(np.int64)


def _columns_of(records: Iterable[RatingRecord]) -> tuple[list, ...]:
    """The records' fields as lists, in RatingColumns order."""
    rows = list(records)
    stamps = [r.timestamp for r in rows]
    return ([r.user_id for r in rows], [r.item_id for r in rows], [r.rating for r in rows],
            [0 if t is None else t for t in stamps], [t is not None for t in stamps])


def _keep_last(cols: RatingColumns) -> RatingColumns:
    """One row per (user, item), the last one given, in (user, item) order."""
    u, i = cols.user, cols.item
    if np.all((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (i[1:] > i[:-1]))):
        return cols  # already in order without repeats: a written csv, a split half
    order = np.lexsort((i, u))  # stable, so each (user, item) run keeps input order
    u, i = u[order], i[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (u[1:] != u[:-1]) | (i[1:] != i[:-1])
    return cols.take(order[last])


class RatingIndex(NamedTuple):
    """Positional int32 view of a RatingDataset for the batch similarity rows.

    Users and items are numbered by their place in the ascending id arrays.
    ``user_items[user_ptr[u]:user_ptr[u + 1]]`` are user u's item positions,
    ascending; ``item_users[item_ptr[i]:item_ptr[i + 1]]`` are item i's user
    positions, ascending. The degrees are the row lengths. ``user_items`` runs
    in dataset row order, so the dataset's ``columns.rating`` lines up with it.
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


def csr_row(ptr: np.ndarray, ids: np.ndarray, id_: int) -> slice:
    """The slice of a CSR column array holding the row of the entity with id
    ``id_``; empty when it is not in ``ids``."""
    pos = int(np.searchsorted(ids, id_))
    if pos == len(ids) or ids[pos] != id_:
        return slice(0, 0)
    return slice(int(ptr[pos]), int(ptr[pos + 1]))


def csr_entries(ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The positions in a CSR column array of the given rows' entries, row after row."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    return np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


class RatingDataset:
    """Immutable user-item ratings, one per (user, item): the last one given.

    The ratings are held as ``columns`` in (user, item) order;
    ``duplicates_dropped`` counts the ratings that a later rating of the same
    pair replaced. Everything else is derived from the columns on first use and kept:
    ``records``, ``by_user`` (users ascending, to (item_id, rating) tuples in
    item order) and the item-set and user-set views serve the per-pair
    similarity measures and the tests, ``index`` the batch ones.
    """

    def __init__(self, ratings: Iterable[RatingRecord] | RatingColumns = ()):
        given = ratings if isinstance(ratings, RatingColumns) else _columns_of(ratings)
        given = RatingColumns(*(np.array(c, dtype=d) for c, d in zip(given, _DTYPES)))
        if len({len(c) for c in given}) != 1:
            raise ValueError("rating columns differ in length")
        self.columns = _keep_last(given)
        for column in self.columns:
            column.flags.writeable = False
        self.duplicates_dropped = len(given.user) - len(self.columns.user)

    @cached_property
    def _user_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """(ascending user ids, row pointers): user k's ratings are rows ptr[k]:ptr[k + 1]."""
        u = self.columns.user
        first = np.ones(len(u), dtype=bool)
        first[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(first)
        return u[starts], np.append(starts, len(u))

    @cached_property
    def _item_ids(self) -> np.ndarray:
        return np.unique(self.columns.item)

    @cached_property
    def _per_user(self) -> tuple[dict, dict]:
        """by_user and each user's item set, built together on first use of either,
        so building personas from by_user also readies the sets that Pearson and
        the per-pair similarity functions read."""
        user_ids, ptr = self._user_runs
        items = self.columns.item.tolist()
        pairs = list(zip(items, self.columns.rating.tolist()))
        by_user, item_sets = {}, {}
        for u, start, end in zip(user_ids.tolist(), ptr.tolist(), ptr[1:].tolist()):
            by_user[u] = tuple(pairs[start:end])
            item_sets[u] = frozenset(items[start:end])
        return by_user, item_sets

    @cached_property
    def _raters(self) -> dict[int, frozenset[int]]:
        ix = self.index
        users = ix.user_ids[ix.item_users].tolist()
        ptr = ix.item_ptr.tolist()
        return {i: frozenset(users[s:e]) for i, s, e in zip(ix.item_ids.tolist(), ptr, ptr[1:])}

    @cached_property
    def by_user(self) -> dict[int, tuple[tuple[int, float], ...]]:
        return self._per_user[0]

    @cached_property
    def _items_of(self) -> dict[int, frozenset[int]]:
        return self._per_user[1]

    @cached_property
    def records(self) -> tuple[RatingRecord, ...]:
        c = self.columns
        stamps = [t if has else None
                  for t, has in zip(c.timestamp.tolist(), c.has_timestamp.tolist())]
        return tuple(map(RatingRecord, c.user.tolist(), c.item.tolist(), c.rating.tolist(),
                         stamps))

    @cached_property
    def num_users(self) -> int:
        return len(self._user_runs[0])

    @cached_property
    def num_items(self) -> int:
        return len(self._item_ids)

    def user_items(self, user_id: int) -> frozenset[int]:
        return self._items_of.get(user_id, frozenset())

    def item_users(self, item_id: int) -> frozenset[int]:
        return self._raters.get(item_id, frozenset())

    def users(self) -> list[int]:
        return self._user_runs[0].tolist()

    def items(self) -> list[int]:
        return self._item_ids.tolist()

    def record_set(self) -> frozenset[RatingRecord]:
        return frozenset(self.records)

    @cached_property
    def index(self) -> RatingIndex:
        """The ratings as user->item and item->user CSR arrays, built on first use."""
        user_ids, rows = self._user_runs
        item_ids = self._item_ids
        items = np.searchsorted(item_ids, self.columns.item)
        users = np.repeat(np.arange(len(user_ids)), np.diff(rows))
        user_ptr = rows.astype(np.int32)
        item_ptr, item_users = _csr(items, users, len(item_ids))
        return RatingIndex(user_ids, item_ids, user_ptr, items.astype(np.int32), item_ptr,
                           item_users, np.diff(user_ptr), np.diff(item_ptr))

    def __len__(self) -> int:
        return len(self.columns.user)


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
    for value in (user, item, ts or 0):
        if not _INT64.min <= value <= _INT64.max:
            raise ParseError(line_no, f"{value} does not fit in a 64-bit integer")
    if not (RATING_MIN <= rating <= RATING_MAX):
        raise RatingRangeError(line_no, rating)
    return RatingRecord(user, item, rating, ts)


def _parse_lines(text: str, fmt: str) -> RatingDataset:
    """Parse line by line: the reference parser, and the one that names a bad line."""
    return RatingDataset(
        _parse_line(line, fmt, line_no)
        for line_no, line in enumerate(map(str.strip, io.StringIO(text)), start=1)
        if line
    )


_FIELDS = [("user", np.int64), ("item", np.int64), ("rating", np.float64),
           ("timestamp", np.int64)]


def _parse_columns(text: str, fmt: str) -> RatingColumns | None:
    """Parse with one np.loadtxt; None where only _parse_lines can decide.

    It accepts a subset of what _parse_lines accepts, with the same values:
    numpy rejects float text in an int column, ``1_000``, whitespace-only lines
    and a carriage return inside a line, and a ``::`` file with a comma in it
    is left to the line parser.
    """
    if fmt == "movielens_dat":
        if "," in text:
            return None
        text = text.replace("::", ",")
        width = 4
    else:
        width = re.match(r"\s*([^\n]*)", text).group(1).count(",") + 1  # of the first row
    if width not in (3, 4):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.x warns where 2.x raises
            rows = np.loadtxt(io.StringIO(text), dtype=_FIELDS[:width], delimiter=",",
                              comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    rating = rows["rating"]
    if not np.all((rating >= RATING_MIN) & (rating <= RATING_MAX)):  # NaN fails too
        return None
    stamped = width == 4
    return RatingColumns(rows["user"], rows["item"], rating,
                         rows["timestamp"] if stamped else np.zeros(len(rows), np.int64),
                         np.full(len(rows), stamped))


def parse_ratings(source, fmt: str = "movielens_dat") -> RatingDataset:
    """Parse a rating stream (path, or text or bytes stream) into a RatingDataset.

    Duplicate (user, item) pairs keep the last occurrence;
    ``dataset.duplicates_dropped`` counts the discarded ones. Ids and
    timestamps must fit in a 64-bit integer.
    """
    if fmt not in FORMATS:
        raise ConfigurationError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    fh, owned = _open_text(source)
    try:
        text = fh.read()
    finally:
        if owned:
            fh.close()
    columns = _parse_columns(text, fmt)
    return _parse_lines(text, fmt) if columns is None else RatingDataset(columns)


def _ascii_ints(values: np.ndarray) -> np.ndarray:
    """Each int64 value's decimal text as a row of ASCII bytes, NUL-padded on the left."""
    rest = np.abs(values).astype(np.uint64)  # abs(int64 min) wraps; as uint64 it is right
    width = len(str(int(rest.max()))) if len(rest) else 1
    cells = np.zeros((len(values), width + 1), dtype=np.uint8)
    cells[:, 0] = np.where(values < 0, ord("-"), 0)
    for k in range(width, 0, -1):
        cells[:, k] = np.where((rest > 0) | (k == width), rest % 10 + ord("0"), 0)
        rest //= 10
    return cells


def _ascii_reprs(values: np.ndarray) -> np.ndarray:
    """Each float's repr as a row of ASCII bytes, NUL-padded on the right."""
    distinct, inverse = np.unique(values, return_inverse=True)
    text = np.array([repr(v).encode() for v in distinct.tolist()], dtype=bytes)
    return text[inverse].reshape(-1, 1).view(np.uint8)


def write_ratings_csv(ds: RatingDataset, path) -> None:
    """Write header-less ``user,item,rating[,timestamp]`` rows in (user, item) order.

    The rows are assembled as one byte matrix, a column per character
    position, whose NUL padding is then dropped.
    """
    c = ds.columns
    comma = np.full((len(ds), 1), ord(","), dtype=np.uint8)
    stamp = np.hstack([comma, _ascii_ints(c.timestamp)])
    stamp[~c.has_timestamp] = 0
    newline = np.full((len(ds), 1), ord("\n"), dtype=np.uint8)
    cells = np.hstack([_ascii_ints(c.user), comma, _ascii_ints(c.item), comma,
                       _ascii_reprs(c.rating), stamp, newline])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cells[cells != 0].tobytes().decode("ascii"))


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
    """Per-user random split; first round(fraction * |R_u|) shuffled ratings go to train.

    The shuffle of each user's ratings (in item order) is seeded by
    (seed, user_id), so the split depends only on the rating set, not on input
    file order. Rounding is half-up, so single-rating users keep their rating
    in train.
    """
    if not (0.0 < fraction < 1.0):
        raise ConfigurationError(f"fraction must be in (0, 1), got {fraction}")
    user_ids, ptr = ds._user_runs
    train = np.zeros(len(ds), dtype=bool)
    for user, start, end in zip(user_ids.tolist(), ptr.tolist(), ptr[1:].tolist()):
        order = np.random.default_rng([seed, user]).permutation(end - start)
        train[start + order[:math.floor(fraction * (end - start) + 0.5)]] = True
    return SplitPair(RatingDataset(ds.columns.take(train)),
                     RatingDataset(ds.columns.take(~train)), seed, fraction)


def dataset_summary(ds: RatingDataset) -> dict:
    """Users / items / max and average ratings-per-user, as in the usual dataset tables."""
    counts = np.diff(ds._user_runs[1])
    return {
        "users": ds.num_users,
        "items": ds.num_items,
        "ratings": len(ds),
        "max_ratings_per_user": int(counts.max()) if len(counts) else 0,
        "avg_ratings_per_user": (len(ds) / ds.num_users) if ds.num_users else 0.0,
    }
