"""Rating-file and item-corpus ingestion, plus deterministic per-user train/test splits.

Supported rating formats:
  movielens_dat  lines ``UserID::MovieID::Rating::Timestamp`` (literal ``::``)
  csv            header-less ``user,item,rating[,timestamp]``

Parsing, de-duplication, the split and the csv writer work on numpy columns
(RatingColumns); a file numpy refuses goes to the line parser, which names
the bad line or accepts what only it accepts. The csv rows are written by
_kernels.c's topiccf_write_ratings loop (lda.load_kernels), or without a
compiler by its twin, which formats them row by row.

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
from typing import Iterable, Iterator, NamedTuple

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
    order = _stable_order(i, u)  # stable, so each (user, item) run keeps input order
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
    in dataset row order, so the dataset's ``columns.rating`` lines up with it;
    ``item_ratings`` is that column reordered to line up with ``item_users``.
    """

    user_ids: np.ndarray
    item_ids: np.ndarray
    user_ptr: np.ndarray
    user_items: np.ndarray
    item_ptr: np.ndarray
    item_users: np.ndarray
    item_ratings: np.ndarray
    user_degree: np.ndarray
    item_degree: np.ndarray


def position(ids: np.ndarray, id_: int) -> int | None:
    """The position of ``id_`` in the ascending ``ids``; None when it is not there."""
    pos = int(np.searchsorted(ids, id_))
    return pos if pos < len(ids) and ids[pos] == id_ else None


def csr_row(ptr: np.ndarray, ids: np.ndarray, id_: int) -> slice:
    """The slice of a CSR column array holding the row of the entity with id
    ``id_``; empty when it is not in ``ids``."""
    pos = position(ids, id_)
    return slice(0, 0) if pos is None else slice(int(ptr[pos]), int(ptr[pos + 1]))


def csr_entries(ptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The positions in a CSR column array of the given rows' entries, row after row."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    return np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


def _stable_order(*keys: np.ndarray) -> np.ndarray:
    """np.lexsort(keys) of int64 keys of one length, given least significant first, by a
    least-significant-digit radix sort: per key, one stable argsort of a uint16 digit
    of ``key - key.min()`` (as uint64) per 16 bits of its span, which numpy sorts by
    counting. A stable order is unique, so it is lexsort's (argsort's for one key); at
    ML-1M shape one pass takes about a quarter of a stable argsort's time."""
    if len(keys[0]) == 0:
        return np.argsort(keys[0], kind="stable")
    order = None
    for ids in keys:
        key = (ids - ids.min()).view(np.uint64)  # wraps into the true span, < 2**64
        for shift in range(0, max(int(key.max()).bit_length(), 1), 16):
            digit = ((key if order is None else key[order]) >> np.uint64(shift)).astype(np.uint16)
            step = np.argsort(digit, kind="stable")
            order = step if order is None else order[step]
    return order


def _runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, ids[order], first): the ids grouped by _stable_order, and the mask of
    the places in that order where a run of one id starts."""
    order = _stable_order(ids)
    grouped = ids[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = grouped[1:] != grouped[:-1]
    return order, grouped, first


class RatingDataset:
    """Immutable user-item ratings, one per (user, item): the last one given.

    Built from RatingColumns or from an iterable of RatingRecord. The ratings
    are held as ``columns`` in (user, item) order; ``duplicates_dropped``
    counts the ratings that a later rating of the same pair replaced. The two
    groupings of the columns are derived on first use and kept: ``user_runs``
    serves the split, the persona build and evaluate; ``index`` serves the
    batch rows and the per-pair measures.
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
    def user_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """(ascending user ids, row pointers): user k's ratings are rows ptr[k]:ptr[k + 1]."""
        u = self.columns.user
        first = np.ones(len(u), dtype=bool)
        first[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(first)
        return u[starts], np.append(starts, len(u))

    @cached_property
    def _item_ids(self) -> np.ndarray:
        """The ascending item ids: the index's once it is built, else the run heads of
        the index's first step (_runs), so that counting the items builds no index."""
        if "index" in self.__dict__:
            return self.index.item_ids
        _, grouped, first = _runs(self.columns.item)
        return grouped[first]

    @cached_property
    def num_users(self) -> int:
        return len(self.user_runs[0])

    @cached_property
    def num_items(self) -> int:
        return len(self._item_ids)

    def users(self) -> list[int]:
        return self.user_runs[0].tolist()

    def items(self) -> list[int]:
        return self._item_ids.tolist()

    @cached_property
    def index(self) -> RatingIndex:
        """The ratings as user->item and item->user CSR arrays, built on first use.

        One stable sort of the item ids (_runs) groups the ratings by item,
        users ascending within an item (the rows are in user order); an item's
        position is the count of distinct ids up to its run.
        """
        user_ids, rows = self.user_runs
        item = self.columns.item
        order, grouped, first = _runs(item)
        starts = np.flatnonzero(first)
        items = np.empty(len(item), dtype=np.int32)
        items[order] = np.cumsum(first) - 1
        users = np.repeat(np.arange(len(user_ids), dtype=np.int32), np.diff(rows))
        user_ptr = rows.astype(np.int32)
        item_ptr = np.append(starts, len(item)).astype(np.int32)
        return RatingIndex(user_ids, grouped[starts], user_ptr, items, item_ptr, users[order],
                           self.columns.rating[order], np.diff(user_ptr), np.diff(item_ptr))

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


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``, newlines as open() reads them; a
    ParseError naming the file and the line of the first byte that is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:  # read() decodes the whole file at once
        raise ParseError(len(exc.object[:exc.start + 1].splitlines()),
                         f"{path}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 "
                         f"({exc.reason})") from None


def _source_text(source) -> str:
    """The whole text of a path (read_text), or of a text or UTF-8 bytes stream, left open."""
    if isinstance(source, (str, Path)):
        return read_text(source)
    if hasattr(source, "read"):
        if isinstance(source.read(0), bytes):
            text = io.TextIOWrapper(source, encoding="utf-8")
            try:
                return text.read()
            finally:
                text.detach()  # else the wrapper closes the caller's stream when collected
        return source.read()
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


def loadtxt_or_none(source, dtype) -> np.ndarray | None:
    """np.loadtxt of comma-separated rows with no comment character, at least 1-D;
    None where numpy refuses the text. numpy 1.x warns on some text that 2.x
    refuses (float text in an int column), so a warning is a refusal too."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None


_FIELDS = [("user", np.int64), ("item", np.int64), ("rating", np.float64),
           ("timestamp", np.int64)]


def _parse_columns(text: str, fmt: str) -> RatingColumns | None:
    """Parse with one loadtxt_or_none; None where only _parse_lines can decide.

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
    # As bytes: a StringIO of the text takes several bytes per character.
    rows = loadtxt_or_none(io.BytesIO(text.encode()), _FIELDS[:width])
    if rows is None:
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
    text = _source_text(source)
    columns = _parse_columns(text, fmt)
    return _parse_lines(text, fmt) if columns is None else RatingDataset(columns)


def float_reprs(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """(the repr of each distinct float64 value, each value's index into that list),
    the values raveled: every distinct value is formatted once.

    Values are told apart by bit pattern, so -0.0 keeps its own text where
    np.unique on the floats would merge it with 0.0.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    return [repr(v) for v in distinct.view(np.float64).tolist()], inverse


def _csv_rows(c: RatingColumns) -> bytes:
    """The csv rows of the columns, formatted row by row: the twin of _kernels.c's
    topiccf_write_ratings, its fallback and its oracle."""
    return "".join(f"{u},{i},{r!r},{t}\n" if stamped else f"{u},{i},{r!r}\n"
                   for u, i, r, t, stamped in zip(*(col.tolist() for col in c))).encode()


_WRITE_ROWS = 1 << 14  # rows written at a time


def write_ratings_csv(ds: RatingDataset, path) -> None:
    """Write header-less ``user,item,rating[,timestamp]`` rows in (user, item) order.

    The native loop (lda.load_kernels) writes _WRITE_ROWS rows at a time through one
    buffer, copying each rating's repr (float_reprs); without it _csv_rows formats
    the same bytes, _WRITE_ROWS rows at a time, so memory does not grow with the file.
    """
    from . import lda  # lda imports this module

    lib, c = lda.load_kernels()[0], ds.columns
    with open(path, "wb") as fh:
        if lib is None:
            for start in range(0, len(ds), _WRITE_ROWS):
                fh.write(_csv_rows(c.take(slice(start, start + _WRITE_ROWS))))
            return
        text, code = float_reprs(c.rating)
        reprs = np.frombuffer("".join(text).encode(), dtype=np.uint8)
        reprs_ptr = np.cumsum([0, *map(len, text)], dtype=np.int64)
        stamped = c.has_timestamp.view(np.uint8)
        buf = np.empty(_WRITE_ROWS * (64 + max(map(len, text), default=0)), dtype=np.uint8)
        for start in range(0, len(ds), _WRITE_ROWS):
            rows = slice(start, start + _WRITE_ROWS)
            n = lib.topiccf_write_ratings(len(code[rows]), c.user[rows], c.item[rows], code[rows],
                                          reprs, reprs_ptr, c.timestamp[rows], stamped[rows], buf)
            fh.write(buf[:n])


def _corpus_entries(source) -> Iterator[tuple[str, str | Path]]:
    """(id text, document text or the file holding it) per directory entry or TSV line.

    A directory entry that is not a ``.txt`` file gets the id text "", which
    load_corpus skips like any other non-integer id.
    """
    if isinstance(source, (str, Path)) and Path(source).is_dir():
        for entry in sorted(Path(source).iterdir()):
            yield (entry.stem if entry.is_file() and entry.suffix == ".txt" else ""), entry
        return
    for line_no, line in enumerate(io.StringIO(_source_text(source)), start=1):
        if not line.strip():
            continue
        head, sep, text = line.rstrip("\n").partition("\t")
        if not sep:
            raise ParseError(line_no, "expected item_id<TAB>text")
        yield head, text


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
        text = (read_text(text) if isinstance(text, Path) else text).strip()
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
    user_ids, ptr = ds.user_runs
    train = np.zeros(len(ds), dtype=bool)
    for user, start, end in zip(user_ids.tolist(), ptr.tolist(), ptr[1:].tolist()):
        order = np.random.default_rng([seed, user]).permutation(end - start)
        train[start + order[:math.floor(fraction * (end - start) + 0.5)]] = True
    return SplitPair(RatingDataset(ds.columns.take(train)), RatingDataset(ds.columns.take(~train)))


def dataset_summary(ds: RatingDataset) -> dict:
    """Users / items / max and average ratings-per-user, as in the usual dataset tables."""
    counts = np.diff(ds.user_runs[1])
    return {
        "users": ds.num_users,
        "items": ds.num_items,
        "ratings": len(ds),
        "max_ratings_per_user": int(counts.max()) if len(counts) else 0,
        "avg_ratings_per_user": (len(ds) / ds.num_users) if ds.num_users else 0.0,
    }
