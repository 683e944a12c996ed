import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topiccf import ingest, lda
from topiccf.ingest import (
    FORMATS,
    ConfigurationError,
    ParseError,
    RatingColumns,
    RatingDataset,
    RatingRangeError,
    RatingRecord,
    dataset_summary,
    load_corpus,
    parse_ratings,
    split_train_test,
    write_ratings_csv,
)

from oracles import ds_by_user, ds_item_users, ds_record_set, ds_records


def test_parse_movielens_line():
    ds = parse_ratings(io.StringIO("1::1193::5::978300760\n"), "movielens_dat")
    assert ds_records(ds) == (RatingRecord(1, 1193, 5.0, 978300760),)


def test_parse_csv_without_timestamp():
    ds = parse_ratings(io.StringIO("7,42,3.0\n"), "csv")
    assert ds_records(ds) == (RatingRecord(7, 42, 3.0, None),)


def test_parse_csv_with_timestamp():
    ds = parse_ratings(io.StringIO("7,42,3.0,12345\n"), "csv")
    assert ds_records(ds)[0].timestamp == 12345


def test_parse_accepts_bytes_stream():
    ds = parse_ratings(io.BytesIO(b"1::2::4::0\n2::2::3::0\n"), "movielens_dat")
    assert ds.num_users == 2
    assert ds.num_items == 1


def test_a_callers_bytes_stream_stays_open():
    ratings = io.BytesIO(b"1::2::4::0\n2::2::3::0\n")
    assert len(parse_ratings(ratings, "movielens_dat")) == 2
    corpus = io.BytesIO(b"3\tplot three\n")
    assert load_corpus(corpus).docs == {3: "plot three"}
    assert not ratings.closed and not corpus.closed
    assert ratings.read() == corpus.read() == b""  # each was read to its end
    bad = io.BytesIO(b"1::2::4::0\n\xff\n")
    with pytest.raises(UnicodeDecodeError):
        parse_ratings(bad, "movielens_dat")
    assert not bad.closed


def test_duplicates_keep_last_and_count():
    ds = parse_ratings(io.StringIO("1,5,2.0\n1,5,4.0\n1,6,3.0\n"), "csv")
    assert ds.duplicates_dropped == 1
    assert dict(ds_by_user(ds)[1])[5] == 4.0


def test_dataset_keeps_last_rating_per_pair():
    ds = RatingDataset([
        RatingRecord(1, 5, 2.0), RatingRecord(1, 6, 4.0), RatingRecord(1, 5, 4.0),
        RatingRecord(2, 5, 3.0), RatingRecord(2, 7, 5.0),
    ])
    assert len(ds) == 4
    assert ds.duplicates_dropped == 1
    assert ds_by_user(ds)[1] == ((5, 4.0), (6, 4.0))
    assert sum(len(v) for v in ds_by_user(ds).values()) == len(ds)


def test_dataset_orders_records_by_user_then_item():
    rng = np.random.default_rng(3)
    ordered = [RatingRecord(u, i, float(1 + (u * i) % 5)) for u in (2, 7, 9) for i in (1, 4, 8, 30)]
    ds = RatingDataset(ordered[k] for k in rng.permutation(len(ordered)))
    assert ds_records(ds) == tuple(ordered)
    assert list(ds_by_user(ds)) == [2, 7, 9]
    for u, pairs in ds_by_user(ds).items():
        assert pairs == tuple((r.item_id, r.rating) for r in ordered if r.user_id == u)
    assert ds.users() == [2, 7, 9]
    assert ds.items() == [1, 4, 8, 30]


def test_dataset_holds_the_ratings_once():
    # The columns and their two groupings (user_runs, index) are the only representation.
    ds = RatingDataset([RatingRecord(1, 5, 2.0, 7)])
    for view in ("records", "record_set", "by_user", "user_items", "item_users"):
        assert not hasattr(ds, view)
    assert ds.columns.user.tolist() == [1] and ds.users() == [1] and ds.items() == [5]


def test_wrong_field_count_reports_line_number():
    with pytest.raises(ParseError) as exc:
        parse_ratings(io.StringIO("1,5,2.0\n1,5\n"), "csv")
    assert exc.value.line_no == 2


def test_non_numeric_rating_is_parse_error():
    with pytest.raises(ParseError):
        parse_ratings(io.StringIO("1,5,bad\n"), "csv")


def test_rating_out_of_range():
    with pytest.raises(RatingRangeError):
        parse_ratings(io.StringIO("1,5,6.0\n"), "csv")
    with pytest.raises(RatingRangeError):
        parse_ratings(io.StringIO("1,5,0.5\n"), "csv")


def test_unknown_format_rejected():
    with pytest.raises(ConfigurationError):
        parse_ratings(io.StringIO(""), "tsv")


def test_unsupported_source_type_rejected():
    with pytest.raises(TypeError, match="^unsupported source type: <class 'int'>$"):
        parse_ratings(42, "csv")


def test_rating_columns_of_different_lengths_rejected():
    columns = ingest.RatingColumns(np.array([1, 2]), np.array([1]), np.array([3.0, 4.0]),
                                   np.zeros(2, dtype=np.int64), np.zeros(2, dtype=bool))
    with pytest.raises(ValueError, match="^rating columns differ in length$"):
        RatingDataset(columns)


def test_index_consistency():
    ds = parse_ratings(io.StringIO("1,1,5\n1,2,4\n2,1,3\n3,3,1\n"), "csv")
    assert sum(len(v) for v in ds_by_user(ds).values()) == len(ds_records(ds))
    assert sum(len(ds_item_users(ds, i)) for i in ds.items()) == len(ds_records(ds))
    assert ds.num_users == 3
    assert ds.num_items == 3


def _index_by_unique(ds):
    """RatingDataset.index as it was derived before the one-sort build: items
    numbered by np.unique + np.searchsorted, grouped by a stable argsort of those."""
    user_ids, rows = ds.user_runs
    item_ids = np.unique(ds.columns.item)
    items = np.searchsorted(item_ids, ds.columns.item)
    users = np.repeat(np.arange(len(user_ids)), np.diff(rows))
    user_ptr = rows.astype(np.int32)
    item_ptr = np.zeros(len(item_ids) + 1, dtype=np.int32)
    item_ptr[1:] = np.cumsum(np.bincount(items, minlength=len(item_ids)))
    order = np.argsort(items, kind="stable")
    return ingest.RatingIndex(user_ids, item_ids, user_ptr, items.astype(np.int32), item_ptr,
                              users[order].astype(np.int32), ds.columns.rating[order],
                              np.diff(user_ptr), np.diff(item_ptr))


def _index_cases():
    big = 2**40 + 7
    rng = np.random.default_rng(5)
    yield "signed-and-big-ids", [RatingRecord(u, i, r) for u, i, r in [
        (3, -5, 1.0), (3, 0, 2.0), (3, big, 3.0), (-2, big, 4.0), (-2, -5, 5.0), (0, 0, 1.5),
        (0, big + 1, 2.5), (0, -(2**41), 3.5)]]
    yield "dropped-duplicates", [RatingRecord(u, i, r) for u, i, r in [
        (2, 9, 1.0), (1, 9, 2.0), (2, 9, 3.0), (2, 4, 4.0), (1, 4, 5.0), (1, 9, 4.0)]]
    yield "one-item", [RatingRecord(u, 77, float(u % 5 + 1)) for u in (5, 1, 3, 2)]
    yield "one-user", [RatingRecord(8, i, 3.0) for i in (big, -1, 0, 12)]
    yield "random", [RatingRecord(int(u), int(i), float(r)) for u, i, r in zip(
        rng.integers(-50, 50, 400), rng.integers(-2**45, 2**45, 400) // 2**40 * 2**40 + 3,
        rng.integers(1, 6, 400))]
    yield "empty", []


@pytest.mark.parametrize("case", [name for name, _ in _index_cases()])
def test_index_equals_the_unique_and_searchsorted_derivation(case):
    records = dict(_index_cases())[case]
    ds = RatingDataset(records)
    if case == "dropped-duplicates":
        assert ds.duplicates_dropped == 2
    for got, want, field in zip(ds.index, _index_by_unique(RatingDataset(records)),
                                ingest.RatingIndex._fields):
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field


def _span_records(low, span, rng):
    """Ratings whose item ids run from low to low + span, both ends included: ids
    that differ only above the lowest 16 bits, in both orders, and random ones."""
    high = [low + span - k * (span // 3) for k in range(3)]
    step = [low + (span >> s << s) for s in (16, 32, 48) if span >> s]
    ids = np.array([low, *high, *step, *(low + span // 2 + np.arange(-2, 3))], dtype=np.int64)
    picks = np.concatenate([ids, rng.choice(ids, 300),
                            low + rng.integers(0, span, 100, dtype=np.uint64,
                                               endpoint=True).astype(np.int64)])
    users = rng.integers(-3, 40, len(picks))
    return [RatingRecord(int(u), int(i), float(r)) for u, i, r in zip(
        users, picks, rng.integers(1, 6, len(picks)))]


# Id spans either side of the radix sort's 16-bit digits, up to int64's whole range.
_SPANS = pytest.mark.parametrize(
    "low,span", [(-7, 2**16 - 1), (3, 2**16), (-(2**20), 2**32),
                 (np.iinfo(np.int64).min, 2**64 - 1)],
    ids=["2^16-1", "2^16", "2^32", "int64-min-and-max"])


@_SPANS
def test_index_equals_the_argsort_derivation_at_digit_boundaries(low, span):
    # The grouping sorts 16 bits of the id span per pass: one pass below 2**16, then more.
    records = _span_records(low, span, np.random.default_rng(span % 1000))
    ds = RatingDataset(records)
    assert int(ds.index.item_ids[-1]) - int(ds.index.item_ids[0]) == span
    for got, want, field in zip(ds.index, _index_by_unique(RatingDataset(records)),
                                ingest.RatingIndex._fields):
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field


def test_item_ids_agree_with_the_index_whichever_is_read_first():
    records = dict(_index_cases())["signed-and-big-ids"]
    counted, indexed = RatingDataset(records), RatingDataset(records)
    dataset_summary(counted)
    assert "index" not in counted.__dict__  # counting the items builds no index
    indexed.index
    for ds in (counted, indexed):
        assert ds.items() == ds.index.item_ids.tolist() == sorted({r.item_id for r in records})
        assert ds.num_items == len(ds.index.item_ids)


def _spanned_columns(low, span, rows=3000, seed=0):
    """Unsorted rating columns whose user and item ids each run from low to low + span,
    both ends included, drawn from a few dozen ids so that many (user, item) pairs
    repeat; each row's rating is its own, so the one kept shows which row won."""
    rng = np.random.default_rng(seed)
    ids = np.array([low, low + span, low + span // 2, *(low + (span >> s << s)
                   for s in (16, 32, 48) if span >> s)], dtype=np.int64)
    ids = np.concatenate([ids, low + rng.integers(0, span, 20, dtype=np.uint64,
                                                  endpoint=True).astype(np.int64)])
    user, item = rng.choice(ids[:8], rows), rng.choice(ids, rows)
    user[:2], item[:2] = ids[:2], ids[1::-1]  # both ends as user and as item
    rating = 1.0 + np.arange(rows) / rows
    return RatingColumns(user, item, rating, rng.integers(-5, 5, rows), rng.random(rows) < 0.5)


def _keep_last_by_lexsort(cols):
    """One row per (user, item), the last one given, in (user, item) order, by np.lexsort."""
    order = np.lexsort((cols.item, cols.user))
    u, i = cols.user[order], cols.item[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (u[1:] != u[:-1]) | (i[1:] != i[:-1])
    return cols.take(order[last])


@_SPANS
def test_keep_last_equals_the_lexsort_oracle_at_digit_boundaries(low, span):
    given = _spanned_columns(low, span)
    ds, want = RatingDataset(given), _keep_last_by_lexsort(given)
    assert int(ds.columns.user.max()) - int(ds.columns.user.min()) == span
    assert int(ds.columns.item.max()) - int(ds.columns.item.min()) == span
    assert ds.duplicates_dropped == len(given.user) - len(want.user) > 1000
    for got, expected in zip(ds.columns, want):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", [name for name, _ in _index_cases()])
def test_keep_last_equals_the_lexsort_oracle(case):
    records = dict(_index_cases())[case]
    given = RatingColumns(*(np.array(c, dtype=d) for c, d in
                            zip(ingest._columns_of(records), ingest._DTYPES)))
    ds, want = RatingDataset(records), _keep_last_by_lexsort(given)
    assert ds.duplicates_dropped == len(records) - len(want.user)
    for got, expected in zip(ds.columns, want):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@_SPANS
def test_stable_order_of_several_keys_is_lexsorts(low, span):
    c = _spanned_columns(low, span, seed=1)
    for keys in ((c.item,), (c.item, c.user), (c.user, c.item), (c.timestamp, c.item, c.user)):
        assert np.array_equal(ingest._stable_order(*keys), np.lexsort(keys))


@_SPANS
def test_item_count_without_an_index_is_uniques(low, span):
    ds = RatingDataset(_spanned_columns(low, span, seed=2))
    want = np.unique(ds.columns.item)
    assert ds.num_items == len(want)
    assert ds.items() == want.tolist()
    assert "index" not in ds.__dict__


def test_load_corpus_directory(tmp_path):
    (tmp_path / "527.txt").write_text("Oskar Schindler saves...", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not an item", encoding="utf-8")
    (tmp_path / "9.txt").write_text("", encoding="utf-8")
    corpus = load_corpus(tmp_path)
    assert corpus.docs == {527: "Oskar Schindler saves..."}
    assert corpus.skipped == 2


def test_load_corpus_tsv():
    corpus = load_corpus(io.StringIO("3\tsome plot text\n4\tanother plot\n"))
    assert corpus.docs == {3: "some plot text", 4: "another plot"}


def test_load_corpus_directory_skips_entries_that_are_not_txt_files(tmp_path):
    (tmp_path / "5.txt").write_text("plot five", encoding="utf-8")
    (tmp_path / "6").mkdir()                  # subdirectory named like an item
    (tmp_path / "7.txt").mkdir()              # reading it would raise IsADirectoryError
    (tmp_path / "8.md").write_text("not a document", encoding="utf-8")
    corpus = load_corpus(tmp_path)
    assert corpus.docs == {5: "plot five"}
    assert corpus.skipped == 3


def test_load_corpus_tsv_skips_bad_ids_and_empty_texts():
    corpus = load_corpus(io.StringIO("3\tplot\n\nx\tnot an id\n4\t  \n"))
    assert corpus.docs == {3: "plot"}
    assert corpus.skipped == 2


def test_load_corpus_tsv_line_without_tab_names_the_line():
    with pytest.raises(ParseError) as exc:
        load_corpus(io.StringIO("3\tplot\n\n4 no tab\n"))
    assert exc.value.line_no == 3


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_load_corpus_file_reads_any_newline_as_a_line_end(tmp_path, newline):
    text = "3\tplot three\n\n4\tplot\tfour\n"
    (tmp_path / "lf.tsv").write_text(text, newline="")
    (tmp_path / "other.tsv").write_text(text.replace("\n", newline), newline="")
    want = load_corpus(tmp_path / "lf.tsv")
    assert want.docs == {3: "plot three", 4: "plot\tfour"}
    assert load_corpus(tmp_path / "other.tsv") == want
    with pytest.raises(ParseError) as exc:
        load_corpus(io.BytesIO(text.replace("\n", newline).encode() + b"5 no tab"))
    assert exc.value.line_no == 4


def test_load_corpus_empty_directory(tmp_path):
    corpus = load_corpus(tmp_path)
    assert len(corpus) == 0


def _dataset(n_per_user):
    records = []
    for u, n in n_per_user.items():
        for i in range(1, n + 1):
            records.append(RatingRecord(u, i, float(1 + (u + i) % 5)))
    return RatingDataset(records)


def test_split_80_20_counts():
    ds = _dataset({1: 10})
    pair = split_train_test(ds, 0.8, seed=3)
    assert len(pair.train) == 8
    assert len(pair.test) == 2


def test_split_single_rating_user_goes_to_train():
    ds = _dataset({1: 1, 2: 4})
    pair = split_train_test(ds, 0.8, seed=3)
    assert 1 in ds_by_user(pair.train)
    assert 1 not in ds_by_user(pair.test)


def test_split_deterministic():
    ds = _dataset({1: 10, 2: 7, 3: 3})
    a = split_train_test(ds, 0.8, seed=11)
    b = split_train_test(ds, 0.8, seed=11)
    assert ds_record_set(a.train) == ds_record_set(b.train)
    assert ds_record_set(a.test) == ds_record_set(b.test)


def test_split_changes_with_seed():
    ds = _dataset({u: 10 for u in range(1, 20)})
    a = split_train_test(ds, 0.8, seed=1)
    b = split_train_test(ds, 0.8, seed=2)
    assert ds_record_set(a.train) != ds_record_set(b.train)


def test_split_fraction_precondition():
    ds = _dataset({1: 4})
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ConfigurationError):
            split_train_test(ds, bad, seed=1)


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=25),
        min_size=1,
        max_size=8,
    ),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=2**31),
)
def test_split_partition_property(n_per_user, fraction, seed):
    ds = _dataset(n_per_user)
    pair = split_train_test(ds, fraction, seed)
    assert ds_record_set(pair.train) | ds_record_set(pair.test) == ds_record_set(ds)
    assert not (ds_record_set(pair.train) & ds_record_set(pair.test))
    for u, n in n_per_user.items():
        expected_train = int(fraction * n + 0.5)
        assert len(ds_by_user(pair.train).get(u, ())) == expected_train


def test_csv_round_trip(tmp_path):
    ds = parse_ratings(io.StringIO("1,1,5.0,99\n1,2,4.5\n2,1,3.0\n"), "csv")
    path = tmp_path / "out.csv"
    write_ratings_csv(ds, path)
    again = parse_ratings(path, "csv")
    assert ds_record_set(again) == ds_record_set(ds)


def test_csv_round_trip_preserves_split(tmp_path):
    ds = _dataset({1: 9, 2: 5, 3: 2})
    pair = split_train_test(ds, 0.8, seed=5)
    p = tmp_path / "train.csv"
    write_ratings_csv(pair.train, p)
    assert ds_record_set(parse_ratings(p, "csv")) == ds_record_set(pair.train)


def test_dataset_summary():
    ds = _dataset({1: 10, 2: 2})
    s = dataset_summary(ds)
    assert s["users"] == 2
    assert s["max_ratings_per_user"] == 10
    assert s["avg_ratings_per_user"] == 6.0


# --- the numpy fast path against the line parser -------------------------------------

def _line_parsed(source, fmt):
    """What parse_ratings returned before it had a fast path: the line parser over
    the source's lines, as the source's own iteration splits them."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            lines = list(fh)
    else:
        lines = list(io.TextIOWrapper(source, encoding="utf-8")
                     if isinstance(source.read(0), bytes) else source)
    return RatingDataset(ingest._parse_line(line, fmt, line_no)
                         for line_no, line in enumerate(map(str.strip, lines), start=1)
                         if line)


def _sources(text, tmp_path):
    path = tmp_path / "ratings.txt"
    path.write_bytes(text.encode("utf-8"))
    return {"path": lambda: path, "str": lambda: str(path),
            "StringIO": lambda: io.StringIO(text),
            "BytesIO": lambda: io.BytesIO(text.encode("utf-8"))}


def _assert_same_as_line_parser(text, fmt, tmp_path):
    """parse_ratings gives the line parser's dataset, in the same order, or its
    exception type and line number, from every kind of source; and what numpy
    alone accepts, the line parser accepts with the same values."""
    for make in _sources(text, tmp_path).values():
        try:
            expected, error = _line_parsed(make(), fmt), None
        except (ParseError, RatingRangeError) as exc:
            expected, error = None, exc
        if error is None:
            got = parse_ratings(make(), fmt)
            assert ds_records(got) == ds_records(expected)
            assert got.duplicates_dropped == expected.duplicates_dropped
        else:
            with pytest.raises(type(error)) as exc:
                parse_ratings(make(), fmt)
            assert exc.value.line_no == error.line_no
    fast = ingest._parse_columns(text, fmt)
    if fast is not None:
        lines = ingest._parse_lines(text, fmt)
        ds = RatingDataset(fast)
        assert ds_records(ds) == ds_records(lines)
        assert ds.duplicates_dropped == lines.duplicates_dropped


_ID = st.integers(min_value=1, max_value=4).map(str)
_RATING = st.sampled_from(["1", "2.5", "3.0", "4", "5.0", "1e0", "4.75"])
_STAMP = st.integers(min_value=0, max_value=2**40).map(str)
_ODD_INT = st.sampled_from(["1.0", "1_000", "+7", " 3", "4 ", "", "x", "#", "-2", "007",
                            "9223372036854775807", "9223372036854775808",
                            "-9223372036854775809", "١"])
_ODD_RATING = st.sampled_from(["nan", "inf", "-inf", "6.0", "0.5", "5.", " 2.5 ", "4_0",
                               "0x1p2", "3,5", "", "1.0000000000000002"])
_ODD_LINE = st.sampled_from(["", "   ", "# comment", "1::2::3,4", "1,2", "1,2,3,4,5",
                             "1::2::3", "1::2::3::4::5", "\t", "1,2,3\r4,5,6"])


def _file(fmt, field, rating, stamp, odd_lines):
    sep = "::" if fmt == "movielens_dat" else ","
    row = st.tuples(field, field, rating, stamp).map(
        lambda f: sep.join(f[:3] if f[3] is None else f))
    line = st.one_of(row, odd_lines) if odd_lines is not None else row
    return st.tuples(st.lists(line, max_size=10), st.sampled_from(["\n", "\r\n"]),
                     st.booleans()).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else ""))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fast_path_and_line_parser_agree(tmp_path_factory, data):
    fmt = data.draw(st.sampled_from(FORMATS))
    stamp = _STAMP if fmt == "movielens_dat" else st.one_of(st.none(), _STAMP)
    clean = _file(fmt, _ID, _RATING, stamp, None)
    dirty = _file(fmt, st.one_of(_ID, _ODD_INT), st.one_of(_RATING, _ODD_RATING),
                  st.one_of(stamp, _ODD_INT), _ODD_LINE)
    text = data.draw(st.one_of(clean, dirty))
    _assert_same_as_line_parser(text, fmt, tmp_path_factory.mktemp("diff"))


@pytest.mark.parametrize("text,fmt", [
    ("1::10::5::978300760\n2::10::3::978300761\n1::10::4::978300762\n", "movielens_dat"),
    ("1::10::5::1\r\n\r\n2::11::3.5::2\r\n", "movielens_dat"),
    ("1,10,5.0,99\n2,10,3,100\n", "csv"),
    ("1,10,5.0\n2,10,3\n\n", "csv"),
    (" 1 , 10 , 4.5 \n", "csv"),
])
def test_fast_path_takes_well_formed_files(text, fmt, tmp_path):
    assert ingest._parse_columns(text.replace("\r\n", "\n"), fmt) is not None
    _assert_same_as_line_parser(text, fmt, tmp_path)


@pytest.mark.parametrize("text,fmt,error,line_no", [
    ("1::2::3::4\n1::2::3,4\n", "movielens_dat", ParseError, 2),  # not 1,2,3,4 after '::' -> ','
    ("1,2,3\n1.0,2,3\n", "csv", ParseError, 2),
    ("1,2,3\n# a comment\n", "csv", ParseError, 2),
    ("1,2,3\n2,2,nan\n", "csv", RatingRangeError, 2),
    ("1,2,inf\n", "csv", RatingRangeError, 1),
    ("1,2,3\n\n1,3,6.0\n", "csv", RatingRangeError, 3),
    ("1::2::3::4\n1::2::3::9223372036854775808\n", "movielens_dat", ParseError, 2),
    ("9223372036854775808,2,3\n", "csv", ParseError, 1),
])
def test_rejected_files_name_the_line(text, fmt, error, line_no, tmp_path):
    assert ingest._parse_columns(text, fmt) is None
    for make in _sources(text, tmp_path).values():
        with pytest.raises(error) as exc:
            parse_ratings(make(), fmt)
        assert exc.value.line_no == line_no
    _assert_same_as_line_parser(text, fmt, tmp_path)


@pytest.mark.parametrize("text,fmt,records", [
    ("1_000,2,3\n", "csv", [RatingRecord(1000, 2, 3.0)]),
    ("1,2,3,10\n1,3,4\n", "csv", [RatingRecord(1, 2, 3.0, 10), RatingRecord(1, 3, 4.0)]),
    ("  1::2::3::4  \r\n\r\n", "movielens_dat", [RatingRecord(1, 2, 3.0, 4)]),
    ("1,2,3\n   \n", "csv", [RatingRecord(1, 2, 3.0)]),
])
def test_line_parser_takes_what_numpy_does_not(text, fmt, records, tmp_path):
    for make in _sources(text, tmp_path).values():
        assert list(ds_records(parse_ratings(make(), fmt))) == records
    _assert_same_as_line_parser(text, fmt, tmp_path)


def _generated(fmt, rows=50_000, seed=3):
    """rows random ratings, some (user, item) pairs repeated, as one file's text."""
    rng = np.random.default_rng(seed)
    fields = (rng.integers(1, 2000, rows), rng.integers(1, 4000, rows),
              rng.choice(["1", "2.5", "3.0", "4", "4.5", "5.0"], rows),
              rng.integers(956703932, 1046454590, rows))
    sep = "::" if fmt == "movielens_dat" else ","
    return "".join(f"{u}{sep}{i}{sep}{r}{sep}{t}\n" for u, i, r, t in zip(*fields))


@pytest.mark.parametrize("text,fmt", [
    ("1::10::5::978300760\n2::10::3::978300761\n1::10::4::978300762\n", "movielens_dat"),
    ("1,10,5.0\n2,10,3\n1,10,4.5\n", "csv"),
    ("generated", "movielens_dat"),
    ("generated", "csv"),
])
def test_every_kind_of_source_gives_the_same_columns(text, fmt, tmp_path):
    if text == "generated":
        text = _generated(fmt)
        assert ingest._parse_columns(text, fmt) is not None  # numpy reads it at size
    path = tmp_path / "ratings.txt"
    path.write_bytes(text.encode("utf-8"))
    want = ingest._parse_lines(text, fmt)
    assert want.duplicates_dropped > 0
    for source in (path, io.StringIO(text), io.BytesIO(text.encode("utf-8")),
                   io.StringIO(text.replace("\n", "\r\n"))):
        got = parse_ratings(source, fmt)
        assert got.duplicates_dropped == want.duplicates_dropped
        for col, expected in zip(got.columns, want.columns):
            assert col.dtype == expected.dtype
            assert col.tobytes() == expected.tobytes()


def test_mixed_timestamp_csv_writes_back_byte_identical(tmp_path):
    text = ("-3,7,4.0,10\n0,0,2.0,0\n1,1,5.0,99\n1,2,4.5\n2,1,3.0,-7\n"
            "2,4,1.0000000000000002\n9223372036854775807,1,1.5,-9223372036854775808\n")
    path = tmp_path / "out.csv"
    write_ratings_csv(parse_ratings(io.StringIO(text), "csv"), path)
    assert path.read_text(encoding="utf-8") == text


def _native_and_twin_csv(ds, tmp_path, monkeypatch):
    """The bytes write_ratings_csv writes of ds on the native loop and on its twin."""
    if lda.load_kernels()[0] is None:
        pytest.skip(lda.load_kernels()[1])
    native, twin = tmp_path / "native.csv", tmp_path / "twin.csv"
    write_ratings_csv(ds, native)
    with monkeypatch.context() as m:
        m.setattr(lda, "load_kernels", lambda: (None, "python (test)"))
        write_ratings_csv(ds, twin)
    return native.read_bytes(), twin.read_bytes()


def _csv_by_lines(ds):
    """The csv write_ratings_csv should write, formatted row by row."""
    return "".join(f"{r.user_id},{r.item_id},{r.rating!r}"
                   + ("" if r.timestamp is None else f",{r.timestamp}") + "\n"
                   for r in ds_records(ds)).encode()


_I64 = np.iinfo(np.int64)


def _writer_cases():
    lo, hi = _I64.min, _I64.max
    yield "extreme-ids", [RatingRecord(u, i, 3.0, t) for u, i, t in [
        (lo, hi, lo), (lo, lo, hi), (hi, lo, None), (hi, hi, -1), (-1, -(10**18), 0),
        (0, 0, None), (-9, 7, -(10**17))]]
    yield "no-rows", []
    yield "no-timestamps", [RatingRecord(u, i, float(i % 5 + 1)) for u in (2, 1) for i in (9, 3)]
    yield "mixed-timestamps", [RatingRecord(u, i, 1.5 + i % 3, None if (u + i) % 3 else u * i)
                               for u in range(-3, 4) for i in range(5)]
    yield "odd-ratings", [RatingRecord(1, i, r, i) for i, r in enumerate(
        [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e16, -1e16, 1e-300, 5e-324,
         1.7976931348623157e308, 1.0000000000000002, 0.1 + 0.2, -3.0])]


@pytest.mark.parametrize("case", [name for name, _ in _writer_cases()])
def test_native_csv_writer_equals_its_twin(case, tmp_path, monkeypatch):
    ds = RatingDataset(dict(_writer_cases())[case])
    native, twin = _native_and_twin_csv(ds, tmp_path, monkeypatch)
    assert native == twin == _csv_by_lines(ds)


@pytest.mark.parametrize("rows", [1, 3, 4, 5, 8, 9, 13])
def test_native_csv_writer_equals_its_twin_across_blocks(rows, tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_WRITE_ROWS", 4)
    rng = np.random.default_rng(rows)
    ds = RatingDataset([RatingRecord(u, int(rng.integers(-(2**62), 2**62)), 1.0 + u % 9 / 2,
                                     None if u % 3 else -u) for u in range(rows)])
    native, twin = _native_and_twin_csv(ds, tmp_path, monkeypatch)
    assert native == twin == _csv_by_lines(ds)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_native_csv_writer_equals_its_twin_at_a_full_block(extra, tmp_path, monkeypatch):
    rows = ingest._WRITE_ROWS + extra
    rng = np.random.default_rng(rows)
    ds = RatingDataset(RatingColumns(np.arange(rows) - rows // 2, rng.integers(_I64.min, _I64.max,
                                     rows, endpoint=True), rng.integers(1, 6, rows) / 2.0,
                                     rng.integers(-(10**12), 10**12, rows), rng.random(rows) < 0.7))
    native, twin = _native_and_twin_csv(ds, tmp_path, monkeypatch)
    assert native == twin == _csv_by_lines(ds)


def test_csv_twin_memory_does_not_grow_with_the_file(tmp_path, monkeypatch):
    # The twin formats _WRITE_ROWS rows at a time, so its peak is a block's strings
    # (about 4 MiB); the whole file at once would hold about 90 bytes a row.
    import tracemalloc

    rows = 200_000
    rng = np.random.default_rng(2)
    ds = RatingDataset(RatingColumns(np.arange(rows), rng.integers(1, 4000, rows),
                                     rng.integers(2, 11, rows) / 2.0,
                                     rng.integers(10**9, 2 * 10**9, rows), rng.random(rows) < 0.9))
    monkeypatch.setattr(lda, "load_kernels", lambda: (None, "python (test)"))
    tracemalloc.start()
    try:
        write_ratings_csv(ds, tmp_path / "ratings.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "ratings.csv").read_bytes().count(b"\n") == rows
    assert peak < 8 * 2**20, peak


def test_native_csv_writer_refuses_arrays_of_another_type_or_layout():
    import ctypes

    lib, how = lda.load_kernels()
    if lib is None:
        pytest.skip(how)
    one, read_only = np.array([-1], np.int64), np.empty(68, np.uint8)
    read_only.flags.writeable = False
    args = [1, one, one, np.array([0], np.int64), np.frombuffer(b"3.0", np.uint8),
            np.array([0, 3], np.int64), one, np.ones(1, np.uint8), np.empty(68, np.uint8)]
    n = lib.topiccf_write_ratings(*args)
    assert args[8][:n].tobytes() == b"-1,-1,3.0,-1\n"
    for at, bad in [(1, one.astype(np.int32)), (3, np.zeros(4, np.int64)[::2]),
                    (7, np.ones(1, bool)), (8, read_only)]:
        with pytest.raises(ctypes.ArgumentError):
            lib.topiccf_write_ratings(*args[:at], bad, *args[at + 1:])


def test_columns_hold_the_ratings_in_pair_order():
    ds = RatingDataset([RatingRecord(2, 9, 4.0, 7), RatingRecord(1, 5, 3.0),
                        RatingRecord(2, 3, 1.0), RatingRecord(2, 9, 5.0, 8)])
    c = ds.columns
    assert c.user.tolist() == [1, 2, 2]
    assert c.item.tolist() == [5, 3, 9]
    assert c.rating.tolist() == [3.0, 1.0, 5.0]
    assert c.timestamp.tolist() == [0, 0, 8]
    assert c.has_timestamp.tolist() == [False, False, True]
    assert [col.dtype for col in c] == [np.int64, np.int64, np.float64, np.int64, np.bool_]
    assert ds.duplicates_dropped == 1
    assert ds_records(RatingDataset(c)) == ds_records(ds)
    ix = ds.index
    assert ix.item_ids[ix.user_items].tolist() == c.item.tolist()  # aligned with the rows
    with pytest.raises(ValueError):
        c.rating[0] = 2.0


def _warning_loadtxt(monkeypatch):
    """Makes np.loadtxt return its result and warn, as numpy 1.x does on text that
    numpy 2.x refuses; returns the list its calls are counted in."""
    real, calls = np.loadtxt, []

    def loadtxt(*args, **kwargs):
        calls.append(args)
        rows = real(*args, **kwargs)
        warnings.warn("float text in an int column", DeprecationWarning)
        return rows
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    return calls


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_numpy_warning_sends_the_ratings_to_the_line_parser(fmt, monkeypatch):
    text = _generated(fmt, rows=2000)
    want = parse_ratings(io.StringIO(text), fmt)
    loaded = _warning_loadtxt(monkeypatch)
    parse_lines, fallbacks = ingest._parse_lines, []
    monkeypatch.setattr(ingest, "_parse_lines",
                        lambda *args: fallbacks.append(args) or parse_lines(*args))
    got = parse_ratings(io.StringIO(text), fmt)
    assert len(loaded) == 1 and len(fallbacks) == 1
    assert ds_records(got) == ds_records(want)
    assert got.duplicates_dropped == want.duplicates_dropped


def test_a_numpy_warning_sends_the_topic_rows_to_the_line_parser(tmp_path, monkeypatch):
    path = tmp_path / "rows.csv"
    with open(path, "w", encoding="utf-8") as fh:
        lda.write_rows(fh, [[str(i) for i in range(1, 41)]],
                       np.random.default_rng(5).dirichlet(np.full(5, 0.3), size=40))
    want = [(n, i, v.tobytes()) for n, i, v in lda.read_topic_rows(path)]
    loaded = _warning_loadtxt(monkeypatch)
    topic_lines, fallbacks = lda._topic_lines, []
    monkeypatch.setattr(lda, "_topic_lines",
                        lambda *args: fallbacks.append(args) or topic_lines(*args))
    got = [(n, i, v.tobytes()) for n, i, v in lda.read_topic_rows(path)]
    assert len(loaded) == 1 and len(fallbacks) == 1
    assert got == want
