import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topiccf.ingest import (
    ConfigurationError,
    ParseError,
    RatingDataset,
    RatingRangeError,
    RatingRecord,
    dataset_summary,
    load_corpus,
    parse_ratings,
    split_train_test,
    write_ratings_csv,
)


def test_parse_movielens_line():
    ds = parse_ratings(io.StringIO("1::1193::5::978300760\n"), "movielens_dat")
    assert ds.records == (RatingRecord(1, 1193, 5.0, 978300760),)


def test_parse_csv_without_timestamp():
    ds = parse_ratings(io.StringIO("7,42,3.0\n"), "csv")
    assert ds.records == (RatingRecord(7, 42, 3.0, None),)


def test_parse_csv_with_timestamp():
    ds = parse_ratings(io.StringIO("7,42,3.0,12345\n"), "csv")
    assert ds.records[0].timestamp == 12345


def test_parse_accepts_bytes_stream():
    ds = parse_ratings(io.BytesIO(b"1::2::4::0\n2::2::3::0\n"), "movielens_dat")
    assert ds.num_users == 2
    assert ds.num_items == 1


def test_duplicates_keep_last_and_count():
    ds = parse_ratings(io.StringIO("1,5,2.0\n1,5,4.0\n1,6,3.0\n"), "csv")
    assert ds.duplicates_dropped == 1
    assert dict(ds.by_user[1])[5] == 4.0


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


def test_index_consistency():
    ds = parse_ratings(io.StringIO("1,1,5\n1,2,4\n2,1,3\n3,3,1\n"), "csv")
    assert sum(len(v) for v in ds.by_user.values()) == len(ds.records)
    assert sum(len(ds.item_users(i)) for i in ds.items()) == len(ds.records)
    assert ds.num_users == 3
    assert ds.num_items == 3


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
    assert 1 in pair.train.by_user
    assert 1 not in pair.test.by_user


def test_split_deterministic():
    ds = _dataset({1: 10, 2: 7, 3: 3})
    a = split_train_test(ds, 0.8, seed=11)
    b = split_train_test(ds, 0.8, seed=11)
    assert a.train.record_set() == b.train.record_set()
    assert a.test.record_set() == b.test.record_set()


def test_split_changes_with_seed():
    ds = _dataset({u: 10 for u in range(1, 20)})
    a = split_train_test(ds, 0.8, seed=1)
    b = split_train_test(ds, 0.8, seed=2)
    assert a.train.record_set() != b.train.record_set()


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
    assert pair.train.record_set() | pair.test.record_set() == ds.record_set()
    assert not (pair.train.record_set() & pair.test.record_set())
    for u, n in n_per_user.items():
        expected_train = int(fraction * n + 0.5)
        assert len(pair.train.by_user.get(u, ())) == expected_train


def test_csv_round_trip(tmp_path):
    ds = parse_ratings(io.StringIO("1,1,5.0,99\n1,2,4.5\n2,1,3.0\n"), "csv")
    path = tmp_path / "out.csv"
    write_ratings_csv(ds, path)
    again = parse_ratings(path, "csv")
    assert again.record_set() == ds.record_set()


def test_csv_round_trip_preserves_split(tmp_path):
    ds = _dataset({1: 9, 2: 5, 3: 2})
    pair = split_train_test(ds, 0.8, seed=5)
    p = tmp_path / "train.csv"
    write_ratings_csv(pair.train, p)
    assert parse_ratings(p, "csv").record_set() == pair.train.record_set()


def test_dataset_summary():
    ds = _dataset({1: 10, 2: 2})
    s = dataset_summary(ds)
    assert s["users"] == 2
    assert s["max_ratings_per_user"] == 10
    assert s["avg_ratings_per_user"] == 6.0
