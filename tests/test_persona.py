import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topiccf import lda, similarity
from topiccf.ingest import RatingDataset, RatingRecord
from topiccf.persona import (
    PersonaTable,
    UserPersona,
    build_all_personas,
    build_persona,
    load_personas_csv,
    undefined_count,
    write_personas_csv,
)

from oracles import ds_records, loop_persona, naive_persona, repr_rows_text
from synth import random_dataset


def _profiles(rows):
    return {i: np.array(d, dtype=float) for i, d in rows.items()}


def test_hand_weighted_mix():
    profiles = _profiles({1: [0.8, 0.2], 2: [0.2, 0.8]})
    p = build_persona(9, [(1, 4.0), (2, 1.0)], profiles)
    np.testing.assert_allclose(p.distribution, [0.68, 0.32], atol=1e-12)
    assert p.documented_item_count == 2


def test_single_item_is_identity():
    profiles = _profiles({1: [0.3, 0.5, 0.2]})
    p = build_persona(9, [(1, 2.5)], profiles)
    np.testing.assert_allclose(p.distribution, [0.3, 0.5, 0.2], atol=1e-15)


def test_all_items_undocumented_is_undefined():
    p = build_persona(9, [(1, 4.0), (2, 3.0)], {})
    assert not p.defined
    assert p.documented_item_count == 0
    assert p.distribution is None


def test_partially_documented_renormalizes():
    profiles = _profiles({1: [1.0, 0.0]})
    p = build_persona(9, [(1, 2.0), (5, 5.0)], profiles)
    np.testing.assert_allclose(p.distribution, [1.0, 0.0], atol=1e-15)
    assert p.documented_item_count == 1


def test_build_all_personas():
    train = RatingDataset([
        RatingRecord(1, 10, 5.0),
        RatingRecord(2, 20, 3.0),
    ])
    profiles = _profiles({10: [0.9, 0.1], 20: [0.1, 0.9]})
    personas = build_all_personas(train, profiles)
    assert set(personas) == {1, 2}
    assert all(p.defined for p in personas.values())


def test_repeated_rating_weighs_its_item_once():
    train = RatingDataset([
        RatingRecord(1, 5, 2.0), RatingRecord(1, 6, 4.0), RatingRecord(1, 5, 4.0),
        RatingRecord(2, 5, 3.0), RatingRecord(2, 7, 5.0),
    ])
    personas = build_all_personas(train, _profiles({5: [1.0, 0.0], 6: [0.0, 1.0]}))
    np.testing.assert_allclose(personas[1].distribution, [0.5, 0.5], atol=1e-15)


def test_a_table_is_a_read_only_map_over_its_block_and_dict_gives_an_editable_copy(tmp_path):
    train = RatingDataset([RatingRecord(1, 10, 5.0), RatingRecord(2, 20, 3.0),
                           RatingRecord(3, 30, 4.0)])
    table = build_all_personas(train, _profiles({10: [0.9, 0.1], 20: [0.1, 0.9]}))
    assert isinstance(table, PersonaTable) and list(table) == [1, 2, 3]
    assert table.user_ids is train.user_runs[0]
    assert table.defined.tolist() == [True, True, False] and table.counts.tolist() == [1, 1, 0]
    # the scatter-add leaves an undefined row at -0.0; the table holds +0.0
    assert table.block.tolist() == [[0.9, 0.1], [0.1, 0.9], [0.0, 0.0]]
    assert not np.signbit(table.block).any()
    assert table[1].distribution.base is table.block and table[3] == UserPersona(3, None, 0)
    with pytest.raises(TypeError):
        table[1] = UserPersona(1, None, 0)
    with pytest.raises(TypeError):
        del table[1]
    for array in (table.block, table.defined):
        with pytest.raises(ValueError):
            array[0] = 0
    copy = dict(table)
    copy[1] = UserPersona(1, None, 0)
    del copy[2]
    assert table[1].defined and 2 in table and list(copy) == [1, 3]
    write_personas_csv(table, tmp_path / "personas.csv")
    loaded = load_personas_csv(tmp_path / "personas.csv")
    assert loaded.counts is None and [loaded[u].documented_item_count for u in loaded] == [None, None, 0]
    assert loaded.block.tobytes() == table.block.tobytes()


@pytest.mark.parametrize("how", ["pickle", "copy"])
def test_a_pickled_or_copied_table_stays_read_only_over_its_own_block(how):
    train = RatingDataset([RatingRecord(1, 10, 5.0), RatingRecord(2, 20, 3.0),
                           RatingRecord(2, 10, 1.0), RatingRecord(3, 30, 4.0)])
    table = build_all_personas(train, _profiles({10: [0.9, 0.1], 20: [0.2, 0.8]}))
    table.topic_block  # a cached block is not carried over
    twin = pickle.loads(pickle.dumps(table)) if how == "pickle" else copy.copy(table)
    assert isinstance(twin, PersonaTable) and twin is not table
    for array in (twin.block, twin.defined):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    assert not np.shares_memory(twin.block, table.block)
    assert twin[1].distribution.base is twin.block and twin[2].distribution.base is twin.block
    assert list(twin) == list(table) and twin.user_ids.tolist() == table.user_ids.tolist()
    assert twin.counts.tolist() == table.counts.tolist() == [1, 2, 0]
    assert twin.block.tobytes() == table.block.tobytes()
    assert twin.defined.tolist() == table.defined.tolist() and twin[3] == table[3]
    for u in train.users():
        assert (similarity.topic_row(u, twin, train).tobytes()
                == similarity.topic_row(u, table, train).tobytes())


def test_build_all_personas_empty_train():
    assert build_all_personas(RatingDataset([]), {}) == {}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.floats(1.0, 5.0)),
        min_size=1, max_size=6, unique_by=lambda t: t[0],
    ),
    st.floats(min_value=0.1, max_value=10.0),
    st.integers(0, 2**31),
)
def test_scaling_all_ratings_leaves_persona_unchanged(ratings, c, seed):
    rng = np.random.default_rng(seed)
    profiles = _profiles({i: rng.dirichlet(np.ones(4)) for i, _ in ratings})
    base = build_persona(1, ratings, profiles)
    scaled = build_persona(1, [(i, c * r) for i, r in ratings], profiles)
    np.testing.assert_allclose(base.distribution, scaled.distribution, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 6))
def test_distribution_and_convexity(seed, n_items):
    rng = np.random.default_rng(seed)
    profiles = _profiles({i: rng.dirichlet(np.ones(3)) for i in range(n_items)})
    ratings = [(i, float(rng.integers(1, 6))) for i in range(n_items)]
    p = build_persona(1, ratings, profiles)
    assert p.distribution.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(p.distribution >= 0)
    rows = np.array([profiles[i] for i in range(n_items)])
    assert np.all(p.distribution <= rows.max(axis=0) + 1e-12)
    assert np.all(p.distribution >= rows.min(axis=0) - 1e-12)


def test_matches_naive_oracle():
    rng = np.random.default_rng(17)
    raw = {i: rng.dirichlet(np.ones(5)) for i in range(8)}
    profiles = _profiles({i: list(d) for i, d in raw.items()})
    ratings = [(i, float(rng.integers(1, 6))) for i in range(0, 8, 2)]
    mine = build_persona(1, ratings, profiles)
    ref = naive_persona(ratings, raw)
    np.testing.assert_allclose(mine.distribution, ref, atol=1e-12)


def test_personas_csv_round_trip(tmp_path):
    profiles = _profiles({1: [0.8, 0.2], 2: [0.2, 0.8]})
    personas = {
        7: build_persona(7, [(1, 4.0), (2, 1.0)], profiles),
        8: build_persona(8, [(99, 3.0)], profiles),  # undefined
    }
    path = tmp_path / "personas.csv"
    write_personas_csv(personas, path)
    text = path.read_text()
    assert text.rstrip().endswith("#undefined:1")
    loaded = load_personas_csv(path)
    np.testing.assert_array_equal(loaded[7].distribution, personas[7].distribution)
    assert not loaded[8].defined
    assert undefined_count(loaded) == 1


def test_all_undefined_personas_csv_round_trip(tmp_path):
    profiles = _profiles({1: [0.8, 0.2]})
    personas = {u: build_persona(u, [(99, 3.0)], profiles) for u in (1, 2)}
    path = tmp_path / "personas.csv"
    write_personas_csv(personas, path)
    loaded = load_personas_csv(path)
    assert sorted(loaded) == [1, 2]
    assert undefined_count(loaded) == 2


def test_total_is_the_left_to_right_sum_in_item_order():
    # 1.1 + 1.3 + 1.1 is 3.5000000000000004 added left to right (Python 3.11's
    # sum) and 3.5 compensated (Python 3.12's); the total is the former.
    profiles = _profiles({10: [0.5, 0.25, 0.25], 11: [0.1, 0.2, 0.7], 12: [0.3, 0.3, 0.4]})
    p = build_persona(1, [(10, 1.1), (11, 1.3), (12, 1.1)], profiles)
    total = 3.5000000000000004
    want = ((1.1 / total) * profiles[10] + (1.3 / total) * profiles[11]
            + (1.1 / total) * profiles[12])
    assert p.distribution.tolist() == want.tolist()


def _assert_matches_loop(personas, train, raw):
    by_user = {}
    for r in ds_records(train):
        by_user.setdefault(r.user_id, []).append((r.item_id, r.rating))
    assert sorted(personas) == sorted(by_user)
    for u, ratings in by_user.items():
        want, count = loop_persona(ratings, raw)
        p = personas[u]
        assert p.documented_item_count == count
        if want is None:
            assert not p.defined
        else:
            assert p.distribution.tobytes() == want.tobytes()
            assert not p.distribution.flags.writeable
        alone = build_persona(u, ratings, _profiles(raw))
        assert alone.documented_item_count == count
        assert (alone.distribution is None) == (want is None)
        if want is not None:
            assert alone.distribution.tobytes() == want.tobytes()


def test_build_all_personas_is_the_per_user_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    raw = {i: rng.dirichlet(np.ones(7)) for i in (2, 4, 8, 9)}  # nobody rates 9
    raw[5] = np.array([-0.0, 0.25, 0.0, 0.5, 0.125, 0.0625, 0.0625])  # theta.csv may hold -0.0
    train = RatingDataset([
        # non-dyadic ratings, undocumented items 3 and 6 between documented ones
        RatingRecord(1, 2, 1.1), RatingRecord(1, 3, 4.7), RatingRecord(1, 4, 1.3),
        RatingRecord(1, 5, 1.1), RatingRecord(1, 6, 2.9), RatingRecord(1, 8, 4.3),
        RatingRecord(2, 3, 5.0), RatingRecord(2, 6, 1.0),  # nothing documented
        RatingRecord(3, 5, 3.3),                            # one rating
        RatingRecord(4, 1, 1.7), RatingRecord(4, 2, 1.3), RatingRecord(4, 8, 1.1),
    ])
    personas = build_all_personas(train, _profiles(raw))
    assert [personas[u].documented_item_count for u in (1, 2, 3, 4)] == [4, 0, 1, 2]
    assert not personas[2].defined
    assert personas[3].distribution.tobytes() == raw[5].tobytes()
    _assert_matches_loop(personas, train, raw)


def test_a_topic_of_negative_zeros_keeps_its_sign_and_a_later_term_replaces_it():
    raw = {5: np.array([-0.0, 0.5, 0.5]), 7: np.array([-0.0, 0.25, 0.75]),
           8: np.array([0.375, 0.0, 0.625]), 9: np.array([0.0, 0.125, 0.875])}
    train = RatingDataset([
        RatingRecord(1, 5, 1.1), RatingRecord(1, 6, 4.0), RatingRecord(1, 7, 2.3),  # all -0.0
        RatingRecord(2, 5, 3.3), RatingRecord(2, 8, 1.3),  # -0.0, then positive
        RatingRecord(3, 5, 2.0), RatingRecord(3, 9, 4.0),  # -0.0, then 0.0
    ])
    personas = build_all_personas(train, _profiles(raw))
    assert personas[1].documented_item_count == 2
    assert str(personas[1].distribution[0]) == "-0.0"
    assert personas[2].distribution[0] == (1.3 / (3.3 + 1.3)) * 0.375
    assert str(personas[3].distribution[0]) == "0.0"
    _assert_matches_loop(personas, train, raw)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31))
def test_random_personas_are_the_per_user_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    train = random_dataset(rng, max_users=12, max_items=20,
                           rating_choices=(1.0, 1.1, 1.3, 2.7, 3.3, 4.9, 5.0))
    raw = {i: rng.dirichlet(np.ones(4)) for i in range(1, 24) if rng.random() < 0.6}
    _assert_matches_loop(build_all_personas(train, _profiles(raw)), train, raw)


def test_build_all_personas_leaves_by_user_unbuilt():
    # The persona build reads the columns by user_runs: it builds no tuple view and no
    # CSR index (the index costs an argsort of every rating).
    train = RatingDataset([RatingRecord(1, 10, 5.0), RatingRecord(2, 20, 3.0)])
    build_all_personas(train, _profiles({10: [0.9, 0.1], 20: [0.1, 0.9]}))
    assert "by_user" not in train.__dict__
    assert "index" not in train.__dict__


@pytest.mark.parametrize("block", [1, 9, None])  # values per write_rows block; None: default
def test_personas_csv_is_each_value_by_its_own_repr(tmp_path, monkeypatch, block):
    if block:
        monkeypatch.setattr(lda, "_BLOCK_CELLS", block)
    personas = {
        3: UserPersona(3, np.array([0.25, 0.25, 0.5, 0.0])),   # repeated values
        1: UserPersona(1, np.array([0.5, -0.0, 0.5, 0.0])),    # -0.0 beside 0.0
        2: UserPersona(2, None, documented_item_count=0),     # all-zero row
        5: UserPersona(5, np.array([1e-16, 0.1, 0.2, 0.7 - 1e-16])),
    }
    path = tmp_path / "personas.csv"
    write_personas_csv(personas, path)
    rows = [(u, personas[u].distribution if personas[u].defined else np.zeros(4))
            for u in sorted(personas)]
    assert path.read_text() == repr_rows_text(rows, trailer="#undefined:1\n")
    assert "1,0.5,-0.0,0.5,0.0\n" in path.read_text()


def test_a_persona_is_frozen():
    # The topic row keeps its block while every persona object in the map is the
    # same one, so a persona must not change under it: a new distribution is a new persona.
    persona = build_persona(1, [(10, 4.0)], _profiles({10: [0.9, 0.1]}))
    with pytest.raises(dataclasses.FrozenInstanceError):
        persona.distribution = np.array([0.1, 0.9])
    with pytest.raises(dataclasses.FrozenInstanceError):
        persona.distribution = None
