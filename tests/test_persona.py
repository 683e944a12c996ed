import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topiccf.ingest import RatingDataset, RatingRecord
from topiccf.lda import ItemTopicProfile
from topiccf.persona import (
    build_all_personas,
    build_persona,
    load_personas_csv,
    undefined_count,
    write_personas_csv,
)

from oracles import naive_persona


def _profiles(rows):
    return {i: ItemTopicProfile(i, np.array(d, dtype=float)) for i, d in rows.items()}


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
    rows = np.array([profiles[i].distribution for i in range(n_items)])
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
    want = ((1.1 / total) * profiles[10].distribution + (1.3 / total) * profiles[11].distribution
            + (1.1 / total) * profiles[12].distribution)
    assert p.distribution.tolist() == want.tolist()
