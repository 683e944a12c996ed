import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topiccf.ingest import RatingDataset, RatingRecord
from topiccf import similarity
from topiccf.persona import UserPersona
from topiccf.similarity import (
    hybrid_similarity,
    item_llr_similarity,
    llr_similarity,
    pearson_similarity,
    symmetric_kl,
    topic_similarity,
)

from oracles import naive_hybrid, naive_llr, naive_pearson, naive_symmetric_kl
from synth import random_dataset, random_personas

# Frozen oracle values (scipy.stats.entropy / scipy.stats.pearsonr / entropy-form G2)
SYM_KL_HALF_QUARTER = 0.2746530721670274
TOPIC_SIM_HALF_QUARTER = 0.7598356856515925
PEARSON_425_514 = 0.8386278693775345
LLR_2_OF_4_4_N10 = 0.21684465411960363
HYBRID_PRODUCT = TOPIC_SIM_HALF_QUARTER * LLR_2_OF_4_4_N10  # 0.16476630644285145


def _persona(user, dist):
    return UserPersona(user, np.array(dist, dtype=float), documented_item_count=1)


def _ds(by_user):
    records = [
        RatingRecord(u, i, r)
        for u, pairs in by_user.items()
        for i, r in pairs
    ]
    return RatingDataset(records)


# ---------- symmetric KL ----------

def test_kl_identity_is_exact_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert symmetric_kl(p, p) == 0.0


def test_kl_frozen_value():
    assert symmetric_kl([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
        SYM_KL_HALF_QUARTER, abs=1e-12
    )


def test_kl_dimension_mismatch():
    with pytest.raises(ValueError):
        symmetric_kl([0.5, 0.5], [0.2, 0.3, 0.5])


def test_kl_rejects_unnormalized():
    with pytest.raises(ValueError):
        symmetric_kl([0.5, 0.6], [0.5, 0.5])


def test_kl_rejects_nan():
    with pytest.raises(ValueError, match="does not sum to 1"):
        symmetric_kl([math.nan, 0.5], [0.5, 0.5])


def test_kl_handles_zeros_via_floor():
    v = symmetric_kl([1.0, 0.0], [0.5, 0.5])
    assert math.isfinite(v) and v > 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31))
def test_kl_symmetric_and_nonnegative(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(5))
    q = rng.dirichlet(np.ones(5))
    assert symmetric_kl(p, q) == symmetric_kl(q, p)
    assert symmetric_kl(p, q) >= 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31))
def test_kl_floor_is_noop_on_strictly_positive(seed):
    # no-floor direct computation agrees within 1e-9 on strictly positive inputs
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    direct = float(np.sum(p * np.log(p / q)) + np.sum(q * np.log(q / p)))
    assert symmetric_kl(p, q) == pytest.approx(direct, abs=1e-9)


# ---------- topic similarity ----------

def test_identical_personas_similarity_one():
    u = _persona(1, [0.3, 0.7])
    v = _persona(2, [0.3, 0.7])
    assert topic_similarity(u, v) == (1.0, True)


def test_topic_similarity_frozen_value():
    s = topic_similarity(_persona(1, [0.5, 0.5]), _persona(2, [0.25, 0.75]))
    assert s.defined
    assert s.value == pytest.approx(TOPIC_SIM_HALF_QUARTER, abs=1e-12)


def test_undefined_persona_propagates():
    u = _persona(1, [0.5, 0.5])
    v = UserPersona(2, None, documented_item_count=0)
    assert not topic_similarity(u, v).defined
    assert not topic_similarity(v, u).defined
    assert not topic_similarity(None, u).defined


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31))
def test_topic_similarity_decreases_with_divergence(seed):
    rng = np.random.default_rng(seed)
    base = rng.dirichlet(np.ones(4))
    near = 0.9 * base + 0.1 * np.full(4, 0.25)
    far = 0.1 * base + 0.9 * rng.dirichlet(np.ones(4))
    kl_near = symmetric_kl(base, near)
    kl_far = symmetric_kl(base, far)
    s_near = topic_similarity(_persona(1, base), _persona(2, near)).value
    s_far = topic_similarity(_persona(1, base), _persona(3, far)).value
    if kl_near < kl_far:
        assert s_near > s_far


# ---------- pearson ----------

def test_pearson_frozen_value():
    train = _ds({1: [(10, 4.0), (11, 2.0), (12, 5.0)],
                 2: [(10, 5.0), (11, 1.0), (12, 4.0)]})
    s = pearson_similarity(1, 2, train)
    assert s.defined
    assert s.value == pytest.approx(PEARSON_425_514, abs=1e-12)


def test_pearson_self_correlation_exact_one():
    train = _ds({1: [(10, 4.0), (11, 2.0)], 2: [(10, 4.0), (11, 2.0)]})
    assert pearson_similarity(1, 2, train) == (1.0, True)


def test_pearson_single_corated_undefined():
    train = _ds({1: [(10, 4.0), (11, 2.0)], 2: [(10, 5.0), (12, 1.0)]})
    assert not pearson_similarity(1, 2, train).defined


def test_pearson_constant_ratings_undefined():
    train = _ds({1: [(10, 3.0), (11, 3.0)], 2: [(10, 5.0), (11, 1.0)]})
    assert not pearson_similarity(1, 2, train).defined


def test_pearson_no_overlap_undefined():
    train = _ds({1: [(10, 3.0)], 2: [(11, 5.0)]})
    assert not pearson_similarity(1, 2, train).defined


# ---------- llr ----------

def test_llr_frozen_value():
    # |I_u| = |I_v| = 4, overlap 2, universe 10
    train = _ds({
        1: [(i, 3.0) for i in (1, 2, 3, 4)],
        2: [(i, 3.0) for i in (3, 4, 5, 6)],
        3: [(i, 3.0) for i in (7, 8, 9, 10)],
    })
    assert train.num_items == 10
    s = llr_similarity(1, 2, train)
    assert s.defined
    assert s.value == pytest.approx(LLR_2_OF_4_4_N10, abs=1e-12)


def test_llr_identical_sets_near_one():
    shared = [(i, 4.0) for i in range(1, 21)]
    filler = [(i, 3.0) for i in range(21, 1001)]
    train = _ds({1: shared, 2: shared, 3: filler})
    assert train.num_items == 1000
    assert llr_similarity(1, 2, train).value > 0.9


def test_llr_independence_boundary_zero():
    # 2x2 table exactly at independence: 4 items, both users hold 2, overlap 1
    train = _ds({
        1: [(1, 3.0), (2, 3.0)],
        2: [(2, 3.0), (3, 3.0)],
        3: [(4, 3.0)],
    })
    assert train.num_items == 4
    assert llr_similarity(1, 2, train).value == 0.0


def test_llr_empty_user_zero():
    train = _ds({1: [(1, 3.0), (2, 3.0)]})
    assert llr_similarity(1, 99, train).value == 0.0


def test_llr_symmetric():
    train = random_dataset(np.random.default_rng(3))
    users = train.users()
    for u in users:
        for v in users:
            assert llr_similarity(u, v, train).value == llr_similarity(v, u, train).value


# ---------- item llr ----------

def test_item_llr_identical_rater_sets():
    records = [RatingRecord(u, 1, 4.0) for u in range(1, 21)]
    records += [RatingRecord(u, 2, 3.0) for u in range(1, 21)]
    records += [RatingRecord(u, 3, 2.0) for u in range(21, 1001)]
    train = RatingDataset(records)
    assert train.num_users == 1000
    assert item_llr_similarity(1, 2, train).value > 0.9


def test_item_llr_unrated_item_zero():
    train = _ds({1: [(1, 3.0)], 2: [(1, 4.0)]})
    assert item_llr_similarity(1, 99, train).value == 0.0


def test_item_llr_symmetric():
    train = random_dataset(np.random.default_rng(4))
    items = train.items()
    for i in items[:6]:
        for j in items[:6]:
            assert item_llr_similarity(i, j, train).value == item_llr_similarity(j, i, train).value


# ---------- hybrid ----------

def test_hybrid_frozen_product():
    train = _ds({
        1: [(i, 3.0) for i in (1, 2, 3, 4)],
        2: [(i, 3.0) for i in (3, 4, 5, 6)],
        3: [(i, 3.0) for i in (7, 8, 9, 10)],
    })
    personas = {1: _persona(1, [0.5, 0.5]), 2: _persona(2, [0.25, 0.75])}
    s = hybrid_similarity(1, 2, personas, train)
    assert s.defined
    assert s.value == pytest.approx(HYBRID_PRODUCT, abs=1e-12)


def test_hybrid_identical_users_high():
    shared = [(i, 4.0) for i in range(1, 21)]
    filler = [(i, 3.0) for i in range(21, 1001)]
    train = _ds({1: shared, 2: shared, 3: filler})
    personas = {1: _persona(1, [0.6, 0.4]), 2: _persona(2, [0.6, 0.4])}
    assert hybrid_similarity(1, 2, personas, train).value > 0.9


def test_hybrid_zero_overlap_empty_user():
    # identical personas, but u has no train items: LLR term is exactly 0
    train = _ds({2: [(1, 4.0), (2, 4.0)]})
    personas = {1: _persona(1, [0.5, 0.5]), 2: _persona(2, [0.5, 0.5])}
    assert hybrid_similarity(1, 2, personas, train).value == 0.0


def test_hybrid_falls_back_to_llr_when_persona_undefined():
    train = _ds({
        1: [(i, 3.0) for i in (1, 2, 3, 4)],
        2: [(i, 3.0) for i in (3, 4, 5, 6)],
        3: [(i, 3.0) for i in (7, 8, 9, 10)],
    })
    personas = {1: UserPersona(1, None, documented_item_count=0),
                2: _persona(2, [0.25, 0.75])}
    s = hybrid_similarity(1, 2, personas, train)
    assert s.defined
    assert s.value == pytest.approx(LLR_2_OF_4_4_N10, abs=1e-12)


def test_audit_computes_each_pair_once(tmp_path, monkeypatch):
    calls = {"topic": 0, "llr": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(similarity, "topic_similarity", counted("topic", topic_similarity))
    monkeypatch.setattr(similarity, "llr_similarity", counted("llr", llr_similarity))
    rng = np.random.default_rng(4)
    train = random_dataset(rng)
    personas = random_personas(rng, train.users(), undefined_fraction=0.2)
    similarity.write_similarity_audit(tmp_path / "sims.csv", personas, train)
    pairs = train.num_users * (train.num_users - 1) // 2
    assert calls == {"topic": pairs, "llr": pairs}


# ---------- brute-force equivalence on random instances ----------

def test_matches_naive_oracles_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(10):
        train = random_dataset(rng)
        users = train.users()
        personas = random_personas(rng, users, undefined_fraction=0.15)
        raw = {u: (p.distribution if p.defined else None) for u, p in personas.items()}
        for u in users:
            for v in users:
                if u == v:
                    continue
                mine = pearson_similarity(u, v, train)
                ref = naive_pearson(dict(train.by_user[u]), dict(train.by_user[v]))
                if ref is None:
                    assert not mine.defined
                else:
                    assert mine.defined
                    assert mine.value == pytest.approx(ref, abs=1e-9)

                assert llr_similarity(u, v, train).value == pytest.approx(
                    naive_llr(train.user_items(u), train.user_items(v), train.num_items),
                    abs=1e-9,
                )

                t_mine = topic_similarity(personas[u], personas[v])
                if raw[u] is None or raw[v] is None:
                    assert not t_mine.defined
                else:
                    assert t_mine.value == pytest.approx(
                        math.exp(-naive_symmetric_kl(raw[u], raw[v])), abs=1e-9
                    )

                assert hybrid_similarity(u, v, personas, train).value == pytest.approx(
                    naive_hybrid(raw[u], raw[v], train.user_items(u),
                                 train.user_items(v), train.num_items),
                    abs=1e-9,
                )


# ---------- batch rows: bit-identical to the per-pair functions ----------

def _row_instances():
    """Desk-shaped random instances whose personas include undefined ones,
    missing ones and one with exact zeros (so the KL floor acts)."""
    rng = np.random.default_rng(2024)
    for _ in range(3):
        train = random_dataset(rng, max_users=40, max_items=60, density=0.2)
        users = train.users()
        personas = random_personas(rng, users, n_topics=4, undefined_fraction=0.25)
        del personas[users[-1]]
        personas[users[0]] = _persona(users[0], [0.5, 0.5, 0.0, 0.0])
        yield train, personas


def _first_error(fn):
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


def test_index_rows_hold_each_users_items_and_each_items_users():
    for train, _ in _row_instances():
        ix = train.index
        for pos, u in enumerate(ix.user_ids.tolist()):
            row = ix.user_items[ix.user_ptr[pos]:ix.user_ptr[pos + 1]]
            assert ix.item_ids[row].tolist() == [i for i, _ in train.by_user[u]]
            assert ix.user_degree[pos] == len(row)
        for pos, i in enumerate(ix.item_ids.tolist()):
            row = ix.item_users[ix.item_ptr[pos]:ix.item_ptr[pos + 1]]
            assert ix.user_ids[row].tolist() == sorted(train.item_users(i))
            assert ix.item_degree[pos] == len(row)


def test_llr_row_equals_llr_similarity_bit_for_bit():
    for train, _ in _row_instances():
        users = train.users()
        for u in users + [max(users) + 1]:  # the last one is absent from train
            assert similarity.llr_row(u, train).tolist() == [
                llr_similarity(u, v, train).value for v in users]


def test_item_llr_col_equals_item_llr_similarity_bit_for_bit():
    for train, _ in _row_instances():
        items = train.items()
        for j in items:
            assert similarity.item_llr_col(j, train).tolist() == [
                item_llr_similarity(i, j, train).value for i in items]


def test_topic_and_hybrid_rows_equal_pairwise_bit_for_bit():
    for train, personas in _row_instances():
        users = train.users()
        for u in users + [max(users) + 1]:
            row = similarity.topic_row(u, personas, train)
            want = [topic_similarity(personas.get(u), personas.get(v)) for v in users]
            assert (~np.isnan(row)).tolist() == [s.defined for s in want]
            assert row[~np.isnan(row)].tolist() == [s.value for s in want if s.defined]
            assert similarity.hybrid_row(u, personas, train).tolist() == [
                hybrid_similarity(u, v, personas, train).value for v in users]


@pytest.mark.parametrize("bad", [[0.25, 0.25, 0.25, 0.2], [0.5, 0.5], [0.6, 0.6, 0.0, 0.0],
                                 [math.nan, 0.25, 0.25, 0.5]])
def test_topic_row_raises_the_per_pair_error(bad):
    train, personas = next(_row_instances())
    users = train.users()
    defined = [u for u in users if u in personas and personas[u].defined]
    personas[defined[2]] = _persona(defined[2], bad)
    errors = set()
    for u in users:
        want = _first_error(lambda: [
            topic_similarity(personas.get(u), personas.get(v)) for v in users])
        assert _first_error(lambda: similarity.topic_row(u, personas, train)) == want
        assert _first_error(lambda: similarity.hybrid_row(u, personas, train)) == want
        errors.add(want)
    assert len(errors - {None}) >= (1 if len(bad) == 2 else 2)  # as p and as q


def test_per_pair_llr_and_hybrid_values_are_pinned():
    # The per-pair values' bits: any other arithmetic for the LLR table, G2 or
    # the hybrid rule changes this digest; any rewrite of them must match it.
    digest = hashlib.sha256()
    for train, personas in _row_instances():
        users, items = train.users(), train.items()
        for u in users:
            for v in users:
                digest.update(llr_similarity(u, v, train).value.hex().encode())
                digest.update(hybrid_similarity(u, v, personas, train).value.hex().encode())
        for i in items:
            for j in items:
                digest.update(item_llr_similarity(i, j, train).value.hex().encode())
    assert digest.hexdigest() == (
        "cc388663f06010ae9ad01b90a1198b58abf4abc22ebd149cdb893523f5e50405")
