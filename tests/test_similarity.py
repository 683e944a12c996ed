import gc
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topiccf.ingest import RatingColumns, RatingDataset, RatingRecord
from topiccf import lda, persona, similarity
from topiccf.lda import ItemTopicProfile
from topiccf.persona import UserPersona
from topiccf.similarity import (
    hybrid_similarity,
    item_llr_similarity,
    llr_similarity,
    pearson_similarity,
    symmetric_kl,
    topic_similarity,
)

from oracles import (
    ds_by_user,
    ds_item_users,
    ds_records,
    ds_user_items,
    naive_hybrid,
    naive_llr,
    naive_pearson,
    naive_symmetric_kl,
)
from synth import desk_instance, random_dataset, random_personas

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


def test_audit_takes_one_topic_row_and_one_llr_row_per_user(tmp_path, monkeypatch):
    calls = dict.fromkeys(["topic_row", "llr_row", "topic_similarity", "llr_similarity"], 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(similarity, name, counted(name, getattr(similarity, name)))
    rng = np.random.default_rng(4)
    train = random_dataset(rng)
    personas = random_personas(rng, train.users(), undefined_fraction=0.2)
    similarity.write_similarity_audit(tmp_path / "sims.csv", personas, train)
    n = train.num_users
    assert calls == {"topic_row": n, "llr_row": n, "topic_similarity": 0, "llr_similarity": 0}


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
                ref = naive_pearson(dict(ds_by_user(train)[u]), dict(ds_by_user(train)[v]))
                if ref is None:
                    assert not mine.defined
                else:
                    assert mine.defined
                    assert mine.value == pytest.approx(ref, abs=1e-9)

                assert llr_similarity(u, v, train).value == pytest.approx(
                    naive_llr(ds_user_items(train, u), ds_user_items(train, v), train.num_items),
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
                    naive_hybrid(raw[u], raw[v], ds_user_items(train, u),
                                 ds_user_items(train, v), train.num_items),
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


def test_audit_lines_are_the_per_pair_values(tmp_path):
    # Undefined, missing and floored-zero personas included; formatted as the
    # per-pair audit wrote them.
    path = tmp_path / "sims.csv"
    for train, personas in _row_instances():
        similarity.write_similarity_audit(path, personas, train)
        users = train.users()
        want = ["user_a,user_b,topic,llr,hybrid"]
        for pos, a in enumerate(users):
            for b in users[pos + 1:]:
                topic = topic_similarity(personas.get(a), personas.get(b))
                want.append(f"{a},{b},{repr(topic.value) if topic.defined else 'undefined'},"
                            f"{llr_similarity(a, b, train).value!r},"
                            f"{hybrid_similarity(a, b, personas, train).value!r}")
        assert path.read_text().splitlines() == want
    # a persona of the wrong width in the last instance
    defined = [u for u in users if u in personas and personas[u].defined]
    personas[defined[2]] = _persona(defined[2], [0.5, 0.5])
    with pytest.raises(ValueError, match="dimension mismatch"):
        similarity.write_similarity_audit(path, personas, train)


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
            assert ix.item_ids[row].tolist() == [i for i, _ in ds_by_user(train)[u]]
            assert ix.user_degree[pos] == len(row)
        for pos, i in enumerate(ix.item_ids.tolist()):
            row = ix.item_users[ix.item_ptr[pos]:ix.item_ptr[pos + 1]]
            assert ix.user_ids[row].tolist() == sorted(ds_item_users(train, i))
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


def _block_instances():
    """The desk fixture, then random instances each with an item that has one rater."""
    yield desk_instance()[0]
    for train, _ in _row_instances():
        user, item = train.users()[0], max(train.items()) + 1
        yield RatingDataset(ds_records(train) + (RatingRecord(user, item, 3.0),))


def test_item_llr_block_rows_are_the_item_columns_bit_for_bit():
    for train in _block_instances():
        block = similarity.item_llr_block(train)
        items = train.index.item_ids.tolist()
        assert block.shape == (len(items), len(items)) and block.dtype == np.float64
        assert (train.index.item_degree == 1).any()
        for j, item in enumerate(items):
            assert (_bits(block[j]) == _bits(similarity.item_llr_col(item, train))).all()


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
    # The rows raise exactly where the per-pair loop does, with their own message
    # naming the bad persona's user: a candidate's, or the user's own outside train.
    phrase = "does not sum to 1" if len(bad) == 4 else "dimension mismatch"
    train, personas = next(_row_instances())
    users = train.users()
    outsider = max(users) + 1
    defined = [u for u in users if u in personas and personas[u].defined]
    for culprit in (defined[2], outsider):
        mine = dict(personas)
        mine[culprit] = _persona(culprit, bad)
        raised = 0
        for u in users + [outsider]:
            want = _first_error(lambda: [
                topic_similarity(mine.get(u), mine.get(v)) for v in users])
            for row in (similarity.topic_row, similarity.hybrid_row):
                got = _first_error(lambda: row(u, mine, train))
                assert (got is None) == (want is None)
                assert got is None or (phrase in got and got.startswith(
                    (f"persona of user {culprit}:", f"persona of user {culprit} ")))
            raised += want is not None
        assert raised == (len(defined) if culprit in users else 1)


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
        "2e48a6c2c5a8b38e7d432975e6c85fd21c69fa3225ce88778bd40ca75c3356da")


def test_topic_row_scores_a_good_map_without_per_pair_calls(monkeypatch):
    # Bit for bit the per-pair values, the floored-zero persona's included.
    for train, personas in _row_instances():
        users = train.users()
        want = {u: [topic_similarity(personas.get(u), personas.get(v)) for v in users]
                for u in users}
        zero = personas[users[0]].distribution
        assert (zero == 0.0).any()
        monkeypatch.setattr(similarity, "topic_similarity", None)  # a call would raise
        for u in users:
            row = similarity.topic_row(u, personas, train)
            assert (~np.isnan(row)).tolist() == [s.defined for s in want[u]]
            assert row[~np.isnan(row)].tolist() == [s.value for s in want[u] if s.defined]
        monkeypatch.undo()


def _value_or_none(score):
    return score.value if score.defined else None


def test_topic_row_sees_personas_replaced_or_deleted_between_calls():
    train, personas = next(_row_instances())
    users = train.users()
    defined = [u for u in users if u in personas and personas[u].defined]
    u, v, w, x = defined[1], defined[2], defined[3], defined[4]

    def pairwise():
        return [_value_or_none(topic_similarity(personas.get(u), personas.get(c)))
                for c in users]

    def row():
        r = similarity.topic_row(u, personas, train)
        return [None if math.isnan(x) else x for x in r.tolist()]

    first = row()
    assert first == pairwise()
    personas[v] = _persona(v, [0.7, 0.1, 0.1, 0.1])
    second = row()
    assert second == pairwise() and second[users.index(v)] != first[users.index(v)]
    del personas[w]
    third = row()
    assert third == pairwise() and third[users.index(w)] is None
    personas[v] = UserPersona(v, None, documented_item_count=0)
    assert row() == pairwise() and row()[users.index(v)] is None
    personas = dict(personas)  # a copy of the map: the same persona objects
    assert row() == pairwise()
    before = row()[users.index(x)]
    personas[x].distribution[:] = [0.97, 0.01, 0.01, 0.01]  # a writable array, edited in place
    after = row()
    assert after == pairwise() and after[users.index(x)] != before


def test_topic_row_builds_one_block_per_read_only_persona_map(tmp_path, monkeypatch):
    # build_all_personas and load_personas_csv give read-only maps, whose block is
    # built once; a dict copy of one gets a new block on every row.
    rng = np.random.default_rng(11)
    train = random_dataset(rng, max_users=30, max_items=40, density=0.2)
    users, items = train.users(), train.items()
    profiles = {i: ItemTopicProfile(i, d)  # the first item undocumented
                for i, d in zip(items[1:], rng.dirichlet(np.ones(4), len(items) - 1))}
    built = persona.build_all_personas(train, profiles)
    persona.write_personas_csv(built, tmp_path / "personas.csv")
    loaded = persona.load_personas_csv(tmp_path / "personas.csv")
    t_major, calls = similarity._t_major, []
    monkeypatch.setattr(similarity, "_t_major", lambda dists: calls.append(1) or t_major(dists))
    for personas in (built, loaded):
        with pytest.raises(TypeError):
            personas[users[0]] = UserPersona(users[0], None, 0)
        defined = [u for u in users if personas[u].defined]
        assert 0 < len(defined) and all(
            not personas[u].distribution.flags.writeable for u in defined)
        calls.clear()
        for u in users:
            row = similarity.topic_row(u, personas, train)
            want = [topic_similarity(personas[u], personas.get(v)) for v in users]
            assert (~np.isnan(row)).tolist() == [s.defined for s in want]
            assert row[~np.isnan(row)].tolist() == [s.value for s in want if s.defined]
        assert len(calls) == 1
        copy = dict(personas)
        calls.clear()
        for u in users:
            similarity.topic_row(u, copy, train)
        assert len(calls) == len(defined)


_TOPIC_ROW_DIGEST = """
import hashlib, sys
import numpy as np
from topiccf import similarity
from topiccf.persona import UserPersona
from synth import random_dataset, random_personas

rng = np.random.default_rng(7)
train = random_dataset(rng, max_users=60, max_items=80, density=0.2)
users = train.users()
personas = random_personas(rng, users, n_topics=50, undefined_fraction=0.1)
for u in users:
    if personas[u].defined:
        personas[u] = UserPersona(u, rng.dirichlet(np.full(50, 0.2)), 1)
spiky = np.zeros(50)
spiky[:3] = [0.5, 0.25, 0.25]
personas[users[0]] = UserPersona(users[0], spiky, 1)
digest = hashlib.sha256()
for u in users:
    digest.update(similarity.topic_row(u, personas, train).tobytes())
    digest.update(similarity.hybrid_row(u, personas, train).tobytes())
print(digest.hexdigest())
"""


def _numpy_on_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 has no mode argument: its build info is in *_info dicts
        blas = {k: v for k, v in vars(np.__config__).items() if k.endswith("_info")}
    return "openblas" in str(blas).lower()


@pytest.mark.skipif(not _numpy_on_openblas(), reason="numpy is not linked to OpenBLAS")
def test_topic_rows_do_not_depend_on_the_openblas_kernel():
    # OpenBLAS picks a dot-product kernel for the CPU, or the one named by
    # OPENBLAS_CORETYPE; the kernels add in different orders.
    import topiccf

    path = os.pathsep.join([str(Path(topiccf.__file__).parents[1]), str(Path(__file__).parent)])
    digests = set()
    for coretype in (None, "Haswell", "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env.update(PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        done = subprocess.run([sys.executable, "-c", _TOPIC_ROW_DIGEST], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        digests.add(done.stdout.strip())
    assert len(digests) == 1


# ---------- native log and exp: bit-identical to math.log and math.exp ----------

def _native_loops():
    lib, how = lda.load_kernels()
    if lib is None:
        pytest.skip(how)
    return lib.topiccf_log, lib.topiccf_exp


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _mapped(native, x):
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    out = np.empty_like(x)
    native(x.size, x, out)
    return out


def test_native_log_equals_math_log_bit_for_bit():
    log = _native_loops()[0]
    rng = np.random.default_rng(17)
    one = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
    edges = [5e-324, np.finfo(float).tiny, similarity.KL_FLOOR, *one, 1e308]
    block = rng.dirichlet(np.full(50, 0.05), 200).T.copy()  # T-major, with values below the floor
    np.maximum(block, similarity.KL_FLOOR, out=block)
    block /= block.sum(axis=0)
    log_uniform = np.exp(rng.uniform(math.log(5e-324), math.log(1e308), 100_000))
    for x in (edges, block, log_uniform):
        x = np.ravel(x)
        assert (_bits(_mapped(log, x)) == _bits(list(map(math.log, x.tolist())))).all()


def test_native_exp_equals_math_exp_bit_for_bit():
    exp = _native_loops()[1]
    x = np.concatenate([[0.0, -0.0, -1e-300, -708.4, -745.1, -746.0],
                        np.linspace(-5.0, 0.0, 100_001)])
    assert (_bits(_mapped(exp, x)) == _bits(list(map(math.exp, x.tolist())))).all()


def test_rows_on_the_math_fallback_equal_the_native_rows(monkeypatch):
    _native_loops()
    train, personas = desk_instance()
    users, items = train.users(), train.items()

    def rows():
        return [_bits(f(u, personas, train)) for f in (similarity.topic_row,
                                                       similarity.hybrid_row) for u in users] + [
            _bits(similarity.llr_row(u, train)) for u in users] + [
            _bits(similarity.item_llr_col(i, train)) for i in items]

    native = rows()
    monkeypatch.setattr(lda, "load_kernels", lambda: (None, "python (test)"))
    fallback = rows()
    assert len(native) == len(fallback) == 3 * len(users) + len(items)
    for got, want in zip(fallback, native):
        assert (got == want).all()  # NaN positions included: their bits are equal too


def test_native_calls_leave_no_reference_cycles():
    # ndpointer's own conversion (arr.ctypes through ctypes.cast) left four objects
    # per _log call that only the cyclic garbage collector frees.
    x = np.linspace(0.5, 2.0, 64)
    train = desk_instance()[0]
    item = train.items()[0]
    similarity._log(x), similarity.item_llr_col(item, train)  # load and index first
    gc.collect()
    gc.disable()
    try:
        for _ in range(1000):
            similarity._log(x)
        for _ in range(100):
            similarity.item_llr_col(item, train)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------- item columns: native co-counts equal _co_counts ----------

@pytest.fixture(scope="module")
def ml1m_shape():
    """A train set of MovieLens-1M shape: 6040 users x 3706 items, about 800k
    ratings, user activity and item popularity both skewed."""
    rng = np.random.default_rng(11)
    n_users, n_items = 6040, 3706
    activity = np.minimum(20 + rng.lognormal(4.25, 1.1, n_users), 2000)
    popularity = 1.0 / (np.arange(n_items) + 20.0) ** 1.2
    popularity = popularity[rng.permutation(n_items)] / popularity.sum()
    users, items = [], []
    for start in range(0, n_users, 500):
        chance = np.minimum(activity[start:start + 500, None] * popularity, 1.0)
        u, i = np.nonzero(rng.random(chance.shape) < chance)
        users.append(u + start + 1)
        items.append(i + 1)
    user, item = np.concatenate(users), np.concatenate(items)
    n = len(user)
    return RatingDataset(RatingColumns(user, item, rng.integers(1, 6, n).astype(float),
                                       np.zeros(n, np.int64), np.zeros(n, bool)))


def _sampled_items(train, k=40):
    """The ids of the 5 most and 5 least rated items and k at evenly spaced degree quantiles."""
    ix = train.index
    by_degree = ix.item_ids[np.argsort(ix.item_degree, kind="stable")]
    picks = np.linspace(0, len(by_degree) - 1, k).astype(int)
    return [*by_degree[:5].tolist(), *by_degree[picks].tolist(), *by_degree[-5:].tolist()]


def test_native_co_counts_equal_the_numpy_twin(ml1m_shape):
    lib, how = lda.load_kernels()
    if lib is None:
        pytest.skip(how)
    desk = desk_instance()[0]
    assert 750_000 < len(ml1m_shape) < 900_000 and ml1m_shape.num_items == 3706
    for train, ids in ((desk, desk.items()), (ml1m_shape, _sampled_items(ml1m_shape))):
        ix = train.index
        for item in ids:
            j = int(np.searchsorted(ix.item_ids, item))
            users = ix.item_users[ix.item_ptr[j]:ix.item_ptr[j + 1]]
            want = similarity._co_counts(ix.user_ptr, ix.user_items, users, len(ix.item_ids))
            got = np.zeros(len(ix.item_ids), dtype=np.int64)
            lib.topiccf_co_counts(len(users), users, ix.user_ptr, ix.user_items, got)
            assert got.dtype == want.dtype and np.array_equal(got, want), item


def test_item_columns_keep_their_bits_without_the_native_library(monkeypatch, ml1m_shape):
    lib, how = lda.load_kernels()
    if lib is None:
        pytest.skip(how)
    desk = desk_instance()[0]
    # The last id of each is no train item: its column is all 0.0.
    cases = [(desk, desk.items() + [max(desk.items()) + 1]),
             (ml1m_shape, _sampled_items(ml1m_shape) + [0])]

    def columns():
        return [_bits(similarity.item_llr_col(i, train)) for train, ids in cases for i in ids]

    native = columns()
    monkeypatch.setattr(lda, "load_kernels", lambda: (None, "python (test)"))
    fallback = columns()
    assert len(native) == len(fallback) == len(desk.items()) + 1 + 51
    for got, want in zip(fallback, native):
        assert (got == want).all()


# ---------- Pearson row: bit-identical to the per-pair function ----------

def _loop_pearson(xs, ys):
    """The per-pair Pearson as a plain loop, every sum left to right from 0.0;
    None where undefined."""
    if len(xs) < 2:
        return None
    sx = sy = 0.0
    for x, y in zip(xs, ys):
        sx += x
        sy += y
    mx, my = sx / len(xs), sy / len(ys)
    dot = ssx = ssy = 0.0
    for x, y in zip(xs, ys):
        dot += (x - mx) * (y - my)
        ssx += (x - mx) * (x - mx)
        ssy += (y - my) * (y - my)
    if ssx == 0.0 or ssy == 0.0:
        return None
    return max(-1.0, min(1.0, dot / math.sqrt(ssx * ssy)))


def _pearson_instances():
    """Desk-shaped random instances with integer, half-star and non-dyadic
    ratings, then one with exactly one co-rated item, zero variance on either
    side and no overlap."""
    rng = np.random.default_rng(2025)
    for choices in ((1.0, 2.0, 3.0, 4.0, 5.0), tuple(np.arange(1, 11) / 2),
                    (1.1, 1.3, 3.7, 0.1 + 0.2, 4.1)):
        for _ in range(2):
            yield random_dataset(rng, max_users=40, max_items=60, rating_choices=choices,
                                 density=0.2)
    yield _ds({1: [(10, 4.0), (11, 2.0), (12, 5.0)],
               2: [(10, 5.0), (13, 1.0)],               # one co-rated item with 1
               3: [(10, 3.0), (11, 3.0), (12, 3.0)],    # zero variance
               4: [(20, 1.0), (21, 5.0)],               # no overlap with 1
               5: [(10, 1.5), (11, 2.5), (12, 3.7)]})


def test_pearson_row_equals_pearson_similarity_bit_for_bit():
    for train in _pearson_instances():
        users = train.users()
        ratings = {u: dict(pairs) for u, pairs in ds_by_user(train).items()}
        for u in users + [max(users) + 1]:  # the last one is absent from train
            row = similarity.pearson_row(u, train)
            want = [pearson_similarity(u, v, train) for v in users]
            assert np.isnan(row).tolist() == [not s.defined for s in want]
            assert row[~np.isnan(row)].tolist() == [s.value for s in want if s.defined]
            mine = ratings.get(u, {})
            for v, s in zip(users, want):
                common = sorted(set(mine) & set(ratings[v]))
                ref = _loop_pearson([mine[i] for i in common], [ratings[v][i] for i in common])
                assert (s.value if s.defined else None) == ref


def test_item_ratings_line_up_with_item_users():
    for train in _pearson_instances():
        ix = train.index
        ratings = {(r.user_id, r.item_id): r.rating for r in ds_records(train)}
        for pos, i in enumerate(ix.item_ids.tolist()):
            span = slice(ix.item_ptr[pos], ix.item_ptr[pos + 1])
            assert ix.item_ratings[span].tolist() == [
                ratings[u, i] for u in ix.user_ids[ix.item_users[span]].tolist()]


def test_pearson_means_are_left_to_right_sums():
    # 1.1 + 4.1 + 1.1 is 6.299999999999999 added left to right (Python 3.11's
    # sum) and 6.3 compensated (Python 3.12's). The means are the former, which
    # gives exactly -0.5 here; the compensated mean gives -0.5000000000000001.
    train = _ds({1: [(10, 1.1), (11, 4.1), (12, 1.1)], 2: [(10, 1.0), (11, 1.0), (12, 2.0)]})
    assert pearson_similarity(1, 2, train) == (-0.5, True)
    assert similarity.pearson_row(1, train).tolist() == [1.0, -0.5]


# ---------- per-pair values are entries of the rows ----------

def test_per_pair_values_with_an_id_absent_from_train():
    # Whichever side the absent id is on: Pearson is undefined, and LLR and
    # item-LLR are exactly +0.0, the value of the table with an empty row.
    for train, _ in _row_instances():
        users, items = train.users(), train.items()
        for absent in (0, max(users) + 1):
            for u in users[:5] + [absent]:
                for a, b in ((u, absent), (absent, u)):
                    assert pearson_similarity(a, b, train) == similarity.UNDEFINED
                    s = llr_similarity(a, b, train)
                    assert s == (0.0, True) and math.copysign(1.0, s.value) == 1.0
        for absent in (0, max(items) + 1):
            for i in items[:5] + [absent]:
                for a, b in ((i, absent), (absent, i)):
                    s = item_llr_similarity(a, b, train)
                    assert s == (0.0, True) and math.copysign(1.0, s.value) == 1.0


def test_topic_row_without_a_defined_candidate_is_all_nan():
    # No train user has a defined persona; a user outside train does.
    train, _ = next(_row_instances())
    users = train.users()
    outsider = max(users) + 1
    mine = {u: UserPersona(u, None, documented_item_count=0) for u in users[::2]}
    mine[outsider] = _persona(outsider, [0.25, 0.25, 0.25, 0.25])
    for personas in (mine, MappingProxyType(dict(mine))):
        for u in users + [outsider]:
            row = similarity.topic_row(u, personas, train)
            assert row.shape == (len(users),) and np.isnan(row).all()
            assert similarity.hybrid_row(u, personas, train).tolist() == (
                similarity.llr_row(u, train).tolist())
