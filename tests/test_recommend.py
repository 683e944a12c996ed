import numpy as np
import pytest

from topiccf import recommend, similarity
from topiccf.ingest import RatingDataset, RatingRecord
from topiccf.persona import UserPersona
from topiccf.recommend import (
    NeighborSet,
    build_neighborhood,
    recommend_hybrid,
    recommend_item_based,
    recommend_neighborhood,
    recommend_topic_only,
    recommend_user_based,
)
from topiccf.similarity import SimilarityScore, UNDEFINED, pearson_similarity

from oracles import (
    ds_by_user,
    ds_user_items,
    naive_item_based,
    naive_recommend_neighborhood,
    naive_user_based,
    pipeline_sims,
)
from synth import desk_instance, random_dataset, random_personas


def _ds(by_user):
    return RatingDataset([
        RatingRecord(u, i, r) for u, pairs in by_user.items() for i, r in pairs
    ])


def _persona(user, dist):
    return UserPersona(user, np.array(dist, dtype=float), documented_item_count=1)


# ---------- neighborhood ----------

def test_neighborhood_top_n():
    sims = {2: 0.9, 3: 0.5, 4: 0.1}
    train = _ds({u: [(u, 3.0)] for u in (1, 2, 3, 4)})
    ns = build_neighborhood(1, lambda a, b: SimilarityScore(sims[b]), train, N=2)
    assert ns.neighbors == ((2, 0.9), (3, 0.5))


def test_neighborhood_excludes_zero_and_undefined():
    scores = {2: SimilarityScore(0.0), 3: UNDEFINED, 4: SimilarityScore(-0.5)}
    train = _ds({u: [(u, 3.0)] for u in (1, 2, 3, 4)})
    ns = build_neighborhood(1, lambda a, b: scores[b], train, N=3)
    assert ns.neighbors == ()


def test_neighborhood_tie_breaks_by_user_id():
    train = _ds({u: [(u, 3.0)] for u in (1, 2, 3, 4)})
    ns = build_neighborhood(1, lambda a, b: SimilarityScore(0.5), train, N=2)
    assert ns.neighbors == ((2, 0.5), (3, 0.5))


def test_neighborhood_excludes_self():
    train = _ds({u: [(u, 3.0)] for u in (1, 2)})
    ns = build_neighborhood(1, lambda a, b: SimilarityScore(1.0), train, N=5)
    assert all(v != 1 for v, _ in ns.neighbors)


# ---------- total_weight ranking ----------

def test_weight_formula():
    # 30 neighbors, 15 like item 100 at >= 4.0
    train_pairs = {}
    for v in range(2, 32):
        pairs = [(200 + v, 3.0)]
        if v < 17:
            pairs.append((100, 4.5))
        train_pairs[v] = pairs
    train_pairs[1] = [(999, 3.0)]
    train = _ds(train_pairs)
    nbrs = NeighborSet(1, tuple((v, 0.5) for v in range(2, 32)))
    recs = recommend_neighborhood(1, nbrs, train, K=5, like_threshold=4.0)
    by_item = {r.item_id: r.score for r in recs.items}
    assert by_item[100] == 15 / 30


def test_rated_items_filtered_out():
    train = _ds({1: [(100, 5.0)], 2: [(100, 5.0), (101, 5.0)]})
    nbrs = NeighborSet(1, ((2, 0.9),))
    recs = recommend_neighborhood(1, nbrs, train, K=5)
    assert recs.item_ids() == [101]


def test_empty_neighborhood_empty_list():
    train = _ds({1: [(100, 5.0)]})
    recs = recommend_neighborhood(1, NeighborSet(1, ()), train, K=5)
    assert recs.items == ()


def test_neighbor_without_train_ratings_counts_in_the_denominator_only():
    train = _ds({1: [(1, 3.0)], 2: [(50, 5.0), (60, 2.0)]})
    nbrs = NeighborSet(1, ((2, 0.8), (99, 0.7), (0, 0.6), (1000, 0.5)))
    recs = recommend_neighborhood(1, nbrs, train, K=5, like_threshold=3.0)
    assert recs.items == ((50, 0.25),)


def test_weight_denominator_is_actual_neighbor_count():
    train = _ds({1: [(1, 3.0)], 2: [(50, 5.0)], 3: [(50, 5.0)]})
    nbrs = NeighborSet(1, ((2, 0.8), (3, 0.7)))
    recs = recommend_neighborhood(1, nbrs, train, K=1)
    assert recs.items[0] == (50, 1.0)


def test_below_threshold_candidates_dropped():
    train = _ds({1: [(1, 3.0)], 2: [(50, 2.0), (60, 5.0)]})
    nbrs = NeighborSet(1, ((2, 0.8),))
    recs = recommend_neighborhood(1, nbrs, train, K=5, like_threshold=4.0)
    assert recs.item_ids() == [60]


def test_weight_ties_break_by_item_id():
    train = _ds({1: [(1, 3.0)], 2: [(70, 5.0), (60, 5.0)]})
    nbrs = NeighborSet(1, ((2, 0.8),))
    recs = recommend_neighborhood(1, nbrs, train, K=2)
    assert recs.item_ids() == [60, 70]


def test_more_likers_never_lowers_rank():
    # fixed neighborhood; an extra liker for item 300 can only improve its rank
    base = {
        1: [(1, 3.0)],
        2: [(300, 5.0), (301, 5.0)],
        3: [(301, 5.0), (302, 5.0)],
        4: [(302, 5.0)],
    }
    nbrs = NeighborSet(1, ((2, 0.9), (3, 0.8), (4, 0.7)))
    before = recommend_neighborhood(1, nbrs, _ds(base), K=10).item_ids()
    boosted = {u: list(p) for u, p in base.items()}
    boosted[4] = boosted[4] + [(300, 5.0)]
    after = recommend_neighborhood(1, nbrs, _ds(boosted), K=10).item_ids()
    assert after.index(300) <= before.index(300)


# ---------- user-based CF ----------

def test_user_based_single_neighbor_prediction():
    # perfectly correlated pair; prediction equals the neighbor's rating
    train = _ds({
        1: [(10, 4.0), (11, 2.0)],
        2: [(10, 5.0), (11, 1.0), (99, 5.0)],
    })
    recs = recommend_user_based(1, train, sim="pearson", N=5, K=5)
    assert recs.items == ((99, 5.0),)


def test_user_based_no_candidates():
    train = _ds({1: [(10, 4.0), (11, 2.0)], 2: [(10, 5.0), (11, 1.0)]})
    recs = recommend_user_based(1, train, sim="pearson", N=5, K=5)
    assert recs.items == ()


def test_user_based_unknown_similarity():
    train = _ds({1: [(10, 4.0)]})
    with pytest.raises(ValueError):
        recommend_user_based(1, train, sim="cosine")


# ---------- item-based CF ----------

def test_item_based_weighted_average_is_exact_for_single_rating():
    # candidate item shares raters only with item 10 (rated 4.0)
    train = _ds({
        1: [(10, 4.0)],
        2: [(10, 3.0), (99, 5.0)],
        3: [(50, 2.0)],
    })
    recs = recommend_item_based(1, train, K=5)
    by_item = dict(recs.items)
    assert by_item[99] == 4.0


def test_item_based_user_rated_everything():
    train = _ds({1: [(10, 4.0), (11, 3.0)], 2: [(10, 5.0), (11, 2.0)]})
    assert recommend_item_based(1, train, K=5).items == ()


def test_item_based_unknown_user_empty():
    train = _ds({1: [(10, 4.0)]})
    assert recommend_item_based(42, train, K=5).items == ()


def test_item_based_with_block_equals_the_per_user_path():
    # Whole lists, scores included: the block's rows are the columns the
    # per-user path computes, summed in the same order.
    rng = np.random.default_rng(31)
    instances = [desk_instance()[0]] + [
        random_dataset(rng, max_users=40, max_items=60, density=0.2) for _ in range(3)]
    for train in instances:
        block = similarity.item_llr_block(train)
        users = train.users()
        for u in users + [max(users) + 1]:  # the last one is absent from train
            for K in (1, 10):
                assert recommend_item_based(u, train, K, block) == \
                    recommend_item_based(u, train, K)


def test_item_based_rejects_a_block_of_the_wrong_shape():
    train = _ds({1: [(10, 4.0), (11, 3.0)], 2: [(10, 5.0), (12, 2.0)]})
    for shape in ((2, 2), (3, 2), (3,), (4, 4)):
        with pytest.raises(ValueError, match="item LLR block"):
            recommend_item_based(1, train, 5, np.zeros(shape))


def test_item_based_without_block_computes_only_the_users_columns(monkeypatch):
    # A single request (query-ml1m times one) stays the cost of the user's own
    # columns: one item_llr_col per rated item, never a whole block.
    def no_block(*args):
        raise AssertionError("item_llr_block called")
    calls = []
    col = similarity.item_llr_col
    def counting(item, train):
        calls.append(item)
        return col(item, train)
    monkeypatch.setattr(similarity, "item_llr_block", no_block)
    monkeypatch.setattr(similarity, "item_llr_col", counting)
    monkeypatch.setattr(recommend, "item_llr_col", counting)
    train = desk_instance()[0]
    by_user = ds_by_user(train)
    for u in train.users()[:10]:
        calls.clear()
        recommend_item_based(u, train, K=10)
        assert calls == [i for i, _ in by_user[u]]


# ---------- hybrid & topic-only ----------

def _cluster_instance():
    train = _ds({
        1: [(10, 4.0), (11, 4.0)],
        2: [(10, 4.0), (11, 4.0), (19, 5.0), (12, 4.0)],
        3: [(10, 4.0), (11, 4.0), (19, 5.0), (13, 4.0)],
        4: [(20, 4.0), (21, 4.0)],
        5: [(20, 4.0), (21, 4.0)],
    })
    personas = {
        1: _persona(1, [0.9, 0.1]),
        2: _persona(2, [0.9, 0.1]),
        3: _persona(3, [0.9, 0.1]),
        4: _persona(4, [0.1, 0.9]),
        5: _persona(5, [0.1, 0.9]),
    }
    return train, personas


def test_hybrid_ranks_cluster_item_first():
    train, personas = _cluster_instance()
    recs = recommend_hybrid(1, personas, train, N=2, K=3)
    assert recs.item_ids()[0] == 19


def test_hybrid_user_without_persona_still_recommendable():
    train, personas = _cluster_instance()
    personas[1] = UserPersona(1, None, documented_item_count=0)
    recs = recommend_hybrid(1, personas, train, N=2, K=3)
    assert recs.items  # LLR fallback keeps neighbors


def test_hybrid_deterministic():
    train, personas = _cluster_instance()
    a = recommend_hybrid(1, personas, train, N=2, K=3)
    b = recommend_hybrid(1, personas, train, N=2, K=3)
    assert a == b


def test_hybrid_unknown_user_empty():
    train, personas = _cluster_instance()
    assert recommend_hybrid(99, personas, train, N=2, K=3).items == ()


def test_topic_only_bridges_zero_overlap():
    # identical personas but not a single co-rated item
    train = _ds({1: [(10, 4.0)], 2: [(20, 5.0)]})
    personas = {1: _persona(1, [0.5, 0.5]), 2: _persona(2, [0.5, 0.5])}
    recs = recommend_topic_only(1, personas, train, N=5, K=5)
    assert recs.item_ids() == [20]


def test_topic_only_undefined_persona_empty():
    train = _ds({1: [(10, 4.0)], 2: [(20, 5.0)]})
    personas = {
        1: UserPersona(1, None, documented_item_count=0),
        2: _persona(2, [0.5, 0.5]),
    }
    assert recommend_topic_only(1, personas, train, N=5, K=5).items == ()


_RECOMMENDERS = {
    "hybrid": lambda u, ps, t, k: recommend_hybrid(u, ps, t, N=5, K=k),
    "topic_only": lambda u, ps, t, k: recommend_topic_only(u, ps, t, N=5, K=k),
    "ubcf_pearson": lambda u, ps, t, k: recommend_user_based(u, t, "pearson", N=5, K=k),
    "ubcf_llr": lambda u, ps, t, k: recommend_user_based(u, t, "llr", N=5, K=k),
    "ibcf_llr": lambda u, ps, t, k: recommend_item_based(u, t, K=k),
}


@pytest.mark.parametrize("K", [0, -1])
@pytest.mark.parametrize("algo", sorted(_RECOMMENDERS))
def test_every_recommender_rejects_nonpositive_k(algo, K):
    rng = np.random.default_rng(1)
    train = random_dataset(rng)
    personas = random_personas(rng, train.users())
    with pytest.raises(ValueError, match="K must be >= 1"):
        _RECOMMENDERS[algo](3, personas, train, K)


# ---------- invariants & oracle equivalence ----------

def test_recommenders_match_naive_oracles():
    rng = np.random.default_rng(123)
    for _ in range(12):
        train = random_dataset(rng)
        users = train.users()
        personas = random_personas(rng, users, undefined_fraction=0.2)
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        by_user, hybrid_sim, topic_sim, pearson_sim, llr_sim, item_sim = \
            pipeline_sims(train, personas)
        for u in users:
            got = recommend_hybrid(u, personas, train, N=n, K=k)
            want = naive_recommend_neighborhood(u, by_user, hybrid_sim, n, k, 1.0)
            assert got.item_ids() == [i for i, _ in want]

            got = recommend_topic_only(u, personas, train, N=n, K=k)
            want = naive_recommend_neighborhood(u, by_user, topic_sim, n, k, 1.0)
            assert got.item_ids() == [i for i, _ in want]

            got = recommend_user_based(u, train, sim="pearson", N=n, K=k)
            want = naive_user_based(u, by_user, pearson_sim, n, k)
            assert got.item_ids() == [i for i, _ in want]

            got = recommend_user_based(u, train, sim="llr", N=n, K=k)
            want = naive_user_based(u, by_user, llr_sim, n, k)
            assert got.item_ids() == [i for i, _ in want]

            got = recommend_item_based(u, train, K=k)
            want = naive_item_based(u, by_user, item_sim, k)
            assert got.item_ids() == [i for i, _ in want]


def test_structural_invariants():
    rng = np.random.default_rng(321)
    for _ in range(8):
        train = random_dataset(rng)
        users = train.users()
        personas = random_personas(rng, users)
        for u in users:
            for recs in (
                recommend_hybrid(u, personas, train, N=3, K=4),
                recommend_topic_only(u, personas, train, N=3, K=4),
                recommend_user_based(u, train, sim="llr", N=3, K=4),
                recommend_item_based(u, train, K=4),
            ):
                ids = recs.item_ids()
                assert len(ids) <= 4
                assert len(set(ids)) == len(ids)
                assert not (set(ids) & ds_user_items(train, u))
                scores = [r.score for r in recs.items]
                assert scores == sorted(scores, reverse=True)
                for a, b in zip(recs.items, recs.items[1:]):
                    if a.score == b.score:
                        assert a.item_id < b.item_id
            for r in recommend_hybrid(u, personas, train, N=3, K=4).items:
                assert 0.0 < r.score <= 1.0


def test_batched_recommenders_match_oracle_scores_bit_for_bit():
    # Hybrid, topic-only, LLR user-based and item-based CF score through batch
    # rows; the oracles through the per-pair primitives, with the same sums in
    # the same order, so whole lists, scores included, must be equal.
    rng = np.random.default_rng(77)
    for _ in range(3):
        train = random_dataset(rng, max_users=40, max_items=60, density=0.2)
        users = train.users()
        personas = random_personas(rng, users, n_topics=4, undefined_fraction=0.25)
        by_user, hybrid_sim, topic_sim, _, llr_sim, item_sim = pipeline_sims(train, personas)
        def pairs(recs):
            return [(r.item_id, r.score) for r in recs.items]
        for u in users + [max(users) + 1]:
            assert pairs(recommend_hybrid(u, personas, train, N=6, K=10)) == \
                naive_recommend_neighborhood(u, by_user, hybrid_sim, 6, 10, 1.0)
            assert pairs(recommend_topic_only(u, personas, train, N=6, K=10)) == \
                naive_recommend_neighborhood(u, by_user, topic_sim, 6, 10, 1.0)
            assert pairs(recommend_user_based(u, train, "llr", N=6, K=10)) == \
                naive_user_based(u, by_user, llr_sim, 6, 10)
            assert pairs(recommend_item_based(u, train, K=10)) == \
                naive_item_based(u, by_user, item_sim, 10)


def test_pearson_user_based_equals_the_per_pair_neighbourhood_path():
    # The neighbourhood comes from similarity.pearson_row; the per-pair path
    # (build_neighborhood over pearson_similarity, then the dict loop) must
    # give the same lists, scores included, for integer, half-star and
    # non-dyadic ratings.
    rng = np.random.default_rng(79)
    for choices in ((1.0, 2.0, 3.0, 4.0, 5.0), tuple(np.arange(1, 11) / 2),
                    (1.1, 1.3, 3.7, 0.1 + 0.2, 4.1)):
        train = random_dataset(rng, max_users=40, max_items=60, rating_choices=choices,
                               density=0.2)
        users = train.users()
        by_user = {u: list(pairs) for u, pairs in ds_by_user(train).items()}
        for u in users + [max(users) + 1]:
            neighbors = build_neighborhood(
                u, lambda a, b: pearson_similarity(a, b, train), train, 6).neighbors
            want = naive_user_based(u, by_user, lambda a, b: dict(neighbors).get(b), 6, 10)
            got = recommend_user_based(u, train, "pearson", N=6, K=10)
            assert [(r.item_id, r.score) for r in got.items] == want


@pytest.mark.parametrize("algo", sorted(_RECOMMENDERS))
def test_recommenders_call_no_per_pair_similarity(algo, monkeypatch):
    def per_pair(*args):
        raise AssertionError("per-pair similarity called")
    for name in ("hybrid_similarity", "topic_similarity", "pearson_similarity",
                 "llr_similarity", "item_llr_similarity"):
        monkeypatch.setattr(recommend, name, per_pair)
        monkeypatch.setattr(similarity, name, per_pair)
    rng = np.random.default_rng(2)
    train = random_dataset(rng, max_users=20, max_items=30)
    personas = random_personas(rng, train.users(), undefined_fraction=0.2)
    for u in train.users():
        _RECOMMENDERS[algo](u, personas, train, 5)


def test_no_row_or_list_calls_a_per_pair_function_on_any_input(monkeypatch):
    # A valid map gives the values of an unpatched run; a map with no defined
    # persona gives NaN topic rows and LLR hybrid rows; a bad persona raises the
    # topic row's own error, naming its user, from every caller of the row.
    rng = np.random.default_rng(2)
    train = random_dataset(rng, max_users=20, max_items=30)
    users = train.users()
    good = random_personas(rng, users, undefined_fraction=0.2)
    culprit = [u for u in users if good[u].defined][1]
    bad = {**good, culprit: _persona(culprit, [0.6, 0.6, 0.0])}

    def run(personas):
        return ([similarity.topic_row(u, personas, train).tobytes() for u in users],
                [similarity.hybrid_row(u, personas, train).tobytes() for u in users],
                {a: [f(u, personas, train, 5) for u in users] for a, f in _RECOMMENDERS.items()})

    want = run(good)

    def per_pair(*args):
        raise AssertionError("per-pair similarity called")
    for name in ("hybrid_similarity", "topic_similarity", "symmetric_kl", "pearson_similarity",
                 "llr_similarity", "item_llr_similarity"):
        monkeypatch.setattr(recommend, name, per_pair, raising=False)
        monkeypatch.setattr(similarity, name, per_pair)
    assert run(good) == want
    undefined = {u: UserPersona(u, None, documented_item_count=0) for u in users}
    for u in users:
        assert np.isnan(similarity.topic_row(u, undefined, train)).all()
        assert similarity.hybrid_row(u, undefined, train).tobytes() == (
            similarity.llr_row(u, train).tobytes())
    u = next(u for u in users if bad[u].defined)
    for call in (lambda: similarity.topic_row(u, bad, train),
                 lambda: similarity.hybrid_row(u, bad, train),
                 lambda: recommend_hybrid(u, bad, train, N=5, K=5),
                 lambda: recommend_topic_only(u, bad, train, N=5, K=5)):
        with pytest.raises(ValueError, match=f"^persona of user {culprit} does not sum to 1"):
            call()


@pytest.mark.parametrize("N", [0, -1])
def test_every_neighbourhood_rejects_nonpositive_n(N):
    rng = np.random.default_rng(1)
    train = random_dataset(rng)
    personas = random_personas(rng, train.users())
    u = train.users()[0]
    for call in (lambda: recommend_hybrid(u, personas, train, N=N, K=5),
                 lambda: recommend_topic_only(u, personas, train, N=N, K=5),
                 lambda: recommend_user_based(u, train, "pearson", N=N, K=5),
                 lambda: recommend_user_based(u, train, "llr", N=N, K=5),
                 lambda: build_neighborhood(u, lambda a, b: UNDEFINED, train, N)):
        with pytest.raises(ValueError, match=f"^N must be >= 1, got {N}$"):
            call()


# ---------- recommendation writer ----------

def test_writer_memory_stays_bounded_at_ml1m_size(tmp_path):
    import tracemalloc

    # 6040 users x 75 scores in 30 levels, as a topic list's k/N; some lists shorter, one empty.
    rng = np.random.default_rng(4)
    lengths = np.where(rng.random(6040) < 0.1, rng.integers(0, 75, 6040), 75)
    lengths[17] = 0
    recs = list(map(recommend.Recommendation, rng.integers(1, 3707, lengths.sum()).tolist(),
                    (rng.integers(1, 31, lengths.sum()) / 30).tolist()))
    ends = np.cumsum(lengths).tolist()
    lists = {u: recommend.RecommendationList(u, tuple(recs[end - n:end]))
             for u, n, end in zip(rng.permutation(np.arange(1, 6041)).tolist(), lengths.tolist(),
                                  ends)}
    path = tmp_path / "recs.csv"
    tracemalloc.start()
    try:
        recommend.write_recommendations_csv(lists, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Keys built for every row at once peaked at about 68 MiB.
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    want = ["user_id,rank,item_id,score\n"] + [
        f"{u},{rank},{r.item_id},{r.score!r}\n"
        for u in sorted(lists) for rank, r in enumerate(lists[u].items, start=1)]
    assert path.read_text(encoding="utf-8") == "".join(want)
