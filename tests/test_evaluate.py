import io

import numpy as np
import pytest

from topiccf.evaluate import (
    EvalReport,
    EvalRow,
    emit_report,
    evaluate_sweep,
    f_measure,
    precision_recall_at_k,
)
from topiccf.ingest import RatingDataset, RatingRecord
from topiccf.recommend import Recommendation, RecommendationList

from oracles import ds_by_user, naive_precision_recall


def _ds(by_user):
    return RatingDataset([
        RatingRecord(u, i, r) for u, pairs in by_user.items() for i, r in pairs
    ])


def _recs(user, item_ids):
    return RecommendationList(
        user, tuple(Recommendation(i, 1.0 / (n + 1)) for n, i in enumerate(item_ids))
    )


# ---------- precision / recall ----------

def test_precision_two_of_five():
    p, r = precision_recall_at_k([1, 2, 3, 4, 5], {2, 4, 99, 98})
    assert p == 0.4
    assert r == 0.5


def test_full_recall():
    p, r = precision_recall_at_k(list(range(10)), {1, 2, 3})
    assert r == 1.0


def test_empty_recommendations():
    p, r = precision_recall_at_k([], {1, 2, 3, 4})
    assert (p, r) == (0.0, 0.0)


def test_empty_relevant_rejected():
    with pytest.raises(ValueError):
        precision_recall_at_k([1, 2], set())


def test_matches_naive():
    rng = np.random.default_rng(8)
    for _ in range(30):
        recs = list(rng.choice(50, size=rng.integers(0, 10), replace=False))
        relevant = set(rng.choice(50, size=rng.integers(1, 10), replace=False))
        assert precision_recall_at_k(recs, relevant) == naive_precision_recall(recs, relevant)


# ---------- f-measure ----------

def test_f_symmetric_point():
    assert f_measure(0.5, 0.5) == 0.5


def test_f_zero():
    assert f_measure(0.0, 0.7) == 0.0
    assert f_measure(0.0, 0.0) == 0.0


def test_f_frozen_value():
    assert f_measure(0.4, 0.25) == pytest.approx(0.3076923076923077, abs=1e-15)


# ---------- sweep ----------

def test_perfect_recommender_single_user():
    train = _ds({1: [(100, 5.0)]})
    test = _ds({1: [(i, 4.0) for i in range(1, 6)]})
    rows = evaluate_sweep(lambda u: _recs(u, [1, 2, 3, 4, 5]), train, test,
                          Ks=[5], max_K=5)
    assert rows == [EvalRow(5, 1.0, 1.0, 1.0, 1)]


def test_empty_recommender_all_zero():
    train = _ds({1: [(100, 5.0)]})
    test = _ds({1: [(1, 4.0), (2, 4.0)]})
    rows = evaluate_sweep(lambda u: _recs(u, []), train, test, Ks=[5, 10], max_K=10)
    assert all(r.precision == 0.0 and r.recall == 0.0 and r.f_measure == 0.0 for r in rows)
    assert all(r.users_evaluated == 1 for r in rows)


def test_sweep_matches_naive_per_user_recomputation():
    big = 2**63 - 1
    train = _ds({u: [(100 + u, 5.0)] for u in (1, 2, 3)})
    test = _ds({
        1: [(1, 4.0), (2, 4.0)],
        2: [(3, 4.0), (4, 3.0), (5, 5.0)],          # a threshold drops some, not all
        3: [(6, 4.0)],                              # left with none at 5.0
        -7: [(-big - 1, 5.0), (-2, 3.0), (-1, 5.0), (big, 4.5)],  # negative, int64-sized ids
        2**62: [(8, 2.0), (9, 1.0)],                # left with none at any threshold
    })
    lists = {1: [1, 9, 2], 2: [3, 9, 5], 3: [7, 8, 9], -7: [-1, big, -2],
             2**62: [8, 9, 1]}
    for threshold, n_users in ((None, 5), (3.5, 4), (5.0, 2)):
        detail = io.StringIO()
        rows = evaluate_sweep(lambda u: _recs(u, lists[u]), train, test, Ks=[1, 3], max_K=3,
                              relevance_threshold=threshold, detail_sink=detail)
        rels = {u: {i for i, r in pairs if threshold is None or r >= threshold}
                for u, pairs in ds_by_user(test).items()}
        users = [u for u in sorted(rels) if rels[u]]
        assert len(users) == n_users
        assert [int(line.split(",")[0]) for line in detail.getvalue().splitlines()] == [
            u for u in users for _ in (1, 3)]
        for row in rows:
            ps, rs, fs = [], [], []
            for u in users:
                rel = rels[u]
                p, r = naive_precision_recall(lists[u][: row.K], rel)
                ps.append(p)
                rs.append(r)
                fs.append(0.0 if p + r == 0 else 2 * p * r / (p + r))
            assert row.precision == pytest.approx(sum(ps) / n_users, abs=1e-12)
            assert row.recall == pytest.approx(sum(rs) / n_users, abs=1e-12)
            assert row.f_measure == pytest.approx(sum(fs) / n_users, abs=1e-12)
            assert row.users_evaluated == n_users


def test_recall_monotone_in_k():
    rng = np.random.default_rng(31)
    train = _ds({1: [(999, 5.0)]})
    test = _ds({1: [(int(i), 4.0) for i in rng.choice(100, size=12, replace=False)]})
    items = [int(i) for i in rng.permutation(100)][:40]
    rows = evaluate_sweep(lambda u: _recs(u, items), train, test,
                          Ks=[5, 10, 20, 40], max_K=40)
    recalls = [r.recall for r in rows]
    assert recalls == sorted(recalls)


def test_hit_counts_are_integers():
    rng = np.random.default_rng(77)
    train = _ds({1: [(999, 5.0)]})
    test = _ds({u: [(int(i), 4.0) for i in rng.choice(60, size=5 + u, replace=False)]
                for u in (1, 2, 3)})
    lists = {u: [int(i) for i in rng.permutation(60)[:20]] for u in (1, 2, 3)}
    for u in (1, 2, 3):
        rel = {i for i, _ in ds_by_user(test)[u]}
        for k in (1, 5, 10, 20):
            p, r = precision_recall_at_k(lists[u][:k], rel)
            n_recs = len(lists[u][:k])
            assert (p * n_recs) == pytest.approx(round(p * n_recs), abs=1e-9)
            assert (r * len(rel)) == pytest.approx(round(r * len(rel)), abs=1e-9)


def test_relevance_threshold_skips_users():
    train = _ds({1: [(999, 5.0)], 2: [(999, 5.0)]})
    test = _ds({1: [(1, 2.0)], 2: [(2, 5.0)]})
    rows = evaluate_sweep(lambda u: _recs(u, [2]), train, test, Ks=[1], max_K=1,
                          relevance_threshold=4.0)
    assert rows[0].users_evaluated == 1
    assert rows[0].precision == 1.0


def test_max_k_below_largest_k_rejected():
    train = _ds({1: [(999, 5.0)]})
    test = _ds({1: [(1, 4.0)]})
    with pytest.raises(ValueError):
        evaluate_sweep(lambda u: _recs(u, []), train, test, Ks=[5, 10], max_K=5)


def test_duplicate_k_values_rejected():
    train = _ds({1: [(999, 5.0)]})
    test = _ds({1: [(1, 4.0)]})
    with pytest.raises(ValueError, match="^duplicate K values$"):
        evaluate_sweep(lambda u: _recs(u, []), train, test, Ks=[5, 10, 5], max_K=10)


# ---------- report emission ----------

def test_emit_single_row():
    report = EvalReport("hybrid", [EvalRow(5, 0.5, 0.25, 1 / 3, 10)])
    sink = io.StringIO()
    emit_report(report, sink)
    lines = sink.getvalue().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "algorithm,K,precision,recall,f_measure,users"
    assert data[1] == "hybrid,5,0.500000,0.250000,0.333333,10"
    assert len(data) == 2


def test_emit_deterministic(tmp_path):
    report = EvalReport("ubcf_llr", [EvalRow(5, 0.123456789, 0.2, 0.15, 3)])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(report, a)
    emit_report(report, b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_groups_by_algorithm_then_k():
    reports = [
        EvalReport("hybrid", [EvalRow(5, 0.5, 0.5, 0.5, 1), EvalRow(10, 0.4, 0.6, 0.48, 1)]),
        EvalReport("ubcf_llr", [EvalRow(5, 0.1, 0.1, 0.1, 1)]),
    ]
    sink = io.StringIO()
    emit_report(reports, sink)
    data = [l for l in sink.getvalue().splitlines() if not l.startswith("#")][1:]
    assert [l.split(",")[0] for l in data] == ["hybrid", "hybrid", "ubcf_llr"]
    assert [int(l.split(",")[1]) for l in data] == [5, 10, 5]
