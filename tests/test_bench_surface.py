"""What the benchmark under bench/ reads from topiccf, pinned.

bench/ is the fixed side of every performance comparison: it runs the same
files against two versions of the package, so a name, signature or field it
uses must stay. An exception raised outside one of its timed operations ends
the run with no result, so each read below mirrors one in bench/workloads.py,
bench/checks.py or bench/tracing.py. The reads run with bench/tracing.py's
wrappers installed, as a traced run has them.
"""
import importlib.util
from pathlib import Path

import numpy as np

from topiccf import evaluate, ingest, lda, persona, recommend

ROOT = Path(__file__).resolve().parents[1]
N, K = 3, 5
KS = (1, 5)


def _tracing():
    """bench/tracing.py, imported from its file as the benchmark has it."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _inputs(tmp_path):
    """train.csv, test.csv and theta.csv of 13 users and 10 items, the last item
    undocumented; user 13 rated only that item, so their persona is undefined, as
    3 are at ML-1M shape."""
    rng = np.random.default_rng(5)
    train, test = [], []
    for u in range(1, 13):
        for i in range(1, 11):
            if rng.random() < 0.6:
                row = f"{u},{i},{float(rng.integers(1, 6))!r},{1000 * u + i}\n"
                (train if rng.random() < 0.8 else test).append(row)
    train.append("13,10,4.0,13010\n")
    (tmp_path / "train.csv").write_text("".join(train))
    (tmp_path / "test.csv").write_text("".join(test))
    (tmp_path / "theta.csv").write_text(
        "".join(f"{i},{0.25 if i % 2 else 0.75!r},{0.75 if i % 2 else 0.25!r}\n"
                for i in range(1, 10)))


def test_bench_reads_every_name_and_field_it_uses(tmp_path):
    tracing = _tracing()
    _inputs(tmp_path)
    tracer = tracing.Tracer()
    try:
        # getattr on every name in SPANS and HOT: recommend.build_neighborhood and
        # the per-pair similarity functions recommend re-exports among them
        tracer.install()
        # QueryMl1m.prepare: test subsets built from a generator of RatingRecords
        records = {}
        for line in (tmp_path / "test.csv").read_text().splitlines():
            u, i, r, t = line.split(",")
            records.setdefault(int(u), []).append(
                ingest.RatingRecord(int(u), int(i), float(r), int(t)))
        sample = sorted(records)[:4]
        subset = ingest.RatingDataset(r for u in sample for r in records[u])
        assert len(subset) == sum(len(records[u]) for u in sample)

        # QueryMl1m.setup and _load
        train = ingest.parse_ratings(tmp_path / "train.csv", "csv")
        profiles = lda.load_item_profiles(tmp_path / "theta.csv")
        personas = persona.build_all_personas(train, profiles)
        assert persona.undefined_count(personas) == 1
        assert len(personas) == train.num_users == 13
        for u, p in personas.items():
            assert p.user_id == u and p.defined == (u != 13)
            assert not p.defined or abs(float(p.distribution.sum()) - 1.0) < 1e-9

        # QueryMl1m._recommender and round, checks.check_rec_list
        recommenders = {
            "hybrid": lambda u: recommend.recommend_hybrid(u, personas, train, N, K),
            "topic_only": lambda u: recommend.recommend_topic_only(u, personas, train, N, K),
            "ubcf_pearson": lambda u: recommend.recommend_user_based(u, train, "pearson", N, K),
            "ubcf_llr": lambda u: recommend.recommend_user_based(u, train, "llr", N, K),
            "ibcf_llr": lambda u: recommend.recommend_item_based(u, train, K),
        }
        for fn in recommenders.values():
            lists = {u: fn(u) for u in sample}
            for u, rec_list in lists.items():
                assert rec_list.user_id == u
                assert len(rec_list.items) <= K
                for r in rec_list.items:
                    assert isinstance(r.item_id, int) and float(r.score) == r.score
            rows = evaluate.evaluate_sweep(lambda u: lists[u], train, subset, KS, K)
            assert [r.K for r in rows] == list(KS)
            for r in rows:  # QueryMl1m._check_sweep
                assert r.users_evaluated == len(sample)
                assert 0.0 <= r.precision <= 1.0 and 0.0 <= r.recall <= 1.0

        # the traced run's per-layer metrics read what the wrappers recorded
        metrics = tracer.metrics(0.0)
        assert metrics["evaluate.users"][0] == 5 * len(sample)
        assert metrics["persona.undefined"][0] == 1
        assert all(metrics[f"recommend.{a}.user_ms.p50"][0] > 0 for a in recommenders)
    finally:
        tracer.uninstall()
    # every wrapped name is the package's own again
    for module, attr, _ in tracing.SPANS:
        assert not getattr(module, attr).__qualname__.startswith("Tracer.")
    for module, attr in tracing.HOT:
        assert not getattr(module, attr).__qualname__.startswith("Tracer.")

