"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them).

Criteria 6b and 8 need the real MovieLens 1M data and are skipped unless
TOPICCF_ML1M (path to ratings.dat) / TOPICCF_ML1M_CORPUS (item corpus) are set.
"""
import os
import time

import numpy as np
import pytest

from topiccf.cli import main
from topiccf.evaluate import evaluate_sweep
from topiccf.ingest import (
    DocumentCorpus,
    RatingDataset,
    RatingRecord,
    dataset_summary,
    parse_ratings,
    split_train_test,
)
from topiccf.lda import build_vocabulary, train_lda
from topiccf.persona import build_all_personas
from topiccf.recommend import (
    recommend_hybrid,
    recommend_item_based,
    recommend_topic_only,
    recommend_user_based,
)
from topiccf.similarity import (
    hybrid_similarity,
    llr_similarity,
    pearson_similarity,
    symmetric_kl,
    topic_similarity,
)
from topiccf.evaluate import precision_recall_at_k

from oracles import (
    ds_by_user,
    ds_records,
    ds_user_items,
    naive_hybrid,
    naive_item_based,
    naive_llr,
    naive_pearson,
    naive_recommend_neighborhood,
    naive_symmetric_kl,
    naive_topic_sim,
    naive_user_based,
    pipeline_sims,
)
from synth import random_dataset, random_personas

ML1M = os.environ.get("TOPICCF_ML1M", "")
ML1M_CORPUS = os.environ.get("TOPICCF_ML1M_CORPUS", "")


def _criterion(n, name, ok, detail=""):
    print(f"\nACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_similarity_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        train = random_dataset(rng)
        users = train.users()
        personas = random_personas(rng, users, undefined_fraction=0.15)
        raw = {u: (p.distribution if p.defined else None) for u, p in personas.items()}
        for ua in users:
            for ub in users:
                if ua == ub:
                    continue
                if raw[ua] is not None and raw[ub] is not None:
                    got = symmetric_kl(raw[ua], raw[ub])
                    want = naive_symmetric_kl(raw[ua], raw[ub])
                    worst = max(worst, abs(got - want))

                    t_got = topic_similarity(personas[ua], personas[ub]).value
                    t_want = naive_topic_sim(raw[ua], raw[ub])
                    worst = max(worst, abs(t_got - t_want))

                p_got = pearson_similarity(ua, ub, train)
                p_want = naive_pearson(dict(ds_by_user(train)[ua]), dict(ds_by_user(train)[ub]))
                assert p_got.defined == (p_want is not None)
                if p_want is not None:
                    worst = max(worst, abs(p_got.value - p_want))

                l_got = llr_similarity(ua, ub, train).value
                l_want = naive_llr(ds_user_items(train, ua), ds_user_items(train, ub),
                                   train.num_items)
                worst = max(worst, abs(l_got - l_want))

                h_got = hybrid_similarity(ua, ub, personas, train).value
                h_want = naive_hybrid(raw[ua], raw[ub], ds_user_items(train, ua),
                                      ds_user_items(train, ub), train.num_items)
                worst = max(worst, abs(h_got - h_want))
    elapsed = time.monotonic() - t0
    _criterion(1, "similarity oracle equivalence",
               worst <= 1e-9 and elapsed < 5.0,
               f"max |diff|={worst:.2e}, {elapsed:.1f}s (budget 5s)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_recommender_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(50):
        train = random_dataset(rng)
        users = train.users()
        personas = random_personas(rng, users, undefined_fraction=0.2)
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        by_user, hybrid_sim, topic_sim, pearson_sim, llr_sim, item_sim = \
            pipeline_sims(train, personas)
        for u in users:
            pairs = [
                (recommend_hybrid(u, personas, train, N=n, K=k).item_ids(),
                 [i for i, _ in naive_recommend_neighborhood(u, by_user, hybrid_sim,
                                                             n, k, 1.0)]),
                (recommend_topic_only(u, personas, train, N=n, K=k).item_ids(),
                 [i for i, _ in naive_recommend_neighborhood(u, by_user, topic_sim,
                                                             n, k, 1.0)]),
                (recommend_user_based(u, train, sim="pearson", N=n, K=k).item_ids(),
                 [i for i, _ in naive_user_based(u, by_user, pearson_sim, n, k)]),
                (recommend_user_based(u, train, sim="llr", N=n, K=k).item_ids(),
                 [i for i, _ in naive_user_based(u, by_user, llr_sim, n, k)]),
                (recommend_item_based(u, train, K=k).item_ids(),
                 [i for i, _ in naive_item_based(u, by_user, item_sim, k)]),
            ]
            for got, want in pairs:
                if got != want:
                    mismatches += 1
    elapsed = time.monotonic() - t0
    _criterion(2, "recommender oracle equivalence",
               mismatches == 0 and elapsed < 10.0,
               f"{mismatches} list mismatches, {elapsed:.1f}s (budget 10s)")


# ---------------------------------------------------------------- criterion 3

SUPPORT_A = tuple(f"war{i:02d}" for i in range(10))
SUPPORT_B = tuple(f"lov{i:02d}" for i in range(10))


def test_criterion_3_lda_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    corpus_weights = rng.dirichlet([1.0, 1.0])
    docs, labels = {}, {}
    for d in range(1, 201):
        label = 0 if rng.random() < corpus_weights[0] else 1
        support = SUPPORT_A if label == 0 else SUPPORT_B
        docs[d] = " ".join(support[int(i)] for i in rng.integers(0, 10, size=50))
        labels[d] = label
    vocab, encoded = build_vocabulary(DocumentCorpus(docs))
    model = train_lda(encoded, vocab, T=2, alpha_sum=2.0, beta=0.01,
                      iterations=500, seed=11)

    a_idx = [vocab.token_to_index[w] for w in SUPPORT_A if w in vocab.token_to_index]
    mass_a = model.phi[:, a_idx].sum(axis=1)
    t_a = int(np.argmax(mass_a))
    t_b = 1 - t_a
    supports_separated = mass_a[t_a] > 0.5 > mass_a[t_b]

    matched_mass = []
    consistent = 0
    for pos, item_id in enumerate(encoded.item_ids):
        matched_topic = t_a if labels[item_id] == 0 else t_b
        matched_mass.append(model.theta[pos][matched_topic])
        if int(np.argmax(model.theta[pos])) == matched_topic:
            consistent += 1
    mean_mass = float(np.mean(matched_mass))
    consistency = consistent / len(encoded.item_ids)
    elapsed = time.monotonic() - t0
    _criterion(3, "LDA topic recovery",
               supports_separated and mean_mass >= 0.80 and consistency >= 0.95
               and elapsed < 30.0,
               f"mean matched mass={mean_mass:.3f} (>=0.80), "
               f"consistency={consistency:.3f} (>=0.95), {elapsed:.1f}s (budget 30s)")


# ---------------------------------------------------------------- criterion 4

def _sparsity_instance():
    """Two 20-user clusters; zero co-rated items anywhere, identical personas
    within each cluster."""
    train_recs, test_recs = [], []
    profiles = {}
    pure_a = np.array([0.95, 0.05])
    pure_b = np.array([0.05, 0.95])
    for base_user, base_item, prof in ((1, 1000, pure_a), (51, 2000, pure_b)):
        items = list(range(base_item, base_item + 60))
        for it in items:
            profiles[it] = prof.copy()
        for k in range(20):
            user = base_user + k
            mine = items[3 * k: 3 * k + 3]
            for it in mine:
                train_recs.append(RatingRecord(user, it, 4.0))
            for it in items:
                if it not in mine:
                    test_recs.append(RatingRecord(user, it, 4.0))
    return RatingDataset(train_recs), RatingDataset(test_recs), profiles


def test_criterion_4_sparsity_advantage():
    t0 = time.monotonic()
    train, test, profiles = _sparsity_instance()
    personas = build_all_personas(train, profiles)

    rows_topic = evaluate_sweep(
        lambda u: recommend_topic_only(u, personas, train, N=19, K=5),
        train, test, Ks=[5], max_K=5,
    )
    rows_pearson = evaluate_sweep(
        lambda u: recommend_user_based(u, train, sim="pearson", N=19, K=5),
        train, test, Ks=[5], max_K=5,
    )
    p_topic = rows_topic[0].precision
    p_pearson = rows_pearson[0].precision
    elapsed = time.monotonic() - t0
    _criterion(4, "sparsity advantage (zero co-rated items)",
               p_topic >= 0.6 and p_pearson <= 0.1 and elapsed < 30.0,
               f"topic_only p@5={p_topic:.3f} (>=0.6), "
               f"ubcf_pearson p@5={p_pearson:.3f} (<=0.1), {elapsed:.1f}s (budget 30s)")


# ---------------------------------------------------------------- criterion 5

def _clustered_benchmark(seed=123, n_clusters=4, users_per=50, items_per=100,
                         ratings_per_user=20, zipf=1.1, purity=0.85,
                         popular_frac=0.2):
    """4 clusters x 50 users over 4 pools x 100 items at exactly 5% density.

    Within-pool popularity is Zipf-skewed (ratings 5 on the popular fifth,
    4 elsewhere) and every pool item has a designated holder so all 400 items
    are rated. Item profiles are pool-pure, so same-cluster personas coincide.
    """
    rng = np.random.default_rng(seed)
    records = []
    weights = 1.0 / np.arange(1, items_per + 1) ** zipf
    popular_cut = int(items_per * popular_frac)
    for c in range(n_clusters):
        pool = np.arange(c * items_per + 1, (c + 1) * items_per + 1)
        for k in range(users_per):
            user = c * users_per + k + 1
            forced = [2 * k, 2 * k + 1]
            rest = np.setdiff1d(np.arange(items_per), forced)
            w = weights[rest] / weights[rest].sum()
            sampled = rng.choice(rest, size=ratings_per_user - 2, replace=False, p=w)
            for idx in list(forced) + [int(i) for i in sampled]:
                rating = 5.0 if idx < popular_cut else 4.0
                records.append(RatingRecord(user, int(pool[idx]), rating))
    ds = RatingDataset(records)
    profiles = {}
    for c in range(n_clusters):
        dist = np.full(n_clusters, (1 - purity) / (n_clusters - 1))
        dist[c] = purity
        for i in range(c * items_per + 1, (c + 1) * items_per + 1):
            profiles[i] = dist.copy()
    return ds, profiles


def test_criterion_5_relative_ordering():
    t0 = time.monotonic()
    ds, profiles = _clustered_benchmark()
    assert ds.num_users == 200 and ds.num_items == 400
    assert len(ds_records(ds)) == 4000  # 5% density
    pair = split_train_test(ds, 0.8, seed=99)
    train, test = pair.train, pair.test
    personas = build_all_personas(train, profiles)
    N, K = 60, 5

    p = {}
    for name, fn in (
        ("hybrid", lambda u: recommend_hybrid(u, personas, train, N, K)),
        ("topic_only", lambda u: recommend_topic_only(u, personas, train, N, K)),
        ("ubcf_llr", lambda u: recommend_user_based(u, train, "llr", N, K)),
        ("ibcf_llr", lambda u: recommend_item_based(u, train, K)),
    ):
        p[name] = evaluate_sweep(fn, train, test, Ks=[5], max_K=5)[0].precision
    elapsed = time.monotonic() - t0
    ordered = (p["hybrid"] >= p["topic_only"] > p["ubcf_llr"] > p["ibcf_llr"])
    _criterion(5, "relative ordering on clustered benchmark",
               ordered and elapsed < 120.0,
               "p@5: " + " ".join(f"{n}={v:.3f}" for n, v in p.items())
               + f"; {elapsed:.0f}s (budget 120s)")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_metric_integrity():
    rng = np.random.default_rng(606)
    ds = random_dataset(rng, max_users=25, max_items=40, density=0.3)
    pair = split_train_test(ds, 0.8, seed=5)
    train, test = pair.train, pair.test
    personas = random_personas(rng, train.users(), n_topics=4)
    integral = True
    monotone = True
    for u in sorted(ds_by_user(test)):
        relevant = {i for i, _ in ds_by_user(test)[u]}
        recs = recommend_hybrid(u, personas, train, N=5, K=20).item_ids()
        prev_recall = 0.0
        for k in (1, 3, 5, 10, 20):
            prec, rec = precision_recall_at_k(recs[:k], relevant)
            n_recs = len(recs[:k])
            if abs(prec * n_recs - round(prec * n_recs)) > 1e-9:
                integral = False
            if abs(rec * len(relevant) - round(rec * len(relevant))) > 1e-9:
                integral = False
            if rec < prev_recall - 1e-12:
                monotone = False
            prev_recall = rec
    _criterion(6, "metric integrity (hit counts integral, recall monotone)",
               integral and monotone,
               f"integral={integral}, monotone={monotone}")


@pytest.mark.skipif(not ML1M, reason="set TOPICCF_ML1M=<path to ratings.dat>")
def test_criterion_6_movielens_split_summary():
    ds = parse_ratings(ML1M, "movielens_dat")
    pair = split_train_test(ds, 0.8, seed=1)
    tr = dataset_summary(pair.train)
    te = dataset_summary(pair.test)
    ok = (
        tr["users"] == 6040 and te["users"] == 6040
        and abs(tr["avg_ratings_per_user"] - 132.48) <= 0.5
        and abs(te["avg_ratings_per_user"] - 32.11) <= 0.5
    )
    _criterion(6, "MovieLens 1M split summary",
               ok,
               f"train users={tr['users']} avg={tr['avg_ratings_per_user']:.2f}, "
               f"test users={te['users']} avg={te['avg_ratings_per_user']:.2f}")


# ---------------------------------------------------------------- criterion 7

WAR = ["war", "battle", "army", "soldier", "enemy", "commander"]
LOVE = ["love", "romance", "heart", "kiss", "wedding", "couple"]


def _pipeline_fixture(tmp_path):
    rng = np.random.default_rng(77)
    ratings = tmp_path / "ratings.csv"
    lines = []
    for u in range(1, 7):
        for i in range(1, 7):
            lines.append(f"{u},{i},{rng.integers(3, 6)}")
    for u in range(7, 13):
        for i in range(7, 13):
            lines.append(f"{u},{i},{rng.integers(3, 6)}")
    ratings.write_text("\n".join(lines) + "\n")
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("\n".join(
        f"{i}\t" + " ".join(rng.choice(WAR if i <= 6 else LOVE) for _ in range(20))
        for i in range(1, 13)
    ) + "\n")
    return ratings, corpus


def test_criterion_7_pipeline_determinism(tmp_path):
    ratings, corpus = _pipeline_fixture(tmp_path)
    artifacts = [
        "train.csv", "test.csv", "theta.csv", "phi.csv", "topics.txt",
        "personas.csv", "report.csv", "config.txt",
        "recs_hybrid.csv", "recs_topic_only.csv", "recs_ubcf_pearson.csv",
        "recs_ubcf_llr.csv", "recs_ibcf_llr.csv",
    ]
    out = tmp_path / "out"
    args = ["--ratings", str(ratings), "--format", "csv",
            "--corpus", str(corpus), "--out", str(out),
            "--topics", "2", "--alpha-sum", "2.0", "--iterations", "80",
            "--lda-seed", "7", "--split-seed", "3", "--neighbors", "4",
            "--max-k", "5", "--ks", "5"]

    def run_all():
        assert main(["split"] + args) == 0
        assert main(["train"] + args) == 0
        assert main(["personas"] + args) == 0
        assert main(["evaluate"] + args) == 0

    run_all()
    snapshot = {name: (out / name).read_bytes() for name in artifacts}
    run_all()  # identical config, same out dir: every artifact rewritten in place
    differing = [
        name for name in artifacts if (out / name).read_bytes() != snapshot[name]
    ]
    _criterion(7, "pipeline determinism (byte-identical reruns)",
               not differing,
               f"{len(artifacts)} artifacts compared"
               + (f", differing: {differing}" if differing else ""))


# ---------------------------------------------------------------- criterion 8

@pytest.mark.skipif(
    not (ML1M and ML1M_CORPUS),
    reason="set TOPICCF_ML1M=<ratings.dat> and TOPICCF_ML1M_CORPUS=<corpus dir/tsv>",
)
def test_criterion_8_optional_full_scale(tmp_path):
    from topiccf.ingest import load_corpus
    from topiccf.lda import default_stopwords, item_profiles

    iterations = int(os.environ.get("TOPICCF_ML1M_ITERATIONS", "1000"))
    ds = parse_ratings(ML1M, "movielens_dat")
    pair = split_train_test(ds, 0.8, seed=1)
    train, test = pair.train, pair.test

    corpus = load_corpus(ML1M_CORPUS)
    vocab, encoded = build_vocabulary(corpus, default_stopwords(), min_df=2)
    model = train_lda(encoded, vocab, T=50, alpha_sum=50.0, beta=0.01,
                      iterations=iterations, seed=1)
    personas = build_all_personas(train, item_profiles(model))

    p_hybrid = evaluate_sweep(
        lambda u: recommend_hybrid(u, personas, train, N=30, K=5),
        train, test, Ks=[5], max_K=5,
    )[0].precision
    p_ubcf = evaluate_sweep(
        lambda u: recommend_user_based(u, train, "llr", N=30, K=5),
        train, test, Ks=[5], max_K=5,
    )[0].precision
    _criterion(8, "full-scale MovieLens check",
               p_hybrid >= 0.20 and p_hybrid >= 3 * p_ubcf,
               f"hybrid p@5={p_hybrid:.3f} (>=0.20), ubcf_llr p@5={p_ubcf:.3f}")
