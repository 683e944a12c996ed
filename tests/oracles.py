"""Independent naive reference implementations used as test oracles.

Everything here is deliberately written from scratch with plain loops and
dicts (plus scipy where it provides a second opinion), sharing no code with
the package. The G2 statistic uses the entropy formulation rather than the
cell-ratio formulation, and Pearson goes through scipy.stats.
"""
import math
import warnings

import numpy as np
import scipy.special
import scipy.stats

FLOOR = 1e-10


# ---------- the ratings as tuples ----------

def ds_records(ds):
    """The dataset's ratings as RatingRecords in row order, read from its columns;
    a row without a timestamp has None."""
    from topiccf.ingest import RatingRecord
    c = ds.columns
    return tuple(RatingRecord(u, i, r, t if has else None) for u, i, r, t, has in zip(
        c.user.tolist(), c.item.tolist(), c.rating.tolist(), c.timestamp.tolist(),
        c.has_timestamp.tolist()))


def ds_record_set(ds):
    return frozenset(ds_records(ds))


def ds_by_user(ds):
    """user -> ((item, rating), ...) in row order, users in row order."""
    out = {}
    for r in ds_records(ds):
        out.setdefault(r.user_id, []).append((r.item_id, r.rating))
    return {u: tuple(pairs) for u, pairs in out.items()}


def ds_user_items(ds, user):
    return frozenset(ds.columns.item[ds.columns.user == user].tolist())


def ds_item_users(ds, item):
    return frozenset(ds.columns.user[ds.columns.item == item].tolist())


# ---------- similarity ----------

def naive_symmetric_kl(p, q):
    """KL(p||q) + KL(q||p) of the floored vectors, each renormalised to sum
    to 1: the formula scipy.stats.entropy(p, q) evaluates, without its
    per-call argument checking."""
    p = np.maximum(np.asarray(p, dtype=float), FLOOR)
    q = np.maximum(np.asarray(q, dtype=float), FLOOR)
    p = p / np.sum(p)
    q = q / np.sum(q)
    return float(np.sum(scipy.special.rel_entr(p, q)) + np.sum(scipy.special.rel_entr(q, p)))


def naive_topic_sim(pu, pv):
    """pu/pv are distributions or None (undefined persona)."""
    if pu is None or pv is None:
        return None
    return math.exp(-naive_symmetric_kl(pu, pv))


def naive_pearson(ratings_u, ratings_v):
    """ratings_* are dicts item -> rating; returns None when undefined."""
    common = sorted(set(ratings_u) & set(ratings_v))
    if len(common) < 2:
        return None
    xs = [ratings_u[i] for i in common]
    ys = [ratings_v[i] for i in common]
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r, _ = scipy.stats.pearsonr(xs, ys)
    if math.isnan(r):
        return None
    return float(r)


def _xlx(x):
    return x * math.log(x) if x > 0 else 0.0


def naive_g2(k11, k12, k21, k22):
    n = k11 + k12 + k21 + k22
    g = 2.0 * (
        _xlx(k11) + _xlx(k12) + _xlx(k21) + _xlx(k22)
        - _xlx(k11 + k12) - _xlx(k21 + k22)
        - _xlx(k11 + k21) - _xlx(k12 + k22)
        + _xlx(n)
    )
    return max(0.0, g)


def naive_llr(items_u, items_v, num_items):
    k11 = len(items_u & items_v)
    k12 = len(items_u) - k11
    k21 = len(items_v) - k11
    k22 = num_items - k11 - k12 - k21
    g = naive_g2(k11, k12, k21, k22)
    return 1.0 - 1.0 / (1.0 + g)


def naive_hybrid(pu, pv, items_u, items_v, num_items):
    llr = naive_llr(items_u, items_v, num_items)
    topic = naive_topic_sim(pu, pv)
    if topic is None:
        return llr
    return topic * llr


# ---------- persona ----------

def naive_persona(ratings, profiles):
    """ratings: list of (item, rating); profiles: dict item -> np.ndarray.
    Returns None when no rated item is documented."""
    documented = [(i, r) for i, r in ratings if i in profiles]
    if not documented:
        return None
    total = sum(r for _, r in documented)
    out = np.zeros_like(next(iter(profiles.values())), dtype=float)
    for i, r in documented:
        out = out + (r / total) * profiles[i]
    return out


def loop_persona(ratings, profiles):
    """The persona as a per-user loop, bit for bit: ratings is a list of
    (item, rating) in item order, profiles a dict item -> np.ndarray. The
    total is the left-to-right sum of the documented ratings, the first
    weighted row starts the mix and each later one is added to it. Returns
    (distribution or None, documented item count)."""
    documented = [(i, r) for i, r in ratings if i in profiles]
    total = 0.0
    for _, r in documented:
        total += r
    mix = None
    for i, r in documented:
        term = (r / total) * profiles[i]
        mix = term if mix is None else mix + term
    return mix, len(documented)


# ---------- artifact text ----------

def repr_rows_text(rows, header="", trailer=""):
    """``id,v_0,...,v_{n-1}`` lines, each value written by its own repr."""
    lines = [f"{row_id}," + ",".join(repr(float(x)) for x in values) + "\n"
             for row_id, values in rows]
    return header + "".join(lines) + trailer


def repr_phi_text(phi, tokens, header, threshold):
    """``topic,token,p`` lines for every p > threshold, each p by its own repr."""
    lines = [f"{t},{tok},{float(p)!r}\n"
             for t, row in enumerate(phi) for tok, p in zip(tokens, row) if p > threshold]
    return header + "".join(lines)


# ---------- recommenders (the whole pipelines, naively) ----------

def _top_n_neighbors(user, all_users, sim_of, n):
    scored = []
    for other in sorted(all_users):
        if other == user:
            continue
        s = sim_of(user, other)
        if s is not None and s > 0.0:
            scored.append((other, s))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:n]


def _rank_by_weight(user, neighbors, train_by_user, k, like_threshold):
    if not neighbors:
        return []
    likes = {}
    for v, _ in neighbors:
        for item, rating in train_by_user.get(v, []):
            if rating >= like_threshold:
                likes[item] = likes.get(item, 0) + 1
    mine = {i for i, _ in train_by_user.get(user, [])}
    scored = [
        (item, count / len(neighbors))
        for item, count in likes.items()
        if count > 0 and item not in mine
    ]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def naive_recommend_neighborhood(user, train_by_user, sim_of, n, k, like_threshold):
    """Full hybrid-style pipeline: top-n neighborhood by sim_of, then weight ranking."""
    users = set(train_by_user)
    neighbors = _top_n_neighbors(user, users, sim_of, n)
    return _rank_by_weight(user, neighbors, train_by_user, k, like_threshold)


def naive_user_based(user, train_by_user, sim_of, n, k):
    users = set(train_by_user)
    neighbors = _top_n_neighbors(user, users, sim_of, n)
    if not neighbors:
        return []
    num, den = {}, {}
    for v, s in neighbors:
        for item, rating in train_by_user.get(v, []):
            num[item] = num.get(item, 0.0) + s * rating
            den[item] = den.get(item, 0.0) + abs(s)
    mine = {i for i, _ in train_by_user.get(user, [])}
    scored = [
        (item, num[item] / den[item])
        for item in num
        if item not in mine and den[item] > 0.0
    ]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def naive_item_based(user, train_by_user, item_sim, k):
    """item_sim(i, j) -> similarity value (already-defined scores only)."""
    all_items = set()
    for pairs in train_by_user.values():
        for item, _ in pairs:
            all_items.add(item)
    rated = train_by_user.get(user, [])
    if not rated:
        return []
    mine = {i for i, _ in rated}
    scored = []
    for item in sorted(all_items):
        if item in mine:
            continue
        num = den = 0.0
        for j, rating in rated:
            s = item_sim(item, j)
            if s > 0.0:
                num += s * rating
                den += s
        if den > 0.0:
            scored.append((item, num / den))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


# ---------- metrics ----------

def naive_precision_recall(recommended, relevant):
    hits = len([i for i in recommended if i in relevant])
    p = hits / len(recommended) if recommended else 0.0
    r = hits / len(relevant)
    return p, r


# ---------- similarity plumbing for the pipeline oracles ----------

def pipeline_sims(train, personas):
    """Similarity callables feeding the naive pipeline oracles.

    These wrap the package's similarity primitives (re-wiring the hybrid
    composition by hand) so both sides of a list comparison see bit-identical
    scores and exact order equality is meaningful. The primitives themselves
    are verified against independent formulations (scipy, entropy-form G2)
    separately; see naive_* above.
    """
    from topiccf.similarity import (
        item_llr_similarity, llr_similarity, pearson_similarity, topic_similarity,
    )
    by_user = {u: list(pairs) for u, pairs in ds_by_user(train).items()}

    def hybrid_sim(a, b):
        t = topic_similarity(personas.get(a), personas.get(b))
        llr = llr_similarity(a, b, train).value
        return llr if not t.defined else t.value * llr

    def topic_sim(a, b):
        s = topic_similarity(personas.get(a), personas.get(b))
        return s.value if s.defined else None

    def pearson_sim(a, b):
        s = pearson_similarity(a, b, train)
        return s.value if s.defined else None

    def llr_sim(a, b):
        return llr_similarity(a, b, train).value

    def item_sim(i, j):
        return item_llr_similarity(i, j, train).value

    return by_user, hybrid_sim, topic_sim, pearson_sim, llr_sim, item_sim
