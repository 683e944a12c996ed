"""Deterministic synthetic inputs for the benchmark, generated with numpy from one seed.

The program only ever sees the files written here. Each property below is in
the data for a reason:

* Zipf item popularity and Zipf user activity with a floor of 20 ratings per
  user, as in MovieLens-1M: per-user cost of every recommender grows with the
  user's activity and the overlap of popular items, so a flat distribution
  would understate the heavy users that dominate real run time.
* Users lean towards one taste group of topics and rate items of that group
  more often and higher: neighbourhoods and personas then carry signal, so the
  output checks compare meaningful, non-degenerate lists.
* Item ids are drawn from a sparse id space (ML-1M ids run to 3952 for 3706
  rated movies) and the corpus documents some items nobody rated: parsers and
  profile maps must not assume dense ids.
* About 3% of rated items have no document, and a few users rated only such
  items: their personas are undefined, so the hybrid recommender's fallback to
  rating-overlap similarity runs.
* A few (user, item) pairs appear twice in the ratings file: the parser's
  keep-last de-duplication runs and ``duplicates_dropped`` is non-zero.
* Documents are topic mixtures over pseudo-words with English stopwords and
  numbers mixed in: tokenisation and stopword removal do real work, and about
  65 tokens per document remain, close to short plot summaries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_RATINGS = 20
TOPICS = 50
TOPIC_WORDS = 150        # words specific to one topic
SHARED_WORDS = 1500      # content words every topic can use
GROUP_SIZE = 5           # topics per user taste group
TS_START = 956703932     # first MovieLens-1M timestamp
STOPWORDS = (
    "the", "and", "of", "a", "in", "to", "is", "his", "her", "with", "who",
    "that", "for", "on", "as", "by", "from", "but", "their", "they", "an",
    "at", "when", "after", "he", "she", "it", "this", "into", "while",
)
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Scale:
    users: int
    items: int                   # distinct rated items
    ratings: int                 # target rating count before duplicates
    id_space: int                # item ids are drawn from 1..id_space
    undocumented: int            # rated items without a document
    all_undocumented_users: int  # users who rated only undocumented items
    duplicates: int              # repeated (user, item) lines
    doc_tokens: float = 65.0     # mean content tokens per document


# MovieLens-1M shape: 6040 users, 3706 rated movies, about 1M ratings.
ML1M = Scale(users=6040, items=3706, ratings=1_000_000, id_space=3952,
             undocumented=111, all_undocumented_users=3, duplicates=30)
# Whole-population evaluation of all five algorithms in a few seconds each.
# 20 undocumented items (3%) is the least that lets a user with the minimum
# 20 ratings have only undocumented items.
DESK = Scale(users=120, items=640, ratings=3_000, id_space=680,
             undocumented=20, all_undocumented_users=2, duplicates=10)


@dataclass
class Synth:
    users: np.ndarray            # one entry per rating line, duplicates included
    items: np.ndarray
    ratings: np.ndarray          # integer 1..5
    timestamps: np.ndarray
    doc_ids: np.ndarray          # documented item ids, ascending
    doc_texts: list[str]
    doc_theta: np.ndarray        # generating topic mixture per document


def _pseudo_words(n: int) -> np.ndarray:
    """n distinct lowercase words of three consonant-vowel syllables (never stopwords)."""
    syll = [c + v for c in _CONSONANTS for v in _VOWELS]
    b = len(syll)
    idx = np.arange(n)
    return np.array([syll[i // (b * b)] + syll[(i // b) % b] + syll[i % b] for i in idx])


def _zipf_weights(n: int, s: float, shift: float) -> np.ndarray:
    w = 1.0 / (np.arange(1, n + 1) + shift) ** s
    return w / w.sum()


def _activity(rng, scale: Scale) -> np.ndarray:
    """Ratings per user: 20 plus a Zipf-Mandelbrot share of the remaining total."""
    extra_total = scale.ratings - MIN_RATINGS * scale.users
    extra = np.floor(_zipf_weights(scale.users, 1.0, 80.0) * extra_total)
    counts = MIN_RATINGS + np.minimum(extra, scale.items * 0.6).astype(np.int64)
    return counts[rng.permutation(scale.users)]


def generate(scale: Scale, seed: int) -> Synth:
    rng = np.random.default_rng(seed)
    U, I = scale.users, scale.items
    item_ids = np.sort(rng.choice(np.arange(1, scale.id_space + 1), size=I, replace=False))
    item_topic = rng.integers(0, TOPICS, size=I)
    item_quality = rng.normal(size=I)
    pop = _zipf_weights(I, 1.0, 20.0)[rng.permutation(I)]
    undocumented = np.zeros(I, dtype=bool)
    undocumented[rng.choice(I, size=scale.undocumented, replace=False)] = True

    n_groups = TOPICS // GROUP_SIZE
    user_group = rng.integers(0, n_groups, size=U)
    user_bias = rng.normal(size=U)
    counts = _activity(rng, scale)
    # The lightest users become the all-undocumented ones.
    lonely = np.argsort(counts, kind="stable")[: scale.all_undocumented_users]
    counts[lonely] = MIN_RATINGS

    # Per-user sampling without replacement by the Gumbel top-k trick, in
    # chunks of users with similar activity so only the top kmax keys are sorted.
    log_pop = np.log(pop)
    lean = np.log(4.0)
    rows_u, rows_i = [], []
    by_activity = np.argsort(counts, kind="stable")
    for start in range(0, U, 128):
        users = by_activity[start:start + 128]
        keys = log_pop[None, :] + lean * (item_topic[None, :] // GROUP_SIZE
                                          == user_group[users, None])
        keys[np.isin(users, lonely)] = np.where(undocumented, 0.0, -np.inf)
        keys = -(keys + rng.gumbel(size=keys.shape))
        kmax = int(counts[users].max())
        top = np.argpartition(keys, kmax - 1, axis=1)[:, :kmax]
        top = np.take_along_axis(top, np.argsort(np.take_along_axis(keys, top, axis=1),
                                                 axis=1, kind="stable"), axis=1)
        take = np.arange(kmax)[None, :] < counts[users, None]
        rows_u.append(np.broadcast_to(users[:, None], top.shape)[take])
        rows_i.append(top[take])
    u_idx = np.concatenate(rows_u)
    i_idx = np.concatenate(rows_i)

    # Every item gets at least one rating, so exactly `items` items are rated.
    rated = np.bincount(i_idx, minlength=I) > 0
    unrated = np.flatnonzero(~rated)
    if unrated.size:
        normal_users = np.setdiff1d(np.arange(U), lonely)
        u_idx = np.concatenate([u_idx, rng.choice(normal_users, size=unrated.size)])
        i_idx = np.concatenate([i_idx, unrated])

    match = (item_topic[i_idx] // GROUP_SIZE) == user_group[u_idx]
    score = (3.2 + 0.9 * match + 0.5 * item_quality[i_idx] + 0.3 * user_bias[u_idx]
             + rng.normal(scale=0.9, size=u_idx.size))
    ratings = np.clip(np.rint(score), 1, 5).astype(np.int64)
    ts = TS_START + rng.integers(0, 90_000_000, size=u_idx.size)

    # Duplicate lines: same (user, item), new rating and a later timestamp.
    dup = rng.choice(u_idx.size, size=scale.duplicates, replace=False)
    u_idx = np.concatenate([u_idx, u_idx[dup]])
    i_idx = np.concatenate([i_idx, i_idx[dup]])
    ratings = np.concatenate([ratings, 1 + (ratings[dup] % 5)])
    ts = np.concatenate([ts, ts[dup] + 1])

    order = np.lexsort((ts, u_idx))   # MovieLens order: by user, then time
    users = u_idx[order] + 1
    items = item_ids[i_idx[order]]
    ratings, ts = ratings[order], ts[order]

    doc_ids, texts, theta = _corpus(rng, scale, item_ids, item_topic, undocumented)
    return Synth(users, items, ratings, ts, doc_ids, texts, theta)


def _corpus(rng, scale: Scale, item_ids, item_topic, undocumented):
    """Documents for the documented rated items plus as many unrated ids."""
    spare = np.setdiff1d(np.arange(1, scale.id_space + 1), item_ids)
    extra = np.sort(rng.choice(spare, size=scale.undocumented, replace=False))
    extra_topic = rng.integers(0, TOPICS, size=extra.size)
    ids = np.concatenate([item_ids[~undocumented], extra])
    topics = np.concatenate([item_topic[~undocumented], extra_topic])
    order = np.argsort(ids)
    ids, topics = ids[order], topics[order]
    D = ids.size

    alpha = np.full((D, TOPICS), 0.1)
    alpha[np.arange(D), topics] += 4.0
    theta = rng.gamma(alpha)
    theta /= theta.sum(axis=1, keepdims=True)

    n_content = 20 + rng.poisson(scale.doc_tokens - 20, size=D)
    n_stop = rng.poisson(0.6 * n_content)
    n_num = rng.integers(0, 3, size=D)
    doc_of = np.repeat(np.arange(D), n_content)
    cum = np.cumsum(theta, axis=1)
    tok_topic = (rng.random(doc_of.size)[:, None] > cum[doc_of]).sum(axis=1)
    tok_topic = np.minimum(tok_topic, TOPICS - 1)
    local = rng.choice(TOPIC_WORDS, size=doc_of.size, p=_zipf_weights(TOPIC_WORDS, 1.0, 2.0))
    shared = rng.random(doc_of.size) < 0.15
    shared_word = rng.choice(SHARED_WORDS, size=doc_of.size,
                             p=_zipf_weights(SHARED_WORDS, 1.0, 5.0))
    word = np.where(shared, TOPICS * TOPIC_WORDS + shared_word,
                    tok_topic * TOPIC_WORDS + local)
    vocab = _pseudo_words(TOPICS * TOPIC_WORDS + SHARED_WORDS)

    stop_doc = np.repeat(np.arange(D), n_stop)
    stop_word = rng.choice(len(STOPWORDS), size=stop_doc.size,
                           p=_zipf_weights(len(STOPWORDS), 1.0, 1.0))
    num_doc = np.repeat(np.arange(D), n_num)
    num_val = rng.integers(1900, 2001, size=num_doc.size)

    strings = np.concatenate([vocab[word], np.array(STOPWORDS)[stop_word],
                              num_val.astype(str)])
    doc = np.concatenate([doc_of, stop_doc, num_doc])
    order = np.lexsort((rng.random(doc.size), doc))
    strings, doc = strings[order], doc[order]
    bounds = np.searchsorted(doc, np.arange(D + 1))
    texts = [" ".join(strings[bounds[d]:bounds[d + 1]]) + "." for d in range(D)]
    return ids, texts, theta


def write_movielens(s: Synth, path) -> None:
    """``UserID::MovieID::Rating::Timestamp`` lines, duplicates included."""
    lines = map("{}::{}::{}::{}\n".format, s.users.tolist(), s.items.tolist(),
                s.ratings.tolist(), s.timestamps.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def write_corpus(s: Synth, path) -> None:
    """``item_id<TAB>text`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{i}\t{t}\n" for i, t in zip(s.doc_ids.tolist(), s.doc_texts))


def write_split(s: Synth, seed: int, train_path, test_path, fraction: float = 0.8) -> None:
    """A per-user random split in the program's csv format: rows sorted by
    (user, item), ``user,item,rating,timestamp`` with the rating as a float.
    Duplicate lines keep the last occurrence, as the parser does."""
    key = s.users.astype(np.int64) * (1 << 32) + s.items
    _, last = np.unique(key[::-1], return_index=True)
    keep = np.sort(key.size - 1 - last)
    u, i, r, t = s.users[keep], s.items[keep], s.ratings[keep], s.timestamps[keep]
    rng = np.random.default_rng([seed, 1])
    order = np.lexsort((rng.random(u.size), u))
    starts = np.searchsorted(u[order], u[order], side="left")
    rank = np.arange(u.size) - starts
    n_user = np.bincount(u)[u[order]]
    to_train = np.empty(u.size, dtype=bool)
    to_train[order] = rank < np.floor(fraction * n_user + 0.5)
    for path, mask in ((train_path, to_train), (test_path, ~to_train)):
        sel = np.flatnonzero(mask)
        sel = sel[np.lexsort((i[sel], u[sel]))]
        rows = map("{},{},{}.0,{}\n".format, u[sel].tolist(), i[sel].tolist(),
                   r[sel].tolist(), t[sel].tolist())
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(rows)


def write_theta(s: Synth, path) -> None:
    """The generating topic mixtures as ``item_id,p_0,...,p_49`` rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for item, row in zip(s.doc_ids.tolist(), s.doc_theta.tolist()):
            fh.write(f"{item}," + ",".join(map(repr, row)) + "\n")


SCALES = {"ml1m": ML1M, "desk": DESK}
WRITERS = {
    "ratings.dat": lambda s, seed, out: write_movielens(s, out / "ratings.dat"),
    "corpus.tsv": lambda s, seed, out: write_corpus(s, out / "corpus.tsv"),
    "train.csv": lambda s, seed, out: write_split(s, seed, out / "train.csv", out / "test.csv"),
    "theta.csv": lambda s, seed, out: write_theta(s, out / "theta.csv"),
}


def main(argv=None) -> None:
    """``python3 synth.py <scale> <seed> <out_dir> <file>...`` writes the named inputs.

    ``train.csv`` also writes ``test.csv``. Run as a separate process so the
    generator's memory never counts towards the program's peak RSS.
    """
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("scale", choices=sorted(SCALES))
    parser.add_argument("seed", type=int)
    parser.add_argument("out", type=Path)
    parser.add_argument("files", nargs="+", choices=sorted(WRITERS))
    args = parser.parse_args(argv)
    s = generate(SCALES[args.scale], args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    for name in args.files:
        WRITERS[name](s, args.seed, args.out)


if __name__ == "__main__":
    main()
