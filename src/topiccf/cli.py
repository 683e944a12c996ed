"""Pipeline driver: split -> train -> personas -> evaluate.

Stages communicate through csv artifacts in the output directory so every
intermediate (splits, theta, personas, recommendations) can be inspected.
All randomness flows from the two named seeds; reruns with identical inputs
and config produce byte-identical artifacts.

Config precedence: defaults < config file (--config, key=value lines) < flags.
The effective config is written to <out>/config.txt alongside the artifacts.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import evaluate as ev
from . import ingest, lda, persona, recommend, similarity
from .ingest import ConfigurationError, RATING_MAX, RATING_MIN

ALGORITHMS = ("hybrid", "topic_only", "ubcf_pearson", "ubcf_llr", "ibcf_llr")


@dataclass
class RunConfig:
    ratings: str | None = None
    format: str = "movielens_dat"
    corpus: str | None = None
    stopwords: str | None = None
    out: str = "out"
    topics: int = 50
    alpha_sum: float = 50.0
    beta: float = 0.01
    iterations: int = 1000
    lda_seed: int = 1
    min_df: int = 1
    fraction: float = 0.8
    split_seed: int = 1
    neighbors: int = 30
    like_threshold: float = 1.0
    max_k: int = 75
    ks: tuple[int, ...] = ev.DEFAULT_KS
    algorithms: tuple[str, ...] = ALGORITHMS
    relevance_threshold: float | None = None

    def validate(self) -> None:
        if self.format not in ingest.FORMATS:
            raise ConfigurationError(f"unknown format {self.format!r}")
        if not (0.0 < self.fraction < 1.0):
            raise ConfigurationError(f"fraction must be in (0, 1), got {self.fraction}")
        if self.topics < 1:
            raise ConfigurationError(f"topics must be >= 1, got {self.topics}")
        if self.alpha_sum <= 0.0 or self.beta <= 0.0:
            raise ConfigurationError("alpha_sum and beta must be positive")
        if self.iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {self.iterations}")
        if self.min_df < 1:
            raise ConfigurationError(f"min_df must be >= 1, got {self.min_df}")
        if self.neighbors < 1:
            raise ConfigurationError(f"neighbors must be >= 1, got {self.neighbors}")
        if not (RATING_MIN <= self.like_threshold <= RATING_MAX):
            raise ConfigurationError(
                f"like_threshold must be in [{RATING_MIN}, {RATING_MAX}]"
            )
        if not self.ks or list(self.ks) != sorted(set(self.ks)) or self.ks[0] < 1:
            raise ConfigurationError("ks must be strictly increasing positive integers")
        if self.max_k < self.ks[-1]:
            raise ConfigurationError(f"max_k={self.max_k} below largest K={self.ks[-1]}")
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad:
            raise ConfigurationError(
                f"unknown algorithm(s) {', '.join(bad)}; valid: {', '.join(ALGORITHMS)}"
            )


_INT_LIST = ("ks",)
_STR_LIST = ("algorithms",)
_OPTIONAL_FLOAT = ("relevance_threshold",)
_OPTIONAL_STR = ("ratings", "corpus", "stopwords")


def _parse_value(name: str, raw: str, where: str = ""):
    """Convert one raw config value; ``where`` prefixes the error (e.g. ``path:line: ``)."""
    raw = raw.strip()
    typ = next(f.type for f in fields(RunConfig) if f.name == name)
    try:
        if name in _INT_LIST:
            return tuple(int(x) for x in raw.split(",") if x)
        if name in _STR_LIST:
            return tuple(x.strip() for x in raw.split(",") if x.strip())
        if name in _OPTIONAL_FLOAT:
            return float(raw) if raw else None
        if name in _OPTIONAL_STR:
            return raw or None
        if "int" in typ:
            return int(raw)
        if "float" in typ:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigurationError(f"{where}invalid value {raw!r} for {name}") from None


def read_config(path) -> RunConfig:
    """Parse a key=value config file into a RunConfig."""
    names = {f.name for f in fields(RunConfig)}
    values = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in names:
            raise ConfigurationError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = _parse_value(key, value, f"{path}:{line_no}: ")
    return RunConfig(**values)


def write_config(cfg: RunConfig, path) -> None:
    """Write the effective config; read_config on the result reproduces it exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(RunConfig):
            value = getattr(cfg, f.name)
            if value is None:
                rendered = ""
            elif isinstance(value, tuple):
                rendered = ",".join(str(x) for x in value)
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            fh.write(f"{f.name}={rendered}\n")


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_summary(label: str, ds: ingest.RatingDataset) -> None:
    s = ingest.dataset_summary(ds)
    print(
        f"{label:<8} users={s['users']} items={s['items']} "
        f"ratings={s['ratings']} max_rpu={s['max_ratings_per_user']} "
        f"avg_rpu={s['avg_ratings_per_user']:.2f}"
    )


def cmd_split(cfg: RunConfig) -> None:
    cfg.validate()
    if not cfg.ratings:
        raise ConfigurationError("split requires --ratings")
    out = _outdir(cfg)
    ds = ingest.parse_ratings(cfg.ratings, cfg.format)
    if ds.duplicates_dropped:
        print(f"warning: {ds.duplicates_dropped} duplicate (user,item) ratings dropped (kept last)")
    pair = ingest.split_train_test(ds, cfg.fraction, cfg.split_seed)
    ingest.write_ratings_csv(pair.train, out / "train.csv")
    ingest.write_ratings_csv(pair.test, out / "test.csv")
    write_config(cfg, out / "config.txt")
    _print_summary("train", pair.train)
    _print_summary("test", pair.test)


def cmd_train(cfg: RunConfig) -> None:
    cfg.validate()
    if not cfg.corpus:
        raise ConfigurationError("train requires --corpus")
    out = _outdir(cfg)
    corpus = ingest.load_corpus(cfg.corpus)
    if not corpus.docs:
        raise ConfigurationError(f"no documents loaded from {cfg.corpus}")
    stops = lda.load_stopwords(cfg.stopwords) if cfg.stopwords else lda.default_stopwords()
    vocab, encoded = lda.build_vocabulary(corpus, stops, cfg.min_df)
    print(f"corpus: {len(encoded)} documents, vocabulary {len(vocab)}, "
          f"{encoded.total_tokens()} tokens")
    model = lda.train_lda(
        encoded, vocab,
        T=cfg.topics, alpha_sum=cfg.alpha_sum, beta=cfg.beta,
        iterations=cfg.iterations, seed=cfg.lda_seed,
        on_progress=lambda it, ll: print(f"iteration {it}: log-likelihood {ll:.2f}"),
    )
    lda.save_theta(model, out / "theta.csv")
    lda.save_phi(model, out / "phi.csv")
    lda.save_topics(model, out / "topics.txt")
    write_config(cfg, out / "config.txt")
    print(f"model written: theta.csv ({len(encoded)} rows), phi.csv, topics.txt")


def cmd_personas(cfg: RunConfig) -> None:
    cfg.validate()
    out = _outdir(cfg)
    theta_path = out / "theta.csv"
    train_path = out / "train.csv"
    for p in (theta_path, train_path):
        if not p.exists():
            raise ConfigurationError(f"missing input {p}; run earlier stages first")
    profiles = lda.load_item_profiles(theta_path)
    train = ingest.parse_ratings(train_path, "csv")
    personas = persona.build_all_personas(train, profiles)
    n_undef = persona.undefined_count(personas)
    if n_undef == len(personas):
        raise ConfigurationError(
            f"all {n_undef} personas undefined: no train user rated an item of "
            f"{theta_path}; the corpus item ids likely do not match the rating item ids"
        )
    persona.write_personas_csv(personas, out / "personas.csv")
    write_config(cfg, out / "config.txt")
    print(f"{len(personas)} personas written ({n_undef} undefined)")


def _make_recommender(algo: str, train, personas, cfg: RunConfig):
    N, K, like = cfg.neighbors, cfg.max_k, cfg.like_threshold
    if algo == "hybrid":
        return lambda u: recommend.recommend_hybrid(u, personas, train, N, K, like)
    if algo == "topic_only":
        return lambda u: recommend.recommend_topic_only(u, personas, train, N, K, like)
    if algo == "ubcf_pearson":
        return lambda u: recommend.recommend_user_based(u, train, "pearson", N, K)
    if algo == "ubcf_llr":
        return lambda u: recommend.recommend_user_based(u, train, "llr", N, K)
    if algo == "ibcf_llr":
        return lambda u: recommend.recommend_item_based(u, train, K)
    raise ConfigurationError(f"unknown algorithm {algo!r}; valid: {', '.join(ALGORITHMS)}")


def cmd_evaluate(cfg: RunConfig, per_user_detail: bool = False,
                 dump_similarities: bool = False) -> None:
    cfg.validate()
    out = _outdir(cfg)
    train_path, test_path = out / "train.csv", out / "test.csv"
    for p in (train_path, test_path):
        if not p.exists():
            raise ConfigurationError(f"missing input {p}; run split first")
    train = ingest.parse_ratings(train_path, "csv")
    test = ingest.parse_ratings(test_path, "csv")

    selected = [a for a in ALGORITHMS if a in cfg.algorithms]
    personas = {}
    if any(a in ("hybrid", "topic_only") for a in selected):
        personas_path = out / "personas.csv"
        if not personas_path.exists():
            raise ConfigurationError(f"missing input {personas_path}; run personas first")
        personas = persona.load_personas_csv(personas_path)
        n_undef = persona.undefined_count(personas)
        if n_undef:
            print(f"note: {n_undef} personas undefined; hybrid falls back to "
                  f"rating-overlap similarity for those users")

    if dump_similarities:
        similarity.write_similarity_audit(out / "similarities.csv", personas, train)

    reports = []
    for algo in selected:
        recommender = _make_recommender(algo, train, personas, cfg)
        rec_lists = {u: recommender(u) for u in sorted(test.by_user)}
        recommend.write_recommendations_csv(rec_lists, out / f"recs_{algo}.csv")

        detail_fh = None
        if per_user_detail:
            detail_fh = open(out / f"per_user_{algo}.csv", "w", encoding="utf-8")
            detail_fh.write("user_id,K,precision,recall,f\n")
        try:
            rows = ev.evaluate_sweep(
                lambda u: rec_lists[u], train, test,
                Ks=cfg.ks, max_K=cfg.max_k,
                relevance_threshold=cfg.relevance_threshold,
                detail_sink=detail_fh,
            )
        finally:
            if detail_fh:
                detail_fh.close()
        reports.append(ev.EvalReport(algo, rows))
        at = rows[0]
        print(f"{algo}: precision@{at.K}={at.precision:.4f} recall@{at.K}={at.recall:.4f} "
              f"({at.users_evaluated} users)")
    ev.emit_report(reports, out / "report.csv")
    write_config(cfg, out / "config.txt")
    print(f"report written to {out / 'report.csv'}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topiccf",
        description="Hybrid topic/rating-overlap neighborhood recommender pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("split", "parse ratings and write deterministic train/test splits"),
        ("train", "train the topic model over the item corpus"),
        ("personas", "project train users into topic space"),
        ("evaluate", "run recommenders and emit the precision/recall/f report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file (flags override)")
        p.add_argument("--ratings", help="ratings file path")
        p.add_argument("--format", choices=ingest.FORMATS, help="ratings file format")
        p.add_argument("--corpus", help="item corpus: directory of <item_id>.txt or TSV file")
        p.add_argument("--stopwords", help="stopword file, one token per line")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--topics", type=int, help="number of topics T (default 50)")
        p.add_argument("--alpha-sum", dest="alpha_sum", type=float,
                       help="Dirichlet concentration sum (default 50)")
        p.add_argument("--beta", type=float, help="topic-word smoothing (default 0.01)")
        p.add_argument("--iterations", type=int, help="Gibbs sweeps (default 1000)")
        p.add_argument("--lda-seed", dest="lda_seed", type=int, help="sampler seed")
        p.add_argument("--min-df", dest="min_df", type=int,
                       help="minimum document frequency for vocabulary (default 1)")
        p.add_argument("--fraction", type=float, help="train fraction (default 0.8)")
        p.add_argument("--split-seed", dest="split_seed", type=int, help="split seed")
        p.add_argument("--neighbors", type=int, help="neighborhood size N (default 30)")
        p.add_argument("--like-threshold", dest="like_threshold", type=float,
                       help="rating counted as liking (default 1.0 = any rating)")
        p.add_argument("--max-k", dest="max_k", type=int,
                       help="recommendations generated per user (default 75)")
        p.add_argument("--ks", help="comma-separated K values (default 5,10,...,75)")
        p.add_argument("--algorithms", help=f"comma-separated subset of {','.join(ALGORITHMS)}")
        p.add_argument("--relevance-threshold", dest="relevance_threshold", type=float,
                       help="test rating needed to count as relevant (default: any)")
        if name == "evaluate":
            p.add_argument("--per-user-detail", action="store_true",
                           help="write per-user metric csvs")
            p.add_argument("--dump-similarities", action="store_true",
                           help="write the all-pairs similarity audit csv")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = read_config(args.config) if args.config else RunConfig()
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        if f.name in _INT_LIST + _STR_LIST:
            value = _parse_value(f.name, value)
        overrides[f.name] = value
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "split":
            cmd_split(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "personas":
            cmd_personas(cfg)
        elif args.command == "evaluate":
            cmd_evaluate(cfg, per_user_detail=args.per_user_detail,
                         dump_similarities=args.dump_similarities)
    except (ConfigurationError, ingest.ParseError, ingest.RatingRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
