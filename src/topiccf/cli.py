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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import evaluate as ev
from . import ingest, lda, persona, recommend, similarity
from .ingest import ConfigurationError, RATING_MAX, RATING_MIN

ALGORITHMS = ("hybrid", "topic_only", "ubcf_pearson", "ubcf_llr", "ibcf_llr")


def _opt(default, help_text: str):
    """A RunConfig field; ``help_text`` becomes its flag's --help line."""
    return field(default=default, metadata={"help": help_text})


@dataclass
class RunConfig:
    ratings: str | None = _opt(None, "ratings file path")
    format: str = _opt("movielens_dat", f"ratings file format: {' or '.join(ingest.FORMATS)}")
    corpus: str | None = _opt(None, "item corpus: directory of <item_id>.txt or TSV file")
    stopwords: str | None = _opt(None, "stopword file, one token per line; none: the shipped list")
    out: str = _opt("out", "output directory")
    topics: int = _opt(50, "number of topics T")
    alpha_sum: float = _opt(50.0, "Dirichlet concentration sum")
    beta: float = _opt(0.01, "topic-word smoothing")
    iterations: int = _opt(1000, "Gibbs sweeps")
    lda_seed: int = _opt(1, "sampler seed")
    min_df: int = _opt(1, "minimum document frequency for vocabulary")
    fraction: float = _opt(0.8, "train fraction")
    split_seed: int = _opt(1, "split seed")
    neighbors: int = _opt(30, "neighborhood size N")
    like_threshold: float = _opt(1.0, "rating counted as liking; 1.0: any rating")
    max_k: int = _opt(75, "recommendations generated per user")
    ks: tuple[int, ...] = _opt(ev.DEFAULT_KS, "comma-separated K values")
    algorithms: tuple[str, ...] = _opt(ALGORITHMS, "comma-separated algorithms to evaluate")
    relevance_threshold: float | None = _opt(None, "test rating counted as relevant; none: any")

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


# field name -> annotation string, e.g. "int", "float | None", "tuple[int, ...]"
_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(name: str, raw: str, where: str = ""):
    """Convert one raw flag or config-file value by the field's annotation.

    ``where`` prefixes the error (e.g. ``path:line: ``). An empty value is
    None for an optional field; a tuple field takes comma-separated items.
    """
    raw = raw.strip()
    typ = _TYPES[name]
    convert = int if "int" in typ else float if "float" in typ else str
    try:
        if typ.startswith("tuple"):
            return tuple(convert(x.strip()) for x in raw.split(",") if x.strip())
        if not raw and typ.endswith("None"):
            return None
        return convert(raw)
    except ValueError:
        raise ConfigurationError(f"{where}invalid value {raw!r} for {name}") from None


def read_config(path) -> RunConfig:
    """Parse a key=value config file into a RunConfig."""
    values = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _TYPES:
            raise ConfigurationError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = _parse_value(key, value, f"{path}:{line_no}: ")
    return RunConfig(**values)


def _render(value) -> str:
    """A config value as written to config.txt; _parse_value reads it back."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ",".join(str(x) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config(cfg: RunConfig, path) -> None:
    """Write the effective config; read_config on the result reproduces it exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields(RunConfig):
            fh.write(f"{f.name}={_render(getattr(cfg, f.name))}\n")


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


# Stage name -> (handler, help). Each handler looks its cmd_* function up when
# called, so a wrapper installed on the module attribute (bench/tracing.py) runs.
STAGES = {
    "split": (lambda cfg, args: cmd_split(cfg),
              "parse ratings and write deterministic train/test splits"),
    "train": (lambda cfg, args: cmd_train(cfg),
              "train the topic model over the item corpus"),
    "personas": (lambda cfg, args: cmd_personas(cfg),
                 "project train users into topic space"),
    "evaluate": (lambda cfg, args: cmd_evaluate(cfg, args.per_user_detail,
                                                args.dump_similarities),
                 "run recommenders and emit the precision/recall/f report"),
}


def _build_parser() -> argparse.ArgumentParser:
    """One flag per RunConfig field (alpha_sum -> --alpha-sum), values left as strings."""
    parser = argparse.ArgumentParser(
        prog="topiccf",
        description="Hybrid topic/rating-overlap neighborhood recommender pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig()
    for name, (_, help_text) in STAGES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file (flags override)")
        for f in fields(RunConfig):
            default = _render(getattr(defaults, f.name)) or "none"
            p.add_argument("--" + f.name.replace("_", "-"),
                           help=f"{f.metadata['help']} (default: {default})")
        if name == "evaluate":
            p.add_argument("--per-user-detail", action="store_true",
                           help="write per-user metric csvs")
            p.add_argument("--dump-similarities", action="store_true",
                           help="write the all-pairs similarity audit csv")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = read_config(args.config) if args.config else RunConfig()
    overrides = {}
    for name in _TYPES:
        raw = getattr(args, name)
        if raw is not None:
            overrides[name] = _parse_value(name, raw)
    return replace(cfg, **overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _ = STAGES[args.command]
    try:
        handler(_config_from_args(args), args)
    except (ConfigurationError, ingest.ParseError, ingest.RatingRangeError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
