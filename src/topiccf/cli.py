"""Pipeline driver: split -> train -> personas -> evaluate.

Stages communicate through csv artifacts in the output directory so every
intermediate (splits, theta, personas, recommendations) can be inspected.
All randomness flows from the two named seeds; reruns with identical inputs
and config produce byte-identical artifacts.

Config precedence: defaults < config file (--config, key=value lines) < flags.
``main`` runs every stage the same way: build and validate the config, check
the stage's required keys, outside inputs and upstream files, create the output
directory, run ``cmd_<stage>``, then write the effective config to config.txt.
A stage that fails before writing anything leaves no new directory behind.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

from . import evaluate as ev
from . import ingest, lda, persona, recommend, similarity
from .ingest import ConfigurationError, RATING_MAX, RATING_MIN

# Algorithm name -> (reads personas.csv, recommender(user, train, personas, block, cfg)),
# block being similarity.item_llr_block of train, which cmd_evaluate builds once
# per run and only for ibcf_llr (None for the others). The order is the
# evaluation and report order.
RECOMMENDERS = {
    "hybrid": (True, lambda u, train, personas, _, c: recommend.recommend_hybrid(
        u, personas, train, c.neighbors, c.max_k, c.like_threshold)),
    "topic_only": (True, lambda u, train, personas, _, c: recommend.recommend_topic_only(
        u, personas, train, c.neighbors, c.max_k, c.like_threshold)),
    "ubcf_pearson": (False, lambda u, train, _, __, c: recommend.recommend_user_based(
        u, train, "pearson", c.neighbors, c.max_k)),
    "ubcf_llr": (False, lambda u, train, _, __, c: recommend.recommend_user_based(
        u, train, "llr", c.neighbors, c.max_k)),
    "ibcf_llr": (False, lambda u, train, _, block, c: recommend.recommend_item_based(
        u, train, c.max_k, block)),
}
ALGORITHMS = tuple(RECOMMENDERS)


def _opt(default, help_text: str, at_least: int | None = None):
    """A RunConfig field; ``help_text`` is its flag's --help line, ``at_least`` its least value."""
    return field(default=default, metadata={"help": help_text, "at_least": at_least})


@dataclass
class RunConfig:
    ratings: str | None = _opt(None, "ratings file path")
    format: str = _opt("movielens_dat", f"ratings file format: {' or '.join(ingest.FORMATS)}")
    corpus: str | None = _opt(None, "item corpus: directory of <item_id>.txt or TSV file")
    stopwords: str | None = _opt(None, "stopword file, one token per line; none: the shipped list")
    out: str = _opt("out", "output directory")
    topics: int = _opt(50, "number of topics T", at_least=1)
    alpha_sum: float = _opt(50.0, "Dirichlet concentration sum")
    beta: float = _opt(0.01, "topic-word smoothing")
    iterations: int = _opt(1000, "Gibbs sweeps", at_least=1)
    lda_seed: int = _opt(1, "sampler seed", at_least=0)
    min_df: int = _opt(1, "minimum document frequency for vocabulary", at_least=1)
    fraction: float = _opt(0.8, "train fraction")
    split_seed: int = _opt(1, "split seed", at_least=0)
    neighbors: int = _opt(30, "neighborhood size N", at_least=1)
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
        for f in fields(self):
            low, value = f.metadata["at_least"], getattr(self, f.name)
            if low is not None and value < low:
                raise ConfigurationError(f"{f.name} must be >= {low}, got {value}")
        lda.check_smoothing(self.alpha_sum, self.beta)
        if not (RATING_MIN <= self.like_threshold <= RATING_MAX):
            raise ConfigurationError(
                f"like_threshold must be in [{RATING_MIN}, {RATING_MAX}]"
            )
        if self.relevance_threshold is not None and not (
                RATING_MIN <= self.relevance_threshold <= RATING_MAX):
            raise ConfigurationError(
                f"relevance_threshold must be none or in [{RATING_MIN}, {RATING_MAX}], "
                f"got {self.relevance_threshold}"
            )
        if not self.ks or list(self.ks) != sorted(set(self.ks)) or self.ks[0] < 1:
            raise ConfigurationError("ks must be strictly increasing positive integers")
        if self.max_k < self.ks[-1]:
            raise ConfigurationError(f"max_k={self.max_k} below largest K={self.ks[-1]}")
        if not self.algorithms:
            raise ConfigurationError(f"algorithms is empty; valid: {', '.join(ALGORITHMS)}")
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad:
            raise ConfigurationError(
                f"unknown algorithm(s) {', '.join(bad)}; valid: {', '.join(ALGORITHMS)}"
            )
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigurationError(f"algorithms repeats a name: {','.join(self.algorithms)}")


# field name -> annotation string, e.g. "int", "float | None", "tuple[int, ...]"
_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(name: str, raw: str, where: str = ""):
    """Convert one raw flag or config-file value by the field's annotation.

    ``where`` prefixes the error (e.g. ``path:line: ``). An empty value or
    ``none`` is None for an optional field; a tuple field takes comma-separated items.
    """
    raw = raw.strip()
    typ = _TYPES[name]
    convert = int if "int" in typ else float if "float" in typ else str
    try:
        if typ.startswith("tuple"):
            return tuple(convert(x.strip()) for x in raw.split(",") if x.strip())
        if raw in ("", "none") and typ.endswith("None"):
            return None
        return convert(raw)
    except ValueError:
        raise ConfigurationError(f"{where}invalid value {raw!r} for {name}") from None


def read_config(path) -> RunConfig:
    """Parse a key=value config file into a RunConfig; a key set twice is an error."""
    values, lines = {}, {}
    for line_no, raw in enumerate(ingest.read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, where = key.strip(), f"{path}:{line_no}: "
        if not sep or key not in _TYPES:
            raise ConfigurationError(f"{where}unknown config key {key!r}")
        if key in lines:
            raise ConfigurationError(f"{where}config key {key!r} repeats line {lines[key]}")
        lines[key] = line_no
        values[key] = _parse_value(key, value, where)
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


def _flag(name: str) -> str:  # alpha_sum -> --alpha-sum
    return "--" + name.replace("_", "-")


def _require_inputs(out: Path, reads: dict[str, str]) -> None:
    """Raise unless every file in ``reads`` (name -> stage that writes it) is in ``out``."""
    for name, producer in reads.items():
        if not (out / name).exists():
            raise ConfigurationError(f"missing input {out / name}; run {producer} first")


def _print_summary(label: str, ds: ingest.RatingDataset) -> None:
    s = ingest.dataset_summary(ds)
    print(
        f"{label:<8} users={s['users']} items={s['items']} "
        f"ratings={s['ratings']} max_rpu={s['max_ratings_per_user']} "
        f"avg_rpu={s['avg_ratings_per_user']:.2f}"
    )


def cmd_split(cfg: RunConfig, out: Path) -> None:
    ds = ingest.parse_ratings(cfg.ratings, cfg.format)
    if not len(ds):
        raise ConfigurationError(f"no ratings in {cfg.ratings}")
    if ds.duplicates_dropped:
        print(f"warning: {ds.duplicates_dropped} duplicate (user,item) ratings dropped (kept last)")
    pair = ingest.split_train_test(ds, cfg.fraction, cfg.split_seed)
    ingest.write_ratings_csv(pair.train, out / "train.csv")
    ingest.write_ratings_csv(pair.test, out / "test.csv")
    _print_summary("train", pair.train)
    _print_summary("test", pair.test)


def cmd_train(cfg: RunConfig, out: Path) -> None:
    corpus = ingest.load_corpus(cfg.corpus)
    if corpus.skipped:
        print(f"warning: {corpus.skipped} corpus entries skipped "
              f"(non-integer id, directory entry not a .txt file, or empty text)")
    if not corpus.docs:
        raise ConfigurationError(f"no documents loaded from {cfg.corpus}")
    stops = lda.load_stopwords(cfg.stopwords) if cfg.stopwords else lda.default_stopwords()
    vocab, encoded = lda.build_vocabulary(corpus, stops, cfg.min_df)
    print(f"corpus: {len(encoded)} documents, vocabulary {len(vocab)}, "
          f"{encoded.total_tokens()} tokens")
    print(f"gibbs: {lda.load_kernels()[1]}")
    model = lda.train_lda(
        encoded, vocab,
        T=cfg.topics, alpha_sum=cfg.alpha_sum, beta=cfg.beta,
        iterations=cfg.iterations, seed=cfg.lda_seed,
        on_progress=lambda it, ll: print(f"iteration {it}: log-likelihood {ll:.2f}"),
    )
    lda.save_theta(model, out / "theta.csv")
    lda.save_phi(model, out / "phi.csv")
    lda.save_topics(model, out / "topics.txt")
    print(f"model written: theta.csv ({len(encoded)} rows), phi.csv, topics.txt")


def cmd_personas(cfg: RunConfig, out: Path) -> None:
    theta_path = out / "theta.csv"
    profiles = lda.load_item_profiles(theta_path)
    train = ingest.parse_ratings(out / "train.csv", "csv")
    personas = persona.build_all_personas(train, profiles)
    n_undef = persona.undefined_count(personas)
    if n_undef == len(personas):
        raise ConfigurationError(
            f"all {n_undef} personas undefined: no train user rated an item of "
            f"{theta_path}; the corpus item ids likely do not match the rating item ids"
        )
    persona.write_personas_csv(personas, out / "personas.csv")
    print(f"{len(personas)} personas written ({n_undef} undefined)")


def cmd_evaluate(cfg: RunConfig, out: Path, per_user_detail: bool = False,
                 dump_similarities: bool = False) -> None:
    train = ingest.parse_ratings(out / "train.csv", "csv")
    test = ingest.parse_ratings(out / "test.csv", "csv")

    selected = [a for a in ALGORITHMS if a in cfg.algorithms]
    personas = {}
    if dump_similarities or any(RECOMMENDERS[a][0] for a in selected):
        _require_inputs(out, {"personas.csv": "personas"})
        personas = persona.load_personas_csv(out / "personas.csv")
        if not any(personas[u].defined for u in train.users() if u in personas):
            raise ConfigurationError(f"no train user has a defined persona in "
                                     f"{out / 'personas.csv'}; run personas again")
        n_undef = persona.undefined_count(personas)
        effects = [effect for algo, effect in (
            ("hybrid", "hybrid falls back to rating-overlap similarity for those users"),
            ("topic_only", "topic_only gives them empty lists")) if algo in selected]
        if n_undef and effects:
            print(f"note: {n_undef} personas undefined; {', '.join(effects)}")
    cold = len(set(test.users()) - set(train.users()))
    if cold:
        print(f"note: {cold} test users have no train ratings; every algorithm gives "
              f"them an empty list")

    if dump_similarities:
        similarity.write_similarity_audit(out / "similarities.csv", personas, train)

    reports = []
    for algo in selected:
        block = None
        if algo == "ibcf_llr":
            block = similarity.item_llr_block(train)
            print(f"item LLR block: {block.shape[0]} x {block.shape[1]} float64, "
                  f"{block.nbytes / 2**20:.1f} MiB")
        rec_lists = {u: RECOMMENDERS[algo][1](u, train, personas, block, cfg)
                     for u in test.users()}
        recommend.write_recommendations_csv(rec_lists, out / f"recs_{algo}.csv")

        with (open(out / f"per_user_{algo}.csv", "w", encoding="utf-8") if per_user_detail
              else nullcontext()) as detail_fh:
            if detail_fh:
                detail_fh.write("user_id,K,precision,recall,f\n")
            rows = ev.evaluate_sweep(
                lambda u: rec_lists[u], train, test,
                Ks=cfg.ks, max_K=cfg.max_k,
                relevance_threshold=cfg.relevance_threshold,
                detail_sink=detail_fh,
            )
        reports.append(ev.EvalReport(algo, rows))
        at = rows[0]
        empty = sum(not recs.items for recs in rec_lists.values())
        print(f"{algo}: precision@{at.K}={at.precision:.4f} recall@{at.K}={at.recall:.4f} "
              f"({at.users_evaluated} users, {empty} empty lists)")
        del rec_lists  # before the next algorithm's lists, or the item LLR block, are built
    ev.emit_report(reports, out / "report.csv")
    print(f"report written to {out / 'report.csv'}")


class Stage(NamedTuple):
    help: str
    needs: tuple[str, ...]    # RunConfig fields that must be set
    inputs: tuple[str, ...]   # RunConfig fields naming outside paths that must exist, if set
    reads: dict[str, str]     # file in cfg.out -> the stage that writes it
    switches: dict[str, str]  # on/off flag -> help; passed to cmd_<stage> as a keyword


STAGES = {
    "split": Stage("parse ratings and write deterministic train/test splits",
                   ("ratings",), ("ratings",), {}, {}),
    "train": Stage("train the topic model over the item corpus",
                   ("corpus",), ("corpus", "stopwords"), {}, {}),
    "personas": Stage("project train users into topic space",
                      (), (), {"theta.csv": "train", "train.csv": "split"}, {}),
    "evaluate": Stage("run recommenders and emit the precision/recall/f report",
                      (), (), {"train.csv": "split", "test.csv": "split"},
                      {"per_user_detail": "write per-user metric csvs",
                       "dump_similarities": "write the all-pairs similarity audit csv"}),
}


def _build_parser() -> argparse.ArgumentParser:
    """One flag per RunConfig field (alpha_sum -> --alpha-sum), values left as strings."""
    parser = argparse.ArgumentParser(
        prog="topiccf",
        description="Hybrid topic/rating-overlap neighborhood recommender pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig()
    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help)
        p.add_argument("--config", help="key=value config file (flags override)")
        for f in fields(RunConfig):
            default = _render(getattr(defaults, f.name)) or "none"
            p.add_argument(_flag(f.name), help=f"{f.metadata['help']} (default: {default})")
        for switch, help_text in stage.switches.items():
            p.add_argument(_flag(switch), action="store_true", help=help_text)
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
    stage = STAGES[args.command]
    try:
        cfg = _config_from_args(args)
        cfg.validate()
        for key in stage.needs:
            if not getattr(cfg, key):
                raise ConfigurationError(f"{args.command} requires {_flag(key)}")
        for key in stage.inputs:
            path = getattr(cfg, key)
            if path is not None and not Path(path).exists():
                raise ConfigurationError(f"missing input {path} ({_flag(key)})")
        out = Path(cfg.out)
        _require_inputs(out, stage.reads)
        made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
        out.mkdir(parents=True, exist_ok=True)
        try:
            # Looked up when called, so a wrapper installed on cli.cmd_<stage> runs.
            globals()[f"cmd_{args.command}"](
                cfg, out, **{s: getattr(args, s) for s in stage.switches})
        except BaseException:
            for d in made:  # a stage that fails before writing leaves no new directory behind
                if any(d.iterdir()):
                    break
                d.rmdir()
            raise
        write_config(cfg, out / "config.txt")
    except (ConfigurationError, ingest.ParseError, ingest.RatingRangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
