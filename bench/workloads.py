"""The three workloads: inputs, set-up, one timed round, and the checks on every output.

Why each workload exists (see README.md for the metric map):

* build-ml1m: the model-building half of the job at MovieLens-1M shape:
  ``split -> train -> personas`` through the CLI. ingest, lda and persona do
  all the work; similarity and recommend do none.
* query-ml1m: per-user recommendation against the full 6040-user population
  for a fixed, activity-stratified sample of users. similarity and recommend
  do almost all the work; lda and timed ingest do none. A whole-population
  precompute has to pay for itself within the sample.
* evaluate-desk: a small full pipeline whose timed section is one
  ``topiccf evaluate`` per algorithm over every test user: the batch where a
  precompute amortises, and the only place evaluate's re-parse, metric sweep
  and csv writes show.
"""
from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks
import synth
from refclock import CLOCK, Timing
from topiccf import cli, evaluate, ingest, lda, persona, recommend

BENCH = Path(__file__).resolve().parent
ALGOS = ("hybrid", "topic_only", "ubcf_pearson", "ubcf_llr", "ibcf_llr")
N, K = 30, 75
KS = tuple(range(5, 76, 5))
SPLIT_ARGS = ["--fraction", "0.8", "--split-seed", "11"]
# Two Gibbs sweeps: enough to time the sampler per token without paying for convergence.
LDA_ARGS = ["--topics", "50", "--alpha-sum", "50", "--beta", "0.01",
            "--iterations", "2", "--lda-seed", "5"]
EVAL_ARGS = ["--neighbors", str(N), "--max-k", str(K)]


class Run:
    """Operations attempted and failed, with the first problem of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(f"{op}: {problems[0]}")


def _guarded(fn, *args):
    """Call fn; an exception becomes (None, [problem]) so it counts as a failed operation."""
    try:
        return fn(*args), []
    except Exception as exc:  # any crash of the program under test is a failed operation
        last = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return None, [f"raised {last}"]


def run_cli(args: list[str]) -> tuple[Timing, list[str]]:
    """One CLI stage through topiccf.cli.main; its console output is captured."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink), CLOCK.measure() as timing:
        rc, problems = _guarded(cli.main, args)
    if rc not in (0, None):
        problems = [f"exit code {rc}: {sink.getvalue().strip()[-200:]}"]
    return timing, problems


def generate(scale: str, seed: int, out: Path, files: list[str]) -> None:
    """Write the synthetic inputs from a separate process (see synth.main)."""
    subprocess.run([sys.executable, str(BENCH / "synth.py"), scale, str(seed), str(out), *files],
                   check=True, timeout=170, env=os.environ.copy())


class Workload:
    name = ""
    setup_repeats = 1
    # About one round's length at the seed commit; a run makes
    # round(--seconds / round_s) rounds (at least one) and reports medians.
    round_s: float

    def __init__(self, work: Path, seed: int, digests: checks.DigestBook):
        self.work = work
        self.seed = seed
        self.digests = digests
        self.inputs = work / "inputs"
        self.out = work / "out"

    def prepare(self) -> None:
        """Inputs and anything else the benchmark needs; not timed."""

    def setup(self, run: Run, tracer) -> Timing:
        """Program set-up before the timed section."""
        raise NotImplementedError

    def after_setup(self) -> None:
        """Benchmark-side preparation that needs the set-up's outputs; not timed."""

    def round(self, run: Run, tracer) -> dict[str, Timing]:
        """One timed round; returns the timing of each of its operations."""
        raise NotImplementedError

    def summarize(self, ops: dict[str, float]) -> dict[str, float]:
        """End-to-end metrics, "wall_s" among them, from operation seconds."""
        raise NotImplementedError

    @staticmethod
    def _span(tracer, name, request):
        return tracer.span(name, request) if tracer is not None else nullcontext()

    # Pipeline stages shared by build-ml1m (timed) and evaluate-desk (set-up).
    def _stage(self, run: Run, tracer, stage: str, args: list[str]) -> Timing:
        with self._span(tracer, "bench.stage", stage):
            timing, problems = run_cli([stage, *args])
        if not problems:
            problems = getattr(self, f"_check_{stage}")()
        run.record(f"cli {stage}", problems)
        return timing

    def _pipeline(self, run: Run, tracer, ratings: Path, corpus: Path) -> dict[str, Timing]:
        out = ["--out", str(self.out)]
        return {
            "split_s": self._stage(run, tracer, "split",
                                   ["--ratings", str(ratings), "--format", "movielens_dat",
                                    *out, *SPLIT_ARGS]),
            "train_s": self._stage(run, tracer, "train", ["--corpus", str(corpus), *out,
                                                          *LDA_ARGS]),
            "personas_s": self._stage(run, tracer, "personas", out),
        }

    def _check_split(self) -> list[str]:
        rows = checks.count_lines(self.out / "train.csv") + checks.count_lines(self.out / "test.csv")
        problems = []
        if rows != self.unique_ratings:
            problems.append(f"train+test hold {rows} ratings, expected {self.unique_ratings}")
        for name in ("train.csv", "test.csv"):
            problems += self.digests.check_file(self.out / name)
        return problems

    def _check_train(self) -> list[str]:
        problems, rows, _ = checks.check_rows_sum(self.out / "theta.csv", allow_zero=False)
        if rows != self.documents:
            problems.append(f"theta has {rows} rows, expected {self.documents}")
        for name in ("theta.csv", "phi.csv"):
            problems += self.digests.check_file(self.out / name)
        return problems

    def _check_personas(self) -> list[str]:
        problems, rows, zeros = checks.check_rows_sum(self.out / "personas.csv", allow_zero=True)
        if rows != self.scale.users:
            problems.append(f"{rows} personas, expected {self.scale.users}")
        if zeros < self.scale.all_undocumented_users:
            problems.append(f"{zeros} undefined personas, expected at least "
                            f"{self.scale.all_undocumented_users}")
        return problems + self.digests.check_file(self.out / "personas.csv")

    def _count_inputs(self) -> None:
        self.unique_ratings = checks.count_lines(self.inputs / "ratings.dat") - self.scale.duplicates
        self.documents = checks.count_lines(self.inputs / "corpus.tsv")


class BuildMl1m(Workload):
    name = "build-ml1m"
    round_s = 30.0
    scale = synth.ML1M
    setup_repeats = 11

    def prepare(self) -> None:
        generate("ml1m", self.seed, self.inputs, ["ratings.dat", "corpus.tsv"])
        self._count_inputs()

    def setup(self, run: Run, tracer) -> Timing:
        """The CLI's start-up: a fresh interpreter importing topiccf.cli."""
        with CLOCK.measure(sample=False) as timing:
            proc = subprocess.run([sys.executable, "-c", "import topiccf.cli"],
                                  env=os.environ.copy(), timeout=60, capture_output=True)
        run.record("import topiccf.cli", [proc.stderr.decode()[-200:]] if proc.returncode else [])
        return timing

    def round(self, run: Run, tracer) -> dict[str, Timing]:
        return self._pipeline(run, tracer, self.inputs / "ratings.dat",
                              self.inputs / "corpus.tsv")

    def summarize(self, ops: dict[str, float]) -> dict[str, float]:
        return {**ops, "wall_s": sum(ops.values())}


class QueryMl1m(Workload):
    name = "query-ml1m"
    round_s = 10.0
    scale = synth.ML1M
    # One set-up per run: it takes 7 to 10 s, and a second one would push the
    # 22 runs per workload that a comparison makes past its time budget.
    setup_repeats = 1
    # Users per algorithm, picked at evenly spaced quantiles of train activity.
    # ibcf_llr costs about 75 ms per train rating of the user at this scale,
    # so it gets the median user only.
    SAMPLE = {"hybrid": 8, "topic_only": 8, "ubcf_pearson": 8, "ubcf_llr": 16,
              "ibcf_llr": 1}

    def prepare(self) -> None:
        generate("ml1m", self.seed, self.inputs, ["train.csv", "theta.csv"])
        self.train_items = checks.read_pairs(self.inputs / "train.csv")
        rng = np.random.default_rng([self.seed, 2])
        users = sorted(self.train_items)
        tiebreak = rng.permutation(len(users))
        by_activity = [u for _, _, u in sorted(
            (len(self.train_items[u]), t, u) for u, t in zip(users, tiebreak))]
        self.sample = {
            algo: [by_activity[int((j + 0.5) / k * len(by_activity))] for j in range(k)]
            for algo, k in self.SAMPLE.items()
        }
        # The test ratings only score the lists, so they are read here, untimed.
        records = {}
        with open(self.inputs / "test.csv", encoding="utf-8") as fh:
            for line in fh:
                u, i, r, t = line.split(",")
                records.setdefault(int(u), []).append(
                    ingest.RatingRecord(int(u), int(i), float(r), int(t)))
        self.test_subsets = {
            algo: ingest.RatingDataset(r for u in users for r in records[u])
            for algo, users in self.sample.items()
        }

    def setup(self, run: Run, tracer) -> Timing:
        """Load train and theta, and build every persona."""
        self.state = None   # release the previous set-up's data first
        with CLOCK.measure() as timing:
            state, problems = _guarded(self._load)
        if not problems:
            train, personas = state
            n_undefined = persona.undefined_count(personas)
            if len(personas) != self.scale.users or n_undefined < self.scale.all_undocumented_users:
                problems.append(f"{len(personas)} personas, {n_undefined} undefined")
            for p in personas.values():
                if p.defined and abs(float(p.distribution.sum()) - 1.0) > checks.SUM_TOLERANCE:
                    problems.append(f"persona {p.user_id} sums to {p.distribution.sum()!r}")
                    break
        run.record("setup", problems)
        self.state = state
        return timing

    def _load(self):
        train = ingest.parse_ratings(self.inputs / "train.csv", "csv")
        profiles = lda.load_item_profiles(self.inputs / "theta.csv")
        return train, persona.build_all_personas(train, profiles)

    def _recommender(self, algo):
        train, personas = self.state
        if algo == "hybrid":
            return lambda u: recommend.recommend_hybrid(u, personas, train, N, K)
        if algo == "topic_only":
            return lambda u: recommend.recommend_topic_only(u, personas, train, N, K)
        if algo == "ubcf_pearson":
            return lambda u: recommend.recommend_user_based(u, train, "pearson", N, K)
        if algo == "ubcf_llr":
            return lambda u: recommend.recommend_user_based(u, train, "llr", N, K)
        return lambda u: recommend.recommend_item_based(u, train, K)

    def round(self, run: Run, tracer) -> dict[str, Timing]:
        train = self.state[0]
        times = {}
        for algo in ALGOS:
            fn = self._recommender(algo)
            lists = {}
            for user in self.sample[algo]:
                with self._span(tracer, "bench.request", f"{algo}:{user}"), \
                        CLOCK.measure() as times[f"{algo}:{user}"]:
                    rec_list, problems = _guarded(fn, user)
                if not problems:
                    problems = checks.check_rec_list(rec_list, user, self.train_items, K)
                    lists[user] = rec_list
                run.record(f"{algo} user {user}", problems)
            with self._span(tracer, "bench.evaluate", f"evaluate:{algo}"), \
                    CLOCK.measure() as times[f"evaluate_sweep:{algo}"]:
                rows, problems = _guarded(
                    evaluate.evaluate_sweep, lambda u: lists[u], train,
                    self.test_subsets[algo], KS, K)
            if not problems:
                problems = self._check_sweep(algo, rows, lists)
            run.record(f"evaluate_sweep {algo}", problems)
        return times

    def summarize(self, ops: dict[str, float]) -> dict[str, float]:
        values = {"wall_s": sum(ops.values())}
        for algo in ALGOS:
            users = self.sample[algo]
            values[f"{algo}.users_per_s"] = len(users) / sum(ops[f"{algo}:{u}"] for u in users)
        return values

    def _check_sweep(self, algo, rows, lists) -> list[str]:
        problems = []
        if [r.K for r in rows] != list(KS):
            problems.append("sweep rows do not cover every K")
        n = len(set(self.sample[algo]))
        if any(r.users_evaluated != n or not 0.0 <= r.precision <= 1.0
               or not 0.0 <= r.recall <= 1.0 for r in rows):
            problems.append(f"sweep rows inconsistent with {n} sampled users")
        text = "".join(f"{u},{rank},{rec.item_id},{float(rec.score)!r}\n"
                       for u in sorted(lists) for rank, rec in enumerate(lists[u].items, 1))
        return problems + self.digests.check(f"lists_{algo}",
                                             hashlib.sha256(text.encode()).hexdigest())


class EvaluateDesk(Workload):
    name = "evaluate-desk"
    round_s = 5.0
    scale = synth.DESK
    setup_repeats = 3

    def prepare(self) -> None:
        generate("desk", self.seed, self.inputs, ["ratings.dat", "corpus.tsv"])
        self._count_inputs()

    def setup(self, run: Run, tracer) -> Timing:
        """split -> train -> personas through the CLI."""
        times = self._pipeline(run, tracer, self.inputs / "ratings.dat",
                               self.inputs / "corpus.tsv")
        return times["split_s"] + times["train_s"] + times["personas_s"]

    def after_setup(self) -> None:
        self.train_items = checks.read_pairs(self.out / "train.csv")
        self.test_users = len(checks.read_pairs(self.out / "test.csv"))

    def round(self, run: Run, tracer) -> dict[str, Timing]:
        times = {}
        for algo in ALGOS:
            with self._span(tracer, "bench.evaluate", f"evaluate:{algo}"):
                timing, problems = run_cli(["evaluate", "--out", str(self.out),
                                             "--algorithms", algo, *EVAL_ARGS])
            if not problems:
                recs = self.out / f"recs_{algo}.csv"
                report = self.out / "report.csv"
                problems = (checks.check_recs_csv(recs, self.train_items, K)
                            + checks.check_report(report, [algo], KS, self.test_users)
                            + self.digests.check_file(recs)
                            + self.digests.check(f"report_{algo}.csv",
                                                 checks.sha256_file(report)))
            run.record(f"cli evaluate {algo}", problems)
            times[algo] = timing
        return times

    def summarize(self, ops: dict[str, float]) -> dict[str, float]:
        values = {f"{a}.users_per_s": self.test_users / ops[a] for a in ALGOS}
        values["evaluate_s"] = values["wall_s"] = sum(ops[a] for a in ALGOS)
        return values


WORKLOADS = {w.name: w for w in (BuildMl1m, QueryMl1m, EvaluateDesk)}
