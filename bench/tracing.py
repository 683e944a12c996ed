"""Spans around topiccf's public functions, recorded from the benchmark's own files.

``Tracer.install`` replaces the module attributes that the CLI, the
recommenders and the similarity functions look up at call time with timing
wrappers; ``uninstall`` puts the originals back. Each wrapped call records a
span (name, start, end, parent, request id) in memory. Per-pair similarity
functions run millions of times per run, so they are "hot": they take part in
the parent/child accounting but are kept as per-name aggregates (calls,
inclusive and self seconds) instead of one span each. ``write`` dumps the
spans as JSON lines once the run has ended.

Self time is a span's duration minus the time of its wrapped children.
"""
from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from topiccf import cli, evaluate, ingest, lda, persona, recommend, similarity

ALGOS = ("hybrid", "topic_only", "ubcf_pearson", "ubcf_llr", "ibcf_llr")
STAGES = ("split", "train", "personas", "evaluate")
SIM_FNS = ("hybrid", "topic", "llr", "pearson", "item_llr")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "child", "info")

    def __init__(self, id, name, start, parent, request):
        self.id, self.name, self.start = id, name, start
        self.parent, self.request = parent, request
        self.end = start
        self.child = 0.0
        self.info = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child


def _algo_of_call(name, args, kwargs):
    if name == "recommend.recommend_user_based":
        sim = args[2] if len(args) > 2 else kwargs.get("sim", "llr")
        return f"ubcf_{sim}"
    return {"recommend.recommend_hybrid": "hybrid",
            "recommend.recommend_topic_only": "topic_only",
            "recommend.recommend_item_based": "ibcf_llr"}[name]


def _rec_info(name, args, kwargs, result):
    return {"algo": _algo_of_call(name, args, kwargs), "empty": not result.items}


def _neighborhood_info(name, args, kwargs, result):
    user, train = args[0], args[2]
    scored = train.num_users - (1 if user in train.by_user else 0)
    return {"kept": len(result.neighbors), "scored": scored, "N": args[3]}


def _lines_info(name, args, kwargs, result):
    return {"lines": len(result) + result.duplicates_dropped,
            "duplicates": result.duplicates_dropped}


# (module, attribute, info callback) for every span-level function.
SPANS = [
    (ingest, "parse_ratings", _lines_info),
    (ingest, "split_train_test", None),
    (ingest, "write_ratings_csv", lambda n, a, k, r: {"bytes": os.path.getsize(a[1])}),
    (ingest, "load_corpus", None),
    (lda, "build_vocabulary",
     lambda n, a, k, r: {"tokens": r[1].total_tokens(), "vocab": len(r[0])}),
    (lda, "train_lda",
     lambda n, a, k, r: {"token_sweeps": a[0].total_tokens()
                         * k.get("iterations", a[5] if len(a) > 5 else 1000)}),
    (lda, "save_theta", None),
    (lda, "save_phi", None),
    (lda, "save_topics", None),
    (lda, "load_item_profiles", None),
    (persona, "build_all_personas",
     lambda n, a, k, r: {"undefined": persona.undefined_count(r)}),
    (persona, "write_personas_csv", None),
    (persona, "load_personas_csv", None),
    (recommend, "build_neighborhood", _neighborhood_info),
    (recommend, "recommend_neighborhood", None),
    (recommend, "recommend_hybrid", _rec_info),
    (recommend, "recommend_topic_only", _rec_info),
    (recommend, "recommend_user_based", _rec_info),
    (recommend, "recommend_item_based", _rec_info),
    (recommend, "write_recommendations_csv", None),
    (evaluate, "evaluate_sweep", lambda n, a, k, r: {"users": r[0].users_evaluated if r else 0}),
    (evaluate, "emit_report", None),
    (cli, "cmd_split", None),
    (cli, "cmd_train", None),
    (cli, "cmd_personas", None),
    (cli, "cmd_evaluate", None),
]
# Per-pair similarity functions, bound both in recommend (the recommenders'
# lambdas) and in similarity (hybrid_similarity's own calls).
HOT = [
    (recommend, "hybrid_similarity"),
    (recommend, "topic_similarity"),
    (recommend, "pearson_similarity"),
    (recommend, "llr_similarity"),
    (recommend, "item_llr_similarity"),
    (similarity, "topic_similarity"),
    (similarity, "llr_similarity"),
]


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # name -> [calls, inclusive s, self s, calls returning a positive score]
        self.hot = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self._stack: list = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------
    def _open(self, name, request=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if request is None:
            request = parent.request if parent is not None else f"{name}#{len(self.spans)}"
        span = Span(len(self.spans), name, time.perf_counter(),
                    parent.id if parent is not None else None, request)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.dur

    @contextmanager
    def span(self, name: str, request: str):
        """A benchmark-level span; wrapped calls inside it share its request id."""
        span = self._open(name, request)
        try:
            yield span
        finally:
            self._close(span)

    def _span_wrapper(self, fn, name, info):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(name, args, kwargs, result)
            return result
        return wrapper

    def _hot_wrapper(self, fn, name):
        agg = self.hot[name]
        stack = self._stack
        clock = time.perf_counter

        class Frame:
            __slots__ = ("child",)

        def wrapper(*args, **kwargs):
            frame = Frame()
            frame.child = 0.0
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1].child += dur
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame.child
            if result.value > 0.0:
                agg[3] += 1
            return result
        return wrapper

    def install(self) -> None:
        for module, attr, info in SPANS:
            fn = getattr(module, attr)
            self._patch(module, attr, self._span_wrapper(fn, f"{_short(module)}.{attr}", info))
        for module, attr in HOT:
            fn = getattr(module, attr)
            self._patch(module, attr, self._hot_wrapper(fn, f"similarity.{attr}"))

    def _patch(self, module, attr, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request, "self_s": s.self_s,
                                     "info": s.info}) + "\n")
            for name, (calls, total, self_s, positive) in sorted(self.hot.items()):
                fh.write(json.dumps({"aggregate": name, "calls": calls, "s": total,
                                     "self_s": self_s, "positive": positive}) + "\n")

    # -- per-layer metrics -------------------------------------------------
    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric by name, as (value, unit); 0 where a layer did no work."""
        by_name = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)

        def total(name):
            return sum(s.dur for s in by_name[name])

        def self_total(name):
            return sum(s.self_s for s in by_name[name])

        def info_sum(name, key):
            return sum(s.info[key] for s in by_name[name] if s.info)

        def rate(num, den):
            return num / den if den > 0 else 0.0

        m: dict[str, tuple[float, str]] = {}
        parse_s = total("ingest.parse_ratings")
        m["ingest.parse_ratings.s"] = (parse_s, "s")
        m["ingest.parse_ratings.lines_per_s"] = (
            rate(info_sum("ingest.parse_ratings", "lines"), parse_s), "lines/s")
        m["ingest.split_train_test.s"] = (total("ingest.split_train_test"), "s")
        m["ingest.write_ratings_csv.s"] = (total("ingest.write_ratings_csv"), "s")
        m["ingest.write_ratings_csv.bytes"] = (
            info_sum("ingest.write_ratings_csv", "bytes"), "bytes")
        m["ingest.load_corpus.s"] = (total("ingest.load_corpus"), "s")
        m["ingest.duplicates_dropped"] = (
            info_sum("ingest.parse_ratings", "duplicates"), "count")

        train_s = total("lda.train_lda")
        vocab_spans = by_name["lda.build_vocabulary"]
        m["lda.build_vocabulary.s"] = (total("lda.build_vocabulary"), "s")
        m["lda.tokens"] = (vocab_spans[-1].info["tokens"] if vocab_spans else 0, "count")
        m["lda.vocab_size"] = (vocab_spans[-1].info["vocab"] if vocab_spans else 0, "count")
        m["lda.train_lda.s"] = (train_s, "s")
        sweeps = info_sum("lda.train_lda", "token_sweeps")
        m["lda.gibbs.token_sweeps"] = (sweeps, "count")
        m["lda.gibbs.tokens_per_s"] = (rate(sweeps, train_s), "tokens/s")
        m["lda.save.s"] = (sum(total(f"lda.save_{x}") for x in ("theta", "phi", "topics")), "s")
        m["lda.load_item_profiles.s"] = (total("lda.load_item_profiles"), "s")

        m["persona.build_all_personas.s"] = (total("persona.build_all_personas"), "s")
        built = by_name["persona.build_all_personas"]
        m["persona.undefined"] = (built[-1].info["undefined"] if built else 0, "count")
        m["persona.write_personas_csv.s"] = (total("persona.write_personas_csv"), "s")
        m["persona.load_personas_csv.s"] = (total("persona.load_personas_csv"), "s")

        for fn in SIM_FNS:
            calls, inclusive, _, _ = self.hot.get(f"similarity.{fn}_similarity", (0, 0.0, 0, 0))
            m[f"similarity.{fn}_similarity.calls"] = (calls, "count")
            m[f"similarity.{fn}_similarity.s"] = (inclusive, "s")
        spans_by_id = self.spans
        kept = defaultdict(int)
        scored = defaultdict(int)
        short = 0
        for s in by_name["recommend.build_neighborhood"]:
            algo = spans_by_id[s.parent].info["algo"] if s.parent is not None else None
            kept[algo] += s.info["kept"]
            scored[algo] += s.info["scored"]
            short += s.info["kept"] < s.info["N"]
        for algo in ALGOS[:4]:
            m[f"similarity.pairs_kept_ratio.{algo}"] = (rate(kept[algo], scored[algo]), "ratio")
        item_calls, _, _, item_positive = self.hot.get(
            "similarity.item_llr_similarity", (0, 0.0, 0, 0))
        m["similarity.item_llr_similarity.nonzero_ratio"] = (rate(item_positive, item_calls),
                                                             "ratio")

        m["recommend.build_neighborhood.s"] = (total("recommend.build_neighborhood"), "s")
        m["recommend.build_neighborhood.calls"] = (
            len(by_name["recommend.build_neighborhood"]), "count")
        m["recommend.recommend_neighborhood.s"] = (total("recommend.recommend_neighborhood"), "s")
        per_algo = defaultdict(list)
        empty = 0
        for name in ("recommend.recommend_hybrid", "recommend.recommend_topic_only",
                     "recommend.recommend_user_based", "recommend.recommend_item_based"):
            for s in by_name[name]:
                per_algo[s.info["algo"]].append(s)
                empty += s.info["empty"]
        for algo in ALGOS:
            spans = per_algo[algo]
            ms = [s.dur * 1000.0 for s in spans]
            m[f"recommend.{algo}.self_s"] = (sum(s.self_s for s in spans), "s")
            m[f"recommend.{algo}.user_ms.p50"] = (statistics.median(ms) if ms else 0.0, "ms")
            m[f"recommend.{algo}.user_ms.max"] = (max(ms) if ms else 0.0, "ms")
        m["recommend.short_neighborhoods"] = (short, "count")
        m["recommend.empty_lists"] = (empty, "count")
        m["recommend.write_recommendations_csv.s"] = (
            total("recommend.write_recommendations_csv"), "s")

        m["evaluate.evaluate_sweep.self_s"] = (self_total("evaluate.evaluate_sweep"), "s")
        m["evaluate.users"] = (info_sum("evaluate.evaluate_sweep", "users"), "count")
        m["evaluate.emit_report.s"] = (total("evaluate.emit_report"), "s")

        for stage in STAGES:
            m[f"cli.{stage}.s"] = (total(f"cli.cmd_{stage}"), "s")
            m[f"cli.{stage}.self_s"] = (self_total(f"cli.cmd_{stage}"), "s")
        m["trace.overhead_s"] = (overhead_s, "s")
        return m
