"""topiccf benchmark: one workload per invocation, last stdout line is the JSON result.

    python3 bench/run.py --workload build-ml1m --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; topiccf is imported from ``src/``.
With ``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced round, plus ``trace.overhead_s``. Every
end-to-end metric of the workload (including those not in BENCHMARK.json
because they exist on one workload only) is printed above the JSON line.
See bench/README.md.
"""
from __future__ import annotations

import os

# Single-threaded before numpy loads, in this process and every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "TOPICCF_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
# Metrics gated through BENCHMARK.json: the ones every workload has.
GATED = ("setup_s", "wall_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "error_rate": "ratio",
         "split_s": "s", "train_s": "s", "personas_s": "s", "evaluate_s": "s"}
ALGOS = ("hybrid", "topic_only", "ubcf_pearson", "ubcf_llr", "ibcf_llr")
WORKLOADS = ("build-ml1m", "query-ml1m", "evaluate-desk")
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "error_rate", "split_s", "train_s",
              "personas_s", "evaluate_s", *(f"{a}.users_per_s" for a in ALGOS),
              *(f"{clock}.{key}" for clock in ("cpu", "wallclock") for key in ("setup_s", "wall_s")))


def _import_program():
    """topiccf from this checkout's src/ only; exit 2 when it is not there."""
    if not (SRC / "topiccf" / "__init__.py").is_file():
        sys.exit(f"error: no topiccf sources under {SRC}; run from a source checkout")
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import topiccf
    if Path(topiccf.__file__).resolve().parent != SRC / "topiccf":
        sys.exit(f"error: imported topiccf from {topiccf.__file__}, not {SRC}")


def _per_op(rounds: list[dict], field: str) -> dict[str, float]:
    """Each operation's median over the rounds, of one Timing field."""
    return {op: statistics.median(getattr(r[op], field) for r in rounds) for op in rounds[0]}


def run(workload: str, seed: int, seconds: int, trace: bool, record: bool) -> dict:
    import checks
    import workloads

    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        digests = checks.DigestBook(workload, active=seed == DEFAULT_SEED, record=record)
        wl = workloads.WORKLOADS[workload](work, seed, digests)
        outcome = workloads.Run()
        wl.prepare()
        tracer = None
        if trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        setups = [wl.setup(outcome, tracer) for _ in range(1 if trace else wl.setup_repeats)]
        if tracer is not None:
            tracer.uninstall()
        wl.after_setup()

        # The round count depends only on `seconds`, so two commits do the same work.
        rounds = [wl.round(outcome, None)
                  for _ in range(max(1, round(seconds / wl.round_s)))]
        if tracer is not None:
            tracer.install()
            traced = wl.summarize({op: t.ref_s for op, t in wl.round(outcome, tracer).items()})
            tracer.uninstall()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if record:
            digests.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    values = {"setup_s": statistics.median(t.ref_s for t in setups), "peak_rss_mb": peak_mb,
              "error_rate": outcome.failed / outcome.attempted}
    values.update(wl.summarize(_per_op(rounds, "ref_s")))
    # The unscaled CPU and wall-clock times behind setup_s and wall_s, for reference.
    for clock, field in (("cpu", "cpu_s"), ("wallclock", "wall_s")):
        values[f"{clock}.setup_s"] = statistics.median(getattr(t, field) for t in setups)
        values[f"{clock}.wall_s"] = wl.summarize(_per_op(rounds, field))["wall_s"]
    report = {"workload": workload, "seed": seed, "rounds": len(rounds),
              "round_walls": [wl.summarize({op: t.ref_s for op, t in r.items()})["wall_s"]
                              for r in rounds],
              "setups": len(setups), "outcome": outcome, "values": values}
    if tracer is not None:
        TRACE_OUT.mkdir(exist_ok=True)
        tracer.write(TRACE_OUT / f"{workload}-seed{seed}.jsonl")
        report["layers"] = tracer.metrics(traced["wall_s"] - values["wall_s"])
    return report


def _unit(key: str) -> str:
    return "users/s" if key.endswith("users_per_s") else UNITS[key.rsplit(".", 1)[-1]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="topiccf benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="'all' runs every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10,
                        help="timed seconds at the seed commit: sets the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store artifact digests for seed {DEFAULT_SEED} instead of checking")
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED}")
    _import_program()
    if args.workload == "all":
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if subprocess.run(cmd).returncode:
                return 1
        return 0
    sys.path.insert(0, str(BENCH))

    report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.record_digests)
    outcome = report["outcome"]
    print(f"# {report['workload']} seed={report['seed']} rounds={report['rounds']} "
          f"setups={report['setups']} attempted={outcome.attempted} failed={outcome.failed}")
    print("# wall_s per round: " + " ".join(f"{w:.3f}" for w in report["round_walls"]))
    for err in outcome.errors[:20]:
        print(f"# FAILED {err}", file=sys.stderr)
    for key in END_TO_END:
        value = report["values"].get(key)
        shown = "n/a" if value is None else repr(value)
        print(f"{key:<26} {shown:>24} {_unit(key)}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["layers"].items()}
        for name, m in metrics.items():
            print(f"{name:<46} {m['value']!r:>24} {m['unit']}")
    else:
        metrics = {key: {"value": report["values"][key], "unit": _unit(key)} for key in GATED}
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
