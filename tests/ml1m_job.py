"""The default job at MovieLens-1M shape, timed stage by stage, its artifacts checked.

    python3 tests/ml1m_job.py [--pin]

Generates the seed-1 ML-1M ``ratings.dat`` and ``corpus.tsv`` with bench/synth.py
into a temporary directory, then runs ``topiccf split``, ``train``, ``personas`` and
``evaluate`` there with every default (1000 Gibbs sweeps, all five algorithms),
each stage as a child process of its own. For each stage it prints the CPU time,
wall time and peak RSS that os.wait4 reports; these are reported, never checked.
It exits 1 when the set of artifacts or the SHA-256 of one differs from
tests/job_digests.json; ``--pin`` writes that file instead.

The stages import topiccf from this checkout's src/.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "job_digests.json"
ARTIFACTS = ("train.csv", "test.csv", "theta.csv", "phi.csv", "personas.csv", "recs_*.csv",
             "report.csv")


def run_stage(name: str, args: list[str], work: Path, env: dict) -> None:
    """Runs ``topiccf <name> <args> --out work`` as a child and prints its rusage."""
    argv = [sys.executable, "-m", "topiccf.cli", name, *args, "--out", str(work)]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.monotonic() - start
    print(f"{name:<9} cpu {usage.ru_utime + usage.ru_stime:7.2f} s   wall {wall:7.2f} s   "
          f"peak RSS {usage.ru_maxrss / 1024:6.1f} MiB", flush=True)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{name} exited {os.waitstatus_to_exitcode(status)}")


def digests(work: Path) -> dict[str, str]:
    """The SHA-256 of every artifact in work, by file name."""
    paths = sorted(p for pattern in ARTIFACTS for p in work.glob(pattern))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def main(argv: list[str]) -> int:
    pin = argv == ["--pin"]
    if argv and not pin:
        sys.exit(__doc__)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="topiccf-job-") as tmp:
        work = Path(tmp)
        subprocess.run([sys.executable, str(ROOT / "bench" / "synth.py"), "ml1m", "1", tmp,
                        "ratings.dat", "corpus.tsv"], check=True)
        for name, args in [("split", ["--ratings", f"{tmp}/ratings.dat"]),
                           ("train", ["--corpus", f"{tmp}/corpus.tsv"]),
                           ("personas", []), ("evaluate", [])]:
            run_stage(name, args, work, env)
        got = digests(work)
    if pin:
        DIGESTS.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"pinned {len(got)} digests in {DIGESTS}")
        return 0
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for name in sorted(got.keys() | want.keys()):
        print(f"{name:<22} {'ok' if got.get(name) == want.get(name) else 'DIFFERS'}")
    return 0 if got == want else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
