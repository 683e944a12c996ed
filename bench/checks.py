"""Output checks. Each returns a list of problems; an empty list means correct.

The invariants hold for any seed. SHA-256 digests of every artifact are
compared only for the default seed: they were recorded from the seed commit
and hold the pipeline to byte-identical outputs.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

SUM_TOLERANCE = 1e-6
DIGESTS = Path(__file__).with_name("digests.json")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_pairs(path) -> dict[int, set[int]]:
    """user -> rated items, from a header-less ``user,item,...`` csv."""
    out: dict[int, set[int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            user, item, _ = line.split(",", 2)
            out.setdefault(int(user), set()).add(int(item))
    return out


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def check_list(user, items, scores, train_items, K) -> list[str]:
    """One recommendation list: at most K items, none rated in train, scores non-increasing."""
    problems = []
    if len(items) > K:
        problems.append(f"user {user}: {len(items)} items > K={K}")
    seen = train_items.get(user, set())
    leaked = [i for i in items if i in seen]
    if leaked:
        problems.append(f"user {user}: train items recommended {leaked[:3]}")
    if len(set(items)) != len(items):
        problems.append(f"user {user}: repeated items")
    if any(b > a for a, b in zip(scores, scores[1:])):
        problems.append(f"user {user}: scores increase down the list")
    return problems


def check_rec_list(rec_list, user, train_items, K) -> list[str]:
    if rec_list.user_id != user:
        return [f"list for user {rec_list.user_id}, asked for {user}"]
    return check_list(user, [r.item_id for r in rec_list.items],
                      [r.score for r in rec_list.items], train_items, K)


def check_recs_csv(path, train_items, K) -> list[str]:
    """recs_<algo>.csv: header, users ascending, ranks 1..n, and each list valid."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "user_id,rank,item_id,score":
        return ["missing header"]
    lists: dict[int, tuple[list[int], list[float], list[int]]] = {}
    order = []
    for line in lines[1:]:
        u, rank, item, score = line.split(",")
        u = int(u)
        if u not in lists:
            lists[u] = ([], [], [])
            order.append(u)
        lists[u][0].append(int(item))
        lists[u][1].append(float(score))
        lists[u][2].append(int(rank))
    problems = []
    if order != sorted(order):
        problems.append("users not ascending")
    for u, (items, scores, ranks) in lists.items():
        if ranks != list(range(1, len(ranks) + 1)):
            problems.append(f"user {u}: ranks not 1..{len(ranks)}")
        problems += check_list(u, items, scores, train_items, K)
    return problems


def check_rows_sum(path, *, allow_zero: bool) -> tuple[list[str], int, int]:
    """theta.csv / personas.csv rows ``id,p_0,...``: each sums to 1 within 1e-6,
    or is all zero where allowed (undefined personas). Returns (problems, rows, zero rows)."""
    problems = []
    rows = zeros = 0
    trailer = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#undefined:"):
            trailer = int(line.split(":", 1)[1])
            continue
        values = [float(x) for x in line.split(",")[1:]]
        rows += 1
        total = sum(values)
        if allow_zero and not any(values):
            zeros += 1
        elif abs(total - 1.0) > SUM_TOLERANCE or min(values) < 0.0:
            problems.append(f"row {line.split(',', 1)[0]} sums to {total!r}")
    if allow_zero and trailer != zeros:
        problems.append(f"#undefined trailer {trailer} but {zeros} all-zero rows")
    return problems, rows, zeros


def check_report(path, algos, ks, users) -> list[str]:
    """report.csv: the comment and header, then one row per (algorithm, K) with
    metrics in [0, 1] and the evaluated-user count."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    expected_head = ["# precision_denominator=actual_list_length",
                     "algorithm,K,precision,recall,f_measure,users"]
    if lines[:2] != expected_head:
        return ["unexpected report header"]
    rows = [line.split(",") for line in lines[2:]]
    keys = [(r[0], int(r[1])) for r in rows]
    if keys != [(a, k) for a in algos for k in ks]:
        return [f"report rows {keys[:3]}... do not match {list(algos)} x K"]
    problems = []
    for r in rows:
        if any(not 0.0 <= float(x) <= 1.0 for x in r[2:5]) or int(r[5]) != users:
            problems.append(f"bad report row {','.join(r)}")
    return problems


class DigestBook:
    """Compares artifact digests with those recorded for the default seed,
    or records them when ``record`` is set."""

    def __init__(self, workload: str, active: bool, record: bool):
        self.workload = workload
        self.active = active
        self.record = record
        self.expected = (json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
                         if active and not record else {})
        self.seen: dict[str, str] = {}

    def check(self, name: str, digest: str) -> list[str]:
        if not self.active:
            return []
        self.seen[name] = digest
        if self.record:
            return []
        want = self.expected.get(name)
        if want is None:
            return [f"no recorded digest for {name}"]
        if want != digest:
            return [f"{name} differs from the recorded output (sha256 {digest[:12]})"]
        return []

    def check_file(self, path) -> list[str]:
        return self.check(Path(path).name, sha256_file(path)) if self.active else []

    def save(self) -> None:
        data = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        data[self.workload] = dict(sorted(self.seen.items()))
        DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
