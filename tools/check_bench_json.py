#!/usr/bin/env python3
"""Guard the checked-in bench trajectories.

Every ``BENCH_*.json`` file named in CHANGES.md is a commitment: the
repo root must contain it, it must parse as JSON, and it must hold at
least one row (a non-empty list of objects, or a dict with a non-empty
``rows`` list — both shapes TextTable::to_json has emitted). A bench
rerun that crashed half-way or wrote somewhere else fails CI here
instead of silently shipping a stale or missing trajectory.

Usage: python3 tools/check_bench_json.py [repo_root]
Exit code 0 if every named trajectory is present and parsable, 1
otherwise (with one line per problem on stderr).
"""

import json
import re
import sys
from pathlib import Path


def named_trajectories(changes_text: str) -> list[str]:
    names = re.findall(r"\bBENCH_[A-Za-z0-9_]+\.json\b", changes_text)
    # Preserve first-mention order, drop duplicates.
    return list(dict.fromkeys(names))


def truthy_cell(value) -> bool:
    """TextTable emits booleans as yes/no strings in some columns and as
    JSON booleans/ints in others; accept the union."""
    if value in (True, 1):
        return True
    return isinstance(value, str) and value.lower() in {"yes", "true", "1", "on"}


def check_backend_rows(name: str, doc, problems: list[str]) -> None:
    """Any trajectory produced by a lane-dispatched engine must say which
    backend ran: every row carries ``backend`` (u64/avx2/avx512, or
    ``scalar`` for non-sliced rows) and ``lanes``, and at least one row
    ran a bit-sliced backend (lanes >= 64 — the u64 fallback exists on
    every host, so this never depends on SIMD hardware). A rerun that
    dropped the columns or silently fell back to all-scalar fails CI
    here instead of shipping a trajectory that no longer measures the
    sliced engines."""
    if not isinstance(doc, list):
        problems.append(f"{name}: expected a row list to check backend coverage")
        return
    missing = [i for i, row in enumerate(doc)
               if not isinstance(row, dict)
               or "backend" not in row or "lanes" not in row]
    if missing:
        problems.append(
            f"{name}: rows {missing[:5]} lack the 'backend'/'lanes' columns")
        return
    def lane_count(row):
        try:
            return int(row["lanes"])
        except (TypeError, ValueError):
            return 0
    if not any(lane_count(row) >= 64 for row in doc):
        problems.append(
            f"{name}: no row ran a bit-sliced backend (lanes >= 64); "
            "regenerate without forcing the scalar engines")


def check_batched_rows(name: str, doc, problems: list[str]) -> None:
    """BENCH_convergence.json must record the bit-sliced engine: every row
    carries a ``batched`` key and at least one row ran batched. A rerun
    that silently fell back to the scalar engines (or was regenerated with
    ``--batched off``) fails Release CI here instead of shipping a
    trajectory that no longer measures the batch engine."""
    if not isinstance(doc, list):
        problems.append(f"{name}: expected a row list to check batched coverage")
        return
    missing = [i for i, row in enumerate(doc)
               if not isinstance(row, dict) or "batched" not in row]
    if missing:
        problems.append(
            f"{name}: rows {missing[:5]} lack the 'batched' column")
        return
    if not any(truthy_cell(row["batched"]) for row in doc):
        problems.append(
            f"{name}: no row ran with the batched engine "
            "(regenerate without --batched off)")


def check_spill_rows(name: str, doc, problems: list[str]) -> None:
    """BENCH_modelcheck.json must track the out-of-core tier: every row
    carries ``spill_bytes`` (0 for the in-RAM modes) and at least one row
    actually ran ``mode == "spill"`` with a nonzero stream. A rerun that
    dropped the column or never exercised the spill backend fails CI here
    instead of shipping a trajectory that no longer measures Phase B's
    disk tier."""
    if not isinstance(doc, list):
        problems.append(f"{name}: expected a row list to check spill coverage")
        return
    missing = [i for i, row in enumerate(doc)
               if not isinstance(row, dict) or "spill_bytes" not in row]
    if missing:
        problems.append(
            f"{name}: rows {missing[:5]} lack the 'spill_bytes' column")
        return
    def spilled(row):
        try:
            return row.get("mode") == "spill" and int(row["spill_bytes"]) > 0
        except (TypeError, ValueError):
            return False
    if not any(spilled(row) for row in doc):
        problems.append(
            f"{name}: no row ran the spill storage mode with a nonzero "
            "stream; regenerate with the out-of-core rows enabled")


def check_nproc_rows(name: str, doc, problems: list[str]) -> None:
    """BENCH_modelcheck.json times the checker at 1 and at nproc workers:
    every row carries ``nproc``, the host's hardware thread count, so a
    parallel row reads next to the cores it ran on and rows from
    different hosts are not compared as one trajectory."""
    if not isinstance(doc, list):
        problems.append(f"{name}: expected a row list to check nproc")
        return
    missing = [i for i, row in enumerate(doc)
               if not isinstance(row, dict) or "nproc" not in row]
    if missing:
        problems.append(f"{name}: rows {missing[:5]} lack the 'nproc' column")


def check_multiring_rows(name: str, doc, problems: list[str]) -> None:
    """BENCH_multiring.json must chart the reactor scaling claim: at least
    three scale rows, each carrying ``rings``, ``handovers_per_sec`` and
    ``p99_us``, plus ``transport`` (udp or virtual), ``nproc`` (the host's
    hardware threads) and ``ns_per_frame`` (wall ns of the run over frames
    sent). A rerun that dropped the 100k row, renamed the latency column or
    came from an unlabelled host fails CI here instead of shipping a
    trajectory that no longer backs E27."""
    if not isinstance(doc, list):
        problems.append(f"{name}: expected a row list of scale points")
        return
    if len(doc) < 3:
        problems.append(
            f"{name}: only {len(doc)} scale rows; need >= 3 (1k/10k/100k)")
        return
    required = ("rings", "handovers_per_sec", "p99_us", "transport",
                "nproc", "ns_per_frame")
    for i, row in enumerate(doc):
        missing = [k for k in required
                   if not isinstance(row, dict) or k not in row]
        if missing:
            problems.append(f"{name}: row {i} lacks columns {missing}")
            return


def check_cst_rows(name: str, doc, problems: list[str]) -> None:
    """BENCH_cst.json must chart the sharded-engine scaling claim: at
    least three scale rows, each carrying ``n``, ``workers``, ``nproc``,
    ``runs``, ``events_per_sec`` and ``ns_per_event``, with ``runs`` >= 3
    (each row is the median of that many runs; one run on a shared host
    swings by up to 5x). A rerun that dropped the million-node row,
    renamed the throughput or per-event cost column, lost the host's core
    count (which tells a multi-worker row measured on fewer cores than
    workers) or timed single runs fails CI here instead of shipping a
    trajectory that no longer backs E28."""
    if not isinstance(doc, list):
        problems.append(f"{name}: expected a row list of scale points")
        return
    if len(doc) < 3:
        problems.append(
            f"{name}: only {len(doc)} scale rows; need >= 3 (10^4/10^5/10^6)")
        return
    required = ("n", "workers", "nproc", "runs", "events_per_sec",
                "ns_per_event")
    for i, row in enumerate(doc):
        missing = [k for k in required
                   if not isinstance(row, dict) or k not in row]
        if missing:
            problems.append(f"{name}: row {i} lacks columns {missing}")
            return
        try:
            runs = int(row["runs"])
        except (TypeError, ValueError):
            runs = 0
        if runs < 3:
            problems.append(
                f"{name}: row {i} is the median of {row['runs']!r} runs; "
                "need >= 3")
            return


def row_count(doc) -> int:
    """Rows in either emitted shape: a bare list of row objects
    (TextTable::to_json) or a dict wrapping one or more row lists under
    keys like ``rows``/``runs`` (the telemetry benches)."""
    if isinstance(doc, list):
        return len(doc)
    if isinstance(doc, dict):
        list_lens = [len(v) for v in doc.values() if isinstance(v, list)]
        if list_lens:
            return max(list_lens)
        return 1 if doc else 0
    return 0


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent
    changes = root / "CHANGES.md"
    if not changes.is_file():
        print(f"error: {changes} not found", file=sys.stderr)
        return 1
    names = named_trajectories(changes.read_text(encoding="utf-8"))
    if not names:
        print("check_bench_json: CHANGES.md names no BENCH_*.json; nothing to do")
        return 0
    problems = []
    for name in names:
        path = root / name
        if not path.is_file():
            problems.append(f"{name}: named in CHANGES.md but missing from the repo root")
            continue
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            problems.append(f"{name}: unparsable JSON ({err})")
            continue
        rows = row_count(doc)
        if rows == 0:
            problems.append(f"{name}: parsed but holds no rows")
            continue
        if name == "BENCH_convergence.json":
            before = len(problems)
            check_batched_rows(name, doc, problems)
            check_backend_rows(name, doc, problems)
            if len(problems) > before:
                continue
        if name == "BENCH_modelcheck.json":
            before = len(problems)
            check_backend_rows(name, doc, problems)
            check_spill_rows(name, doc, problems)
            check_nproc_rows(name, doc, problems)
            if len(problems) > before:
                continue
        if name == "BENCH_multiring.json":
            before = len(problems)
            check_multiring_rows(name, doc, problems)
            if len(problems) > before:
                continue
        if name == "BENCH_cst.json":
            before = len(problems)
            check_cst_rows(name, doc, problems)
            if len(problems) > before:
                continue
        print(f"check_bench_json: {name} ok ({rows} rows)")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
