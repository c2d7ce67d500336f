"""Output check and artifact accounting for one finished `gradmix run` tree.

A repeat passes when the process exited 0, its manifest lists no failures,
its manifest is byte-identical to the reference manifest and its artifact
counts equal the reference counts (see run.Session.reference), and, where
reference hashes exist (the default seed), `aggregate/report.json` and
every `simmatrix_*.csv` match them by sha256. Hashing the report and the CSVs rather than the manifest
lets a change of checkpoint layout pass while any change of results fails.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ARTIFACT_KINDS = ("checkpoint", "trace", "record", "aggregate", "other")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def result_hashes(tree: Path) -> Dict[str, str]:
    """sha256 of the files that carry the run's results."""
    agg = tree / "aggregate"
    files = [agg / "report.json"] + sorted(agg.glob("simmatrix_*.csv"))
    return {str(p.relative_to(tree)): sha256_file(p) for p in files if p.is_file()}


def artifact_kind(rel: Tuple[str, ...]) -> str:
    if rel[0] == "aggregate":
        return "aggregate"
    if rel[0] == "runs" and len(rel) >= 3:
        if rel[2] == "checkpoints":
            return "checkpoint"
        if rel[2] == "surgery_trace.jsonl":
            return "trace"
        if rel[2] == "record.json":
            return "record"
    return "other"


def artifact_counts(tree: Path) -> Dict[str, Dict[str, int]]:
    """Files and bytes per artifact kind in a finished run tree."""
    counts = {k: {"files": 0, "bytes": 0} for k in ARTIFACT_KINDS}
    for p in tree.rglob("*"):
        if p.is_file():
            c = counts[artifact_kind(p.relative_to(tree).parts)]
            c["files"] += 1
            c["bytes"] += p.stat().st_size
    return counts


def check_repeat(
    exit_code: int,
    tree: Path,
    manifest_ref: Optional[bytes] = None,
    counts_ref: Optional[dict] = None,
    expected_hashes: Optional[Dict[str, str]] = None,
) -> List[str]:
    """Every way the repeat's output is wrong; empty when it passes."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit status {exit_code}")
    manifest_path = tree / "manifest.json"
    try:
        manifest_bytes = manifest_path.read_bytes()
        failures = json.loads(manifest_bytes)["failures"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable manifest {manifest_path}: {exc}"]
    if failures:
        cells = ", ".join(str(f.get("cell")) for f in failures)
        problems.append(f"manifest lists {len(failures)} failure(s): {cells}")
    if manifest_ref is not None and manifest_bytes != manifest_ref:
        problems.append("manifest.json differs from the reference manifest")
    if counts_ref is not None and artifact_counts(tree) != counts_ref:
        problems.append("artifact counts differ from the reference counts")
    if expected_hashes is not None:
        got = result_hashes(tree)
        for name in sorted(set(expected_hashes) | set(got)):
            if name not in got:
                problems.append(f"{name} is missing")
            elif name not in expected_hashes:
                problems.append(f"{name} is not in the references")
            elif got[name] != expected_hashes[name]:
                problems.append(f"{name} differs from its reference hash")
    return problems
