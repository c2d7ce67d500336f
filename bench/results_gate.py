"""Results gate: the working tree's runs against a base revision's, byte for byte.

    python bench/results_gate.py --base REV

`git archive`s REV into a temporary directory, writes the seed-1 configs
of the grid-default, surgery-long and tagger-tsv workloads with
`perfbench/workloads.write_config`, and runs `python -m gradmix.cli run`
of each config once with the base's `src` and once with the working
tree's, with BLAS and OpenMP pinned to one thread. Then it checks:

- every file of each pair of run trees is byte-identical, names included;
- the working tree's grid-default and tagger-tsv manifests at `--jobs 2`
  equal the ones at `--jobs 1` (each has more than one unit, so `--jobs 2`
  runs them in a pool);
- the working tree's `aggregate/report.json` and similarity CSVs match
  `perfbench/references.json` (`check.result_hashes`).

Prints one line per check. Where two run trees differ, their line counts
the differing paths by top-level entry (`manifest.json 1 (...), models/
280 (140 only in base; 140 only in head; ...), runs/ 80 (...)`), notes
the names that only changed their suffix and the top-level keys in which
differing JSON objects differ, and names the first path. Exits 1 if
anything differs. Everything is written to the temporary directory,
which is removed at the end; nothing under `perfbench/` is changed.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import check  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("grid-default", "surgery-long", "tagger-tsv")
POOLED = ("grid-default", "tagger-tsv")  # more than one unit, so --jobs 2 runs a pool
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def archive(rev: str, dest: Path) -> None:
    """The files of `rev` under `dest`, as `git archive` gives them."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run(src: Path, config: Path, out: Path, jobs: int) -> None:
    """`gradmix run` of `config` with the gradmix under `src`, started in
    the config's directory (the tagger's corpora are named relative to it)."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    argv = [sys.executable, "-m", "gradmix.cli", "run", "--config", str(config),
            "--out", str(out), "--jobs", str(jobs)]
    done = subprocess.run(argv, cwd=config.parent, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"FAIL: {' '.join(argv)} exited {done.returncode}\n{done.stderr}")


def files(tree: Path) -> Dict[str, Path]:
    return {str(p.relative_to(tree)): p for p in sorted(tree.rglob("*")) if p.is_file()}


def differences(base: Path, head: Path) -> List[str]:
    """The relative paths, in sorted order, that only one tree holds or
    whose bytes differ; empty if the trees are identical."""
    a, b = files(base), files(head)
    return [name for name in sorted(a.keys() | b.keys())
            if name not in a or name not in b or a[name].read_bytes() != b[name].read_bytes()]


def json_object(path: Path):
    try:
        doc = json.loads(path.read_bytes())
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def summary(base: Path, head: Path, diffs: List[str]) -> str:
    """The differing paths counted by top-level entry, each with how many
    are only in one tree, how many of those have a name in the other tree
    under another suffix, and the top-level keys in which the JSON objects
    that differ differ; then the first path."""
    parts = []
    for top, names in itertools.groupby(diffs, key=lambda n: n.split("/")[0]):
        names = list(names)
        only_base = [n for n in names if not (head / n).exists()]
        only_head = [n for n in names if not (base / n).exists()]
        notes = [f"{len(v)} only in {side}" for side, v in (("base", only_base),
                                                            ("head", only_head)) if v]
        renamed = ({str(Path(n).with_suffix("")) for n in only_base}
                   & {str(Path(n).with_suffix("")) for n in only_head})
        if renamed:
            notes.append(f"{len(renamed)} names in both under another suffix")
        keys = set()
        for n in set(names) - set(only_base) - set(only_head):
            a, b = json_object(base / n), json_object(head / n)
            if a is not None and b is not None:
                keys |= {k for k in a.keys() | b.keys() if k not in a or k not in b or a[k] != b[k]}
        if keys:
            notes.append("JSON keys that differ: " + ", ".join(sorted(keys)))
        label = top + "/" if (head / top).is_dir() or (base / top).is_dir() else top
        parts.append(f"{label} {len(names)}" + (f" ({'; '.join(notes)})" if notes else ""))
    return f"{len(diffs)} paths differ: {', '.join(parts)}; first at {diffs[0]}"


def gate(base_rev: str, work: Path) -> List[str]:
    """Run every check; returns the failures, and prints one line per check."""
    archive(base_rev, work / "base")
    sides = {"base": work / "base" / "src", "head": ROOT / "src"}
    references = json.loads((ROOT / "perfbench" / "references.json").read_text())["results"]
    failures = []
    for name in WORKLOADS:
        config = workloads.write_config(name, workloads.DEFAULT_SEED, work / "inputs" / name)
        for side, src in sides.items():
            run(src, config, work / side / name, jobs=1)
        diffs = differences(work / "base" / name, work / "head" / name)
        count = len(files(work / "head" / name))
        print(f"{name}: " + (summary(work / "base" / name, work / "head" / name, diffs) if diffs
                             else f"{count} files byte-identical to {base_rev}"))
        got = check.result_hashes(work / "head" / name)
        bad = sorted(k for k in references[name].keys() | got.keys()
                     if references[name].get(k) != got.get(k))
        print(f"{name}: " + (f"references differ first at {bad[0]}" if bad
                             else f"{len(got)} result files match perfbench/references.json"))
        if diffs:
            failures.append(f"{name}/{diffs[0]}")
        if bad:
            failures.append(f"{name}/{bad[0]} (references)")
        if name in POOLED:
            run(sides["head"], config, work / "head" / f"{name}-j2", jobs=2)
            same = ((work / "head" / name / "manifest.json").read_bytes()
                    == (work / "head" / f"{name}-j2" / "manifest.json").read_bytes())
            print(f"{name}: --jobs 2 manifest " + ("equals" if same else "differs from")
                  + " the --jobs 1 one")
            if not same:
                failures.append(f"{name}-j2/manifest.json")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="results-gate-") as work:
        failures = gate(args.base, Path(work))
    if failures:
        print(f"FAIL: first difference at {failures[0]}")
        return 1
    print("PASS: the run trees, the --jobs manifests and the references all agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
