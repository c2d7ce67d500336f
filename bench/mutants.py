"""Mutation analysis of Tier-1: which one-line faults of `src/` the suite catches.

    python bench/mutants.py [NAME ...] [--tests TEST ...]

Copies the working tree's files (`git ls-files --cached --others
--exclude-standard`) to a temporary directory. For each mutant of `MUTANTS`
(or only those named), it replaces the mutant's `old` text, which must
occur exactly once in its file, with `new` in that copy, runs Tier-1 there
(`python -m pytest -q -x -p no:cacheprovider` with the copy's `src` on
`PYTHONPATH`; `--tests` runs only the tests given, as pytest takes them),
and puts the file back. Prints one line per mutant: killed,
with the first test that failed, or survived; a survivor listed in
`EQUIVALENT` is printed with the reason it changes no behaviour. Exits 1 if
a mutant that is not equivalent survived or if a mutant's `old` text is
not found exactly once. Nothing under the working tree is changed; the
temporary directory is removed at the end. This is mutation analysis
after DeMillo, Lipton and Sayward (1978, "Hints on Test Data Selection").
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # a mutant that makes Tier-1 hang counts as killed


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


MUTANTS: List[Mutant] = [
    Mutant("write-json-indent-1", "src/gradmix/cli.py",
           "json.dumps(obj, indent=2, allow_nan=False)",
           "json.dumps(obj, indent=1, allow_nan=False)"),
    Mutant("sorted-shot-picks", "src/gradmix/corpora.py",
           "sel = gen.choice(len(pool), size=k, replace=False)",
           "sel = sorted(gen.choice(len(pool), size=k, replace=False))"),
    Mutant("derived-spawn-key", "src/gradmix/numcore.py",
           "spawn_key=(idx, 1) + _label_spawn_key(label)",
           "spawn_key=(idx, 2) + _label_spawn_key(label)"),
    Mutant("base-stream-entropy", "src/gradmix/numcore.py",
           "np.random.SeedSequence(entropy=self.master_seed, spawn_key=(idx,))",
           "np.random.SeedSequence(entropy=self.master_seed + 1, spawn_key=(idx,))"),
    Mutant("non-atomic-write", "src/gradmix/models.py",
           'tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")',
           "tmp = path"),
    Mutant("p-le-alpha", "src/gradmix/surgery.py",
           "og[i] < 0.0 < oo[i] and p < alpha]",
           "og[i] < 0.0 < oo[i] and p <= alpha]"),
    Mutant("og-le-0", "src/gradmix/surgery.py",
           "og[i] < 0.0 < oo[i] and p < alpha]",
           "og[i] <= 0.0 < oo[i] and p < alpha]"),
    Mutant("unsorted-batch-chunks", "src/gradmix/corpora.py",
           "keys[:full].reshape(-1, size).sort(axis=1)",
           "keys[:full].reshape(-1, size)"),
    Mutant("manifest-skips-models", "src/gradmix/cli.py",
           "if p.is_file() and p != path\n",
           'if p.is_file() and p != path and p.parent.name != "models"\n'),
    Mutant("export-skips-models", "src/gradmix/cli.py",
           'chains = (out / rel for r in records for rel in r["checkpoints"].values())',
           "chains = ()"),
    Mutant("latest-peak", "src/gradmix/analysis.py",
           "return int(np.argmax(curve)) + 1",
           "return len(curve) - int(np.argmax(curve[::-1]))"),
    Mutant("pstdev", "src/gradmix/analysis.py",
           "sd = statistics.stdev(values)",
           "sd = statistics.pstdev(values)"),
    Mutant("no-stage-drop", "src/gradmix/cli.py",
           "stages.pop(key, None)",
           "stages.get(key)"),
    Mutant("12-digit-digest", "src/gradmix/models.py",
           "return h.hexdigest()[:16]",
           "return h.hexdigest()[:12]"),
    Mutant("6-place-csv", "src/gradmix/analysis.py",
           'cells = ["" if v is None else repr(float(v)) for v in row]',
           'cells = ["" if v is None else f"{float(v):.6f}" for v in row]'),
    Mutant("leaked-temp-file", "src/gradmix/models.py",
           "tmp.unlink(missing_ok=True)",
           "pass"),
    Mutant("trace-spaced-separators", "src/gradmix/surgery.py",
           "f'[{e.step},{lang},{_json_number(e.p_value)},'",
           "f'[{e.step}, {lang}, {_json_number(e.p_value)}, '"),
    Mutant("trace-no-header", "src/gradmix/surgery.py",
           "yield TRACE_HEADER",
           "pass"),
]

# Survivors that change no behaviour, by name, and why.
EQUIVALENT: Dict[str, str] = {}


def copy_tree(dest: Path) -> None:
    """The working tree's files, as git lists them, under `dest`."""
    names = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], check=True, capture_output=True).stdout
    for name in names.decode().split("\0"):
        if name and (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def first_failure(output: str) -> str:
    """The first test pytest's summary names as failed or erroring."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return output.strip().splitlines()[-1] if output.strip() else "no output"


def run_tier1(tree: Path, tests: List[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def try_mutant(tree: Path, mutant: Mutant, tests: List[str]) -> str:
    """Apply `mutant` in `tree`, run Tier-1, restore the file; returns the
    mutant's report line."""
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return f"STALE     {mutant.name}: its old text occurs {count} times in {mutant.path}"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        done = run_tier1(tree, tests)
    except subprocess.TimeoutExpired:
        return f"killed    {mutant.name}: Tier-1 hung for {TIMEOUT_S} s"
    finally:
        path.write_text(text, encoding="utf-8")
    if done.returncode != 0:
        return f"killed    {mutant.name}: by {first_failure(done.stdout)}"
    if mutant.name in EQUIVALENT:
        return f"equivalent {mutant.name}: {EQUIVALENT[mutant.name]}"
    return f"SURVIVED  {mutant.name}: {mutant.path}: {mutant.old!r} -> {mutant.new!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to try (default: all)")
    parser.add_argument("--tests", nargs="+", default=[],
                        help="the tests to run, as pytest takes them (default: Tier-1)")
    args = parser.parse_args(argv)
    known = {m.name for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        tree = Path(work)
        copy_tree(tree)
        clean = run_tier1(tree, args.tests)
        if clean.returncode != 0:
            print(f"FAIL: Tier-1 fails on the unmutated copy: {first_failure(clean.stdout)}")
            return 1
        lines = []
        for mutant in chosen:
            lines.append(try_mutant(tree, mutant, args.tests))
            print(lines[-1], flush=True)
    bad = [line for line in lines if line.startswith(("SURVIVED", "STALE"))]
    killed = sum(line.startswith("killed") for line in lines)
    print(f"{killed} of {len(lines)} killed, {len(bad)} survived or stale, "
          f"{len(lines) - killed - len(bad)} equivalent")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
