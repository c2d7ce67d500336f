"""Reference hashes for the benchmark's output check.

    python3 perfbench/references.py record     # write references.json
    python3 perfbench/references.py pincheck   # rerun with BLAS threads unpinned

`record` runs every workload once at the default seed, with the thread pin
the benchmark uses, and stores the sha256 of `aggregate/report.json` and of
every `simmatrix_*.csv`, plus the sha256 of the generated tagger corpora.
A --jobs N workload shares the references of its --jobs 1 twin. `pincheck`
reruns the same configs with the BLAS/OpenMP thread variables removed from
the environment and reports whether every result hash still matches, which
shows that the pin does not change results.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, ROOT, child_env, load_references, run_process
import check
import workloads


def default_seed_results(pin_threads: bool) -> dict:
    env = child_env(pin_threads)
    results, inputs = {}, {}
    for w in workloads.WORKLOADS.values():
        if w.same_manifest_as:
            continue
        work = ROOT / ".perfbench" / "references" / w.name
        shutil.rmtree(work, ignore_errors=True)
        config = workloads.write_config(w.name, workloads.DEFAULT_SEED, work)
        out = work / "out"
        res = run_process([sys.executable, "-m", "gradmix.cli", "run", "--config", str(config),
                           "--out", str(out), "--jobs", "1"], work, env, work / "run.log")
        problems = check.check_repeat(res["exit"], out)
        if problems:
            raise SystemExit(f"{w.name}: {problems}")
        results[w.name] = check.result_hashes(out)
        inputs[w.name] = {name: check.sha256_file(p) for name, p in workloads.input_files(work)
                          if name.startswith("corpora/")}
        print(f"{w.name}: {len(results[w.name])} result files, {res['wall_s']:.1f} s")
        shutil.rmtree(work)
    return {"results": results, "inputs": {k: v for k, v in inputs.items() if v}}


def main(argv) -> int:
    if argv == ["record"]:
        refs = default_seed_results(pin_threads=True)
        (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        return 0
    if argv == ["pincheck"]:
        want = load_references()["results"]
        got = default_seed_results(pin_threads=False)["results"]
        same = got == {k: v for k, v in want.items() if k in got}
        print("unpinned results match the references" if same
              else "unpinned results DIFFER from the references")
        return 0 if same else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
