"""gradmix benchmark: closed-loop repeats of `gradmix run` on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from (or with) a source checkout: the benchmark runs `src/gradmix` of
the checkout that holds this file, writes everything under `.perfbench/` of
that checkout, and fails without a result when there is no `src/gradmix`.

Each repeat is one `gradmix run` of the workload's generated config as a
fresh process, started when the previous one ended (one client, closed
loop), for as many repeats as fit in S seconds (at least one). BLAS/OpenMP
are pinned to one thread per process. Every repeat goes through the output
check in check.py.

Untraced runs start through launch.py, which stamps the moment the parent
process has built the `Task`. --trace 0 reports the end-to-end metrics:
median wall and CPU time of a run, peak RSS, run-tree size, and the median
set-up time over the repeats and ten set-up-only launches of the same
command (half before the repeats, half after, so they sample the whole run).
--trace 1 makes one untraced and one traced repeat and reports the
per-layer metrics of the traced one (see tracing.py), plus the tracing
overhead. `attempted` counts every checked `gradmix run` (including the
--jobs 1 reference a --jobs N workload may need) and `failed` those whose
output check failed. The last line of stdout is the JSON result; the lines
before it are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_LAUNCHES = 5  # before the repeats, and again after them
PROCESS_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_references() -> dict:
    return json.loads((HERE / "references.json").read_text(encoding="utf-8"))


def src_digest(src: Path) -> str:
    """sha256 over the checkout's gradmix sources (names and bytes)."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def child_env(pin_threads: bool = True) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        if pin_threads:
            env[var] = "1"
        else:
            env.pop(var, None)
    return env


def run_process(argv: List[str], cwd: Path, env: Dict[str, str], log: Path) -> dict:
    """Run a child to completion; wall time, CPU time and peak RSS of its
    process tree (every descendant it waited for)."""
    with log.open("wb") as fh:
        t0_mono = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                start_new_session=True)
        deadline = t0 + PROCESS_TIMEOUT_S
        try:
            while True:
                pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    raise TimeoutError
                time.sleep(0.002)
        except BaseException as exc:
            # Timed out or interrupted: stop the child's whole session.
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, ru = os.wait4(proc.pid, 0)
            if not isinstance(exc, TimeoutError):
                raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0, "t0_mono": t0_mono}


def machine_record(stack: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": stack["python"],
        "numpy": stack["numpy"],
        "blas": stack["blas"],
        "blas_threads": stack["blas_threads"],
        "thread_env": {v: "1" for v in THREAD_VARS},
        "commit": commit,
        "src_sha256": src_digest(ROOT / "src"),
    }


class Session:
    """One benchmark invocation: a workload, a seed and its generated inputs."""

    def __init__(self, workload: str, seed: int):
        if not (ROOT / "src" / "gradmix" / "cli.py").is_file():
            raise BenchError(f"no gradmix sources under {ROOT / 'src'}")
        self.w = workloads.WORKLOADS[workload]
        self.base = ROOT / ".perfbench"
        self.work = self.base / "work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.config = workloads.write_config(workload, seed, self.work)
        self.env = child_env()
        refs = load_references()
        ref_name = self.w.same_manifest_as or self.w.name
        self.expected = refs["results"][ref_name] if seed == workloads.DEFAULT_SEED else None
        self.cache = self.base / "cache" / inputs_key(self.work)
        self.manifest_ref: Optional[bytes] = None
        self.counts_ref: Optional[dict] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def start(self, tree: str, jobs: int, entry: List[str]) -> dict:
        """Run `python <entry> run ...` of the workload into a fresh tree."""
        out = self.work / tree
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable] + entry + ["run", "--config", str(self.config), "--out", str(out),
                                           "--jobs", str(jobs)]
        res = run_process(argv, self.work, self.env, self.work / f"{tree}.log")
        res["tree"] = out
        return res

    def launch(self, tree: str, jobs: int, mode: str) -> dict:
        """A run through launch.py; its set-up time is when the parent had
        built the Task."""
        stamp = self.work / f"{tree}.stamp.json"
        stamp.unlink(missing_ok=True)
        res = self.start(tree, jobs, [str(HERE / "launch.py"), str(stamp), mode])
        if stamp.is_file():
            res.update(json.loads(stamp.read_text(encoding="utf-8")))
            res["setup_s"] = res.pop("ready") - res["t0_mono"]
        return res

    def setup_only(self) -> dict:
        """A launch that stops once the Task is built; gives a set-up time
        and the numeric stack of the run's process."""
        res = self.launch("setup", self.w.jobs, "setup")
        shutil.rmtree(res["tree"], ignore_errors=True)
        if res["exit"] != 0 or "setup_s" not in res:
            raise BenchError(f"set-up launch failed; see {self.work / 'setup.log'}")
        if Path(res["gradmix_file"]).resolve().parent != (ROOT / "src" / "gradmix").resolve():
            raise BenchError(f"the run imported gradmix from {res['gradmix_file']}")
        return res

    def gradmix(self, tree: str, jobs: int, traced: Optional[Path] = None) -> dict:
        """One checked `gradmix run` into a fresh tree under the work dir."""
        if traced is None:
            res = self.launch(tree, jobs, "run")
            if res["exit"] == 0 and "setup_s" not in res:
                raise BenchError(f"the run never built its Task; see {self.work / tree}.log")
        else:
            res = self.start(tree, jobs, [str(HERE / "tracing.py"), str(traced)])
        out = res["tree"]
        res["artifacts"] = check.artifact_counts(out) if out.is_dir() else {}
        res["artifact_mb"] = sum(c["bytes"] for c in res["artifacts"].values()) / 1e6
        problems = check.check_repeat(res["exit"], out, self.manifest_ref, self.counts_ref,
                                      self.expected)
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{tree}: {p}" for p in problems]
        res["ok"] = not problems
        if res["ok"] and self.manifest_ref is None:
            self.manifest_ref = (out / "manifest.json").read_bytes()
            self.counts_ref = res["artifacts"]
        return res

    def reference(self) -> None:
        """Set the manifest and artifact counts every repeat must reproduce.

        They come from an earlier passing set of the same sources and inputs
        in this checkout, so a set of one repeat is still compared with
        another run; grid-default and grid-default-j2 have the same inputs
        and so share them (the --jobs contract, in both directions). Failing
        that, a --jobs N workload makes a --jobs 1 run now, and any other
        workload takes its own first repeat."""
        if (self.cache / "manifest.json").is_file():
            self.manifest_ref = (self.cache / "manifest.json").read_bytes()
            self.counts_ref = json.loads((self.cache / "counts.json").read_text())
        elif self.w.jobs > 1:
            ref = self.gradmix("jobs1-reference", jobs=1)
            shutil.rmtree(ref["tree"], ignore_errors=True)

    def keep_reference(self) -> None:
        """Cache the set's reference once the whole set has passed."""
        if self.problems or self.manifest_ref is None or (self.cache / "manifest.json").is_file():
            return
        self.cache.mkdir(parents=True, exist_ok=True)
        (self.cache / "counts.json").write_text(json.dumps(self.counts_ref))
        (self.cache / "manifest.json").write_bytes(self.manifest_ref)


def inputs_key(work: Path) -> str:
    """sha256 over the checkout's gradmix sources and the generated inputs."""
    h = hashlib.sha256(src_digest(ROOT / "src").encode())
    for name, p in workloads.input_files(work):
        h.update(name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def median(xs: List[float]) -> float:
    return float(statistics.median(xs))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    s = Session(workload, seed)
    setups = [s.setup_only() for _ in range(SETUP_LAUNCHES)]
    machine = machine_record(setups[0])
    s.reference()
    runs = []
    t_start = time.perf_counter()
    if trace:
        runs.append(s.gradmix("untraced", s.w.jobs))
        spans = s.work / "spans.npz"
        traced = s.gradmix("traced", s.w.jobs, traced=spans)
    else:
        # Start another repeat only while it is expected to end inside the
        # window, so one run lasts about `seconds` (but at least one repeat).
        while not runs or (time.perf_counter() - t_start
                           + median([r["wall_s"] for r in runs]) <= seconds):
            runs.append(s.gradmix("repeat", s.w.jobs))
    setups += [s.setup_only() for _ in range(SETUP_LAUNCHES)]
    s.keep_reference()

    summary = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "machine": machine,
        "config": json.loads(s.config.read_text()),
        "repeats": [{k: r[k] for k in ("exit", "wall_s", "cpu_s", "peak_rss_mb",
                                       "artifact_mb", "ok")} for r in runs],
        "setup_s": [x["setup_s"] for x in setups + runs if "setup_s" in x],
        "artifacts": runs[0]["artifacts"],
        "problems": s.problems,
        "attempted": s.attempted,
        "failed": s.failed,
        "fail_ratio": s.failed / s.attempted,
        "correct": not s.problems,
    }
    if trace:
        import tracing

        if not spans.is_file():
            raise BenchError(f"the traced run wrote no spans; see {s.work / 'traced.log'}")
        span_data = tracing.load_spans(str(spans))
        layers = tracing.layer_metrics(span_data)
        for kind, c in traced["artifacts"].items():
            if kind != "other":
                layers[f"artifacts.{kind}.files"] = c["files"]
                layers[f"artifacts.{kind}.bytes"] = c["bytes"]
        manifest = traced["tree"] / "manifest.json"
        hashed = sum(c["bytes"] for c in traced["artifacts"].values())
        layers["cli.write_manifest.bytes_hashed"] = hashed - manifest.stat().st_size
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - runs[0]["wall_s"]
        summary["layers"] = layers
        summary["shares"] = tracing.layer_shares(span_data)
        metrics = layers
    else:
        metrics = {
            "wall_s": median([r["wall_s"] for r in runs]),
            "cpu_s": median([r["cpu_s"] for r in runs]),
            "setup_s": median(summary["setup_s"]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
            "artifact_mb": median([r["artifact_mb"] for r in runs]),
        }
    summary["metrics"] = metrics
    for r in runs + ([traced] if trace else []):
        shutil.rmtree(r["tree"], ignore_errors=True)
    return summary


def metric_units(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json expects for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        units = metric_units(bool(args.trace))
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        if set(summary["metrics"]) != set(units):
            raise BenchError(f"metrics differ from BENCHMARK.json: "
                             f"{sorted(set(summary['metrics']) ^ set(units))}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    print(f"machine: {json.dumps(summary['machine'])}")
    for p in summary["problems"]:
        print(f"CHECK FAILED: {p}")
    n = len(summary["repeats"])
    print(f"{args.workload} seed {args.seed}: {n} repeat(s), {len(summary['setup_s'])} "
          f"set-up times, fail_ratio {summary['fail_ratio']:.3f}")
    for k, v in summary["metrics"].items():
        print(f"  {k:40s} {v:14.6g} {units[k]}")
    if args.trace:
        print("  shares of cli.run_experiment (inclusive):")
        for k, v in sorted(summary["shares"].items(), key=lambda kv: -kv[1]):
            print(f"    {k:44s} {100 * v:6.2f}%")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in summary["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
