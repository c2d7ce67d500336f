"""Reproducible experiment runner.

One JSON config describes the benchmark, the model, the (strategy x K x
seed) grid, and the plan defaults; `run` executes every cell and writes a
deterministic artifact tree; `export` re-emits the aggregate table and the
gradient-similarity CSVs from an existing tree. Canonical artifacts carry
no timestamps, so rerunning a config reproduces every file byte for byte.

The unit of work is a chunk of seeds: all seeds at `--jobs 1`, and
min(jobs, seeds) contiguous chunks, one pool task each, under `--jobs N`.
A chunk runs its cells column by column ((strategy, K) over its seeds)
with one `trainer.Stages` dict: `trainer.prefill` trains a column's
stages in lockstep across the chunk's seeds, a chain that several cells
share is trained once (see `trainer.run_strategy`), and each stage is
dropped after its last column. Trained chains go to one content-addressed
store, `models/<chain_digest>.json`, written once per distinct chain; a
record's `checkpoints` map points into it. Every file is written through
`models.write_atomic`, so a name only ever holds a whole file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import shutil
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, corpora, models, trainer
from .corpora import (
    SPLITS,
    LanguageCorpus,
    build_shot_bank,
    gen_synthetic_family,
    ingest_tsv,
    profile_from_manifest,
)
from .models import ModelSpec, chain_digest, save_checkpoint, write_atomic
from .numcore import ContractViolation, RngStreams, is_int
from .trainer import Stages, Task, TrainPlan, run_strategy

# Strategies whose run produces one final model covering every language;
# only these feed the gradient-similarity matrices.
SIM_MATRIX_KEYS = {"mix_ft": "adapted", "naive_mix_train": "model", "gradient_mix_train": "model"}

# The config's `plan` sets TrainPlan fields; the grid sets the other three.
PLAN_FIELDS = tuple(
    f.name for f in dataclasses.fields(TrainPlan) if f.name not in ("strategy", "seed", "k")
)
# The config's `model` block: its keys and their defaults. Input width and
# class count come from the benchmark.
MODEL_DEFAULTS = {"family": "softmax_classifier", "hidden_dim": 64}
# The config's `analysis` block: its keys, their defaults and least values.
ANALYSIS_DEFAULTS = {"seed": 0, "source_batches": 100}
ANALYSIS_LEAST = {"seed": 0, "source_batches": 1}


@dataclass(frozen=True)
class ExperimentConfig:
    benchmark: dict
    model: dict
    strategies: Tuple[str, ...]
    ks: Tuple[int, ...]
    seeds: Tuple[int, ...]
    plan: dict
    analysis_seed: int
    analysis_source_batches: int

    def canonical_dict(self) -> dict:
        return {
            "format_version": 1,
            "benchmark": self.benchmark,
            "model": self.model,
            "grid": {
                "strategies": list(self.strategies),
                "ks": list(self.ks),
                "seeds": list(self.seeds),
            },
            "plan": {k: self.plan.get(k) for k in PLAN_FIELDS if k in self.plan},
            "analysis": {
                "seed": self.analysis_seed,
                "source_batches": self.analysis_source_batches,
            },
        }


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ContractViolation(f"config: {doc!r} is not a JSON object")
    for block in ("grid", "benchmark", "model", "plan", "analysis"):
        if not isinstance(doc.get(block, {}), dict):
            raise ContractViolation(f"{block}: {doc[block]!r} is not a JSON object")
    try:
        grid = doc["grid"]
        axes = {name: grid[name] for name in ("strategies", "ks", "seeds")}
    except KeyError as exc:
        raise ContractViolation(f"config missing grid section/key: {exc}") from None
    for name, values in axes.items():
        if not isinstance(values, list) or not values:
            raise ContractViolation(f"grid {name}: {values!r} is not a non-empty JSON list")
        for i, v in enumerate(values):  # TrainPlan checks the values of each cell below
            if name != "strategies" and not is_int(v):
                raise ContractViolation(f"grid {name}: {v!r} is not an integer")
            if v in values[:i]:
                raise ContractViolation(f"grid {name}: {v!r} is listed twice")
    strategies, ks, seeds = map(tuple, axes.values())
    plan = dict(doc.get("plan", {}))
    model = dict(MODEL_DEFAULTS, **doc.get("model", {}))
    ana = dict(ANALYSIS_DEFAULTS, **doc.get("analysis", {}))
    unknown = [f"plan.{key}" for key in plan if key not in PLAN_FIELDS]
    unknown += [f"model.{key}" for key in model if key not in MODEL_DEFAULTS]
    unknown += [f"analysis.{key}" for key in ana if key not in ANALYSIS_DEFAULTS]
    if unknown:
        raise ContractViolation(f"unknown config key(s): {', '.join(unknown)}")
    if not is_int(model["hidden_dim"]):
        raise ContractViolation(f"model.hidden_dim: {model['hidden_dim']!r} is not an integer")
    for key, least in ANALYSIS_LEAST.items():
        if not is_int(ana[key]) or ana[key] < least:
            raise ContractViolation(f"analysis.{key}: {ana[key]!r} is not an integer >= {least}")
    cfg = ExperimentConfig(
        benchmark=doc.get("benchmark", {"kind": "default"}),
        model=model,
        strategies=strategies,
        ks=ks,
        seeds=seeds,
        plan=plan,
        analysis_seed=ana["seed"],
        analysis_source_batches=ana["source_batches"],
    )
    for cell in grid_cells(cfg):  # a plan value TrainPlan refuses stops the run here
        make_plan(cfg, *cell)
    return cfg


def load_config(path: Path) -> ExperimentConfig:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ContractViolation(f"cannot read config {path}: {exc}") from None
    return parse_config(doc)


def _tsv_corpora(bench: dict) -> Tuple[List[LanguageCorpus], int, int]:
    """The corpora of a `tsv` benchmark, one per `languages` entry, and the
    input width and class count of its model: the one width of every
    non-empty file, and `num_classes` if given, else 1 + the largest label
    in any file, at least 2."""
    schema, num_classes = bench.get("task", "classification"), bench.get("num_classes")
    langs = bench.get("languages")
    if schema not in corpora.TASKS:
        raise ContractViolation(f"benchmark.task: unknown task {schema!r}, "
                                f"expected one of {', '.join(corpora.TASKS)}")
    if num_classes is not None and not (is_int(num_classes) and num_classes >= 2):
        raise ContractViolation(f"benchmark.num_classes: {num_classes!r} is not an integer >= 2")
    if not isinstance(langs, list) or not langs:
        raise ContractViolation(f"benchmark.languages: {langs!r} is not a non-empty JSON list")
    corp, widths, top = [], {}, 1  # top: the largest label, at least 1
    for i, lang in enumerate(langs):
        if not isinstance(lang, dict):
            raise ContractViolation(f"benchmark.languages[{i}]: {lang!r} is not a JSON object")
        where = f"tsv language {lang.get('lang_id', f'#{i}')}"
        for key in ("lang_id", "role", "splits"):
            if key not in lang:
                raise ContractViolation(f"{where}: no {key!r} key")
        if not isinstance(lang["splits"], dict):
            raise ContractViolation(f"{where}: splits is not a JSON object")
        splits = {}
        for split, path in lang["splits"].items():
            if split not in SPLITS:
                raise ContractViolation(f"{where}: unknown split {split!r}, "
                                        f"expected one of {', '.join(SPLITS)}")
            try:
                splits[split] = data = ingest_tsv(path, schema, num_classes)
            except (OSError, UnicodeError, ContractViolation) as exc:
                why = exc.strerror if isinstance(exc, OSError) else exc
                raise ContractViolation(f"{where}: {split} file {path}: {why}") from None
            if data.y.size:
                widths[path] = data.X.shape[1]
                top = max(top, int(data.y.max()))
        corp.append(LanguageCorpus(lang["lang_id"], lang.get("script_tag", ""), lang["role"],
                                   **splits))
    if len(set(widths.values())) > 1:
        raise ContractViolation("tsv files differ in feature width: " + ", ".join(
            f"{path} has {width}" for path, width in widths.items()))
    return corp, next(iter(widths.values()), 0), num_classes or 1 + top


def build_benchmark(cfg: ExperimentConfig) -> Tuple[Task, Optional[dict]]:
    """The config's `Task`, and the manifest of a generated benchmark. The
    model's input width and class count come from the profile, or from the
    files of a `tsv` benchmark (`_tsv_corpora`); `Task` checks the data."""
    kind = cfg.benchmark.get("kind", "default")
    manifest = None
    if kind == "tsv":
        corp, input_dim, num_classes = _tsv_corpora(cfg.benchmark)
    elif kind in ("default", "synthetic"):
        profile = cfg.benchmark.get("profile")
        if kind == "synthetic" and not isinstance(profile, dict):
            raise ContractViolation(f"benchmark.profile: {profile!r} is not a JSON object")
        try:
            profile = (corpora.default_profile() if kind == "default"
                       else profile_from_manifest(profile))
        except KeyError as exc:
            raise ContractViolation(f"benchmark.profile: no {exc.args[0]!r} key") from None
        corp, manifest = gen_synthetic_family(profile)
        input_dim, num_classes = profile.input_dim, profile.num_classes
    else:
        raise ContractViolation(f"unknown benchmark kind {kind!r}")
    spec = ModelSpec(cfg.model["family"], input_dim, cfg.model["hidden_dim"], num_classes)
    return Task.from_corpora(spec, corp), manifest


def grid_cells(cfg: ExperimentConfig) -> List[Tuple[str, int, int]]:
    """zero_shot ignores K and runs once per seed; everything else spans the
    full K grid."""
    cells = []
    for strategy in cfg.strategies:
        ks = (0,) if strategy == "zero_shot" else cfg.ks
        for k in ks:
            for seed in cfg.seeds:
                cells.append((strategy, k, seed))
    return cells


def cell_name(strategy: str, k: int, seed: int) -> str:
    return f"{strategy}_k{k}_seed{seed}"


def seed_chunks(cells: Sequence[Tuple[str, int, int]],
                n_chunks: int) -> List[List[Tuple[str, int, int]]]:
    """The cells of min(n_chunks, seeds) contiguous chunks of the seeds (in
    order of first appearance), sizes differing by at most one, each
    chunk's cells in the given order."""
    seeds = list(dict.fromkeys(cell[2] for cell in cells))
    chunks = np.array_split(seeds, min(n_chunks, len(seeds)))
    return [[cell for cell in cells if cell[2] in chunk]
            for chunk in (set(part.tolist()) for part in chunks)]


def columns(cells: Sequence[Tuple[str, int, int]]) -> List[List[Tuple[str, int, int]]]:
    """The cells by (strategy, K), in the order a chunk runs them: grid
    order, except that columns which share an adapt stage (ord_fs and
    ord_fs_dev at one K) run back to back, so that stage is dropped
    sooner."""
    by_column: Dict[Tuple[str, int], List[Tuple[str, int, int]]] = {}
    for cell in cells:
        by_column.setdefault(cell[:2], []).append(cell)
    first: Dict[tuple, int] = {}  # a family's place: that of its first column
    return [by_column[c] for c in sorted(by_column, key=lambda c: first.setdefault(
        (trainer.ADAPT_FAMILY.get(c[0], c[0]), c[1]), len(first)))]


def make_plan(cfg: ExperimentConfig, strategy: str, k: int, seed: int) -> TrainPlan:
    return TrainPlan(strategy=strategy, k=k, seed=seed, **cfg.plan)


def write_json(path: Path, obj) -> None:
    write_atomic(path, (json.dumps(obj, indent=2, allow_nan=False) + "\n").encode("utf-8"))


def run_cell(cfg: ExperimentConfig, task: Task, strategy: str, k: int, seed: int,
             out: Path, stages: Optional[Stages] = None) -> dict:
    """Run one grid cell and write its trace, then its chains, then its
    record; returns the record. Cells given one `stages` dict share trained
    phases. A cell directory with a record is complete: if a write fails,
    the chain files this call created and the cell directory are removed,
    so `models/` keeps only chains some record references."""
    plan = make_plan(cfg, strategy, k, seed)
    result = run_strategy(plan, task, stages=stages)
    cell_dir = out / "runs" / cell_name(strategy, k, seed)
    # Store names are content digests, so a name that exists holds its chain.
    rel_of = {key: f"models/{chain_digest(chain)}.json"
              for key, chain in result.checkpoints.items()}
    result.record["checkpoints"] = rel_of
    trace = None if result.trace is None else (  # written line by line, never whole
        (json.dumps(entry.to_json_dict()) + "\n").encode("utf-8") for entry in result.trace)
    result.record["surgery_trace"] = None if trace is None else "surgery_trace.jsonl"

    created: List[Path] = []
    try:
        if trace is not None:
            write_atomic(cell_dir / "surgery_trace.jsonl", trace)
        for key, rel in rel_of.items():
            if not (out / rel).exists():
                save_checkpoint(result.checkpoints[key], out / rel)
                created.append(out / rel)
        write_json(cell_dir / "record.json", result.record)
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        shutil.rmtree(cell_dir, ignore_errors=True)
        raise
    return result.record


FAILURE_FRAMES = 3  # innermost traceback frames kept in a failure entry


def failure_entry(cell: str, exc: BaseException) -> dict:
    """A `failures` entry: the cell, the message, the exception type and
    the innermost frames as "module:function:line" (module names, unlike
    file paths, are the same on every machine and in every process)."""
    frames = [f"{frame.f_globals.get('__name__')}:{frame.f_code.co_name}:{lineno}"
              for frame, lineno in traceback.walk_tb(exc.__traceback__)]
    return {"cell": cell, "error": str(exc), "type": type(exc).__name__,
            "frames": frames[-FAILURE_FRAMES:]}


def run_chunk(cfg: ExperimentConfig, task: Task, cells: Sequence[Tuple[str, int, int]],
              out: Path) -> List[Tuple[Tuple[str, int, int], Optional[dict], Optional[dict]]]:
    """Run one chunk's cells column by column (`columns`) with one stages
    dict: `trainer.prefill` fills a column's stages before its cells run,
    and each entry is dropped after the last column that uses it. Returns
    (cell, record, None) for each cell that succeeded and (cell, None,
    failure entry) for each that failed; the entry is made here, so a pool
    worker's traceback survives."""
    todo = columns(cells)
    plans = {cell: make_plan(cfg, *cell) for cell in cells}
    last_use = {}
    for i, column in enumerate(todo):
        for cell in column:
            last_use.update(dict.fromkeys(trainer.stage_keys(plans[cell], task).values(), i))
    stages: Stages = {}
    outcomes = []
    for i, column in enumerate(todo):
        trainer.prefill([plans[cell] for cell in column], task, stages)
        for cell in column:
            try:
                outcomes.append((cell, run_cell(cfg, task, *cell, out, stages=stages), None))
            except Exception as exc:
                outcomes.append((cell, None, failure_entry(cell_name(*cell), exc)))
        for key in [key for key, last in last_use.items() if last == i]:
            stages.pop(key, None)
    return outcomes


def write_sim_matrices(cfg: ExperimentConfig, task: Task, records: Sequence[dict],
                       out: Path) -> List[Path]:
    """One similarity-matrix CSV per (strategy, k) group with a single final
    model per run: the last state of each seed's checkpoint chain, measured
    against one analysis shot bank, drawn once per (K, shot mode). Batch
    size and shot mode are the ones the group's runs resolved and
    recorded."""
    agg_dir = out / "aggregate"
    agg_dir.mkdir(parents=True, exist_ok=True)
    written = []
    groups: Dict[Tuple[str, int], List[dict]] = {}
    for r in records:
        if r["strategy"] in SIM_MATRIX_KEYS and r["k"] > 0:
            groups.setdefault((r["strategy"], r["k"]), []).append(r)
    corp = [task.source] + list(task.targets)
    banks: Dict[Tuple[int, str], corpora.Shots] = {}
    for (strategy, k), rs in sorted(groups.items()):
        rs = sorted(rs, key=lambda r: r["seed"])
        key = SIM_MATRIX_KEYS[strategy]
        finals = [models.load_checkpoint(out / r["checkpoints"][key])[-1] for r in rs]
        plan = rs[0]["plan"]
        mode = plan["shot_mode"]
        if (k, mode) not in banks:
            banks[k, mode] = build_shot_bank(task.targets, k, mode, task.spec.num_classes,
                                             RngStreams(cfg.analysis_seed))
        rng = np.random.default_rng(np.random.SeedSequence(cfg.analysis_seed))
        m = analysis.similarity_matrix(
            finals, corp, banks[k, mode], rng,
            batch_size=plan["batch_size"],
            n_source_batches=cfg.analysis_source_batches,
        )
        path = agg_dir / f"simmatrix_{strategy}_k{k}.csv"
        analysis.write_sim_matrix_csv(m, path)
        written.append(path)
    return written


def write_aggregate(cfg: ExperimentConfig, task: Task, records: Sequence[dict],
                    out: Path) -> str:
    """Write `aggregate/`: report.json, table.txt and the similarity CSVs
    of the given run records. Returns the table."""
    records = sorted(records, key=lambda r: (r["strategy"], r["k"], r["seed"]))
    report = analysis.aggregate_runs(records)
    write_json(out / "aggregate" / "report.json", report)
    table = format_table(report, records[0]["source_lang"])
    write_atomic(out / "aggregate" / "table.txt", table.encode("utf-8"))
    write_sim_matrices(cfg, task, records, out)
    return table


def format_table(report: dict, source_lang: str) -> str:
    """Text table: one block per K, strategy rows, 'NN.NN +- N.NN' cells in
    percent; the rightmost column macro-averages the targets only."""
    grid = report["grid"]
    ks = sorted({cell["k"] for cell in grid})
    lines = []
    for k in ks:
        cells = [c for c in grid if c["k"] == k]
        langs = [source_lang] + [l for l in cells[0]["target_langs"]]
        header = ["K=" + str(k)] + langs + ["target-avg"]
        widths = [max(20, len(header[0]))] + [15] * (len(header) - 1)
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for cell in cells:
            row = [cell["strategy"].ljust(widths[0])]
            for lang in langs:
                stats = cell["languages"].get(lang)
                cellstr = (
                    f"{100*stats['mean']:.2f} ± {100*stats['sd']:.2f}"
                    if stats
                    else "-"
                )
                row.append(cellstr.ljust(15))
            m = cell["macro"]
            row.append(
                f"{100*m['mean']:.2f} ± {100*m['sd']:.2f}"
                if m["mean"] is not None
                else "-"
            )
            lines.append("  ".join(row))
        lines.append("")
    return "\n".join(lines)


def write_manifest(out: Path, failures: List[dict]) -> Path:
    """sha256 of every file under `out` except this manifest itself."""
    path = out / "manifest.json"
    entries = [
        {"path": str(p.relative_to(out)), "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
        for p in sorted(out.rglob("*"))
        if p.is_file() and p != path
    ]
    manifest = {"format_version": 1, "artifacts": entries, "failures": failures}
    write_json(path, manifest)
    return path


def run_experiment(cfg: ExperimentConfig, out: Path, jobs: int = 1) -> int:
    """Execute the full grid; returns 0 iff every cell succeeded.

    `out` must be missing or empty: the manifest lists every file under it,
    so a used tree would mix another run's artifacts into this one's. The
    Task is built before `out` is made, so a benchmark or model it refuses
    leaves nothing behind.
    """
    if jobs < 1:
        raise ContractViolation(f"--jobs must be at least 1, got {jobs}")
    if out.is_dir() and any(out.iterdir()):
        raise ContractViolation(f"output directory {out} is not empty; choose a new --out")
    if out.exists() and not out.is_dir():
        raise ContractViolation(f"--out {out} is a file; choose a new --out")
    task, manifest = build_benchmark(cfg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ContractViolation(f"cannot create --out {out}: {exc.strerror}") from None
    write_json(out / "config.json", cfg.canonical_dict())
    if manifest is not None:
        write_json(out / "benchmark" / "manifest.json", manifest)

    cells = grid_cells(cfg)
    outcomes: Dict[Tuple[str, int, int], Tuple[Optional[dict], Optional[dict]]] = {}
    chunks = seed_chunks(cells, jobs)
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [(pool.submit(run_chunk, cfg, task, chunk, out), chunk)
                       for chunk in chunks]
            for fut, chunk in futures:
                try:
                    for cell, record, failure in fut.result():
                        outcomes[cell] = (record, failure)
                except Exception as exc:  # the worker itself failed
                    for cell in chunk:
                        outcomes[cell] = (None, failure_entry(cell_name(*cell), exc))
    else:
        for cell, record, failure in run_chunk(cfg, task, cells, out):
            outcomes[cell] = (record, failure)
    records = [outcomes[cell][0] for cell in cells if outcomes[cell][0] is not None]
    failures = [outcomes[cell][1] for cell in cells if outcomes[cell][1] is not None]

    if records:
        try:
            write_aggregate(cfg, task, records, out)
        except Exception as exc:
            failures.append(failure_entry("aggregate", exc))
    write_manifest(out, failures)
    for f in failures:
        where = f" (at {f['frames'][-1]})" if f["frames"] else ""
        print(f"FAILED {f['cell']}: {f['type']}: {f['error']}{where}", file=sys.stderr)
    return 0 if not failures else 1


def export_artifacts(out: Path) -> int:
    """Rebuild the aggregate report, the text table, and the similarity CSVs
    from a completed run tree, and print the table."""
    config_path = out / "config.json"
    if not config_path.exists():
        raise ContractViolation(f"no config.json under {out}; not a run tree")
    cfg = load_config(config_path)
    expected = grid_cells(cfg)
    records = []
    missing = []
    for cell in expected:
        rec_path = out / "runs" / cell_name(*cell) / "record.json"
        if rec_path.exists():
            records.append(json.loads(rec_path.read_text(encoding="utf-8")))
        else:
            missing.append(cell_name(*cell))
    if missing:
        raise ContractViolation(f"missing run records: {', '.join(missing)}")
    task, _ = build_benchmark(cfg)
    print(write_aggregate(cfg, task, records, out))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradmix",
        description="run and export mixed-training few-shot experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment grid from a config")
    p_run.add_argument("--config", required=True, type=Path)
    p_run.add_argument("--out", required=True, type=Path)
    p_run.add_argument("--jobs", type=int, default=1)
    p_exp = sub.add_parser("export", help="re-emit tables and CSVs from a run tree")
    p_exp.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            cfg = load_config(args.config)
            return run_experiment(cfg, args.out, jobs=args.jobs)
        if args.command == "export":
            return export_artifacts(args.out)
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2
    return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
