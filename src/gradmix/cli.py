"""Reproducible experiment runner.

One JSON config describes the benchmark, the model, the (strategy x K x
seed) grid, and the plan defaults; `run` executes every cell and writes a
deterministic artifact tree; `export` re-emits the aggregate table and the
gradient-similarity CSVs from an existing tree. Canonical artifacts carry
no timestamps, so rerunning a config reproduces every file byte for byte.
A config is the JSON document itself, as `parse_config` reads it: each
object checked against its `CONFIG` table, with every default filled in.
`run` writes it as `config.json`, which reads back to the same dict; a
generated benchmark's profile is read by `corpora.gen_synthetic_family`.

A column is the cells that share an adapt stage: the seeds of one
(strategy, K), ord_fs and ord_fs_dev at one K together. A unit is a set of
columns that shares no trained stage with another unit (`stage_units`):
zero_shot and the two-step columns share the source stage, and each
one-step column stands alone. Every `--jobs` runs a unit one way,
`run_unit`, over its own `trainer.Stages` dict: `trainer.prefill` trains a
column's stages in lockstep across seeds, a chain that several cells share
is trained once, and each stage is dropped after its last column; then the
unit writes its similarity CSVs. The units run largest first, in the
parent at `--jobs 1` and in a pool of min(jobs, units) workers under
`--jobs N`; the parent writes the report, the table and the manifest.
Chains go to one store, `models/<chain_digest>.chain` (a JSON header
line and the raw f64 states, `models.save_checkpoint`), written once per
distinct chain, that a record's `checkpoints` point into; a chain no
record references is removed once every unit has ended. Every file is
written through `models.write_atomic`, so a name only ever holds a whole
file. `export` checks what it reads against the manifest's sha256, and
refuses a file the manifest does not list.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import shutil
import sys
import traceback
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import analysis, corpora, models, trainer
from .corpora import SPLITS, LanguageCorpus, build_shot_bank, gen_synthetic_family, ingest_tsv
from .models import SPEC_KEYS, ModelSpec, chain_digest, save_checkpoint, write_atomic
from .numcore import REQUIRED, ContractViolation, RngStreams, check, read_object
from .surgery import trace_lines
from .trainer import PLAN_KEYS, Stages, Task, TrainPlan, run_strategy

# Strategies whose run produces one final model covering every language;
# only these feed the gradient-similarity matrices.
SIM_MATRIX_KEYS = {"mix_ft": "adapted", "naive_mix_train": "model", "gradient_mix_train": "model"}

# The `read_object` table of each object of a config document, by path: each
# key's kind (a `numcore.KINDS` key, or the allowed values) and default.
# `plan` is TrainPlan's table less the fields the grid sets, and `model`
# takes ModelSpec's kinds. The benchmark's objects depend on its kind.
CONFIG = {
    "": {"format_version": ("an integer", 1), "benchmark": ("a JSON object", {"kind": "default"}),
         "model": ("a JSON object", {}), "grid": ("a JSON object", REQUIRED),
         "plan": ("a JSON object", {}), "analysis": ("a JSON object", {})},
    "grid": {"strategies": ("a non-empty list of strings", REQUIRED),
             "ks": ("a non-empty list of integers", REQUIRED),
             "seeds": ("a non-empty list of integers", REQUIRED)},
    "model": {"family": (SPEC_KEYS["family"][0], "softmax_classifier"),
              "hidden_dim": (SPEC_KEYS["hidden_dim"][0], 64)},
    "plan": {key: entry for key, entry in PLAN_KEYS.items()
             if key not in ("strategy", "seed", "k")},
    "analysis": {"seed": ("an integer >= 0", 0), "source_batches": ("an integer >= 1", 100)},
}
# The kind of each grid entry: every K is for a strategy that takes shots.
GRID_ENTRY = {"strategies": PLAN_KEYS["strategy"][0], "ks": "an integer >= 1",
              "seeds": PLAN_KEYS["seed"][0]}
BENCHMARKS = {
    "default": {"kind": ("a string", "default")},
    "synthetic": {"kind": ("a string", REQUIRED), "profile": ("a JSON object", REQUIRED)},
    "tsv": {"kind": ("a string", REQUIRED), "task": (corpora.TASKS, "classification"),
            "num_classes": ("an integer >= 2", None),
            "languages": ("a non-empty JSON list", REQUIRED)},
}
TSV_LANGUAGE = {"lang_id": ("a string", REQUIRED), "role": (corpora.ROLES, REQUIRED),
                "script_tag": ("a string", ""), "splits": ("a JSON object", REQUIRED)}
TSV_SPLITS = dict.fromkeys(SPLITS, ("a string", None))  # a split without a file is empty
# The table of a run tree's `manifest.json`.
MANIFEST = {"format_version": ("an integer", REQUIRED), "artifacts": ("a JSON list", REQUIRED),
            "failures": ("a JSON list", REQUIRED)}


def __getattr__(name: str):
    """`ProcessPoolExecutor`, imported when first looked up (PEP 562), so a
    run that makes no pool does not pay for the import. The benchmark's
    tracer (`perfbench/tracing.py`) replaces it on the module by name."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return globals().setdefault(name, ProcessPoolExecutor)


def parse_config(doc) -> dict:
    """The config of a JSON document: the document read against `CONFIG[""]`,
    with `grid`, `model`, `plan` and `analysis` (read in that order) each
    replaced by what its `CONFIG` table reads and each grid entry checked
    against its `GRID_ENTRY` kind; `benchmark` is kept as given and read by
    `build_benchmark`. Those tables hold TrainPlan's kinds, so every grid
    cell's plan can be made. The result is what `config.json` holds, and
    reads back to itself."""
    cfg = read_object(doc, "", CONFIG[""])
    if cfg["format_version"] != 1:
        raise ContractViolation(f"format_version: {cfg['format_version']!r} is not 1")
    for name in ("grid", "model", "plan", "analysis"):
        cfg[name] = read_object(cfg[name], name, CONFIG[name])
    for name, values in cfg["grid"].items():
        for i, v in enumerate(values):
            check(v, GRID_ENTRY[name], f"grid.{name}")
            if v in values[:i]:
                raise ContractViolation(f"grid.{name}: {v!r} is listed twice")
    return cfg


def read_json(path: Path, what: str):
    """The JSON document of a file; refused by `what` and `path` if unreadable."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ContractViolation(f"cannot read {what} {path}: {exc}") from None


def load_config(path: Path) -> dict:
    return parse_config(read_json(path, "config"))


def _tsv_corpora(bench: dict) -> Tuple[List[LanguageCorpus], int, int]:
    """The corpora of a `tsv` benchmark (read against `BENCHMARKS["tsv"]`),
    one per `languages` entry, and the input width and class count of its
    model: the one width of every non-empty file, and `num_classes` if
    given, else 1 + the largest label in any file, at least 2."""
    schema, num_classes = bench["task"], bench["num_classes"]
    corp, widths, top = [], {}, 1  # top: the largest label, at least 1
    for i, entry in enumerate(bench["languages"]):
        where = f"benchmark.languages[{i}]"
        lang = read_object(entry, where, TSV_LANGUAGE)
        splits = {}
        for split, path in read_object(lang["splits"], where + ".splits", TSV_SPLITS).items():
            if path is None:
                continue
            try:
                splits[split] = data = ingest_tsv(path, schema, num_classes)
            except (OSError, UnicodeError, ContractViolation) as exc:
                why = exc.strerror if isinstance(exc, OSError) else exc
                raise ContractViolation(f"{where}.splits.{split}: {path}: {why}") from None
            if data.y.size:
                widths[path] = data.X.shape[1]
                top = max(top, int(data.y.max()))
        corp.append(LanguageCorpus(lang["lang_id"], lang["script_tag"], lang["role"], **splits))
    if not widths:
        raise ContractViolation("benchmark.languages: no file holds an example")
    if len(set(widths.values())) > 1:
        raise ContractViolation("tsv files differ in feature width: " + ", ".join(
            f"{path} has {width}" for path, width in widths.items()))
    return corp, next(iter(widths.values())), num_classes or 1 + top


def build_benchmark(cfg: dict) -> Tuple[Task, Optional[dict]]:
    """The config's `Task`, and the manifest of a generated benchmark. The
    `benchmark` object is read against the table of its kind. The model's
    input width and class count come from the generated manifest, or from
    the files of a `tsv` benchmark (`_tsv_corpora`); `Task` checks the data,
    and the ids and the one source by the config path of the languages."""
    kind = cfg["benchmark"].get("kind", "default")
    check(kind, tuple(BENCHMARKS), "benchmark.kind")
    bench = read_object(cfg["benchmark"], "benchmark", BENCHMARKS[kind])
    manifest = None
    if kind == "tsv":
        corp, input_dim, num_classes = _tsv_corpora(bench)
    else:
        corp, manifest = (gen_synthetic_family(bench["profile"], "benchmark.profile")
                          if kind == "synthetic" else corpora.default_benchmark())
        input_dim, num_classes = manifest["input_dim"], manifest["num_classes"]
    spec = ModelSpec(cfg["model"]["family"], input_dim, cfg["model"]["hidden_dim"], num_classes)
    languages = {"tsv": "benchmark.languages", "synthetic": "benchmark.profile.languages"}
    return Task.from_corpora(spec, corp, languages.get(kind, "")), manifest


def grid_cells(cfg: dict) -> List[Tuple[str, int, int]]:
    """zero_shot ignores K and runs once per seed; everything else spans the
    full K grid."""
    cells = []
    grid = cfg["grid"]
    for strategy in grid["strategies"]:
        ks = (0,) if strategy == "zero_shot" else grid["ks"]
        for k in ks:
            for seed in grid["seeds"]:
                cells.append((strategy, k, seed))
    return cells


def cell_name(strategy: str, k: int, seed: int) -> str:
    return f"{strategy}_k{k}_seed{seed}"


def columns(cells: Sequence[Tuple[str, int, int]]) -> List[List[Tuple[str, int, int]]]:
    """The cells that share an adapt stage, by (adapt family or strategy, K),
    in grid order: ord_fs and ord_fs_dev at one K form one column."""
    by_column: Dict[Tuple[str, int], List[Tuple[str, int, int]]] = {}
    for strategy, k, seed in cells:
        family = trainer.ADAPT_FAMILY.get(strategy, strategy)
        by_column.setdefault((family, k), []).append((strategy, k, seed))
    return list(by_column.values())


def make_plan(cfg: dict, strategy: str, k: int, seed: int) -> TrainPlan:
    return TrainPlan(strategy=strategy, k=k, seed=seed, **cfg["plan"])


def stage_units(cfg: dict, task: Task,
                cells: Sequence[Tuple[str, int, int]]) -> List[List[Tuple[str, int, int]]]:
    """The cells in units that share no trained stage: two columns are in
    one unit when their cells share a `trainer.stage_keys` key other than
    "shots" (a shot bank is a cheap pure function of (seed, K, shot mode),
    so each unit may draw its own). Units come in the order of their first
    column, and a unit's cells in `columns` order."""
    cols = columns(cells)
    keys = [{key for cell in column
             for kind, key in trainer.stage_keys(make_plan(cfg, *cell), task).items()
             if kind != "shots"} for column in cols]
    units: List[List[int]] = []  # column indices, ascending
    for i in range(len(cols)):
        joined = [unit for unit in units if any(keys[i] & keys[j] for j in unit)]
        units = [unit for unit in units if unit not in joined]
        units.append(sorted([i] + [j for unit in joined for j in unit]))
    return [[cell for i in unit for cell in cols[i]] for unit in sorted(units)]


def write_json(path: Path, obj) -> None:
    write_atomic(path, (json.dumps(obj, indent=2, allow_nan=False) + "\n").encode("utf-8"))


def run_cell(cfg: dict, task: Task, strategy: str, k: int, seed: int,
             out: Path, stages: Optional[Stages] = None) -> dict:
    """Run one grid cell and write its trace, then its chains, then its
    record; returns the record. Cells given one `stages` dict share trained
    phases. A cell directory with a record is complete: if a write fails,
    the cell directory is removed. Its chains stay, since another cell may
    have written or may read the same file; `run_experiment` removes those
    that no record references."""
    plan = make_plan(cfg, strategy, k, seed)
    result = run_strategy(plan, task, stages=stages)
    cell_dir = out / "runs" / cell_name(strategy, k, seed)
    # Store names are content digests, so a name that exists holds its chain.
    rel_of = {key: f"models/{chain_digest(chain)}.chain"
              for key, chain in result.checkpoints.items()}
    result.record["checkpoints"] = rel_of
    result.record["surgery_trace"] = None if result.trace is None else "surgery_trace.jsonl"

    try:
        if result.trace is not None:  # written line by line, never whole
            write_atomic(cell_dir / "surgery_trace.jsonl", trace_lines(result.trace))
        for key, rel in rel_of.items():
            if not (out / rel).exists():
                save_checkpoint(result.checkpoints[key], out / rel)
        write_json(cell_dir / "record.json", result.record)
    except BaseException:
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


def run_unit(cfg: dict, task: Task, unit: Sequence[Tuple[str, int, int]],
             out: Path) -> Tuple[list, list]:
    """Run one unit (`stage_units`), as every `--jobs` does: column by column
    (`columns`) over its own stages dict, which `trainer.prefill` fills
    before a column's cells run and which drops each entry after its last
    column; then write its similarity CSVs (`write_sim_matrices`). Returns
    (cell, record, None) or (cell, None, failure entry) for each cell, and
    ((strategy, K), failure entry) for each group whose CSV failed. The
    entries are made here, so a worker's traceback survives."""
    cols = columns(unit)
    plans = {cell: make_plan(cfg, *cell) for cell in unit}
    last_use = {}  # stage key -> the index of the last column using it
    for i, column in enumerate(cols):
        for cell in column:
            last_use.update(dict.fromkeys(trainer.stage_keys(plans[cell], task).values(), i))
    stages: Stages = {}
    outcomes, records = [], []
    for i, column in enumerate(cols):
        trainer.prefill([plans[cell] for cell in column], task, stages)
        for cell in column:
            try:
                records.append(run_cell(cfg, task, *cell, out, stages=stages))
                outcomes.append((cell, records[-1], None))
            except Exception as exc:
                outcomes.append((cell, None, failure_entry(cell_name(*cell), exc)))
        for key in [key for key, last in last_use.items() if last == i]:
            stages.pop(key, None)
    return outcomes, [(group, failure_entry("aggregate", exc))
                      for group, exc in write_sim_matrices(cfg, task, records, out)]


def sim_groups(records: Sequence[dict]) -> Dict[Tuple[str, int], List[dict]]:
    """The records of each (strategy, K) group with a single final model per
    run and K > 0, in (strategy, K) order."""
    groups: Dict[Tuple[str, int], List[dict]] = {}
    for r in records:
        if r["strategy"] in SIM_MATRIX_KEYS and r["k"] > 0:
            groups.setdefault((r["strategy"], r["k"]), []).append(r)
    return dict(sorted(groups.items()))


def final_states(records: Sequence[dict], out: Path) -> List[models.ModelState]:
    """The last state of each record's final chain, read from `models/`."""
    return [models.load_checkpoint(out / r["checkpoints"][SIM_MATRIX_KEYS[r["strategy"]]]).state(-1)
            for r in records]


def write_sim_matrix(cfg: dict, task: Task, records: Sequence[dict],
                     out: Path) -> None:
    """Write the similarity-matrix CSV of one (strategy, K) group, from the
    records of its seeds: their `final_states`, measured against one
    analysis shot bank of the group's K and shot mode. Batch size and shot
    mode are the ones the group's runs resolved and recorded."""
    records = sorted(records, key=lambda r: r["seed"])
    strategy, k, plan = records[0]["strategy"], records[0]["k"], records[0]["plan"]
    shots = build_shot_bank(task.targets, k, plan["shot_mode"], task.spec.num_classes,
                            RngStreams(cfg["analysis"]["seed"]))
    rng = np.random.default_rng(np.random.SeedSequence(cfg["analysis"]["seed"]))
    m = analysis.similarity_matrix(
        final_states(records, out), [task.source, *task.targets], shots, rng,
        batch_size=plan["batch_size"],
        n_source_batches=cfg["analysis"]["source_batches"],
    )
    analysis.write_sim_matrix_csv(m, out / "aggregate" / f"simmatrix_{strategy}_k{k}.csv")


def write_sim_matrices(cfg: dict, task: Task, records: Sequence[dict],
                       out: Path) -> List[Tuple[Tuple[str, int], Exception]]:
    """Write the CSV of each `sim_groups` group of `records`
    (`write_sim_matrix`). Returns, in (strategy, K) order, the group and
    exception of each group that raised; such a group leaves no CSV, and
    the others are still written."""
    failed = []
    for group, rs in sim_groups(records).items():
        try:
            write_sim_matrix(cfg, task, rs, out)
        except Exception as exc:
            failed.append((group, exc))
    return failed


def write_report(records: Sequence[dict], out: Path) -> str:
    """Write `aggregate/report.json` and `aggregate/table.txt` of the given
    run records. Returns the table."""
    records = sorted(records, key=lambda r: (r["strategy"], r["k"], r["seed"]))
    report = analysis.aggregate_runs(records)
    write_json(out / "aggregate" / "report.json", report)
    table = format_table(report, records[0]["source_lang"])
    write_atomic(out / "aggregate" / "table.txt", table.encode("utf-8"))
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


def run_experiment(cfg: dict, out: Path, jobs: int = 1) -> int:
    """Execute the full grid; returns 0 iff every cell succeeded.

    `out` must be missing or empty: the manifest lists every file under it,
    so a used tree would mix another run's artifacts into this one's. The
    Task, and one shot bank per K, are made before `out` is, so a benchmark,
    model or K they refuse leaves nothing behind; so is a source with no
    train example (every strategy pools from it) and a language with no dev
    split whose dev curve picks an epoch: the source's when there is a
    source epoch to pick, as every strategy does, and each target's when
    `ord_fs_dev` has an adapt epoch to pick.
    """
    if jobs < 1:
        raise ContractViolation(f"--jobs must be at least 1, got {jobs}")
    if out.is_dir() and any(out.iterdir()):
        raise ContractViolation(f"output directory {out} is not empty; choose a new --out")
    if out.exists() and not out.is_dir():
        raise ContractViolation(f"--out {out} is a file; choose a new --out")
    task, manifest = build_benchmark(cfg)
    cells = grid_cells(cfg)
    for k in sorted({k for _, k, _ in cells if k > 0}):  # the data decides, whatever the seed
        try:
            build_shot_bank(task.targets, k, cfg["plan"]["shot_mode"], task.spec.num_classes,
                            RngStreams(cfg["grid"]["seeds"][0]))
        except ContractViolation as exc:
            raise ContractViolation(f"grid.ks: {exc}") from None
    if not len(task.source.train):
        raise ContractViolation(f"{task.source.lang_id} train: the source has no example")
    picks = [("source_epochs", task.source)]  # (plan key, language) of each epoch-picking curve
    if "ord_fs_dev" in cfg["grid"]["strategies"]:
        picks += [("adapt_epochs", target) for target in task.targets]
    for key, corpus in picks:
        epochs = cfg["plan"][key]
        if epochs and not len(corpus.dev):
            raise ContractViolation(f"plan.{key}: picking one of {epochs} epochs needs a "
                                    f"dev split, but {corpus.lang_id} has none")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ContractViolation(f"cannot create --out {out}: {exc.strerror}") from None
    write_json(out / "config.json", cfg)
    if manifest is not None:
        write_json(out / "benchmark" / "manifest.json", manifest)

    units = sorted(stage_units(cfg, task, cells), key=len, reverse=True)
    workers = min(jobs, len(units))
    if workers > 1:
        # the module's pool class, imported on first use (`__getattr__`)
        with __getattr__("ProcessPoolExecutor")(max_workers=workers) as pool:
            futures = [(pool.submit(run_unit, cfg, task, unit, out), unit) for unit in units]
            results = []
            for fut, unit in futures:
                try:
                    results.append(fut.result())
                except Exception as exc:  # the worker itself failed
                    results.append(([(cell, None, failure_entry(cell_name(*cell), exc))
                                     for cell in unit], []))
    else:
        results = [run_unit(cfg, task, unit, out) for unit in units]
    outcomes = {cell: (record, failure) for done, _ in results for cell, record, failure in done}
    records = [outcomes[cell][0] for cell in cells if outcomes[cell][0] is not None]
    failures = [outcomes[cell][1] for cell in cells if outcomes[cell][1] is not None]

    referenced = {out / rel for r in records for rel in r["checkpoints"].values()}
    for path in out.glob("models/*.chain"):  # a failed cell's chain, unless a record has it
        if path not in referenced:
            path.unlink()
    aggregate = [entry for _, entry in sorted(  # by group: (strategy, K)
        (pair for _, failed in results for pair in failed), key=lambda pair: pair[0])]
    if records:
        try:
            write_report(records, out)
        except Exception as exc:
            aggregate.insert(0, failure_entry("aggregate", exc))
    failures += aggregate[:1]
    write_manifest(out, failures)
    for f in failures:
        where = f" (at {f['frames'][-1]})" if f["frames"] else ""
        print(f"FAILED {f['cell']}: {f['type']}: {f['error']}{where}", file=sys.stderr)
    return 0 if not failures else 1


def check_against_manifest(out: Path, paths: Iterable[Path]) -> None:
    """Refuse the first of `paths`, files of the run tree `out` taken in
    turn, that `manifest.json` does not list with its sha256; then the first
    file of the tree, `aggregate/` and the manifest itself excepted, that it
    does not list at all (a stray file, such as another run's chain)."""
    where = out / "manifest.json"
    manifest = read_object(read_json(where, "manifest"), str(where), MANIFEST)
    for path in paths:
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as exc:
            raise ContractViolation(f"{path}: {exc.strerror}") from None
        if {"path": str(path.relative_to(out)), "sha256": digest} not in manifest["artifacts"]:
            raise ContractViolation(f"{path}: {where} does not list it with sha256 {digest}")
    listed = {entry.get("path") for entry in manifest["artifacts"]
              if isinstance(entry, dict) and isinstance(entry.get("path"), str)}
    for path in sorted(out.rglob("*")):
        rel = path.relative_to(out)
        if (path.is_file() and rel.parts[0] != "aggregate" and path != where
                and str(rel) not in listed):
            raise ContractViolation(f"{path}: {where} does not list it")


def export_artifacts(out: Path) -> int:
    """Rebuild the aggregate report, the text table, and the similarity CSVs
    from a completed run tree whose config, records and chains are as its
    manifest lists them (`check_against_manifest`), and print the table.
    Every chain a CSV needs is read before any `aggregate/` file is
    written, so a chain `models.load_checkpoint` refuses leaves `aggregate/`
    as it was. A group whose CSV fails raises, after the other groups' CSVs
    are written."""
    config_path = out / "config.json"
    if not config_path.exists():
        raise ContractViolation(f"no config.json under {out}; not a run tree")
    cfg = load_config(config_path)
    rec_paths = [out / "runs" / cell_name(*cell) / "record.json" for cell in grid_cells(cfg)]
    missing = [path.parent.name for path in rec_paths if not path.exists()]
    if missing:
        raise ContractViolation(f"missing run records: {', '.join(missing)}")
    records = [read_json(path, "run record") for path in rec_paths]
    for path, record in zip(rec_paths, records):
        check(record, "a JSON object", str(path))
    # lazily, so each record is checked before the chains it names are read from it
    chains = (out / rel for r in records for rel in r["checkpoints"].values())
    check_against_manifest(out, itertools.chain([config_path], rec_paths, chains))
    task, _ = build_benchmark(cfg)
    for rs in sim_groups(records).values():  # a refused chain leaves aggregate/ as it was
        final_states(rs, out)
    table = write_report(records, out)
    failed = write_sim_matrices(cfg, task, records, out)
    if failed:
        raise failed[0][1]
    print(table)
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
