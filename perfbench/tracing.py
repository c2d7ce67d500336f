"""Span tracing of one `gradmix run`, from outside the program.

Run as the child process's entry point in place of `python -m gradmix.cli`:

    python3 tracing.py <spans.npz> run --config ... --out ... --jobs N

It wraps public gradmix functions at the module attributes where their
callers look them up (so `trainer.loss_and_grad` and
`surgery.loss_and_grad` are separate call sites of the same function), runs
the CLI, and writes the spans it kept in memory when the run ends. A span
records its name, start, end, parent span and grid cell. Pool workers forked
by `--jobs N` inherit the wrappers but record nothing: only the parent
process is traced.

`layer_metrics` turns a spans file into the benchmark's per-layer metrics;
it runs in the benchmark process and needs only numpy.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Optional

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.on = True
        self.names: list = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self.stack: list = []
        self.cell_id = -1
        self.n_cells = 0
        self.counters: Dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.cell.append(self.cell_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, module, attr: str, name: str,
             count: Optional[Callable] = None, cell: bool = False) -> None:
        """Replace module.attr by a span-recording wrapper. `count(counters,
        args, result)` runs after the span closes; `cell` marks a span that
        runs one grid cell."""
        fn = getattr(module, attr)
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if cell:
                tracer.cell_id = tracer.n_cells
                tracer.n_cells += 1
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if cell:
                    tracer.cell_id = -1
            if count is not None:
                count(tracer.counters, args, result)
            return result

        setattr(module, attr, traced)

    def save(self, path: str) -> None:
        counters = sorted(self.counters.items())
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            cell=np.frombuffer(self.cell, dtype=np.int32),
            counter_names=np.array([k for k, _ in counters], dtype=str),
            counter_values=np.array([v for _, v in counters], dtype=np.int64),
        )


def _rows(counters, args, result) -> None:
    state, batch = args[0], args[1]
    if state.spec.family == "softmax_classifier":
        counters["models.loss_and_grad.rows"] += len(batch)
    else:
        counters["models.loss_and_grad.rows"] += sum(len(x) for x in batch.xs)


def _examples(counters, args, result) -> None:
    counters["trainer.evaluate.examples"] += len(args[1].split(args[2]))


def _checkpoint_bytes(counters, args, result) -> None:
    counters["models.save_checkpoint.bytes"] += os.path.getsize(args[1])


def _surgery_outcome(counters, args, result) -> None:
    entry = result[1]
    counters["surgery.steps"] += 1
    counters["surgery.conflicted"] += int(entry.conflicted)
    counters["surgery.applied"] += int(entry.applied)


def install(tracer: Tracer) -> None:
    """Wrap every traced gradmix entry point."""
    from gradmix import analysis, cli, models, numcore, surgery, trainer

    w = tracer.wrap
    w(cli, "run_experiment", "cli.run_experiment")
    w(cli, "build_benchmark", "cli.build_benchmark")
    w(cli, "ingest_tsv", "corpora.ingest_tsv")
    w(cli, "run_cell", "cli.run_cell", cell=True)
    w(cli, "run_strategy", "trainer.run_strategy")
    w(cli, "save_checkpoint", "models.save_checkpoint", count=_checkpoint_bytes)
    w(cli, "write_sim_matrices", "cli.write_sim_matrices")
    w(cli, "write_manifest", "cli.write_manifest")
    w(analysis, "aggregate_runs", "analysis.aggregate_runs")
    w(analysis, "similarity_matrix", "analysis.similarity_matrix")
    w(analysis, "language_gradient", "analysis.language_gradient")
    w(analysis, "micro_f1", "analysis.micro_f1")
    w(analysis, "loss_and_grad", "models.loss_and_grad[analysis]", count=_rows)
    w(analysis, "cosine_similarity", "numcore.cosine_similarity[analysis]")
    w(models, "load_checkpoint", "models.load_checkpoint")
    w(trainer, "evaluate", "trainer.evaluate", count=_examples)
    w(trainer, "predict", "models.predict")
    w(trainer, "loss_and_grad", "models.loss_and_grad[train]", count=_rows)
    w(trainer, "batch_iter", "corpora.batch_iter")
    w(trainer, "sgd_step", "models.sgd_step")
    w(trainer, "sgs_step", "surgery.sgs_step", count=_surgery_outcome)
    for phase in ("run_source_training", "run_target_adapting", "run_mixed_training"):
        w(trainer, phase, "trainer.train")
    w(surgery, "oracle_gradient", "surgery.oracle_gradient")
    w(surgery, "loss_and_grad", "models.loss_and_grad[oracle]", count=_rows)
    w(surgery, "dot", "numcore.dot[surgery]")
    w(surgery, "cosine_similarity", "numcore.cosine_similarity[surgery]")
    w(numcore, "dot", "numcore.dot")

    pool_nid = tracer.name_id("cli.pool")

    class TracedPool(cli.ProcessPoolExecutor):
        """The pool's lifetime in the parent: submit, wait, shut down."""

        def __enter__(self):
            self._span = tracer.open(pool_nid) if tracer.on else None
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                if self._span is not None:
                    tracer.close(self._span)

    cli.ProcessPoolExecutor = TracedPool


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "on", False))
    from gradmix import cli

    code = cli.main(cli_args)
    tracer.on = False
    tracer.save(spans_path)
    return code


# --- analysis (benchmark side) ---------------------------------------------------


def base_name(name: str) -> str:
    """Span name without its call-site suffix: "models.loss_and_grad[oracle]"
    -> "models.loss_and_grad"."""
    return name.split("[", 1)[0]


def span_table(spans) -> Dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds (duration
    minus the time covered by child spans) and the list of durations."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    table = {}
    for nid, name in enumerate(spans["names"].tolist()):
        mask = spans["name"] == nid
        table[name] = {
            "calls": int(mask.sum()),
            "s": float(dur[mask].sum()),
            "self_s": float(self_s[mask].sum()),
            "durations": dur[mask],
        }
    return table


def load_spans(path: str) -> Dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as f:
        return {k: f[k] for k in f.files}


def layer_metrics(spans: Dict[str, np.ndarray]) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json that come from spans."""
    table = span_table(spans)
    counters = dict(zip(spans["counter_names"].tolist(), spans["counter_values"].tolist()))
    merged: Dict[str, dict] = {}
    for name, row in table.items():
        m = merged.setdefault(base_name(name), {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                "durations": []})
        m["calls"] += row["calls"]
        m["s"] += row["s"]
        m["self_s"] += row["self_s"]
        m["durations"].append(row["durations"])

    # Every traced name is registered when it is wrapped, so each is present
    # here, with 0 calls if the run never reached it.
    def get(name, key):
        return merged[name][key]

    def pct(name, q):
        durs = np.concatenate(merged[name]["durations"])
        return float(np.percentile(durs, q)) if durs.size else 0.0

    out: Dict[str, float] = {}
    for name in ("trainer.evaluate", "models.predict", "models.save_checkpoint",
                 "models.load_checkpoint", "models.loss_and_grad", "corpora.batch_iter",
                 "models.sgd_step", "surgery.sgs_step", "numcore.dot", "analysis.micro_f1"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    out["trainer.evaluate.examples"] = counters.get("trainer.evaluate.examples", 0)
    out["models.save_checkpoint.bytes"] = counters.get("models.save_checkpoint.bytes", 0)
    out["models.loss_and_grad.rows"] = counters.get("models.loss_and_grad.rows", 0)
    out["trainer.train.s"] = get("trainer.train", "s")
    out["surgery.oracle_gradient.calls"] = get("surgery.oracle_gradient", "calls")
    out["surgery.oracle_gradient.s"] = get("surgery.oracle_gradient", "s")
    out["numcore.cosine_similarity.calls"] = get("numcore.cosine_similarity", "calls")
    steps = counters.get("surgery.steps", 0)
    applied = counters.get("surgery.applied", 0)
    oracles = out["surgery.oracle_gradient.calls"]
    out["surgery.conflict_ratio"] = counters.get("surgery.conflicted", 0) / steps if steps else 0.0
    out["surgery.applied_ratio"] = applied / steps if steps else 0.0
    out["surgery.oracle_use_ratio"] = applied / oracles if oracles else 0.0
    out["corpora.ingest_tsv.s"] = get("corpora.ingest_tsv", "s")
    # Building the Task outside TSV ingest, which has its own metric.
    out["corpora.build.s"] = get("cli.build_benchmark", "self_s")
    out["analysis.similarity_matrix.s"] = get("analysis.similarity_matrix", "s")
    out["analysis.language_gradient.calls"] = get("analysis.language_gradient", "calls")
    out["analysis.aggregate_runs.s"] = get("analysis.aggregate_runs", "s")
    out["cli.write_sim_matrices.s"] = get("cli.write_sim_matrices", "s")
    out["cli.write_manifest.s"] = get("cli.write_manifest", "s")
    out["cli.run_cell.s_p50"] = pct("cli.run_cell", 50)
    out["cli.run_cell.s_p90"] = pct("cli.run_cell", 90)
    out["cli.run_cell.self_s"] = get("cli.run_cell", "self_s")
    out["trainer.run_strategy.s_p50"] = pct("trainer.run_strategy", 50)
    out["trainer.run_strategy.s_p90"] = pct("trainer.run_strategy", 90)
    out["cli.pool_wait_s"] = get("cli.pool", "s")

    # Serial tail: from the end of the cell phase (last top-level cell, or
    # the pool's shutdown) to the end of the run.
    names = spans["names"].tolist()
    run = spans["name"] == names.index("cli.run_experiment")
    run_end = float(spans["end"][run].max())
    cell_phase = np.isin(spans["name"], [names.index("cli.run_cell"), names.index("cli.pool")])
    cell_end = float(spans["end"][cell_phase].max()) if cell_phase.any() else run_end
    out["cli.serial_tail_s"] = run_end - cell_end
    return out


def layer_shares(spans: Dict[str, np.ndarray]) -> Dict[str, float]:
    """Inclusive time of each span name as a share of the run's time."""
    table = span_table(spans)
    total = table["cli.run_experiment"]["s"]
    return {name: row["s"] / total for name, row in sorted(table.items()) if total}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
