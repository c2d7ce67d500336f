"""Metrics, cross-run aggregation, gradient-similarity matrices, and
overfitting flags.

The similarity matrix mirrors the heatmap analysis: one gradient per
language at a checkpoint (targets from their own shots, the source from a
sampled-batch average), cosine similarities for every pair, averaged
elementwise across checkpoints. Zero gradients produce an explicit missing
marker (None / empty CSV cell), never a fake 0.

The source average costs most. Classifier batches have equal sizes, so
`models.batch_grads` takes them `SOURCE_STACK` at a time, slice by slice,
with the bits each gets alone (one 2-D matmul summing all stacked rows
would reorder the additions). The stack is bounded because temporaries
grow with it: all 100 batches at once raise `grid-default`'s peak RSS
from 41 to 46 MB. Ragged tagger batches go one at a time. Norms are taken
once per language, not once per pair.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .corpora import LanguageCorpus, Shots, Split
from .models import ModelState, batch_grads, loss_and_grad, write_atomic
from .numcore import ContractViolation, ParamVec, cosine_from_dots, dot
from .numcore import cosine_similarity  # noqa: F401  (traced by name in perfbench/tracing.py)

SOURCE_STACK = 10  # source batches per `batch_grads` call (see the module docstring)


def micro_f1(predictions, gold, outside_label: int) -> float:
    """Token-level micro-averaged F1 over all tags except `outside_label`.

    TP: predicted == gold != outside; FP: prediction is a non-outside tag
    that is wrong; FN: gold is a non-outside tag that was missed. Returns 0
    when precision + recall is 0. Accepts flat label arrays or lists of
    per-sequence arrays. The counts are integer reductions over all tokens
    at once, so the result is the one a loop over tokens gives.
    """
    pred_seqs = predictions if isinstance(predictions, (list, tuple)) else [predictions]
    gold_seqs = gold if isinstance(gold, (list, tuple)) else [gold]
    if len(pred_seqs) != len(gold_seqs):
        raise ContractViolation(
            f"{len(pred_seqs)} prediction sequences vs {len(gold_seqs)} gold"
        )
    preds, golds = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i, (p, g) in enumerate(zip(pred_seqs, gold_seqs)):
        p = np.asarray(p).reshape(-1)
        g = np.asarray(g).reshape(-1)
        if p.shape != g.shape:
            raise ContractViolation(
                f"sequence {i}: {p.shape[0]} predictions vs {g.shape[0]} gold tags"
            )
        preds.append(p)
        golds.append(g)
    p, g = np.concatenate(preds), np.concatenate(golds)
    wrong = p != g
    tagged = g != outside_label
    tp = int(np.count_nonzero(tagged & ~wrong))
    fp = int(np.count_nonzero(wrong & (p != outside_label)))
    fn = int(np.count_nonzero(wrong & tagged))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def language_gradient(
    model: ModelState,
    data: Union[LanguageCorpus, Split],
    role: str,
    rng: Optional[np.random.Generator] = None,
    batch_size: int = 32,
    n_batches: int = 100,
) -> ParamVec:
    """A language's gradient at a checkpoint.

    source: mean gradient over `n_batches` uniformly sampled train batches
    (requires `rng`), added up in draw order. target: full-batch gradient
    over its oracle/shot examples, passed as a Split, in their split order.
    """
    if role == "source":
        if not isinstance(data, LanguageCorpus):
            raise ContractViolation("source gradient needs a LanguageCorpus")
        n = len(data.train)
        if n == 0:
            raise ContractViolation(f"{data.lang_id} has no training data")
        if rng is None:
            raise ContractViolation("source gradient sampling needs an rng")
        size = min(batch_size, n)
        acc = np.zeros(model.theta.dim)
        for start in range(0, n_batches, SOURCE_STACK):
            keys = np.sort([rng.choice(n, size=size, replace=False)
                            for _ in range(min(SOURCE_STACK, n_batches - start))])
            if data.train.offsets is None:
                grads = batch_grads(model, data.train, keys)
            else:  # ragged token batches: one at a time
                grads = [loss_and_grad(model, data.train.take(k)).grad.values for k in keys]
            for grad in grads:
                acc += grad
        return ParamVec(acc / n_batches)
    if role == "target":
        if len(data) == 0:
            raise ContractViolation("target gradient needs at least one example")
        return loss_and_grad(model, data).grad
    raise ContractViolation(f"unknown role {role!r}")


@dataclass(frozen=True)
class SimMatrix:
    """Symmetric language-by-language cosine-similarity matrix with explicit
    missing markers (None) where a gradient had zero norm."""

    lang_ids: Tuple[str, ...]
    values: Tuple[Tuple[Optional[float], ...], ...]

    def __post_init__(self) -> None:
        n = len(self.lang_ids)
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ContractViolation("similarity matrix must be square over lang_ids")
        for i in range(n):
            for j in range(n):
                if self.values[i][j] != self.values[j][i]:
                    raise ContractViolation("similarity matrix must be symmetric")

    def value(self, a: str, b: str) -> Optional[float]:
        i = self.lang_ids.index(a)
        j = self.lang_ids.index(b)
        return self.values[i][j]


def similarity_matrix(
    checkpoints: Sequence[ModelState],
    corpora: Sequence[LanguageCorpus],
    shots: Shots,
    rng: np.random.Generator,
    batch_size: int = 32,
    n_source_batches: int = 100,
) -> SimMatrix:
    """Pairwise gradient similarities for every language, averaged
    elementwise over the given checkpoints (e.g. the final checkpoints of
    the seeded runs). An entry is missing if it was missing at any
    checkpoint. Each unordered pair is computed once and mirrored, so the
    matrix is bitwise symmetric."""
    if not checkpoints:
        raise ContractViolation("need at least one checkpoint")
    langs = [c.lang_id for c in corpora]
    n = len(langs)
    sums = [[0.0] * n for _ in range(n)]
    missing = [[False] * n for _ in range(n)]
    shot_data = {
        c.lang_id: c.train.take(shots[c.lang_id]) for c in corpora if c.role != "source"
    }
    for model in checkpoints:
        grads: List[ParamVec] = []
        for c in corpora:
            if c.role == "source":
                g = language_gradient(
                    model, c, "source", rng=rng, batch_size=batch_size,
                    n_batches=n_source_batches,
                )
            else:
                g = language_gradient(model, shot_data[c.lang_id], "target")
            grads.append(g)
        sq = [dot(g, g) for g in grads]
        for i in range(n):
            if sq[i] == 0.0:
                missing[i][i] = True
            else:
                sums[i][i] += 1.0
            for j in range(i + 1, n):
                c = cosine_from_dots(grads[i], grads[j], sq[i], dot(grads[i], grads[j]), sq[j])
                if c is None:
                    missing[i][j] = missing[j][i] = True
                else:
                    sums[i][j] += c
                    sums[j][i] = sums[i][j]
    m = len(checkpoints)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(None if missing[i][j] else sums[i][j] / m)
        rows.append(tuple(row))
    return SimMatrix(lang_ids=tuple(langs), values=tuple(rows))


def conflict_fraction(m: SimMatrix) -> float:
    """Share of present off-diagonal pairs whose similarity is strictly
    negative. A one-language matrix has no pairs and is an error."""
    present = 0
    negative = 0
    n = len(m.lang_ids)
    for i in range(n):
        for j in range(i + 1, n):
            v = m.values[i][j]
            if v is None:
                continue
            present += 1
            if v < 0.0:
                negative += 1
    if present == 0:
        raise ContractViolation("no off-diagonal similarities present")
    return negative / present


def write_sim_matrix_csv(m: SimMatrix, path: Union[str, Path]) -> None:
    lines = ["lang," + ",".join(m.lang_ids)]
    for lang, row in zip(m.lang_ids, m.values):
        cells = ["" if v is None else repr(float(v)) for v in row]
        lines.append(lang + "," + ",".join(cells))
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


# --- aggregation ----------------------------------------------------------------


def _mean_sd(values: Sequence[float]) -> Tuple[float, float]:
    mean = statistics.fmean(values)
    sd = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, sd


def aggregate_runs(records: Sequence[dict]) -> dict:
    """Mean and sample standard deviation per (strategy, k, language) over
    seeds, plus the macro average over target languages (source excluded)."""
    if not records:
        raise ContractViolation("no records to aggregate")
    cells: Dict[Tuple[str, int], List[dict]] = {}
    for r in records:
        cells.setdefault((r["strategy"], r["k"]), []).append(r)
    grid = []
    for (strategy, k), rs in sorted(cells.items()):
        rs = sorted(rs, key=lambda r: r["seed"])
        source_lang = rs[0]["source_lang"]
        target_langs = [l for l in rs[0]["languages"] if l != source_lang]
        languages = {}
        for lang in rs[0]["languages"]:
            vals = [r["test_metrics"][lang] for r in rs if lang in r["test_metrics"]]
            if not vals:
                continue
            mean, sd = _mean_sd(vals)
            languages[lang] = {"mean": mean, "sd": sd, "n": len(vals)}
        macros = [r["macro_target_test"] for r in rs if r["macro_target_test"] is not None]
        macro_mean, macro_sd = _mean_sd(macros) if macros else (None, None)
        grid.append(
            {
                "strategy": strategy,
                "k": k,
                "seeds": [r["seed"] for r in rs],
                "single_seed": len(rs) == 1,
                "languages": languages,
                "target_langs": target_langs,
                "macro": {"mean": macro_mean, "sd": macro_sd, "n": len(macros)},
            }
        )
    return {"format_version": 1, "grid": grid}


def argmax_earliest(curve: Sequence[float]) -> int:
    """1-based index of the max, earliest epoch on ties."""
    best_epoch = 1
    best = curve[0]
    for i, v in enumerate(curve[1:], start=2):
        if v > best:
            best = v
            best_epoch = i
    return best_epoch


def overfit_flags(record: dict) -> Dict[str, bool]:
    """True for each target language whose dev curve peaks at epoch 1
    (earliest epoch wins ties), the signature of immediate overfitting."""
    flags = {}
    source = record["source_lang"]
    for lang, curve in record["dev_curves"].items():
        if lang == source or not curve:
            continue
        flags[lang] = argmax_earliest(curve) == 1
    return flags

