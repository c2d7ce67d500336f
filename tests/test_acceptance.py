"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v`.

The strategy-comparison criteria run on the shipped benchmark with the
shipped experiment settings (configs/default.json); the gradient-conflict
criterion additionally uses the longer analysis horizon documented below,
where both mixed-training variants have fully engaged the cross-language
tension (at the 10-epoch experiment setting the baseline's similarity
matrix has no negative entries at all, which would make the comparison
vacuous).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gradmix.analysis import (
    aggregate_runs,
    argmax_earliest,
    conflict_fraction,
    micro_f1,
    overfit_flags,
    similarity_matrix,
)
from gradmix.corpora import (
    LanguageCorpus,
    Split,
    build_shot_bank,
    default_benchmark,
)
from gradmix.models import (
    ModelSpec,
    ModelState,
    loss_and_grad,
)
from gradmix.numcore import RngStreams, dot, frozen
from gradmix.trainer import Task, TrainPlan, prefill, run_strategy
from gradmix.cli import load_config, run_experiment

from oracles import (decide_one, distant_lang_ids, finite_diff_grad, norm, record_steps,
                     to_arrays)

# Shipped experiment settings (mirrors configs/default.json).
SHIPPED_PLAN = dict(
    lr=0.5, alpha=0.6, source_epochs=10, adapt_epochs=10, batch_size=32,
    shot_mode="n_way_k_shot",
)
SHIPPED_SEEDS = (1, 2, 3, 4, 5)
SHIPPED_K = 5
SHIPPED_HIDDEN = 64
# Gradient-conflict analysis horizon (Fig.-2 analog): longer training and
# always-on surgery, the regime where per-language tension is measurable.
ANALYSIS_EPOCHS = 30
ANALYSIS_ALPHA = 1.0
ANALYSIS_BANK_SEED = 0
ANALYSIS_RNG_SEED = 0


def shipped_task():
    corpora, manifest = default_benchmark()
    spec = ModelSpec("softmax_classifier", input_dim=2, hidden_dim=SHIPPED_HIDDEN,
                     num_classes=3)
    return Task.from_corpora(spec, corpora), manifest


def make_plan(strategy, seed, **overrides):
    kwargs = dict(SHIPPED_PLAN)
    kwargs.update(overrides)
    return TrainPlan(
        strategy=strategy, seed=seed, k=0 if strategy == "zero_shot" else SHIPPED_K,
        **kwargs,
    )


@pytest.fixture(scope="module")
def benchmark_runs():
    """All strategy runs used by the ordering and conflict criteria. As in
    `cli.run_unit`, a stages dict serves column after column (a strategy
    over the seeds), whose stages `prefill` trains in lockstep; here one
    dict serves every column, and each run is bitwise the run alone."""
    t0 = time.monotonic()
    task, manifest = shipped_task()
    stages = {}

    def column(strategy, **overrides):
        plans = [make_plan(strategy, seed, **overrides) for seed in SHIPPED_SEEDS]
        prefill(plans, task, stages)
        return [run_strategy(plan, task, stages=stages) for plan in plans]

    runs = {}
    for strategy in ("zero_shot", "ord_fs", "naive_mix_train", "gradient_mix_train"):
        for seed, res in zip(SHIPPED_SEEDS, column(strategy)):
            runs[(strategy, seed)] = res
    analysis_finals = {
        strategy: [res.checkpoints["model"].state(-1) for res in column(
            strategy, source_epochs=ANALYSIS_EPOCHS, alpha=ANALYSIS_ALPHA)]
        for strategy in ("naive_mix_train", "gradient_mix_train")}
    elapsed = time.monotonic() - t0
    return task, manifest, runs, analysis_finals, elapsed


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def test_ac1_gradient_correctness():
    t0 = time.monotonic()
    specs = [
        ModelSpec("softmax_classifier", 4, 0, 3),
        ModelSpec("softmax_classifier", 4, 6, 3),
        ModelSpec("mlp_token_tagger", 3, 5, 4),
    ]
    worst = 0.0
    for spec in specs:
        for trial in range(20):
            rng = np.random.default_rng(1000 + 31 * trial + spec.param_dim)
            theta = rng.normal(scale=0.7, size=spec.param_dim)
            state = ModelState(spec=spec, theta=theta)
            examples = []
            for _ in range(6):
                if spec.family == "softmax_classifier":
                    examples.append(
                        (rng.normal(size=spec.input_dim), int(rng.integers(spec.num_classes)))
                    )
                else:
                    L = int(rng.integers(1, 5))
                    examples.append(
                        (rng.normal(size=(L, spec.input_dim)),
                         rng.integers(spec.num_classes, size=L))
                    )
            batch = Split(*to_arrays(examples))
            analytic = loss_and_grad(state, batch).grad

            def loss_fn(t, _spec=spec, _batch=batch):
                return loss_and_grad(ModelState(spec=_spec, theta=t), _batch).loss

            fd = finite_diff_grad(loss_fn, theta)
            rel = np.linalg.norm(analytic - fd) / max(
                np.linalg.norm(analytic), 1e-12
            )
            worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    report(
        "AC1 gradient correctness",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_ac2_surgery_kernel_properties():
    failures = []
    for dim in (2, 10, 1000):
        rng = np.random.default_rng(31337 + dim)
        for _ in range(1000):
            g_s = frozen(rng.normal(size=dim))
            g_t = frozen(rng.normal(size=dim))
            out, entry = decide_one(g_s, g_t)
            if entry.conflicted:
                if abs(dot(out, g_t)) > 1e-9 * norm(g_s) * norm(g_t):
                    failures.append(f"orthogonality dim {dim}")
                again, _ = decide_one(out, g_t)
                if norm((again - out) + 0.0) > 1e-12 * max(
                    norm(g_s), 1.0
                ) and not np.array_equal(again, out):
                    failures.append(f"idempotence dim {dim}")
                if norm(out) > norm(g_s):
                    failures.append(f"norm contraction dim {dim}")
            else:
                if out is not g_s:
                    failures.append(f"no-op dim {dim}")
    report("AC2 surgery kernel properties", not failures, "; ".join(failures[:3]))


def test_ac3_trajectory_equivalence(monkeypatch):
    task, _ = shipped_task()
    bad = []

    def trajectory(plan, task):
        """The parameters every training step starts from, then the model."""
        with monkeypatch.context() as m:
            steps = record_steps(m)
            result = run_strategy(plan, task)
        return steps + [result.checkpoints["model"].states[-1].tobytes()]

    for seed in (1, 2, 3):
        trajs = {}
        for strategy, alpha in (("naive_mix_train", 0.6), ("gradient_mix_train", 0.0)):
            trajs[strategy] = trajectory(
                make_plan(strategy, seed, source_epochs=3, alpha=alpha), task)
        if trajs["naive_mix_train"] != trajs["gradient_mix_train"]:
            bad.append(f"alpha0 seed {seed}")
    # naive with zero targets == source-only training
    no_targets = Task(task.spec, task.source, ())
    for seed in (1, 2, 3):
        a = trajectory(make_plan("naive_mix_train", seed, source_epochs=3), no_targets)
        b = trajectory(make_plan("zero_shot", seed, source_epochs=3), task)
        if a != b:
            bad.append(f"zero-target seed {seed}")
    report("AC3 trajectory equivalence", not bad, "; ".join(bad))


def test_ac4_sampler_exactness():
    from gradmix.corpora import sample_k_shots, sample_n_way_k_shot

    bad = []
    rng = np.random.default_rng(77)
    for trial in range(30):
        num_classes = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        counts = rng.integers(k, k + 10, size=num_classes)
        X = np.concatenate([rng.normal(size=(int(n), 2)) for n in counts])
        corpus = LanguageCorpus(
            lang_id=f"l{trial}", script_tag="x", role="target",
            train=Split(X, np.repeat(np.arange(num_classes), counts)),
        )
        picked = sample_n_way_k_shot(corpus, k, num_classes, RngStreams(trial))
        hist = np.zeros(num_classes, dtype=int)
        for i in picked:
            hist[int(corpus.train.y[i])] += 1
        if not np.all(hist == k) or len(set(picked)) != len(picked):
            bad.append(f"n-way trial {trial}")
        plain = sample_k_shots(corpus, min(5, len(corpus.train)), RngStreams(trial))
        if len(set(plain)) != len(plain):
            bad.append(f"plain trial {trial}")
    # identical master seed -> identical banks across strategies
    task, _ = shipped_task()
    banks = []
    for strategy in ("ord_fs", "mix_ft", "naive_mix_train", "gradient_mix_train"):
        rec = run_strategy(make_plan(strategy, 9, source_epochs=1, adapt_epochs=1), task)
        banks.append(rec.record["shot_indices"])
    if not all(b == banks[0] for b in banks):
        bad.append("banks differ across strategies")
    report("AC4 sampler exactness", not bad, "; ".join(bad))


def _mean_macro(runs, strategy, langs):
    vals = []
    for seed in SHIPPED_SEEDS:
        tm = runs[(strategy, seed)].record["test_metrics"]
        vals.append(np.mean([tm[l] for l in langs]))
    return float(np.mean(vals))


def test_ac5_qualitative_ordering(benchmark_runs):
    task, manifest, runs, _, elapsed = benchmark_runs
    targets = [c.lang_id for c in task.targets]
    distant = list(distant_lang_ids(manifest))
    src_zero = float(np.mean(
        [runs[("zero_shot", s)].record["test_metrics"]["src"] for s in SHIPPED_SEEDS]
    ))
    far_zero = _mean_macro(runs, "zero_shot", distant)
    gap_points = 100 * (src_zero - far_zero)

    grad_macro = _mean_macro(runs, "gradient_mix_train", targets)
    naive_macro = _mean_macro(runs, "naive_mix_train", targets)
    ordfs_macro = _mean_macro(runs, "ord_fs", targets)
    grad_far = _mean_macro(runs, "gradient_mix_train", distant)
    ordfs_far = _mean_macro(runs, "ord_fs", distant)

    checks = {
        "zero-shot distant gap in [10,30]": 10.0 <= gap_points <= 30.0,
        "gradient >= naive (target macro)": grad_macro >= naive_macro,
        "naive >= ord_fs (target macro)": naive_macro >= ordfs_macro,
        "gradient - ord_fs >= 2 pts on distant": 100 * (grad_far - ordfs_far) >= 2.0,
        "runtime < 10 min": elapsed < 600.0,
    }
    detail = (
        f"gap={gap_points:.1f} grad={100*grad_macro:.1f} naive={100*naive_macro:.1f} "
        f"ord_fs={100*ordfs_macro:.1f} grad_far={100*grad_far:.1f} "
        f"ordfs_far={100*ordfs_far:.1f} elapsed={elapsed:.0f}s"
    )
    report("AC5 qualitative ordering", all(checks.values()),
           detail + " | failed: " + ", ".join(k for k, v in checks.items() if not v))


def test_ac6_conflict_fraction_reduction(benchmark_runs):
    task, _, _, analysis_finals, _ = benchmark_runs
    corpora = [task.source] + list(task.targets)
    bank = build_shot_bank(task.targets, SHIPPED_K, SHIPPED_PLAN["shot_mode"],
                           task.spec.num_classes, RngStreams(ANALYSIS_BANK_SEED))
    fracs = {}
    for strategy, finals in analysis_finals.items():
        rng = np.random.default_rng(np.random.SeedSequence(ANALYSIS_RNG_SEED))
        m = similarity_matrix(finals, corpora, bank, rng,
                              batch_size=SHIPPED_PLAN["batch_size"])
        fracs[strategy] = conflict_fraction(m)
    ok = fracs["gradient_mix_train"] < fracs["naive_mix_train"]
    report(
        "AC6 conflict fraction reduction",
        ok,
        f"naive={fracs['naive_mix_train']:.3f} gradient={fracs['gradient_mix_train']:.3f}",
    )


def test_ac7_overfitting_flags():
    task, _ = shipped_task()
    res_ofs = run_strategy(make_plan("ord_fs", 1, adapt_epochs=60), task)
    flags_ofs = overfit_flags(res_ofs.record)
    res_gmt = run_strategy(make_plan("gradient_mix_train", 1, source_epochs=60), task)
    rec = res_gmt.record  # source-dev selection: one epoch, the source dev curve's best
    assert set(rec["selected_epochs"].values()) == {
        argmax_earliest(rec["dev_curves"][rec["source_lang"]])}
    flags_gmt = overfit_flags(res_gmt.record)
    ok = any(flags_ofs.values()) and not any(flags_gmt.values())
    report(
        "AC7 overfitting flags",
        ok,
        f"ord_fs flagged={sorted(l for l, f in flags_ofs.items() if f)} "
        f"gradient flagged={sorted(l for l, f in flags_gmt.items() if f)}",
    )


def test_ac8_determinism(tmp_path):
    config_path = Path(__file__).resolve().parents[1] / "configs" / "quick.json"
    cfg = load_config(config_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = run_experiment(cfg, out1)
    rc2 = run_experiment(cfg, out2)
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    ok = rc1 == 0 and rc2 == 0 and m1["artifacts"] == m2["artifacts"]
    n = len(m1["artifacts"])
    report("AC8 determinism", ok, f"{n} artifacts hash-identical across reruns")


def test_ac9_metric_units():
    checks = {}
    gold = np.array([1, 1, 0, 2])
    pred = np.array([1, 1, 2, 0])
    checks["micro_f1 2/3"] = abs(micro_f1(pred, gold, outside_label=0) - 2 / 3) < 1e-15
    rng = np.random.default_rng(5)
    accs_ok = True
    for _ in range(50):
        g = rng.integers(0, 3, size=30)
        p = rng.integers(0, 3, size=30)
        f1 = micro_f1(p, g, outside_label=0)
        accs_ok &= 0.0 <= f1 <= 1.0
    checks["micro_f1 bounded"] = accs_ok

    def rec(seed, value):
        return {
            "strategy": "ord_fs", "k": 5, "seed": seed, "source_lang": "s",
            "languages": ["s", "t"], "test_metrics": {"s": 0.9, "t": value},
            "macro_target_test": value, "dev_curves": {}, "epochs": 0,
        }

    cell = aggregate_runs([rec(1, 1.0), rec(2, 2.0), rec(3, 3.0)])["grid"][0]
    checks["aggregate mean 2"] = cell["languages"]["t"]["mean"] == 2.0
    checks["aggregate sd 1"] = cell["languages"]["t"]["sd"] == 1.0
    report("AC9 metric units", all(checks.values()),
           ", ".join(k for k, v in checks.items() if not v))
