"""The benchmark's workloads: each one is a config (plus, for the tagger,
its TSV corpora) generated from the workload seed and handed to
`gradmix run` as a fresh process.

Every workload names the layers it stresses in `why`; the same text is in
BENCHMARK.json. Inputs depend only on (workload, seed), so the same seed
gives byte-identical files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

# The seed for which a workload's config is the shipped one (for
# grid-default: configs/default.json) and for which reference hashes of
# report.json and the similarity CSVs are recorded.
DEFAULT_SEED = 1

DEFAULT_PLAN = {
    "alpha": 0.6,
    "source_epochs": 10,
    "adapt_epochs": 10,
    "batch_size": 32,
    "adapt_batch_size": None,
    "lr": 0.5,
    "shot_mode": "n_way_k_shot",
}
ALL_STRATEGIES = [
    "zero_shot", "ord_fs", "ord_fs_dev", "mix_ft", "naive_mix_train", "gradient_mix_train",
]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: int
    # Number of grid seeds; the DEFAULT_SEED run uses 1..n_grid_seeds.
    n_grid_seeds: int
    # Workload whose manifest this one must reproduce (the --jobs contract).
    same_manifest_as: str = ""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "grid-default",
            "The paper's full table at --jobs 1 (6 strategies, K in 1/5/10, 5 seeds, 80 cells): "
            "evaluate, checkpoint writes and similarity matrices dominate.",
            jobs=1, n_grid_seeds=5,
        ),
        Workload(
            "grid-default-j2",
            "The same grid at --jobs 2: the only workload through the cli process pool and "
            "per-cell benchmark rebuild; the serial tail is a larger share of wall time.",
            jobs=2, n_grid_seeds=5, same_manifest_as="grid-default",
        ),
        Workload(
            "surgery-long",
            "gradient_mix_train only, alpha 1, K=10 n-way, batch 8, 30 source epochs: "
            "surgery steps, dot and loss_and_grad dominate; few checkpoints.",
            jobs=1, n_grid_seeds=3,
        ),
        Workload(
            "tagger-tsv",
            "mlp_token_tagger on seeded token-tag TSV corpora (1 source, 4 targets): "
            "the only workload through TSV ingest, tagger predict and micro_f1.",
            jobs=1, n_grid_seeds=3,
        ),
    )
}


def grid_seeds(seed: int, n: int) -> List[int]:
    """The training seeds of a grid: 1..n for the default seed, otherwise n
    distinct seeds drawn from the workload seed."""
    if seed == DEFAULT_SEED:
        return list(range(1, n + 1))
    return sorted(random.Random(f"grid-seeds:{seed}").sample(range(1, 1_000_000), n))


def _config(strategies, ks, seeds, plan, benchmark=None, model=None, source_batches=100):
    return {
        "format_version": 1,
        "benchmark": benchmark or {"kind": "default"},
        "model": model or {"family": "softmax_classifier", "hidden_dim": 64},
        "grid": {"strategies": list(strategies), "ks": list(ks), "seeds": list(seeds)},
        "plan": plan,
        "analysis": {"seed": 0, "source_batches": source_batches},
    }


# --- tagger corpora -------------------------------------------------------------

TAGGER_DIM = 6
TAGGER_TAGS = 5  # tag 0 is the outside label
TAGGER_OUTSIDE_SHARE = 0.6
# (lang_id, role, rotation in degrees, translation of the first two dims)
TAGGER_LANGS = (
    ("src", "source", 0.0, (0.0, 0.0)),
    ("tg-a", "target", 10.0, (0.3, 0.0)),
    ("tg-b", "target", 10.0, (0.0, 0.3)),
    ("tg-c", "target", 25.0, (1.0, 0.6)),
    ("tg-d", "target", 25.0, (1.4, 1.0)),
)
# Sequences per split. Lengths come in pairs summing to TAGGER_PAIR_LEN, so
# every seed yields the same token count per split and hence the same work.
TAGGER_SEQS = {"source": {"train": 240, "dev": 50, "test": 50},
               "target": {"train": 60, "dev": 50, "test": 50}}
TAGGER_PAIR_LEN = 20
TAGGER_MIN_LEN = 3


def _tagger_split_text(rnd: random.Random, means, angle: float, shift, n_seqs: int) -> str:
    lengths = []
    for _ in range(n_seqs // 2):
        a = rnd.randint(TAGGER_MIN_LEN, TAGGER_PAIR_LEN - TAGGER_MIN_LEN)
        lengths += [a, TAGGER_PAIR_LEN - a]
    rnd.shuffle(lengths)
    c, s = math.cos(math.radians(angle)), math.sin(math.radians(angle))
    lines = []
    for n_tok in lengths:
        for _ in range(n_tok):
            if rnd.random() < TAGGER_OUTSIDE_SHARE:
                tag = 0
            else:
                tag = rnd.randrange(1, TAGGER_TAGS)
            x = [m + rnd.gauss(0.0, 1.0) for m in means[tag]]
            x[0], x[1] = c * x[0] - s * x[1] + shift[0], s * x[0] + c * x[1] + shift[1]
            lines.append("\t".join(f"{v:.6f}" for v in x) + f"\t{tag}")
        lines.append("")
    return "\n".join(lines) + "\n"


def write_tagger_corpora(seed: int, work_dir: Path) -> List[dict]:
    """Write train/dev/test TSV files for every tagger language under
    `work_dir/corpora`; returns the config's `languages` block, whose paths are
    relative to `work_dir`. Byte-deterministic in `seed`."""
    rnd = random.Random(f"tagger-tsv:{seed}")
    means = [[rnd.uniform(-2.0, 2.0) for _ in range(TAGGER_DIM)] for _ in range(TAGGER_TAGS)]
    (work_dir / "corpora").mkdir(parents=True, exist_ok=True)
    languages = []
    for lang_id, role, angle, shift in TAGGER_LANGS:
        splits = {}
        for split, n_seqs in TAGGER_SEQS[role].items():
            name = f"corpora/{lang_id}.{split}.tsv"
            (work_dir / name).write_bytes(
                _tagger_split_text(rnd, means, angle, shift, n_seqs).encode("utf-8")
            )
            splits[split] = name
        languages.append({"lang_id": lang_id, "role": role,
                          "script_tag": f"scr-{int(angle)}", "splits": splits})
    return languages


# --- configs --------------------------------------------------------------------


def make_config(workload: str, seed: int, work_dir: Path) -> dict:
    """The config document for one workload and seed. Auxiliary inputs (the
    tagger's TSV files) are written under `work_dir`, and the config names
    them relative to it, so `gradmix run` must start in `work_dir`."""
    w = WORKLOADS[workload]
    seeds = grid_seeds(seed, w.n_grid_seeds)
    if workload in ("grid-default", "grid-default-j2"):
        return _config(ALL_STRATEGIES, [1, 5, 10], seeds, dict(DEFAULT_PLAN))
    if workload == "surgery-long":
        plan = dict(DEFAULT_PLAN, alpha=1.0, source_epochs=30, batch_size=8)
        return _config(["gradient_mix_train"], [10], seeds, plan)
    if workload == "tagger-tsv":
        languages = write_tagger_corpora(seed, work_dir)
        benchmark = {"kind": "tsv", "task": "token_tags", "num_classes": TAGGER_TAGS,
                     "languages": languages}
        plan = dict(DEFAULT_PLAN, alpha=1.0, source_epochs=12, adapt_epochs=12,
                    batch_size=16, lr=0.3, shot_mode="k_shot")
        return _config(["zero_shot", "mix_ft", "gradient_mix_train"], [5, 10], seeds, plan,
                       benchmark=benchmark,
                       model={"family": "mlp_token_tagger", "hidden_dim": 16},
                       source_batches=50)
    raise KeyError(workload)


def write_config(workload: str, seed: int, work_dir: Path) -> Path:
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / "config.json"
    doc = make_config(workload, seed, work_dir)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def input_files(work_dir: Path) -> List[Tuple[str, Path]]:
    """(relative name, path) of every generated input under `work_dir`."""
    return sorted((str(p.relative_to(work_dir)), p) for p in work_dir.rglob("*") if p.is_file())
