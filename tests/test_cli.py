import functools
import hashlib
import importlib.util
import json
import operator
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gradmix import cli, corpora, models, numcore, trainer
from gradmix.cli import (
    build_benchmark,
    export_artifacts,
    format_table,
    grid_cells,
    load_config,
    main,
    parse_config,
    run_experiment,
    stage_units,
)
from gradmix.models import chain_digest, load_checkpoint
from gradmix.numcore import ContractViolation, RngStreams
from gradmix.trainer import STRATEGIES, evaluate

from conftest import fail_writes_half_way

ROOT = Path(__file__).resolve().parents[1]


def small_config_doc(strategies=("zero_shot", "gradient_mix_train"), ks=(2,),
                     seeds=(1, 2), alpha=0.6):
    """Tiny synthetic benchmark so CLI tests stay fast."""
    languages = [
        {"lang_id": "s", "script_tag": "sc0", "role": "source", "angle_deg": 0.0,
         "translation": [0.0, 0.0], "sizes": {"train": 40, "dev": 16, "test": 16}},
        {"lang_id": "t0", "script_tag": "sc1", "role": "target", "angle_deg": 15.0,
         "translation": [0.4, 0.1], "sizes": {"train": 30, "dev": 16, "test": 16}},
        {"lang_id": "t1", "script_tag": "sc1", "role": "target", "angle_deg": 15.0,
         "translation": [0.1, 0.4], "sizes": {"train": 30, "dev": 16, "test": 16}},
    ]
    return {
        "benchmark": {
            "kind": "synthetic",
            "profile": {
                "num_classes": 3, "input_dim": 2, "mean_radius": 2.0,
                "noise_sd": 0.8, "seed": 11, "languages": languages,
            },
        },
        "model": {"family": "softmax_classifier", "hidden_dim": 6},
        "grid": {"strategies": list(strategies), "ks": list(ks), "seeds": list(seeds)},
        "plan": {"alpha": alpha, "source_epochs": 2, "adapt_epochs": 2,
                 "batch_size": 16, "lr": 0.3, "shot_mode": "k_shot"},
        "analysis": {"seed": 0, "source_batches": 20},
    }


def write_tsv(path, X, y):
    """Write a classification TSV file, one example per row; returns its path."""
    rows = ("\t".join(map(repr, x)) + f"\t{label}\n"
            for x, label in zip(np.asarray(X).tolist(), np.asarray(y).tolist()))
    path.write_text("".join(rows), encoding="utf-8")
    return str(path)


def tsv_doc(tmp_path, widths=(2, 2), classes=(3, 3), **benchmark):
    """`small_config_doc` with a tsv benchmark of a source "s" and a target
    "t": 24 examples per split, with the given feature widths and labels
    0..classes-1."""
    rng = np.random.default_rng(0)
    languages = []
    for lang, role, width, n in zip("st", ("source", "target"), widths, classes):
        splits = {split: write_tsv(tmp_path / f"{lang}.{split}.tsv",
                                   rng.normal(size=(24, width)), np.arange(24) % n)
                  for split in ("train", "dev", "test")}
        languages.append({"lang_id": lang, "role": role, "splits": splits})
    doc = small_config_doc(seeds=(1,))
    doc["benchmark"] = dict({"kind": "tsv", "task": "classification", "languages": languages},
                            **benchmark)
    return doc


def source_only_doc(tmp_path, strategies, seeds):
    """`small_config_doc` with a tsv benchmark of its source language alone:
    a task with no targets."""
    doc = small_config_doc(strategies=strategies, seeds=seeds)
    source = build_benchmark(parse_config(doc))[0].source
    splits = {split: write_tsv(tmp_path / f"s.{split}.tsv", source.split(split).X,
                               source.split(split).y) for split in ("train", "dev", "test")}
    doc["benchmark"] = {"kind": "tsv", "task": "classification", "num_classes": 3,
                        "languages": [{"lang_id": "s", "role": "source", "splits": splits}]}
    return doc


def write_config(tmp_path, doc):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


class TestConfig:
    def test_grid_arithmetic_with_zero_shot_collapse(self):
        cfg = parse_config(small_config_doc(
            strategies=("zero_shot", "ord_fs", "mix_ft", "naive_mix_train",
                        "gradient_mix_train"),
            ks=(1, 5, 10), seeds=(1, 2, 3, 4, 5),
        ))
        assert len(grid_cells(cfg)) == 65  # 4*3*5 + 5

    def test_empty_grid_rejected(self):
        doc = small_config_doc()
        doc["grid"]["seeds"] = []
        with pytest.raises(ContractViolation, match="seed"):
            parse_config(doc)

    def test_unknown_strategy_rejected(self):
        doc = small_config_doc(strategies=("warp_drive",))
        with pytest.raises(ContractViolation, match="warp_drive"):
            parse_config(doc)

    def test_invalid_config_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_plan_and_model_keys_exit_2(self, tmp_path, capsys):
        doc = small_config_doc()
        doc["plan"]["learning_rate"] = doc["plan"].pop("lr")
        doc["model"]["width"] = 8
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert "error: unknown key(s): model.width\n" in capsys.readouterr().err
        del doc["model"]["width"]  # each object's unknown keys are refused in turn
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert "error: unknown key(s): plan.learning_rate\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, error", [
        ("adapt_batch_size", 0, "plan.adapt_batch_size: 0 is not an integer >= 1 or null"),
        ("adapt_batch_size", -3, "plan.adapt_batch_size: -3 is not an integer >= 1 or null"),
        ("batch_size", 0, "plan.batch_size: 0 is not an integer >= 1"),
        ("lr", -1, "plan.lr: -1 is not a finite number >= 0"),
        ("lr", float("nan"), "plan.lr: nan is not a finite number >= 0"),
        ("lr", float("inf"), "plan.lr: inf is not a finite number >= 0"),
        ("lr", "0.5", "plan.lr: '0.5' is not a finite number >= 0"),
        ("alpha", "0.6", "plan.alpha: '0.6' is not a number in [0, 1]"),
        ("batch_size", 2.5, "plan.batch_size: 2.5 is not an integer >= 1"),
        ("batch_size", True, "plan.batch_size: True is not an integer >= 1"),
        ("source_epochs", 1.0, "plan.source_epochs: 1.0 is not an integer >= 0"),
        ("adapt_batch_size", "4",
         "plan.adapt_batch_size: '4' is not an integer >= 1 or null"),
        ("shot_mode", "kshot", "plan.shot_mode: 'kshot' is not one of k_shot, n_way_k_shot"),
    ], ids=["adapt_batch_size-0", "adapt_batch_size--3", "batch_size-0", "lr-negative", "lr-nan",
            "lr-inf", "lr-string", "alpha-string", "batch_size-float", "batch_size-bool",
            "source_epochs-float", "adapt_batch_size-string", "shot_mode-unknown"])
    def test_plan_value_refused_before_any_cell_runs(self, tmp_path, capsys, field, value, error):
        doc = small_config_doc(strategies=("zero_shot", "ord_fs"))
        doc["plan"][field] = value
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {error}\n" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("field, values, error", [
        ("strategies", ["zero_shot", "zero_shot"], "grid.strategies: 'zero_shot' is listed twice"),
        ("ks", [2, 2], "grid.ks: 2 is listed twice"),
        ("seeds", [1, 1], "grid.seeds: 1 is listed twice"),
        ("ks", [1.7], "grid.ks: [1.7] is not a non-empty list of integers"),
        ("seeds", [1.5], "grid.seeds: [1.5] is not a non-empty list of integers"),
        ("seeds", [-1], "grid.seeds: -1 is not an integer >= 0"),
        ("strategies", "zero_shot",
         "grid.strategies: 'zero_shot' is not a non-empty list of strings"),
        ("ks", 5, "grid.ks: 5 is not a non-empty list of integers"),
    ], ids=["twice-strategy", "twice-k", "twice-seed", "float-k", "float-seed", "negative-seed",
            "string-strategies", "int-ks"])
    def test_bad_grid_refused_before_any_cell_runs(self, tmp_path, capsys, field, values, error):
        doc = small_config_doc(strategies=("zero_shot", "ord_fs"))
        doc["grid"][field] = values
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert not out.exists()

    RETIRED_PLAN_KEYS = {"language_subset": ["t0"], "selection": "target_dev",
                         "unrealistic_target_dev": True, "lazy_surgery": True}

    @pytest.mark.parametrize("key", RETIRED_PLAN_KEYS)
    def test_retired_plan_keys_exit_2(self, tmp_path, capsys, key):
        doc = small_config_doc()
        doc["plan"][key] = self.RETIRED_PLAN_KEYS[key]
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert f"error: unknown key(s): plan.{key}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_plan_fields_are_the_keys_of_the_default_config(self):
        # a plan knob that no shipped config sets is a dead knob
        doc = json.loads((ROOT / "configs" / "default.json").read_text(encoding="utf-8"))
        assert list(cli.CONFIG["plan"]) == list(doc["plan"])

    @pytest.mark.parametrize("block, key, value, error", [
        ("analysis", "seed", -1, "analysis.seed: -1 is not an integer >= 0"),
        ("analysis", "seed", 1.7, "analysis.seed: 1.7 is not an integer >= 0"),
        ("analysis", "seed", "x", "analysis.seed: 'x' is not an integer >= 0"),
        ("analysis", "source_batches", 0, "analysis.source_batches: 0 is not an integer >= 1"),
        ("analysis", "source_batches", -5, "analysis.source_batches: -5 is not an integer >= 1"),
        ("analysis", "sede", 1, "unknown key(s): analysis.sede"),
        ("model", "hidden_dim", 1.7, "model.hidden_dim: 1.7 is not an integer >= 0"),
        ("model", "hidden_dim", -1, "model.hidden_dim: -1 is not an integer >= 0"),
        ("model", "family", "nope",
         "model.family: 'nope' is not one of softmax_classifier, mlp_token_tagger"),
        ("benchmark", "kind", "nope",
         "benchmark.kind: 'nope' is not one of default, synthetic, tsv"),
        ("benchmark", "kind", "default", "unknown key(s): benchmark.profile"),
        ("", "format_version", 7, "format_version: 7 is not 1"),
        ("", "format_version", True, "format_version: True is not an integer"),
    ], ids=["seed-negative", "seed-float", "seed-string", "batches-zero", "batches-negative",
            "analysis-unknown-key", "hidden-float", "hidden-negative", "family", "kind",
            "profile-of-default-kind", "format-version-7", "format-version-bool"])
    def test_bad_block_value_refused_before_out_exists(self, tmp_path, capsys, block, key,
                                                        value, error):
        doc = small_config_doc(strategies=("zero_shot", "gradient_mix_train"))
        (doc[block] if block else doc)[key] = value
        out = tmp_path / "out"
        argv = ["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {error}\n" in err and "Traceback" not in err
        assert not out.exists()
        assert main(argv) == 2  # and a rerun is refused for the same reason
        assert f"error: {error}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("block", ["benchmark", "model", "plan", "analysis", "grid",
                                       "benchmark.profile"])
    def test_block_that_is_not_an_object_refused(self, tmp_path, capsys, block):
        doc = small_config_doc()
        *outer, key = block.split(".")
        (doc[outer[0]] if outer else doc)[key] = 5
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {block}: 5 is not a JSON object\n" in err and "Traceback" not in err
        assert not out.exists()

    def test_document_that_is_not_an_object_refused(self, tmp_path, capsys):
        config, out = write_config(tmp_path, [1, 2]), tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: config: [1, 2] is not a JSON object\n" in err and "Traceback" not in err
        assert not out.exists()

    def test_profile_without_a_key_refused_by_name(self, tmp_path, capsys):
        doc = small_config_doc()
        del doc["benchmark"]["profile"]["num_classes"]
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: benchmark.profile: no 'num_classes' key\n" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("path, value, error", [
        ("num_classes", "x", "benchmark.profile.num_classes: 'x' is not an integer >= 2"),
        ("num_classes", 2.7, "benchmark.profile.num_classes: 2.7 is not an integer >= 2"),
        ("num_classes", 0, "benchmark.profile.num_classes: 0 is not an integer >= 2"),
        ("noise_sd", "a", "benchmark.profile.noise_sd: 'a' is not a number"),
        ("noise_sd", float("nan"), "benchmark.profile.noise_sd: nan is not a number"),
        ("languages.1.angle_deg", float("inf"),
         "benchmark.profile.languages[1].angle_deg: inf is not a number"),
        ("languages", [5], "benchmark.profile.languages[0]: 5 is not a JSON object"),
        ("languages.0.translation", "ab",
         "benchmark.profile.languages[0].translation: 'ab' is not a list of numbers"),
        ("languages.0.translation", [0.0, "x"],
         "benchmark.profile.languages[0].translation: [0.0, 'x'] is not a list of numbers"),
        ("languages.1.sizes.dev", 2.5,
         "benchmark.profile.languages[1].sizes.dev: 2.5 is not an integer >= 0"),
        ("languages.0.translation", [0.0, 0.0, 1.0],
         "benchmark.profile.languages[0].translation: [0.0, 0.0, 1.0] has more values than "
         "input_dim (2)"),
    ], ids=["classes-string", "classes-float", "classes-zero", "noise-string", "noise-nan",
            "angle-inf", "language-not-object", "translation-string", "translation-entry",
            "size-float", "translation-wider"])
    def test_bad_profile_value_refused_by_name(self, tmp_path, capsys, path, value, error):
        doc = small_config_doc()
        *outer, key = path.split(".")
        node = doc["benchmark"]["profile"]
        for part in outer:
            node = node[int(part) if part.isdigit() else part]
        node[key] = value
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {error}\n" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("model", [None, {"family": "softmax_classifier"}])
    def test_model_defaults_resolved_once(self, model):
        doc = small_config_doc()
        del doc["model"]
        if model is not None:
            doc["model"] = model
        cfg = parse_config(doc)
        assert cfg["model"] == {"family": "softmax_classifier", "hidden_dim": 64}
        assert build_benchmark(cfg)[0].spec.hidden_dim == 64

    def test_default_config_round_trips(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        doc = load_config(root / "configs" / "default.json")
        p = write_config(tmp_path, doc)
        cfg = load_config(p)
        assert cfg == doc

    def test_shipped_config_files_parse(self):
        root = Path(__file__).resolve().parents[1]
        for name in ("default.json", "quick.json"):
            cfg = load_config(root / "configs" / name)
            assert cfg["grid"]["strategies"]
            assert parse_config(cfg) == cfg  # a read config reads to itself

    def test_run_config_json_reads_back_to_the_config(self, tmp_path):
        doc = small_config_doc(strategies=("zero_shot",), seeds=(1,))
        del doc["analysis"], doc["plan"]["lr"]  # defaults are written out
        cfg, out = parse_config(doc), tmp_path / "out"
        assert run_experiment(cfg, out) == 0
        written = (out / "config.json").read_text(encoding="utf-8")
        assert list(json.loads(written)) == ["format_version", "benchmark", "model", "grid",
                                             "plan", "analysis"]
        assert load_config(out / "config.json") == cfg
        assert cfg["analysis"] == {"seed": 0, "source_batches": 100} and cfg["plan"]["lr"] == 0.5

    @pytest.mark.parametrize("change, error", [
        ({"role": "source"}, "benchmark.profile.languages: need exactly one source corpus, "
                             "got ['s', 't0']"),
        ({"lang_id": "t1"}, "benchmark.profile.languages: language id 't1' is not unique"),
    ], ids=["two-sources", "repeated-id"])
    def test_profile_the_task_refuses_exits_2_before_out_exists(self, tmp_path, capsys, change,
                                                                error):
        doc = small_config_doc()
        doc["benchmark"]["profile"]["languages"][1].update(change)
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {error}\n" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("k, shot_mode, error", [
        (31, "k_shot", "grid.ks: k=31 exceeds train size 30 for t0"),
        (11, "n_way_k_shot", "grid.ks: t0: class 0: 10 < 11"),
    ], ids=["k_shot", "n_way_k_shot"])
    def test_k_the_targets_cannot_give_refused_before_out_exists(self, tmp_path, capsys, k,
                                                                  shot_mode, error):
        # each target has 30 train examples, 10 of each class
        doc = small_config_doc(strategies=("zero_shot", "naive_mix_train"), ks=(2, k))
        doc["plan"]["shot_mode"] = shot_mode
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {error}\n" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["synthetic", "tsv"])
    def test_source_without_dev_split_refused_before_out_exists(self, tmp_path, capsys, kind):
        # every strategy picks its source epoch on the source dev curve
        if kind == "synthetic":
            doc = small_config_doc()
            doc["benchmark"]["profile"]["languages"][0]["sizes"]["dev"] = 0
        else:
            doc = tsv_doc(tmp_path)
            del doc["benchmark"]["languages"][0]["splits"]["dev"]
        out = tmp_path / "out"
        argv = ["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert ("error: plan.source_epochs: picking one of 2 epochs needs a dev split, "
                "but s has none\n") in err and "Traceback" not in err
        assert not out.exists()
        doc["plan"]["source_epochs"] = 0  # no epoch to pick: the run needs no dev split
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0

    @pytest.mark.parametrize("strategy", ["zero_shot", "gradient_mix_train"])
    @pytest.mark.parametrize("kind", ["synthetic", "tsv"])
    def test_source_without_train_example_refused_before_out_exists(self, tmp_path, capsys,
                                                                    kind, strategy):
        # every strategy pools from the source, and the similarity CSVs sample from it
        if kind == "synthetic":
            doc = small_config_doc(strategies=[strategy])
            doc["benchmark"]["profile"]["languages"][0]["sizes"]["train"] = 0
        else:
            doc = tsv_doc(tmp_path)
            doc["grid"]["strategies"] = [strategy]
            del doc["benchmark"]["languages"][0]["splits"]["train"]
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: s train: the source has no example\n" in err and "Traceback" not in err
        assert not out.exists()

    def test_ord_fs_dev_target_without_dev_split_refused_before_out_exists(self, tmp_path,
                                                                          capsys):
        # ord_fs_dev picks each target's adapt epoch on that target's dev curve
        doc = small_config_doc(strategies=["ord_fs_dev"])
        doc["benchmark"]["profile"]["languages"][1]["sizes"]["dev"] = 0
        out = tmp_path / "out"
        argv = ["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert ("error: plan.adapt_epochs: picking one of 2 epochs needs a dev split, "
                "but t0 has none\n") in err and "Traceback" not in err
        assert not out.exists()
        doc["plan"]["adapt_epochs"] = 0  # no adapt epoch to pick: t0 needs no dev split
        assert main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0


# The keys a config must hold, by dotted path with list indices left out.
REQUIRED_KEYS = {"grid", "grid.strategies", "grid.ks", "grid.seeds", "benchmark.profile"} | {
    f"benchmark.profile.{key}" for key in ("languages", "num_classes", "input_dim",
                                           "mean_radius", "noise_sd", "seed")} | {
    f"benchmark.profile.languages[].{key}" for key in ("lang_id", "script_tag", "role",
                                                       "angle_deg", "translation", "sizes")} | {
    f"benchmark.profile.languages[].sizes.{split}" for split in ("train", "dev", "test")} | {
    "benchmark.languages", "benchmark.languages[].lang_id", "benchmark.languages[].role",
    "benchmark.languages[].splits"}


def config_keys(node, steps=(), path=""):
    """(steps to the object, its dotted path, key) of every key of a config
    document, depth first; each entry of a list of objects is an object,
    named path[i]."""
    for key, value in node.items():
        yield steps, path, key
        at = f"{path}.{key}" if path else key
        if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            for i, entry in enumerate(value):
                yield from config_keys(entry, steps + (key, i), f"{at}[{i}]")
        elif isinstance(value, dict):
            yield from config_keys(value, steps + (key,), at)


def wrong_kinds(value):
    """Values of another JSON kind than `value`: a list of scalars also
    gets one whose entry is of another kind than its first."""
    if isinstance(value, str):
        return [7]
    if isinstance(value, int) and not isinstance(value, bool):
        return ["7", 2.5]
    if isinstance(value, list) and value and not isinstance(value[0], dict):
        return ["7", [wrong_kinds(value[0])[0]]]
    return ["7"]


class TestConfigBoundary:
    """Every key of four config documents, through `main`: a value of
    another JSON kind, the key deleted where it is required, and an unknown
    key beside it each exit 2 with an error naming the path, no traceback
    and no `--out`."""

    @staticmethod
    def cases(doc):
        """(document, expected error) of each case of `doc`."""
        def copy_at(steps):
            bad = json.loads(json.dumps(doc))
            return bad, functools.reduce(operator.getitem, steps, bad)

        cases, parents = [], []
        for steps, parent, key in config_keys(doc):
            where = f"{parent}.{key}" if parent else key
            for value in wrong_kinds(copy_at(steps)[1][key]):
                bad, obj = copy_at(steps)
                obj[key] = value
                cases.append((bad, f"error: {where}: "))
            if re.sub(r"\[\d+\]", "[]", where) in REQUIRED_KEYS:
                bad, obj = copy_at(steps)
                del obj[key]
                cases.append((bad, f"error: {parent or 'config'}: no {key!r} key\n"))
            if parent not in parents:  # the same input for every key of one object
                parents.append(parent)
                bad, obj = copy_at(steps)
                obj["zz_unknown"] = 1
                where = f"{parent}.zz_unknown" if parent else "zz_unknown"
                cases.append((bad, f"error: unknown key(s): {where}\n"))
        return cases

    @pytest.mark.parametrize("name", ["default.json", "quick.json", "small_config_doc",
                                      "tsv_doc"])
    def test_every_key_refused_by_path(self, tmp_path, capsys, name):
        if name == "small_config_doc":
            doc = small_config_doc()
        elif name == "tsv_doc":
            doc = tsv_doc(tmp_path)
        else:
            doc = json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))
        wrong = []
        for i, (bad, error) in enumerate(self.cases(doc)):
            out = tmp_path / f"out{i}"
            code = main(["run", "--config", str(write_config(tmp_path, bad)), "--out", str(out)])
            err = capsys.readouterr().err
            if code != 2 or error not in err or "Traceback" in err or out.exists():
                wrong.append((error, code, err))
        assert not wrong, wrong[:5]

    @pytest.mark.parametrize("path, value, error", [
        ("plan.alpha", 1.5, "1.5 is not a number in [0, 1]"),
        ("plan.source_epochs", -1, "-1 is not an integer >= 0"),
        ("plan.adapt_epochs", -1, "-1 is not an integer >= 0"),
        ("plan.batch_size", 0, "0 is not an integer >= 1"),
        ("plan.adapt_batch_size", 0, "0 is not an integer >= 1 or null"),
        ("plan.lr", -1, "-1 is not a finite number >= 0"),
        ("plan.shot_mode", "kshot", "'kshot' is not one of k_shot, n_way_k_shot"),
        ("model.hidden_dim", -1, "-1 is not an integer >= 0"),
        ("model.family", "nope", "'nope' is not one of softmax_classifier, mlp_token_tagger"),
        ("grid.strategies", ["nope"], "'nope' is not one of " + ", ".join(STRATEGIES)),
        ("grid.ks", [0], "0 is not an integer >= 1"),
        ("grid.seeds", [-1], "-1 is not an integer >= 0"),
        ("analysis.seed", -1, "-1 is not an integer >= 0"),
        ("analysis.source_batches", 0, "0 is not an integer >= 1"),
        ("benchmark.kind", "nope", "'nope' is not one of default, synthetic, tsv"),
        ("benchmark.profile.num_classes", 1, "1 is not an integer >= 2"),
        ("benchmark.profile.input_dim", 1, "1 is not an integer >= 2"),
        ("benchmark.profile.seed", -1, "-1 is not an integer >= 0"),
        ("benchmark.profile.languages[1].role", "tagret", "'tagret' is not one of source, target"),
        ("benchmark.profile.languages[0].sizes.train", -1, "-1 is not an integer >= 0"),
        ("benchmark.task", "tokens", "'tokens' is not one of classification, token_tags"),
        ("benchmark.num_classes", 1, "1 is not an integer >= 2"),
        ("benchmark.languages[1].role", "tagret", "'tagret' is not one of source, target"),
    ])
    def test_value_just_outside_its_kind_refused_by_path(self, tmp_path, capsys, path, value,
                                                         error):
        """Each key whose kind has a bound or a set of allowed values."""
        tsv = path in ("benchmark.task", "benchmark.num_classes", "benchmark.languages[1].role")
        doc = tsv_doc(tmp_path) if tsv else small_config_doc()
        *steps, key = [int(s) if s.isdigit() else s for s in re.findall(r"[^.\[\]]+", path)]
        functools.reduce(operator.getitem, steps, doc)[key] = value
        out = tmp_path / "out"
        code = main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert f"error: {path}: {error}\n" in err and "Traceback" not in err


def test_every_kind_of_every_key_table_is_known():
    """A kind is looked up only when a config sets its key, so a mistyped
    one would fail only then: every kind must be a `numcore.KINDS` key or a
    tuple of allowed strings, and every `KINDS` key is some table's."""
    tables = {**{f"cli.CONFIG[{name!r}]": table for name, table in cli.CONFIG.items()},
              **{f"cli.BENCHMARKS[{name!r}]": table for name, table in cli.BENCHMARKS.items()},
              "cli.TSV_LANGUAGE": cli.TSV_LANGUAGE, "cli.TSV_SPLITS": cli.TSV_SPLITS,
              "cli.MANIFEST": cli.MANIFEST,
              "corpora.PROFILE_KEYS": corpora.PROFILE_KEYS,
              "corpora.PROFILE_LANGUAGE_KEYS": corpora.PROFILE_LANGUAGE_KEYS,
              "corpora.SIZES_KEYS": corpora.SIZES_KEYS, "trainer.PLAN_KEYS": trainer.PLAN_KEYS,
              "models.SPEC_KEYS": models.SPEC_KEYS}
    kinds = {(f"{name}[{key!r}]", kind) for name, table in tables.items()
             for key, (kind, _) in table.items()}
    kinds |= {(f"cli.GRID_ENTRY[{key!r}]", kind) for key, kind in cli.GRID_ENTRY.items()}
    unknown = [(where, kind) for where, kind in kinds
               if not (kind in numcore.KINDS if isinstance(kind, str) else
                       isinstance(kind, tuple) and kind and all(isinstance(v, str) for v in kind))]
    assert not unknown
    assert set(numcore.KINDS) == {kind for _, kind in kinds if isinstance(kind, str)}


class TestTsvBenchmark:
    """A tsv benchmark's files decide its model's input width and class
    count once, and building the `Task` checks every split against them."""

    @staticmethod
    def run(tmp_path, doc):
        out = tmp_path / "out"
        return main(["run", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]), out

    @pytest.mark.parametrize("change, error", [
        ({"role": "source"}, "need exactly one source corpus, got ['s', 't']"),
        ({"lang_id": "s"}, "language id 's' is not unique"),
    ], ids=["two-sources", "repeated-id"])
    def test_languages_the_task_refuses_exit_2_by_path(self, tmp_path, capsys, change, error):
        doc = tsv_doc(tmp_path)
        doc["benchmark"]["languages"][1].update(change)
        code, out = self.run(tmp_path, doc)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert f"error: benchmark.languages: {error}\n" in err and "Traceback" not in err

    def test_class_the_source_lacks_widens_the_model(self, tmp_path):
        doc = tsv_doc(tmp_path, classes=(2, 3))
        assert build_benchmark(parse_config(doc))[0].spec.num_classes == 3
        code, out = self.run(tmp_path, doc)
        assert code == 0
        assert {load_checkpoint(p).spec.num_classes for p in (out / "models").iterdir()} == {3}

    @pytest.mark.parametrize("num_classes, classes, want", [(5, (3, 3), 5), (None, (1, 1), 2)],
                             ids=["given", "at-least-two"])
    def test_class_count_given_or_one_above_the_largest_label(self, tmp_path, num_classes,
                                                               classes, want):
        given = {} if num_classes is None else {"num_classes": num_classes}
        doc = tsv_doc(tmp_path, classes=classes, **given)
        assert build_benchmark(parse_config(doc))[0].spec.num_classes == want

    def test_wider_target_refused_before_out_exists(self, tmp_path, capsys):
        code, out = self.run(tmp_path, tsv_doc(tmp_path, widths=(2, 3)))
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert "error: tsv files differ in feature width: " in err
        assert f"{tmp_path / 's.train.tsv'} has 2, " in err
        assert f"{tmp_path / 't.train.tsv'} has 3" in err

    def test_every_file_empty_refused_by_languages(self, tmp_path, capsys):
        doc = tsv_doc(tmp_path)
        for path in tmp_path.glob("*.tsv"):
            path.write_text("", encoding="utf-8")
        code, out = self.run(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert "error: benchmark.languages: no file holds an example\n" in err
        assert "Traceback" not in err

    def test_token_tags_for_a_classifier_refused_before_out_exists(self, tmp_path, capsys):
        code, out = self.run(tmp_path, tsv_doc(tmp_path, task="token_tags"))
        assert code == 2 and not out.exists()
        assert ("error: s train: softmax_classifier cannot take a batch of this layout "
                "(with sequence offsets)\n") in capsys.readouterr().err

    @pytest.mark.parametrize("strategies", [("zero_shot", "ord_fs"), ("naive_mix_train",),
                                            ("zero_shot",)])
    def test_n_way_shots_of_a_tagger_refused_by_shot_mode(self, tmp_path, capsys, strategies):
        # a shot mode that cannot draw from token sequences, whatever K is
        doc = tsv_doc(tmp_path, task="token_tags")
        doc["model"]["family"] = "mlp_token_tagger"
        doc["grid"]["strategies"] = list(strategies)
        doc["plan"]["shot_mode"] = "n_way_k_shot"
        code, out = self.run(tmp_path, doc)
        err = capsys.readouterr().err
        if strategies == ("zero_shot",):  # no cell draws shots
            assert code == 0 and out.exists()
            return
        assert code == 2 and not out.exists()
        assert err == ("error: plan.shot_mode: n-way k-shot sampling applies to classification "
                       "tasks, not to mlp_token_tagger\n")

    @pytest.mark.parametrize("key, value, error", [
        ("num_classes", "5", "benchmark.num_classes: '5' is not an integer >= 2"),
        ("num_classes", True, "benchmark.num_classes: True is not an integer >= 2"),
        ("num_classes", 1, "benchmark.num_classes: 1 is not an integer >= 2"),
        ("task", "tokens", "benchmark.task: 'tokens' is not one of classification, token_tags"),
        ("languages", [], "benchmark.languages: [] is not a non-empty JSON list"),
        ("languages", 5, "benchmark.languages: 5 is not a non-empty JSON list"),
    ], ids=["classes-string", "classes-bool", "classes-one", "task", "languages-empty",
            "languages-int"])
    def test_bad_block_key_refused_before_any_file_is_read(self, tmp_path, capsys, key, value,
                                                            error):
        doc = tsv_doc(tmp_path, **{key: value})
        for path in tmp_path.glob("*.tsv"):  # a file read would now fail on its own
            path.unlink()
        code, out = self.run(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert f"error: {error}\n" in err and "Traceback" not in err

    def test_splits_come_from_their_files(self, tmp_path):
        doc = tsv_doc(tmp_path)
        write_tsv(tmp_path / "t.dev.tsv", [[1.0, 2.0]], [1])
        del doc["benchmark"]["languages"][1]["splits"]["test"]
        task, manifest = build_benchmark(parse_config(doc))
        target = task.targets[0]
        assert manifest is None
        assert (len(target.train), len(target.dev), len(target.test)) == (24, 1, 0)
        assert target.dev.X.tolist() == [[1.0, 2.0]] and target.dev.y.tolist() == [1]

    @pytest.mark.parametrize("entry, error", [
        ({"role": None}, "benchmark.languages[1]: no 'role' key"),
        ({"lang_id": None}, "benchmark.languages[1]: no 'lang_id' key"),
        ({"splits": None}, "benchmark.languages[1]: no 'splits' key"),
        ({"splits": {"valid": "{tmp}/t.dev.tsv"}},
         "unknown key(s): benchmark.languages[1].splits.valid"),
        ({"splits": {"train": "{tmp}/nowhere.tsv"}},
         "benchmark.languages[1].splits.train: {tmp}/nowhere.tsv: No such file or directory"),
        ({"splits": {"train": "{tmp}/latin1.tsv"}}, "benchmark.languages[1].splits.train: "
         "{tmp}/latin1.tsv: 'utf-8' codec can't decode byte 0xe9 in position 4: invalid "
         "continuation byte"),
        ({"role": "tagret"}, "benchmark.languages[1].role: 'tagret' is not one of source, target"),
    ], ids=["no-role", "no-lang-id", "no-splits", "split-valid", "missing-file", "not-utf-8",
            "bad-role"])
    def test_bad_language_entry_refused_before_out_exists(self, tmp_path, capsys, entry, error):
        doc = tsv_doc(tmp_path)
        (tmp_path / "latin1.tsv").write_bytes("1.0\té\n".encode("latin-1"))
        target = doc["benchmark"]["languages"][1]
        for key, value in entry.items():
            if value is None:
                del target[key]
            elif key == "splits":
                target[key] = {split: p.format(tmp=tmp_path) for split, p in value.items()}
            else:
                target[key] = value
        code, out = self.run(tmp_path, doc)
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert f"error: {error.format(tmp=tmp_path)}\n" in err and "Traceback" not in err


class TestRunExperiment:
    def test_single_cell_grid(self, tmp_path):
        doc = small_config_doc(strategies=("zero_shot",), ks=(2,), seeds=(1,))
        cfg = parse_config(doc)
        rc = run_experiment(cfg, tmp_path / "out")
        assert rc == 0
        records = list((tmp_path / "out" / "runs").glob("*/record.json"))
        assert len(records) == 1
        rec = json.loads(records[0].read_text())
        assert rec["strategy"] == "zero_shot"
        assert rec["k"] == 0

    def test_artifact_tree(self, tmp_path):
        cfg = parse_config(small_config_doc())
        out = tmp_path / "out"
        assert run_experiment(cfg, out) == 0
        assert (out / "config.json").exists()
        assert (out / "benchmark" / "manifest.json").exists()
        assert (out / "aggregate" / "report.json").exists()
        assert (out / "aggregate" / "table.txt").exists()
        assert (out / "aggregate" / "simmatrix_gradient_mix_train_k2.csv").exists()
        assert (out / "manifest.json").exists()
        cell = out / "runs" / "gradient_mix_train_k2_seed1"
        assert (cell / "surgery_trace.jsonl").exists()
        rec = json.loads((cell / "record.json").read_text())
        assert sorted(p.name for p in cell.iterdir()) == ["record.json", "surgery_trace.jsonl"]
        chain = load_checkpoint(out / rec["checkpoints"]["model"])
        assert rec["checkpoints"] == {"model": f"models/{chain_digest(chain)}.chain"}
        assert len(chain.states) == rec["epochs"] + 1
        assert not list(out.rglob("epoch_*.json"))
        assert not list(out.rglob("checkpoints"))

    def test_selected_checkpoints_reproduce_test_metrics(self, tmp_path):
        cfg = parse_config(small_config_doc(strategies=STRATEGIES, seeds=(1,)))
        out = tmp_path / "out"
        assert run_experiment(cfg, out) == 0
        task, _ = build_benchmark(cfg)
        corpora = {c.lang_id: c for c in (task.source,) + task.targets}
        records = sorted((out / "runs").glob("*/record.json"))
        assert len(records) == len(STRATEGIES)
        stored = set()
        for rec_path in records:
            rec = json.loads(rec_path.read_text())
            assert set(rec["checkpoints"]) == set(rec["model_key_of"].values())
            stored.update(rec["checkpoints"].values())
            assert set(rec["test_metrics"]) == set(corpora)
            for lang, metric in rec["test_metrics"].items():
                key = rec["model_key_of"][lang]
                chain = load_checkpoint(out / rec["checkpoints"][key])
                model = chain.state(rec["selected_epochs"][lang])
                assert evaluate(model, corpora[lang], "test") == metric
        assert {str(p.relative_to(out)) for p in (out / "models").iterdir()} == stored

    def test_each_distinct_chain_stored_once(self, tmp_path, monkeypatch):
        saved = []

        def save(chain, path):
            saved.append(path.name)
            models.save_checkpoint(chain, path)

        monkeypatch.setattr(cli, "save_checkpoint", save)
        cfg = parse_config(small_config_doc(strategies=STRATEGIES, seeds=(1, 2)))
        out = tmp_path / "out"
        assert run_experiment(cfg, out) == 0

        def ckpts(name):
            return json.loads((out / "runs" / name / "record.json").read_text())["checkpoints"]

        for seed in (1, 2):
            zero_shot = ckpts(f"zero_shot_k0_seed{seed}")
            ord_fs = ckpts(f"ord_fs_k2_seed{seed}")
            assert ord_fs == ckpts(f"ord_fs_dev_k2_seed{seed}")
            assert ord_fs["source"] == ckpts(f"mix_ft_k2_seed{seed}")["source"]
            assert ord_fs["source"] == zero_shot["model"]
            # no surgery step applies in this tiny grid, so the chains are equal
            naive = ckpts(f"naive_mix_train_k2_seed{seed}")
            assert ckpts(f"gradient_mix_train_k2_seed{seed}") == naive
        # per seed: source, 2 ord_fs targets, mix_ft, naive = gradient
        assert sorted(saved) == sorted(p.name for p in (out / "models").iterdir())
        assert len(saved) == 2 * (1 + 2 + 1 + 1)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = parse_config(small_config_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_experiment(cfg, out1) == 0
        assert run_experiment(cfg, out2) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["artifacts"] == m2["artifacts"]
        assert m1["failures"] == [] and m2["failures"] == []
        for entry in m1["artifacts"]:
            assert (out1 / entry["path"]).read_bytes() == (out2 / entry["path"]).read_bytes()

    def test_no_wall_clock_in_artifacts(self, tmp_path):
        cfg = parse_config(small_config_doc(strategies=("naive_mix_train",), seeds=(1,)))
        out = tmp_path / "out"
        run_experiment(cfg, out)
        rec = json.loads((out / "runs" / "naive_mix_train_k2_seed1" / "record.json").read_text())
        text = json.dumps(rec)
        assert "time" not in text and "date" not in text

    def test_partial_failure_still_runs_other_cells(self, tmp_path):
        # gradient_mix_train on a task with no targets fails; zero_shot runs
        doc = source_only_doc(tmp_path, ("zero_shot", "gradient_mix_train"), (1,))
        cfg = parse_config(doc)
        out = tmp_path / "out"
        rc = run_experiment(cfg, out)
        assert rc == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert any("gradient_mix_train" in f["cell"] for f in manifest["failures"])
        assert (out / "runs" / "zero_shot_k0_seed1" / "record.json").exists()

    def test_used_out_dir_refused(self, tmp_path):
        cfg = parse_config(small_config_doc(strategies=("zero_shot",), seeds=(1,)))
        out = tmp_path / "out"
        assert run_experiment(cfg, out) == 0
        manifest = (out / "manifest.json").read_bytes()
        other = parse_config(small_config_doc(strategies=("naive_mix_train",), seeds=(2,)))
        with pytest.raises(ContractViolation, match=f"{out}.* not empty"):
            run_experiment(other, out)
        p = write_config(tmp_path, small_config_doc(strategies=("naive_mix_train",), seeds=(2,)))
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        assert (out / "manifest.json").read_bytes() == manifest
        assert not (out / "runs" / "naive_mix_train_k2_seed2").exists()

    def test_out_naming_a_file_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a run tree", encoding="utf-8")
        p = write_config(tmp_path, small_config_doc(strategies=("zero_shot",), seeds=(1,)))
        assert main(["run", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: --out {out} is a file" in err
        assert "Traceback" not in err
        assert out.read_text(encoding="utf-8") == "not a run tree"

    def test_out_under_a_file_refused(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("not a directory", encoding="utf-8")
        p = write_config(tmp_path, small_config_doc(strategies=("zero_shot",), seeds=(1,)))
        assert main(["run", "--config", str(p), "--out", str(afile / "sub")]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot create --out {afile / 'sub'}: Not a directory" in err
        assert "Traceback" not in err
        assert afile.read_text(encoding="utf-8") == "not a directory"

    def test_empty_out_dir_allowed(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        cfg = parse_config(small_config_doc(strategies=("zero_shot",), seeds=(1,)))
        assert run_experiment(cfg, out) == 0

    def test_jobs_parallel_same_bytes(self, tmp_path):
        cfg = parse_config(small_config_doc(seeds=(1, 2, 3)))
        assert len(stage_units(cfg, build_benchmark(cfg)[0], grid_cells(cfg))) >= 2
        outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2, 3)}
        for jobs, out in outs.items():
            assert run_experiment(cfg, out, jobs=jobs) == 0
        m1 = json.loads((outs[1] / "manifest.json").read_text())
        for jobs in (2, 3):
            m = json.loads((outs[jobs] / "manifest.json").read_text())
            assert m1["artifacts"] == m["artifacts"]
            assert (outs[1] / "manifest.json").read_bytes() == (
                outs[jobs] / "manifest.json").read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failures_listed_in_grid_order(self, tmp_path, jobs):
        # with no targets every strategy that trains on shots fails, except naive
        doc = source_only_doc(
            tmp_path, ("zero_shot", "ord_fs", "naive_mix_train", "gradient_mix_train"), (1, 2))
        out = tmp_path / "out"
        assert run_experiment(parse_config(doc), out, jobs=jobs) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert [f["cell"] for f in manifest["failures"]] == [
            "ord_fs_k2_seed1", "ord_fs_k2_seed2",
            "gradient_mix_train_k2_seed1", "gradient_mix_train_k2_seed2",
        ]
        assert sorted(p.name for p in (out / "runs").iterdir()) == [
            "naive_mix_train_k2_seed1", "naive_mix_train_k2_seed2",
            "zero_shot_k0_seed1", "zero_shot_k0_seed2",
        ]

    def test_nested_manifest_hashed(self, tmp_path):
        cfg = parse_config(small_config_doc(strategies=("zero_shot",), seeds=(1,)))
        out = tmp_path / "out"
        assert run_experiment(cfg, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        paths = [entry["path"] for entry in manifest["artifacts"]]
        assert "benchmark/manifest.json" in paths
        assert "manifest.json" not in paths

    def test_write_failing_mid_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        fail_writes_half_way(monkeypatch, "surgery_trace.jsonl")
        cfg = parse_config(small_config_doc(seeds=(1,)))
        out = tmp_path / "out"
        assert run_experiment(cfg, out) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        [failure] = manifest["failures"]
        assert failure["cell"] == "gradient_mix_train_k2_seed1"
        assert (failure["type"], failure["error"]) == ("OSError", "no space left on device")
        assert [f.rsplit(":", 1)[0] for f in failure["frames"]] == [
            "gradmix.cli:run_cell", "gradmix.models:write_atomic", "conftest:write"]
        assert not (out / "runs" / "gradient_mix_train_k2_seed1").exists()
        assert not list(out.rglob(".*.tmp"))
        assert (out / "runs" / "zero_shot_k0_seed1" / "record.json").exists()

    @pytest.mark.parametrize("name", ["surgery_trace.jsonl",
                                      "gradient_mix_train_k2_seed1/.record.json"])
    def test_failed_cell_leaves_no_orphan_chain(self, tmp_path, monkeypatch, name):
        fail_writes_half_way(monkeypatch, name)
        cfg = parse_config(small_config_doc(seeds=(1,)))
        out = tmp_path / "out"
        assert run_experiment(cfg, out) == 1
        assert not (out / "runs" / "gradient_mix_train_k2_seed1").exists()
        record = json.loads((out / "runs" / "zero_shot_k0_seed1" / "record.json").read_text())
        assert sorted(f"models/{p.name}" for p in (out / "models").iterdir()) == sorted(
            set(record["checkpoints"].values()))

    def test_chain_another_unit_shares_survives_a_failed_cell(self, tmp_path, monkeypatch):
        # At alpha 0 a gradient_mix_train chain is bitwise its naive_mix_train
        # twin, so two units, run at once, write the same file.
        fail_writes_half_way(monkeypatch, "gradient_mix_train_k2_seed1/.record.json")
        cfg = parse_config(small_config_doc(
            strategies=("naive_mix_train", "gradient_mix_train"), seeds=(1,), alpha=0.0))
        out = tmp_path / "out"
        assert run_experiment(cfg, out, jobs=2) == 1
        assert not (out / "runs" / "gradient_mix_train_k2_seed1").exists()
        record = json.loads((out / "runs" / "naive_mix_train_k2_seed1" / "record.json").read_text())
        assert sorted(f"models/{p.name}" for p in (out / "models").iterdir()) == sorted(
            set(record["checkpoints"].values())) != []
        assert (out / "aggregate" / "simmatrix_naive_mix_train_k2.csv").exists()

    def test_failure_entries_same_under_jobs(self, tmp_path):
        doc = source_only_doc(tmp_path, ("zero_shot", "gradient_mix_train"), (1, 2))
        cfg = parse_config(doc)
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        assert run_experiment(cfg, out1, jobs=1) == 1
        assert run_experiment(cfg, out2, jobs=2) == 1
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
        failures = json.loads((out1 / "manifest.json").read_text())["failures"]
        assert [f["cell"] for f in failures] == [
            "gradient_mix_train_k2_seed1", "gradient_mix_train_k2_seed2"]
        for f in failures:
            assert f["type"] == "ContractViolation"
            assert "requires at least one target language" in f["error"]
            # made by prefill, raised by the cell that looks the stage up
            assert [frame.rsplit(":", 1)[0] for frame in f["frames"]] == [
                "gradmix.trainer:_made", "gradmix.trainer:_job", "gradmix.trainer:_pool_run"]


class TestStageUnits:
    """The grid splits into units of columns that share no trained stage."""

    GRID = dict(ks=(1, 2), seeds=(1, 2))

    def units(self, strategies):
        cfg = parse_config(small_config_doc(strategies=strategies, **self.GRID))
        task = build_benchmark(cfg)[0]
        return cfg, task, stage_units(cfg, task, grid_cells(cfg))

    def test_units_partition_the_cells(self):
        cfg, _, units = self.units(STRATEGIES)
        cells = [cell for unit in units for cell in unit]
        assert sorted(cells) == sorted(grid_cells(cfg)) and len(set(cells)) == len(cells)

    def test_no_stage_but_a_shot_bank_in_two_units(self):
        cfg, task, units = self.units(STRATEGIES)
        units_of = {}
        for i, unit in enumerate(units):
            for cell in unit:
                for key in trainer.stage_keys(cli.make_plan(cfg, *cell), task).values():
                    units_of.setdefault(key, set()).add(i)
        shared = [key for key, owners in units_of.items() if len(owners) > 1]
        assert shared and {key[0] for key in shared} == {"shots"}  # a key starts with its kind

    @pytest.mark.parametrize("strategies, want", [
        (("ord_fs", "ord_fs_dev"), [["ord_fs_k1", "ord_fs_dev_k1", "ord_fs_k2", "ord_fs_dev_k2"]]),
        (("zero_shot", "mix_ft", "ord_fs_dev"),
         [["zero_shot_k0", "mix_ft_k1", "mix_ft_k2", "ord_fs_dev_k1", "ord_fs_dev_k2"]]),
        (("naive_mix_train", "gradient_mix_train"),
         [["naive_mix_train_k1"], ["naive_mix_train_k2"],
          ["gradient_mix_train_k1"], ["gradient_mix_train_k2"]]),
        (STRATEGIES,
         [["zero_shot_k0", "ord_fs_k1", "ord_fs_dev_k1", "ord_fs_k2", "ord_fs_dev_k2",
           "mix_ft_k1", "mix_ft_k2"],
          ["naive_mix_train_k1"], ["naive_mix_train_k2"],
          ["gradient_mix_train_k1"], ["gradient_mix_train_k2"]]),
    ], ids=["ord-fs-family", "zero-shot-joins-two-step", "one-step-alone", "every-strategy"])
    def test_units_by_column(self, strategies, want):
        _, _, units = self.units(strategies)
        assert [list(dict.fromkeys(f"{s}_k{k}" for s, k, _ in unit)) for unit in units] == want
        for unit in units:  # every seed of a column is in its unit
            assert Counter(cell[:2] for cell in unit) == dict.fromkeys(
                {cell[:2] for cell in unit}, len(self.GRID["seeds"]))


class TestExport:
    def test_export_rebuilds_table(self, tmp_path):
        cfg = parse_config(small_config_doc())
        out = tmp_path / "out"
        run_experiment(cfg, out)
        table_before = (out / "aggregate" / "table.txt").read_text()
        (out / "aggregate" / "table.txt").unlink()
        assert export_artifacts(out) == 0
        assert (out / "aggregate" / "table.txt").read_text() == table_before

    def test_export_rewrites_results_byte_for_byte(self, tmp_path):
        cfg = parse_config(small_config_doc(strategies=("zero_shot", "mix_ft",
                                                        "gradient_mix_train")))
        out = tmp_path / "out"
        assert run_experiment(cfg, out) == 0
        agg = out / "aggregate"
        before = {p.name: p.read_bytes() for p in agg.iterdir()}
        assert sorted(before) == ["report.json", "simmatrix_gradient_mix_train_k2.csv",
                                  "simmatrix_mix_ft_k2.csv", "table.txt"]
        for p in agg.iterdir():
            p.unlink()
        assert export_artifacts(out) == 0
        assert {p.name: p.read_bytes() for p in agg.iterdir()} == before

    def test_run_reads_no_chain_back_and_export_reads_each_chain_once_per_use(
            self, tmp_path, monkeypatch):
        loads, reads = [], []
        load, read_bytes = models.load_checkpoint, Path.read_bytes
        monkeypatch.setattr(models, "load_checkpoint",
                            lambda path: loads.append(Path(path).name) or load(path))
        monkeypatch.setattr(Path, "read_bytes", lambda path: (
            reads.append(path.name) if path.suffix == ".chain" else None) or read_bytes(path))
        out = tmp_path / "out"
        assert run_experiment(parse_config(small_config_doc(
            strategies=("zero_shot", "mix_ft", "gradient_mix_train"))), out) == 0
        # the CSVs take the final states the unit trained; the manifest hashes each chain
        chains = sorted(p.name for p in (out / "models").iterdir())
        assert loads == [] and sorted(reads) == chains
        assert len(chains) == 2 * 3  # per seed: the source, mix_ft's and gradient_mix_train's
        reads.clear()
        assert export_artifacts(out) == 0
        # each chain a record names hashed against the manifest, then the
        # final chain of each mix_ft and gradient_mix_train record parsed once
        records = {p.parent.name: json.loads(p.read_text())
                   for p in (out / "runs").glob("*/record.json")}
        named = [Path(rel).name for r in records.values() for rel in r["checkpoints"].values()]
        finals = [Path(r["checkpoints"]["adapted" if cell.startswith("mix_ft") else "model"]).name
                  for cell, r in records.items() if not cell.startswith("zero_shot")]
        assert sorted(loads) == sorted(finals) and len(set(finals)) == 2 * 2
        assert sorted(reads) == sorted(named + finals) and len(named) == 2 + 2 * 2 + 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_aggregate_failure_recorded_by_run_raised_by_export(self, tmp_path, monkeypatch,
                                                                 jobs):
        write = cli.write_sim_matrix

        def fail(cfg, task, records, finals, out):
            if records[0]["strategy"] != "gradient_mix_train":
                raise RuntimeError(f"similarity failed: {records[0]['strategy']}")
            return write(cfg, task, records, finals, out)

        monkeypatch.setattr(cli, "write_sim_matrix", fail)
        cfg = parse_config(small_config_doc(
            strategies=("zero_shot", "mix_ft", "naive_mix_train", "gradient_mix_train"),
            seeds=(1,)))
        out = tmp_path / "out"
        assert run_experiment(cfg, out, jobs=jobs) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        # no cell fails; the first failing group in (strategy, K) order is named
        [failure] = manifest["failures"]
        assert failure["cell"] == "aggregate"
        assert (failure["type"], failure["error"]) == ("RuntimeError",
                                                       "similarity failed: mix_ft")
        assert failure["frames"][-1].startswith("test_cli:fail:")
        assert len(list((out / "runs").iterdir())) == 4
        # the failing groups leave no CSV; the others are written
        assert sorted(p.name for p in (out / "aggregate").iterdir()) == [
            "report.json", "simmatrix_gradient_mix_train_k2.csv", "table.txt"]
        if jobs > 1:
            assert run_experiment(cfg, tmp_path / "seq", jobs=1) == 1
            assert (out / "manifest.json").read_bytes() == (
                tmp_path / "seq" / "manifest.json").read_bytes()
        with pytest.raises(RuntimeError, match="similarity failed: mix_ft"):
            export_artifacts(out)

    def test_missing_records_listed(self, tmp_path):
        cfg = parse_config(small_config_doc(seeds=(1, 2)))
        out = tmp_path / "out"
        run_experiment(cfg, out)
        removed = out / "runs" / "zero_shot_k0_seed2" / "record.json"
        removed.unlink()
        with pytest.raises(ContractViolation, match="zero_shot_k0_seed2"):
            export_artifacts(out)

    def test_export_on_empty_dir_errors(self, tmp_path):
        with pytest.raises(ContractViolation, match="config.json"):
            export_artifacts(tmp_path / "nothing")

    def test_table_cell_format(self):
        report = {
            "grid": [
                {
                    "strategy": "ord_fs", "k": 5, "seeds": [1], "single_seed": True,
                    "languages": {
                        "s": {"mean": 0.912, "sd": 0.0, "n": 1},
                        "t": {"mean": 0.5, "sd": 0.0123, "n": 1},
                    },
                    "target_langs": ["t"],
                    "macro": {"mean": 0.5, "sd": 0.0123, "n": 1},
                }
            ]
        }
        text = format_table(report, "s")
        assert "91.20 ± 0.00" in text
        assert "50.00 ± 1.23" in text

    def test_source_column_excluded_from_macro(self):
        report = {
            "grid": [
                {
                    "strategy": "ord_fs", "k": 5, "seeds": [1], "single_seed": True,
                    "languages": {
                        "s": {"mean": 1.0, "sd": 0.0, "n": 1},
                        "t": {"mean": 0.0, "sd": 0.0, "n": 1},
                    },
                    "target_langs": ["t"],
                    "macro": {"mean": 0.0, "sd": 0.0, "n": 1},
                }
            ]
        }
        text = format_table(report, "s")
        lines = [l for l in text.splitlines() if l.startswith("ord_fs")]
        assert lines[0].rstrip().endswith("0.00 ± 0.00")


class TestCliMain:
    def test_run_and_export_via_main(self, tmp_path):
        p = write_config(tmp_path, small_config_doc(strategies=("zero_shot",), seeds=(1,)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        assert main(["export", "--out", str(out)]) == 0

    def test_export_of_a_missing_checkpoint_exits_2_naming_it(self, tmp_path, capsys):
        p = write_config(tmp_path, small_config_doc(strategies=("gradient_mix_train",),
                                                    seeds=(1,)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        record = json.loads((out / "runs" / "gradient_mix_train_k2_seed1" / "record.json")
                            .read_text())
        gone = out / record["checkpoints"]["model"]
        gone.unlink()
        capsys.readouterr()
        assert main(["export", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [f"error: {gone}: No such file or directory"]

    @pytest.mark.parametrize("text, error", [
        ('{"strategy": "zero_shot"', "cannot read run record {path}: Expecting ','"),
        ("[1, 2]", "{path}: [1, 2] is not a JSON object"),
    ], ids=["truncated", "json-list"])
    def test_export_of_a_malformed_record_exits_2_naming_it(self, tmp_path, capsys, text,
                                                           error):
        p = write_config(tmp_path, small_config_doc(strategies=("zero_shot",), seeds=(1,)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        path = out / "runs" / "zero_shot_k0_seed1" / "record.json"
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["export", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith("error: " + error.format(path=path))

    @pytest.mark.parametrize("edit", ["empty-record", "edited-chain", "unlisted-config",
                                      "no-manifest", "manifest-without-a-key"])
    def test_export_of_a_tree_unlike_its_manifest_exits_2_naming_the_file(
            self, tmp_path, capsys, edit):
        p = write_config(tmp_path, small_config_doc(seeds=(1,)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        manifest, config = out / "manifest.json", out / "config.json"
        record = out / "runs" / "zero_shot_k0_seed1" / "record.json"
        chain = out / json.loads(record.read_text())["checkpoints"]["model"]
        listed = json.loads(manifest.read_text())
        listed["artifacts"] = [a for a in listed["artifacts"] if a["path"] != "config.json"]
        unlisted = f"{manifest} does not list it with sha256 "
        path, data, error = {  # the file, its new bytes (None: deleted), the error
            "empty-record": (record, b"{}", f"{record}: {unlisted}"),
            "edited-chain": (chain, chain.read_bytes() + b"\n", f"{chain}: {unlisted}"),
            "unlisted-config": (manifest, json.dumps(listed).encode(), f"{config}: {unlisted}"),
            "no-manifest": (manifest, None, f"cannot read manifest {manifest}: "),
            "manifest-without-a-key": (manifest, b'{"artifacts": []}',
                                       f"{manifest}: no 'format_version' key"),
        }[edit]
        if data is None:
            path.unlink()
        else:
            path.write_bytes(data)
        capsys.readouterr()
        assert main(["export", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        assert line.startswith("error: " + error)

    @pytest.mark.parametrize("stray", ["models/ffffffffffffffff.json",
                                       "runs/zero_shot_k0_seed1/extra.txt"],
                             ids=["old-chain", "extra-file"])
    def test_export_of_a_tree_with_a_stray_file_exits_2_naming_it(self, tmp_path, capsys,
                                                                  stray):
        p = write_config(tmp_path, small_config_doc(seeds=(1,)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        (out / stray).write_bytes(b"{}\n")
        capsys.readouterr()
        assert main(["export", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [f"error: {out / stray}: {out / 'manifest.json'} "
                                    "does not list it"]

    def test_export_of_a_refused_chain_leaves_aggregate_as_it_was(self, tmp_path, capsys):
        """The chain of the last similarity group, in the layout of version 3 and
        listed by the manifest: `export` refuses it before it writes anything."""
        p = write_config(tmp_path, small_config_doc(
            strategies=("zero_shot", "mix_ft", "gradient_mix_train"), seeds=(1,)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        record = json.loads((out / "runs" / "mix_ft_k2_seed1" / "record.json").read_text())
        rel = record["checkpoints"]["adapted"]
        chain = out / rel
        old = chain.read_bytes()
        assert old.count(b'"format_version":4') == 1
        chain.write_bytes(old.replace(b'"format_version":4', b'"format_version":3'))
        manifest = out / "manifest.json"
        listed = json.loads(manifest.read_text())
        for entry in listed["artifacts"]:
            if entry["path"] == rel:
                entry["sha256"] = hashlib.sha256(chain.read_bytes()).hexdigest()
        manifest.write_text(json.dumps(listed), encoding="utf-8")
        agg = sorted((out / "aggregate").iterdir())
        assert [f.name for f in agg] == ["report.json", "simmatrix_gradient_mix_train_k2.csv",
                                         "simmatrix_mix_ft_k2.csv", "table.txt"]
        for f in agg:
            os.utime(f, ns=(10**18, 10**18))  # 2001: a rewrite would move it
        before = {f: (f.read_bytes(), f.stat().st_mtime_ns) for f in agg}
        capsys.readouterr()
        assert main(["export", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [f"error: {chain}: a version-3 checkpoint; "
                                    "expected version 4"]
        assert sorted((out / "aggregate").iterdir()) == agg
        assert {f: (f.read_bytes(), f.stat().st_mtime_ns) for f in agg} == before

    def test_each_surgery_trace_agrees_with_its_record(self, tmp_path):
        doc = small_config_doc(strategies=("gradient_mix_train",), ks=(1, 2), seeds=(1, 2))
        doc["plan"].update(source_epochs=4, batch_size=4, lr=0.8)  # so conflicts happen
        p = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        totals = Counter()
        for cell in sorted((out / "runs").iterdir()):
            stats = json.loads((cell / "record.json").read_text())["surgery_stats"]
            lines = (cell / "surgery_trace.jsonl").read_text().splitlines()
            assert len(lines) == stats["steps"] + 1
            header, *rows = map(json.loads, lines)
            assert header == ["step", "picked_lang", "p_value", "conflicted", "applied",
                              "cos_before", "cos_after"]
            rows = [dict(zip(header, row)) for row in rows]
            assert [row["step"] for row in rows] == list(range(stats["steps"]))
            assert sum(row["conflicted"] for row in rows) == stats["conflicted"]
            assert sum(row["applied"] for row in rows) == stats["applied"]
            assert not [row for row in rows if row["applied"] and not row["conflicted"]]
            totals.update(stats)
        # some conflicts were projected and some were not (alpha 0.6)
        assert totals["conflicted"] > totals["applied"] > 0

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_refused(self, tmp_path, capsys, jobs):
        p = write_config(tmp_path, small_config_doc(strategies=("zero_shot",), seeds=(1,)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out), "--jobs", str(jobs)]) == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ContractViolation, match=f"got {jobs}"):
            run_experiment(parse_config(small_config_doc()), out, jobs=jobs)


class TestLockstep:
    """`run` trains the stackable stages of each column in lockstep."""

    DOC = dict(strategies=STRATEGIES, ks=(1, 2), seeds=(1, 2))

    def test_per_run_trainer_trains_no_stackable_stage(self, tmp_path, monkeypatch):
        calls = []
        for name in ("run_source_training", "run_target_adapting", "run_mixed_training"):
            monkeypatch.setattr(trainer, name, lambda *a, name=name, **k: calls.append(name))
        stacks = []
        lockstep = trainer.train_lockstep
        monkeypatch.setattr(trainer, "train_lockstep",
                            lambda runs: stacks.append(len(runs)) or lockstep(runs))
        out = tmp_path / "out"
        assert run_experiment(parse_config(small_config_doc(**self.DOC)), out) == 0
        assert calls == []
        # in column order: the source, the ord_fs family (2 seeds x 2 targets)
        # per K, then mix_ft, naive and gradient per K (2 seeds each)
        assert stacks == [2] + [2 * 2] * 2 + [2] * 3 * 2

    def test_each_stage_dropped_after_its_last_column(self, tmp_path, monkeypatch):
        held = []  # (column, kinds held) when each column's prefill starts
        prefill = trainer.prefill

        def spy(plans, task, stages):
            if len(plans) > 1:  # a column's prefill, not a cell's own of its one plan
                kinds = Counter(key[0] + (f"_k{key[2]}" if key[0] == "shots" else "")
                                for key in stages)
                held.append((f"{plans[0].strategy}_k{plans[0].k}", dict(kinds)))
            prefill(plans, task, stages)

        monkeypatch.setattr(trainer, "prefill", spy)
        assert run_experiment(parse_config(small_config_doc(**self.DOC)), tmp_path / "o") == 0
        # each unit has its own stages; ord_fs and ord_fs_dev at one K are one
        # column, so no adapt stage is held when a column starts
        source = {"source": 2}
        assert held == [
            ("zero_shot_k0", {}),
            ("ord_fs_k1", source),
            ("ord_fs_k2", dict(source, shots_k1=2)),
            ("mix_ft_k1", dict(source, shots_k1=2, shots_k2=2)),
            ("mix_ft_k2", dict(source, shots_k2=2)),
            ("naive_mix_train_k1", {}),
            ("naive_mix_train_k2", {}),
            ("gradient_mix_train_k1", {}),
            ("gradient_mix_train_k2", {}),
        ]

    def test_each_shot_bank_drawn_once_per_chunk(self, tmp_path, monkeypatch):
        draws = []
        sample = corpora.sample_k_shots
        monkeypatch.setattr(corpora, "sample_k_shots",
                            lambda c, k, rng: draws.append(k) or sample(c, k, rng))
        cfg = parse_config(small_config_doc(**self.DOC))
        out = tmp_path / "out"
        assert run_experiment(cfg, out) == 0
        # before --out exists: one bank of 2 targets per K; cells: one per
        # (seed, K) of each unit (2 K in the two-step unit, 1 in each of the
        # 4 one-step units); the similarity CSVs: one per (strategy, K) group
        # of mix_ft, naive_mix_train and gradient_mix_train, each drawn where
        # its group is written
        assert len(draws) == 2 * 2 + (2 + 4) * 2 * 2 + 3 * 2 * 2
        task, _ = build_benchmark(cfg)
        for cell in grid_cells(cfg):
            record = json.loads((out / "runs" / cli.cell_name(*cell) / "record.json").read_text())
            want = {} if cell[0] == "zero_shot" else {
                lang: list(idx) for lang, idx in corpora.build_shot_bank(
                    task.targets, cell[1], "k_shot", 3, RngStreams(cell[2])).items()}
            assert record["shot_indices"] == want

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_cell_failing_inside_a_stack_fails_as_alone(self, tmp_path, monkeypatch):
        """Seed 2's initial state overflows the forward pass: its stacks
        raise and are trained again job by job, so each cell fails as it
        does with every run trained alone."""
        init = trainer.init_params

        def init_params(spec, rng):
            state = init(spec, rng)
            if rng.master_seed != 2:
                return state
            return models.ModelState(spec, np.full(spec.param_dim, 1.5e308))

        monkeypatch.setattr(trainer, "init_params", init_params)
        cfg = parse_config(small_config_doc(**self.DOC))
        out, ref = tmp_path / "out", tmp_path / "ref"
        assert run_experiment(cfg, out) == 1
        monkeypatch.setattr(trainer, "stackable", lambda runs: len(runs) == 1)
        assert run_experiment(cfg, ref) == 1
        failures = json.loads((out / "manifest.json").read_text())["failures"]
        assert failures == json.loads((ref / "manifest.json").read_text())["failures"]
        assert {f["cell"].rsplit("_", 1)[1] for f in failures} == {"seed2"}
        assert {f["error"] for f in failures} == {"non-finite loss"}
        assert len(failures) == 1 + 5 * 2  # zero_shot, and every other strategy per K
        assert (out / "manifest.json").read_bytes() == (ref / "manifest.json").read_bytes()
        assert len(list((out / "runs").iterdir())) == 1 + 5 * 2  # seed 1's cells


class TestBenchmarkTracer:
    """The benchmark's tracer wraps program functions by name; a run under it
    must still reach them."""

    @staticmethod
    def traced_run(tmp_path, doc):
        """Run `doc` under the tracer; returns the tracing module, the spans
        file and the run tree."""
        spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        config = write_config(tmp_path, doc)
        spans, out = tmp_path / "spans.npz", tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(spans),
             "run", "--config", str(config), "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "manifest.json").read_text())["failures"] == []
        return tracing, spans, out

    def test_traced_run_counts_checkpoint_io(self, tmp_path):
        tracing, spans, out = self.traced_run(tmp_path, small_config_doc(
            strategies=("zero_shot", "ord_fs", "gradient_mix_train"), seeds=(1,)))
        metrics = tracing.layer_metrics(tracing.load_spans(str(spans)))
        files = list((out / "models").iterdir())
        # zero_shot's chain is ord_fs's source chain: stored once
        assert metrics["models.save_checkpoint.calls"] == len(files) == 1 + 2 + 1
        assert metrics["models.save_checkpoint.bytes"] == sum(p.stat().st_size for p in files)
        assert metrics["models.load_checkpoint.calls"] == 0  # `run` reads no chain back
        # The training loop's surgery decision calls the wrapped `surgery.dot`,
        # and a single run takes its batches from the wrapped `trainer.batch_iter`.
        calls = {name: row["calls"] for name, row in
                 tracing.span_table(tracing.load_spans(str(spans))).items()}
        for name in ("numcore.dot[surgery]", "corpora.batch_iter"):
            assert calls[name] > 0, name

    def test_traced_lockstep_run_completes(self, tmp_path):
        # Two seeds on dense pools: every stage is trained in lockstep, off
        # the per-run entry points the tracer counts at.
        tracing, spans, out = self.traced_run(tmp_path, small_config_doc(
            strategies=STRATEGIES, seeds=(1, 2)))
        metrics = tracing.layer_metrics(tracing.load_spans(str(spans)))
        assert metrics["models.save_checkpoint.calls"] == len(list((out / "models").iterdir()))
        assert metrics["cli.run_cell.s_p50"] > 0
