"""Tests of the benchmark's own logic: the output check, the seeded inputs
and the span arithmetic. Run with `python3 -m pytest perfbench/tests`."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCES = json.loads((HERE / "references.json").read_text())


def fake_tree(root: Path, report: str = '{"grid": []}\n', failures=()) -> Path:
    """A minimal finished run tree."""
    (root / "aggregate").mkdir(parents=True)
    (root / "aggregate" / "report.json").write_text(report)
    (root / "aggregate" / "simmatrix_mix_ft_k1.csv").write_text("lang,a\na,1.0\n")
    ck = root / "runs" / "mix_ft_k1_seed1" / "checkpoints" / "adapted"
    ck.mkdir(parents=True)
    (ck / "epoch_0000.json").write_text("{}\n")
    (root / "runs" / "mix_ft_k1_seed1" / "record.json").write_text("{}\n")
    (root / "manifest.json").write_text(
        json.dumps({"format_version": 1, "artifacts": [], "failures": list(failures)}))
    return root


@pytest.fixture
def good(tmp_path):
    tree = fake_tree(tmp_path / "good")
    return tree, check.result_hashes(tree)


def test_check_accepts_a_matching_tree(good):
    tree, hashes = good
    assert check.check_repeat(0, tree, (tree / "manifest.json").read_bytes(),
                              check.artifact_counts(tree), hashes) == []


def test_check_rejects_a_tampered_report(good):
    tree, hashes = good
    (tree / "aggregate" / "report.json").write_text('{"grid": [1]}\n')
    problems = check.check_repeat(0, tree, expected_hashes=hashes)
    assert problems == ["aggregate/report.json differs from its reference hash"]


def test_check_rejects_a_missing_simmatrix(good):
    tree, hashes = good
    (tree / "aggregate" / "simmatrix_mix_ft_k1.csv").unlink()
    assert check.check_repeat(0, tree, expected_hashes=hashes) == [
        "aggregate/simmatrix_mix_ft_k1.csv is missing"]


def test_check_rejects_a_nonzero_exit(good):
    tree, hashes = good
    assert check.check_repeat(1, tree, expected_hashes=hashes) == ["exit status 1"]


def test_check_rejects_manifest_failures(tmp_path):
    tree = fake_tree(tmp_path / "t", failures=[{"cell": "ord_fs_k1_seed1", "error": "x"}])
    assert check.check_repeat(0, tree) == ["manifest lists 1 failure(s): ord_fs_k1_seed1"]


def test_check_rejects_a_differing_manifest(good, tmp_path):
    tree, _ = good
    other = fake_tree(tmp_path / "other")
    (other / "manifest.json").write_text(
        json.dumps({"format_version": 1, "artifacts": [{"path": "x", "sha256": "0"}],
                    "failures": []}))
    assert check.check_repeat(0, tree, manifest_ref=(other / "manifest.json").read_bytes()) == [
        "manifest.json differs from the reference manifest"]


def test_check_rejects_a_missing_manifest(tmp_path):
    problems = check.check_repeat(0, tmp_path)
    assert len(problems) == 1 and problems[0].startswith("unreadable manifest")


def test_artifact_counts_by_kind(good):
    tree, _ = good
    counts = check.artifact_counts(tree)
    assert {k: c["files"] for k, c in counts.items()} == {
        "checkpoint": 1, "trace": 0, "record": 1, "aggregate": 2, "other": 1}
    assert counts["record"]["bytes"] == 3


def test_tagger_corpora_are_byte_deterministic(tmp_path):
    a = workloads.write_tagger_corpora(workloads.DEFAULT_SEED, tmp_path / "a")
    b = workloads.write_tagger_corpora(workloads.DEFAULT_SEED, tmp_path / "b")
    c = workloads.write_tagger_corpora(workloads.DEFAULT_SEED + 1, tmp_path / "c")
    assert a == b == c  # same file names and config block for every seed
    files_a = dict(workloads.input_files(tmp_path / "a"))
    files_b = dict(workloads.input_files(tmp_path / "b"))
    files_c = dict(workloads.input_files(tmp_path / "c"))
    assert len(files_a) == 15
    for name in files_a:
        assert files_a[name].read_bytes() == files_b[name].read_bytes()
    assert any(files_a[n].read_bytes() != files_c[n].read_bytes() for n in files_a)
    assert {n: check.sha256_file(p) for n, p in files_a.items()} == REFERENCES["inputs"]["tagger-tsv"]


def test_tagger_token_count_is_the_same_for_every_seed(tmp_path):
    def tokens(seed):
        workloads.write_tagger_corpora(seed, tmp_path / str(seed))
        return {n: sum(1 for line in p.read_text().splitlines() if line)
                for n, p in workloads.input_files(tmp_path / str(seed))}
    assert tokens(1) == tokens(2) == tokens(77)


def test_grid_default_at_the_default_seed_is_the_shipped_config(tmp_path):
    shipped = json.loads((HERE.parent / "configs" / "default.json").read_text())
    for name in ("grid-default", "grid-default-j2"):
        assert workloads.make_config(name, workloads.DEFAULT_SEED, tmp_path) == shipped


def test_other_seeds_change_only_the_grid_seeds(tmp_path):
    a = workloads.make_config("grid-default", 1, tmp_path)
    b = workloads.make_config("grid-default", 9, tmp_path)
    assert a["grid"]["seeds"] != b["grid"]["seeds"] and len(b["grid"]["seeds"]) == 5
    b["grid"]["seeds"] = a["grid"]["seeds"]
    assert a == b


def test_self_time_subtracts_child_spans():
    spans = {
        "names": np.array(["cli.run_experiment", "trainer.evaluate", "models.predict"]),
        "name": np.array([0, 1, 2, 2], dtype=np.int32),
        "start": np.array([0.0, 1.0, 2.0, 4.0]),
        "end": np.array([10.0, 6.0, 3.0, 4.5]),
        "parent": np.array([-1, 0, 1, 1], dtype=np.int32),
    }
    table = tracing.span_table(spans)
    assert table["cli.run_experiment"]["self_s"] == pytest.approx(5.0)
    assert table["trainer.evaluate"]["self_s"] == pytest.approx(3.5)
    assert table["models.predict"]["calls"] == 2
    assert table["models.predict"]["s"] == pytest.approx(1.5)


def test_benchmark_json_matches_the_workloads():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]


def test_reference_key_follows_the_generated_inputs(tmp_path):
    import run

    keys = {}
    for name, workload, seed in (("a", "grid-default", 3), ("b", "grid-default-j2", 3),
                                 ("c", "grid-default", 4), ("t", "tagger-tsv", 3)):
        workloads.write_config(workload, seed, tmp_path / name)
        keys[name] = run.inputs_key(tmp_path / name)
    assert keys["a"] == keys["b"]  # the --jobs twins share one reference
    assert len({keys["a"], keys["c"], keys["t"]}) == 3
    (tmp_path / "t" / "corpora" / "src.dev.tsv").write_text("0.0\t0\n")
    assert run.inputs_key(tmp_path / "t") != keys["t"]
