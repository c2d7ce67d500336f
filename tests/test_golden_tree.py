"""A whole run tree, pinned: the sha256 of every file, names included, that
`gradmix run` writes for one small synthetic grid (every strategy, K 1 and
2, seeds 1 and 2), at `--jobs 1` and at `--jobs 2`. A change to any byte
of any artifact fails here, from the layout of a record or a chain file to
a single bit of a trained model. Like `test_numeric_pins.py`, the pins hold
for the machine they were made on. A change that moves them on purpose
makes them again with

    PYTHONPATH=src python tests/test_golden_tree.py

which prints the `PINS` table, and says in its change notes why they moved."""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from gradmix.cli import main
from gradmix.trainer import STRATEGIES

from test_cli import small_config_doc

DOC = small_config_doc(strategies=STRATEGIES, ks=(1, 2), seeds=(1, 2))

PINS = {
    "aggregate/report.json":
        "a84f4c109c3129e277ff8c6f493f50e35e2053dad2151b8f9a3b4f928a168c86",
    "aggregate/simmatrix_gradient_mix_train_k1.csv":
        "89cdf33c6796a4f6d4b39cbb15e87641af49db604dca0da8876e03830fbfbaae",
    "aggregate/simmatrix_gradient_mix_train_k2.csv":
        "c1e0a2b974baf921d94dcc98d28526571f552bdbfce8a5fd47cde2c29c8fed72",
    "aggregate/simmatrix_mix_ft_k1.csv":
        "bd67cdae463953706afe8de5d9fdd049b1ea86d2548ec3df245ccd6ca1c2f1d9",
    "aggregate/simmatrix_mix_ft_k2.csv":
        "050b340faba8197ca33113766e5f43d0eb97a7393d612cac5b3ee7b5f8909b12",
    "aggregate/simmatrix_naive_mix_train_k1.csv":
        "89cdf33c6796a4f6d4b39cbb15e87641af49db604dca0da8876e03830fbfbaae",
    "aggregate/simmatrix_naive_mix_train_k2.csv":
        "c1e0a2b974baf921d94dcc98d28526571f552bdbfce8a5fd47cde2c29c8fed72",
    "aggregate/table.txt":
        "d03a7d0fec9802829e34c288f2ede3b648afb53e762bbc305796bf67affaba37",
    "benchmark/manifest.json":
        "b995c905532d8d919978753c0b59ec9d66eb26b4106d588b61255aab6998c413",
    "config.json":
        "504f912cbe1b762779cf6554886cac8dd518bc934494bc271b80d93ec1fdf4e0",
    "manifest.json":
        "611fe91f5c52d667e1b5c5bc141163189da2a7a102f52be4631f399667cc2ba4",
    "models/03000e20bd40023c.chain":
        "a71ab890dd96ad5e935153875f5e0d66c5b761c12260fed01e9edd986558ec5d",
    "models/136c022c6225a73d.chain":
        "707c234be52fa1da009e3e96571666573e53b6db2dda14ac10a051cc6fcd1f34",
    "models/1dece533c2475108.chain":
        "3ec733709d86259e12cfcc84fb2aae86551bc541108482a3a931695de8ebe672",
    "models/27afbcb0b2c3a5fc.chain":
        "80eac7fd090dd2084f6d267dcc9269e993fe68ae9295b00fd0d526acd5122021",
    "models/297d874b2af7d08c.chain":
        "3513c01c030fe94912cdc5267d47943e63745a7ba1c86ac0f8b4f750e012c68b",
    "models/31d8e409e1ab8273.chain":
        "ac5865a6dbf1d243c337fb23f702874f7517ca5325efa15379fe79ff8e980c07",
    "models/a0ce0931bfec8449.chain":
        "70f8e8694bbfb908de177c5c2f7a1a3cfeea95f2ae1e583b1c096bc052227e99",
    "models/a69271d8ba5c3bdf.chain":
        "c5ce66776cc8dbc33106d804fa48c428e6c5c9ad9738262448f3eeafbcb79b24",
    "models/ac1bb8f48da6c717.chain":
        "d2e794da4aaff9a47e71e554a698a7dedc26973fd4e823562be8b4d2da03b2e7",
    "models/af917d54707bb7a3.chain":
        "1926039b3fe7f17d396946c486e1cf6c48567547e97d9339e36767ffe2903633",
    "models/bedf4e078afb7b86.chain":
        "ffd6da78ed058fe0f333a751e7120057fe294e8887feb6c72f6708f8205b7821",
    "models/c0919d51e3d871c9.chain":
        "bf78dad87b2aa865c9f0e5d5b79bbddf3ac69c579bbb72af4e5d77007d118be5",
    "models/d0602072f4140cd0.chain":
        "ab9b156a9d81ead77eb75faa47c6da5eeea96987df6312dc34ce4cccdf7f8645",
    "models/d06c6507383f126b.chain":
        "ccf54cbdbc789ceb37162d461356ec1b35c7453332358b581a8c784d44ce2de8",
    "models/d67d245a28fe8d75.chain":
        "63bf6b298d48c540922edea58f2c25aaca42838cea2f2ec081f7f7597d6b9d6f",
    "models/d9b293f19f4c049c.chain":
        "d08594d77a0a1852d5814e6a9f614a2bdc0a54c35288c3eaede7c88ef17ce9d9",
    "models/e114de6d940bace3.chain":
        "91a79d40212909b147e1b86410c1b3708a3b9e7bd4831c89401f653e36fbf4f2",
    "models/eea5bc5788cb2c2f.chain":
        "d96b8a7b61ef428acea7d15f5c592190f26a76a68ed2a5ceecf2ccc7fbee4364",
    "runs/gradient_mix_train_k1_seed1/record.json":
        "a8cd69ca5ea9b829a9f8b32aba7ab2f974142f60d4a1fc91d938195f8cb153cc",
    "runs/gradient_mix_train_k1_seed1/surgery_trace.jsonl":
        "9942e0364fa63b29a59b5824a72653116b723c48923f345f1db430d66ce4129c",
    "runs/gradient_mix_train_k1_seed2/record.json":
        "c0de40f2d7f29b3da9b116e31c05650eddc6b33925889d4073b24b3556c5c920",
    "runs/gradient_mix_train_k1_seed2/surgery_trace.jsonl":
        "c1a06c0a080a328080c92cd15b68a9a11813a2014ff6c7d5709c8dbc9fc05bc4",
    "runs/gradient_mix_train_k2_seed1/record.json":
        "990c72a2d8568e7d44bed4521e9a1f123e81eb6a1d1214636e7a1c879298be90",
    "runs/gradient_mix_train_k2_seed1/surgery_trace.jsonl":
        "27aa78b9531fe72367f983ce6efeb3de1800abfe5f3c3130b8539a09075defa8",
    "runs/gradient_mix_train_k2_seed2/record.json":
        "aca3e23297c8e870e13e3705891fda3d91cb4b358b542183c83d3318e423253d",
    "runs/gradient_mix_train_k2_seed2/surgery_trace.jsonl":
        "224a419a80b2ecf7675395274071301dafeead51280b4bc5c23180282a1a6354",
    "runs/mix_ft_k1_seed1/record.json":
        "348d795ae110acec4121a5c5a6b1236e22f3589399f89814e5093d35f5fc03df",
    "runs/mix_ft_k1_seed2/record.json":
        "ef79eff0f2098e065d6ccbb4aa117fdb5719e49c4878942c51de196d51845250",
    "runs/mix_ft_k2_seed1/record.json":
        "4de32f7f3834510bff86d7b7083bec13936c42949a6d943c44bc3e85fb4d1aea",
    "runs/mix_ft_k2_seed2/record.json":
        "59c137b1bc153da8fc1d9ce0d4a98b5be65b172d5b2a062d7aa9218652f916d9",
    "runs/naive_mix_train_k1_seed1/record.json":
        "cd97da11a852588405ddfec51b7368637b12519832e8e9421a84df65cfde08a5",
    "runs/naive_mix_train_k1_seed2/record.json":
        "afc9c25bc56d0b7311c33cc8c7f399b8817983ab047526275a942c18fb744106",
    "runs/naive_mix_train_k2_seed1/record.json":
        "c5353626892b22450fc2909a0c2baf8eef9e0d021ede9ec740319d973dc1e706",
    "runs/naive_mix_train_k2_seed2/record.json":
        "76667748365c95f112dc9b2a12a61928792d996d87123ede16b4093713f4bdcd",
    "runs/ord_fs_dev_k1_seed1/record.json":
        "7e80ba839403143d9b734667482c8066ff1c833c05bea02c450d9fc393ad0945",
    "runs/ord_fs_dev_k1_seed2/record.json":
        "dd090097797706e66e5e4fe15086552fabdc95e8a1270283037bc6c8463d95fd",
    "runs/ord_fs_dev_k2_seed1/record.json":
        "884749ce2b3c74b83ef1f9197e4f6ffa1c1095113306a6721c3eacf6b6ec86e2",
    "runs/ord_fs_dev_k2_seed2/record.json":
        "9a865374edd206593153cc8b44d72f1ed8e7d0ba58e49fa42071bd0be15e5677",
    "runs/ord_fs_k1_seed1/record.json":
        "43eda781f9067f88c17b21e3da25f88929dde4e510ee4c8cf095da14eeff615a",
    "runs/ord_fs_k1_seed2/record.json":
        "004ec785d88f82b43f86850ab244ce192dcdaa5261c985f9a0dbde8684a48b18",
    "runs/ord_fs_k2_seed1/record.json":
        "5ac346a0bae5731ce20c8f4962976c91ff4ef7959f7ab308f5394ecaa9179be9",
    "runs/ord_fs_k2_seed2/record.json":
        "34954ba5adc1dee8ac1c440e35f87666c5016468bb4df0a5e0c26b2a547148e1",
    "runs/zero_shot_k0_seed1/record.json":
        "66f358af859d1bc9aaf5c8123088b2c9f412f5c9e0a4405330493ff21b6d16d8",
    "runs/zero_shot_k0_seed2/record.json":
        "4d62478194c5b8e20bd02bcfc70a7488ac5bd8e955716167bed1c501352a9871",
}


def tree_digests(work: Path, jobs: int) -> dict:
    """Path -> sha256 of every file of a `gradmix run` of `DOC` at `jobs`."""
    config, out = work / "config.json", work / f"jobs{jobs}"
    config.write_text(json.dumps(DOC), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(out), "--jobs", str(jobs)]) == 0
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_file_of_the_run_tree_is_pinned(tmp_path, jobs):
    assert tree_digests(tmp_path, jobs) == PINS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = tree_digests(Path(work), jobs=1)
    print("PINS = {")
    for path, digest in digests.items():
        print(f'    "{path}":\n        "{digest}",')
    print("}")
