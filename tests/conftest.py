import builtins

import pytest

from gradmix import models
from gradmix.corpora import LanguageProfile, SyntheticProfile, default_benchmark


@pytest.fixture(scope="session")
def bench():
    """Shipped benchmark corpora and manifest, generated once per session."""
    corpora, manifest = default_benchmark()
    return corpora, manifest


def tiny_profile(n_targets=2, seed=3, train=60, identical=False):
    """Small fast synthetic world for unit tests."""
    langs = [LanguageProfile("s", "sc0", "source", 0.0, (0.0, 0.0), train, 30, 30)]
    for i in range(n_targets):
        angle = 0.0 if identical else 15.0
        trans = (0.0, 0.0) if identical else (0.3 * (i + 1), 0.1)
        langs.append(
            LanguageProfile(f"t{i}", "sc1", "target", angle, trans, train, 30, 30)
        )
    return SyntheticProfile(
        languages=tuple(langs), num_classes=3, input_dim=2, mean_radius=2.0,
        noise_sd=0.8, seed=seed,
    )


def fail_writes_half_way(monkeypatch, name=""):
    """Make `models.write_atomic` stop with an OSError half-way through
    writing any file whose path contains `name`."""

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError("no space left on device")

    def open_failing(path, *args, **kw):
        fh = builtins.open(path, *args, **kw)
        return HalfWriter(fh) if name in str(path) else fh

    monkeypatch.setattr(models, "open", open_failing, raising=False)
