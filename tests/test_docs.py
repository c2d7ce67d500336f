"""Every backticked `module.name` (or `gradmix.module.name`) in README.md
and in the package's docstrings and comments names an attribute of that
gradmix module, so a deletion or a rename that leaves a document citing the
old name fails here. A config key that a key table states, such as
`analysis.seed`, names no attribute and is left out."""

import importlib
import re
from pathlib import Path

import pytest

from gradmix import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gradmix"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
REFERENCE = re.compile(r"`(?:gradmix\.)?(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*)")
DOCUMENTS = [ROOT / "README.md", *sorted(SRC.glob("*.py"))]


def stale_references(text: str):
    """Each backticked `module.name` of `text` that is neither an attribute
    of `gradmix.module` nor a key of the config table named `module`."""
    return [f"{module}.{name}" for module, name in REFERENCE.findall(text)
            if name not in cli.CONFIG.get(module, {})
            and not hasattr(importlib.import_module(f"gradmix.{module}"), name)]


@pytest.mark.parametrize("path", DOCUMENTS, ids=[p.name for p in DOCUMENTS])
def test_every_module_reference_resolves(path):
    stale = stale_references(path.read_text(encoding="utf-8"))
    assert not stale, f"{path.name} names what its module lacks: {', '.join(stale)}"


def test_the_check_sees_a_stale_reference():
    text = ("`corpora.GoneProfile`, `gradmix.cli.gone_dict()`, `cli.parse_config`, "
            "`analysis.seed`, `analysis.nope`, `plan.lr`, trainer.gone")
    assert stale_references(text) == ["corpora.GoneProfile", "cli.gone_dict", "analysis.nope"]
