"""The scripts under scripts/ run outside every suite, so a refactor that
renames or deletes a name they use would go unnoticed until someone runs
them. Parse each with ast and check that every mf_readout name it
imports, and every attribute it reads or rebinds on an imported
mf_readout module or name, exists."""

import ast
import importlib
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _missing_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    bound, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mf_readout":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        bound[alias.asname] = module
                    else:  # a plain "import mf_readout.x" binds the package
                        bound["mf_readout"] = importlib.import_module("mf_readout")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mf_readout":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    bound[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    missing.append(f"{node.module}.{alias.name}")

    def resolve(node):
        """The object an attribute chain on a bound name reads, or None."""
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if owner is None:
                return None
            if not hasattr(owner, node.attr):
                missing.append(f"{ast.unparse(node.value)}.{node.attr}")
                return None
            return getattr(owner, node.attr)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
    return sorted(set(missing))


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_every_package_name_a_script_uses_exists(path):
    assert _missing_names(path) == []


def test_the_check_finds_a_missing_name(tmp_path):
    script = tmp_path / "s.py"
    script.write_text(
        "import mf_readout as mf\nfrom mf_readout import train, fit_ridge, gone\n"
        "from mf_readout.train import TrainingData\n"
        "train._window_systems(None)\ntrain._fill_solves = None\nmf.nope()\n"
        "TrainingData.release_train_block\nTrainingData.missing_method\nfit_ridge.__name__\n"
    )
    assert _missing_names(script) == [
        "TrainingData.missing_method", "mf.nope", "mf_readout.gone", "train._fill_solves",
    ]
