"""The scripts under scripts/ run outside every suite, so a refactor that
renames or deletes a name they use would go unnoticed until someone runs
them. Parse each with ast and check that every mf_readout name it
imports, and every attribute it reads or rebinds on an imported
mf_readout module or name, exists. The --against checks of locate_table,
sweep_parity and solve_table also run here, on synthetic rows and
manifests."""

import ast
import importlib
import importlib.util
import json
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


def _locate_table(monkeypatch):
    """scripts/locate_table.py as a module, over one preset, one stack
    size and two seeds."""
    spec = importlib.util.spec_from_file_location("locate_table", SCRIPTS / "locate_table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "PRESETS", {"default": None})
    monkeypatch.setattr(module, "FRAMES", (600,))
    monkeypatch.setattr(module, "SEEDS", range(2))
    return module


@pytest.mark.parametrize("flip, exit_code", [(None, 0), ("fallbacks", 1), ("centers", 1), ("error", 1)])
def test_locate_table_against_exits_1_when_an_outcome_changes(tmp_path, monkeypatch, capsys, flip, exit_code):
    module = _locate_table(monkeypatch)

    def row(preset, n_images, seed):
        return {
            "preset": preset, "frames": n_images, "seed": seed, "ms": 1.0, "centers": [[8.0, 8.0], [8.0, 14.0]],
            "sigmas": [1.8, 1.8], "fallbacks": [False, False], "center_err": 0.1, "sigma_err": 0.01,
        }

    prev = [row("default", 600, seed) for seed in range(2)]
    if flip == "fallbacks":
        prev[1]["fallbacks"] = [False, True]
    elif flip == "centers":
        prev[1]["centers"] = [[8.0, 8.0], [8.0, 14.000000000000002]]
    elif flip == "error":
        prev[1] = {"preset": "default", "frames": 600, "seed": 1, "ms": 1.0, "error": "sites could not be located"}
    against = tmp_path / "prev.json"
    against.write_text(json.dumps(prev))
    monkeypatch.setattr(module, "locate_one", row)
    assert module.main(["--against", str(against)]) == exit_code
    assert ("seed 1" in capsys.readouterr().out) == (exit_code == 1)


@pytest.mark.parametrize("change, exit_code", [(None, 0), ("digest", 1), ("missing", 1)])
def test_sweep_parity_against_exits_1_when_a_file_differs(tmp_path, monkeypatch, capsys, change, exit_code):
    spec = importlib.util.spec_from_file_location("sweep_parity", SCRIPTS / "sweep_parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    prev = {"default/sweep.csv": "a" * 64, "default/cache/0123.qimg": "b" * 64}
    now = dict(prev)
    if change == "digest":
        now["default/sweep.csv"] = "c" * 64
    elif change == "missing":
        del now["default/cache/0123.qimg"]
    against = tmp_path / "prev.json"
    against.write_text(json.dumps(prev))
    monkeypatch.setattr(module, "sweep_manifest", lambda: now)
    assert module.main(["--against", str(against), "--out", str(tmp_path / "now.json")]) == exit_code
    assert json.loads((tmp_path / "now.json").read_text()) == now
    out = capsys.readouterr().out
    assert ("changed: default/sweep.csv" in out) == (change == "digest")
    assert ("missing: default/cache/0123.qimg" in out) == (change == "missing")


def _solve_rows(theta=0.5, error=None):
    site = {"error": error} if error else {"s": 3, "theta": theta, "weights": [1.0, -2.0]}
    return {"default seed 0 alpha 0": {"mf-site": {"0": site, "1": {"error": "no window fits"}}}}


@pytest.mark.parametrize("now, saved, differ", [
    (_solve_rows(), _solve_rows(), 0),
    (_solve_rows(theta=0.51), _solve_rows(), 1),
    (_solve_rows(error="ridge solve produced non-finite weights"), _solve_rows(), 1),
    (_solve_rows(), {}, 2),
])
def test_solve_table_against_exits_1_when_a_choice_changes(monkeypatch, tmp_path, now, saved, differ):
    spec = importlib.util.spec_from_file_location("solve_table", SCRIPTS / "solve_table.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    text, count = module.compare(now, saved)
    assert count == differ
    assert text.startswith(f"2 site models compared: {differ} differ")
    monkeypatch.setattr(module, "PRESETS", {})
    monkeypatch.setattr(module, "compare", lambda rows, prev: ("", differ))
    against = tmp_path / "prev.json"
    against.write_text(json.dumps(saved))
    assert module.main(["--against", str(against)]) == (1 if differ else 0)
