import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mf_readout
from mf_readout import RunConfig, default_config, load_models
from mf_readout.cli import main
from mf_readout.train import count_complexity


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One pass through the staged commands on a small stack."""
    tmp = tmp_path_factory.mktemp("cli")
    raw = tmp / "raw"
    pre = tmp / "pre"
    geometry = tmp / "geometry.json"
    models = tmp / "models"
    report = tmp / "report"

    assert main([
        "simulate", "--preset", "default", "--n-images", "200", "--seed", "3",
        "--out", str(raw),
    ]) == 0
    assert main(["preprocess", "--in", str(raw), "--out", str(pre)]) == 0
    assert main([
        "locate", "--in", str(pre), "--sites", "9", "--out", str(geometry),
    ]) == 0
    assert main([
        "train", "--in", str(pre), "--kind", "square", "--geometry", str(geometry),
        "--labels", "truth", "--out", str(models),
    ]) == 0
    assert main([
        "evaluate", "--models", str(models), "--in", str(pre), "--labels", "truth",
        "--out", str(report),
    ]) == 0
    return tmp


def test_chain_artifacts(chain):
    assert (chain / "raw.qimg").exists()
    assert (chain / "raw.json").exists()
    assert (chain / "pre.qimg").exists()
    assert (chain / "pre_stats.json").exists()
    geometry = json.loads((chain / "geometry.json").read_text())
    assert [site["site"] for site in geometry] == list(range(1, 10))
    assert len(list((chain / "models").glob("square_site*.json"))) == 9
    header = (chain / "report" / "fidelity.csv").read_text().splitlines()[0]
    assert header == "site,kind,F,stderr"


def test_preprocess_stats_record_the_split(chain):
    payload = json.loads((chain / "pre_stats.json").read_text())
    assert payload["split_seed"] == 0
    assert payload["crop"] is None
    assert set(payload["stats"]) == {"train_mean", "train_range"}


def test_classify_emits_one_row_per_frame(chain, tmp_path):
    preds = tmp_path / "preds.csv"
    model = chain / "models" / "square_site5.json"
    assert main([
        "classify", "--model", str(model), "--in", str(chain / "pre"),
        "--out", str(preds),
    ]) == 0
    lines = preds.read_text().splitlines()
    assert lines[0] == "frame,site,y_hat,y_bin"
    assert len(lines) == 1 + 200
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "5"
    assert first[3] in ("0", "1")


def test_complexity_matches_library_counts(chain, tmp_path):
    out = tmp_path / "complexity.csv"
    assert main(["complexity", "--models", str(chain / "models"), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    counts = count_complexity(load_models(chain / "models")["square"])
    assert lines[1] == "square,{n_trainable},{n_multiplications},{n_nonlinear}".format(**counts)


def test_sweep_then_plot_reproduces_the_chart(tmp_path):
    run = RunConfig(
        sim=default_config(n_images=260, seed=0),
        output_dir=str(tmp_path / "out"),
        exposure_sweep_ms=(20.0,),
        kinds=("square",),
        n_shuffles=2,
        label_source="truth",
    )
    config_path = tmp_path / "run.json"
    run.save(config_path)
    assert main(["sweep", "--config", str(config_path)]) == 0
    out = Path(run.output_dir)
    replot = tmp_path / "replot.svg"
    assert main(["plot", "--in", str(out / "sweep.csv"), "--out", str(replot)]) == 0
    assert replot.read_bytes() == (out / "sweep.svg").read_bytes()


def test_exit_codes_map_error_kinds(tmp_path, capsys):
    rc = main(["locate", "--in", str(tmp_path / "missing"), "--sites", "9",
               "--out", str(tmp_path / "g.json")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err

    rc = main([
        "train", "--in", str(tmp_path / "missing"), "--kind", "square",
        "--geometry", str(tmp_path / "g.json"), "--theta", "nope",
        "--out", str(tmp_path / "m"),
    ])
    assert rc in (2, 3)  # either the flag or the missing file trips first

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["sweep", "--config", str(bad)])
    assert rc == 2


def test_train_rejects_negative_alpha_as_a_config_error(chain, tmp_path, capsys):
    rc = main([
        "train", "--in", str(chain / "pre"), "--kind", "mfsite",
        "--geometry", str(chain / "geometry.json"), "--labels", "truth",
        "--alpha", "-1", "--out", str(tmp_path / "m"),
    ])
    assert rc == 2
    assert "alpha must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


SUBCOMMANDS = {"simulate", "preprocess", "locate", "train", "classify",
               "evaluate", "complexity", "sweep", "plot"}

# What a pip-generated console script does: name argv[0] after the script,
# import the target module, and exit with the target's return value.
_CONSOLE_SCRIPT = """
import importlib, sys
module_name, attr, *args = sys.argv[1:]
sys.argv = ["mf-readout", *args]
target = importlib.import_module(module_name)
for part in attr.split("."):
    target = getattr(target, part)
sys.exit(target())
"""


def _assert_help_lists_subcommands(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mf-readout")
    choices = proc.stdout[proc.stdout.index("{") + 1:proc.stdout.index("}")]
    assert set(choices.split(",")) == SUBCOMMANDS


def _console_script_target(name):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module_name, _, attr = target.partition(":")
    return module_name.strip(), attr.strip()


def test_console_entry_point_is_wired():
    """The [project.scripts] target runs as the installed script would."""
    module_name, attr = _console_script_target("mf-readout")
    src = str(Path(mf_readout.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CONSOLE_SCRIPT, module_name, attr, "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    _assert_help_lists_subcommands(proc)


@pytest.mark.skipif(shutil.which("mf-readout") is None,
                    reason="mf-readout script not on PATH (package not installed)")
def test_installed_console_script_runs():
    proc = subprocess.run(
        ["mf-readout", "--help"], capture_output=True, text=True, timeout=60
    )
    _assert_help_lists_subcommands(proc)
