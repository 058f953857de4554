import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mf_readout
from mf_readout import FilterModel, RunConfig, default_config, load_models, neighbor_sites
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
        "locate", "--in", str(pre), "--out", str(geometry),
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
    rc = main(["locate", "--in", str(tmp_path / "missing"), "--out", str(tmp_path / "g.json")])
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


@pytest.mark.parametrize(
    "command, seed",
    [("simulate", "-1"), ("preprocess", "-2"), ("locate", "-3"), ("train", "-1")],
)
def test_a_negative_seed_exits_2_for_every_stage_command(chain, tmp_path, capsys, command, seed):
    out = tmp_path / "out"
    args = {
        "simulate": ["--preset", "default", "--n-images", "20", "--out", str(out)],
        "preprocess": ["--in", str(chain / "raw"), "--out", str(out)],
        "locate": ["--in", str(chain / "pre"), "--out", str(out)],
        "train": [
            "--in", str(chain / "pre"), "--kind", "square", "--geometry", str(chain / "geometry.json"),
            "--labels", "truth", "--out", str(out),
        ],
    }[command]
    assert main([command, *args, "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert "seed must be non-negative" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, value, message", [
    ("simulate", "nan", "exposure_ms must be finite"),
    ("simulate", "inf", "exposure_ms must be finite"),
    ("train", "--theta 0.1:nan:0.1", "theta grid must be finite"),
    ("train", "--alpha nan", "alpha must be finite"),
], ids=["simulate-nan", "simulate-inf", "train-theta", "train-alpha"])
def test_a_non_finite_number_exits_2_naming_its_field(chain, tmp_path, capsys, command, value, message):
    out = tmp_path / "out"
    if command == "simulate":
        args = ["simulate", "--preset", "default", "--n-images", "20", "--exposure-ms", value, "--out", str(out)]
    else:
        args = [
            "train", "--in", str(chain / "pre"), "--kind", "mfsite", "--geometry", str(chain / "geometry.json"),
            "--labels", "truth", *value.split(), "--out", str(out),
        ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exposures, message", [
    ([float("nan")], "exposure_sweep_ms must be finite"),
    ([10.0, 10.0000001], "exposures 10.0 and 10.0000001 ms would both write exp_10ms/"),
], ids=["nan", "one-directory"])
def test_a_sweep_over_bad_exposures_exits_2_and_writes_nothing(tmp_path, capsys, exposures, message):
    run = RunConfig(
        sim=default_config(n_images=200, seed=3), output_dir=str(tmp_path / "out"),
        exposure_sweep_ms=(20.0,), kinds=("square",), n_shuffles=1,
    ).to_dict() | {"exposure_sweep_ms": exposures}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run))  # Python's JSON spells a NaN NaN, and reads it back
    assert main(["sweep", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_window_sizes_below_2_exit_as_config_errors(chain, tmp_path, capsys):
    rc = main([
        "train", "--in", str(chain / "pre"), "--kind", "mfsite",
        "--geometry", str(chain / "geometry.json"), "--labels", "truth",
        "--s-grid", "1,3", "--out", str(tmp_path / "m"),
    ])
    assert rc == 2
    assert "window sizes must be at least 2, got (1, 3)" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()

    # a size given twice is the same kind of error
    rc = main([
        "train", "--in", str(chain / "pre"), "--kind", "mfsite",
        "--geometry", str(chain / "geometry.json"), "--labels", "truth",
        "--s-grid", "3,3", "--out", str(tmp_path / "m"),
    ])
    assert rc == 2
    assert "window size(s) 3 repeated in (3, 3)" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()

    # the sweep stops before it renders anything
    config = RunConfig(
        sim=default_config(n_images=200, seed=3), output_dir=str(tmp_path / "out"),
        exposure_sweep_ms=(20.0,), kinds=("mf-site",), n_shuffles=1,
    ).to_dict() | {"s_grid": [1]}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == 2
    assert "bad s grid (1,)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_misspelled_config_key_exits_2_and_writes_nothing(tmp_path, capsys):
    run = RunConfig(
        sim=default_config(n_images=200, seed=3), output_dir=str(tmp_path / "out"),
        exposure_sweep_ms=(20.0,), kinds=("square",), n_shuffles=1,
    ).to_dict()
    run["n_shufles"] = run.pop("n_shuffles")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run))
    assert main(["sweep", "--config", str(path)]) == 2
    assert "unknown RunConfig key(s): 'n_shufles'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    sim = default_config(n_images=10).to_dict()
    sim["geometry"]["spacing"] = sim["geometry"].pop("spacing_px")
    path.write_text(json.dumps(sim))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "raw")]) == 2
    assert "unknown ArrayGeometry key(s): 'spacing'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_a_null_output_dir_exits_2_and_makes_no_directory(tmp_path, monkeypatch, capsys):
    config = json.loads((Path(__file__).resolve().parents[1] / "configs" / "example_run.json").read_text())
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config | {"output_dir": None}))
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", str(path)]) == 2
    assert "output_dir must be a non-empty path, got None" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_a_model_or_geometry_key_the_writer_does_not_write_exits_3(chain, tmp_path, capsys):
    pre, preds = str(chain / "pre"), str(tmp_path / "preds.csv")
    model = json.loads((chain / "models" / "square_site1.json").read_text())
    model["image_shap"] = model.pop("image_shape")
    model_path = tmp_path / "square_site1.json"
    model_path.write_text(json.dumps(model))
    assert main(["classify", "--model", str(model_path), "--in", pre, "--out", preds]) == 3
    assert "unknown filter model key(s): 'image_shap'" in capsys.readouterr().err

    geometry = json.loads((chain / "geometry.json").read_text())
    geometry[4]["fallback"] = True
    geometry_path = tmp_path / "geometry.json"
    geometry_path.write_text(json.dumps(geometry))
    rc = main([
        "train", "--in", pre, "--kind", "square", "--geometry", str(geometry_path),
        "--labels", "truth", "--out", str(tmp_path / "m"),
    ])
    assert rc == 3
    assert "unknown site key(s): 'fallback'" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_classify_on_frames_of_another_size_exits_3(chain, tmp_path, capsys):
    cropped = tmp_path / "cropped"
    assert main(["preprocess", "--in", str(chain / "raw"), "--crop", "1,1,26,26", "--out", str(cropped)]) == 0
    capsys.readouterr()
    model, preds = chain / "models" / "square_site5.json", tmp_path / "preds.csv"
    assert main(["classify", "--model", str(model), "--in", str(cropped), "--out", str(preds)]) == 3
    assert "trained on (28, 28) frames, got (26, 26)" in capsys.readouterr().err
    assert not preds.exists()


@pytest.mark.parametrize("crop, message", [
    ((0, 0, 10, 40), "crop rectangle (0,0,10,40) leaves the 28x28 frame"),
    ((0, 0, 10, 12), "site centers exceed the 10x12 image bounds"),
], ids=["off-the-frame", "cuts-off-sites"])
def test_a_bad_crop_exits_2_before_the_sweep_renders(tmp_path, capsys, crop, message):
    config = RunConfig(
        sim=default_config(n_images=3000, seed=1), output_dir=str(tmp_path / "out"),
        exposure_sweep_ms=(20.0,), kinds=("square",), n_shuffles=1,
    ).to_dict() | {"crop": list(crop)}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_input_files_exit_with_their_error_codes(chain, tmp_path, capsys):
    # a value of the right key but a bad string: 2 for a config, 3 for data
    config = default_config(n_images=10).to_dict()
    config["exposure_ms"] = "abc"
    bad_config = tmp_path / "sim.json"
    bad_config.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(bad_config), "--out", str(tmp_path / "raw")]) == 2
    assert "error:" in capsys.readouterr().err

    models = tmp_path / "models"
    models.mkdir()
    model = json.loads((chain / "models" / "square_site1.json").read_text())
    model["site"] = "one"
    (models / "square_site1.json").write_text(json.dumps(model))
    assert main(["complexity", "--models", str(models), "--out", str(tmp_path / "c.csv")]) == 3
    assert "error:" in capsys.readouterr().err

    geometry = json.loads((chain / "geometry.json").read_text())
    geometry[0]["center"] = ["a", 8]
    bad_geometry = tmp_path / "geometry.json"
    bad_geometry.write_text(json.dumps(geometry))
    rc = main([
        "train", "--in", str(chain / "pre"), "--kind", "square", "--geometry", str(bad_geometry),
        "--labels", "truth", "--out", str(tmp_path / "m"),
    ])
    assert rc == 3
    assert "error:" in capsys.readouterr().err

    # a NaN center or sigma, which Python's JSON reader accepts: 3, naming
    # the file and the field, before a model is written
    for kind, key, value in [("square", "center", [float("nan"), 14.0]), ("gaussian", "sigma", float("nan"))]:
        geometry = json.loads((chain / "geometry.json").read_text())
        geometry[4][key] = value
        bad_geometry.write_text(json.dumps(geometry))
        rc = main([
            "train", "--in", str(chain / "pre"), "--kind", kind, "--geometry", str(bad_geometry),
            "--labels", "truth", "--out", str(tmp_path / f"nan_{kind}"),
        ])
        assert rc == 3, key
        assert f"error: {bad_geometry}: every site's {key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / f"nan_{kind}").exists()

    # a sweep table with a cell that is not a finite number, a negative
    # spread or an exposure that is not positive: 3, before any chart
    header = "exposure_ms,kind,mean_infidelity,stderr\n10,square,0.2,0.01\n"
    bad_rows = ("10,gaussian,abc,0.1", "10,gaussian,0.1,", "10,gaussian,nan,0.1", "inf,gaussian,0.1,0.1")
    for row in bad_rows + ("20.0,square,0.2,-3", "0,square,0.2,0.01", "-5,square,0.2,0.01"):
        bad_sweep = tmp_path / "bad.csv"
        bad_sweep.write_text(header + row + "\n")
        assert main(["plot", "--in", str(bad_sweep), "--out", str(tmp_path / "x.svg")]) == 3, row
        assert f"error: {bad_sweep}, line 3: bad sweep row {row!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()
    missing = tmp_path / "missing.csv"
    assert main(["plot", "--in", str(missing), "--out", str(tmp_path / "x.svg")]) == 3
    assert f"error: cannot read {missing}" in capsys.readouterr().err

    # a file that does not parse, for every reader: 2 for a config, 3 for data
    unparsable = tmp_path / "unparsable"
    unparsable.mkdir()
    broken = unparsable / "broken.json"
    broken.write_text("{not json")
    pre, preds = str(chain / "pre"), str(tmp_path / "preds.csv")
    for argv, code in [
        (["sweep", "--config", str(broken)], 2),
        (["simulate", "--config", str(broken), "--out", str(tmp_path / "raw")], 2),
        (["classify", "--model", str(broken), "--in", pre, "--out", preds], 3),
        (["evaluate", "--models", str(unparsable), "--in", pre, "--out", str(tmp_path / "r")], 3),
        (["train", "--in", pre, "--kind", "square", "--geometry", str(broken), "--out", str(tmp_path / "m")], 3),
    ]:
        assert main(argv) == code, argv
        assert f"error: cannot read {broken}" in capsys.readouterr().err

    # a model file whose fields disagree is damaged data, 3, as any other:
    # an mf-array model whose site or neighbors (one-based) are not sites
    # of its 3 x 3 array, an mf-site model with 3 weights at s = 2, a
    # window that leaves the frame, and a model without its image shape
    centers = [site["center"] for site in json.loads((chain / "geometry.json").read_text())]
    array_model = FilterModel(
        kind="mf-array", site=4, center=tuple(centers[4]), s=3, theta=0.5, weights=np.ones(9 + 8 + 1),
        neighbors=neighbor_sites(3, 3, 4), all_centers=centers, image_shape=(28, 28),
    ).to_dict()
    site_model = FilterModel(
        kind="mf-site", site=4, center=tuple(centers[4]), s=2, theta=0.5, weights=np.ones(5), image_shape=(28, 28),
    ).to_dict()
    model_path = tmp_path / "mfarray_site5.json"
    for model in (array_model, site_model):
        model_path.write_text(json.dumps(model))
        assert main(["classify", "--model", str(model_path), "--in", pre, "--out", preds]) == 0
    without_shape = {k: v for k, v in site_model.items() if k != "image_shape"}
    for model, message in [
        ({**array_model, "neighbors": [1, 2, 3, 4, 6, 7, 8, 0]}, "neighbor -1 of site 4"),
        ({**array_model, "neighbors": [1, 2, 3, 4, 6, 7, 8, 10]}, "neighbor 9 of site 4"),
        ({**array_model, "neighbors": [1, 2, 3, 4, 5, 6, 7, 8]}, "neighbor 4 of site 4"),
        ({**array_model, "site": 0}, "site index -1"),
        ({**array_model, "site": 10}, "site index 9"),
        ({**site_model, "weights": [1.0, 1.0, 1.0]}, "mf-site filter needs s^2 + neighbors + 1 = 5 weights"),
        ({**site_model, "center": [28.0, 5.0]}, "window at center (28.0, 5.0) leaves the 28x28 image"),
        (without_shape, "lacks the key 'image_shape'"),
    ]:
        model_path.write_text(json.dumps(model))
        assert main(["classify", "--model", str(model_path), "--in", pre, "--out", preds]) == 3, message
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind, key, value", [
    ("gaussian", "sigma", float("nan")),
    ("gaussian", "theta", float("nan")),
    ("gaussian", "center", [float("inf"), 14.0]),
    ("mf-site", "weights", [1.0] * 8 + [float("nan")]),
    ("mf-array", "all_centers", [[8.0, 8.0]] * 8 + [[float("nan"), 20.0]]),
], ids=["gaussian-sigma", "gaussian-theta", "gaussian-center", "mf-site-weights", "mf-array-all_centers"])
def test_a_model_file_with_a_non_finite_field_exits_3_naming_it(chain, tmp_path, capsys, kind, key, value):
    # Python's JSON reader accepts NaN and Infinity; a model holding one
    # would read every frame dark, so classify and evaluate refuse it
    centers = [site["center"] for site in json.loads((chain / "geometry.json").read_text())]
    model = FilterModel(
        kind=kind, site=4, center=tuple(centers[4]), s=2, theta=0.5, image_shape=(28, 28),
        sigma=1.2 if kind == "gaussian" else None,
        weights=None if kind == "gaussian" else np.ones(4 + (8 if kind == "mf-array" else 0) + 1),
        neighbors=neighbor_sites(3, 3, 4) if kind == "mf-array" else (),
        all_centers=centers if kind == "mf-array" else None,
    ).to_dict()
    models = tmp_path / "models"
    models.mkdir()
    path = models / "site5.json"
    path.write_text(json.dumps({**model, key: value}))
    pre = str(chain / "pre")
    for argv in (
        ["classify", "--model", str(path), "--in", pre, "--out", str(tmp_path / "preds.csv")],
        ["evaluate", "--models", str(models), "--in", pre, "--labels", "truth", "--out", str(tmp_path / "r")],
    ):
        assert main(argv) == 3, argv[0]
        assert f"error: {path}: bad filter model dict: {key} must be finite" in capsys.readouterr().err


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
