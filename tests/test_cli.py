import csv
import json
import os
from pathlib import Path

import pytest

from symilp import cli


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """gen -> solve -> train(both modes) -> eval -> downstream -> report."""
    root = tmp_path_factory.mktemp("pipeline")
    data = str(root / "data")
    assert run(
        [
            "gen",
            "--family",
            "binpack",
            "--count",
            "10",
            "--seed",
            "1",
            "--items",
            "4",
            "--bins",
            "3",
            "--capacity",
            "6",
            "--size-lo",
            "1",
            "--size-hi",
            "3",
            "--out",
            data,
        ]
    ) == 0
    assert run(["solve", data]) == 0
    for mode in ("classic", "symaware"):
        assert run(
            [
                "train",
                data,
                "--mode",
                mode,
                "--epochs",
                "8",
                "--batch",
                "4",
                "--lr",
                "0.005",
                "--seed",
                "0",
                "--hidden",
                "12",
                "--layers",
                "1",
                "--out",
                os.path.join(data, f"run_{mode}"),
            ]
        ) == 0
    return data


def test_gen_writes_instances_and_spec(pipeline_dir):
    names = os.listdir(os.path.join(pipeline_dir, "instances"))
    assert len(names) == 10
    assert os.path.exists(os.path.join(pipeline_dir, "spec.json"))


def test_solve_writes_labels_and_manifest(pipeline_dir):
    manifest = json.loads(Path(pipeline_dir, "manifest.json").read_text())
    assert len(manifest["train"]) == 8
    assert len(manifest["test"]) == 2
    labels = os.listdir(os.path.join(pipeline_dir, "labels"))
    assert len(labels) == 10


def test_train_outputs_curve_and_checkpoint(pipeline_dir):
    for mode in ("classic", "symaware"):
        run_dir = os.path.join(pipeline_dir, f"run_{mode}")
        assert os.path.exists(os.path.join(run_dir, "curve.csv"))
        assert os.path.exists(os.path.join(run_dir, "best.ckpt"))
        with open(os.path.join(run_dir, "curve.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert all(float(r["r_tr"]) > 0 for r in rows)


def test_eval_writes_metrics(pipeline_dir):
    ckpt = os.path.join(pipeline_dir, "run_symaware", "best.ckpt")
    out = os.path.join(pipeline_dir, "eval_out")
    assert run(["eval", pipeline_dir, "--checkpoint", ckpt, "--m-list", "10,50,90", "--out", out]) == 0
    with open(os.path.join(out, "metrics.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # test split
    assert set(rows[0].keys()) == {"instance", "top10", "top50", "top90", "gap", "wall_ms"}
    summary = json.loads(Path(out, "summary.json").read_text())
    assert "top50_mean" in summary


def test_downstream_and_report(pipeline_dir):
    for mode in ("classic", "symaware"):
        ckpt = os.path.join(pipeline_dir, f"run_{mode}", "best.ckpt")
        out = os.path.join(pipeline_dir, f"down_{mode}")
        assert (
            run(
                [
                    "downstream",
                    pipeline_dir,
                    "--checkpoint",
                    ckpt,
                    "--task",
                    "fix_opt",
                    "--alpha",
                    "0.5",
                    "--out",
                    out,
                ]
            )
            == 0
        )
        with open(os.path.join(out, "downstream_fix_opt.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["gap"] != "" for r in rows)
    report_out = os.path.join(pipeline_dir, "report_out")
    assert (
        run(
            [
                "report",
                "--classic",
                os.path.join(pipeline_dir, "down_classic", "downstream_fix_opt.csv"),
                "--symaware",
                os.path.join(pipeline_dir, "down_symaware", "downstream_fix_opt.csv"),
                "--out",
                report_out,
            ]
        )
        == 0
    )
    report = json.loads(Path(report_out, "report.json").read_text())
    assert {"task", "gap_classic", "gap_symaware", "gain"} <= set(report)


def test_pipeline_determinism(tmp_path):
    """Identical seeds and flags give identical outputs (wall times aside)."""

    def build(dir_):
        assert run(
            [
                "gen", "--family", "binpack", "--count", "6", "--seed", "3",
                "--items", "4", "--bins", "3", "--capacity", "6",
                "--size-lo", "1", "--size-hi", "3", "--out", dir_,
            ]
        ) == 0
        assert run(["solve", dir_]) == 0
        assert run(
            [
                "train", dir_, "--mode", "symaware", "--epochs", "4",
                "--batch", "3", "--seed", "5", "--hidden", "8", "--layers", "1",
                "--out", os.path.join(dir_, "run"),
            ]
        ) == 0

    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    build(d1)
    build(d2)
    assert Path(d1, "manifest.json").read_text() == Path(d2, "manifest.json").read_text()

    def curve_without_wall(path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]

    assert curve_without_wall(os.path.join(d1, "run", "curve.csv")) == curve_without_wall(
        os.path.join(d2, "run", "curve.csv")
    )
    assert Path(d1, "run", "best.ckpt").read_bytes() == Path(d2, "run", "best.ckpt").read_bytes()


def test_env_var_default_dataset(tmp_path, monkeypatch):
    data = str(tmp_path / "envdata")
    monkeypatch.setenv(cli.ENV_DATA_DIR, data)
    assert run(
        [
            "gen", "--family", "golomb", "--count", "2", "--seed", "0",
            "--ticks", "3", "--circumference", "6:7",
        ]
    ) == 0
    assert os.path.exists(os.path.join(data, "instances"))


def test_exit_codes(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_DATA_DIR, raising=False)
    # no dataset dir anywhere -> config error
    assert run(["solve"]) == cli.EXIT_CONFIG
    # missing files -> data error
    assert run(["solve", str(tmp_path / "nope")]) == cli.EXIT_DATA
    # argparse rejects unknown subcommands with SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
