import csv
import json
import os
from pathlib import Path

import pytest

from symilp import cli, net, train


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
    assert set(rows[0].keys()) == {"instance", "top10", "top50", "top90"}
    summary = json.loads(Path(out, "summary.json").read_text())
    assert "top50_mean" in summary


def test_eval_rejects_truncated_checkpoint(pipeline_dir, tmp_path, capsys):
    # The magic and two more bytes: an error line and exit 2, no traceback.
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes(b"GNN1\x01\x00")
    assert run(["eval", pipeline_dir, "--checkpoint", str(ckpt), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: not a checkpoint file")


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


def write_downstream(path, rows):
    """A downstream CSV with one row per (instance, task, param, gap); an
    empty gap is a repair that found no solution."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "task", "param", "objective", "best_known", "gap", "status", "wall_ms"])
        for name, task, param, gap in rows:
            solved = gap != ""
            writer.writerow([name, task, param, "1.0" if solved else "", "1.0", gap,
                             "optimal" if solved else "limit_reached", "0.1"])


def test_report_scores_a_repair_without_a_solution_as_gap_one(tmp_path, capsys):
    write_downstream(tmp_path / "classic.csv", [("a", "fix_opt", 0.5, "0.5"), ("b", "fix_opt", 0.5, "0.5")])
    write_downstream(tmp_path / "symaware.csv", [("a", "fix_opt", 0.5, ""), ("b", "fix_opt", 0.5, "0.1")])
    argv = ["report", "--classic", str(tmp_path / "classic.csv"), "--symaware", str(tmp_path / "symaware.csv")]
    assert run([*argv, "--out", str(tmp_path)]) == cli.EXIT_OK
    report = json.loads(Path(tmp_path, "report.json").read_text())
    assert report["gap_classic"] == 0.5
    assert report["gap_symaware"] == pytest.approx(0.55)
    assert report["gain"] == pytest.approx(-0.1)
    assert (report["unsolved_classic"], report["unsolved_symaware"]) == (0, 1)
    assert "without a solution: classic 0, symmetry-aware 1 of 2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "symaware",
    [
        [("c", "local_branch", 0.3, "0.25"), ("d", "local_branch", 0.3, "0.25")],  # nothing matches
        [("a", "local_branch", 0.5, "0.25"), ("b", "local_branch", 0.5, "0.25")],  # task
        [("a", "fix_opt", 0.3, "0.25"), ("b", "fix_opt", 0.3, "0.25")],  # param
        [("a", "fix_opt", 0.5, "0.25"), ("c", "fix_opt", 0.5, "0.25")],  # instances
        [("b", "fix_opt", 0.5, "0.25"), ("a", "fix_opt", 0.5, "0.25")],  # instance order
        [("a", "fix_opt", 0.5, "0.25"), ("b", "fix_opt", 0.7, "0.25")],  # two params in one file
        [("a", "fix_opt", 0.5, "0.25"), ("b", "local_branch", 0.5, "0.25")],  # two tasks in one file
    ],
)
def test_report_refuses_downstream_csvs_that_do_not_match(tmp_path, capsys, symaware):
    classic = [("a", "fix_opt", 0.5, "0.5"), ("b", "fix_opt", 0.5, "0.5")]
    write_downstream(tmp_path / "classic.csv", classic)
    argv = ["report", "--classic", str(tmp_path / "classic.csv"), "--symaware", str(tmp_path / "symaware.csv")]
    # The same file on both sides is a valid pair.
    write_downstream(tmp_path / "symaware.csv", classic)
    assert run([*argv, "--out", str(tmp_path / "same")]) == cli.EXIT_OK
    assert Path(tmp_path, "same", "report.json").exists()
    capsys.readouterr()
    write_downstream(tmp_path / "symaware.csv", symaware)
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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


@pytest.mark.parametrize(
    "family_args",
    [
        ["--family", "golomb", "--ticks", "3", "--circumference", "7:6"],
        ["--family", "golomb", "--ticks", "3", "--circumference", "8:6"],
        ["--family", "item_placement", "--bins", "4:3"],
    ],
)
def test_gen_rejects_reversed_range(tmp_path, capsys, family_args):
    out = str(tmp_path / "data")
    assert run(["gen", *family_args, "--count", "2", "--out", out]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(out)


def test_bad_settings_exit_2_before_any_output(pipeline_dir, tmp_path, capsys):
    # A range for binpack's single bin count, a NaN time limit (which no
    # "<= 0" check catches) and a learning rate that is not positive and finite.
    data = str(tmp_path / "data")
    assert run(["gen", "--family", "binpack", "--bins", "3:4", "--count", "2", "--out", data]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: binpack: bins takes a single value")
    assert not os.path.exists(data)
    assert run(["gen", "--family", "binpack", "--items", "3", "--count", "2", "--out", data]) == 0
    assert run(["solve", data, "--time-limit-ms", "nan"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: limits must be positive")
    assert sorted(os.listdir(data)) == ["instances", "spec.json"]
    for lr in ("-0.01", "0", "nan"):
        out = str(tmp_path / f"run{lr}")
        assert run(["train", pipeline_dir, "--lr", lr, "--epochs", "1", "--out", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: lr must be positive and finite")
        assert not os.path.exists(out)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "{missing}", "--lr", "-1"], "error: lr must be positive and finite"),
        (["train", "{data}", "--epochs", "0"], "error: epochs, inner_steps and batch_size"),
        (["downstream", "{data}", "--task", "fix_opt", "--alpha", "2"], "error: alpha must be in [0,1]"),
        (["downstream", "{data}", "--task", "fix_opt", "--alpha", "nan"], "error: alpha must be in [0,1]"),
        (["downstream", "{data}", "--task", "local_branch", "--beta", "0"], "error: beta must be in (0,1]"),
        (["downstream", "{data}", "--task", "local_branch", "--time-limit-ms", "nan"], "error: limits must be positive"),
        (["downstream", "{missing}", "--task", "fix_opt", "--node-limit", "0"], "error: limits must be positive"),
        (["eval", "{data}", "--m-list", "10,0"], "error: m must be in (0, 100]"),
        (["train", "{missing}", "--hidden", "0"], "error: hidden width and layer count must be >= 1"),
        (["train", "{data}", "--layers", "0"], "error: hidden width and layer count must be >= 1"),
    ],
)
def test_settings_are_checked_before_any_read_or_write(pipeline_dir, tmp_path, monkeypatch, capsys, argv, message):
    def never(*_):
        raise AssertionError("read data before checking the settings")

    monkeypatch.setattr(train, "load_dataset", never)
    monkeypatch.setattr(net, "load_checkpoint", never)
    out = tmp_path / "out"
    argv = [a.format(data=pipeline_dir, missing=tmp_path / "missing") for a in argv]
    if argv[0] != "train":
        argv += ["--checkpoint", str(tmp_path / "model.ckpt")]
    assert run([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


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
