"""Command-line pipeline: gen, solve, train, eval, downstream, report.

Exit codes: 0 success, 2 bad configuration, 3 data error, 4 limit
exhaustion (a required solve hit its limits without producing a solution).
The dataset directory defaults to $SYMILO_DATA_DIR when omitted.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import bench, evalx, net, train
from .instance import SchemaError
from .oracle import LIMIT_REACHED, SolveLimits

ENV_DATA_DIR = "SYMILO_DATA_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_LIMIT = 4


def _data_dir(arg: str | None) -> str:
    path = arg or os.environ.get(ENV_DATA_DIR)
    if not path:
        raise ConfigError("no dataset directory given and SYMILO_DATA_DIR unset")
    return path


class ConfigError(Exception):
    pass


def _parse_span(text: str):
    """'4' -> 4, '4:6' -> [4, 6]."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return [int(lo), int(hi)]
    return int(text)


def _limits(args) -> SolveLimits:
    return SolveLimits(time_limit_ms=args.time_limit_ms, node_limit=args.node_limit)


# ---------------------------------------------------------------------------
# Commands


def cmd_gen(args) -> int:
    params: dict = {}
    if args.family == "binpack":
        params = {
            "items": args.items,
            "bins": _parse_span(args.bins) if args.bins else 3,
            "capacity": args.capacity,
            "size_range": [args.size_lo, args.size_hi],
        }
    elif args.family == "item_placement":
        params = {
            "items": args.items,
            "bins": _parse_span(args.bins) if args.bins else 4,
            "resources": args.resources,
        }
    elif args.family == "smsp":
        params = {"orders": args.orders, "slabs": args.slabs, "colors": args.colors}
    elif args.family == "pesp":
        params = {"events": args.events, "activities": args.activities, "period": args.period}
    elif args.family == "golomb":
        params = {
            "ticks": args.ticks,
            "circumference": _parse_span(args.circumference) if args.circumference else 8,
        }
    spec = bench.GenSpec(args.family, args.count, args.seed, params, args.perturb)
    out = _data_dir(args.out)
    instances = bench.generate_instances(spec)
    os.makedirs(os.path.join(out, "instances"), exist_ok=True)
    for inst in instances:
        bench.write_json(inst, os.path.join(out, "instances", inst.name + ".json"))
    with open(os.path.join(out, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(asdict(spec), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(instances)} instances to {out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    out = _data_dir(args.data)
    with open(os.path.join(out, "spec.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    spec = bench.GenSpec(raw["family"], raw["count"], raw["seed"], raw["params"], raw["perturb"])
    manifest = bench.build_dataset(spec, out, _limits(args), workers=args.workers)
    kept = len(manifest["train"]) + len(manifest["test"])
    print(f"labeled {kept} instances ({len(manifest['dropped'])} dropped)")
    if kept == 0:
        return EXIT_LIMIT
    return EXIT_OK


def cmd_train(args) -> int:
    data = _data_dir(args.data)
    fit_samples, val_samples, _ = train.load_dataset(data)
    cfg = train.TrainConfig(
        epochs=args.epochs,
        mode=args.mode,
        loss=args.loss,
        batch_size=args.batch,
        lr=args.lr,
        inner_steps=args.inner_steps,
        seed=args.seed,
        hidden=args.hidden,
        layers=args.layers,
    )
    out = args.out or os.path.join(data, f"run_{args.mode}_s{args.seed}")
    result = train.fit(fit_samples, cfg, val_samples, out_dir=out)
    final = result.curve[-1]
    print(
        f"trained {cfg.mode} for {cfg.epochs} epochs; best val {result.best_val:.6f} "
        f"at epoch {result.best_epoch}; final r_tr {final.r_tr:.6f} rs_tr {final.rs_tr:.6f}"
    )
    print(f"outputs in {out}")
    return EXIT_OK


def _load_test(data: str):
    _, _, test_samples = train.load_dataset(data)
    if not test_samples:
        raise ConfigError("dataset has no test split")
    return test_samples


def cmd_eval(args) -> int:
    data = _data_dir(args.data)
    test_samples = _load_test(data)
    model = net.load_checkpoint(args.checkpoint)
    m_list = [int(m) for m in args.m_list.split(",")]
    preds = [net.forward(model, s.graph) for s in test_samples]
    records = evalx.evaluate_predictions(test_samples, preds, m_list)
    out = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out, exist_ok=True)
    evalx.write_metrics_csv(os.path.join(out, "metrics.csv"), records, m_list)
    summary = evalx.write_summary_json(os.path.join(out, "summary.json"), records, m_list)
    cols = " ".join(f"top{m}={summary[f'top{m}_mean']:.3f}" for m in m_list)
    print(f"evaluated {len(records)} test instances: {cols}")
    return EXIT_OK


def cmd_downstream(args) -> int:
    data = _data_dir(args.data)
    test_samples = _load_test(data)
    model = net.load_checkpoint(args.checkpoint)
    limits = _limits(args)
    out = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out, exist_ok=True)
    param = args.alpha if args.task == "fix_opt" else args.beta
    rows = []
    exhausted = False
    for s in test_samples:
        pred = net.forward(model, s.graph)
        if args.task == "fix_opt":
            res = evalx.fix_and_optimize(s.instance, pred, args.alpha, limits)
        else:
            res = evalx.local_branching(s.instance, pred, args.beta, limits)
        best_obj = s.instance.objective_value(s.label)
        objective = gap = ""
        if res.solution is None:
            exhausted = exhausted or res.status == LIMIT_REACHED
        else:
            objective = repr(res.solution.objective)
            gap = repr(evalx.primal_gap(res.solution.objective, best_obj))
        rows.append(
            [s.name, args.task, param, objective, repr(best_obj), gap, res.status, f"{res.wall_ms:.1f}"]
        )
    path = os.path.join(out, f"downstream_{args.task}.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["instance", "task", "param", "objective", "best_known", "gap", "status", "wall_ms"]
        )
        writer.writerows(rows)
    gaps = [float(r[5]) for r in rows if r[5] != ""]
    mean_gap = float(np.mean(gaps)) if gaps else float("nan")
    print(f"{args.task} param={param}: mean gap {mean_gap:.4f} over {len(gaps)} instances -> {path}")
    return EXIT_LIMIT if exhausted else EXIT_OK


def cmd_report(args) -> int:
    def read_gaps(path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        gaps = [float(r["gap"]) for r in rows if r["gap"] != ""]
        task = rows[0]["task"] if rows else ""
        return task, gaps

    task_c, gaps_c = read_gaps(args.classic)
    task_s, gaps_s = read_gaps(args.symaware)
    if not gaps_c or not gaps_s:
        raise ConfigError("downstream CSVs contain no gaps")
    gamma_r = float(np.mean(gaps_c))
    gamma_rs = float(np.mean(gaps_s))
    g = evalx.gain(gamma_r, gamma_rs)
    summary = {
        "task": task_c or task_s,
        "gap_classic": gamma_r,
        "gap_symaware": gamma_rs,
        "gain": g,
    }
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    gain_txt = "n/a" if g is None else f"{g:.3f}"
    print(
        f"{summary['task']}: classic gap {gamma_r:.4f}, symmetry-aware gap {gamma_rs:.4f}, "
        f"gain {gain_txt}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symilp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instances")
    p.add_argument("--family", required=True, choices=bench.FAMILIES)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--perturb", choices=bench.PERTURB_MODES, default="none")
    p.add_argument("--items", type=int, default=6)
    p.add_argument("--bins", default=None, help="bin count, or lo:hi range")
    p.add_argument("--capacity", type=float, default=6)
    p.add_argument("--size-lo", type=int, default=1)
    p.add_argument("--size-hi", type=int, default=4)
    p.add_argument("--resources", type=int, default=2)
    p.add_argument("--orders", type=int, default=5)
    p.add_argument("--slabs", type=int, default=3)
    p.add_argument("--colors", type=int, default=3)
    p.add_argument("--events", type=int, default=3)
    p.add_argument("--activities", type=int, default=3)
    p.add_argument("--period", type=int, default=5)
    p.add_argument("--ticks", type=int, default=3)
    p.add_argument("--circumference", default=None, help="circle size, or lo:hi range")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="label a generated dataset with the exact oracle")
    p.add_argument("data", nargs="?", default=None)
    p.add_argument("--time-limit-ms", type=float, default=60_000)
    p.add_argument("--node-limit", type=int, default=200_000)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train", help="train a prediction model")
    p.add_argument("data", nargs="?", default=None)
    p.add_argument("--mode", choices=train.MODES, default=train.SYMMETRY_AWARE)
    p.add_argument("--loss", choices=(net.BCE, net.SE), default=net.BCE)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--inner-steps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="prediction metrics on the test split")
    p.add_argument("data", nargs="?", default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--m-list", default="10,30,50,70,90")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("downstream", help="repair predictions into solutions")
    p.add_argument("data", nargs="?", default=None)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", choices=("fix_opt", "local_branch"), required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--time-limit-ms", type=float, default=10_000)
    p.add_argument("--node-limit", type=int, default=50_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_downstream)

    p = sub.add_parser("report", help="gains from two downstream CSVs")
    p.add_argument("--classic", required=True)
    p.add_argument("--symaware", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SchemaError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
