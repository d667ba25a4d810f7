"""Benchmark of symilp's three costs: labeling, training and repair.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload label|train|repair --seed N \
        --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout. Each run derives its
instances from ``--seed``, sets up its workload several times (the median
is ``setup_s``), runs whole rounds of the workload's operations for at
least ``--seconds`` seconds, checks every output against computations made
apart from the package (see checks.py), and prints one JSON object as its
last line. With ``--trace 0`` the object holds the end-to-end metrics; with
``--trace 1`` it holds per-layer figures from spans recorded around the
package's functions (see spans.py), and the tracing overhead measured
against the same rounds run untraced. Result and trace files go to
``perfbench/out/``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

# One BLAS thread: the load stays on one core of a 2-core box, and thread
# spin-up does not enter the timings. Must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def import_package():
    init = os.path.join(SRC, "symilp", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: {init} not found; run from the root of a full checkout")
    sys.path.insert(0, SRC)
    import symilp

    if os.path.dirname(os.path.abspath(symilp.__file__)) != os.path.dirname(init):
        sys.exit(f"perfbench: imported symilp from {symilp.__file__}, not from {SRC}")


import_package()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from symilp import align, bench, evalx, net, oracle, train  # noqa: E402

# ---------------------------------------------------------------------------
# Workload settings

# Exact labeling limits, as in the acceptance suite's dataset fixture.
EXACT = oracle.SolveLimits(time_limit_ms=120_000.0)
# The acceptance suite's training settings; epoch counts are per fit.
TRAIN_KW = dict(loss="bce", batch_size=16, lr=5e-3, hidden=32, layers=2, inner_steps=1)
TRAIN_EPOCHS = 40
# Acceptance criterion 8's repair budget and parameter grid.
REPAIR_LIMITS = oracle.SolveLimits(time_limit_ms=1500.0, node_limit=10)
ALPHAS = tuple(round(0.1 * k, 1) for k in range(1, 10))
BETAS = ALPHAS
M_LIST = evalx.DEFAULT_M_LIST

# label: rounds of LABEL_ROUND instances. One instance takes 155-372 B&B
# nodes, with a spread of solve times (CV 0.12) small enough that a run's
# throughput hardly depends on the seed; README gives the sizes rejected.
LABEL_PARAMS = {"items": 4, "bins": 5, "resources": 2}
LABEL_ROUND = 5
# label's set-up labels a warm-up set of the same spec, so first-call costs
# are paid before timing.
WARMUP_COUNT = 2
# train and repair label one set of this spec in set-up, small enough to
# label three times per run. train's 20 instances give 11 fit, 5 validation
# and 4 test samples. A repair's cost follows the model's predictions
# (fix-and-optimize retries after infeasible pins), so repair uses 40
# instances and a 60-epoch model: after 20 epochs the models' quality, and
# with it the repair throughput, varied widely between seeds.
DATA_PARAMS = {"items": 4, "bins": 4, "resources": 2}
TRAIN_COUNT = 20
REPAIR_COUNT = 40
REPAIR_EPOCHS = 60
SETUP_REPEATS = 3


def spec(count: int, seed: int, params: dict) -> bench.GenSpec:
    return bench.GenSpec("item_placement", count, seed, params)


def train_config(mode: str, seed: int, epochs: int) -> train.TrainConfig:
    return train.TrainConfig(epochs=epochs, mode=mode, seed=seed, **TRAIN_KW)


def reset_alignment(samples) -> None:
    """Start every fit from the labels as loaded."""
    for s in samples:
        s.pi = None


class Workload:
    """set_up() returns the state the rounds need; run_round() returns
    (attempted, failed); check() returns (failed checks, quality figures)."""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self._dirs = 0

    def new_dir(self, tag: str) -> str:
        self._dirs += 1
        return os.path.join(self.work, f"{tag}{self._dirs:03d}")


class Label(Workload):
    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.datasets: list[tuple[str, dict]] = []

    def set_up(self):
        warm = spec(WARMUP_COUNT, self.seed * 1000, LABEL_PARAMS)
        bench.build_dataset(warm, self.new_dir("warm"), EXACT)
        return None

    def run_round(self, state, r: int):
        out = self.new_dir("label")
        round_spec = spec(LABEL_ROUND, self.seed * 1000 + 1 + r, LABEL_PARAMS)
        manifest = bench.build_dataset(round_spec, out, EXACT)
        self.datasets.append((out, manifest))
        kept = len(manifest["train"]) + len(manifest["test"])
        return LABEL_ROUND, LABEL_ROUND - kept

    def check(self):
        rng = np.random.default_rng(self.seed)
        failures, n = [], 0
        for out, manifest in self.datasets:
            for name in manifest["train"] + manifest["test"]:
                p = checks.read_problem(out, name)
                failures += checks.check_label(p, checks.read_label(out, name), rng)
                n += 1
        return failures, {"labels_checked": n}


class Data:
    """A labeled set loaded as samples (train and repair set-up)."""

    def __init__(self, wl: Workload, count: int):
        self.dir = wl.new_dir("data")
        bench.build_dataset(spec(count, wl.seed, DATA_PARAMS), self.dir, EXACT)
        self.fit, self.val, self.test = train.load_dataset(self.dir)
        self.all = self.fit + self.val + self.test


class Train(Workload):
    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.fits: list[tuple[Data, dict]] = []

    def set_up(self):
        return Data(self, TRAIN_COUNT)

    def run_round(self, data: Data, r: int):
        out = {}
        for mode in (train.SYMMETRY_AWARE, train.CLASSIC):
            reset_alignment(data.fit + data.val)
            cfg = train_config(mode, self.seed, TRAIN_EPOCHS)
            out[mode] = train.fit(data.fit, cfg, data.val)
        self.fits.append((data, out))
        return 2 * TRAIN_EPOCHS * len(data.fit), 0

    def check(self):
        failures = []
        first_data, first = self.fits[0]
        for _, fits in self.fits[1:]:
            for mode, res in fits.items():
                if fit_signature(res) != fit_signature(first[mode]):
                    failures.append(f"{mode} fit differs between rounds of one run")
        for mode, res in first.items():
            failures += check_curve(mode, res)
            failures += check_alignments(first_data, res.model)
        failures += check_gradient(first_data, first[train.SYMMETRY_AWARE].model)
        quality = {mode: fit_quality(res) for mode, res in first.items()}
        return failures, quality


def fit_signature(res):
    return (res.best_epoch, res.best_val, [(e.r_tr, e.rs_tr, e.r_val, e.rs_val) for e in res.curve])


def fit_quality(res) -> dict:
    last = res.curve[-1]
    return {
        "best_epoch": res.best_epoch,
        "best_val": res.best_val,
        "final": {k: getattr(last, k) for k in ("r_tr", "rs_tr", "r_val", "rs_val")},
    }


def check_curve(mode, res) -> list[str]:
    """Aligned risk never exceeds plain risk: the group contains the identity."""
    out = []
    for e in res.curve:
        for plain, aligned, split in ((e.r_tr, e.rs_tr, "train"), (e.r_val, e.rs_val, "val")):
            if aligned > plain + checks.EXACT_TOL * max(1.0, plain):
                msg = f"{split} risk aligned {aligned} > plain {plain}"
                out.append(f"{mode} epoch {e.epoch}: {msg}")
    return out


def check_alignments(data: Data, model) -> list[str]:
    out = []
    for s in data.fit + data.val:
        p = checks.read_problem(data.dir, s.name)
        grid = p.binary_grid
        if grid is None:
            continue
        xhat = net.forward(model, s.graph)[grid]
        x = np.asarray(checks.read_label(data.dir, s.name)["values"], dtype=float)[grid]
        pi, cost = align.best_perm(align.AlignmentProblem(xhat, x, align.BCE, p.group))
        out += checks.check_alignment(s.name, xhat, x, list(pi.mapping), cost)
    return out


def check_gradient(data: Data, model, coords: int = 24) -> list[str]:
    """net.loss_and_grad's gradient against central differences of its loss.

    The differences are taken of loss_and_grad's own loss, the function
    training minimises. net.sample_loss clips probabilities at 1e-12 and so
    is flat where trained logits pass -27.6, which they do (see README).
    A step that crosses a ReLU kink breaks the difference quotient, so a
    coordinate fails only when no step of 1e-5, 1e-6 or 1e-7 agrees.
    """
    s = data.fit[0]

    def loss():
        return net.loss_and_grad(model, s.graph, s.label, net.BCE, s.target_idx)[0]

    _, grads = net.loss_and_grad(model, s.graph, s.label, net.BCE, s.target_idx)
    rng = np.random.default_rng(7)
    names = model.param_names()
    out = []
    for _ in range(coords):
        name = names[int(rng.integers(len(names)))]
        arr = model.params[name]
        idx = tuple(int(rng.integers(d)) for d in arr.shape)
        analytic = float(grads[name][idx])
        keep = arr[idx]
        for h in (1e-5, 1e-6, 1e-7):
            arr[idx] = keep + h
            up = loss()
            arr[idx] = keep - h
            down = loss()
            arr[idx] = keep
            numeric = (up - down) / (2 * h)
            if abs(analytic - numeric) <= 1e-4 * max(abs(analytic) + abs(numeric), 1e-5):
                break
        else:
            out.append(f"gradient of {name}{list(idx)}: analytic {analytic} vs numeric {numeric}")
    return out


class Repair(Workload):
    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.context = None
        self.solves: list = []  # (context, pins, extra rows, result) of the first round's solves
        self.rounds: list = []  # per round: {(name, task, param): (status, objective)}
        self.quality = None

    def set_up(self):
        data = Data(self, REPAIR_COUNT)
        reset_alignment(data.fit + data.val)
        cfg = train_config(train.SYMMETRY_AWARE, self.seed, REPAIR_EPOCHS)
        data.fit_result = train.fit(data.fit, cfg, data.val)
        return data

    def _record(self, solve_bb):
        def recorded(instance, limits, fixed=None, extra_constraints=()):
            res = solve_bb(instance, limits, fixed=fixed, extra_constraints=extra_constraints)
            if self.context is not None:
                self.solves.append((self.context, dict(fixed or {}), tuple(extra_constraints), res))
            return res

        return recorded

    def run_round(self, data, r: int):
        first = not self.rounds
        finals = {}
        original = evalx.solve_bb
        evalx.solve_bb = self._record(original)
        try:
            preds = [net.forward(data.fit_result.model, s.graph) for s in data.all]
            records = evalx.evaluate_predictions(data.all, preds, M_LIST)
            for s, pred in zip(data.all, preds):
                for task, grid, repair in (
                    ("fix_opt", ALPHAS, evalx.fix_and_optimize),
                    ("local_branch", BETAS, evalx.local_branching),
                ):
                    for param in grid:
                        if first:
                            self.context = (data, s.name, task, param, pred)
                        res = repair(s.instance, pred, param, REPAIR_LIMITS)
                        self.context = None
                        obj = None if res.solution is None else res.solution.objective
                        finals[(s.name, task, param)] = (res.status, obj)
        finally:
            evalx.solve_bb = original
            self.context = None
        if first:
            self.quality = repair_quality(data, records, finals)
        self.rounds.append(finals)
        return len(finals), 0

    def check(self):
        failures = []
        for finals in self.rounds[1:]:
            if finals != self.rounds[0]:
                failures.append("repair outcomes differ between rounds of one run")
                break
        problems = {}
        for (data, name, task, param, pred), fixed, extra, res in self.solves:
            if name not in problems:
                label = checks.read_label(data.dir, name)
                problems[name] = (checks.read_problem(data.dir, name), float(label["objective"]))
            p, label_obj = problems[name]
            ball = ball_row = None
            if task == "local_branch":
                ball, ball_row = hamming_ball(p, pred, param)
                cut = [(sorted(con.coeffs), con.sense, con.rhs) for con in extra]
                if cut != [(sorted(ball_row[0]), "LE", ball_row[1])]:
                    failures.append(f"{name}: local branching at beta {param} solved with {cut}")
            if res.solution is not None:
                point = res.solution.values
                failures += checks.check_repair_point(p, point, label_obj, fixed, ball)
            elif res.status == oracle.INFEASIBLE:
                if task == "fix_opt":
                    failures += checks.confirm_infeasible(p, pins=fixed)
                else:
                    failures += checks.confirm_infeasible(p, extra_row=ball_row)
        self.quality["solves_checked"] = len(self.solves)
        return failures, self.quality


def hamming_ball(p, pred, beta):
    """Centre, radius and linear row of the ball local branching searches."""
    targets = np.flatnonzero(p.binary)
    center = {int(i): float(np.round(pred[i])) for i in targets}
    radius = int(np.floor(beta * len(targets)))
    coeffs = [(i, -1.0 if v == 1.0 else 1.0) for i, v in center.items()]
    rhs = radius - sum(1 for v in center.values() if v == 1.0)
    return (center, radius), (coeffs, rhs)


def repair_quality(data, records, finals) -> dict:
    labels = {s.name: s.instance.objective_value(s.label) for s in data.all}
    out = {
        "best_rs_val": data.fit_result.best_val,
        "top_m_mean": {int(m): float(np.mean([r.top_m[int(m)] for r in records])) for m in M_LIST},
        "gap_mean": {},
        "no_solution": {},
    }
    for task, grid in (("fix_opt", ALPHAS), ("local_branch", BETAS)):
        for param in grid:
            gaps, missing = [], 0
            for name, best in labels.items():
                status, obj = finals[(name, task, param)]
                if obj is None:
                    missing += 1
                else:
                    gaps.append(evalx.primal_gap(obj, best))
            out["gap_mean"][f"{task}@{param}"] = float(np.mean(gaps)) if gaps else None
            out["no_solution"][f"{task}@{param}"] = missing
    return out


WORKLOADS = {"label": Label, "train": Train, "repair": Repair}

# ---------------------------------------------------------------------------
# Measurement


def timed_rounds(wl, state, seconds=None, rounds=None):
    """Whole rounds until `seconds` have passed or `rounds` are done."""
    times, attempted, failed = [], 0, 0
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        a, f = wl.run_round(state, r)
        times.append((a, time.perf_counter() - t0))
        attempted += a
        failed += f
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return times, attempted, failed


def timed_setup(wl):
    t0 = time.perf_counter()
    state = wl.set_up()
    return state, time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_threads():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def machine_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": process_threads(),
    }


def end_to_end(times, setups) -> dict:
    ops = sum(a for a, _ in times)
    secs = sum(dt for _, dt in times)
    return {
        "ops_per_s": {"value": ops / secs, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def per_layer(summary: dict, overhead_pct: float) -> dict:
    m = {}
    for _, _, name in spans.TARGETS:
        m[f"{name}.calls"] = {"value": summary["calls"][name], "unit": "count"}
        m[f"{name}.ms"] = {"value": summary["ms"][name], "unit": "ms"}
    counters = summary["counters"]
    bb_ms = summary["ms"]["oracle.solve_bb"]
    nodes = counters["oracle.solve_bb.nodes"]
    m["oracle.solve_bb.nodes"] = {"value": nodes, "unit": "count"}
    self_ms = bb_ms - counters["oracle.linprog_in_solve_bb_ms"]
    m["oracle.self_ms"] = {"value": self_ms, "unit": "ms"}
    m["oracle.ms_per_node"] = {"value": bb_ms / nodes if nodes else 0.0, "unit": "ms"}
    m["oracle.limit_hits"] = {"value": counters["oracle.limit_hits"], "unit": "count"}
    m["evalx.solve_bb.nodes"] = {"value": counters["evalx.solve_bb.nodes"], "unit": "count"}
    m["evalx.no_solution"] = {"value": counters["evalx.no_solution"], "unit": "count"}
    m["train.pi_changed"] = {"value": counters["train.pi_changed"], "unit": "count"}
    m["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return m


def run(workload: str, seed: int, seconds: int, trace: bool) -> list[str]:
    """Run one workload; returns the lines to print, the result object last."""
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work_{workload}_s{seed}_{os.getpid()}")
    wl = WORKLOADS[workload](seed, work)
    failures = checks.self_test()
    info: dict = {}
    try:
        if not trace:
            setups = []
            for _ in range(SETUP_REPEATS):
                state, dt = timed_setup(wl)
                setups.append(dt)
            times, attempted, failed = timed_rounds(wl, state, seconds=seconds)
            metrics = end_to_end(times, setups)
            info["setup_s_each"] = setups
        else:
            # The same set-up and rounds, first untraced, then traced.
            state, plain_setup = timed_setup(wl)
            times, attempted, failed = timed_rounds(wl, state, seconds=seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                state, traced_setup = timed_setup(wl)
                times_t, att_t, fail_t = timed_rounds(wl, state, rounds=len(times))
            finally:
                tracer.uninstall()
            plain = plain_setup + sum(dt for _, dt in times)
            traced = traced_setup + sum(dt for _, dt in times_t)
            summary = tracer.summary()
            metrics = per_layer(summary, 100.0 * (traced / plain - 1.0))
            attempted += att_t
            failed += fail_t
            info.update(untraced_s=plain, traced_s=traced)
            tracer.write(
                os.path.join(OUT, f"trace_{workload}_s{seed}.json"),
                {"workload": workload, "seed": seed, "summary": summary},
            )
        info["rounds"] = [{"ops": a, "s": dt} for a, dt in times]
        found, quality = wl.check()
        failures += found
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=int(trace))
    record.update(quality=quality, failures=failures, machine=machine_facts(), **info)
    path = os.path.join(OUT, f"result_{workload}_s{seed}_t{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")
    lines = [f"CHECK FAILED: {msg}" for msg in failures[:20]]
    lines.append(f"quality: {json.dumps(quality, default=str)}")
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"attempted = {attempted}, failed = {failed}, correct = {result['correct']}")
    lines.append(json.dumps(result))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    # On SIGTERM, unwind through run()'s cleanup of its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # HiGHS can print diagnostics from C code to file descriptor 1, and C
    # buffers are flushed at exit, after Python's. Point descriptor 1 at
    # stderr so that the result object stays the last line of stdout.
    report = os.fdopen(os.dup(1), "w")
    sys.stdout.flush()
    os.dup2(2, 1)
    lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report.write("\n".join(lines) + "\n")
    report.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
