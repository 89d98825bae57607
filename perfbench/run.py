"""Seeded benchmark of redunet: construction, serving and CLI I/O.

Run from the repository root, one workload per process so that its peak
RSS is its own:

    python3 perfbench/run.py --workload dense-sphere --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json,
``--trace 1`` the per-layer metrics of the traced run. The last line of
standard output is the result object; the line before it is the run record
(machine facts, parameters and per-iteration figures), which is also written
with every span to perfbench/out/. ``--scale toy`` shrinks every workload for
the benchmark's own tests.

A traced run on one workload still prints every per-layer metric: layers the
workload does not drive are timed on the toy-scale workload that does, and
the record lists those under ``probes``.

inv1d-rotation (the criterion-9 shape) runs by name but is not listed in
BENCHMARK.json: its iterations take about 5 s, too few fit in a run for its
figures to be steady on a shared 2-core host. Traced runs still time its
polar resampling through the toy probe.
"""

from __future__ import annotations

import os
import sys
import time

# Thread pools are sized when numpy loads: pin them to one thread first,
# the plain single-threaded baseline.
THREAD_ENV = dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
     "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"), "1")
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPS = {"full": 7, "toy": 2}
# probes take missing layers from the first workload here that has them
WORKLOAD_NAMES = ("dense-sphere", "inv2d-cli", "inv1d-rotation")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full")
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "commit": git_commit(ROOT),
    }


def _median(values) -> float:
    return statistics.median(list(values))


def _faster_half_mean(values) -> float:
    """Mean of the faster half of the values (the middle one included)."""
    values = sorted(values)
    return statistics.mean(values[: (len(values) + 1) // 2])


class Runner:
    """Set-up, timed iterations and the traced replay of one workload."""

    def __init__(self, wl, seed: int, rec, workdir: Path) -> None:
        from workloads import check_iteration

        self.wl, self.seed, self.rec, self.workdir = wl, seed, rec, workdir
        self._check_iteration = check_iteration
        self.iterations: list[dict] = []
        self.timing_stats: dict = {}

    def setup(self, reps: int):
        """Set up ``reps`` times; returns the inputs and each rep's span times."""
        import numpy as np

        inp, setups = None, []
        for _ in range(reps):
            i0 = len(self.rec.spans)
            with self.rec.span("setup", op=False):
                new = self.wl.setup(self.seed, self.workdir, self.rec)
            if inp is not None:
                self.rec.check("setup.deterministic",
                               np.array_equal(new.Z, inp.Z) and np.array_equal(new.Zt, inp.Zt))
            inp = new
            setups.append(self.rec.durations(i0))
        return inp, setups

    def step(self, inp, ref: dict | None, tag: str) -> dict:
        """One pipeline iteration plus its output checks. Only the first
        (reference) iteration keeps its output arrays."""
        i0 = len(self.rec.spans)
        it = self.wl.iterate(inp, self.rec, first=ref is None)
        spans = self.rec.durations(i0)
        it.update(self.wl.timings(spans), spans=spans, tag=tag)
        self._check_iteration(self.rec, it, ref, self.wl.floor, self.wl.columns)
        if ref is not None:
            for key in ("train_out", "test_out", "pred", "nsc_train"):
                it.pop(key, None)
        self.iterations.append({k: v for k, v in it.items()
                                if k in ("tag", "construct_s", "forward_s", "nsc_s", "total_s")})
        return it

    def measure(self, inp, seconds: float, counter=None):
        """A warm-up iteration, then iterations until the next one would end
        past ``seconds``. With a counter, iterations come in untraced/traced
        pairs."""
        begin = time.perf_counter()
        ref = self.step(inp, None, "warm-up")
        untraced, traced = [], []
        while True:
            untraced.append(self.step(inp, ref, "untraced"))
            if counter is not None:
                with counter:
                    traced.append(self.step(inp, ref, "traced"))
            spent = time.perf_counter() - begin
            if spent + spent / (len(untraced) + 1) > seconds:
                return ref, untraced, traced

    def end_to_end(self, inp, setups, import_s: float, seconds: float) -> dict:
        """Iteration timings are the mean of the faster half of the measured
        iterations. On a shared host other tenants slow whole stretches of a
        run; over ten-run sets this statistic's worst spread was below that
        of the median and of the minimum. The record keeps min, median, max
        and count."""
        ref, runs, _ = self.measure(inp, seconds)
        n_test = inp.Zt.shape[1] if self.wl.columns else inp.Zt.shape[0]
        timing = {key: [it[key] for it in runs]
                  for key in ("construct_s", "forward_s", "nsc_s", "total_s")}
        self.timing_stats = {key: {"n": len(v), "min": min(v), "median": _median(v),
                                   "max": max(v)} for key, v in timing.items()}
        return {
            "setup_s": import_s + _median(d["setup"] for d in setups),
            "construct_s": _faster_half_mean(timing["construct_s"]),
            "forward_samples_per_s": n_test / _faster_half_mean(timing["forward_s"]),
            "nsc_s": _faster_half_mean(timing["nsc_s"]),
            "total_s": _faster_half_mean(timing["total_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "model_mb": ref["model_mb"],
            "final_dR": ref["curve"][-1][2],
            "test_acc": ref["test_acc"],
        }

    def per_layer(self, inp, setups, seconds: float) -> dict:
        import numpy as np
        from spans import LinalgCounter

        counter = LinalgCounter(np.linalg)
        ref, untraced, traced = self.measure(inp, seconds, counter)
        out = {f"{name}_ms": 1e3 * _median(d.get(name, 0.0) for d in setups)
               for name in self.wl.setup_layer_spans}
        for name in self.wl.iteration_layer_spans:
            out[f"{name}_ms"] = 1e3 * _median(it["spans"][name] for it in traced)
        with counter:
            out.update(self.wl.replay(inp, self.rec, counter, ref))
        out["trace.overhead_s"] = (_median(it["total_s"] for it in traced)
                                   - _median(it["total_s"] for it in untraced))
        return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "redunet" / "__init__.py").is_file():
        print(f"error: redunet sources not found under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy as np
    import redunet
    import redunet.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    from spans import Recorder
    from workloads import WORKLOADS

    def make(name: str, scale: str):
        return WORKLOADS[name](scale, spec["test_acc_floor"][name][scale])

    wl = make(args.workload, args.scale)
    run_id = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    rec = Recorder(run_id)
    record = {
        "run": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "params": wl.params,
        "facts": machine_facts(np),
        "redunet": redunet.__version__,
        "import_s": import_s,
    }
    work = BENCH_DIR / "work" / run_id
    runner = Runner(wl, args.seed, rec, work)
    metrics: dict[str, float] = {}
    try:
        work.mkdir(parents=True)
        inp, setups = runner.setup(SETUP_REPS[args.scale])
        record["setup_s"] = [d["setup"] for d in setups]
        if not args.trace:
            metrics = runner.end_to_end(inp, setups, import_s, args.seconds)
        else:
            metrics = runner.per_layer(inp, setups, args.seconds)
            record["probes"] = {}
            for other in WORKLOAD_NAMES:
                missing = [m["name"] for m in bench["per_layer"] if m["name"] not in metrics]
                if not missing or other == args.workload:
                    continue
                probe = Runner(make(other, "toy"), args.seed, rec, work / other)
                (work / other).mkdir()
                with rec.span(f"probe.{other}", op=False):
                    p_inp, p_setups = probe.setup(SETUP_REPS["toy"])
                    found = probe.per_layer(p_inp, p_setups, 0)
                for name in missing:
                    if name in found:
                        metrics[name] = found[name]
                        record["probes"][name] = f"{other}@toy"
    except Exception as exc:
        rec.fail(exc)
        record["traceback"] = traceback.format_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["iterations"] = runner.iterations
    record["timing_stats"] = runner.timing_stats
    record["failures"] = rec.failures

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = {
        "correct": rec.failed == 0 and all(m["name"] in metrics for m in wanted),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{run_id}.json").write_text(
        json.dumps({"record": record, "result": result, "spans": rec.to_json()}) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
