"""gexpect benchmark: four seeded closed-loop workloads through the public API.

Usage (from the repository root):

    python3 bench/run.py --workload lattice --seed 1 --seconds 10 --trace 0

One client, one process, one thread; BLAS and OpenMP pools are pinned to one
thread before numpy is imported.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` wraps the public functions of each layer and prints the
per-layer metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
See bench/README.md for the workloads, metrics and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
OUT = BENCH / "out"
REFERENCE_SEED = 0
SETUP_REPEATS = 5  # one in this process, the rest in fresh interpreters
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOAD_NAMES = ("lattice", "walk", "paths", "verify")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up, print the seconds and exit")
    p.add_argument("--write-reference", action="store_true",
                   help=f"record this run's outputs as the pinned reference "
                        f"(requires --seed {REFERENCE_SEED})")
    return p.parse_args(argv)


def import_program():
    """Import gexpect from this checkout's src/; returns (module, seconds)."""
    if not (SRC / "gexpect" / "__init__.py").is_file():
        raise SystemExit(f"error: no gexpect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import gexpect  # noqa: F401  (numpy comes in with it)
    import gexpect.verifier  # noqa: F401

    seconds = perf_counter() - t0
    if Path(gexpect.__file__).resolve().parent != SRC / "gexpect":
        raise SystemExit(f"error: imported gexpect from {gexpect.__file__}, not {SRC}")
    return gexpect, seconds


def settle_allocator() -> None:
    """Allocate, touch and free one 30 MiB block before anything is timed.

    glibc raises its mmap threshold to the size of a freed mmapped block, up
    to 32 MiB.  Until some operation frees such a block, every large numpy
    array is a fresh mmap whose pages fault in on first touch, and an n=200
    lattice value takes about twice as long.  Which operation first frees one
    depends on the order the seed picks, so without this step latencies
    depended on the seed by up to 2x.
    """
    import numpy as np

    np.ones((30 << 20) // 8)


def git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def cold_setups(args, n: int) -> list:
    """Set-up time of ``n`` fresh interpreters, run one after another.

    Each child imports gexpect, builds the workload's state and runs and checks
    the warm-up operation (``--setup-only``), so every repeat pays the cold
    costs, lazy imports included.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(n):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if res.returncode != 0:
            raise RuntimeError(f"set-up in a fresh interpreter failed:\n{res.stderr}")
        out.append(float(res.stdout.split()[-1]))
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def load_reference(workload: str):
    try:
        return json.loads(REFERENCE.read_text())[workload]
    except (OSError, KeyError, ValueError) as exc:
        raise SystemExit(f"error: no pinned reference for {workload}: {exc}")


def run(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    gx, import_s = import_program()

    import metrics
    import workloads
    from tracing import Tracer

    api = workloads.make_api()
    wl = workloads.WORKLOADS[args.workload](args.seed, api)
    reference = (None if args.write_reference or args.setup_only
                 else load_reference(args.workload))
    if args.write_reference and args.seed != REFERENCE_SEED:
        raise SystemExit(f"error: the reference is pinned to seed {REFERENCE_SEED}")

    # Set-up = import + lattice/corpus build + one checked warm-up operation,
    # timed cold: once in this process and SETUP_REPEATS - 1 times in fresh
    # interpreters.
    settle_allocator()
    setup_times, warm_ok = [], True
    t0 = perf_counter()
    try:
        warm = wl.setup()  # builds the state, then checks the warm-up output
        setup_times.append(import_s + perf_counter() - t0)
        if args.setup_only:
            print(setup_times[0])
            return 0
        if reference is not None:
            workloads.compare_reference("warm-up", warm, reference["warmup"])
        setup_times += cold_setups(args, SETUP_REPEATS - 1)
    except (workloads.CheckError, RuntimeError) as exc:
        if args.setup_only:
            raise
        warm_ok = False
        print(f"WRONG warm-up: {exc}", file=sys.stderr)

    tracer = restore = None
    if args.trace:
        tracer = Tracer()
        restore = tracer.install(api, gx)

    check_ref = reference is not None and args.seed == REFERENCE_SEED
    n_passes = wl.passes(args.seconds)
    latencies, pass_walls, recorded, op_log = [], [], [], []
    attempted = failed = 0
    op_id = 0
    try:
        for p in range(n_passes):
            wall = 0.0
            for i, op in enumerate(wl.ops()):
                attempted += 1
                gc.collect()
                if tracer:
                    tracer.begin_op(op_id, p)
                t0 = perf_counter()
                try:
                    out = op.run()
                except Exception:  # an operation that raises counts as failed
                    failed += 1
                    print(f"FAILED {op.label}:\n{traceback.format_exc()}", file=sys.stderr)
                    continue
                finally:
                    dt = perf_counter() - t0
                    if tracer:
                        tracer.end_op()
                    op_id += 1
                latencies.append(dt)
                op_log.append((p, op.label, dt))
                wall += dt
                try:
                    values = [float(v) for v in op.check(out)]
                    if check_ref:
                        label, want = reference["ops"][i]
                        if label != op.label:
                            raise workloads.CheckError(f"op {i} is {op.label}, reference has {label}")
                        workloads.compare_reference(op.label, values, want)
                except Exception:  # a wrong or malformed output counts as failed
                    failed += 1
                    print(f"WRONG {op.label}:\n{traceback.format_exc()}", file=sys.stderr)
                    continue
                finally:
                    del out
                if p == 0:
                    recorded.append([op.label, values])
            pass_walls.append(wall)
    finally:
        if restore:
            restore()

    if args.write_reference:
        if failed or not warm_ok:
            raise SystemExit("error: not recording a reference from a failing run")
        data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        data[args.workload] = {"seed": REFERENCE_SEED, "warmup": warm, "ops": recorded}
        REFERENCE.write_text(json.dumps(data, indent=1) + "\n")

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name} seed {args.seed} passes {n_passes} "
          f"ops/pass {attempted // n_passes} trace {args.trace}")
    print("shares " + json.dumps(wl.shares()))

    e2e = {}
    if len(latencies) > metrics.TAIL_BEYOND and setup_times:  # else the run failed
        tail, pct, n = metrics.tail(latencies)
        e2e = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(pass_walls),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name, value in e2e.items():
            unit = metrics.END_TO_END[name][0]
            note = f" (p{pct:.1f} of {n} samples)" if name == "op_tail_s" else ""
            print(f"metric {name} = {value:.6g} {unit}{note}")
    for p, label, dt in op_log:
        print(f"op pass {p} {label} {dt:.6g} s")
    print("setup_s repeats " + " ".join(f"{t:.6g}" for t in setup_times))
    print(f"fail_frac {failed}/{attempted} = {failed / max(attempted, 1):.6g}")

    if tracer:
        per_pass = tracer.per_pass_metrics().values()
        layer = {
            name: statistics.median([m[name] for m in per_pass])
            for name in metrics.per_layer_catalogue()
        }
        for name, (unit, _) in metrics.per_layer_catalogue().items():
            print(f"layer {name} = {layer[name]:.6g} {unit}")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.json"
        tracer.dump(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        chosen, catalogue = layer, metrics.per_layer_catalogue()
    else:
        chosen, catalogue = e2e, metrics.END_TO_END

    result = {
        "correct": failed == 0 and warm_ok and len(chosen) == len(catalogue),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": chosen[name], "unit": catalogue[name][0]}
            for name in catalogue if name in chosen
        },
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    return run(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
