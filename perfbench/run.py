"""Run one ``tightport`` benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify_small --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the package is imported from ``src``.
Inputs come from ``--seed`` and are generated, with a warm-up, before the
timed window; the loop is closed (one caller, the next operation starts
when the previous one ends).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs every operation both untraced and traced, in alternating
order, and prints the per-layer metrics from the traced runs together with
their wall-time ratio.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with the environment and the workload's d-mix and caps, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

# One BLAS thread, here and in every child process, set before numpy loads.
# With the default two threads on a 2-core machine, one other busy process
# halved certify_large throughput (0.93 to 0.45 objects/s), and the first
# teleport_state calls took 250 ms instead of 2 ms.  One thread keeps the
# figures to the program's own work; the thread count is stored with them.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("certify_small", "certify_large", "cli_pipeline")
SETUP_REPEATS = 3

END_TO_END = {"ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}

# Functions whose self time is reported on its own, per layer (module).
FUNCTIONS = {
    "designs": ["hadamards_equivalent", "count_normalized_latin", "validate_latin"],
    "bases": ["shift_multiply_basis", "tensor_bases", "verify_orthonormal",
              "verify_depolarizer", "recover_weight_from_unitary_gram"],
    "tensor": ["check_projector_completeness", "is_maximally_entangled"],
    "schemes": ["basis_to_entangled", "build_scheme", "verify_entangled_basis",
                "verify_teleportation", "verify_dense_coding", "teleport_state",
                "extract_basis_from_scheme", "entangled_to_basis"],
    "serialize": ["loads", "dumps"],
    "cli": ["generate", "verify", "simulate", "count_latin"],
}
LAYER_FAILED = ("designs", "bases", "schemes", "cli")
EXTRAS = {"schemes.teleport_state.peak_mb": "MB", "serialize.bytes_in": "B",
          "serialize.bytes_out": "B", "serialize.loads.mb_per_s": "MB/s",
          "cli.startup_s": "s", "trace.overhead_ratio": "ratio"}


# The speed of a shared 2-core virtual machine drifted by up to 25% between
# consecutive runs and moved the time of a fixed task that does not use
# tightport in step with the benchmark's own.  End-to-end timings are
# therefore scaled to a host on which that task takes REFERENCE_S, about its
# time on the unloaded machine, so that scaled figures read close to wall
# time there.  The unscaled ones are printed and stored beside them; the
# README gives the check that the scale keeps a known change in speed.
REFERENCE_S = 0.75e-3
REFERENCE_WINDOW = 5


class HostSpeed:
    """Times the reference task between operations and turns it into a scale.

    The task avoids BLAS, so that it follows the host and not the BLAS
    build.  Each sample is the fastest of three back-to-back runs, so that the cache
    state an operation leaves behind (a CLI child process evicts the parent's
    caches) does not reach the scale; only the host's speed should.
    """

    def __init__(self):
        import numpy as np

        self._array = np.random.default_rng(0).standard_normal(4096)
        self._sort = np.sort
        self._recent: list[float] = []

    def _task(self) -> float:
        start = time.perf_counter()
        self._sort(self._array)
        total = 0
        for i in range(20_000):  # interpreter work, as in the battery's Python loops
            total += i
        return time.perf_counter() - start

    def scale(self, samples: int = 1) -> float:
        """Take ``samples`` samples; REFERENCE_S over the median of the latest ones."""
        for _ in range(samples):
            best = min(self._task() for _ in range(3))
            self._recent = (self._recent + [best])[-REFERENCE_WINDOW:]
        return REFERENCE_S / statistics.median(self._recent)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, functions in FUNCTIONS.items():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        if layer in LAYER_FAILED:
            units[f"{layer}.failed"] = "count"
        for fn in functions:
            units[f"{layer}.{fn}.busy_s"] = "s"
    units.update(EXTRAS)
    return units


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile ``q``.

    The sorted values share the Beta((n+1)q, (n+1)(1-q)) distribution by
    equal slices, so the estimate averages the order statistics near ``q``
    instead of picking one.  A pipeline step is seen once per run, and a
    single order statistic jumped by 20% from run to run where neighbouring
    steps differ in cost.
    """
    import numpy as np

    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf /= cdf[-1]
    edges = np.arange(n + 1) / n
    return float(np.diff(np.interp(edges, grid, cdf)) @ v)


def end_to_end(latencies: list[float], tail_percentile: float) -> dict[str, float]:
    """Throughput and latency percentiles of whole rounds of the mix."""
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "p50_ms": 1e3 * harrell_davis(latencies, 0.5),
        "tail_ms": 1e3 * harrell_davis(latencies, tail_percentile / 100),
    }


def blas_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads(np)
    return info


def _blas_threads(np) -> int | None:
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def environment(args, spec: dict) -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
           "seed": args.seed, "seconds": args.seconds, "workload": args.workload,
           "spec": spec}
    env.update(blas_info())
    return env


def make_workload(name: str, workdir: str):
    if name == "cli_pipeline":
        from cli_pipeline import CliPipeline

        return CliPipeline(ROOT, workdir)
    from certify import Certify

    return Certify(name)


def measure(workload, pool: list, seconds: float, tracer, traced: bool, speed) -> dict:
    """The timed window: whole rounds of the pool until ``seconds`` have passed.

    A round holds every class of the mix at its stated weight (for
    ``cli_pipeline``, one whole pipeline), so a slow run is judged on the
    same work as a fast one.  A round starts only when the last one says it
    will end by the deadline; the first always runs.  With ``traced`` each
    operation runs twice, untraced and traced, and the order alternates;
    only the traced runs record spans.
    """
    probe = getattr(workload, "serialize_probe", None)
    records, failures = [], []
    plain_s = traced_s = round_s = 0.0
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() + round_s < deadline:
        round_start = time.perf_counter()
        for _ in range(workload.round_size):
            item = pool[index % len(pool)]
            modes = ((False, True) if index % 2 else (True, False)) if traced else (False,)
            ok_all = True
            for mode in modes:
                tracer.enabled, tracer.op = mode, index
                start = time.perf_counter()
                with tracer.span("op"):
                    ok, misses = workload.run(item, tracer)
                elapsed = time.perf_counter() - start
                if mode:
                    traced_s += elapsed
                    if probe:
                        probe(item, tracer)
                else:
                    plain_s += elapsed
                ok_all &= ok
                if mode == modes[-1]:
                    scale = 1.0 if traced else speed.scale()
                    records.append((workload.key(item), elapsed, ok_all, scale))
                    failures += [(who, what, ok_all) for who, what in misses]
            index += 1
        round_s = time.perf_counter() - round_start
    tracer.enabled = False
    return {"records": records, "failures": failures, "plain_s": plain_s, "traced_s": traced_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tightport", "__init__.py")):
        print(f"error: no tightport sources under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(1, HERE)
    from spans import Tracer, layer_metrics

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        workload = make_workload(args.workload, workdir)
        speed = HostSpeed()
        setups, setup_scales = [], []
        for _ in range(SETUP_REPEATS):
            setup_scales.append(speed.scale(samples=REFERENCE_WINDOW))
            start = time.perf_counter()
            pool = workload.make_inputs(args.seed)
            workload.warm_up(pool)
            setups.append(time.perf_counter() - start)

        tracer = Tracer()
        run = measure(workload, pool, args.seconds, tracer, bool(args.trace), speed)
        tracer.enabled, tracer.op = bool(args.trace), -1
        defects = getattr(workload, "known_defects", lambda _: [])(tracer)
        tracer.enabled = False
        extras = workload.layer_extras(pool) if args.trace else {}

    records = run["records"]
    attempted = len(records)
    failed = sum(1 for _, _, ok, _ in records if not ok)
    if args.trace:
        units = per_layer_units()
        metrics = dict.fromkeys(units, 0.0)
        metrics.update({k: v for k, v in layer_metrics(tracer, FUNCTIONS).items() if k in units})
        metrics.update(extras)
        loads_s = metrics["serialize.loads.busy_s"]
        if loads_s:
            metrics["serialize.loads.mb_per_s"] = metrics["serialize.bytes_in"] / 1e6 / loads_s
        metrics["trace.overhead_ratio"] = run["traced_s"] / run["plain_s"]
    else:
        units = END_TO_END
        tail = workload.spec["tail_percentile"]
        metrics = end_to_end([lat * scale for _, lat, _, scale in records], tail)
        metrics["setup_s"] = statistics.median(s * k for s, k in zip(setups, setup_scales))
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_pipeline" else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        unscaled = end_to_end([lat for _, lat, _, _ in records], tail)
        unscaled["setup_s"] = statistics.median(setups)
        host_scale = statistics.median(r[3] for r in records)

    env = environment(args, workload.spec)
    print("env: " + json.dumps({k: v for k, v in env.items() if k != "spec"}))
    print("mix and caps: " + json.dumps(env["spec"]))
    print(f"workload {args.workload}: {attempted} operations, {failed} disagreed with the "
          f"expected outcome (fail_ratio {failed / max(attempted, 1):.4f}); "
          f"tail is p{workload.spec['tail_percentile']}")
    inputs: dict = {}
    for who, what, ok in run["failures"]:
        inputs.setdefault((what, ok), []).append(who)
    for (what, ok), who in inputs.items():
        verdict = "operation agrees" if ok else "operation DISAGREES"
        shown = ", ".join(sorted(set(who))[:5])
        print(f"  check miss x{len(who)} ({verdict}): {what}; inputs: {shown}")
    for line in defects:
        print(f"  known defect {line}")
    if not args.trace:
        print(f"host scale {host_scale:.4f} (reference task {REFERENCE_S / host_scale * 1e3:.3f} ms"
              f" against {REFERENCE_S * 1e3:g} ms); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(os.path.join(OUT, f"{tag}-spans.jsonl"))
    by_key: dict = {}
    for key, lat, *_ in records:
        by_key.setdefault(str(key), []).append(lat)
    result = {"env": env, "attempted": attempted, "failed": failed, "setups_s": setups,
              "unscaled_metrics": {} if args.trace else unscaled,
              "host_scale": None if args.trace else host_scale,
              "median_s_by_class": {k: [statistics.median(v), len(v)] for k, v in by_key.items()},
              "check_misses": run["failures"], "known_defects": defects,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, default=str)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
