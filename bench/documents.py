"""Document I/O at desk scale, written to ``BENCH_documents.json`` at the repository root.

    python3 bench/documents.py [--dims 16,24,32] [--repeats 3]

Run from anywhere; the package is imported from this checkout's ``src``.  Two
families: the Weyl basis, and "dense", the Weyl basis moved by two unitaries
drawn from ``default_rng(8)`` through ``apply_equivalence``, which has no zero
entry.  For each family and d it records:

* in process, for the basis and for its teleportation scheme document: the
  text's size, the best of ``--repeats`` wall times of ``loads`` (of the str)
  and ``dumps``, each one's tracemalloc peak, and one numpy comparison pass
  over the same text, so ``loads`` and ``dumps`` can be read as multiples of
  it across hosts that drift;
* whole ``tightport`` processes, one child at a time: ``verify``,
  ``generate entangled-basis``, ``generate scheme``, ``verify`` of the scheme
  and ``simulate --state pure:0`` (plus ``generate unitary-basis`` for Weyl),
  each child's best wall time and its own ``ru_maxrss`` from ``os.wait4``,
  also as MiB above a bare ``import tightport.cli`` child.

BLAS runs one thread, as in ``perfbench``, whose environment fields are
recorded too.  The script is not a test: ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from run import blas_info, git_sha  # noqa: E402  (sets one BLAS thread before numpy loads)

import numpy as np  # noqa: E402

import tightport as tp  # noqa: E402

MIB = 2**20


def dense(basis):
    rng = np.random.default_rng(8)
    v1, v2 = (np.linalg.qr(rng.standard_normal((basis.d,) * 2)
                           + 1j * rng.standard_normal((basis.d,) * 2))[0] for _ in range(2))
    return tp.apply_equivalence(basis, v1, v2)


def best_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(min(times) * 1e3, 3)


def traced_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return round(tracemalloc.get_traced_memory()[1] / MIB, 3)
    finally:
        tracemalloc.stop()


def document_row(family: str, kind: str, obj, repeats: int) -> dict:
    doc = tp.make_document(obj)
    text = tp.dumps(doc)
    chars = np.frombuffer(text.encode(), np.uint8)
    return {"family": family, "kind": kind, "d": obj.d, "bytes": len(text),
            "loads_ms": best_ms(lambda: tp.loads(text), repeats),
            "dumps_ms": best_ms(lambda: tp.dumps(doc), repeats),
            "compare_pass_ms": best_ms(lambda: chars == ord("["), repeats),
            "loads_peak_mib": traced_mib(lambda: tp.loads(text)),
            "dumps_peak_mib": traced_mib(lambda: tp.dumps(doc))}


# Spawns one child and reports its wall time, exit code and own ru_maxrss (KiB on Linux).  It
# runs in a bare interpreter: a child's ru_maxrss counts the image it was forked from, and this
# script's own, with numpy and the documents loaded, would hide the child's.
_LAUNCH = """import json, os, subprocess, sys, time
start = time.perf_counter()
process = subprocess.Popen(json.loads(sys.argv[1]), stdout=subprocess.DEVNULL)
status, usage = os.wait4(process.pid, 0)[1:]
print(json.dumps([time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss]))
"""


def child(argv: list[str], cwd: str, repeats: int) -> tuple[float, float]:
    """The best wall time in seconds and the largest ``ru_maxrss`` in MiB of ``argv``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times, peaks = [], []
    for _ in range(repeats):
        launch = [sys.executable, "-c", _LAUNCH, json.dumps([sys.executable, *argv])]
        launched = subprocess.run(launch, cwd=cwd, env=env, capture_output=True, text=True,
                                  check=True)
        seconds, code, peak = json.loads(launched.stdout)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        times.append(seconds)
        peaks.append(peak / 1024)
    return round(min(times), 4), round(max(peaks), 2)


def process_rows(family: str, d: int, repeats: int) -> list[dict]:
    cli = ["-m", "tightport.cli"]
    steps = [("verify basis", ["verify", "basis.json"], "basis.json"),
             ("generate entangled-basis",
              ["generate", "entangled-basis", "--from-basis", "basis.json", "-o", "e.json"],
              "e.json"),
             ("generate scheme", ["generate", "scheme", "--from-basis", "basis.json",
                                  "-o", "scheme.json"], "scheme.json"),
             ("verify scheme", ["verify", "scheme.json"], "scheme.json"),
             ("simulate", ["simulate", "scheme.json", "--state", "pure:0"], "scheme.json")]
    if family == "weyl":
        steps.insert(0, ("generate unitary-basis", ["generate", "unitary-basis", "--construction",
                                                    "weyl", "--d", str(d), "-o", "basis.json"],
                         "basis.json"))
    rows = []
    with tempfile.TemporaryDirectory() as cwd:
        if family == "dense":
            tp.save(tp.make_document(dense(tp.weyl_basis(d))), os.path.join(cwd, "basis.json"))
        bare = child(["-c", "import tightport.cli"], cwd, repeats)[1]
        for name, argv, path in steps:
            seconds, peak = child(cli + argv, cwd, repeats)
            rows.append({"family": family, "d": d, "command": name, "seconds": seconds,
                         "maxrss_mib": peak, "above_bare_mib": round(peak - bare, 2),
                         "file_bytes": os.path.getsize(os.path.join(cwd, path))})
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", default="16,24,32")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    dims = [int(d) for d in args.dims.split(",")]
    documents, processes = [], []
    for d in dims:
        for family in ("weyl", "dense"):
            basis = tp.weyl_basis(d) if family == "weyl" else dense(tp.weyl_basis(d))
            for kind, obj in (("basis", basis), ("scheme", tp.build_scheme(basis))):
                documents.append(document_row(family, kind, obj, args.repeats))
                print(json.dumps(documents[-1]), flush=True)
            del basis, obj
            for row in process_rows(family, d, args.repeats):
                processes.append(row)
                print(json.dumps(row), flush=True)
    env = {"python": sys.version.split()[0], "nproc": os.cpu_count(), "git_sha": git_sha(),
           "dims": dims, "repeats": args.repeats, **blas_info()}
    with open(os.path.join(ROOT, "BENCH_documents.json"), "w", encoding="utf-8") as handle:
        json.dump({"env": env, "documents": documents, "processes": processes}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
