"""Every verdict and conversion over d, written to ``BENCH_<label>.json`` at the repository root.

    python3 bench/sweep.py [--label sweep] [--dims 8,12,16,24,32] [--repeats N] [--out PATH]

Run from anywhere; the package is imported from this checkout's ``src``.  Four
families: the Weyl basis; "weyl, one perturbed", the Weyl basis with element 5
moved by 1e-3 in a direction drawn from ``default_rng(5)``, whose verdicts take
the blocks plus that element's products and fail; "dense", as in
``bench/documents.py``, the Weyl basis moved by two unitaries drawn from
``default_rng(8)`` through ``apply_equivalence``, which takes the full products;
and at even d "weyl x dense", ``tensor_bases`` of the Weyl basis at d / 2 and
the dense family at 2, whose elements are not a permutation times phases.  For each family and d it
times the operations below in one process: one warm-up call, then the best of
5 calls up to d = 16 and of 3 above (or of ``--repeats``), and one more call
under ``tracemalloc`` for the peak, in units of d^4 complex entries (one
d^2 x d^2 matrix).  Every call takes its inputs anew, built outside the timer
by their constructors from the arrays of the first ones, so that no call finds
the permutation-and-phases reading an earlier call kept on a value.  An operation
that raises ``TightportError`` (extraction, ``entangled_to_basis`` and weight
recovery on the perturbed family) is a detected failure: timed to its raise,
with ``passed`` false.  On Weyl and dense, "battery order" rows time two
verdicts in turn on one value, as ``perfbench``'s battery calls them:
``verify_teleportation`` then extraction on one scheme, and
``verify_entangled_basis`` then ``check_projector_completeness`` of its
``vectors`` on one entangled basis.  On the
Weyl family it also times ``weyl_basis``, at even d ``tensor_bases`` of Weyl
at d / 2 and 2, and the value sequence ``weyl_basis`` -> ``verify_orthonormal``
-> ``basis_to_entangled`` -> ``verify_entangled_basis`` -> ``entangled_to_basis``
-> ``build_scheme`` -> ``tp.verify`` in both modes -> extraction, which starts
from d and so runs on values held as their reading.  An operation whose
calls run past ``TIMEOUT_S`` seconds is recorded with ``null`` figures; the
alarm takes effect when the running numpy call returns.  It also
records ratios that survive a host's drift: a scheme's
``tp.verify`` over ``verify_orthonormal``, extraction over that ``tp.verify``,
and each other family over Weyl for each operation.

BLAS runs one thread, as in ``perfbench``, whose environment fields are
recorded too.  ``loads`` and ``dumps`` are ``bench/documents.py``'s.  The
script is not a test: ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import signal
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from run import blas_info, git_sha  # noqa: E402  (sets one BLAS thread before numpy loads)

import numpy as np  # noqa: E402

import tightport as tp  # noqa: E402
from documents import dense  # noqa: E402

TIMEOUT_S = 60.0  # per operation


def perturbed(basis):
    """``basis`` with element 5 moved by 1e-3 in a unit direction drawn from ``default_rng(5)``."""
    elements, rng = basis.elements.copy(), np.random.default_rng(5)
    direction = rng.standard_normal((basis.d,) * 2) + 1j * rng.standard_normal((basis.d,) * 2)
    elements[5 % len(elements)] += 1e-3 * direction / np.linalg.norm(direction)
    return tp.UnitaryBasis(basis.d, elements)


FAMILIES = {
    "weyl": tp.weyl_basis,
    "weyl, one perturbed": lambda d: perturbed(tp.weyl_basis(d)),
    "dense": lambda d: dense(tp.weyl_basis(d)),
    "weyl x dense": lambda d: tp.tensor_bases(tp.weyl_basis(d // 2), dense(tp.weyl_basis(2))),
}

# each takes the inputs it names, anew: the basis b, its teleportation and dense-coding
# schemes s and c, their effects e, and the state rho = e_0 e_0*
OPERATIONS = {
    "verify_orthonormal": ("b", tp.verify_orthonormal),
    "verify_depolarizer": ("b", tp.verify_depolarizer),
    "verify_entangled_basis": ("e", tp.verify_entangled_basis),
    "verify_teleportation": ("s", tp.verify_teleportation),
    "verify_dense_coding": ("c", tp.verify_dense_coding),
    "verify (scheme, teleportation)": ("s", tp.verify),
    "verify (scheme, dense coding)": ("c", tp.verify),
    "teleport_state (one rho)": ("s rho", tp.teleport_state),
    "recover_weight_from_unitary_gram": ("b", tp.recover_weight_from_unitary_gram),
    "extract_basis_from_scheme": ("s", tp.extract_basis_from_scheme),
    "basis_to_entangled": ("b", tp.basis_to_entangled),
    "entangled_to_basis": ("e", tp.entangled_to_basis),
    "build_scheme": ("b", tp.build_scheme),
}



def value_sequence(d: int) -> bool:
    """A Weyl value built, verified and converted in turn, as the baseline's sequence: whether
    both modes' schemes pass ``tp.verify``."""
    basis = tp.weyl_basis(d)
    tp.verify_orthonormal(basis)
    entangled = tp.basis_to_entangled(basis)
    tp.verify_entangled_basis(entangled)
    tp.entangled_to_basis(entangled)
    scheme = tp.build_scheme(basis)
    passed = bool(tp.verify(scheme)) and bool(tp.verify(tp.swap_roles(scheme)))
    tp.extract_basis_from_scheme(scheme)
    return passed


def teleportation_then_extraction(scheme):
    """``verify_teleportation`` and then extraction on the same scheme: the extracted basis."""
    tp.verify_teleportation(scheme)
    return tp.extract_basis_from_scheme(scheme)


def entangled_then_completeness(entangled):
    """``verify_entangled_basis`` and then completeness of the same value's ``vectors``."""
    tp.verify_entangled_basis(entangled)
    return tp.check_projector_completeness(entangled.vectors)


# on Weyl and dense, each pair on one value built anew
BATTERY_ORDER = {
    "battery order: verify_teleportation, extraction": ("s", teleportation_then_extraction),
    "battery order: verify_entangled_basis, completeness": ("e", entangled_then_completeness),
}

# on the Weyl family only, each from d, or from its fresh factors h = weyl_basis(d / 2) and
# t = weyl_basis(2) at even d
BUILDS = {
    "weyl_basis": ("d", tp.weyl_basis),
    "tensor_bases (weyl d/2 x weyl 2)": ("h t", tp.tensor_bases),
    "value sequence": ("d", value_sequence),
}


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def rebuilt(value):
    """``value`` anew from its constructor, which copies its arrays and keeps no reading.  Unlike
    a deep copy, it does the same work on every version of the package, so that a timed call
    finds the same memory on each."""
    if not dataclasses.is_dataclass(value):
        return value
    return type(value)(*(rebuilt(getattr(value, f.name)) for f in dataclasses.fields(value)))


def detected(operation, inputs):
    """``operation(*inputs)``, or False if it raises ``TightportError``, a detected failure."""
    try:
        return operation(*inputs)
    except tp.TightportError:
        return False


def measure(operation, fresh, repeats: int):
    """(best ms, traced peak in bytes, whether the result passed) of ``operation`` on the inputs
    ``fresh()`` makes anew for each call, outside the timer, or Nones past ``TIMEOUT_S``."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        result = detected(operation, fresh())
        times = []
        for _ in range(repeats):
            inputs = fresh()
            start = time.perf_counter()
            detected(operation, inputs)
            times.append(time.perf_counter() - start)
        inputs = fresh()
        tracemalloc.start()
        try:
            detected(operation, inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    except Timeout:
        return None, None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    passed = bool(result) if isinstance(result, (tp.CheckResult, bool)) else True
    return min(times) * 1e3, peak, passed


def family_rows(family: str, d: int, repeats: int) -> list[dict]:
    basis = FAMILIES[family](d)
    s, c = (tp.build_scheme(basis, mode) for mode in tp.MODES)
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1
    inputs = {"b": basis, "s": s, "c": c, "e": s.effects, "rho": rho, "d": d}
    operations = dict(OPERATIONS)
    if family in ("weyl", "dense"):
        operations.update(BATTERY_ORDER)
    if family == "weyl":
        operations.update(BUILDS)
        inputs.update(h=tp.weyl_basis(d // 2), t=tp.weyl_basis(2))
        if d % 2:
            del operations["tensor_bases (weyl d/2 x weyl 2)"]
    rows = []
    for name, (names, operation) in operations.items():
        fresh = lambda: [rebuilt(inputs[key]) for key in names.split()]  # noqa: E731
        ms, peak, passed = measure(operation, fresh, repeats)
        rows.append({"family": family, "d": d, "op": name,
                     "ms": None if ms is None else round(ms, 4),
                     "peak_d4": None if peak is None else round(peak / (16 * d ** 4), 4),
                     "passed": passed})
        print(json.dumps(rows[-1]), flush=True)
    return rows


def ratios(rows: list[dict]) -> list[dict]:
    ms = {(r["family"], r["d"], r["op"]): r["ms"] for r in rows}

    def ratio(a, b):
        return None if not (ms.get(a) and ms.get(b)) else round(ms[a] / ms[b], 3)

    out = []
    for family, d in sorted({(f, d) for f, d, _ in ms}):
        out.append({"family": family, "d": d, "ratio": "verify (scheme) / verify_orthonormal",
                    "value": ratio((family, d, "verify (scheme, teleportation)"),
                                   (family, d, "verify_orthonormal"))})
        out.append({"family": family, "d": d, "ratio": "extract / verify (scheme)",
                    "value": ratio((family, d, "extract_basis_from_scheme"),
                                   (family, d, "verify (scheme, teleportation)"))})
    for _, d, op in sorted(key for key in ms if key[0] == "weyl"):
        for family in ("weyl, one perturbed", "dense", "weyl x dense"):
            if (family, d, op) in ms:
                out.append({"family": f"{family} / weyl", "d": d, "ratio": op,
                            "value": ratio((family, d, op), ("weyl", d, op))})
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="sweep")
    parser.add_argument("--dims", default="8,12,16,24,32")
    parser.add_argument("--repeats", type=int, default=None,
                        help="calls timed per operation; 5 up to d = 16 and 3 above if not given")
    parser.add_argument("--out", default=None, help="default: BENCH_<label>.json at the root")
    args = parser.parse_args()
    dims = [int(d) for d in args.dims.split(",")]
    rows = []
    for d in dims:
        repeats = args.repeats or (5 if d <= 16 else 3)
        for family in FAMILIES if d % 2 == 0 else ("weyl", "weyl, one perturbed", "dense"):
            rows += family_rows(family, d, repeats)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "git_sha": git_sha(), "label": args.label,
           "dims": dims, "repeats": args.repeats, "timeout_s": TIMEOUT_S, **blas_info()}
    out = args.out or os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"env": env, "rows": rows, "ratios": ratios(rows)}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
