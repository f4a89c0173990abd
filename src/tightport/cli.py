"""Command-line front end: generate, verify, simulate, count-latin.

Exit codes: 0 on success, 1 when a verification or simulation check fails,
2 on malformed input or bad parameters, including a size too large to
allocate.  All randomness requires an explicit ``--rng-seed``; default paths
are fully deterministic.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bases import shift_multiply_basis, weyl_basis
from .common import DEFAULT_TOL, CheckResult, _Stack, require_positive
from .designs import (
    count_normalized_latin,
    fourier_hadamard,
    hadamard_d4_family,
    latin_equivalence_apply,
    latin_from_cyclic,
    periodic_phase_hadamard,
    validate_hadamard,
    validate_latin,
)
from .errors import TightportError
from .schemes import (
    DENSE_CODING,
    TELEPORTATION,
    basis_to_entangled,
    build_scheme,
    swap_roles,
    teleport_state,
    verify,
)
from .serialize import DesignDocument, document_to_object, load, make_document, save

_MODE_FLAGS = {"teleportation": TELEPORTATION, "dense-coding": DENSE_CODING}
_CONSTRUCTIONS = {"latin": ["cyclic", "random"], "hadamard": ["fourier", "d4-family", "periodic"],
                  "unitary-basis": ["weyl", "shift-multiply"]}


def _err(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_as(path, kind: str):
    doc = load(path)
    if doc.kind != kind:
        raise TightportError(f"{path} holds a {doc.kind!r} document, expected {kind!r}")
    return _take_over(doc)


def _take_over(doc: DesignDocument):
    """The object of a document just loaded and then dropped, holding the document's arrays
    rather than copies; a design's constructor validates and copies what it is given."""
    if doc.kind not in ("latin", "hadamard"):
        payload = {key: _Stack(value) if isinstance(value, np.ndarray) else value
                   for key, value in doc.payload.items()}
        doc = DesignDocument(doc.kind, doc.d, payload, doc.meta)
    return document_to_object(doc)


# ---------------------------------------------------------------------------
# generate

def _generate_object(args):
    kind = args.kind
    construction = args.construction
    choices = _CONSTRUCTIONS.get(kind, [construction])
    if construction not in choices:
        raise TightportError(f"{kind} needs --construction, one of {', '.join(choices)}; "
                             f"got {construction!r}")

    if kind == "latin":
        if construction == "cyclic":
            return latin_from_cyclic(_require(args, "d")), f"cyclic d={args.d}"
        d = _require(args, "d")  # random
        rng = _rng(args)
        p, q, r = (rng.permutation(d) for _ in range(3))
        square = latin_equivalence_apply(latin_from_cyclic(d), p, q, r)
        return square, f"random d={d} seed={args.rng_seed}"

    if kind == "hadamard":
        if construction == "fourier":
            return fourier_hadamard(_require(args, "d")), f"fourier d={args.d}"
        if construction == "d4-family":
            if args.u_phase is None or not np.isfinite(args.u_phase):
                raise TightportError(f"d4-family requires a finite --u-phase, got {args.u_phase}")
            u = np.exp(1j * args.u_phase)
            return hadamard_d4_family(u), f"d4-family u-phase={args.u_phase}"
        p, q = _require(args, "p"), _require(args, "q")  # periodic
        require_positive(p, "period p")
        require_positive(q, "period q")
        d = p * q
        if args.rng_seed is None:
            cell = np.ones((d, d), dtype=complex)
        else:
            rng = _rng(args)
            angles = rng.uniform(0.0, 2.0 * np.pi, size=(p, q))
            cell = np.exp(1j * np.tile(angles, (d // p, d // q)))
        return periodic_phase_hadamard(p, q, cell), f"periodic p={p} q={q} seed={args.rng_seed}"

    if kind == "unitary-basis":
        if construction == "weyl":
            return weyl_basis(_require(args, "d")), f"weyl d={args.d}"
        if not args.latin or not args.hadamards:  # shift-multiply
            raise TightportError("shift-multiply requires --latin and --hadamards")
        square = _load_as(args.latin, "latin")
        mats = [_load_as(path, "hadamard") for path in args.hadamards]
        if len(mats) == 1:
            mats = mats * square.d
        basis = shift_multiply_basis(square, mats)
        return basis, f"shift-multiply from {args.latin} + {len(args.hadamards)} hadamard file(s)"

    if kind == "entangled-basis":
        basis = _load_as(_require(args, "from_basis"), "unitary_basis")
        return basis_to_entangled(basis), f"from basis {args.from_basis}"

    # kind is "scheme", the last choice argparse admits
    basis = _load_as(_require(args, "from_basis"), "unitary_basis")
    mode = _MODE_FLAGS[args.mode]
    return build_scheme(basis, mode), f"{mode} scheme from basis {args.from_basis}"


def _require(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise TightportError(f"--{name.replace('_', '-')} is required here")
    return value


def _rng(args) -> np.random.Generator:
    if args.rng_seed is None or args.rng_seed < 0:
        raise TightportError(f"randomized generation requires --rng-seed >= 0, got {args.rng_seed}")
    return np.random.default_rng(args.rng_seed)


def cmd_generate(args) -> int:
    obj, meta = _generate_object(args)
    save(make_document(obj, meta), args.output)
    print(f"wrote {args.kind} document to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# verify

def _verify_document(doc: DesignDocument, tol: float) -> CheckResult:
    # The design constructors would reject a damaged design, which must print FAIL.
    if doc.kind == "latin":
        return validate_latin(doc.payload["grid"])
    if doc.kind == "hadamard":
        return validate_hadamard(doc.payload["matrix"], tol)
    return verify(_take_over(doc), tol)


def _fail(label: str, result: CheckResult, tol: float) -> int:
    worst = f"; worst: {result.witness}" if result.witness else ""
    print(f"FAIL {label}: max deviation {result.deviation:.3e} exceeds tol {tol:g}{worst}")
    return 1


def cmd_verify(args) -> int:
    doc = load(args.file)
    result = _verify_document(doc, args.tol)
    label = f"{doc.kind} (d={doc.d})"
    if not result.passed:
        return _fail(label, result, args.tol)
    print(f"PASS {label}: max deviation {result.deviation:.3e} within tol {args.tol:g}")
    return 0


# ---------------------------------------------------------------------------
# simulate

def _input_state(spec: str, d: int, args) -> list[np.ndarray]:
    if spec == "maximally-mixed":
        return [np.eye(d, dtype=complex) / d] * args.trials
    if spec.startswith("pure:"):
        index = spec[len("pure:"):]
        if not (index.isascii() and index.isdecimal() and int(index) < d):
            raise TightportError(f"--state pure:<i> needs an index i in 0..{d - 1}, got {spec!r}")
        rho = np.zeros((d, d), dtype=complex)
        rho[int(index), int(index)] = 1.0
        return [rho] * args.trials
    if spec == "random":
        rng = _rng(args)
        states = []
        for _ in range(args.trials):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = g @ g.conj().T
            states.append(rho / np.trace(rho))
        return states
    raise TightportError(
        f"unknown state spec {spec!r}; use pure:<i>, maximally-mixed, or random"
    )


def cmd_simulate(args) -> int:
    if args.trials < 1:
        return _err(f"--trials must be at least 1, got {args.trials}")
    scheme = _load_as(args.scheme, "scheme")
    states = _input_state(args.state, scheme.d, args)
    # the protocol the trials run, on the scheme's own arrays
    verdict = verify(scheme if scheme.mode == TELEPORTATION else swap_roles(scheme), args.tol)
    if not verdict:
        return _fail(f"scheme (d={scheme.d})", verdict, args.tol)
    deviations = []
    histogram = np.zeros(scheme.d**2)
    for rho in states:
        output, probabilities = teleport_state(scheme, rho, args.tol)
        deviations.append(np.abs(output - rho).max())
        histogram += probabilities / len(states)
    worst = float(np.max(deviations))  # NaN if any trial produced NaN
    print(f"max output deviation over {len(states)} trial(s): {worst:.3e}")
    print("outcome histogram [" + ", ".join(f"{p:.6f}" for p in histogram) + "]")
    if worst <= args.tol:
        print(f"PASS within tol {args.tol:g}")
        return 0
    print(f"FAIL: deviation exceeds tol {args.tol:g}")
    return 1


# ---------------------------------------------------------------------------
# count-latin

def cmd_count_latin(args) -> int:
    print(count_normalized_latin(args.d))
    return 0


# ---------------------------------------------------------------------------

def tolerance(text: str) -> float:
    """Parse ``--tol``, a finite number >= 0: NaN or a negative value would fail
    every check, and inf would pass every check."""
    tol = float(text)
    if not 0.0 <= tol < np.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tightport",
        description=(
            "Construct and verify unitary operator bases, entangled bases, and "
            "tight teleportation / dense-coding schemes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct an object and write it to a file")
    gen.add_argument(
        "kind",
        choices=["latin", "hadamard", "unitary-basis", "entangled-basis", "scheme"],
    )
    gen.add_argument("--construction", default=None)
    gen.add_argument("--d", type=int, default=None)
    gen.add_argument("--u-phase", type=float, default=None, help="phase angle in radians")
    gen.add_argument("--p", type=int, default=None)
    gen.add_argument("--q", type=int, default=None)
    gen.add_argument("--latin", default=None)
    gen.add_argument("--hadamards", nargs="+", default=None)
    gen.add_argument("--from-basis", dest="from_basis", default=None)
    gen.add_argument("--mode", choices=sorted(_MODE_FLAGS), default="teleportation")
    gen.add_argument("--rng-seed", dest="rng_seed", type=int, default=None)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="check a document against its defining identities")
    ver.add_argument("file")
    ver.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    ver.set_defaults(func=cmd_verify)

    sim = sub.add_parser("simulate", help="teleport a state through a scheme file")
    sim.add_argument("scheme")
    sim.add_argument("--state", required=True)
    sim.add_argument("--trials", type=int, default=1)
    sim.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    sim.add_argument("--rng-seed", dest="rng_seed", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    cnt = sub.add_parser("count-latin", help="count normalized Latin squares")
    cnt.add_argument("d", type=int)
    cnt.set_defaults(func=cmd_count_latin)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # Entries as large as 1e200 load, and their products overflow; the
        # verdicts fail closed on the inf or nan left behind, so numpy's
        # warnings would only add lines to stderr.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (TightportError, OSError, ValueError) as exc:
        return _err(str(exc))
    except MemoryError as exc:  # a size too large to allocate is a bad parameter
        return _err(f"not enough memory: {exc}" if str(exc) else "not enough memory")


if __name__ == "__main__":
    sys.exit(main())
