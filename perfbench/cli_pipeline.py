"""``cli_pipeline``: the ``tightport`` command as a child process, one at a time.

For each d in the mix the pipeline generates a Latin square, a Hadamard
matrix, two unitary bases (Weyl and shift-multiply), an entangled basis and a
scheme in each mode; then verifies every file, simulates teleportation and
counts Latin squares.  Malformed documents must exit 2 without a traceback.
One operation is one process run; its expected exit code and output prefix
are fixed before timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import tightport as tp

from certify import LATIN_COUNTS
from spans import Tracer

# Largest d at which a step runs; the rest run at every d in ``dims``.
CAPS = {
    "generate scheme": 16,
    "verify scheme teleportation": 16,
    "verify scheme dense-coding": 8,
    "verify damaged unitary-basis": 8,
    "simulate": 8,
}

SPEC = {
    "dims": [4, 8, 16, 24],
    "hadamard": {"4": ["d4-family"], "8": ["periodic", 2, 4],
                 "16": ["periodic", 4, 4], "24": ["periodic", 4, 6]},
    "variants": 3,
    "tail_percentile": 80,
    "caps": CAPS,
}

PROCESS_TIMEOUT_S = 120


@dataclass
class Step:
    key: str  # position in the pipeline, the same in every variant
    command: str  # span name suffix: generate, verify, simulate or count_latin
    argv: list[str]
    rc: int
    stdout: str = ""  # required prefix of standard output
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()


def _generate(key: str, argv: list[str], out: str, reads: tuple = ()) -> Step:
    return Step(key, "generate", ["generate", *argv, "-o", out], 0, "wrote", reads, (out,))


def _verify(key: str, path: str, rc: int = 0) -> Step:
    return Step(key, "verify", ["verify", path], rc, ("PASS", "FAIL", "")[rc], (path,))


def _pipeline(d: int, rng: np.random.Generator) -> list[Step]:
    had = SPEC["hadamard"][str(d)]
    if had[0] == "d4-family":
        had_args = ["--construction", "d4-family", "--u-phase", f"{rng.uniform(0, 2 * np.pi):.6f}"]
    else:
        had_args = ["--construction", "periodic", "--p", str(had[1]), "--q", str(had[2]),
                    "--rng-seed", str(int(rng.integers(2**31)))]
    f = {kind: f"{kind}{d}.json" for kind in ("lat", "had", "ubw", "ubs", "eb", "sct", "scd")}
    steps = [
        _generate(f"generate latin d={d}", ["latin", "--construction", "random", "--d", str(d),
                                            "--rng-seed", str(int(rng.integers(2**31)))], f["lat"]),
        _generate(f"generate hadamard d={d}", ["hadamard", *had_args], f["had"]),
        _generate(f"generate weyl d={d}",
                  ["unitary-basis", "--construction", "weyl", "--d", str(d)], f["ubw"]),
        _generate(f"generate shift-multiply d={d}",
                  ["unitary-basis", "--construction", "shift-multiply", "--latin", f["lat"],
                   "--hadamards", f["had"]], f["ubs"], (f["lat"], f["had"])),
        _generate(f"generate entangled-basis d={d}",
                  ["entangled-basis", "--from-basis", f["ubs"]], f["eb"], (f["ubs"],)),
    ]
    if d <= CAPS["generate scheme"]:
        for mode, name in (("teleportation", "sct"), ("dense-coding", "scd")):
            steps.append(_generate(f"generate scheme {mode} d={d}",
                                   ["scheme", "--from-basis", f["ubs"], "--mode", mode],
                                   f[name], (f["ubs"],)))
    steps += [_verify(f"verify {kind} d={d}", f[kind])
              for kind in ("lat", "had", "ubw", "ubs", "eb")]
    if d <= CAPS["verify scheme teleportation"]:
        steps.append(_verify(f"verify scheme teleportation d={d}", f["sct"]))
    if d <= CAPS["verify scheme dense-coding"]:
        steps.append(_verify(f"verify scheme dense-coding d={d}", f["scd"]))
    if d <= CAPS["verify damaged unitary-basis"]:
        steps.append(_verify(f"verify damaged unitary-basis d={d}", f"damaged{d}.json", rc=1))
    if d <= CAPS["simulate"]:
        seed = str(int(rng.integers(2**31)))
        steps.append(Step(f"simulate d={d}", "simulate",
                          ["simulate", f["sct"], "--state", "random", "--trials", "1",
                           "--rng-seed", seed], 0, "max output", (f["sct"],)))
    count = LATIN_COUNTS.get(d)
    steps.append(Step(f"count-latin d={d}", "count_latin", ["count-latin", str(d)],
                      0 if count else 2, str(count) if count else ""))
    return steps


def _weyl_document(d: int) -> dict:
    return json.loads(tp.dumps(tp.make_document(tp.weyl_basis(d))))


def _set_entry(doc: dict, rng: np.random.Generator, literal: str) -> str:
    """The document's text with one number of its elements replaced by ``literal``."""
    d = doc["d"]
    x, i, j, part = (int(rng.integers(n)) for n in (d * d, d, d, 2))
    marker = 12345.678
    doc["payload"]["elements"][x][i][j][part] = marker
    return json.dumps(doc).replace(repr(marker), literal)


def malformed_documents(rng: np.random.Generator) -> dict[str, str]:
    """Documents ``verify`` must reject with exit 2; keys name the defect."""
    text = json.dumps(_weyl_document(2))
    unknown = _weyl_document(2)
    unknown["payload"]["extra"] = 1
    shape = _weyl_document(3)
    shape["payload"]["elements"].pop(int(rng.integers(9)))
    return {
        "truncated": text[: int(rng.integers(1, len(text) - 1))],
        "unknown-field": json.dumps(unknown),
        "wrong-shape": json.dumps(shape),
        "nan": _set_entry(_weyl_document(2), rng, "NaN"),
    }


def defect_documents(rng: np.random.Generator) -> dict[str, str]:
    """Malformed documents that hit known parser defects at the seed."""
    return {
        "huge-float": _set_entry(_weyl_document(2), rng, "1e400"),
        "huge-int": _set_entry(_weyl_document(2), rng, "9" * 400),
    }


def damaged_document(d: int, rng: np.random.Generator) -> str:
    elems = np.array(tp.weyl_basis(d).elements)
    x = int(rng.integers(1, d * d))
    elems[x] += 1e-3 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return tp.dumps(tp.make_document(tp.UnitaryBasis(d, elems)))


class CliPipeline:
    spec = SPEC

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.bytes_in = 0
        self.bytes_out = 0
        self.probes: list[Step] = []
        self.round_size = 0  # steps of one whole pipeline, known after make_inputs

    def make_inputs(self, seed: int) -> list[Step]:
        rng = np.random.default_rng(seed)
        steps = []
        for variant in range(SPEC["variants"]):
            for d in SPEC["dims"]:
                steps += _pipeline(d, rng)
            for name, text in malformed_documents(rng).items():
                path = f"malformed{variant}-{name}.json"
                self._write(path, text)
                steps.append(_verify(f"verify malformed {name}", path, rc=2))
        self.round_size = len(steps) // SPEC["variants"]
        for d in SPEC["dims"]:
            if d <= CAPS["verify damaged unitary-basis"]:
                self._write(f"damaged{d}.json", damaged_document(d, rng))
        self.probes = []
        for name, text in defect_documents(rng).items():
            self._write(f"defect-{name}.json", text)
            self.probes.append(_verify(f"verify malformed {name}", f"defect-{name}.json", rc=2))
        return steps

    def warm_up(self, pool: list[Step]) -> None:
        self._run(Step("warm-up", "count_latin", ["count-latin", "3"], 0, "1"), Tracer())

    def key(self, step: Step) -> str:
        return step.key

    def run(self, step: Step, tracer: Tracer) -> tuple[bool, list[tuple[str, str]]]:
        ok, detail = self._run(step, tracer)
        return ok, [] if ok else [(" ".join(step.argv), f"{step.key}: {detail}")]

    def known_defects(self, tracer: Tracer) -> list[str]:
        """Run the defect documents once, outside the timed window.

        They stay out of the timed mix because at the seed they fail (exit 1
        and a traceback), and the timed operations must all agree with their
        expected outcome; every run still reports whether they reproduce.
        """
        outcomes = []
        for step in self.probes:
            ok, detail = self._run(step, tracer)
            outcomes.append(f"{'fixed' if ok else 'reproduced'}: {step.key}: {detail}")
        return outcomes

    def layer_extras(self, pool: list[Step]) -> dict[str, float]:
        return {"cli.startup_s": self.startup_s(), "serialize.bytes_in": self.bytes_in,
                "serialize.bytes_out": self.bytes_out}

    def _write(self, name: str, text: str) -> None:
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)

    def _run(self, step: Step, tracer: Tracer) -> tuple[bool, str]:
        argv = [sys.executable, "-m", "tightport.cli", *step.argv]
        try:
            proc = tracer.call(f"cli.{step.command}", subprocess.run, argv, cwd=self.workdir,
                               env=self.env, capture_output=True, text=True,
                               timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            tracer.miss(f"cli.{step.command}")
            return False, f"no exit within {PROCESS_TIMEOUT_S} s"
        traceback = "Traceback" in proc.stderr
        ok = proc.returncode == step.rc and not traceback and proc.stdout.startswith(step.stdout)
        if not ok:
            tracer.miss(f"cli.{step.command}")
        return ok, f"exit {proc.returncode}{', traceback' if traceback else ''}"

    def serialize_probe(self, step: Step, tracer: Tracer) -> None:
        """In-process ``loads``/``dumps`` on the documents the step read and wrote."""
        for name in (*step.reads, *step.writes):
            path = os.path.join(self.workdir, name)
            if not os.path.exists(path):  # the step failed; the run already counts it
                continue
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            self.bytes_in += len(text.encode())
            try:
                doc = tracer.call("serialize.loads", tp.loads, text)
            except tp.TightportError:
                continue
            if name in step.writes:
                self.bytes_out += len(tracer.call("serialize.dumps", tp.dumps, doc).encode())

    def startup_s(self) -> float:
        """Median wall time of three bare ``import tightport`` processes."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import tightport"], env=self.env,
                           check=True, timeout=PROCESS_TIMEOUT_S)
            times.append(time.perf_counter() - start)
        return sorted(times)[1]
