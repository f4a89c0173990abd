"""``certify_small`` and ``certify_large``: the acceptance battery over seeded objects.

One operation certifies one object.  The object is built inside the
operation from seeded random designs (a relabelled cyclic Latin square and
Fourier, 4x4-family or periodic-phase Hadamards), sometimes as a tensor
product of two smaller bases, and then run through the whole battery:
orthonormality, depolarizer, entangled basis and projector completeness,
teleportation, swap and dense coding, ``teleport_state`` on seeded states,
basis extraction, the entangled-basis round trip, weight recovery, and, at
small d, Latin-square counting and Hadamard equivalence.

One object in four is damaged, the damage kinds taking turns.  A valid
object must pass every check; a damaged one must fail at least one.  Each
check also has its own expected outcome, and a check that disagrees is
counted against its layer even when the object's verdict is right, so a
verifier that misses a damage shows up.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field, replace

import numpy as np

import tightport as tp

from spans import Tracer

# Exhaustive counts of normalized Latin squares.
LATIN_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 56}

DAMAGES = ("perturbed_element", "duplicated_element", "mixed_resource",
           "perturbed_channel", "nan_entry")
BASIS_DAMAGES = ("perturbed_element", "duplicated_element", "nan_entry")

# Largest d at which each operation runs; operations not named run at every d.
# Fixed once: when the code gets faster these must not move, or throughput
# would compare different work.
CAPS = {
    "bases.verify_depolarizer": 8,
    "bases.recover_weight_from_unitary_gram": 8,
    "schemes.verify_dense_coding": 8,
    "schemes.teleport_state": 8,
    "schemes.verify_teleportation": 16,
    "schemes.extract_basis_from_scheme": 16,
    "designs.count_normalized_latin": 5,
    "designs.hadamards_equivalent": 4,
}

# ``dims`` is the d-mix of one round (a repeated d weighs more); ``products``
# names the factor dimensions of the tensor-product objects at that d.
SPECS = {
    "certify_small": {
        "dims": [2, 3, 4, 5, 6],
        "products": {"4": [2, 2], "6": [2, 3]},
        "states_per_object": 2,
        "objects_per_slot": 20,
        "tail_percentile": 95,
        "caps": CAPS,
    },
    "certify_large": {
        "dims": [8, 12, 16],
        "products": {"8": [2, 4], "12": [3, 4], "16": [4, 4]},
        "states_per_object": 1,
        "objects_per_slot": 20,
        "tail_percentile": 60,
        "caps": CAPS,
    },
}

ATOL = 1e-9


@dataclass
class Design:
    """Seeded parameters of a Latin square and the Hadamards of one basis."""

    d: int
    perms: tuple  # row, column and symbol relabelling of the cyclic square
    hadamards: list  # distinct Hadamard recipes
    columns: np.ndarray  # which recipe each column shift uses


@dataclass
class Item:
    index: int
    d: int
    designs: list[Design]  # one design, or two factors of a product
    damage: str | None
    expect_pass: bool  # the object's expected verdict: valid objects pass
    damage_at: int  # element, channel or probe index the damage touches
    direction: np.ndarray  # perturbation direction, d x d
    mix: float  # weight of the maximally mixed part of a mixed resource
    states: list[np.ndarray]
    equivalence: tuple | None  # row/column permutations and phases, d <= 4


def _hadamard_recipes(d: int) -> list[tuple]:
    recipes = [("fourier",)]
    if d == 4:
        recipes.append(("d4_family",))
    recipes += [("periodic", p, d // p) for p in range(2, d) if d % p == 0 and d // p >= 2]
    return recipes


def _design(rng: np.random.Generator, d: int) -> Design:
    recipes = _hadamard_recipes(d)
    chosen = []
    for _ in range(min(2, len(recipes))):
        recipe = recipes[rng.integers(len(recipes))]
        if recipe[0] == "d4_family":
            recipe = recipe + (np.exp(1j * rng.uniform(0, 2 * np.pi)),)
        elif recipe[0] == "periodic":
            p, q = recipe[1], recipe[2]
            cell = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(p, q)))
            recipe = recipe + (np.tile(cell, (d // p, d // q)),)
        chosen.append(recipe)
    perms = tuple(rng.permutation(d) for _ in range(3))
    return Design(d, perms, chosen, rng.integers(len(chosen), size=d))


def _density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def make_inputs(spec: dict, seed: int) -> list[Item]:
    """The pool of objects; the seed draws the objects, never the mix.

    The pool takes one object per d in turn, so a timed window, which runs
    whole rounds of ``len(dims)`` objects, keeps the stated d-mix.  Per d,
    every block of four objects holds one damaged object and two tensor
    products (where d has factors).
    """
    rng = np.random.default_rng(seed)
    dims = spec["dims"]
    slots = []
    for d in dims:
        factors = spec["products"].get(str(d))
        first_damage = int(rng.integers(len(DAMAGES)))
        items = []
        for n in range(spec["objects_per_slot"]):
            damage = DAMAGES[(first_damage + n // 4) % len(DAMAGES)] if n % 4 == 3 else None
            if factors and n % 2 == (n // 4) % 2:
                designs = [_design(rng, f) for f in factors]
            else:
                designs = [_design(rng, d)]
            equivalence = None
            if d <= CAPS["designs.hadamards_equivalent"]:
                h = designs[0].d  # a product object twists its first factor's Hadamard
                equivalence = (rng.permutation(h), rng.permutation(h),
                               np.exp(1j * rng.uniform(0, 2 * np.pi, h)),
                               np.exp(1j * rng.uniform(0, 2 * np.pi, h)))
            direction = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            items.append(Item(
                index=0, d=d, designs=designs, damage=damage, expect_pass=damage is None,
                damage_at=int(rng.integers(1, d * d)),
                direction=direction / np.linalg.norm(direction),
                mix=float(rng.uniform(0.05, 0.2)),
                states=[_density(rng, d) for _ in range(spec["states_per_object"])],
                equivalence=equivalence,
            ))
        slots.append(items)
    pool = [slots[s][n] for n in range(spec["objects_per_slot"]) for s in range(len(dims))]
    for index, item in enumerate(pool):
        item.index = index
    return pool


@dataclass
class Op:
    """One certification: calls the library and compares each outcome."""

    tracer: Tracer
    misses: list[str] = field(default_factory=list)
    any_failed: bool = False

    def check(self, name: str, expect_pass: bool, fn, *args, ok=None):
        """Run one check; ``ok`` judges a returned value, else its truth is the verdict.

        A ``TightportError`` is a detected failure.  Any other exception is a
        defect: it counts as a miss whatever was expected, and the run goes on.
        """
        try:
            result = self.tracer.call(name, fn, *args)
            passed = bool(result) if ok is None else bool(ok(result))
        except tp.TightportError:
            result, passed = None, False
        except Exception as exc:  # noqa: BLE001 - the gate must outlive library defects
            self._miss(f"{name} raised {type(exc).__name__}")
            self.any_failed = True
            return None
        if passed != expect_pass:
            self._miss(f"{name} {'passed' if passed else 'failed'}")
        self.any_failed |= not passed
        return result

    def _miss(self, what: str) -> None:
        self.misses.append(what)
        self.tracer.miss(what.split(" ", 1)[0])


def _build_hadamard(call, d: int, recipe: tuple):
    kind = recipe[0]
    if kind == "fourier":
        return call("designs.fourier_hadamard", tp.fourier_hadamard, d)
    if kind == "d4_family":
        return call("designs.hadamard_d4_family", tp.hadamard_d4_family, recipe[1])
    return call("designs.periodic_phase_hadamard", tp.periodic_phase_hadamard, *recipe[1:])


def _build_design_basis(op: Op, design: Design):
    d = design.d
    call = op.tracer.call
    cyclic = call("designs.latin_from_cyclic", tp.latin_from_cyclic, d)
    square = call("designs.latin_equivalence_apply", tp.latin_equivalence_apply,
                  cyclic, *design.perms)
    op.check("designs.validate_latin", True, tp.validate_latin, square.grid)
    distinct = [_build_hadamard(call, d, recipe) for recipe in design.hadamards]
    hadamards = [distinct[c] for c in design.columns]
    basis = call("bases.shift_multiply_basis", tp.shift_multiply_basis, square, hadamards)
    return basis, distinct[0]


def _damage_basis(item: Item, basis):
    elems = np.array(basis.elements)
    x = item.damage_at
    if item.damage == "perturbed_element":
        elems[x] += 1e-3 * item.direction
    elif item.damage == "duplicated_element":
        elems[x] = elems[0]
    else:
        elems[x, x // item.d, x % item.d] = np.nan
    return tp.UnitaryBasis(item.d, elems)


def _damage_scheme(item: Item, scheme):
    if item.damage == "mixed_resource":
        n = item.d * item.d
        pure = np.outer(scheme.omega, scheme.omega.conj())
        return replace(scheme, omega=(1 - item.mix) * pure + item.mix * np.eye(n) / n)
    channels = np.array(scheme.channel_unitaries)
    channels[item.damage_at] += 1e-3 * item.direction
    return replace(scheme, channel_unitaries=channels)


def build_basis(op: Op, item: Item):
    """Designs, then the (possibly product, possibly damaged) unitary basis."""
    built = [_build_design_basis(op, design) for design in item.designs]
    if len(built) == 2:
        basis = op.tracer.call("bases.tensor_bases", tp.tensor_bases, built[0][0], built[1][0])
    else:
        basis = built[0][0]
    if item.damage in BASIS_DAMAGES:
        basis = _damage_basis(item, basis)
    return basis, built[0][1]


def _same_up_to_phase(a: np.ndarray, b: np.ndarray, d: int) -> bool:
    overlaps = np.abs(np.einsum("xij,xij->x", a.conj(), b)) / d
    return bool(np.allclose(overlaps, 1.0, atol=ATOL))


def certify(op: Op, item: Item) -> bool:
    """Run the battery on one object; True when the verdict matches expectation."""
    d = item.d
    capped = lambda name: d <= CAPS.get(name, d)  # noqa: E731
    basis_ok = item.damage not in BASIS_DAMAGES
    scheme_ok = item.damage is None
    # A duplicated element repeats an outcome together with its correction, so
    # the outcome-averaged teleportation identity still holds; completeness,
    # dense coding and extraction are the checks that must catch it.
    identity_ok = item.damage in (None, "duplicated_element")
    # Only these two damages leave a vector that is not maximally entangled.
    vector_ok = item.damage not in ("perturbed_element", "nan_entry")

    basis, hadamard = build_basis(op, item)
    op.check("bases.verify_orthonormal", basis_ok, tp.verify_orthonormal, basis)
    if capped("bases.verify_depolarizer"):
        op.check("bases.verify_depolarizer", basis_ok, tp.verify_depolarizer, basis)

    entangled = op.tracer.call("schemes.basis_to_entangled", tp.basis_to_entangled, basis)
    op.check("schemes.verify_entangled_basis", basis_ok, tp.verify_entangled_basis, entangled)
    op.check("tensor.check_projector_completeness", basis_ok,
             tp.check_projector_completeness, entangled.vectors)
    touched = item.damage_at
    op.check("tensor.is_maximally_entangled", vector_ok,
             tp.is_maximally_entangled, entangled.vectors[touched], d)
    op.check("tensor.is_maximally_entangled", True,
             tp.is_maximally_entangled, entangled.vectors[(touched + 1) % (d * d)], d)
    op.check("schemes.entangled_to_basis", vector_ok, tp.entangled_to_basis, entangled,
             ok=lambda b: np.allclose(b.elements, basis.elements, atol=ATOL))
    if capped("bases.recover_weight_from_unitary_gram"):
        op.check("bases.recover_weight_from_unitary_gram", basis_ok,
                 tp.recover_weight_from_unitary_gram, basis,
                 ok=lambda rho: np.allclose(rho, np.eye(d) / d, atol=ATOL))

    scheme = op.tracer.call("schemes.build_scheme", tp.build_scheme, basis)
    if item.damage in ("mixed_resource", "perturbed_channel"):
        scheme = _damage_scheme(item, scheme)
    if capped("schemes.verify_teleportation"):
        op.check("schemes.verify_teleportation", identity_ok, tp.verify_teleportation, scheme)
    if capped("schemes.verify_dense_coding"):
        swapped = op.tracer.call("schemes.swap_roles", tp.swap_roles, scheme)
        op.check("schemes.verify_dense_coding", scheme_ok, tp.verify_dense_coding, swapped)
    if capped("schemes.teleport_state"):
        uniform = np.full(d * d, 1.0 / (d * d))
        for rho in item.states:
            op.check("schemes.teleport_state", identity_ok, tp.teleport_state, scheme, rho,
                     ok=lambda r, rho=rho: np.allclose(r[0], rho, atol=ATOL)
                     and np.allclose(r[1], uniform, atol=ATOL))
    if capped("schemes.extract_basis_from_scheme"):
        op.check("schemes.extract_basis_from_scheme", scheme_ok,
                 tp.extract_basis_from_scheme, scheme,
                 ok=lambda b: _same_up_to_phase(b.elements, basis.elements, d))

    if capped("designs.count_normalized_latin"):
        op.check("designs.count_normalized_latin", True, tp.count_normalized_latin, d,
                 ok=lambda n: n == LATIN_COUNTS[d])
    if item.equivalence is not None and capped("designs.hadamards_equivalent"):
        rows, cols, left, right = item.equivalence
        twisted = left[:, None] * hadamard.matrix[np.ix_(rows, cols)] * right[None, :]
        op.check("designs.hadamards_equivalent", True,
                 tp.hadamards_equivalent, hadamard, twisted)
    return op.any_failed != item.expect_pass


def warm_up(pool: list[Item]) -> None:
    """One object per d through the whole battery, outcomes discarded."""
    seen = set()
    for item in pool:
        if item.d not in seen:
            seen.add(item.d)
            certify(Op(Tracer()), item)


def teleport_peak_mb(pool: list[Item]) -> float:
    """Largest tracemalloc peak of one ``teleport_state`` call per d in the mix."""
    peak = 0.0
    seen = set()
    for item in pool:
        if item.damage or item.d in seen or item.d > CAPS["schemes.teleport_state"]:
            continue
        seen.add(item.d)
        basis, _ = build_basis(Op(Tracer()), item)
        scheme = tp.build_scheme(basis)
        tracemalloc.start()
        try:
            tp.teleport_state(scheme, item.states[0])
            peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    return peak


class Certify:
    """The battery as a workload: ``spec`` picks certify_small or certify_large."""

    def __init__(self, name: str):
        self.spec = SPECS[name]
        self.round_size = len(self.spec["dims"])  # the pool holds one object per d in turn

    def make_inputs(self, seed: int) -> list[Item]:
        return make_inputs(self.spec, seed)

    def warm_up(self, pool: list[Item]) -> None:
        warm_up(pool)

    def key(self, item: Item) -> int:
        return item.d

    def run(self, item: Item, tracer: Tracer) -> tuple[bool, list[tuple[str, str]]]:
        op = Op(tracer)
        label = f"d={item.d} {item.damage or 'valid'}"
        try:
            ok = certify(op, item)
        except Exception as exc:  # noqa: BLE001 - a construction defect fails this object only
            return False, [(f"object {item.index}", f"{label}: construction raised {exc!r}")]
        misses = [f"{label}: {miss}" for miss in op.misses]
        if not ok:
            verdict = "FAIL" if op.any_failed else "PASS"
            misses.append(f"{label}: certified {verdict}, expected the opposite")
        return ok, [(f"object {item.index}", miss) for miss in misses]

    def layer_extras(self, pool: list[Item]) -> dict[str, float]:
        return {"schemes.teleport_state.peak_mb": teleport_peak_mb(pool)}
