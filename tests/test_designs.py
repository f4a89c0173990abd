import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tightport import (
    DesignInvalid,
    BadPermutation,
    DimensionTooLarge,
    HadamardMatrix,
    LatinSquare,
    NotUnimodular,
    PeriodicityViolated,
    SymbolOutOfRange,
    TightportError,
    count_normalized_latin,
    dephase_hadamard,
    fourier_hadamard,
    hadamard_d4_family,
    hadamards_equivalent,
    latin_equivalence_apply,
    latin_from_cyclic,
    periodic_phase_hadamard,
    shift_multiply_basis,
    validate_hadamard,
    validate_latin,
)


class TestLatinConstruction:
    def test_cyclic_degenerate(self):
        np.testing.assert_array_equal(latin_from_cyclic(1).grid, [[0]])

    def test_cyclic_d2(self):
        np.testing.assert_array_equal(latin_from_cyclic(2).grid, [[0, 1], [1, 0]])

    def test_cyclic_d3(self):
        expected = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        np.testing.assert_array_equal(latin_from_cyclic(3).grid, expected)

    def test_constructor_rejects_bad_grid(self):
        with pytest.raises(DesignInvalid):
            LatinSquare([[0, 1], [0, 1]])

    @pytest.mark.parametrize("d", [0, -1])
    def test_rejects_non_positive_dimension(self, d):
        with pytest.raises(TightportError, match=f"dimension must be positive, got {d}"):
            latin_from_cyclic(d)

    @pytest.mark.parametrize(
        "grid",
        [[[0.9, 1.2], [1.7, 0.1]], [[0.0, 1.0], [1.0, 0.0]], [[0, 1 + 0j], [1, 0]],
         np.array([[0, 1], [1, 0]], dtype=object), [[True, False], [False, True]]],
    )
    def test_non_integer_grid_rejected(self, grid):
        # a cast to int would truncate [[0.9, 1.2], [1.7, 0.1]] into the cyclic square
        with pytest.raises(DesignInvalid, match="integers"):
            LatinSquare(grid)
        with pytest.raises(DesignInvalid, match="integers"):
            validate_latin(grid)
        with pytest.raises(DesignInvalid, match="integers"):
            shift_multiply_basis(grid, [fourier_hadamard(2)] * 2)
        with pytest.raises(DesignInvalid, match="integers"):
            latin_equivalence_apply(grid, [0, 1], [0, 1], [0, 1])

    @pytest.mark.parametrize("grid", [[[0, True], [True, 0]], [[1, 0], [np.False_, 1]],
                                      [np.array([0, 1]), [True, 0]]])
    def test_a_bool_among_integers_rejected(self, grid):
        # np.asarray casts a grid that mixes booleans and integers to int64
        with pytest.raises(DesignInvalid, match="integers"):
            LatinSquare(grid)
        with pytest.raises(DesignInvalid, match="integers"):
            validate_latin(grid)
        with pytest.raises(DesignInvalid, match="integers"):
            shift_multiply_basis(grid, [fourier_hadamard(2)] * 2)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
    def test_integer_grid_dtypes_accepted(self, dtype):
        grid = np.array([[0, 1], [1, 0]], dtype=dtype)
        assert validate_latin(grid).passed
        np.testing.assert_array_equal(LatinSquare(grid).grid, grid)


class TestValidateLatin:
    def test_cyclic_passes(self):
        assert validate_latin(latin_from_cyclic(5).grid).passed

    def test_repeated_column_symbol(self):
        result = validate_latin([[0, 1], [0, 1]])
        assert not result.passed
        assert result.witness == "column 0"

    def test_repeated_row_symbol(self):
        result = validate_latin([[0, 0], [1, 1]])
        assert not result.passed
        assert result.witness == "row 0"

    def test_symbol_out_of_range(self):
        with pytest.raises(SymbolOutOfRange):
            validate_latin([[0, 1], [1, 7]])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_loop_oracle(self, data):
        d = data.draw(st.integers(1, 8))
        how = data.draw(st.sampled_from(["latin", "one entry moved", "random symbols"]))
        if how == "random symbols":
            symbols = st.lists(st.integers(0, d - 1), min_size=d * d, max_size=d * d)
            grid = np.array(data.draw(symbols)).reshape(d, d)
        else:
            p, q, r = (np.array(data.draw(st.permutations(range(d)))) for _ in range(3))
            grid = latin_equivalence_apply(latin_from_cyclic(d), p, q, r).grid.copy()
        if how == "one entry moved":
            j, k, s = (data.draw(st.integers(0, d - 1)) for _ in range(3))
            grid[j, k] = s
        result = validate_latin(grid)
        assert (result.passed, result.deviation, result.witness) == oracles.latin(grid)

    def test_equivalence_closure(self):
        rng = np.random.default_rng(0)
        square = latin_from_cyclic(4)
        for _ in range(20):
            p, q, r = (rng.permutation(4) for _ in range(3))
            moved = latin_equivalence_apply(square, p, q, r)
            assert validate_latin(moved.grid).passed


class TestLatinEquivalence:
    def test_identity_permutations(self):
        square = latin_from_cyclic(3)
        ident = np.arange(3)
        moved = latin_equivalence_apply(square, ident, ident, ident)
        np.testing.assert_array_equal(moved.grid, square.grid)

    def test_symbol_swap_d2(self):
        moved = latin_equivalence_apply(latin_from_cyclic(2), [0, 1], [0, 1], [1, 0])
        np.testing.assert_array_equal(moved.grid, [[1, 0], [0, 1]])

    def test_row_permutation_moves_rows(self):
        square = latin_from_cyclic(3)
        moved = latin_equivalence_apply(square, [1, 2, 0], np.arange(3), np.arange(3))
        np.testing.assert_array_equal(moved.grid, square.grid[[1, 2, 0], :])

    def test_bad_permutation(self):
        square = latin_from_cyclic(3)
        with pytest.raises(BadPermutation):
            latin_equivalence_apply(square, [0, 0, 1], np.arange(3), np.arange(3))

    @pytest.mark.parametrize(
        "perm",
        [[0, 1.5, 2], [0.0, 1.0, 2.0], np.array([0, 1, 2], dtype=float), [0, 1 + 0j, 2],
         np.array([0, 1, 2], dtype=object), ["0", "1", "2"], [True, False]],
    )
    def test_non_integer_permutation_rejected(self, perm):
        # a cast to int would truncate [0, 1.5, 2] into the identity and [True, False] into a swap
        ident = np.arange(len(perm))
        with pytest.raises(BadPermutation):
            latin_equivalence_apply(latin_from_cyclic(len(perm)), perm, ident, ident)

    @pytest.mark.parametrize("perm", [[2, True, 0], (np.int64(2), 0, np.True_)])
    def test_a_bool_among_integers_rejected(self, perm):
        # np.asarray casts a list that mixes booleans and integers to int64
        ident = np.arange(3)
        with pytest.raises(BadPermutation):
            latin_equivalence_apply(latin_from_cyclic(3), perm, ident, ident)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64])
    def test_integer_dtypes_accepted(self, dtype):
        ident = np.arange(3, dtype=dtype)
        moved = latin_equivalence_apply(latin_from_cyclic(3), ident, ident, ident)
        np.testing.assert_array_equal(moved.grid, latin_from_cyclic(3).grid)

    @settings(max_examples=20, deadline=None)
    @given(
        p=st.permutations(range(4)),
        q=st.permutations(range(4)),
        r=st.permutations(range(4)),
    )
    def test_closure_property(self, p, q, r):
        moved = latin_equivalence_apply(latin_from_cyclic(4), p, q, r)
        assert validate_latin(moved.grid).passed


class TestNormalizedCounts:
    @pytest.mark.parametrize("d,expected", [(1, 1), (2, 1), (3, 1), (4, 4), (5, 56)])
    def test_known_counts(self, d, expected):
        assert count_normalized_latin(d) == expected

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_against_permutation_oracle(self, d):
        assert count_normalized_latin(d) == oracles.brute_force_normalized_count(d)

    def test_cap(self):
        with pytest.raises(DimensionTooLarge):
            count_normalized_latin(6)

    @pytest.mark.parametrize("d", [0, -3])
    def test_rejects_non_positive_dimension(self, d):
        with pytest.raises(TightportError, match=f"dimension must be positive, got {d}"):
            count_normalized_latin(d)


class TestFourierHadamard:
    def test_degenerate(self):
        np.testing.assert_array_equal(fourier_hadamard(1).matrix, [[1]])

    def test_d2(self):
        np.testing.assert_allclose(fourier_hadamard(2).matrix, [[1, 1], [1, -1]], atol=1e-15)

    def test_d3_roots_of_unity(self):
        w = np.exp(2j * np.pi / 3)
        h = fourier_hadamard(3).matrix
        for k in range(3):
            np.testing.assert_allclose(h[k], [1, w**k, w ** (2 * k)], atol=1e-14)

    def test_validates_at_prime_dimension(self):
        assert validate_hadamard(fourier_hadamard(7).matrix).passed

    @pytest.mark.parametrize("d", [0, -1])
    def test_rejects_non_positive_dimension(self, d):
        with pytest.raises(TightportError, match=f"dimension must be positive, got {d}"):
            fourier_hadamard(d)


class TestValidateHadamard:
    def test_all_ones_fails(self):
        result = validate_hadamard(np.ones((2, 2), dtype=complex))
        assert not result.passed

    def test_perturbed_phase_fails(self):
        h = fourier_hadamard(3).matrix.copy()
        h[1, 1] *= np.exp(0.01j)
        result = validate_hadamard(h)
        assert not result.passed
        assert result.deviation > 1e-3

    def test_constructor_rejects_invalid(self):
        with pytest.raises(DesignInvalid):
            HadamardMatrix(np.ones((2, 2)))

    def test_tensor_closure(self):
        for d1, d2 in [(2, 2), (2, 3), (3, 3)]:
            prod = np.kron(fourier_hadamard(d1).matrix, fourier_hadamard(d2).matrix)
            assert validate_hadamard(prod).passed

    def test_equivalence_moves_preserve_validity(self):
        rng = np.random.default_rng(1)
        h = fourier_hadamard(4).matrix
        rows = rng.permutation(4)
        cols = rng.permutation(4)
        phases_r = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        phases_c = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        moved = (h[rows][:, cols] * phases_c) * phases_r[:, None]
        assert validate_hadamard(moved).passed


class TestD4Family:
    def test_u_one_is_klein_fourier(self):
        klein = np.kron(fourier_hadamard(2).matrix, fourier_hadamard(2).matrix)
        assert hadamards_equivalent(hadamard_d4_family(1.0), klein)

    def test_u_i_is_cyclic_fourier(self):
        assert hadamards_equivalent(hadamard_d4_family(1j), fourier_hadamard(4))

    def test_u_one_and_u_i_are_inequivalent(self):
        assert not hadamards_equivalent(hadamard_d4_family(1.0), fourier_hadamard(4))

    def test_generic_phase_validates(self):
        h = hadamard_d4_family(np.exp(0.7j))
        assert validate_hadamard(h.matrix).passed

    def test_many_phases_validate(self):
        rng = np.random.default_rng(2)
        for angle in rng.uniform(0, 2 * np.pi, 100):
            assert validate_hadamard(hadamard_d4_family(np.exp(1j * angle)).matrix).passed

    def test_rejects_non_phase(self):
        with pytest.raises(NotUnimodular):
            hadamard_d4_family(1.1)

    @pytest.mark.parametrize("u", [complex("nan"), complex(1, float("nan"))])
    def test_rejects_nan_phase(self, u):
        with pytest.raises(NotUnimodular, match=r"\|u\| = nan"):
            hadamard_d4_family(u)


class TestPeriodicPhase:
    def test_trivial_cell_reduces_to_fourier(self):
        h = periodic_phase_hadamard(2, 3, np.ones((6, 6)))
        np.testing.assert_allclose(h.matrix, fourier_hadamard(6).matrix, atol=1e-14)

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3)])
    def test_random_cells_validate(self, p, q):
        rng = np.random.default_rng(3)
        d = p * q
        for _ in range(50):
            cell = np.exp(1j * rng.uniform(0, 2 * np.pi, (p, q)))
            v = np.tile(cell, (d // p, d // q))
            h = periodic_phase_hadamard(p, q, v)
            assert validate_hadamard(h.matrix).passed

    def test_row_periodicity_violation(self):
        v = np.ones((6, 6), dtype=complex)
        v[0, 0] = np.exp(0.3j)  # breaks V[k, l] == V[k+p, l]
        with pytest.raises(PeriodicityViolated):
            periodic_phase_hadamard(2, 3, v)

    def test_column_periodicity_violation(self):
        v = np.ones((6, 6), dtype=complex)
        v[::2, 4] = np.exp(0.3j)  # breaks V[k, l] == V[k, l+q] but not V[k, l] == V[k+p, l]
        with pytest.raises(PeriodicityViolated, match=r"entry \(0, 4\) .* cell entry \(0, 1\)"):
            periodic_phase_hadamard(2, 3, v)

    def test_non_unimodular_cell(self):
        v = np.ones((4, 4), dtype=complex)
        v *= 1.5
        with pytest.raises(NotUnimodular):
            periodic_phase_hadamard(2, 2, v)

    def test_nan_cell_names_its_entry(self):
        v = np.ones((6, 6), dtype=complex)
        v[1::2, 1::3] = complex("nan")  # periodic, so only the modulus check can catch it
        with pytest.raises(NotUnimodular, match=r"entry \(1, 1\) has modulus nan"):
            periodic_phase_hadamard(2, 3, v)

    @pytest.mark.parametrize("p,q", [(0, 2), (2, 0), (-1, -1)])
    def test_rejects_non_positive_period(self, p, q):
        with pytest.raises(TightportError, match="must be positive"):
            periodic_phase_hadamard(p, q, np.ones((p * q, p * q)))


class TestDephase:
    def test_fourier_already_dephased(self):
        for d in (2, 3, 5):
            h = fourier_hadamard(d)
            np.testing.assert_allclose(dephase_hadamard(h).matrix, h.matrix, atol=1e-14)

    def test_undoes_row_phase(self):
        h = fourier_hadamard(3).matrix
        twisted = h.copy()
        twisted[0] *= 1j
        np.testing.assert_allclose(dephase_hadamard(twisted).matrix, h, atol=1e-14)

    @pytest.mark.parametrize("value", [0, np.nan], ids=["zero", "nan"])
    def test_a_zero_or_nan_entry_is_refused_without_a_warning(self, value):
        # the division by that entry must not escape as a RuntimeWarning, an error in this suite
        h = fourier_hadamard(3).matrix.copy()
        h[0, 0] = value
        with pytest.raises(DesignInvalid, match="not a Hadamard matrix"):
            dephase_hadamard(h)
        assert not hadamards_equivalent(h, fourier_hadamard(3))
        assert not hadamards_equivalent(fourier_hadamard(3), h)

    def test_idempotent_on_random_twists(self):
        rng = np.random.default_rng(4)
        h = fourier_hadamard(4).matrix
        for _ in range(10):
            twisted = (
                h
                * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))[:, None]
                * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            )
            once = dephase_hadamard(twisted).matrix
            twice = dephase_hadamard(once).matrix
            np.testing.assert_allclose(once, twice, atol=1e-14)

    def test_d3_constructions_equivalent_to_fourier(self):
        # every phase twist of the d=3 Fourier matrix lands in its class
        rng = np.random.default_rng(5)
        h = fourier_hadamard(3).matrix
        twisted = (
            h[rng.permutation(3)][:, rng.permutation(3)]
            * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))[:, None]
        )
        assert hadamards_equivalent(twisted, fourier_hadamard(3))


@pytest.mark.parametrize("call, error, message", [
    (lambda: validate_latin(np.zeros((2, 3), dtype=int)),
     DesignInvalid, "grid must be square, got shape (2, 3)"),
    (lambda: validate_hadamard(np.ones((2, 3))),
     DesignInvalid, "matrix must be square, got shape (2, 3)"),
    (lambda: periodic_phase_hadamard(2, 3, np.ones((5, 5))),
     PeriodicityViolated, "phase matrix shape (5, 5) is not (6, 6)"),
], ids=["non-square grid", "non-square matrix", "phase grid of another shape"])
def test_a_design_of_another_shape_is_rejected(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_hadamards_of_different_orders_are_not_equivalent():
    assert hadamards_equivalent(fourier_hadamard(2), fourier_hadamard(3)) is False
