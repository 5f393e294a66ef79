"""Tests for the block-algebra layer: spectra, positivity, decompositions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conekit import algebra, linalg
from conekit.algebra import (
    AlgElement,
    FdAlgebra,
    cstar_norm,
    is_positive,
    pos_neg_parts,
    positivity_defect,
    positivity_witness_check,
    spectrum,
    sqrt_positive,
)
from conekit.errors import RejectedInputError, UnsupportedInputError
from conekit.linalg import CMatrix
from conekit.rng import SplitMix64, derive_seed
from conekit.sampling import (
    random_element,
    random_hermitian_element,
    random_positive_element,
)

M21 = FdAlgebra((2, 1))


def mat(rows):
    return CMatrix(np.array(rows, dtype=np.complex128))


def elem21(block0, block1):
    return M21.element([mat(block0), mat(block1)])


# strategy: a small algebra together with a seed for drawing elements from it
@st.composite
def algebra_and_seed(draw):
    n_blocks = draw(st.integers(1, 3))
    blocks = tuple(draw(st.integers(1, 4)) for _ in range(n_blocks))
    seed = draw(st.integers(0, 2**64 - 1))
    return FdAlgebra(blocks), seed


class TestAlgebraBasics:
    def test_block_validation(self):
        with pytest.raises(RejectedInputError):
            FdAlgebra(())
        with pytest.raises(RejectedInputError):
            FdAlgebra((2, 0))

    def test_element_shape_validation(self):
        with pytest.raises(RejectedInputError):
            M21.element([mat([[1]]), mat([[1]])])  # block 0 should be 2x2
        with pytest.raises(RejectedInputError):
            M21.element([mat([[1, 0], [0, 1]])])  # missing a block

    def test_parent_mismatch_rejected(self):
        other = FdAlgebra((2, 2))
        x = M21.unit()
        y = other.unit()
        with pytest.raises(RejectedInputError):
            _ = x + y

    def test_unit_and_zero(self):
        assert cstar_norm(M21.unit()) == 1.0
        assert cstar_norm(M21.zero()) == 0.0
        x = elem21([[2, 1], [1, 2]], [[5]])
        assert (x @ M21.unit()) == x
        assert (M21.unit() @ x) == x
        assert (x + M21.zero()) == x

    def test_star_reverses_products(self):
        rng = SplitMix64(derive_seed(7, "star"))
        x = random_element(rng, M21)
        y = random_element(rng, M21)
        lhs = (x @ y).star()
        rhs = y.star() @ x.star()
        assert lhs.allclose(rhs, 1e-12)
        # involution and conjugate-linearity
        assert x.star().star() == x
        c = complex(0.3, -1.7)
        assert ((c * x).star()).allclose(c.conjugate() * x.star(), 1e-12)

    def test_norm_is_max_of_block_norms(self):
        # operator norms: 2 for the shift-like block, 1 for the scalar
        x = elem21([[0, 2], [0, 0]], [[1]])
        assert abs(cstar_norm(x) - 2.0) < 1e-12


class TestSpectrum:
    def test_hermitian_two_block_example(self):
        x = elem21([[2, 1], [1, 2]], [[5]])
        rep = spectrum(x)
        assert rep.is_real
        got = [v.real for v in rep.values]
        assert np.allclose(got, [1.0, 3.0, 5.0], atol=1e-12)

    def test_dedup_across_blocks(self):
        rep = spectrum(M21.unit())
        assert rep.values == (1 + 0j,)

    def test_normal_but_not_hermitian(self):
        # a rotation by 90 degrees: eigenvalues -i and i
        x = FdAlgebra((2,)).element([mat([[0, -1], [1, 0]])])
        rep = spectrum(x)
        assert not rep.is_real
        got = sorted(rep.values, key=lambda z: z.imag)
        assert abs(got[0] - (-1j)) < 1e-12
        assert abs(got[1] - 1j) < 1e-12

    def test_unitary_diagonal_spectrum(self):
        theta = 0.8
        x = FdAlgebra((2,)).element(
            [mat([[np.exp(1j * theta), 0], [0, np.exp(-1j * theta)]])]
        )
        rep = spectrum(x)
        assert not rep.is_real
        mags = [abs(v) for v in rep.values]
        assert np.allclose(mags, [1.0, 1.0], atol=1e-12)

    def test_non_normal_rejected(self):
        x = FdAlgebra((2,)).element([mat([[0, 1], [0, 0]])])
        with pytest.raises(UnsupportedInputError):
            spectrum(x)

    def test_spectrum_deterministic(self):
        rng = SplitMix64(derive_seed(11, "spec-det"))
        x = random_hermitian_element(rng, FdAlgebra((3, 2)))
        assert spectrum(x).values == spectrum(x).values

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(algebra_and_seed())
    def test_spectrum_of_hermitian_is_real(self, case):
        alg, seed = case
        x = random_hermitian_element(SplitMix64(seed), alg)
        rep = spectrum(x)
        assert rep.is_real
        assert all(v.imag == 0.0 for v in rep.values)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(algebra_and_seed())
    def test_cstar_identity(self, case):
        alg, seed = case
        x = random_element(SplitMix64(seed), alg)
        n = cstar_norm(x)
        assert abs(cstar_norm(x.star() @ x) - n * n) <= 1e-10 * max(1.0, n * n)


class TestPositivity:
    def test_star_square_is_positive(self):
        rng = SplitMix64(derive_seed(3, "pos"))
        x = random_element(rng, FdAlgebra((3, 2, 1)))
        assert is_positive(x.star() @ x)

    def test_indefinite_detected(self):
        x = FdAlgebra((2,)).element([mat([[3, 0], [0, -1]])])
        assert not is_positive(x)
        # shortfall 1 relative to the spectral scale 3
        assert abs(positivity_defect(x) - 1.0 / 3.0) < 1e-12

    def test_non_hermitian_not_positive(self):
        x = FdAlgebra((2,)).element([mat([[0, 1], [0, 0]])])
        assert not is_positive(x)
        assert positivity_defect(x) > 0.1

    def test_defect_vanishes_on_cone(self):
        rng = SplitMix64(derive_seed(3, "defect"))
        p = random_positive_element(rng, FdAlgebra((4, 2)))
        assert positivity_defect(p) <= 1e-12

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(algebra_and_seed())
    def test_cone_closed_under_sum_and_scale(self, case):
        alg, seed = case
        rng = SplitMix64(seed)
        p = random_positive_element(rng, alg)
        q = random_positive_element(rng, alg)
        lam = rng.uniform(0.0, 3.0)
        assert is_positive(p + q)
        assert is_positive(lam * p)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(algebra_and_seed())
    def test_cone_closed_under_conjugation(self, case):
        alg, seed = case
        rng = SplitMix64(seed)
        p = random_positive_element(rng, alg)
        y = random_element(rng, alg)
        assert is_positive(y.star() @ p @ y)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(algebra_and_seed())
    def test_cone_is_pointed(self, case):
        # p and -p both positive forces p to vanish
        alg, seed = case
        p = random_positive_element(SplitMix64(seed), alg)
        if is_positive(-p):
            assert cstar_norm(p) <= 1e-9


class TestSqrt:
    def test_diagonal_example(self):
        x = FdAlgebra((2,)).element([mat([[4, 0], [0, 9]])])
        r = sqrt_positive(x)
        assert r.allclose(FdAlgebra((2,)).element([mat([[2, 0], [0, 3]])]), 1e-12)

    def test_dense_example(self):
        # closed-form: sqrt([[2,1],[1,2]]) has entries (1±sqrt(3))-ish
        x = FdAlgebra((2,)).element([mat([[2, 1], [1, 2]])])
        a = (1.0 + math.sqrt(3.0)) / 2.0
        b = (math.sqrt(3.0) - 1.0) / 2.0
        r = sqrt_positive(x)
        assert r.allclose(FdAlgebra((2,)).element([mat([[a, b], [b, a]])]), 1e-12)

    def test_square_recovers_input(self):
        rng = SplitMix64(derive_seed(5, "sqrt"))
        for _ in range(20):
            p = random_positive_element(rng, FdAlgebra((3, 1, 2)))
            r = sqrt_positive(p)
            assert is_positive(r)
            assert (r @ r).allclose(p, 1e-9)

    def test_sqrt_is_the_unique_positive_root(self):
        # for positive q, the root extracted from q@q must come back to q
        rng = SplitMix64(derive_seed(5, "unique"))
        for _ in range(20):
            q = random_positive_element(rng, FdAlgebra((2, 3)))
            assert sqrt_positive(q @ q).allclose(q, 1e-9)

    def test_rejects_non_positive(self):
        x = FdAlgebra((2,)).element([mat([[3, 0], [0, -1]])])
        with pytest.raises(RejectedInputError):
            sqrt_positive(x)

    def test_semidefinite_is_safe(self):
        x = FdAlgebra((2,)).element([mat([[1, 1], [1, 1]])])  # eigenvalues 0, 2
        r = sqrt_positive(x)
        assert (r @ r).allclose(x, 1e-12)


class TestPosNegParts:
    def test_diagonal_example(self):
        x = FdAlgebra((2,)).element([mat([[3, 0], [0, -1]])])
        pos, neg, absval = pos_neg_parts(x)
        two = FdAlgebra((2,))
        assert pos.allclose(two.element([mat([[3, 0], [0, 0]])]), 1e-12)
        assert neg.allclose(two.element([mat([[0, 0], [0, 1]])]), 1e-12)
        assert absval.allclose(two.element([mat([[3, 0], [0, 1]])]), 1e-12)

    def test_rejects_non_hermitian(self):
        x = FdAlgebra((2,)).element([mat([[0, 1], [0, 0]])])
        with pytest.raises(RejectedInputError):
            pos_neg_parts(x)

    def test_positive_input_is_a_fixed_point(self):
        rng = SplitMix64(derive_seed(9, "fixed"))
        p = random_positive_element(rng, FdAlgebra((3, 2)))
        pos, neg, absval = pos_neg_parts(p)
        assert pos.allclose(p, 1e-10)
        assert cstar_norm(neg) <= 1e-10 * max(1.0, cstar_norm(p))
        assert absval.allclose(p, 1e-10)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(algebra_and_seed())
    def test_decomposition_laws(self, case):
        alg, seed = case
        x = random_hermitian_element(SplitMix64(seed), alg)
        pos, neg, absval = pos_neg_parts(x)
        scale = max(1.0, cstar_norm(x))
        assert is_positive(pos) and is_positive(neg)
        assert (pos - neg).allclose(x, 1e-10)
        assert (pos + neg).allclose(absval, 1e-10)
        assert cstar_norm(pos @ neg) <= 1e-10 * scale * scale


class TestWitnessAgreement:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(algebra_and_seed(), st.sampled_from(["raw", "hermitian", "positive"]))
    def test_three_routes_agree(self, case, kind):
        alg, seed = case
        rng = SplitMix64(seed)
        if kind == "raw":
            x = random_element(rng, alg)
        elif kind == "hermitian":
            x = random_hermitian_element(rng, alg)
        else:
            x = random_positive_element(rng, alg)
        assert positivity_witness_check(x)

    def test_positive_case_routes(self):
        rng = SplitMix64(derive_seed(13, "routes"))
        p = random_positive_element(rng, FdAlgebra((2, 2)))
        assert is_positive(p)
        assert positivity_witness_check(p)

    def test_negative_case_routes(self):
        x = FdAlgebra((1,)).element([mat([[-2]])])
        assert not is_positive(x)
        assert positivity_witness_check(x)


class TestOneSolvePerBlock:
    """Every spectral operation reads one eigensolve per block."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        real = linalg.eig_hermitian

        def counting(m, tol=linalg.DEFAULT_TOL):
            calls.append(m.dim)
            return real(m, tol)

        monkeypatch.setattr(algebra, "eig_hermitian", counting)
        monkeypatch.setattr(linalg, "eig_hermitian", counting)
        return calls

    @pytest.mark.parametrize(
        "operation, kind",
        [
            (sqrt_positive, "positive"),
            (positivity_witness_check, "positive"),
            (positivity_witness_check, "hermitian"),
            (pos_neg_parts, "hermitian"),
        ],
    )
    def test_one_solve_per_block(self, solves, operation, kind):
        alg = FdAlgebra((3, 1, 2))
        rng = SplitMix64(derive_seed(21, "solves", kind))
        if kind == "positive":
            x = random_positive_element(rng, alg)
        else:
            x = random_hermitian_element(rng, alg)
        operation(x)
        assert solves == list(alg.blocks)
