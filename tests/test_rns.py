"""Tests for the RNS polynomial substrate."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArithmeticDomainError, NttParameterError
from repro.kernels import get_backend
from repro.ntt.reference import negacyclic_schoolbook_polymul
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomial, RnsPolynomialRing

N = 16
ORDER = 2 * N


@pytest.fixture(scope="module")
def basis():
    return RnsBasis.generate(3, 62, ORDER)


@pytest.fixture(scope="module")
def ring(basis):
    return RnsPolynomialRing(N, basis, get_backend("mqx"))


def _cyclic_ref(f, g, modulus, n):
    out = [0] * n
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[(i + j) % n] = (out[(i + j) % n] + a * b) % modulus
    return out


class TestBasis:
    def test_generate_properties(self, basis):
        assert len(basis) == 3
        assert len(set(basis.primes)) == 3
        for q in basis.primes:
            assert q % ORDER == 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_crt_roundtrip(self, basis, data):
        x = data.draw(st.integers(min_value=0, max_value=basis.modulus - 1))
        assert basis.from_rns(basis.to_rns(x)) == x

    def test_to_rns_range_checked(self, basis):
        with pytest.raises(ArithmeticDomainError):
            basis.to_rns(basis.modulus)
        with pytest.raises(ArithmeticDomainError):
            basis.to_rns(-1)

    def test_from_rns_validates(self, basis):
        with pytest.raises(ArithmeticDomainError):
            basis.from_rns([0, 0])
        with pytest.raises(ArithmeticDomainError):
            basis.from_rns([basis.primes[0], 0, 0])

    def test_rejects_duplicates_and_composites(self):
        with pytest.raises(ArithmeticDomainError):
            RnsBasis([97, 97])
        with pytest.raises(ArithmeticDomainError):
            RnsBasis([91])
        with pytest.raises(ArithmeticDomainError):
            RnsBasis([])

    def test_generate_validates(self):
        with pytest.raises(ArithmeticDomainError):
            RnsBasis.generate(0, 62, 32)


class TestRingOperations:
    def test_add_sub_roundtrip(self, ring, basis, rng):
        big_q = basis.modulus
        f = ring.encode([rng.randrange(big_q) for _ in range(N)])
        g = ring.encode([rng.randrange(big_q) for _ in range(N)])
        assert ring.sub(ring.add(f, g), g).coefficients() == f.coefficients()

    def test_add_matches_bigint(self, ring, basis, rng):
        big_q = basis.modulus
        fc = [rng.randrange(big_q) for _ in range(N)]
        gc = [rng.randrange(big_q) for _ in range(N)]
        out = ring.add(ring.encode(fc), ring.encode(gc))
        assert out.coefficients() == [(a + b) % big_q for a, b in zip(fc, gc)]

    def test_negacyclic_mul_matches_schoolbook(self, ring, basis, rng):
        big_q = basis.modulus
        fc = [rng.randrange(big_q) for _ in range(N)]
        gc = [rng.randrange(big_q) for _ in range(N)]
        out = ring.mul(ring.encode(fc), ring.encode(gc))
        assert out.coefficients() == negacyclic_schoolbook_polymul(fc, gc, big_q)

    def test_cyclic_ring(self, basis, rng):
        ring = RnsPolynomialRing(N, basis, get_backend("avx512"), negacyclic=False)
        big_q = basis.modulus
        fc = [rng.randrange(big_q) for _ in range(N)]
        gc = [rng.randrange(big_q) for _ in range(N)]
        out = ring.mul(ring.encode(fc), ring.encode(gc))
        assert out.coefficients() == _cyclic_ref(fc, gc, big_q, N)

    def test_one_is_identity(self, ring, basis, rng):
        big_q = basis.modulus
        f = ring.encode([rng.randrange(big_q) for _ in range(N)])
        assert ring.mul(f, ring.one()).coefficients() == f.coefficients()

    def test_zero_annihilates(self, ring, basis, rng):
        big_q = basis.modulus
        f = ring.encode([rng.randrange(big_q) for _ in range(N)])
        assert ring.mul(f, ring.zero()).coefficients() == [0] * N

    def test_scalar_mul(self, ring, basis, rng):
        big_q = basis.modulus
        a = rng.randrange(big_q)
        fc = [rng.randrange(big_q) for _ in range(N)]
        out = ring.scalar_mul(a, ring.encode(fc))
        assert out.coefficients() == [a * c % big_q for c in fc]

    def test_x_to_n_is_minus_one(self, ring, basis):
        """The negacyclic ring law at the RNS level."""
        big_q = basis.modulus
        half = [0] * N
        half[N // 2] = 1
        x_half = ring.encode(half)
        out = ring.mul(x_half, x_half)
        assert out.coefficients() == [big_q - 1] + [0] * (N - 1)

    def test_ntt_count_per_mul(self, ring):
        assert ring.ntt_count_per_mul == 9  # 3 primes x 3 transforms


class TestValidation:
    def test_wrong_dimension_rejected(self, ring):
        with pytest.raises(ArithmeticDomainError):
            ring.encode([0] * (N - 1))

    def test_unreduced_coefficient_rejected(self, ring, basis):
        with pytest.raises(ArithmeticDomainError):
            ring.encode([basis.modulus] + [0] * (N - 1))

    def test_cross_ring_operands_rejected(self, ring, basis):
        other = RnsPolynomialRing(N, basis, get_backend("scalar"))
        f = other.encode([0] * N)
        with pytest.raises(ArithmeticDomainError):
            ring.add(f, f)

    def test_unsupported_prime_rejected(self):
        basis = RnsBasis.generate(1, 62, 16)
        with pytest.raises(NttParameterError):
            RnsPolynomialRing(16, basis, get_backend("scalar"), negacyclic=True)


class TestResidueStack:
    """Residue rows are validated when a polynomial is built."""

    @pytest.mark.parametrize("engine", ["faithful", "fast"])
    def test_short_residue_list_rejected(self, basis, engine):
        ring = RnsPolynomialRing(N, basis, get_backend("mqx"), engine=engine)
        rows = [[1] + [0] * (N - 1) for _ in basis.primes]
        with pytest.raises(ArithmeticDomainError, match="one per prime"):
            RnsPolynomial(ring, rows[:-1])
        with pytest.raises(ArithmeticDomainError):
            RnsPolynomial(ring, rows + [rows[0]])
        with pytest.raises(ArithmeticDomainError):
            RnsPolynomial(ring, [row[:-1] for row in rows])
        with pytest.raises(ArithmeticDomainError):
            RnsPolynomial(ring, [row[:-1] for row in rows[:-1]] + [rows[-1]])

    @pytest.mark.parametrize("engine", ["faithful", "fast"])
    def test_unreduced_or_non_int_residue_rejected(self, basis, engine):
        ring = RnsPolynomialRing(N, basis, get_backend("mqx"), engine=engine)
        rows = [[0] * N for _ in basis.primes]
        rows[1][3] = basis.primes[1]
        with pytest.raises(ArithmeticDomainError, match=str(basis.primes[1])):
            RnsPolynomial(ring, rows)
        rows[1][3] = -1
        with pytest.raises(ArithmeticDomainError):
            RnsPolynomial(ring, rows)
        rows[1][3] = 0.5
        with pytest.raises(ArithmeticDomainError):
            RnsPolynomial(ring, rows)
        with pytest.raises(ArithmeticDomainError):
            RnsPolynomial(ring, [0] * N)

    def test_lists_and_limbs_construct_the_same_polynomial(self, basis, rng):
        ring = RnsPolynomialRing(N, basis, get_backend("mqx"), engine="fast")
        fc = [rng.randrange(basis.modulus) for _ in range(N)]
        encoded = ring.encode(fc)
        rows = [[c % q for c in fc] for q in basis.primes]
        from_lists = RnsPolynomial(ring, rows)
        from_limbs = RnsPolynomial(ring, np.array(encoded.limbs))
        assert from_lists == encoded == from_limbs
        assert from_lists.residues == rows
        assert all(type(v) is int for row in encoded.residues for v in row)
        assert encoded.limbs.shape == (len(basis), N, 2)
        with pytest.raises(ValueError):
            encoded.limbs[0, 0, 0] = 1  # the stack is read-only
        with pytest.raises(ArithmeticDomainError):
            RnsPolynomial(ring, np.array(encoded.limbs[:-1]))

    def test_fast_ops_keep_the_stack_resident(self, basis, rng):
        ring = RnsPolynomialRing(N, basis, get_backend("mqx"), engine="fast")
        big_q = basis.modulus
        f = ring.encode([rng.randrange(big_q) for _ in range(N)])
        g = ring.encode([rng.randrange(big_q) for _ in range(N)])
        for out in (ring.add(f, g), ring.sub(f, g), ring.mul(f, g),
                    ring.scalar_mul(3, f)):
            assert out._residues is None  # the list view is built lazily
            assert out.limbs.shape == (len(basis), N, 2)


class TestBackendsAgree:
    def test_all_backends_same_product(self, basis):
        rng = random.Random(77)
        big_q = basis.modulus
        fc = [rng.randrange(big_q) for _ in range(N)]
        gc = [rng.randrange(big_q) for _ in range(N)]
        results = []
        for name in ("scalar", "avx2", "avx512", "mqx"):
            ring = RnsPolynomialRing(N, basis, get_backend(name))
            out = ring.mul(ring.encode(fc), ring.encode(gc))
            results.append(out.coefficients())
        assert all(r == results[0] for r in results)
