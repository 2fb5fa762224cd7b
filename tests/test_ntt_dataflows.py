"""Radix-2 and Pease NTTs must equal the definitional transform."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NttParameterError
from repro.ntt.pease import pease_intt, pease_ntt
from repro.ntt.radix2 import intt as radix2_intt
from repro.ntt.radix2 import ntt as radix2_ntt
from repro.ntt.reference import naive_intt, naive_ntt
from repro.ntt.twiddles import TwiddleTable, bit_reverse, bit_reverse_permutation

from tests.conftest import MID_Q, SMALL_Q, random_residues

SIZES = [2, 4, 8, 32, 128]


class TestBitReverse:
    @pytest.mark.parametrize(
        "index,bits,expected", [(0, 3, 0), (1, 3, 4), (6, 3, 3), (5, 4, 10)]
    )
    def test_known_values(self, index, bits, expected):
        assert bit_reverse(index, bits) == expected

    @given(st.integers(min_value=0, max_value=255))
    def test_involution(self, index):
        assert bit_reverse(bit_reverse(index, 8), 8) == index

    def test_permutation_is_involution(self, rng):
        values = random_residues(rng, SMALL_Q, 64)
        twice = bit_reverse_permutation(bit_reverse_permutation(values))
        assert twice == values

    def test_rejects_non_power_of_two(self):
        with pytest.raises(NttParameterError):
            bit_reverse_permutation([1, 2, 3])


class TestTwiddleTable:
    def test_power_table(self):
        table = TwiddleTable(8, SMALL_Q)
        w = table.root
        for e in range(8):
            assert table.power(e) == pow(w, e, SMALL_Q)
        assert table.power(8) == 1  # wraps modulo n

    def test_inverse_powers_are_inverses(self):
        table = TwiddleTable(8, SMALL_Q)
        for e in range(8):
            product = table.power(e) * table.power(e, inverse=True) % SMALL_Q
            assert product == 1

    def test_n_inverse(self):
        table = TwiddleTable(16, SMALL_Q)
        assert table.n_inverse * 16 % SMALL_Q == 1

    def test_rejects_unsupported_modulus(self):
        with pytest.raises(NttParameterError):
            TwiddleTable(8, 23)  # 8 does not divide 22

    def test_rejects_bad_root(self):
        with pytest.raises(NttParameterError):
            TwiddleTable(8, SMALL_Q, root=1)

    def test_stage_out_of_range(self):
        table = TwiddleTable(8, SMALL_Q)
        with pytest.raises(NttParameterError):
            table.pease_stage_twiddles(3)
        with pytest.raises(NttParameterError):
            table.radix2_stage_twiddles(5)

    def test_pease_stage0_is_all_ones(self):
        table = TwiddleTable(16, SMALL_Q)
        assert table.pease_stage_twiddles(0) == [1] * 8

    @pytest.mark.parametrize("inverse", [False, True])
    def test_pease_stages_match_per_butterfly_formula(self, inverse):
        table = TwiddleTable(64, MID_Q)
        for s in range(table.stages):
            half = table.n >> (s + 1)
            mask = (1 << s) - 1
            expected = [
                table.power(bit_reverse(i & mask, s) * half, inverse)
                for i in range(table.n // 2)
            ]
            assert table.pease_stage_twiddles(s, inverse) == expected

    def test_twist_powers(self):
        n = 16
        omega_table = TwiddleTable(2 * n, SMALL_Q)
        psi = omega_table.root
        table = TwiddleTable(n, SMALL_Q, root=psi * psi % SMALL_Q)
        assert table.twist_powers(psi) == [pow(psi, i, SMALL_Q) for i in range(n)]
        inverse = table.twist_powers(psi, inverse=True)
        assert [a * b % SMALL_Q for a, b in zip(inverse, table.twist_powers(psi))] == [1] * n
        # Built once, shared by every plan over the table.
        assert table.twist_powers(psi) is table.twist_powers(psi)
        with pytest.raises(NttParameterError):
            table.twist_powers(psi + 1)


@pytest.mark.parametrize("n", SIZES)
class TestAgainstNaive:
    def test_radix2_matches_naive(self, n, rng):
        q = MID_Q
        x = random_residues(rng, q, n)
        table = TwiddleTable(n, q)
        assert radix2_ntt(x, q, table=table) == naive_ntt(x, q, root=table.root)

    def test_pease_matches_naive(self, n, rng):
        q = MID_Q
        x = random_residues(rng, q, n)
        table = TwiddleTable(n, q)
        assert pease_ntt(x, q, table=table) == naive_ntt(x, q, root=table.root)

    def test_radix2_roundtrip(self, n, rng):
        q = MID_Q
        x = random_residues(rng, q, n)
        assert radix2_intt(radix2_ntt(x, q), q) == x

    def test_pease_roundtrip(self, n, rng):
        q = MID_Q
        x = random_residues(rng, q, n)
        assert pease_intt(pease_ntt(x, q), q) == x

    def test_pease_raw_order_roundtrip(self, n, rng):
        q = MID_Q
        x = random_residues(rng, q, n)
        raw = pease_ntt(x, q, natural_order=False)
        assert pease_intt(raw, q, natural_order=False) == x

    def test_raw_output_is_bit_reversed_natural(self, n, rng):
        q = MID_Q
        x = random_residues(rng, q, n)
        natural = pease_ntt(x, q)
        raw = pease_ntt(x, q, natural_order=False)
        assert bit_reverse_permutation(raw) == natural


class TestDataflowsAgree:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_radix2_equals_pease(self, data):
        q = SMALL_Q
        n = data.draw(st.sampled_from([4, 16, 64]))
        x = [data.draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(n)]
        assert radix2_ntt(x, q) == pease_ntt(x, q)

    def test_parseval_like_energy_preservation(self, rng):
        # NTT of a delta at position j is the j-th twiddle row: all lanes
        # nonzero for j > 0 with prime modulus.
        q = SMALL_Q
        n = 16
        delta = [0] * n
        delta[3] = 1
        spectrum = pease_ntt(delta, q)
        assert all(v != 0 for v in spectrum)
