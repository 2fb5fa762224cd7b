"""Tests for the C code generator."""

import re

import pytest

from repro.arith.primes import default_modulus
from repro.codegen.c_emitter import generate_c_function, generate_kernel_source
from repro.codegen.mqx_header import generate_mqx_header
from repro.errors import ExperimentError
from repro.isa.trace import Tracer, tracing
from repro.kernels import get_backend
from repro.kernels.listings import listing1_addmod128

from tests.conftest import ALL_BACKEND_NAMES

Q = default_modulus()


def _balanced(text: str) -> bool:
    depth_paren = depth_brace = 0
    for ch in text:
        depth_paren += ch == "("
        depth_paren -= ch == ")"
        depth_brace += ch == "{"
        depth_brace -= ch == "}"
        if depth_paren < 0 or depth_brace < 0:
            return False
    return depth_paren == 0 and depth_brace == 0


def _ssa_well_formed(body: str) -> bool:
    """Every variable (v*/k*/t*/f*) is declared before any later use.

    A line may declare several variables (e.g. the MQX carry-out mask and
    the sum: ``__mmask8 k5; __m512i v7 = _mm512_adc_epi64(...)``); all of
    a line's declarations count before its uses are checked.
    """
    declared = set()
    for line in body.splitlines():
        decls = set(
            re.findall(
                r"(?:__m512i|__m256i|__mmask8|uint64_t)\s+([vktfy]\d+)", line
            )
        )
        declared |= decls
        for name in re.findall(r"\b([vktfy]\d+)\b", line):
            if name not in declared:
                return False
    return True


class TestKernelSource:
    @pytest.mark.parametrize("name", ALL_BACKEND_NAMES)
    @pytest.mark.parametrize("kernel", ["addmod", "mulmod", "butterfly"])
    def test_generates_without_unmapped(self, name, kernel):
        source = generate_kernel_source(get_backend(name), kernel, Q)
        assert "unmapped" not in source
        assert _balanced(source)

    def test_avx512_addmod_contains_expected_intrinsics(self):
        source = generate_kernel_source(get_backend("avx512"), "addmod", Q)
        assert "_mm512_add_epi64" in source
        assert "_mm512_cmp_epu64_mask" in source
        assert "_mm512_mask_blend_epi64" in source
        assert "#include <immintrin.h>" in source

    def test_mqx_source_includes_header_and_intrinsics(self):
        source = generate_kernel_source(get_backend("mqx"), "mulmod", Q)
        assert '#include "mqx.h"' in source
        assert "_mm512_mul_epi64(&" in source
        assert "_mm512_adc_epi64(" in source

    def test_scalar_source_uses_int128(self):
        source = generate_kernel_source(get_backend("scalar"), "mulmod", Q)
        assert "unsigned __int128" in source
        assert "uint64_t" in source

    def test_ssa_discipline(self):
        for name in ("avx512", "mqx"):
            source = generate_kernel_source(get_backend(name), "addmod", Q)
            assert _ssa_well_formed(source), name

    def test_cmp_predicates_recovered(self):
        source = generate_kernel_source(get_backend("avx512"), "addmod", Q)
        assert "_MM_CMPINT_LT" in source

    def test_scalar_listing1_predicates_recovered(self):
        """Listing 1's ``a35 = mh == t29``, ``a38 = ml <= t30`` and
        ``a34 = a35 & a38`` keep their predicates in the emitted C."""
        with tracing() as trace:
            listing1_addmod128(Q - 1, 5, Q)
        source = generate_c_function(trace, "addmod128_scalar")
        compares = re.findall(r"= \(t\d+ (<|<=|==) t\d+\);", source)
        assert sorted(compares) == sorted(["<"] * 5 + ["=="] + ["<="])
        assert len(re.findall(r"= f\d+ & f\d+;", source)) == 1
        assert len(re.findall(r"= f\d+ \| f\d+;", source)) == 4

    def test_shift_immediates_recovered(self):
        source = generate_kernel_source(get_backend("avx512"), "mulmod", Q)
        assert "_mm512_srli_epi64" in source
        assert re.search(r"_mm512_srli_epi64\([vk]\d+, \d+\)", source)

    def test_loads_and_stores_indexed(self):
        source = generate_kernel_source(get_backend("avx512"), "addmod", Q)
        assert "_mm512_loadu_si512(in + 0)" in source
        assert "_mm512_storeu_si512(out + 0," in source
        assert "_mm512_storeu_si512(out + 1," in source

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ExperimentError):
            generate_kernel_source(get_backend("mqx"), "fft", Q)


class TestCFunction:
    def test_unmapped_raises_by_default(self):
        trace = Tracer()
        trace.emit("vfmadd231pd_zmm", (1,), ())
        with pytest.raises(ExperimentError):
            generate_c_function(trace, "bad")

    def test_unmapped_allowed_as_comment(self):
        trace = Tracer()
        trace.emit("vfmadd231pd_zmm", (1,), ())
        source = generate_c_function(trace, "bad", allow_unmapped=True)
        assert "/* unmapped: vfmadd231pd_zmm */" in source

    def test_signature_type_follows_content(self):
        trace = Tracer()
        trace.emit("add64", (1, 2), ())
        source = generate_c_function(trace, "scalar_fn")
        assert "const uint64_t* in" in source


class TestMqxHeader:
    @pytest.fixture(scope="class")
    def header(self):
        return generate_mqx_header()

    def test_both_build_modes_present(self, header):
        assert "#ifdef MQX_EMULATE" in header
        assert "#else" in header and "#endif" in header

    def test_emulation_mode_is_table2(self, header):
        emulate = header.split("#else")[0]
        assert "unsigned __int128" in emulate
        assert "p >> 64" in emulate

    def test_proxy_mode_is_table3(self, header):
        proxy = header.split("#else")[1]
        assert "_mm512_mullo_epi64" in proxy  # widening -> mullo
        assert "_mm512_mask_add_epi64" in proxy  # adc -> masked add
        assert "volatile" in proxy  # the paper's dependency guard

    def test_all_six_intrinsics_declared(self, header):
        for name in (
            "_mm512_mul_epi64",
            "_mm512_adc_epi64",
            "_mm512_sbb_epi64",
            "_mm512_mulhi_epi64",
            "_mm512_mask_adc_epi64",
            "_mm512_mask_sbb_epi64",
        ):
            assert name in header

    def test_include_guard(self, header):
        assert header.count("#ifndef MQX_H") == 1
        assert _balanced(header.replace("/*", "").replace("*/", ""))
