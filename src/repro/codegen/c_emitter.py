"""Lower instruction traces to C-with-intrinsics source text.

Each trace entry maps to one C statement through a per-mnemonic template.
Registers become SSA-style variables named by kind (``v12`` for vectors,
``k7`` for mask registers, ``t3`` for scalars, ``f4`` for flags); loads
and stores index symbolic ``in``/``out`` arrays in trace order; immediates
(shift counts, comparison predicates) come from the trace's ``imm`` field.

The output is the C the paper's artifact ships: it compiles against real
intrinsics headers (plus the generated ``mqx.h`` for MQX kernels), e.g.
with ``gcc -O2 -mavx512f -mavx512dq -mavx512ifma``. The tests verify
structural well-formedness (every operand defined before use, balanced
parentheses, no unmapped instructions for the library's kernels) and
that compare predicates survive lowering. The C does not compute the
right answers yet: loop-hoisted constants (the broadcast modulus,
``one``...) are declared as ``0`` (see ``hoisted_declarations``).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.errors import ExperimentError
from repro.isa.trace import TraceEntry, Tracer, tracing
from repro.kernels.backend import Backend

#: _MM_CMPINT_* names by predicate value.
_CMPINT_NAMES = {
    0: "_MM_CMPINT_EQ",
    1: "_MM_CMPINT_LT",
    2: "_MM_CMPINT_LE",
    3: "_MM_CMPINT_FALSE",
    4: "_MM_CMPINT_NE",
    5: "_MM_CMPINT_NLT",
    6: "_MM_CMPINT_NLE",
    7: "_MM_CMPINT_TRUE",
}

# Result-kind codes: "v" = __m512i, "y" = __m256i, "k" = __mmask8,
# "t" = uint64_t, "f" = flag (emitted as uint64_t 0/1).
_C_TYPES = {"v": "__m512i", "y": "__m256i", "k": "__mmask8", "t": "uint64_t",
            "f": "uint64_t"}


def _cmp_name(imm: Optional[int]) -> str:
    return _CMPINT_NAMES.get(imm if imm is not None else 1, "_MM_CMPINT_LT")


class _Emitter:
    """Stateful lowering of one trace."""

    def __init__(self) -> None:
        self.names: Dict[int, str] = {}
        self.kinds: Dict[int, str] = {}
        self.defined: set = set()
        self.counter = 0
        self.loads = 0
        self.stores = 0
        self.lines: List[str] = []
        self.unmapped: List[str] = []

    def name(self, vid: int, kind: str = "t") -> str:
        if vid not in self.names:
            self.counter += 1
            self.names[vid] = f"{kind}{self.counter}"
            self.kinds[vid] = kind
        return self.names[vid]

    def define(self, vid: int, kind: str) -> str:
        name = self.name(vid, kind)
        self.defined.add(vid)
        return f"{_C_TYPES[self.kinds[vid]]} {name}"

    def hoisted_declarations(self) -> List[str]:
        """Declarations for values consumed but never produced in the trace
        (loop-hoisted constants such as the broadcast modulus, ``one``...).
        """
        inits = {"v": "_mm512_set1_epi64(0)", "y": "_mm256_set1_epi64x(0)",
                 "k": "0", "t": "0", "f": "0"}
        lines = []
        for vid, name in self.names.items():
            if vid in self.defined:
                continue
            kind = self.kinds[vid]
            lines.append(
                f"    {_C_TYPES[kind]} {name} = {inits[kind]}; "
                f"/* hoisted constant */"
            )
        return lines

    # -- per-entry lowering --------------------------------------------

    def emit(self, entry: TraceEntry) -> None:
        handler = _HANDLERS.get(entry.op)
        if handler is None:
            self.unmapped.append(entry.op)
            self.lines.append(f"    /* unmapped: {entry.op} */")
            return
        self.lines.append("    " + handler(self, entry))


def _src(e: _Emitter, entry: TraceEntry, i: int, kind: str = "t") -> str:
    return e.name(entry.srcs[i], kind)


def _name_srcs(e: _Emitter, entry: TraceEntry, src_kinds: str) -> List[str]:
    """Name every source with its declared kind; extra sources get the
    last kind (variadic flag chains)."""
    out = []
    for i in range(len(entry.srcs)):
        kind = src_kinds[min(i, len(src_kinds) - 1)] if src_kinds else "t"
        out.append(e.name(entry.srcs[i], kind))
    return out


def _simple(intrinsic: str, kind: str, src_kinds: str = "vv"):
    def handler(e: _Emitter, entry: TraceEntry) -> str:
        args = ", ".join(_name_srcs(e, entry, src_kinds))
        return f"{e.define(entry.dests[0], kind)} = {intrinsic}({args});"

    return handler


def _shift(intrinsic: str, kind: str):
    def handler(e: _Emitter, entry: TraceEntry) -> str:
        return (
            f"{e.define(entry.dests[0], kind)} = "
            f"{intrinsic}({_src(e, entry, 0, kind)}, {entry.imm});"
        )

    return handler


def _cmp_zmm(e: _Emitter, entry: TraceEntry) -> str:
    pred = _cmp_name(entry.imm)
    if len(entry.srcs) == 3:  # masked (zeroing) compare
        args = _name_srcs(e, entry, "kvv")
        return (
            f"{e.define(entry.dests[0], 'k')} = _mm512_mask_cmp_epu64_mask("
            f"{args[0]}, {args[1]}, {args[2]}, {pred});"
        )
    args = _name_srcs(e, entry, "vv")
    return (
        f"{e.define(entry.dests[0], 'k')} = _mm512_cmp_epu64_mask("
        f"{args[0]}, {args[1]}, {pred});"
    )


def _load(kind: str, intrinsic: str):
    def handler(e: _Emitter, entry: TraceEntry) -> str:
        idx = e.loads
        e.loads += 1
        return f"{e.define(entry.dests[0], kind)} = {intrinsic}(in + {idx});"

    return handler


def _store(intrinsic: str, kind: str):
    def handler(e: _Emitter, entry: TraceEntry) -> str:
        idx = e.stores
        e.stores += 1
        return f"{intrinsic}(out + {idx}, {_src(e, entry, 0, kind)});"

    return handler


def _mqx_widening(e: _Emitter, entry: TraceEntry) -> str:
    hi = e.define(entry.dests[0], "v")
    lo = e.define(entry.dests[1], "v")
    return (
        f"{hi}; {lo}; _mm512_mul_epi64(&{e.name(entry.dests[0])}, "
        f"&{e.name(entry.dests[1])}, {_src(e, entry, 0, 'v')}, "
        f"{_src(e, entry, 1, 'v')});"
    )


def _mqx_carry(intrinsic: str):
    def handler(e: _Emitter, entry: TraceEntry) -> str:
        co = e.define(entry.dests[1], "k")
        args = _name_srcs(e, entry, "vvk")
        return (
            f"{co}; {e.define(entry.dests[0], 'v')} = {intrinsic}("
            f"{args[0]}, {args[1]}, {args[2]}, &{e.name(entry.dests[1])});"
        )

    return handler


def _mqx_pred(intrinsic: str):
    def handler(e: _Emitter, entry: TraceEntry) -> str:
        args = ", ".join(_name_srcs(e, entry, "vkvvk"))
        return f"{e.define(entry.dests[0], 'v')} = {intrinsic}({args});"

    return handler


# -- scalar lowering (unsigned __int128 accumulators) ----------------------


def _scalar_carry(op: str):
    sign = "+" if op == "add" else "-"

    def handler(e: _Emitter, entry: TraceEntry) -> str:
        named = _name_srcs(e, entry, "ttf")
        terms = f" {sign} ".join(
            f"(unsigned __int128){name}" if i == 0 else name
            for i, name in enumerate(named)
        )
        value = e.define(entry.dests[0], "t")
        flag = e.define(entry.dests[1], "f")
        acc = f"acc{e.counter}"
        if op == "add":
            return (
                f"unsigned __int128 {acc} = {terms}; "
                f"{value} = (uint64_t){acc}; {flag} = (uint64_t)({acc} >> 64);"
            )
        return (
            f"__int128 {acc} = {terms}; "
            f"{value} = (uint64_t){acc}; {flag} = ({acc} < 0);"
        )

    return handler


def _scalar_mul(e: _Emitter, entry: TraceEntry) -> str:
    hi = e.define(entry.dests[0], "t")
    lo = e.define(entry.dests[1], "t")
    acc = f"acc{e.counter}"
    return (
        f"unsigned __int128 {acc} = (unsigned __int128){_src(e, entry, 0)} * "
        f"{_src(e, entry, 1)}; {hi} = (uint64_t)({acc} >> 64); "
        f"{lo} = (uint64_t){acc};"
    )


def _scalar_expr(template: str, kind: str = "t", src_kinds: str = "t"):
    def handler(e: _Emitter, entry: TraceEntry) -> str:
        srcs = _name_srcs(e, entry, src_kinds)
        expr = template.format(*srcs, imm=entry.imm)
        return f"{e.define(entry.dests[0], kind)} = {expr};"

    return handler


#: C operator of each ``cmp64`` predicate (``_MM_CMPINT_*`` codes).
_SCALAR_CMP_OPS = {0: "==", 1: "<", 2: "<="}


def _scalar_cmp(e: _Emitter, entry: TraceEntry) -> str:
    """``cmp64`` covers lt/le/eq; the predicate rides in ``imm``."""
    op = _SCALAR_CMP_OPS.get(entry.imm if entry.imm is not None else 1)
    if op is None:
        raise ExperimentError(f"cmp64 has no C lowering for predicate {entry.imm!r}")
    a, b = _name_srcs(e, entry, "tt")
    return f"{e.define(entry.dests[0], 'f')} = ({a} {op} {b});"


def _flag_logic(e: _Emitter, entry: TraceEntry) -> str:
    """``logic8``: ``not`` (one source), ``and``/``or`` by ``imm``."""
    srcs = _name_srcs(e, entry, "f")
    if len(srcs) == 1:
        expr = f"!{srcs[0]}"
    else:
        op = "&" if entry.imm == "and" else "|"
        expr = f"{srcs[0]} {op} {srcs[1]}"
    return f"{e.define(entry.dests[0], 'f')} = {expr};"


def _scalar_load(e: _Emitter, entry: TraceEntry) -> str:
    idx = e.loads
    e.loads += 1
    return f"{e.define(entry.dests[0], 't')} = in[{idx}];"


def _scalar_store(e: _Emitter, entry: TraceEntry) -> str:
    idx = e.stores
    e.stores += 1
    return f"out[{idx}] = {_src(e, entry, 0)};"


def _scalar_shrd(e: _Emitter, entry: TraceEntry) -> str:
    hi, lo = _src(e, entry, 0), _src(e, entry, 1)
    return (
        f"{e.define(entry.dests[0], 't')} = "
        f"({lo} >> {entry.imm}) | ({hi} << (64 - {entry.imm}));"
    )


_HANDLERS = {
    # --- AVX-512 --------------------------------------------------------
    "vpaddq_zmm": _simple("_mm512_add_epi64", "v"),
    "vpsubq_zmm": _simple("_mm512_sub_epi64", "v"),
    "vpaddq_masked_zmm": _simple("_mm512_mask_add_epi64", "v", "vkvv"),
    "vpsubq_masked_zmm": _simple("_mm512_mask_sub_epi64", "v", "vkvv"),
    "vpcmpuq_zmm": _cmp_zmm,
    "vpblendmq_zmm": _simple("_mm512_mask_blend_epi64", "v", "kvv"),
    "vpmullq_zmm": _simple("_mm512_mullo_epi64", "v"),
    "vpmuludq_zmm": _simple("_mm512_mul_epu32", "v"),
    "vpsrlq_zmm": _shift("_mm512_srli_epi64", "v"),
    "vpsllq_zmm": _shift("_mm512_slli_epi64", "v"),
    "vpandq_zmm": _simple("_mm512_and_epi64", "v"),
    "vporq_zmm": _simple("_mm512_or_epi64", "v"),
    "vpxorq_zmm": _simple("_mm512_xor_epi64", "v"),
    "vpmaxuq_zmm": _simple("_mm512_max_epu64", "v"),
    "vpunpcklqdq_zmm": _simple("_mm512_unpacklo_epi64", "v"),
    "vpunpckhqdq_zmm": _simple("_mm512_unpackhi_epi64", "v"),
    "vpermt2q_zmm": _simple("_mm512_permutex2var_epi64", "v", "vvv"),
    "vmovdqa64_zmm": _scalar_expr("{0}", kind="v", src_kinds="v"),
    "vmovdqu64_load_zmm": _load("v", "_mm512_loadu_si512"),
    "vmovdqu64_store_zmm": _store("_mm512_storeu_si512", "v"),
    "vpbroadcastq_zmm": lambda e, entry: (
        f"{e.define(entry.dests[0], 'v')} = "
        "_mm512_set1_epi64(/* per-iteration constant */ 0);"
    ),
    "korb": _simple("_kor_mask8", "k", "kk"),
    "kandb": _simple("_kand_mask8", "k", "kk"),
    "kandnb": _simple("_kandn_mask8", "k", "kk"),
    "kxorb": _simple("_kxor_mask8", "k", "kk"),
    "knotb": _simple("_knot_mask8", "k", "k"),
    # --- MQX (the generated code includes mqx.h) -------------------------
    "vpmulwq_zmm": _mqx_widening,
    "vpmulhq_zmm": _simple("_mm512_mulhi_epi64", "v"),
    "vpadcq_zmm": _mqx_carry("_mm512_adc_epi64"),
    "vpsbbq_zmm": _mqx_carry("_mm512_sbb_epi64"),
    "vpadcq_pred_zmm": _mqx_pred("_mm512_mask_adc_epi64"),
    "vpsbbq_pred_zmm": _mqx_pred("_mm512_mask_sbb_epi64"),
    # --- AVX2 -------------------------------------------------------------
    "vpaddq_ymm": _simple("_mm256_add_epi64", "y", "yy"),
    "vpsubq_ymm": _simple("_mm256_sub_epi64", "y", "yy"),
    "vpcmpgtq_ymm": _simple("_mm256_cmpgt_epi64", "y", "yy"),
    "vpcmpeqq_ymm": _simple("_mm256_cmpeq_epi64", "y", "yy"),
    "vpand_ymm": _simple("_mm256_and_si256", "y", "yy"),
    "vpandn_ymm": _simple("_mm256_andnot_si256", "y", "yy"),
    "vpor_ymm": _simple("_mm256_or_si256", "y", "yy"),
    "vpxor_ymm": _simple("_mm256_xor_si256", "y", "yy"),
    "vpblendvb_ymm": _simple("_mm256_blendv_epi8", "y", "yyy"),
    "vpmuludq_ymm": _simple("_mm256_mul_epu32", "y", "yy"),
    "vpmulld_ymm": _simple("_mm256_mullo_epi32", "y", "yy"),
    "vpsrlq_ymm": _shift("_mm256_srli_epi64", "y"),
    "vpsllq_ymm": _shift("_mm256_slli_epi64", "y"),
    "vpunpcklqdq_ymm": _simple("_mm256_unpacklo_epi64", "y", "yy"),
    "vpunpckhqdq_ymm": _simple("_mm256_unpackhi_epi64", "y", "yy"),
    "vperm2i128_ymm": _shift("/* vperm2i128 */_mm256_permute2x128_si256_imm", "y"),
    "vmovdqu_load_ymm": _load("y", "_mm256_loadu_si256"),
    "vmovdqu_store_ymm": _store("_mm256_storeu_si256", "y"),
    # --- scalar -------------------------------------------------------------
    "add64": _scalar_carry("add"),
    "adc64": _scalar_carry("add"),
    "sub64": _scalar_carry("sub"),
    "sbb64": _scalar_carry("sub"),
    "mul64": _scalar_mul,
    "imul64": _scalar_expr("{0} * {1}", src_kinds="tt"),
    "shl64": _scalar_expr("{0} << {imm}"),
    "shr64": _scalar_expr("{0} >> {imm}"),
    "shrd64": _scalar_shrd,
    "and64": _scalar_expr("{0} & {1}", src_kinds="tt"),
    "or64": _scalar_expr("{0} | {1}", src_kinds="tt"),
    "xor64": _scalar_expr("{0} ^ {1}", src_kinds="tt"),
    "cmp64": _scalar_cmp,
    "logic8": _flag_logic,
    "cmov64": _scalar_expr("{0} ? {1} : {2}", src_kinds="ftt"),
    "mov64": _scalar_expr("{0}"),
    "load64": _scalar_load,
    "store64": _scalar_store,
}



def generate_c_function(
    trace: Tracer, name: str, allow_unmapped: bool = False
) -> str:
    """Lower a trace to one C function.

    The signature takes symbolic ``in``/``out`` arrays of the widest
    register type used. Raises :class:`ExperimentError` on unmapped
    mnemonics unless ``allow_unmapped``.
    """
    emitter = _Emitter()
    for entry in trace.entries:
        emitter.emit(entry)
    if emitter.unmapped and not allow_unmapped:
        raise ExperimentError(
            f"trace contains unmapped mnemonics: {sorted(set(emitter.unmapped))}"
        )

    kinds = set(emitter.kinds.values())
    if "v" in kinds:
        array_type = "__m512i"
    elif "y" in kinds:
        array_type = "__m256i"
    else:
        array_type = "uint64_t"

    header = [
        f"static void {name}(const {array_type}* in, {array_type}* out)",
        "{",
    ]
    footer = ["}"]
    return "\n".join(
        header + emitter.hoisted_declarations() + emitter.lines + footer
    )


_KERNEL_TRACERS = ("addmod", "submod", "mulmod", "butterfly")


def generate_kernel_source(
    backend: Backend, kernel: str, q: int, seed: int = 0xC0DE
) -> str:
    """Trace one kernel on ``backend`` and lower it to C.

    ``kernel`` is one of ``addmod``/``submod``/``mulmod``/``butterfly``.
    The generated file includes the right headers (``immintrin.h``, plus
    ``mqx.h`` for the MQX backend).
    """
    if kernel not in _KERNEL_TRACERS:
        raise ExperimentError(
            f"kernel must be one of {_KERNEL_TRACERS}, got {kernel!r}"
        )
    rng = random.Random(seed)
    ctx = backend.make_modulus(q)
    a_vals = [rng.randrange(q) for _ in range(backend.lanes)]
    b_vals = [rng.randrange(q) for _ in range(backend.lanes)]
    with tracing(f"codegen-{kernel}") as trace:
        a = backend.load_block(a_vals)
        b = backend.load_block(b_vals)
        if kernel == "butterfly":
            w = backend.broadcast_dw(rng.randrange(q))
            plus, minus = backend.butterfly(a, b, w, ctx)
            backend.store_block(plus)
            backend.store_block(minus)
        else:
            out = getattr(backend, kernel)(a, b, ctx)
            backend.store_block(out)

    includes = ["#include <stdint.h>", "#include <immintrin.h>"]
    if backend.name == "mqx":
        includes.append('#include "mqx.h"')
    body = generate_c_function(trace, f"{kernel}128_{backend.name}")
    preamble = (
        f"/* {kernel} over Z_q, q = {q.bit_length()} bits, "
        f"{backend.name} backend - generated by repro.codegen */"
    )
    return "\n".join([preamble, *includes, "", body, ""])
