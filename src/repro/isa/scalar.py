"""Scalar x86-64 instruction semantics.

Each function simulates one scalar instruction (or one ``cmp``+flag-consume
pair, noted per function), returning :class:`~repro.isa.types.SVal` results
and emitting a trace entry. The set covers what the paper's scalar kernels
(Listing 1) compile to: ADD/ADC, SUB/SBB, widening MUL, IMUL, CMP, CMOV,
logic, shifts, loads/stores - plus DIV, used only by the GMP/OpenFHE baseline
substitutes, which rely on division-based modular reduction.

Flags are modeled as 1-bit :class:`SVal` values rather than a global flags
register: out-of-order hardware renames flags exactly like registers, and the
explicit dataflow is what the machine model's critical-path analysis needs.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.errors import IsaError
from repro.isa.trace import emit
from repro.isa.types import SVal
from repro.util.bits import MASK64

IntLike = Union[int, SVal]


def _val(x: IntLike) -> int:
    return int(x)


def _as_sval(x: IntLike, width: int = 64) -> SVal:
    # An existing SVal is passed through unchanged (even if its width
    # differs, e.g. a 1-bit flag used as a 0/1 addend) so that the tracer
    # sees the true dataflow edge; raw ints are wrapped as fresh values.
    return x if isinstance(x, SVal) else SVal(_val(x), width)


def const64(value: int) -> SVal:
    """Materialize an immediate; free (folded or hoisted by the compiler)."""
    return SVal(value)


def mov64(src: IntLike) -> SVal:
    """Register-to-register move (``MOV r64, r64``)."""
    src = _as_sval(src)
    dst = SVal(src.value)
    emit("mov64", [dst], [src])
    return dst


def add64(a: IntLike, b: IntLike) -> Tuple[SVal, SVal]:
    """``ADD r64, r64``: returns ``(sum, carry_flag)``."""
    a, b = _as_sval(a), _as_sval(b)
    total = a.value + b.value
    result = SVal(total)
    carry = SVal(total >> 64, width=1)
    emit("add64", [result, carry], [a, b])
    return result, carry


def adc64(a: IntLike, b: IntLike, carry_in: IntLike) -> Tuple[SVal, SVal]:
    """``ADC r64, r64``: add with carry-in, returns ``(sum, carry_out)``."""
    a, b = _as_sval(a), _as_sval(b)
    ci = _as_sval(carry_in, width=1)
    total = a.value + b.value + ci.value
    result = SVal(total)
    carry = SVal(total >> 64, width=1)
    emit("adc64", [result, carry], [a, b, ci])
    return result, carry


def sub64(a: IntLike, b: IntLike) -> Tuple[SVal, SVal]:
    """``SUB r64, r64``: returns ``(difference, borrow_flag)``."""
    a, b = _as_sval(a), _as_sval(b)
    diff = a.value - b.value
    result = SVal(diff)
    borrow = SVal(1 if diff < 0 else 0, width=1)
    emit("sub64", [result, borrow], [a, b])
    return result, borrow


def sbb64(a: IntLike, b: IntLike, borrow_in: IntLike) -> Tuple[SVal, SVal]:
    """``SBB r64, r64``: subtract with borrow-in, returns ``(diff, borrow_out)``."""
    a, b = _as_sval(a), _as_sval(b)
    bi = _as_sval(borrow_in, width=1)
    diff = a.value - b.value - bi.value
    result = SVal(diff)
    borrow = SVal(1 if diff < 0 else 0, width=1)
    emit("sbb64", [result, borrow], [a, b, bi])
    return result, borrow


def mul64(a: IntLike, b: IntLike) -> Tuple[SVal, SVal]:
    """``MUL r64``: unsigned widening multiply, returns ``(high, low)``.

    This is the scalar instruction that the MQX widening multiply
    ``_mm512_mul_epi64`` mirrors (Section 4.1).
    """
    a, b = _as_sval(a), _as_sval(b)
    product = a.value * b.value
    high = SVal(product >> 64)
    low = SVal(product & MASK64)
    emit("mul64", [high, low], [a, b])
    return high, low


def imul64(a: IntLike, b: IntLike) -> SVal:
    """``IMUL r64, r64``: multiply keeping only the low 64 bits."""
    a, b = _as_sval(a), _as_sval(b)
    result = SVal((a.value * b.value) & MASK64)
    emit("imul64", [result], [a, b])
    return result


def shl64(a: IntLike, amount: int) -> SVal:
    """``SHL r64, imm8``: logical left shift by an immediate."""
    a = _as_sval(a)
    if not 0 <= amount < 64:
        raise IsaError(f"shift amount {amount} out of range")
    result = SVal((a.value << amount) & MASK64)
    emit("shl64", [result], [a], imm=amount)
    return result


def shr64(a: IntLike, amount: int) -> SVal:
    """``SHR r64, imm8``: logical right shift by an immediate."""
    a = _as_sval(a)
    if not 0 <= amount < 64:
        raise IsaError(f"shift amount {amount} out of range")
    result = SVal(a.value >> amount)
    emit("shr64", [result], [a], imm=amount)
    return result


def shrd64(high: IntLike, low: IntLike, amount: int) -> SVal:
    """``SHRD r64, r64, imm8``: double-precision right shift.

    Shifts ``low`` right by ``amount``, filling vacated bits from ``high``.
    Used by the baselines for cross-word shifts.
    """
    high, low = _as_sval(high), _as_sval(low)
    if not 0 < amount < 64:
        raise IsaError(f"shift amount {amount} out of range for SHRD")
    result = SVal(((high.value << 64 | low.value) >> amount) & MASK64)
    emit("shrd64", [result], [high, low], imm=amount)
    return result


def and64(a: IntLike, b: IntLike) -> SVal:
    """``AND r64, r64``."""
    a, b = _as_sval(a), _as_sval(b)
    result = SVal(a.value & b.value)
    emit("and64", [result], [a, b])
    return result


def or64(a: IntLike, b: IntLike) -> SVal:
    """``OR r64, r64``."""
    a, b = _as_sval(a), _as_sval(b)
    result = SVal(a.value | b.value)
    emit("or64", [result], [a, b])
    return result


def xor64(a: IntLike, b: IntLike) -> SVal:
    """``XOR r64, r64``."""
    a, b = _as_sval(a), _as_sval(b)
    result = SVal(a.value ^ b.value)
    emit("xor64", [result], [a, b])
    return result


#: ``cmp64`` predicates, carried as the trace entry's ``imm`` (the
#: ``_MM_CMPINT_*`` encoding the vector compares use).
CMP_EQ, CMP_LT, CMP_LE = 0, 1, 2


def cmp_lt64(a: IntLike, b: IntLike) -> SVal:
    """Unsigned ``a < b``: ``CMP`` + ``SETB`` fused into one modeled op."""
    a, b = _as_sval(a), _as_sval(b)
    flag = SVal(1 if a.value < b.value else 0, width=1)
    emit("cmp64", [flag], [a, b], imm=CMP_LT)
    return flag


def cmp_le64(a: IntLike, b: IntLike) -> SVal:
    """Unsigned ``a <= b``: ``CMP`` + ``SETBE`` fused into one modeled op."""
    a, b = _as_sval(a), _as_sval(b)
    flag = SVal(1 if a.value <= b.value else 0, width=1)
    emit("cmp64", [flag], [a, b], imm=CMP_LE)
    return flag


def cmp_eq64(a: IntLike, b: IntLike) -> SVal:
    """``a == b``: ``CMP`` + ``SETE`` fused into one modeled op."""
    a, b = _as_sval(a), _as_sval(b)
    flag = SVal(1 if a.value == b.value else 0, width=1)
    emit("cmp64", [flag], [a, b], imm=CMP_EQ)
    return flag


def or1(a: IntLike, b: IntLike) -> SVal:
    """Logical OR of two flag bits (``OR r8, r8``)."""
    a, b = _as_sval(a, 1), _as_sval(b, 1)
    flag = SVal(a.value | b.value, width=1)
    emit("logic8", [flag], [a, b], imm="or")
    return flag


def and1(a: IntLike, b: IntLike) -> SVal:
    """Logical AND of two flag bits (``AND r8, r8``)."""
    a, b = _as_sval(a, 1), _as_sval(b, 1)
    flag = SVal(a.value & b.value, width=1)
    emit("logic8", [flag], [a, b], imm="and")
    return flag


def not1(a: IntLike) -> SVal:
    """Logical NOT of a flag bit (``XOR r8, 1``)."""
    a = _as_sval(a, 1)
    flag = SVal(1 - a.value, width=1)
    emit("logic8", [flag], [a])
    return flag


def cmov64(flag: IntLike, if_true: IntLike, if_false: IntLike) -> SVal:
    """``CMOVcc r64, r64``: branch-free select.

    This is how the paper's scalar code realizes the ternary assignments in
    Listing 1 (``ch = i28 ? d3 : t29``) without branching.
    """
    flag = _as_sval(flag, 1)
    if_true, if_false = _as_sval(if_true), _as_sval(if_false)
    result = SVal(if_true.value if flag.value else if_false.value)
    emit("cmov64", [result], [flag, if_true, if_false])
    return result


def div64(num_high: IntLike, num_low: IntLike, divisor: IntLike) -> Tuple[SVal, SVal]:
    """``DIV r64``: 128-by-64-bit divide, returns ``(quotient, remainder)``.

    Only the baseline substitutes use this - division-based reduction is the
    structural reason GMP-style code loses to Barrett reduction (Section 2.1).

    Raises :class:`IsaError` on divide-by-zero or quotient overflow, matching
    the #DE fault of the real instruction.
    """
    num_high, num_low = _as_sval(num_high), _as_sval(num_low)
    divisor = _as_sval(divisor)
    if divisor.value == 0:
        raise IsaError("DIV by zero")
    numerator = (num_high.value << 64) | num_low.value
    quotient = numerator // divisor.value
    if quotient >> 64:
        raise IsaError("DIV quotient overflow (#DE)")
    q = SVal(quotient)
    r = SVal(numerator % divisor.value)
    emit("div64", [q, r], [num_high, num_low, divisor])
    return q, r


def load64(value: IntLike) -> SVal:
    """``MOV r64, [mem]``: model a 64-bit load of ``value``."""
    result = SVal(_val(value))
    emit("load64", [result], [], tag="load")
    return result


def store64(value: IntLike) -> SVal:
    """``MOV [mem], r64``: model a 64-bit store; returns the stored value."""
    value = _as_sval(value)
    emit("store64", [], [value], tag="store")
    return value


def call_overhead(kind: str = "call") -> None:
    """Model fixed per-call overhead of a library routine.

    GMP-style arbitrary-precision libraries pay function-call, dispatch and
    (sometimes) allocation costs on every operand; the paper's measured
    17-18x GMP slowdown partly comes from exactly this. ``kind`` is one of
    ``"call"`` (plain call/return + spills) or ``"alloc"`` (temporary limb
    buffer management).
    """
    if kind not in ("call", "alloc"):
        raise IsaError(f"unknown overhead kind {kind!r}")
    emit(kind, [], [])
