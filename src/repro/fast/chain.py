"""The fast engine's one executable description of every op: step chains.

A *chain* is a small, serializable program — a list of step dicts over
named registers — composing the fast engine's primitives (NTT stages,
psi twists, pointwise products, BLAS ops) without returning to the
caller between steps. Every fast and parallel entry point is a step
list handed to :func:`run_chain`:

* :class:`~repro.fast.ntt.FastNtt` (forward, inverse, pointwise,
  cyclic product) and :class:`~repro.fast.ntt.FastNegacyclic` (twisted
  forward and inverse, negacyclic product) build a step list and run it
  in-process;
* every :mod:`repro.par` plan builds the same step lists and ships them
  to the pool as ``op="chain"`` task specs, which is the only op
  :func:`repro.par.worker.execute_spec` executes;
* the faithful audit (:mod:`repro.resil.integrity`) interprets the same
  steps on the ISA-simulated engine.

The runner keeps intermediate values **resident on the active
arithmetic substrate**: with an r52 modulus registers stay in 52-bit
limb-plane form across every step — one ``from_dw`` repack per input,
one ``to_dw`` per output, rather than per primitive. Every step's
mathematical output is a fully reduced canonical residue, so chains are
bit-exact with the faithful engine by construction. On a
channel-stacked plan (a tuple of equal-width primes, see
:class:`~repro.fast.ntt.FastNtt`) registers are ``(k, n)`` stacks and
the same steps run every RNS channel at once.

Step shapes (all plain dicts, pickle/JSON-safe)::

    {"kind": "ntt", "src": r, "dst": r, "direction": "forward"|"inverse",
     "natural": bool}
    {"kind": "twist", "src": r, "dst": r, "which": "twist"|"untwist"}
    {"kind": "pointwise", "a": r, "b": r, "dst": r}
    {"kind": "blas", "x": r, "y": r, "dst": r,
     "blas_op": "vector_add"|"vector_sub"|"vector_mul"|"axpy", "a": int}

Registers are created by writing them; inputs are pre-bound. The chain
must leave its result in the register named ``"out"``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NttParameterError
from repro.fast.blas import FastBlasPlan

if TYPE_CHECKING:  # fast.ntt runs its ops through this module
    from repro.fast.ntt import FastNegacyclic, FastNtt

#: Valid ``blas_op`` values for a ``blas`` step.
BLAS_OPS = ("vector_add", "vector_sub", "vector_mul", "axpy")

#: Valid ``kind`` values for a chain step.
STEP_KINDS = ("ntt", "twist", "pointwise", "blas")

#: Output register every chain must produce.
OUT_REGISTER = "out"

#: Element-wise spectral product ``out = x * y`` (one mulmod pass).
POINTWISE_STEPS = ({"kind": "pointwise", "a": "x", "b": "y", "dst": OUT_REGISTER},)

#: Twisted forward transform of the negacyclic ring (raw bit-reversed
#: output): ``out = NTT(x * psi^i)``.
TWISTED_FORWARD_STEPS = (
    {"kind": "twist", "which": "twist", "src": "x", "dst": "xt"},
    {"kind": "ntt", "direction": "forward", "natural": False,
     "src": "xt", "dst": OUT_REGISTER},
)

#: Inverse of :data:`TWISTED_FORWARD_STEPS` (``1/n`` and untwist included).
TWISTED_INVERSE_STEPS = (
    {"kind": "ntt", "direction": "inverse", "natural": False,
     "src": "x", "dst": "cy"},
    {"kind": "twist", "which": "untwist", "src": "cy", "dst": OUT_REGISTER},
)

#: Negacyclic product ``out = x * y mod (x^n + 1, q)``: twist, forward,
#: pointwise, inverse, untwist.
NEGACYCLIC_MUL_STEPS = (
    {"kind": "twist", "which": "twist", "src": "x", "dst": "xt"},
    {"kind": "ntt", "direction": "forward", "natural": False,
     "src": "xt", "dst": "fa"},
    {"kind": "twist", "which": "twist", "src": "y", "dst": "yt"},
    {"kind": "ntt", "direction": "forward", "natural": False,
     "src": "yt", "dst": "ga"},
    {"kind": "pointwise", "a": "fa", "b": "ga", "dst": "pr"},
    {"kind": "ntt", "direction": "inverse", "natural": False,
     "src": "pr", "dst": "cy"},
    {"kind": "twist", "which": "untwist", "src": "cy", "dst": OUT_REGISTER},
)

#: Cyclic product ``out = x * y mod (x^n - 1, q)``.
CYCLIC_MUL_STEPS = (
    {"kind": "ntt", "direction": "forward", "natural": False,
     "src": "x", "dst": "fa"},
    {"kind": "ntt", "direction": "forward", "natural": False,
     "src": "y", "dst": "ga"},
    {"kind": "pointwise", "a": "fa", "b": "ga", "dst": "pr"},
    {"kind": "ntt", "direction": "inverse", "natural": False,
     "src": "pr", "dst": OUT_REGISTER},
)

#: Fused multiply-accumulate ``out = x * y + z mod (x^n + 1, q)`` — a
#: keyswitch-shaped three-input chain (product plus running sum) that
#: previously cost two dispatched batches.
NEGACYCLIC_MUL_ADD_STEPS = tuple(
    [dict(step, dst="prod") if step.get("dst") == OUT_REGISTER else step
     for step in NEGACYCLIC_MUL_STEPS]
    + [{"kind": "blas", "blas_op": "vector_add",
        "x": "prod", "y": "z", "dst": OUT_REGISTER}]
)


def ntt_steps(direction: str, natural: bool) -> Tuple[dict, ...]:
    """One transform ``out = NTT(x)`` or ``INTT(x)``.

    ``natural`` selects natural-order output (forward) or input
    (inverse); otherwise the spectrum is in raw bit-reversed order.
    """
    return ({"kind": "ntt", "direction": direction, "natural": bool(natural),
             "src": "x", "dst": OUT_REGISTER},)


def blas_steps(blas_op: str, a: Optional[int] = None) -> Tuple[dict, ...]:
    """One BLAS op ``out = op(x, y)`` (``a`` is the ``axpy`` scalar)."""
    step = {"kind": "blas", "blas_op": blas_op, "x": "x", "y": "y",
            "dst": OUT_REGISTER}
    if a is not None:
        step["a"] = int(a)
    return (step,)


def chain_input_names(steps: Sequence[dict]) -> List[str]:
    """Registers a chain reads before writing (its required inputs)."""
    defined: set = set()
    inputs: List[str] = []
    for step in steps:
        reads = _step_reads(step)
        for name in reads:
            if name not in defined and name not in inputs:
                inputs.append(name)
        defined.add(step.get("dst"))
    return inputs


def _step_reads(step: dict) -> List[str]:
    kind = step.get("kind")
    if kind in ("ntt", "twist"):
        return [step.get("src")]
    if kind == "pointwise":
        return [step.get("a"), step.get("b")]
    if kind == "blas":
        return [step.get("x"), step.get("y")]
    return []


def validate_steps(steps: Sequence[dict], inputs: Sequence[str]) -> None:
    """Reject a malformed chain before any shm staging or dispatch.

    Checks structural validity: known step kinds, every read register
    defined (as an input or by an earlier step), BLAS ops from the
    supported set with ``axpy`` carrying its scalar, and the final
    result landing in ``"out"``. Raises :class:`NttParameterError`.
    """
    if not steps:
        raise NttParameterError("a fused chain needs at least one step")
    defined = set(inputs)
    for index, step in enumerate(steps):
        kind = step.get("kind")
        if kind not in STEP_KINDS:
            raise NttParameterError(
                f"chain step {index}: unknown kind {kind!r} "
                f"(expected one of {STEP_KINDS})"
            )
        if kind == "ntt" and step.get("direction") not in ("forward", "inverse"):
            raise NttParameterError(
                f"chain step {index}: ntt direction must be "
                f"'forward' or 'inverse', got {step.get('direction')!r}"
            )
        if kind == "twist" and step.get("which") not in ("twist", "untwist"):
            raise NttParameterError(
                f"chain step {index}: twist 'which' must be "
                f"'twist' or 'untwist', got {step.get('which')!r}"
            )
        if kind == "blas":
            if step.get("blas_op") not in BLAS_OPS:
                raise NttParameterError(
                    f"chain step {index}: unknown blas_op "
                    f"{step.get('blas_op')!r} (expected one of {BLAS_OPS})"
                )
            if step.get("blas_op") == "axpy" and "a" not in step:
                raise NttParameterError(
                    f"chain step {index}: axpy needs its scalar 'a'"
                )
        for name in _step_reads(step):
            if not isinstance(name, str) or not name:
                raise NttParameterError(
                    f"chain step {index}: missing source register"
                )
            if name not in defined:
                raise NttParameterError(
                    f"chain step {index}: register {name!r} read before "
                    f"it was written (inputs: {sorted(inputs)})"
                )
        dst = step.get("dst")
        if not isinstance(dst, str) or not dst:
            raise NttParameterError(
                f"chain step {index}: missing destination register"
            )
        defined.add(dst)
    if OUT_REGISTER not in defined:
        raise NttParameterError(
            f"chain never writes the {OUT_REGISTER!r} register"
        )


def run_chain(
    steps: Sequence[dict],
    inputs: Dict[str, np.ndarray],
    ntt: Optional["FastNtt"],
    neg: Optional["FastNegacyclic"] = None,
    blas: Optional[FastBlasPlan] = None,
) -> np.ndarray:
    """Execute a validated chain; returns the ``"out"`` register (dw form).

    ``inputs`` maps register names to ``(..., 2)`` limb arrays (already
    coerced and range-checked by the caller). With an r52 modulus the
    register file holds 52-bit limb planes and every NTT/twist/pointwise
    step stays in plane form; the double-word repack happens once per
    input register and once for the result. Each step produces fully
    reduced canonical residues, which is what makes the fused result
    bit-identical to the faithful engine.

    A chain of BLAS steps only needs ``blas``: ``ntt`` may be ``None``.
    Without ``blas``, BLAS steps run on ``ntt``'s modulus and substrate.
    """
    if ntt is None and blas is None:
        raise NttParameterError("a chain needs a transform or a BLAS plan")
    mod = ntt.mod if ntt is not None else blas.mod
    r = mod.r52
    use_r52 = r is not None
    # Tagged register file: ("dw", (..., 2) array) or ("r52", planes).
    regs: Dict[str, tuple] = {
        name: ("dw", arr) for name, arr in inputs.items()
    }

    def as_r52(value: tuple):
        tag, val = value
        return val if tag == "r52" else r.from_dw(val)

    def as_dw(value: tuple) -> np.ndarray:
        tag, val = value
        return val if tag == "dw" else r.to_dw(val)

    for step in steps:
        kind = step["kind"]
        if kind == "ntt":
            if ntt is None:
                raise NttParameterError(
                    "chain has an ntt step but no transform plan (n, root)"
                )
            inverse = step["direction"] == "inverse"
            natural = bool(step.get("natural", False))
            bitrev = ntt._bitrev
            if use_r52:
                planes = as_r52(regs[step["src"]])
                if inverse:
                    if not natural:
                        planes = [p[..., bitrev] for p in planes]
                    planes = ntt._r52.run_stages(planes, True)
                    planes = [p[..., bitrev] for p in planes]
                    planes = r.mulmod_shoup(planes, ntt._r52_n_inv_pair())
                else:
                    planes = ntt._r52.run_stages(planes, False)
                    if natural:
                        planes = [p[..., bitrev] for p in planes]
                regs[step["dst"]] = ("r52", planes)
            else:
                x = as_dw(regs[step["src"]])
                if inverse:
                    if not natural:
                        x = x[..., bitrev, :]
                    x = ntt._run_stages(x, True)
                    x = x[..., bitrev, :]
                    x = mod.mulmod(x, ntt._n_inv)
                else:
                    x = ntt._run_stages(x, False)
                    if natural:
                        x = x[..., bitrev, :]
                regs[step["dst"]] = ("dw", x)
        elif kind == "twist":
            if neg is None:
                raise NttParameterError(
                    "chain has a twist step but no negacyclic plan (psi)"
                )
            tw = neg._twist_table(step["which"] == "untwist", r)
            if use_r52:
                planes = as_r52(regs[step["src"]])
                regs[step["dst"]] = ("r52", r.mulmod_shoup(planes, tw))
            else:
                x = as_dw(regs[step["src"]])
                regs[step["dst"]] = ("dw", mod.mulmod(x, tw))
        elif kind == "pointwise":
            if use_r52:
                a = as_r52(regs[step["a"]])
                b = as_r52(regs[step["b"]])
                regs[step["dst"]] = ("r52", r.mulmod(a, b))
            else:
                a = as_dw(regs[step["a"]])
                b = as_dw(regs[step["b"]])
                regs[step["dst"]] = ("dw", mod.mulmod(a, b))
        else:  # blas (validated)
            plan = blas if blas is not None else FastBlasPlan(ntt.q, ntt.mode)
            xa = as_dw(regs[step["x"]])
            ya = as_dw(regs[step["y"]])
            op = step["blas_op"]
            if op == "axpy":
                result = plan.axpy(int(step["a"]), xa, ya)
            else:
                result = getattr(plan, op)(xa, ya)
            regs[step["dst"]] = ("dw", result)
    return as_dw(regs[OUT_REGISTER])
