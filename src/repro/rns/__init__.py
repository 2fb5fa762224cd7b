"""Residue number system (RNS) polynomial arithmetic.

The paper's motivation (Section 1): FHE coefficients exceed 1,000 bits and
are decomposed by RNS into residues that fit machine arithmetic; recent
work (including the paper) uses 128-bit residues to reduce the limb count.
This package provides that application layer on top of the kernels:

* :class:`~repro.rns.basis.RnsBasis` - a basis of pairwise-distinct
  NTT-friendly primes with CRT recombination,
* :class:`~repro.rns.poly.RnsPolynomialRing` - polynomial rings
  ``Z_Q[x]/(x^n - 1)`` (cyclic) or ``Z_Q[x]/(x^n + 1)`` (negacyclic, the
  RLWE ring) with add/sub/mul over a resident ``(k, n, 2)`` residue
  stack: one ISA-simulated pipeline per prime on the faithful engine,
  one channel-stacked call per group of equal-width primes on the fast
  engine.

Per-prime transforms are mutually independent - exactly the batch
parallelism the Section 6 multi-core argument relies on
(:mod:`repro.multicore`), and what lets the fast engine run them as
one wide pass.
"""

from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomial, RnsPolynomialRing

__all__ = ["RnsBasis", "RnsPolynomial", "RnsPolynomialRing"]
