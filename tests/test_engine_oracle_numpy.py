"""The engine oracle with the native library substituted away.

Every case of :mod:`tests.test_engine_oracle` runs again here with
``native.library`` returning ``None``, as on a host without a compiler,
so ``auto`` plans, the chain runner and the pool workers run their NumPy
substrates. The tests and the ``pool`` fixture are the oracle's own;
only ``substrate`` is overridden.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from repro.fast import native
from repro.fast.modular import FastModulus

from tests.test_engine_oracle import (  # noqa: F401  (collected here too)
    pool,
    test_blas,
    test_cyclic_product,
    test_multiply_add,
    test_negacyclic_product_and_twisted_transforms,
    test_rns_mul,
    test_transforms,
)


@pytest.fixture(scope="module")
def substrate():
    """No native library for this module; the pool forks after this."""
    saved = native.library
    native.library = lambda: None
    FastModulus.clear_cache()
    yield "numpy"
    native.library = saved
    FastModulus.clear_cache()
