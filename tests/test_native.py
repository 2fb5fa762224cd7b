"""The native word-size substrate: selection, bit-exactness, cache, faults.

Every fault path substitutes the compiler lookup, the cache directory or
the source the loader reads (never a user option), then checks that
plans fall back to the NumPy substrates bit-exactly with exactly one
:class:`EngineDegradedWarning` and one ``resil.degraded.native_unavailable``.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.arith.primes import find_ntt_prime, is_prime
from repro.fast import native
from repro.fast.blas import FastBlasPlan
from repro.fast.chain import NEGACYCLIC_MUL_ADD_STEPS, run_chain
from repro.fast.limbs import limbs_from_ints, limbs_to_ints
from repro.fast.modular import FastModulus
from repro.fast.ntt import FastNegacyclic, FastNtt
from repro.obs import observing
from repro.resil.degrade import EngineDegradedWarning

N = 64
Q50 = find_ntt_prime(50, 2 * N)
Q62 = find_ntt_prime(62, 2 * N)
Q63 = find_ntt_prime(63, 2 * N)
SRC = Path(__file__).resolve().parent.parent / "src"

needs_compiler = pytest.mark.skipif(
    native.find_compiler() is None, reason="no C compiler on this host"
)


@pytest.fixture(scope="module")
def module_cache(tmp_path_factory):
    """One compile for the module, kept out of the user's cache."""
    return tmp_path_factory.mktemp("native-cache")


@pytest.fixture(autouse=True)
def fresh_state(module_cache, monkeypatch):
    """Each test starts and ends with no remembered load outcome."""
    monkeypatch.setattr(native, "cache_dir", lambda: module_cache)
    native.reset()
    FastModulus.clear_cache()
    yield
    native.reset()
    FastModulus.clear_cache()


def _primes(bits: int, count: int):
    """The ``count`` largest ``bits``-bit primes ``= 1 mod 2N``."""
    found = []
    candidate = ((1 << bits) - 1) // (2 * N) * (2 * N) + 1
    while len(found) < count:
        if is_prime(candidate):
            found.append(candidate)
        candidate -= 2 * N
    return found


def _operands(q: int, rows: int = 3, seed: int = 0):
    rng = random.Random(seed)
    out = []
    for _ in range(2):
        block = [[rng.randrange(q) for _ in range(N)] for _ in range(rows)]
        block[0][:3] = [0, 1, q - 1]
        out.append(block)
    return out


def _r52_reference(q: int, f, g):
    neg = FastNegacyclic(N, q, mode="r52")
    blas = FastBlasPlan(q, mode="r52")
    return neg.multiply(f, g), blas.axpy(7, f, g), neg.plan.forward(f)


def _auto_results(q: int, f, g):
    neg = FastNegacyclic(N, q)
    blas = FastBlasPlan(q)
    return neg.mode, (neg.multiply(f, g), blas.axpy(7, f, g), neg.plan.forward(f))


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


@needs_compiler
class TestSelection:
    def test_auto_picks_native_below_2_62(self):
        assert native.library() is not None
        assert FastNegacyclic(N, Q50).mode == "native"
        assert FastNegacyclic(N, Q62).mode == "native"
        assert FastNegacyclic(N, Q63).mode == "r52"
        assert FastBlasPlan(Q62).mod.native is not None
        assert FastBlasPlan(Q62).mod.r52 is None

    def test_native_matches_r52_at_the_boundary(self):
        for q in (Q50, Q62):
            f, g = _operands(q)
            mode, got = _auto_results(q, f, g)
            assert mode == "native"
            assert got == _r52_reference(q, f, g)

    def test_stacked_native_plan_matches_per_prime(self):
        primes = tuple(_primes(50, 2))
        rng = random.Random(3)
        f = [[rng.randrange(q) for _ in range(N)] for q in primes]
        g = [[rng.randrange(q) for _ in range(N)] for q in primes]
        neg = FastNegacyclic(N, primes)
        blas = FastBlasPlan(primes)
        assert neg.mode == blas.mode == "native"
        assert neg.plan.mod.qwords.tolist() == list(primes)
        product = neg.multiply(f, g)
        scaled = blas.axpy([5, 6], f, g)
        for c, q in enumerate(primes):
            one = FastNegacyclic(N, q, psi=neg.psi[c], mode="r52")
            assert product[c] == one.multiply(f[c], g[c])
            assert scaled[c] == FastBlasPlan(q, "r52").axpy(5 + c, f[c], g[c])

    def test_chain_blas_step_stays_in_words(self, monkeypatch):
        f, g = _operands(Q50)
        z = _operands(Q50, seed=1)[0]
        neg = FastNegacyclic(N, Q50)

        def repacked(*args):
            raise AssertionError("the BLAS step left word form")

        monkeypatch.setattr(FastBlasPlan, "vector_add", repacked)
        out = run_chain(
            NEGACYCLIC_MUL_ADD_STEPS,
            {"x": limbs_from_ints(f), "y": limbs_from_ints(g),
             "z": limbs_from_ints(z)},
            neg.plan, neg=neg,
        )
        monkeypatch.undo()
        ref = FastNegacyclic(N, Q50, mode="dw")
        want = FastBlasPlan(Q50, "dw").vector_add(ref.multiply(f, g), z)
        assert limbs_to_ints(out) == want

    def test_unreduced_operands_rejected_before_any_call(self):
        from repro.errors import ArithmeticDomainError

        neg = FastNegacyclic(N, Q50)
        blas = FastBlasPlan(Q50)
        bad = [0] * N
        bad[5] = Q50
        with pytest.raises(ArithmeticDomainError):
            neg.multiply(bad, [0] * N)
        with pytest.raises(ArithmeticDomainError):
            blas.vector_mul(bad, [0] * N)
        words = np.zeros((1, N), dtype=np.uint64)
        words[0, 7] = Q50
        with pytest.raises(ArithmeticDomainError, match=r"x\[0, 7\]"):
            blas.run_words("vector_add", words, np.zeros_like(words))

    def test_read_only_stacks_are_never_written(self):
        from repro.kernels import get_backend
        from repro.rns.basis import RnsBasis
        from repro.rns.poly import RnsPolynomialRing

        primes = _primes(50, 2)
        ring = RnsPolynomialRing(N, RnsBasis(primes), get_backend("scalar"),
                                 engine="fast")
        assert ring._groups[0].ntt.mode == "native"
        rng = random.Random(5)
        f = ring.encode([rng.randrange(ring.basis.modulus) for _ in range(N)])
        g = ring.encode([rng.randrange(ring.basis.modulus) for _ in range(N)])
        before = f.limbs.copy(), g.limbs.copy()
        ring.add(ring.mul(f, g), f)
        assert not f.limbs.flags.writeable
        assert np.array_equal(f.limbs, before[0])
        assert np.array_equal(g.limbs, before[1])
        kernels = native.library()
        frozen = np.zeros((1, N), dtype=np.uint64)
        frozen.flags.writeable = False
        with pytest.raises(ValueError):
            native._out(frozen)
        with pytest.raises(ValueError):
            kernels.binary("addmod", np.zeros((2, N), dtype=np.uint64)[:, ::2],
                           np.zeros((2, N // 2), dtype=np.uint64),
                           np.array([Q50], dtype=np.uint64))


    def test_mismatched_tables_rejected_before_any_call(self):
        kernels = native.library()
        q = np.array([Q50], dtype=np.uint64)
        x = np.zeros((2, N), dtype=np.uint64)
        table = kernels.ntt_table(N, q, [FastNtt(N, Q50).table.root])
        short = tuple(part[:, : N // 2].copy() for part in table)
        with pytest.raises(ValueError, match="twiddle table"):
            kernels.ntt_forward(x, q, short)
        with pytest.raises(ValueError, match="power of two"):
            kernels.ntt_forward(np.zeros((2, 3), dtype=np.uint64), q, table)
        with pytest.raises(ValueError, match="power of two"):
            kernels.ntt_table(6, q, [1])
        with pytest.raises(ValueError, match="1/n"):
            kernels.ntt_inverse(x, q, table, np.ones(2, dtype=np.uint64))
        with pytest.raises(ValueError, match="twist table"):
            kernels.mul_table(x, q, short)
        with pytest.raises(ValueError, match="axpy scalars"):
            kernels.axpy(np.ones(2, dtype=np.uint64), x, x, q)
        with pytest.raises(ValueError, match="cycle through"):
            kernels.binary("addmod", x[:1], x[:1],
                           np.array([Q50, Q50], dtype=np.uint64))


class TestPinnedModesNeverLoad:
    def test_explicit_r52_and_dw_never_call_the_library(self, monkeypatch):
        def forbidden():
            raise AssertionError("a pinned plan called into the native library")

        monkeypatch.setattr(native, "library", forbidden)
        f, g = _operands(Q50)
        for mode in ("r52", "dw"):
            neg = FastNegacyclic(N, Q50, mode=mode)
            blas = FastBlasPlan(Q50, mode=mode)
            assert neg.mode == blas.mode == mode
            neg.multiply(f, g)
            neg.plan.cyclic_multiply(f, g)
            for op in ("vector_add", "vector_sub", "vector_mul"):
                getattr(blas, op)(f, g)
            blas.axpy(3, f, g)
            run_chain(
                NEGACYCLIC_MUL_ADD_STEPS,
                {name: limbs_from_ints(v) for name, v in
                 (("x", f), ("y", g), ("z", f))},
                neg.plan, neg=neg,
            )

    def test_wide_moduli_and_import_never_load(self):
        code = (
            "import repro.fast\n"
            "from repro.fast import native, FastNegacyclic, FastBlasPlan\n"
            "from repro.arith.primes import find_ntt_prime\n"
            "q = find_ntt_prime(100, 128)\n"
            "FastNegacyclic(64, q).multiply([1] * 64, [2] * 64)\n"
            "FastBlasPlan(find_ntt_prime(63, 128)).vector_mul([1], [2])\n"
            "assert native._STATE is None, native._STATE\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


@needs_compiler
class TestCache:
    def test_entry_keyed_by_source_version_and_flags(self, tmp_path, monkeypatch):
        base = native.entry_path(tmp_path, b"src", "cc 1")
        assert native.entry_path(tmp_path, b"src", "cc 1") == base
        assert native.entry_path(tmp_path, b"src2", "cc 1") != base
        assert native.entry_path(tmp_path, b"src", "cc 2") != base
        monkeypatch.setattr(native, "FLAGS", native.FLAGS + ("-g",))
        assert native.entry_path(tmp_path, b"src", "cc 1") != base

    def test_cache_dir_follows_xdg_then_home(self, tmp_path, monkeypatch):
        monkeypatch.undo()  # the real lookup, not the module's test cache
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert native.cache_dir() == tmp_path / "repro-native"
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert native.cache_dir() == tmp_path / "home" / ".cache" / "repro-native"

    def test_compiles_once_then_reuses_verified_entry(self, tmp_path):
        entry = native.build(tmp_path)
        digest = entry.with_name(entry.name + ".sha256").read_text()
        assert hashlib.sha256(entry.read_bytes()).hexdigest() == digest
        stamp = entry.stat().st_mtime_ns
        assert native.build(tmp_path) == entry
        assert native.load(tmp_path).path == entry
        assert entry.stat().st_mtime_ns == stamp
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.startswith((".tmp-", ".build-"))]
        assert leftovers == []

    def test_racing_builders_leave_one_valid_entry(self, tmp_path):
        code = (
            "from pathlib import Path\n"
            "from repro.fast import native\n"
            f"print(native.build(Path({str(tmp_path)!r})))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        procs = [
            subprocess.Popen([sys.executable, "-c", code], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        assert all(p.returncode == 0 for p in procs), outs
        assert len({out.strip() for out, _ in outs}) == 1
        assert native.build(tmp_path) == Path(outs[0][0].strip())

    def test_reader_between_the_two_replaces_sees_a_whole_entry(
        self, tmp_path, monkeypatch
    ):
        # Another process calling build() while a builder is between
        # writing the sidecar and the entry must never find an entry
        # without its digest (it would delete it and degrade).
        replace = native._replace_atomically
        seen = []

        def replace_then_read(target, data):
            replace(target, data)
            if not seen:
                entry = target.with_name(target.name[: -len(".sha256")])
                seen.append(not entry.exists())
                seen.append(native.build(tmp_path))

        monkeypatch.setattr(native, "_replace_atomically", replace_then_read)
        entry = native.build(tmp_path)
        monkeypatch.undo()
        assert seen == [True, entry]
        assert native.load(tmp_path).path == entry


class TestPrivateCacheDir:
    def test_created_private(self, tmp_path):
        native.build(tmp_path / "fresh")
        assert (tmp_path / "fresh").stat().st_mode & 0o777 == 0o700

    def test_temp_fallback_is_per_user(self, monkeypatch):
        monkeypatch.undo()  # the real lookup, not the module's test cache
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)

        def no_home():
            raise RuntimeError("no home directory")

        monkeypatch.setattr(Path, "home", staticmethod(no_home))
        assert native.cache_dir().name == f"repro-native-{os.getuid()}"

    @needs_compiler
    @pytest.mark.parametrize("plant", ["world-writable", "group-writable",
                                       "symlink", "foreign-owned"])
    def test_planted_directory_degrades(self, plant, monkeypatch, tmp_path):
        real = tmp_path / "real"
        real.mkdir(mode=0o700)
        directory = tmp_path / "repro-native"
        if plant == "symlink":
            directory.symlink_to(real)
        else:
            directory.mkdir()
            directory.chmod({"world-writable": 0o777,
                             "group-writable": 0o770}.get(plant, 0o700))
        if plant == "foreign-owned":
            uid = os.getuid()
            monkeypatch.setattr(native.os, "getuid", lambda: uid + 1)
        monkeypatch.setattr(native, "cache_dir", lambda: directory)
        reason = _assert_degrades_once()
        assert "cache directory" in reason
        assert list(real.iterdir()) == []


# ---------------------------------------------------------------------------
# Fault paths: degrade, never fail
# ---------------------------------------------------------------------------


def _assert_degrades_once(q: int = Q50) -> str:
    """Build plans twice; NumPy results, one warning, one metric."""
    f, g = _operands(q)
    with observing() as session:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mode, first = _auto_results(q, f, g)
            FastModulus.clear_cache()
            _, second = _auto_results(q, f, g)
        counter = session.metrics.get("resil.degraded.native_unavailable")
        assert counter is not None and counter.value == 1
        assert session.metrics.get("resil.degraded").value == 1
    degraded = [w for w in caught if issubclass(w.category, EngineDegradedWarning)]
    assert len(degraded) == 1, [str(w.message) for w in caught]
    assert mode == "r52"
    assert first == second == _r52_reference(q, f, g)
    assert native.status()["loaded"] is False
    return native.status()["reason"]


def _fake_compiler(tmp_path: Path, body: str) -> str:
    script = tmp_path / "fakecc"
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(0o755)
    return str(script)


class TestFaultPaths:
    def test_missing_compiler(self, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
        assert "no C compiler" in _assert_degrades_once()

    def test_compile_error(self, monkeypatch, tmp_path):
        cc = _fake_compiler(
            tmp_path,
            'if [ "$1" = "--version" ]; then echo "fakecc 1.0"; exit 0; fi\n'
            'echo "error: refusing to compile" >&2\nexit 1\n',
        )
        monkeypatch.setattr(native, "find_compiler", lambda: cc)
        monkeypatch.setattr(native, "cache_dir", lambda: tmp_path / "cache")
        assert "compile failed" in _assert_degrades_once()
        assert list((tmp_path / "cache").iterdir()) == []

    @needs_compiler
    def test_unwritable_cache_dir(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a file where the cache directory should be")
        monkeypatch.setattr(native, "cache_dir", lambda: blocker / "repro-native")
        assert "cache directory" in _assert_degrades_once()

    @needs_compiler
    def test_truncated_entry_is_removed(self, monkeypatch, tmp_path):
        # Corrupt entries are written as new files: rewriting one this
        # process has mapped would corrupt the live mapping instead.
        entry = native.build(tmp_path)
        data = entry.read_bytes()
        entry.unlink()
        entry.write_bytes(data[:1000])
        monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
        assert "corrupt cache entry" in _assert_degrades_once()
        assert not entry.exists()
        # The next process rebuilds it.
        assert native.build(tmp_path) == entry

    @needs_compiler
    def test_unloadable_entry_with_matching_digest(self, monkeypatch, tmp_path):
        entry = native.build(tmp_path)
        junk = b"\x7fELF" + b"\0" * 60
        entry.unlink()
        entry.write_bytes(junk)
        entry.with_name(entry.name + ".sha256").write_text(
            hashlib.sha256(junk).hexdigest()
        )
        monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
        assert "cannot load" in _assert_degrades_once()

    @needs_compiler
    def test_failed_self_test(self, monkeypatch, tmp_path):
        good = native.source_bytes()
        broken = good.replace(
            b"o[i] = reduce_once(x[i] + y[i], qc);", b"o[i] = x[i] + y[i];"
        )
        assert broken != good
        monkeypatch.setattr(native, "source_bytes", lambda: broken)
        monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
        assert "self-test failed: addmod" in _assert_degrades_once()

    def test_wide_moduli_unaffected_by_a_failed_load(self, monkeypatch, tmp_path):
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        monkeypatch.setattr(native, "cache_dir", lambda: tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert FastNegacyclic(N, Q63).mode == "r52"
        assert native._STATE is None


# ---------------------------------------------------------------------------
# Packaging
# ---------------------------------------------------------------------------


def test_source_ships_as_package_data():
    resource = importlib.resources.files("repro.fast").joinpath(native.SOURCE_NAME)
    assert resource.is_file()
    text = resource.read_text()
    for name in native._SIGNATURES:
        assert f"repro_{name}(" in text
    assert native.source_bytes() == text.encode()
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert '"repro.fast" = ["_native.c"]' in pyproject


def test_fits_boundary():
    assert native.fits((1 << 62) - 1) and not native.fits(1 << 62)
    assert native.fits(Q62) and not native.fits(Q63)
