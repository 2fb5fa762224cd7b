"""Compiled word-size kernels: the fast engine's native substrate (q < 2^62).

Below ``2^62`` a residue fits one 64-bit word with room for Harvey's lazy
``[0, 4q)`` range, so the chain steps (NTT stages with Shoup twiddles,
psi twists, pointwise products and the four BLAS ops) can run as tight
scalar loops, the way Intel HEXL runs them, instead of as a dozen
whole-array NumPy passes per stage. ``_native.c`` (next to this module)
holds those loops; this module compiles it with the system C compiler,
caches the shared object on disk and calls it through :mod:`ctypes`.

Selection is observed, never configured: ``mode="auto"`` resolves to
``"native"`` exactly when the modulus (every channel prime, for a
stacked plan) is below ``2^62`` and :func:`library` returned kernels
(see :func:`repro.fast.r52.resolve_fast_mode`). Nothing is compiled or
loaded until the first such plan is built; a plan over a wider modulus,
or one pinned to ``mode="r52"``/``"dw"``, never touches the library.

Cache: ``$XDG_CACHE_HOME/repro-native``, else ``~/.cache/repro-native``,
else ``repro-native-<uid>`` under the temp dir. The directory is created
mode 0700 and refused (the process degrades) unless this user owns it
and nobody else can write to it. An entry is named by a hash of the
source, the compiler's version line and the flags, and carries a
SHA-256 sidecar checked before every load. Both are written under a
temporary name and moved into place with :func:`os.replace`, sidecar
first, so pool workers compiling at once never see a partial file or an
entry without its digest.

Faults degrade and never fail: no compiler, a compile error, an
unwritable cache, a corrupt cache entry, a library that will not load
or a failed known-answer self-test (run on every load) each leave the
process on the NumPy substrates, bit-identical, with one
:class:`~repro.resil.degrade.EngineDegradedWarning` and one
``resil.degraded.native_unavailable`` count per process. A corrupt
entry is deleted so the next process rebuilds it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
import warnings
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

#: Widest modulus (in bits) the native substrate serves: ``q < 2^62``
#: keeps the lazy butterflies' ``[0, 4q)`` inside one word.
NATIVE_MAX_BITS = 62

#: Compiler flags: portable code, no ``-march=native``.
FLAGS = ("-O2", "-fPIC", "-shared")

#: The C source, shipped as package data of :mod:`repro.fast`.
SOURCE_NAME = "_native.c"

#: ``resil.degraded.<reason>`` when the library is unavailable.
DEGRADE_REASON = "native_unavailable"

#: ABI version the C file reports (``repro_native_abi``).
ABI_VERSION = 1

#: Seconds allowed for one compile.
COMPILE_TIMEOUT_S = 120.0

_U64 = np.uint64
_P = ctypes.c_void_p
_N = ctypes.c_size_t

#: argtypes of every exported kernel (all return void).
_SIGNATURES = {
    "power_table": (_N, _N, _P, _P, _P, _P),
    "ntt_table": (_N, _N, _P, _P, _P, _P),
    "ntt_forward": (_P, _P, _N, _N, _N, _P, _P, _P),
    "ntt_inverse": (_P, _P, _N, _N, _N, _P, _P, _P, _P),
    "mul_table": (_P, _P, _N, _N, _N, _P, _P, _P),
    "mulmod": (_P, _P, _P, _N, _N, _N, _P),
    "addmod": (_P, _P, _P, _N, _N, _N, _P),
    "submod": (_P, _P, _P, _N, _N, _N, _P),
    "axpy": (_P, _P, _P, _P, _N, _N, _N, _P),
}


class NativeUnavailable(Exception):
    """The native library could not be built, loaded or trusted."""


def fits(q: int) -> bool:
    """Whether modulus ``q`` is below ``2^62`` (a stacked plan asks per prime)."""
    return q.bit_length() <= NATIVE_MAX_BITS


def _in(arr: np.ndarray) -> int:
    """Address of a contiguous uint64 operand (read by the C side)."""
    if arr.dtype != _U64 or not arr.flags.c_contiguous:
        raise ValueError("native operands must be C-contiguous uint64 arrays")
    return arr.ctypes.data


def _new(x: np.ndarray) -> np.ndarray:
    """A fresh C-contiguous output buffer shaped like ``x``."""
    return np.empty(x.shape, dtype=_U64)


def _out(arr: np.ndarray) -> int:
    """Address of an output buffer (the only memory the C side writes)."""
    if not arr.flags.writeable:
        raise ValueError("native output buffers must be writeable")
    return _in(arr)


def _rows(x: np.ndarray, k: int) -> Tuple[int, int]:
    """``(rows, len)`` of an operand whose rows cycle through ``k`` channels."""
    length = x.shape[-1] if x.ndim else 1
    rows = x.size // length if length else 0
    if rows % k:
        raise ValueError(f"{rows} rows do not cycle through {k} channels")
    return rows, length


def _check_shape(arr: np.ndarray, shape: tuple, what: str) -> None:
    """The C side indexes per-channel tables blindly: sizes must match."""
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")


def _check_transform_length(n: int) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError(f"transform length {n} is not a power of two >= 2")


def _transform_rows(x: np.ndarray, q: np.ndarray, table: tuple) -> Tuple[int, int]:
    rows, n = _rows(x, len(q))
    _check_transform_length(n)
    for part in table:
        _check_shape(part, (len(q), n), "twiddle table")
    return rows, n


class NativeKernels:
    """The loaded library, called on ``(rows, len)`` uint64 word planes.

    Row ``r`` of an operand belongs to channel ``r % k`` of the
    per-channel modulus array ``q`` (``(k,)`` uint64); a single-modulus
    plan passes ``k = 1``. Operands must be C-contiguous uint64 arrays;
    every method allocates its output and returns it, and inputs are
    only read.
    """

    def __init__(self, lib: ctypes.CDLL, path: Path) -> None:
        self.path = path
        lib.repro_native_abi.restype = ctypes.c_int
        lib.repro_native_abi.argtypes = ()
        if lib.repro_native_abi() != ABI_VERSION:
            raise NativeUnavailable(f"{path} reports a different ABI version")
        for name, argtypes in _SIGNATURES.items():
            fn = getattr(lib, f"repro_{name}")
            fn.argtypes = argtypes
            fn.restype = None
            setattr(self, f"_{name}", fn)
        self._first_unreduced = lib.repro_first_unreduced
        self._first_unreduced.argtypes = (_P, _N, _N, _N, _P)
        self._first_unreduced.restype = ctypes.c_ssize_t

    def first_unreduced(self, limbs: np.ndarray, q: np.ndarray) -> int:
        """Flat index of the first element of ``(..., 2)`` limbs not below
        its channel's ``q`` (rows cycle through channels), or ``-1``."""
        limbs = np.ascontiguousarray(limbs)
        rows, length = _rows(limbs[..., 0], len(q))
        return self._first_unreduced(_in(limbs), rows, length, len(q), _in(q))

    # -- tables --------------------------------------------------------

    def ntt_table(self, n: int, q: np.ndarray, roots: Sequence[int]) -> tuple:
        """Per-channel butterfly twiddles and their Shoup companions."""
        _check_transform_length(n)
        return self._table(self._ntt_table, n, q, roots)

    def power_table(self, n: int, q: np.ndarray, bases: Sequence[int]) -> tuple:
        """Per-channel powers ``base^i`` (a twist) and their Shoup companions."""
        if n < 1:
            raise ValueError(f"a power table needs n >= 1, got {n}")
        return self._table(self._power_table, n, q, bases)

    def _table(self, fn, n: int, q: np.ndarray, values: Sequence[int]) -> tuple:
        k = len(q)
        base = np.array(values, dtype=_U64)
        _check_shape(base, (k,), "per-channel base")
        tw = np.empty((k, n), dtype=_U64)
        twp = np.empty((k, n), dtype=_U64)
        fn(n, k, _in(q), _in(base), _out(tw), _out(twp))
        return tw, twp

    # -- steps -----------------------------------------------------------

    def ntt_forward(self, x: np.ndarray, q: np.ndarray, table: tuple) -> np.ndarray:
        """Forward NTT per row: natural in, bit-reversed out."""
        rows, n = _transform_rows(x, q, table)
        out = _new(x)
        self._ntt_forward(_out(out), _in(x), rows, n, len(q), _in(q),
                          _in(table[0]), _in(table[1]))
        return out

    def ntt_inverse(
        self, x: np.ndarray, q: np.ndarray, table: tuple, n_inv: np.ndarray
    ) -> np.ndarray:
        """Inverse NTT per row, ``1/n`` included: bit-reversed in, natural out."""
        rows, n = _transform_rows(x, q, table)
        _check_shape(n_inv, (len(q),), "1/n per channel")
        out = _new(x)
        self._ntt_inverse(_out(out), _in(x), rows, n, len(q), _in(q),
                          _in(table[0]), _in(table[1]), _in(n_inv))
        return out

    def mul_table(self, x: np.ndarray, q: np.ndarray, table: tuple) -> np.ndarray:
        """``x * w mod q`` against a per-channel Shoup table (a twist)."""
        rows, length = _rows(x, len(q))
        for part in table:
            _check_shape(part, (len(q), length), "twist table")
        out = _new(x)
        self._mul_table(_out(out), _in(x), rows, length, len(q), _in(q),
                        _in(table[0]), _in(table[1]))
        return out

    def binary(
        self, op: str, a: np.ndarray, b: np.ndarray, q: np.ndarray
    ) -> np.ndarray:
        """``op`` in ``addmod``/``submod``/``mulmod``, element-wise."""
        if a.shape != b.shape:
            raise ValueError(f"operand shapes differ: {a.shape} vs {b.shape}")
        rows, length = _rows(a, len(q))
        out = _new(a)
        getattr(self, f"_{op}")(_out(out), _in(a), _in(b), rows, length,
                                len(q), _in(q))
        return out

    def axpy(
        self, s: np.ndarray, x: np.ndarray, y: np.ndarray, q: np.ndarray
    ) -> np.ndarray:
        """``s * x + y mod q`` with one scalar per channel in ``s``."""
        if x.shape != y.shape:
            raise ValueError(f"operand shapes differ: {x.shape} vs {y.shape}")
        rows, length = _rows(x, len(q))
        _check_shape(s, (len(q),), "axpy scalars")
        out = _new(x)
        self._axpy(_out(out), _in(s), _in(x), _in(y), rows, length, len(q),
                   _in(q))
        return out


# ---------------------------------------------------------------------------
# Known-answer self-test (run on every load)
# ---------------------------------------------------------------------------

#: Two NTT primes with ``512 | q - 1`` (61 and 40 bits) and a primitive
#: 256th root of unity of each.
_TEST_PRIMES = (0x1FFFFFFFFFFFE601, 0xFFFFFFA201)
_TEST_ROOTS = (1191820215366618393, 1042941327864)
#: Row length of the self-test; the direct-evaluation NTT check uses
#: the first ``_TEST_DIRECT_N`` entries of each row.
_TEST_N = 256
_TEST_DIRECT_N = 16


def _bitrev(i: int, bits: int) -> int:
    return int(format(i, f"0{bits}b")[::-1], 2) if bits else 0


def _test_rows(seed: int) -> list:
    """Two rows per channel: edge values, then a 64-bit LCG stream."""
    state = seed
    rows = []
    for _ in range(2):
        for p in _TEST_PRIMES:
            row = [0, 1, p - 1, p - 2, p // 2, p // 2 + 1]
            while len(row) < _TEST_N:
                state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
                row.append(state % p)
            rows.append(row)
    return rows


def _self_test(kernels: NativeKernels) -> None:
    """Check every kernel against Python integers on two channels.

    Four rows cycle through the two channels. Element-wise ops, the
    twist and the Shoup companions are compared value by value; the
    forward NTT against direct evaluation at ``n = 16`` and the inverse
    by round trips at ``n = 16`` and ``n = 256``.
    """
    primes, roots = _TEST_PRIMES, _TEST_ROOTS
    q = np.array(primes, dtype=_U64)
    x_rows, y_rows = _test_rows(1), _test_rows(2)
    x = np.array(x_rows, dtype=_U64)
    y = np.array(y_rows, dtype=_U64)

    def expect(got: np.ndarray, want, what: str) -> None:
        if got.tolist() != want:
            raise NativeUnavailable(f"self-test failed: {what}")

    def per_element(fn) -> list:
        return [[fn(u, v, primes[r % 2]) for u, v in zip(xr, yr)]
                for r, (xr, yr) in enumerate(zip(x_rows, y_rows))]

    expect(kernels.binary("addmod", x, y, q),
           per_element(lambda u, v, p: (u + v) % p), "addmod")
    expect(kernels.binary("submod", x, y, q),
           per_element(lambda u, v, p: (u - v) % p), "submod")
    expect(kernels.binary("mulmod", x, y, q),
           per_element(lambda u, v, p: u * v % p), "mulmod")
    scalars = [p - 2 for p in primes]
    expect(kernels.axpy(np.array(scalars, dtype=_U64), x, y, q),
           per_element(lambda u, v, p: ((p - 2) * u + v) % p), "axpy")

    n = _TEST_N
    twist = kernels.power_table(n, q, roots)
    powers = [[pow(w, i, p) for i in range(n)] for w, p in zip(roots, primes)]
    expect(twist[0], powers, "power table")
    expect(twist[1], [[(v << 64) // p for v in row]
                      for row, p in zip(powers, primes)], "shoup")
    expect(kernels.mul_table(x, q, twist),
           [[v * w % primes[r % 2] for v, w in zip(row, powers[r % 2])]
            for r, row in enumerate(x_rows)], "twist")

    inverse_roots = [pow(w, -1, p) for w, p in zip(roots, primes)]
    for size in (_TEST_DIRECT_N, n):
        step = n // size  # root^step has order `size`
        sub_roots = [pow(w, step, p) for w, p in zip(roots, primes)]
        table = kernels.ntt_table(size, q, sub_roots)
        inv_table = kernels.ntt_table(
            size, q, [pow(w, step, p) for w, p in zip(inverse_roots, primes)]
        )
        n_inv = np.array([pow(size, -1, p) for p in primes], dtype=_U64)
        head = np.ascontiguousarray(x[:, :size])
        spectrum = kernels.ntt_forward(head, q, table)
        if size == _TEST_DIRECT_N:
            bits = size.bit_length() - 1
            # sub_root^e = root^(step * e) = powers[(step * e) % n]
            expect(spectrum, [
                [sum(v * powers[r % 2][step * i * _bitrev(j, bits) % n]
                     for i, v in enumerate(row[:size])) % primes[r % 2]
                 for j in range(size)]
                for r, row in enumerate(x_rows)
            ], "forward NTT")
        expect(kernels.ntt_inverse(spectrum, q, inv_table, n_inv),
               head.tolist(), "inverse NTT")


# ---------------------------------------------------------------------------
# Build, cache and load
# ---------------------------------------------------------------------------


def find_compiler() -> Optional[str]:
    """Path of the system C compiler (``cc``, then ``gcc``), or ``None``."""
    for name in ("cc", "gcc"):
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> Path:
    """Where compiled entries live (``$XDG_CACHE_HOME``, ``~/.cache``, temp)."""
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        try:
            base = str(Path.home() / ".cache")
        except RuntimeError:  # no resolvable home directory
            # Shared by every user: keep entries apart per user.
            return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    return Path(base) / "repro-native"


def source_bytes() -> bytes:
    """The C source, read as package data."""
    return resources.files("repro.fast").joinpath(SOURCE_NAME).read_bytes()


def _compiler_version(cc: str) -> str:
    try:
        done = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeUnavailable(f"cannot run {cc}: {exc}") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise NativeUnavailable(f"{cc} --version failed")
    return lines[0]


def entry_path(directory: Path, source: bytes, version: str) -> Path:
    """Cache entry for one (source, compiler version, flags, arch)."""
    key = hashlib.sha256(
        b"\0".join([source, version.encode(), " ".join(FLAGS).encode(),
                    platform.machine().encode()])
    ).hexdigest()[:24]
    return directory / f"repro_native_{key}.so"


def _digest_path(entry: Path) -> Path:
    return entry.with_name(entry.name + ".sha256")


def _replace_atomically(target: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _private_dir(directory: Path) -> None:
    """Create ``directory`` (mode 0700) and check only this user can write it.

    A directory someone else owns or can write to (a planted temp dir,
    a symlink) could hold a library plus a matching digest, so it is
    refused rather than trusted.
    """
    try:
        directory.parent.mkdir(parents=True, exist_ok=True)
        try:
            directory.mkdir(mode=0o700)
        except FileExistsError:
            pass
        info = os.lstat(directory)
    except OSError as exc:
        raise NativeUnavailable(f"cache directory {directory}: {exc}") from exc
    if not stat.S_ISDIR(info.st_mode):
        raise NativeUnavailable(f"cache directory {directory} is not a directory")
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise NativeUnavailable(
            f"cache directory {directory} is writable by another user"
        )


def _compile(cc: str, source: bytes, entry: Path) -> None:
    """Compile ``source`` into ``entry`` (plus its digest sidecar)."""
    with tempfile.TemporaryDirectory(dir=entry.parent, prefix=".build-") as tmp:
        # A fixed file name keeps the object bytes independent of the
        # temp directory, so racing builders produce identical entries.
        (Path(tmp) / SOURCE_NAME).write_bytes(source)
        try:
            done = subprocess.run(
                [cc, *FLAGS, "-o", "out.so", SOURCE_NAME], cwd=tmp,
                capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise NativeUnavailable(f"cannot run {cc}: {exc}") from exc
        if done.returncode != 0:
            detail = (done.stderr.strip().splitlines() or ["no output"])[-1]
            raise NativeUnavailable(f"compile failed: {detail}")
        built = (Path(tmp) / "out.so").read_bytes()
    # Sidecar first: an entry that exists always has its digest beside it.
    _replace_atomically(
        _digest_path(entry), hashlib.sha256(built).hexdigest().encode()
    )
    _replace_atomically(entry, built)


def _verify(entry: Path) -> None:
    """Check ``entry`` against its digest sidecar.

    A mismatch deletes the entry (then its sidecar) so the next process
    rebuilds it, and raises :class:`NativeUnavailable`.
    """
    try:
        digest = _digest_path(entry).read_text().strip()
        ok = hashlib.sha256(entry.read_bytes()).hexdigest() == digest
    except OSError:
        ok = False
    if not ok:
        for path in (entry, _digest_path(entry)):
            path.unlink(missing_ok=True)
        raise NativeUnavailable(f"corrupt cache entry {entry} removed")


def build(directory: Optional[Path] = None) -> Path:
    """The verified cache entry for this host, compiled if missing.

    Raises :class:`NativeUnavailable` on any fault (a corrupt entry is
    deleted first). Does not load the library.
    """
    cc = find_compiler()
    if cc is None:
        raise NativeUnavailable("no C compiler (cc or gcc) on PATH")
    source = source_bytes()
    directory = cache_dir() if directory is None else directory
    _private_dir(directory)
    entry = entry_path(directory, source, _compiler_version(cc))
    try:
        if not entry.exists():
            _compile(cc, source, entry)
        _verify(entry)
    except OSError as exc:
        raise NativeUnavailable(f"cache directory {directory}: {exc}") from exc
    return entry


def load(directory: Optional[Path] = None) -> NativeKernels:
    """Build (or reuse) the cached library, load it and self-test it.

    Raises :class:`NativeUnavailable` on any fault. This does the work
    behind :func:`library`, which most callers want instead.
    """
    entry = build(directory)
    try:
        kernels = NativeKernels(ctypes.CDLL(str(entry)), entry)
    except (OSError, AttributeError) as exc:
        raise NativeUnavailable(f"cannot load {entry}: {exc}") from exc
    _self_test(kernels)
    return kernels


_LOCK = threading.Lock()
#: ``(kernels or None, reason)`` once this process has tried to load.
_STATE: Optional[Tuple[Optional[NativeKernels], str]] = None


def library() -> Optional[NativeKernels]:
    """The process's native kernels, or ``None`` when they are unavailable.

    Loads on first call (compiling into the cache if needed) and
    remembers the outcome for the life of the process. A failure warns
    once with :class:`~repro.resil.degrade.EngineDegradedWarning` and
    counts one ``resil.degraded.native_unavailable``.
    """
    global _STATE
    state = _STATE
    if state is None:
        with _LOCK:
            if _STATE is None:
                try:
                    _STATE = (load(), "")
                except Exception as exc:  # any fault degrades, none fails
                    reason = (str(exc) if isinstance(exc, NativeUnavailable)
                              else repr(exc))
                    _STATE = (None, reason)
                    _degrade(reason)
            state = _STATE
    return state[0]


def _degrade(reason: str) -> None:
    from repro.obs.hooks import record_resil_degraded
    from repro.resil.degrade import EngineDegradedWarning

    record_resil_degraded("native", "fast", DEGRADE_REASON)
    warnings.warn(
        f"native kernels unavailable ({reason}); word-size moduli run on "
        f"the NumPy substrates (results stay bit-identical)",
        EngineDegradedWarning,
        stacklevel=4,
    )


def status() -> dict:
    """``{"loaded", "path", "reason"}`` for this process (loads if needed)."""
    kernels = library()
    return {
        "loaded": kernels is not None,
        "path": str(kernels.path) if kernels is not None else None,
        "reason": _STATE[1] if _STATE is not None else "",
    }


def reset() -> None:
    """Forget this process's load outcome; the next use loads again.

    Plans already built keep the kernels they bound. Used by tests and
    the chaos harness to exercise the fault paths.
    """
    global _STATE
    with _LOCK:
        _STATE = None
