"""Build-once loader for the compiled kernels in ``rans_core.c``.

On first import the C source is compiled with the system C compiler
(``$CC``, default ``cc``) into a shared library cached under
``$XDG_CACHE_HOME/pyppmd_ray/`` (default ``~/.cache/pyppmd_ray/``), or under
``<tempdir>/pyppmd_ray-<uid>/`` when that is not writable. The file name
carries the sha256 of the source, the flags and the machine type, so an
edited source builds anew and every process on a node loads the same file.
The build runs under an ``fcntl.flock`` on a lock file next to it and the
finished library is ``os.replace``d into place, so concurrent importers
(e.g. the Ray workers of one node) compile it once and never see a partial
file. The library is loaded with cffi in ABI mode (``ffi.dlopen``), which
needs no Python headers and no build of a CPython extension.

There is no pure-Python fallback: without a compiler and a cold cache the
import fails with an ``ImportError`` that names the missing compiler.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import tempfile
from pathlib import Path

from cffi import FFI

SOURCE = Path(__file__).with_name("rans_core.c")
FLAGS = ("-O2", "-shared", "-fPIC")

ffi = FFI()
ffi.cdef(
    """
    int64_t rans_encode(const void *sym, int sym_bytes, int64_t n, int64_t N,
                        const uint32_t *freq, int64_t A, int prob_bits,
                        uint32_t *states, uint8_t *out);
    int rans_decode(const uint8_t *stream, int64_t nbytes, uint32_t *states,
                    int64_t N, int64_t n, const uint32_t *freq, int64_t A,
                    int prob_bits, uint16_t *out);
    void pack_uints(const uint64_t *v, int64_t n, int width, uint8_t *out);
    int unpack_uints(const uint8_t *buf, int64_t nbytes, int64_t n, int width,
                     uint64_t *out);
    """
)


def _cache_dirs() -> list[Path]:
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return [
        Path(xdg) / "pyppmd_ray",
        Path(tempfile.gettempdir()) / f"pyppmd_ray-{os.getuid()}",
    ]


def _writable(d: Path) -> bool:
    try:
        d.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return False
    # a shared temp dir may hold a same-named directory of another user:
    # never load a library from a directory someone else controls
    return d.stat().st_uid == os.getuid() and os.access(d, os.W_OK | os.X_OK)


def _compiler() -> list[str]:
    argv = shlex.split(os.environ.get("CC") or "cc")
    exe = shutil.which(argv[0]) if argv else None
    if exe is None:
        name = argv[0] if argv else "$CC"
        raise ImportError(
            f"pyppmd_ray needs a C compiler to build its rANS core ({SOURCE.name}): "
            f"{name!r} was not found on PATH. Install a C compiler (e.g. gcc) "
            "or point $CC at one."
        )
    return [exe, *argv[1:]]


def _build(so: Path) -> None:
    cc = _compiler()
    with open(so.with_suffix(".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if so.exists():  # built by another process while we waited
            return
        tmp = so.with_name(f".{so.name}.{os.getpid()}.tmp")
        proc = subprocess.run(
            [*cc, *FLAGS, "-o", str(tmp), str(SOURCE)], capture_output=True, text=True
        )
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            raise ImportError(
                f"building {SOURCE.name} with {cc[0]} failed:\n{proc.stderr.strip()}"
            )
        os.replace(tmp, so)


def library_path() -> Path:
    """Path of the compiled library, building it first if no cache has it."""
    key = hashlib.sha256(
        SOURCE.read_bytes() + " ".join(FLAGS).encode() + platform.machine().encode()
    ).hexdigest()[:16]
    name = f"rans_core-{key}.so"
    dirs = _cache_dirs()
    for d in dirs:
        if _writable(d):
            so = d / name
            if not so.exists():
                _build(so)
            return so
    raise ImportError(f"no writable cache directory for {name} among {[str(d) for d in dirs]}")


LIBRARY = library_path()
lib = ffi.dlopen(str(LIBRARY))
