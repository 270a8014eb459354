"""Build-once loader for the compiled kernels in ``kernels.c``: the order-0
and order-1 rANS coders, the byte and bigram histogram (``byte_hist``), the
bit packer, the LZ match finder (``lz_candidates``), parse and expand
loops, and the FSST greedy longest-match encode and decode.

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

SOURCE = Path(__file__).with_name("kernels.c")
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
    int64_t rans1_encode(const uint8_t *sym, int64_t n, int64_t N,
                         const uint8_t *cls, const uint32_t *freq, int64_t A,
                         uint32_t *states, uint8_t *out);
    int rans1_decode(const uint8_t *stream, int64_t nbytes, uint32_t *states,
                     int64_t N, int64_t n, const uint8_t *cls,
                     const uint32_t *freq, int64_t A, uint8_t *out);
    void byte_hist(const uint8_t *d, int64_t n, int64_t *c1, int64_t *c2);
    int pack_bits(const uint64_t *v, int64_t n, const int64_t *widths, int width,
                  uint8_t *out);
    int unpack_bits(const uint8_t *buf, int64_t nbytes, int64_t n,
                    const int64_t *widths, int width, uint64_t *out);
    int lz_candidates(const uint8_t *d, int64_t n, int64_t stride, uint64_t *g8,
                      int32_t *c6, int32_t *c16);
    int64_t lz_parse(const uint8_t *d, int64_t n, const uint64_t *g8,
                     const int32_t *c6, int64_t n6, const int32_t *c16, int64_t n16,
                     int32_t *ll, int32_t *ml, int32_t *of, uint8_t *lits,
                     int64_t *nlit);
    int lz_expand(const int64_t *ll, const int64_t *ml, const int64_t *of,
                  int64_t S, const uint8_t *lits, int64_t nlit, uint8_t *out,
                  int64_t n);
    int64_t fsst_encode(const uint8_t *d, int64_t n, const uint8_t *syms,
                        const uint8_t *lens, int64_t nsym, uint8_t *codes,
                        uint8_t *lits, int64_t *nlit);
    int64_t fsst_decode(const uint8_t *codes, int64_t ncodes, const uint8_t *lits,
                        int64_t nlit, const uint8_t *syms, const uint8_t *lens,
                        int64_t nsym, uint8_t *out);
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
            f"pyppmd_ray needs a C compiler to build its codec kernels ({SOURCE.name}): "
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
    name = f"kernels-{key}.so"
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
