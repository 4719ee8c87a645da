"""The Monte Carlo runs' heap policy: freed memory stays for the next block."""

import os

# glibc raises its mmap and trim thresholds as large chunks are freed, up to these
# 64-bit ceilings; until then each block's freed top is trimmed and faulted in again
# (60-85k minor faults per design1+design3 call at 50 reps).  Setting one freezes the
# others: a 16 MiB M_TOP_PAD alone faulted 2-20 MiB arrays in again each time.
MMAP_THRESHOLD, TRIM_THRESHOLD = 32 << 20, 64 << 20
USER_SET = ("top_pad", "trim_threshold", "mmap_threshold")  # MALLOC_*_, GLIBC_TUNABLES


def keep_freed_heap() -> None:
    """Fix glibc's thresholds at those ceilings; a no-op off glibc or over ``USER_SET``."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if glibc is None or any(
        f"MALLOC_{n.upper()}_" in os.environ or f"glibc.malloc.{n}" in tunables for n in USER_SET
    ):
        return
    import ctypes  # here, so that importing the package does not load it
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD in glibc's <malloc.h>
    mallopt(-1, TRIM_THRESHOLD)  # M_TRIM_THRESHOLD
