"""glibc's heap policy for gclab's numpy temporaries, set once at import.

glibc serves a request of 128 KiB or more with a fresh mmap and unmaps it on
free, raising that threshold only to the largest block freed so far, and it
gives the heap top back to the kernel once more than twice the threshold is
free there. A verify trial or a wide training step frees arrays of that size
on every call, so their pages came back from the kernel, faulted in page by
page, on every call. Fixed thresholds keep freed blocks in the heap,
where the next call's arrays reuse them. The arithmetic does not change.
"""

from __future__ import annotations

import ctypes
import sys

M_TRIM_THRESHOLD = -1  # mallopt parameters, as in glibc's <malloc.h>
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # glibc's largest on 64-bit; bigger blocks are still mmapped
TRIM_THRESHOLD = 256 << 20  # free heap top kept before it is given back


def keep_freed_pages() -> bool:
    """Fix glibc's mmap and trim thresholds; True when both were set.

    Setting either one turns glibc's dynamic thresholds off, and a trim
    threshold alone would mmap every block of 128 KiB or more anew, so both
    are set. The mmap threshold goes first: where mallopt refuses it (a C
    library other than glibc, or a 32-bit glibc, whose largest is 16 MiB),
    nothing has been changed. Off Linux, or without mallopt, nothing is
    changed either. Calling it again sets the same values.
    """
    if not sys.platform.startswith("linux"):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        return False
    return mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
