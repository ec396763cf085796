"""The malloc policy that ``import labelfuse`` sets on glibc: memory a
training step frees stays in the process for the next step, and an array
over 32 MiB is mapped, and so given back to the OS when freed, as long as
the heap has no free chunk that can hold it."""

import os
import platform
import resource
import subprocess
import sys

import numpy as np
import pytest

import labelfuse  # noqa: F401  (the import sets the policy)

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is set on glibc only")


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def test_freed_heap_is_not_faulted_back_in():
    # eight 512 KiB arrays (4 MiB, about a toy training step) allocated and
    # freed per round; glibc's default dynamic trim threshold (2x the largest
    # freed mmapped chunk, ~1 MiB here) gave them back to the OS every round,
    # and the next round faulted ~1,000 pages in again
    def round_():
        arrays = [np.ones(65536) for _ in range(8)]
        del arrays

    round_()
    per_round = []
    for _ in range(20):
        f0 = minor_faults()
        round_()
        per_round.append(minor_faults() - f0)
    assert sum(per_round) / len(per_round) <= 8, per_round


# Prints the resident size with a 40 MiB array alive and after it is freed.
_BIG_ARRAY = """
import os
import numpy as np
import labelfuse

def rss_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

big = np.ones((40 << 20) // 8)
held = rss_bytes()
del big
print(held, rss_bytes())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm for the resident size")
def test_arrays_over_the_mmap_threshold_are_returned():
    # in a fresh interpreter: glibc serves the array from free heap, and
    # unmaps nothing, when earlier work left that much free (up to the 64 MiB
    # trim threshold), as a test run in the same process may
    out = subprocess.run([sys.executable, "-c", _BIG_ARRAY], capture_output=True, text=True, check=True).stdout
    held, after = map(int, out.split())
    assert after <= held - (30 << 20)
