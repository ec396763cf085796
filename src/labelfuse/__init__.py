"""labelfuse: merge heterogeneous, possibly sparse spatial label maps into a
homogeneous per-pixel concept tensor, with a pixel-wise label transformer,
baseline mergers, a toy differentiable training harness, and metrics."""

__version__ = "0.1.0"

import ctypes
import platform

# glibc's malloc returns the top of the heap to the OS once more than its
# trim threshold is free, and sets that threshold to twice the largest freed
# mmapped chunk: about 1.3 MB after a toy training step's 655 KB MLP hidden
# layer.  A step frees about 5 MB, so every backward gave pages back and the
# next step faulted them in again (~60k minor faults per 50-iteration
# train-toy call).  Fixed thresholds keep freed memory for the next step:
# chunks up to 32 MiB (glibc's ceiling for its dynamic mmap threshold on
# 64-bit) come from the heap, and up to 64 MiB of free heap top is kept.
# A larger array is mmapped, and unmapped when freed, unless the heap has a
# free chunk that holds it.
if platform.libc_ver()[0] == "glibc":
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    _mallopt.restype = ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    del _mallopt

from .tensor_core import Rng, read_tensor, write_tensor, load_tensor, save_tensor
from .label_model import (
    InstanceMap,
    LabelMap,
    LabelSet,
    SparsityMaskSet,
    apply_masks,
    generate_sparse_masks,
    synth_scene,
    validate_label_set,
)
from .fusion import (
    MergerParams,
    clam_merge,
    count_attention_macs,
    init_merger_params,
    naive_concat,
    tlam_merge,
)

__all__ = [
    "Rng",
    "read_tensor",
    "write_tensor",
    "load_tensor",
    "save_tensor",
    "LabelMap",
    "LabelSet",
    "InstanceMap",
    "SparsityMaskSet",
    "validate_label_set",
    "generate_sparse_masks",
    "apply_masks",
    "synth_scene",
    "MergerParams",
    "init_merger_params",
    "tlam_merge",
    "clam_merge",
    "naive_concat",
    "count_attention_macs",
]
