"""Baseline aligners the paper compares against (or builds on).

* :mod:`repro.align.dp_linear` — dynamic-programming sequence-to-
  sequence alignment (Needleman–Wunsch global and fitting/semi-global),
  the classical O(mn) comparator of paper Section 2.1.
* :mod:`repro.align.dp_graph` — PaSGAL-style DP sequence-to-graph
  alignment over a linearized DAG; exact ground truth for BitAlign.
* :mod:`repro.align.bitap` — the classic Wu–Manber Bitap algorithm
  (left-to-right, 1-active), an independent bitvector implementation
  used to cross-validate the GenASM-style machinery.
* :mod:`repro.align.genasm` — linear GenASM (right-to-left, 0-active
  Bitap with traceback), the MICRO'20 predecessor BitAlign extends.
* :mod:`repro.align.bitalign_packed` — the GenASM recurrence over
  word-packed uint64 arrays (numpy), swept in the systolic-array
  wavefront order of the hardware.
* :mod:`repro.align.backends` — the pluggable backend registry tying
  the implementations together behind one ``align(text, pattern, k)``
  contract.
"""

from repro.align.dp_linear import (
    edit_distance,
    global_align,
    semiglobal_align,
    semiglobal_distance,
)
from repro.align.dp_graph import (
    graph_align,
    graph_distance,
)
from repro.align.backends import (
    AlignmentBackend,
    BackendAlignment,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
)
from repro.align.bitalign_packed import (
    PackedLayout,
    packed_distance,
    packed_generate,
)
from repro.align.bitap import bitap_search
from repro.align.genasm import genasm_align, genasm_distance

__all__ = [
    "AlignmentBackend",
    "BackendAlignment",
    "PackedLayout",
    "get_backend",
    "list_backends",
    "packed_distance",
    "packed_generate",
    "register_backend",
    "resolve_backend",
    "edit_distance",
    "global_align",
    "semiglobal_align",
    "semiglobal_distance",
    "graph_align",
    "graph_distance",
    "bitap_search",
    "genasm_align",
    "genasm_distance",
]
