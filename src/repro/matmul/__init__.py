"""Matrix multiplication and triangle detection (Section 2.1 + the [8]
baseline)."""

from repro.matmul.boolean import (
    adjacency,
    f2_matmul,
    find_triangle,
    has_triangle,
    triangle_count,
)
from repro.matmul.distributed import (
    TriangleMMOutcome,
    detect_triangle_mm,
    detect_triangle_mm_many,
    matmul_input_partition,
    triangle_mm_kernel_program,
    triangle_mm_program,
)
from repro.matmul.triangles_dlp import DLPOutcome, detect_triangle_dlp, dlp_plan

__all__ = [
    "adjacency",
    "f2_matmul",
    "triangle_count",
    "has_triangle",
    "find_triangle",
    "TriangleMMOutcome",
    "triangle_mm_program",
    "triangle_mm_kernel_program",
    "detect_triangle_mm",
    "detect_triangle_mm_many",
    "matmul_input_partition",
    "DLPOutcome",
    "dlp_plan",
    "detect_triangle_dlp",
]
