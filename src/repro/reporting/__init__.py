"""Harnesses that regenerate the paper's tables and figures.

Each harness loads on first use (:mod:`repro._lazy`): the benchmark
corpus imports :mod:`.throughput` alone and runs none of them.
"""

from .. import _lazy

__all__ = ["experiments", "fig4", "table1", "PAPER_TABLE1", "measure", "render"]

__getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "experiments": ("experiments",),
        "fig4": ("fig4",),
        "table1": ("table1", "PAPER_TABLE1", "measure", "render"),
    },
)
