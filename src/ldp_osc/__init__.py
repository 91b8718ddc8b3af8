"""Long-horizon decay-rate analysis of one-step methods for the linear
stochastic oscillator x'' + x = alpha * dW/dt.

Exact Gaussian laws for any admissible one-step method, the per-step and
modified decay rates of the two path observables, preservation verdicts,
Monte Carlo backing, and a search for methods that preserve a decay rate
exactly.

The top level re-exports the names of the README's library example; the
rest of the API lives in the submodules (`methods`, `exact`, `laws`, `ldp`,
`strong`, `sim`, `oscillator`, `cli`).
"""

import importlib

# methods is the largest module: compiled first, while the heap is smallest,
# its parse memory is reused by oscillator, cli and the modules a command
# loads when it runs, which lowers peak RSS
from .methods import get_method
from .oscillator import OscillatorParams, SimConfig

__version__ = "0.1.0"

__all__ = [
    "OscillatorParams", "SimConfig", "exact_preservation_search",
    "get_method", "interval_probability", "law_NA_N", "law_x_N", "msq_order",
    "preservation_report", "rate_function", "simulate_paths",
]

# the module of each name loaded on first use (PEP 562), so a command
# compiles only what it runs: msq loads neither the laws nor ldp, and only
# the sampler imports numpy
_LAZY = {"interval_probability": "laws", "law_NA_N": "laws",
         "law_x_N": "laws", "exact_preservation_search": "ldp",
         "preservation_report": "ldp", "rate_function": "ldp",
         "msq_order": "strong", "simulate_paths": "sim"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
