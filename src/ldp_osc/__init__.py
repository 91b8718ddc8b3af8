"""Long-horizon decay-rate analysis of one-step methods for the linear
stochastic oscillator x'' + x = alpha * dW/dt.

Exact Gaussian laws for any admissible one-step method, the per-step and
modified decay rates of the two path observables, preservation verdicts,
Monte Carlo backing, and a search for methods that preserve a decay rate
exactly.

The top level re-exports the names of the README's library example; the
rest of the API lives in the submodules (`methods`, `laws`, `ldp`, `sim`,
`oscillator`, `rng`, `cli`).
"""

# methods is the largest module: compiled first, while the heap is smallest,
# its parse memory is reused by the imports after it, which lowers peak RSS
from .methods import get_method
from .oscillator import OscillatorParams, SimConfig
from .laws import interval_probability, law_NA_N, law_x_N
from .ldp import exact_preservation_search, preservation_report, rate_function

__version__ = "0.1.0"

__all__ = [
    "OscillatorParams", "SimConfig", "exact_preservation_search",
    "get_method", "interval_probability", "law_NA_N", "law_x_N", "msq_order",
    "preservation_report", "rate_function", "simulate_paths",
]


def __getattr__(name):  # PEP 562: the samplers import numpy on first use
    if name in ("msq_order", "simulate_paths"):
        from . import sim
        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
