"""Renyi relative-entropy entanglement for three-qubit systems.

Modules: ``qmat`` (small dense linear algebra), ``renyi`` (entropies and
divergences), ``sepstates`` (separable candidates and the REE minimizer),
``xstate`` (the exact REE of two-qubit X-states), ``statezoo`` (canonical
states), ``spinchain`` (Hamiltonians and thermal states), ``entscan``
(monogamy, sweeps, critical temperature, CSV/cache, and ``ree_batch``, the
REE every reported value comes from), ``cli`` (the ``qree`` command).
"""

from .qmat import Bipartition, SpectralDecomposition
from .renyi import (RenyiParameter, collision_entropy, kl_rel_entropy,
                    max_entropy, min_entropy, rel_entropy, renyi_entropy,
                    sand_rel_entropy, trad_rel_entropy, von_neumann_entropy)
from .sepstates import (OptimizerOptions, REEResult, ree, sample_upper_bound,
                        schmidt_entropy)
from .spinchain import ModelParams, ThermalState, ground_state, thermal_state
from .entscan import (MonogamyResult, SweepConfig, SweepRow,
                      critical_temperature, monogamy, sweep)

__all__ = [
    "Bipartition", "SpectralDecomposition", "RenyiParameter",
    "renyi_entropy", "von_neumann_entropy", "min_entropy", "max_entropy",
    "collision_entropy", "kl_rel_entropy", "trad_rel_entropy",
    "sand_rel_entropy", "rel_entropy", "OptimizerOptions", "REEResult",
    "ree", "schmidt_entropy", "sample_upper_bound", "ModelParams",
    "ThermalState", "thermal_state", "ground_state", "MonogamyResult",
    "SweepConfig", "SweepRow", "monogamy", "sweep", "critical_temperature",
]

__version__ = "0.1.0"
