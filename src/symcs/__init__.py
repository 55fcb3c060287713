"""Compressed sensing with partial symmetric sign matrices.

The package generates deterministic measurement ensembles (centered on the
first rows of a random symmetric sign matrix), checks their concentration
and restricted isometry behavior by exact enumeration and Monte Carlo, and
runs planted l1-recovery experiments against reference ensembles.  Every
random object derives from explicit integer seeds, so all results are
reproducible bit for bit.
"""

from .concentration import (
    empirical_tails,
    jl_min_measurements,
    mgf_lhs_exact,
    mgf_rhs_exact,
    tail_bound,
)
from .ensembles import ENSEMBLES, gen_measurement, gen_symmetric_sign_matrix
from .experiments import ExperimentSpec, plant_signal, run_trial, sweep
from .imageio import image_recover, read_pgm, write_pgm
from .rip import delta2_coherence, delta_k_bruteforce, recovery_condition
from .rng import Stream, derive_seed
from .solver import basis_pursuit, bpdn

__version__ = "0.1.0"

__all__ = [
    "ENSEMBLES",
    "ExperimentSpec",
    "Stream",
    "__version__",
    "basis_pursuit",
    "bpdn",
    "delta2_coherence",
    "delta_k_bruteforce",
    "derive_seed",
    "empirical_tails",
    "gen_measurement",
    "gen_symmetric_sign_matrix",
    "image_recover",
    "jl_min_measurements",
    "mgf_lhs_exact",
    "mgf_rhs_exact",
    "plant_signal",
    "read_pgm",
    "recovery_condition",
    "run_trial",
    "sweep",
    "tail_bound",
    "write_pgm",
]
