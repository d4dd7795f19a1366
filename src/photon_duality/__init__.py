"""Two-path single-photon duality lab.

Computes interference visibility, which-way distinguishability, and
path/internal concurrence of a two-path photon state in closed form,
simulates the corresponding Mach-Zehnder + tomography experiment with shot
noise, and checks that the three measures land on the unit sphere
(V^2 + D^2 + C^2 = 1 for pure states).
"""

from .interferometer import (
    FringeFit,
    FringeScan,
    detection_probabilities,
    fit_fringe,
    fringe_scan,
    phase_grid,
    sample_fringe_scan,
)
from .metrics import (
    DualityTriple,
    distinguishability,
    entanglement,
    vdc_triple,
    visibility,
)
from .pipeline import RunReport, emit_report, render_report, run_pipeline
from .scenarios import (
    Scenario,
    ScenarioError,
    default_scenarios,
    load_scenarios,
    scenario_to_dict,
)
from .seeding import derive_seed, make_rng
from .states import (
    DensityMatrix,
    TwoPathState,
    coefficient_matrix,
    concurrence_pure,
    overlap,
    pure_state_fidelity,
    random_two_path_state,
    schmidt_decompose,
    state_vector,
    to_density_matrix,
    wootters_concurrence,
)
from .tomography import (
    ALL_SETTINGS,
    NONTRIVIAL_SETTINGS,
    CountRecord,
    MeasurementSetting,
    RecordSet,
    TomographyResult,
    estimate_vdc_from_rho,
    exact_record,
    mle_reconstruct,
    sample_counts,
)

__version__ = "0.1.0"
