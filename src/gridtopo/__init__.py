"""Topology and phase recovery for power distribution grids.

Voltage time series at the buses of a radial (or weakly meshed)
multi-phase feeder carry enough statistical structure to recover the
feeder's connectivity: voltage increments are close to jointly
Gaussian, neighboring buses share the most mutual information, and the
maximum-weight spanning tree over pairwise MI is the best-fitting
tree-structured model. This package bundles the estimator, a
synthetic feeder laboratory with ground truth, phase label
identification, and a Monte Carlo evaluation harness.
"""

from .grid_model import (
    Branch,
    Bus,
    GridModelError,
    GridTopology,
    InvalidLineError,
    LineModel,
    PhaseMask,
    SingularLineError,
    TopologyFormatError,
    assemble_admittance,
    branch_admittance,
    carson_impedance,
    topology_from_csv,
    topology_to_csv,
)
from .feeders import (
    FEEDER_NAMES,
    eight_bus_feeder,
    fifteen_bus_mesh_feeder,
    make_feeder,
    random_feeder,
    thirteen_bus_feeder,
)
from .synth_lab import (
    AnalyticCovariance,
    FeederSampler,
    InjectionSpec,
    MeasurementFormatError,
    NoiseSpec,
    SynthError,
    VoltagePanel,
    analytic_cov,
    apply_noise,
    corrupt_labels,
    generate_increments,
    integrate_voltages,
    labels_from_csv,
    labels_to_csv,
    panel_from_csv,
    panel_to_csv,
    to_magnitude,
)
from .info_core import (
    InfoCoreError,
    MIComputationError,
    MIMatrix,
    PanelStatistics,
    SingularCovarianceError,
    difference,
    mi_breakdown,
    substation_mi,
)
from .topo_est import (
    EdgeSetEstimate,
    TopologyEstimateError,
    attach_root,
    estimate_from_csv,
    estimate_topology,
    max_weight_spanning_tree,
    recover,
    weak_mesh_search,
)
from .phase_id import (
    PhaseAssignment,
    PhaseIdError,
    assign_phases,
    assignment_accuracy,
    diagnose_labels,
)
from .eval_harness import (
    EvalError,
    EvalReport,
    ScenarioConfig,
    build_context,
    draw_panel,
    edge_errors,
    error_rate,
    monte_carlo,
    run_replicate,
    sweep,
    write_sweep_csv,
)

__version__ = "0.1.0"
