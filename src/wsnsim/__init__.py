"""Round-based lifetime simulator for clustered wireless sensor networks."""

from .engine import (
    ExperimentResult,
    RoundReport,
    SimState,
    SimulationComplete,
    run_round,
    run_simulation,
    sweep_iterations,
)
from .model import (
    NetworkConfig,
    RadioModel,
    aggregate_energy,
    deploy_nodes,
    euclidean_distance,
    rx_energy,
    tx_energy,
)
from .partitioning import defuzzify, fcm_init, fcm_run, kmeans_init, kmeans_run
from .protocols import (
    Cluster,
    ClusterSet,
    EecsParams,
    FuzzyFormation,
    Geometry,
    HeedParams,
    KmeansFormation,
    LeachParams,
    eecs_form_clusters,
    enforce_ch_separation,
    form_clusters_nearest,
    fuzzy_form_clusters,
    heed_form_clusters,
    heed_geometry,
    kmeans_form_clusters,
    leach_elect,
    leach_threshold,
)

__version__ = "0.1.0"
