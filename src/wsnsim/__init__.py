"""Round-based lifetime simulator for clustered wireless sensor networks."""

from .engine import (
    EecsParams,
    ExperimentResult,
    FuzzyFormation,
    HeedParams,
    KmeansFormation,
    LeachParams,
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
from .partitioning import (
    FcmParams,
    HardPartition,
    defuzzify,
    fcm_centroids,
    fcm_init,
    fcm_memberships,
    fcm_run,
    kmeans_assign,
    kmeans_init,
    kmeans_run,
    kmeans_update,
)
from .protocols import (
    Cluster,
    ClusterSet,
    Geometry,
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
