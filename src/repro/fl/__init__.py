"""``repro.fl`` — the federated-learning core.

A synchronous FL simulation faithful to Algorithm 2 of the paper: the
server broadcasts global weights, each participating client trains
locally for E epochs and reports ``(l_b, l_a, n_k, w_k)``, and a pluggable
aggregation *strategy* (FedAvg / FedProx / FedDRL) computes the next
global model.  The paper's SingleSet reference is a one-client FedAvg run
(``repro.harness.runner.singleset_run``).
"""

from repro.fl.async_ import (
    AGGREGATION_MODES,
    DELTA_MIX,
    DISPATCH_POLICIES,
    AsyncFederatedServer,
    ConstantStaleness,
    EventQueue,
    HingeStaleness,
    PolynomialStaleness,
    STALENESS_POLICIES,
    StalenessWeighting,
    get_staleness_weighting,
)
from repro.fl.client import Client, ClientUpdate
from repro.fl.selection import (
    PowerOfChoiceSelection,
    RoundRobinSelection,
    UniformSelection,
)
from repro.fl.fairness import client_loss_stats, fairness_series
from repro.fl.simulation import (
    EventRecord,
    FederatedSimulation,
    FLConfig,
    History,
    NonFiniteUpdateError,
    RoundRecord,
    aggregate_window,
)
from repro.fl.strategies import (
    FedAvg,
    FedDRL,
    FedProx,
    Strategy,
    build_state,
    combine_updates,
    get_strategy,
)
from repro.fl.timing import measure_server_overhead
from repro.fl.wire import (
    WIRE_CODECS,
    WireFormat,
    WirePayload,
    get_codec,
)
from repro.obs.metrics import Timer

__all__ = [
    "AGGREGATION_MODES",
    "DELTA_MIX",
    "DISPATCH_POLICIES",
    "AsyncFederatedServer",
    "Client",
    "ClientUpdate",
    "ConstantStaleness",
    "EventQueue",
    "EventRecord",
    "HingeStaleness",
    "PolynomialStaleness",
    "STALENESS_POLICIES",
    "StalenessWeighting",
    "get_staleness_weighting",
    "FederatedSimulation",
    "FLConfig",
    "History",
    "RoundRecord",
    "NonFiniteUpdateError",
    "aggregate_window",
    "Strategy",
    "FedAvg",
    "FedProx",
    "FedDRL",
    "get_strategy",
    "build_state",
    "combine_updates",
    "client_loss_stats",
    "fairness_series",
    "Timer",
    "measure_server_overhead",
    "WIRE_CODECS",
    "WireFormat",
    "WirePayload",
    "get_codec",
    "UniformSelection",
    "RoundRobinSelection",
    "PowerOfChoiceSelection",
]
