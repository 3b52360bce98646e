"""FedDRL reproduction: DRL-based adaptive aggregation for non-IID FL.

Reproduces Nguyen et al., *FedDRL: Deep Reinforcement Learning-based
Adaptive Aggregation for Non-IID Data in Federated Learning* (ICPP 2022),
as a self-contained NumPy library:

* :mod:`repro.nn` — from-scratch deep-learning substrate (layers, losses,
  optimisers, model zoo).
* :mod:`repro.data` — synthetic dataset stand-ins and all five of the
  paper's non-IID partitioners (PA / CE / CN / Equal / Non-equal).
* :mod:`repro.drl` — the DDPG agent, TD-prioritised replay, reward, and
  the two-stage training strategy.
* :mod:`repro.fl` — the FL engines (synchronous and buffered-async) with
  FedAvg, FedProx and FedDRL; SingleSet is a one-client FedAvg run.
* :mod:`repro.harness` — experiment configs, runners and the table/figure
  generators for every artifact in the paper's evaluation.

Quickstart::

    from repro.harness import ExperimentConfig, run_experiment
    result = run_experiment(ExperimentConfig(
        dataset="mnist", partition="CE", method="feddrl", scale="ci"))
    print(result.best_accuracy)
"""

__version__ = "1.0.0"
