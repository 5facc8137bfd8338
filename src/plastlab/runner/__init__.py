"""Experiment orchestration: configs, the train loop, and the CLI."""

from .config import (
    ExperimentConfig,
    LoggingConfig,
    NetworkConfig,
    RegressionConfig,
    ScenarioConfig,
    config_yaml,
    load_config,
    resolve_config,
)
from .loop import (
    RunArtifacts,
    probe_inputs,
    replay_metrics,
    run_experiment,
)
from .cli import main

__all__ = [
    "ExperimentConfig",
    "LoggingConfig",
    "NetworkConfig",
    "RegressionConfig",
    "RunArtifacts",
    "ScenarioConfig",
    "config_yaml",
    "load_config",
    "main",
    "probe_inputs",
    "replay_metrics",
    "resolve_config",
    "run_experiment",
]
