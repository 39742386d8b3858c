"""Parallelism substrate: work-depth models, scheduling simulation, threaded execution, communication model."""

from .distributed import CommunicationVolume, communication_volume
from .executor import ParallelConfig, chunked_ranges, parallel_edge_map
from .simulator import (
    ScheduleResult,
    simulate_algorithm_runtime,
    simulate_schedule,
    simulate_strong_scaling,
)
from .workdepth import (
    Scheme,
    WorkDepth,
    algorithm_cost,
    construction_cost,
    intersection_cost,
    intersection_costs_per_edge,
)

__all__ = [
    "Scheme",
    "WorkDepth",
    "intersection_cost",
    "intersection_costs_per_edge",
    "construction_cost",
    "algorithm_cost",
    "ScheduleResult",
    "simulate_schedule",
    "simulate_algorithm_runtime",
    "simulate_strong_scaling",
    "ParallelConfig",
    "chunked_ranges",
    "parallel_edge_map",
    "CommunicationVolume",
    "communication_volume",
]
