"""Full-truck-load planning: charter fleet vs. spot market.

Plans pickup-and-delivery requests with time windows under simplified
driver-hours rules, a per-vehicle minimum driven distance, and a
per-request outsourcing option, and compares the all-outsourced,
all-own-fleet, and mixed scenarios.
"""

from .model import (
    CostModel,
    Horizon,
    Instance,
    RegParams,
    Request,
    Solution,
    TimeWindow,
    TravelMatrix,
    Trip,
    solution_cost,
    validate_solution,
)
from .schedule import Schedule, Simulator, simulate_trip

__version__ = "0.1.0"

__all__ = [
    "CostModel",
    "Horizon",
    "Instance",
    "RegParams",
    "Request",
    "Schedule",
    "Simulator",
    "Solution",
    "TimeWindow",
    "TravelMatrix",
    "Trip",
    "simulate_trip",
    "solution_cost",
    "validate_solution",
    "__version__",
]
