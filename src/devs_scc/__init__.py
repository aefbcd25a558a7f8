"""Turning a formally written atomic DEVS model into a finite, systematic
set of simulation configurations, and running them on a built-in abstract
simulator.

The pipeline: parse a model, apply partition criteria to split the
infinite space of (initial state, timed input event) configurations into
classes, combine classes by intersection, pick one representative per
class, chain the representatives into simulation sequences, execute
them, and report what the simulations reveal (above all: concrete
situations no transition case covers).
"""

from .algebra import CombinationPlan, combine_and_prune, intersect
from .bounds import Bounds
from .context import Context
from .criteria import (
    Occurrence,
    TimeSpec,
    cases_criterion,
    extensional_criterion,
    intentional_criterion,
    standard_partition_criterion,
    time_partition_criterion,
)
from .dnf import DNFClause, to_dnf
from .model import Model, StateSchema, ValidationReport
from .parser import (
    ParseFailure,
    parse_bounds_file,
    parse_bounds_text,
    parse_model_file,
    parse_model_text,
    parse_parts_file,
    parse_parts_text,
)
from .partitions import StandardPartition, builtin_tables, domain_propagation
from .render import render_model
from .sat import SatResult, project_exists, satisfiable
from .scc import SCC, assign_ids
from .selector import SimulationConfig, sample_configs, select_config
from .sequencer import SimulationSequence, build_sequences
from .simulator import init, run_config, step, uniformity_probe
from .check import validate_model

__all__ = [
    "Bounds",
    "CombinationPlan",
    "Context",
    "DNFClause",
    "Model",
    "Occurrence",
    "ParseFailure",
    "SCC",
    "SatResult",
    "SimulationConfig",
    "SimulationSequence",
    "StandardPartition",
    "StateSchema",
    "TimeSpec",
    "ValidationReport",
    "assign_ids",
    "build_sequences",
    "builtin_tables",
    "cases_criterion",
    "combine_and_prune",
    "domain_propagation",
    "extensional_criterion",
    "init",
    "intentional_criterion",
    "intersect",
    "parse_bounds_file",
    "parse_bounds_text",
    "parse_model_file",
    "parse_model_text",
    "parse_parts_file",
    "parse_parts_text",
    "project_exists",
    "render_model",
    "run_config",
    "sample_configs",
    "satisfiable",
    "select_config",
    "standard_partition_criterion",
    "step",
    "time_partition_criterion",
    "to_dnf",
    "uniformity_probe",
    "validate_model",
]
