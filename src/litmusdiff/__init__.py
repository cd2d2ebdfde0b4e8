"""Differential testing of atomics lowering through litmus tests.

The package parses small litmus tests in two dialects (C-like atomics and
AArch64-like assembly), enumerates their allowed final-state outcomes under
an axiomatic model per dialect or under sequential consistency, lowers
source tests to assembly, and compares the two outcome sets: the compiled
test must not allow anything the source test forbids.  A deliberately
unsound dead-register rewrite is included to reproduce a real
miscompilation pattern around discarded atomic exchange results.
"""

from importlib import resources

from .difftest import Verdict, VerdictStatus, check_refinement, derive_mapping
from .execution import (
    DEFAULT_MAX_CANDIDATES,
    DialectMismatchError,
    MODEL_AARCH64,
    MODEL_C11,
    MODEL_SC,
    Outcome,
    OutcomeSet,
    ResourceLimitError,
    allowed_outcomes,
)
from .litmus import (
    Dialect,
    LitmusError,
    LitmusTest,
    MemoryOrder,
    ParseError,
    UnsupportedConstructError,
    ValidationError,
)
from .lowering import Mapping, MappingError, dead_register_pass, lower_test
from .syntax import parse_litmus, render_litmus
from .testgen import FlagMechanism, GenParams, Variant, generate_mp_family

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_CANDIDATES",
    "Dialect",
    "DialectMismatchError",
    "FlagMechanism",
    "GenParams",
    "LitmusError",
    "LitmusTest",
    "MODEL_AARCH64",
    "MODEL_C11",
    "MODEL_SC",
    "Mapping",
    "MappingError",
    "MemoryOrder",
    "Outcome",
    "OutcomeSet",
    "ParseError",
    "ResourceLimitError",
    "UnsupportedConstructError",
    "ValidationError",
    "Variant",
    "Verdict",
    "VerdictStatus",
    "allowed_outcomes",
    "check_refinement",
    "dead_register_pass",
    "derive_mapping",
    "generate_mp_family",
    "golden_path",
    "lower_test",
    "parse_litmus",
    "render_litmus",
]


def golden_path(name: str):
    """Traversable path of one of the shipped reference files."""
    return resources.files(__package__) / "golden" / name
