"""Evidential reasoning and pyramid-based window recognition."""

from .errors import DSVisionError
from .evidence import (
    Clause,
    CombineOutcome,
    Frame,
    Literal,
    MassFunction,
    belief,
    clause_intersect,
    clause_subset,
    combine,
    combine_all,
    simple_support,
)
from .knowledge import KnowledgeSource, VerificationResult, parse_knowledge, verify

# the pyramid names load numpy, so they are imported on first access (PEP 562)
_PYRAMID_NAMES = ("CandidateArea", "PipelineConfig", "Pyramid", "build_pyramid", "run_pipeline")


def __getattr__(name: str):
    if name not in _PYRAMID_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import pyramid
    return getattr(pyramid, name)


__all__ = [
    "DSVisionError",
    "Clause",
    "CombineOutcome",
    "Frame",
    "Literal",
    "MassFunction",
    "belief",
    "clause_intersect",
    "clause_subset",
    "combine",
    "combine_all",
    "simple_support",
    "KnowledgeSource",
    "VerificationResult",
    "parse_knowledge",
    "verify",
    *_PYRAMID_NAMES,
]

__version__ = "0.1.0"
