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
    make_frame,
    simple_support,
)
from .knowledge import KnowledgeSource, VerificationResult, parse_knowledge, verify
from .pyramid import CandidateArea, PipelineConfig, Pyramid, build_pyramid, run_pipeline

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
    "make_frame",
    "simple_support",
    "KnowledgeSource",
    "VerificationResult",
    "parse_knowledge",
    "verify",
    "CandidateArea",
    "PipelineConfig",
    "Pyramid",
    "build_pyramid",
    "run_pipeline",
]

__version__ = "0.1.0"
