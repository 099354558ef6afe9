"""Concrete domain models: PIM (§5.1) and Cora (§5.4)."""

from .base import PAPER_BETA, PAPER_GAMMA, PAPER_MERGE_THRESHOLD, max_of_profiles
from .cora import CORA_SCHEMA, CoraDomainModel
from .pim import PIM_SCHEMA, PimDomainModel

__all__ = [
    "PAPER_BETA",
    "PAPER_GAMMA",
    "PAPER_MERGE_THRESHOLD",
    "max_of_profiles",
    "CORA_SCHEMA",
    "CoraDomainModel",
    "PIM_SCHEMA",
    "PimDomainModel",
]
