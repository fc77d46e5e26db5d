"""The rule catalog. New rules: subclass Rule/CrossFileRule, add here."""

from typing import List

from .base import CrossFileRule, FileContext, Rule
from .error_taxonomy import ErrorTaxonomyRule
from .fork_safety import ForkSafetyRule
from .hot_path import HotPathRule
from .lock_discipline import LockDisciplineRule
from .telemetry import TelemetryRegistrationRule
from .thread_model import ThreadModelRule


def all_rules() -> List[Rule]:
    """Fresh instances of every shipped rule, in id order."""
    return [
        LockDisciplineRule(),
        ThreadModelRule(),
        HotPathRule(),
        TelemetryRegistrationRule(),
        ErrorTaxonomyRule(),
        ForkSafetyRule(),
    ]


__all__ = [
    "Rule", "CrossFileRule", "FileContext", "all_rules",
    "LockDisciplineRule", "ThreadModelRule", "HotPathRule",
    "TelemetryRegistrationRule", "ErrorTaxonomyRule", "ForkSafetyRule",
]
