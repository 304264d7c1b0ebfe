"""Shared enumerated term pools for the tests (deterministic, small), and
the registry names of the reference walks' tables."""

from functools import lru_cache

from ordcalc import harness


@lru_cache(maxsize=None)
def closed(system: str, max_size: int = 5, min_level: int = -2, max_subscript: int = 2):
    return harness.enumerate_terms(
        harness.EnumBudget(
            system=system,
            max_size=max_size,
            min_level=min_level,
            max_subscript=max_subscript,
        )
    )


@lru_cache(maxsize=None)
def opened(system: str, max_size: int = 5, min_level: int = -2, max_subscript: int = 2):
    return harness.enumerate_terms(
        harness.EnumBudget(
            system=system,
            max_size=max_size,
            min_level=min_level,
            max_subscript=max_subscript,
            closed_only=False,
        )
    )


REFERENCE_CACHES = [
    "reference._mixed_fc_at",
    "reference._mixed_kset_high",
    "reference._poly_fc_at",
    "reference._xi_fc_at",
    "reference.buchholz_kset",
    "reference.mixed_kset_low",
    "reference.mixed_kset_xi",
    "reference.poly_kset",
    "reference.xi_kset",
]
