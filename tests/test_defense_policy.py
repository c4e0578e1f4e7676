"""Every registered defense's speculative-miss policy matches its family.

The core reads one attribute, :attr:`~repro.defense.base.Defense.speculative_miss`,
to decide what a wrong-path L1 miss does; the registry's capability
descriptor names the scheme family. The two must agree for every
registered defense, so a newly registered one is checked with no new test.
"""

from __future__ import annotations

import pytest

from repro.cache import CacheHierarchy
from repro.defense.base import defense_capabilities, defense_keys, make_defense

#: Scheme family -> the speculative-miss policy that implements it.
POLICY_BY_FAMILY = {
    "none": "install",
    "undo": "install",
    "invisible": "delay",
    "shadow": "shadow",
    "cancel": "shadow",
}


@pytest.mark.parametrize("key", defense_keys())
def test_policy_matches_family(key):
    family = defense_capabilities(key).family
    assert family in POLICY_BY_FAMILY, f"{key}: unknown family {family!r}"
    defense = make_defense(key, CacheHierarchy(seed=0))
    assert defense.speculative_miss == POLICY_BY_FAMILY[family]

