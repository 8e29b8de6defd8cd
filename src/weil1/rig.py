"""Coefficient arithmetic for the two supported rigs."""

from __future__ import annotations

import enum


class Rig(enum.Enum):
    """Coefficient rig: BOOL2 is {0,1} with max as addition, NAT is the naturals."""

    BOOL2 = "bool2"
    NAT = "nat"

    # members are singletons, so identity hashing is exact and, unlike
    # Enum's Python-level hash of the name, costs no call per dict lookup
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


def check_coeff(value: int, rig: Rig) -> int:
    """Validate a coefficient for ``rig`` and return it unchanged."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"coefficient must be a non-negative integer, got {value!r}")
    if rig is Rig.BOOL2 and value > 1:
        raise ValueError(f"coefficient {value} out of range for bool2")
    return value


def add(a: int, b: int, rig: Rig) -> int:
    """Rig addition: max under BOOL2 (so 1 + 1 = 1), integer sum under NAT."""
    if rig is Rig.BOOL2:
        return a if a >= b else b
    return a + b


def mul(a: int, b: int, rig: Rig) -> int:
    """Rig multiplication; the ordinary integer product in both rigs."""
    return a * b


def psi(value: int) -> int:
    """The rig morphism NAT -> BOOL2 sending 0 to 0 and everything else to 1."""
    return 1 if value > 0 else 0
