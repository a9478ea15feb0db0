"""Session-wide defaults shared by the CLI and the acceptance suite."""

from __future__ import annotations

import os

from .scalars import DEFAULT_MODULUS, require_prime_modulus

DEFAULT_SEED = 1729
MODULUS_ENV = "NCLIFT_MODULUS"


def modulus_from_env(default: int = DEFAULT_MODULUS) -> int:
    """The env-configured modulus, validated; flags override callers."""
    raw = os.environ.get(MODULUS_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MODULUS_ENV}={raw!r} is not an integer") from exc
    return require_prime_modulus(value)

