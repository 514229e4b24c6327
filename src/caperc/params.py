"""Color intensity vectors and derived quantities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class LambdaVector:
    """Vector of k strictly positive color intensities.

    Derived sum: lambda_uc over all colors.
    """

    lam: tuple[float, ...]

    def __init__(self, lam: Sequence[float]):
        lam = tuple(float(x) for x in lam)
        if len(lam) < 1:
            raise ValueError("need at least one color")
        if any(x <= 0.0 for x in lam):
            raise ValueError("all intensities must be strictly positive")
        object.__setattr__(self, "lam", lam)

    @property
    def k(self) -> int:
        return len(self.lam)

    def __len__(self) -> int:
        return len(self.lam)

    def __getitem__(self, i: int) -> float:
        return self.lam[i]

    def __iter__(self):
        return iter(self.lam)

    @property
    def lambda_uc(self) -> float:
        """Total intensity over all colors."""
        return sum(self.lam)


def as_lambda(lam) -> LambdaVector:
    """Coerce a sequence (or LambdaVector) to a LambdaVector."""
    if isinstance(lam, LambdaVector):
        return lam
    return LambdaVector(lam)
