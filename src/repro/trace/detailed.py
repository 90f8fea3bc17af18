"""Detailed (instruction-level) trace container.

MUSA traces one representative iteration of one rank in detailed mode
and reuses it for every architectural configuration.  Our substitute
stores one :class:`~repro.trace.kernel.KernelSignature` per kernel
(task type), which is all the detailed timing model needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Tuple

from .kernel import KernelSignature

__all__ = ["DetailedTrace"]


@dataclass(frozen=True)
class DetailedTrace:
    """Per-kernel detailed signatures for one application.

    Attributes
    ----------
    app:
        Application name.
    kernels:
        Mapping from kernel name to its signature.
    """

    app: str
    kernels: Mapping[str, KernelSignature]

    def __post_init__(self) -> None:
        if not self.kernels:
            raise ValueError("detailed trace needs at least one kernel")
        for name, sig in self.kernels.items():
            if not isinstance(sig, KernelSignature):
                raise TypeError(f"kernel {name!r} is not a KernelSignature")
            if sig.name != name:
                raise ValueError(
                    f"kernel key {name!r} does not match signature name "
                    f"{sig.name!r}"
                )
        # Freeze the mapping so the trace is safely shareable across the
        # sweep's worker processes.
        object.__setattr__(self, "kernels", dict(self.kernels))

    def __getitem__(self, kernel: str) -> KernelSignature:
        try:
            return self.kernels[kernel]
        except KeyError:
            raise KeyError(
                f"app {self.app!r} has no kernel {kernel!r}; "
                f"known: {sorted(self.kernels)}"
            ) from None

    def __contains__(self, kernel: str) -> bool:
        return kernel in self.kernels

    def __iter__(self) -> Iterator[str]:
        return iter(self.kernels)

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self.kernels))
