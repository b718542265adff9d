"""Device abstraction for the tensor runtime.

The paper runs TDP on CPU and on an NVIDIA V100 GPU. This environment has no
GPU, so ``cuda`` is a *simulated accelerator*: tensors tagged ``cuda`` hold
ordinary numpy buffers, but the engine consults the device's
:class:`DeviceProfile` to decide how work is batched. The profile models the
one mechanism behind the paper's CPU/GPU gap (Fig 2): accelerators amortise
kernel dispatch over large batches, CPUs process small micro-batches. The
operator code is identical on both devices — only the batching granularity
differs — so measured speedups come from real wall-clock behaviour of the
same code path, not from a hard-coded constant.
"""

from __future__ import annotations

import dataclasses

from repro.errors import DeviceError


@dataclasses.dataclass(frozen=True)
class DeviceProfile:
    """Execution characteristics the engine uses when planning for a device.

    Attributes:
        exec_batch_rows: number of table rows the engine fuses into one
            operator invocation. Large values amortise per-call overhead
            (accelerator-style), small values model cache-resident CPU
            micro-batching.
    """

    exec_batch_rows: int


_PROFILES = {
    # CPU: row-at-a-time streaming execution (the Volcano-style granularity
    # classic engines use); the accelerator amortises dispatch over large
    # data-parallel batches. This asymmetry is the measurable mechanism
    # behind the paper's Fig 2 CPU/GPU gap (see DESIGN.md substitutions).
    "cpu": DeviceProfile(exec_batch_rows=1),
    "cuda": DeviceProfile(exec_batch_rows=512),
}


class Device:
    """A compute device tag (``cpu`` or ``cuda[:index]``)."""

    __slots__ = ("type", "index")

    def __init__(self, spec: "str | Device" = "cpu"):
        if isinstance(spec, Device):
            self.type = spec.type
            self.index = spec.index
            return
        if not isinstance(spec, str):
            raise DeviceError(f"device spec must be str or Device, got {type(spec).__name__}")
        name, _, idx = spec.partition(":")
        if name not in _PROFILES:
            raise DeviceError(f"unknown device {spec!r}; expected 'cpu' or 'cuda[:N]'")
        if idx and not idx.isdigit():
            raise DeviceError(f"invalid device index in {spec!r}")
        self.type = name
        self.index = int(idx) if idx else 0

    @property
    def profile(self) -> DeviceProfile:
        return _PROFILES[self.type]

    def __eq__(self, other) -> bool:
        if isinstance(other, str):
            try:
                other = Device(other)
            except DeviceError:
                return NotImplemented
        if not isinstance(other, Device):
            return NotImplemented
        return self.type == other.type and self.index == other.index

    def __hash__(self) -> int:
        return hash((self.type, self.index))

    def __str__(self) -> str:
        return self.type if self.type == "cpu" else f"{self.type}:{self.index}"


CPU = Device("cpu")
CUDA = Device("cuda")


def as_device(spec: "str | Device | None") -> Device:
    """Coerce a user-supplied device spec to a :class:`Device` (None → cpu)."""
    if spec is None:
        return CPU
    return Device(spec)


def same_device(*devices: Device) -> Device:
    """Check all devices are equal and return the common one.

    Raises:
        DeviceError: if tensors live on different devices (mirrors the
            runtime check PyTorch performs).
    """
    first = devices[0]
    for dev in devices[1:]:
        if dev != first:
            raise DeviceError(
                f"expected all tensors on the same device, found {first} and {dev}"
            )
    return first
