"""Device abstraction for the tensor runtime.

The paper runs TDP on CPU and on an NVIDIA V100 GPU. This environment has no
GPU, so ``cuda`` is a *simulated accelerator*: tensors tagged ``cuda`` hold
ordinary numpy buffers. The tag is placement only — the engine runs the same
whole-column operators and UDF calls on every device — and tensors on
different devices still refuse to mix, as in PyTorch.
"""

from __future__ import annotations

from repro.errors import DeviceError

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
        if name not in ("cpu", "cuda"):
            raise DeviceError(f"unknown device {spec!r}; expected 'cpu' or 'cuda[:N]'")
        if idx and not idx.isdigit():
            raise DeviceError(f"invalid device index in {spec!r}")
        self.type = name
        self.index = int(idx) if idx else 0

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
