"""Bit-accurate CAN data frame model.

Implements the CAN 2.0 data-frame wire format: identifier fields,
control bits, CRC-15 (polynomial 0x4599), bit stuffing over the stuffed
region (SOF through CRC) and the fixed trailer (CRC delimiter, ACK slot,
EOF, interframe space).  Exact frame lengths matter twice in the paper's
evaluation:

* line-rate/throughput claims — "over 8300 messages per second at
  highest payload capacity" is a function of bits-per-frame at the bus
  bitrate;
* the DoS attack itself — 0x000-ID frames win every arbitration and
  their wire occupancy decides how much legitimate traffic is displaced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CANError
from repro.utils.bitops import bytes_to_bits, int_to_bits, stuff_bits

__all__ = ["CANFrame", "crc15", "crc15_table", "MAX_STANDARD_ID", "MAX_EXTENDED_ID"]

MAX_STANDARD_ID = 0x7FF
MAX_EXTENDED_ID = 0x1FFFFFFF

_CRC15_POLY = 0x4599

# Fixed (non-stuffed) trailer: CRC delimiter (1) + ACK slot (1) +
# ACK delimiter (1) + EOF (7) + IFS (3).
_TRAILER_BITS = 13


def crc15(bits: np.ndarray) -> int:
    """CAN CRC-15 over a bit sequence (MSB first), polynomial 0x4599.

    >>> crc15(np.zeros(8, dtype=np.uint8))
    0
    """
    crc = 0
    for bit in np.asarray(bits, dtype=np.uint8).tolist():
        crc_next = ((crc >> 14) & 1) ^ bit
        crc = (crc << 1) & 0x7FFF
        if crc_next:
            crc ^= _CRC15_POLY
    return crc


def crc15_table() -> np.ndarray:
    """The 256-entry table for a byte-at-a-time CRC-15.

    Entry ``b`` is the register after shifting ``b`` (preloaded into
    its top eight bits) eight times through the polynomial, which by
    linearity is ``crc15`` of the eight bits of ``b``.  With it, one
    byte of input updates the register as
    ``crc = ((crc << 8) & 0x7FFF) ^ table[(crc >> 7) ^ byte]``.
    """
    table = np.arange(256, dtype=np.int64) << 7
    for _ in range(8):
        shifted = (table << 1) & 0x7FFF
        table = np.where(table & 0x4000, shifted ^ _CRC15_POLY, shifted)
    return table


@dataclass(frozen=True)
class CANFrame:
    """An immutable CAN 2.0 data frame.

    Parameters
    ----------
    can_id:
        11-bit (standard) or 29-bit (extended) identifier.  Lower values
        win arbitration.
    data:
        0-8 payload bytes; DLC is derived from the length.
    extended:
        CAN 2.0B 29-bit identifier format.
    rtr:
        Remote transmission request (no payload on the wire).
    """

    can_id: int
    data: bytes = b""
    extended: bool = False
    rtr: bool = False

    def __post_init__(self) -> None:
        limit = MAX_EXTENDED_ID if self.extended else MAX_STANDARD_ID
        if not 0 <= self.can_id <= limit:
            raise CANError(
                f"CAN id 0x{self.can_id:X} out of range for "
                f"{'extended' if self.extended else 'standard'} frame"
            )
        if len(self.data) > 8:
            raise CANError(f"CAN payload is limited to 8 bytes, got {len(self.data)}")
        if not isinstance(self.data, bytes):
            object.__setattr__(self, "data", bytes(self.data))

    @property
    def dlc(self) -> int:
        """Data length code (payload byte count)."""
        return len(self.data)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def content_bits(self) -> np.ndarray:
        """Bits of the stuffed region (SOF .. CRC), before stuffing."""
        parts: list[np.ndarray] = [np.array([0], dtype=np.uint8)]  # SOF (dominant)
        if self.extended:
            parts.append(int_to_bits(self.can_id >> 18, 11))  # base id
            parts.append(np.array([1, 1], dtype=np.uint8))  # SRR, IDE
            parts.append(int_to_bits(self.can_id & 0x3FFFF, 18))  # extension
            parts.append(np.array([1 if self.rtr else 0, 0, 0], dtype=np.uint8))  # RTR, r1, r0
        else:
            parts.append(int_to_bits(self.can_id, 11))
            parts.append(np.array([1 if self.rtr else 0, 0, 0], dtype=np.uint8))  # RTR, IDE, r0
        parts.append(int_to_bits(self.dlc, 4))
        if not self.rtr and self.data:
            parts.append(bytes_to_bits(self.data))
        body = np.concatenate(parts)
        crc = crc15(body)
        return np.concatenate([body, int_to_bits(crc, 15)])

    def wire_bits(self) -> np.ndarray:
        """Stuffed region bits as transmitted (stuffing applied)."""
        return stuff_bits(self.content_bits())

    def bit_length(self, stuffed: bool = True) -> int:
        """Total bits on the wire, including the fixed trailer and IFS.

        >>> CANFrame(0x0, bytes(8)).bit_length() >= 111
        True
        """
        content = self.wire_bits() if stuffed else self.content_bits()
        return int(content.size) + _TRAILER_BITS

    def duration(self, bitrate: float) -> float:
        """Seconds this frame occupies the bus at ``bitrate`` bits/s."""
        if bitrate <= 0:
            raise CANError(f"bitrate must be positive, got {bitrate}")
        return self.bit_length() / bitrate

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def padded_data(self, length: int = 8, fill: int = 0) -> bytes:
        """Payload padded to ``length`` bytes (feature encoders use this)."""
        return self.data + bytes([fill]) * (length - len(self.data))

    def id_hex(self) -> str:
        """Identifier formatted like the Car-Hacking CSV (4 hex digits)."""
        width = 8 if self.extended else 4
        return f"{self.can_id:0{width}x}"

    def __repr__(self) -> str:
        payload = self.data.hex(" ") if self.data else "-"
        return f"CANFrame(id=0x{self.can_id:03X}, dlc={self.dlc}, data={payload})"


def max_frame_bits(dlc: int = 8, extended: bool = False) -> int:
    """Worst-case stuffed bit count for a frame with ``dlc`` payload bytes.

    The classic worst-case formula for standard frames:
    ``8*dlc + 44 + floor((34 + 8*dlc - 1) / 4)`` plus 3 bits of IFS.
    Used for conservative line-rate calculations.
    """
    if not 0 <= dlc <= 8:
        raise CANError(f"dlc must be in [0, 8], got {dlc}")
    base = 8 * dlc + (64 if extended else 44)
    stuffable = 8 * dlc + (54 if extended else 34)
    return base + (stuffable - 1) // 4 + 3
