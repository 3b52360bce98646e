"""Wire-efficient upload subsystem.

The layer between training and aggregation: codecs that compress the
client→server delta (:mod:`repro.fl.wire.codecs`) and the transport
pipeline with error feedback and byte-exact accounting
(:mod:`repro.fl.wire.format`).
"""

from repro.fl.wire.codecs import (
    CHUNK,
    HEADER_NBYTES,
    QUANT_BITS,
    WIRE_CODECS,
    payload_nbytes,
    roundtrip,
    topk_indices,
)
from repro.fl.wire.format import ErrorFeedback, WireFormat, WireStats

__all__ = [
    "CHUNK",
    "HEADER_NBYTES",
    "QUANT_BITS",
    "WIRE_CODECS",
    "ErrorFeedback",
    "WireFormat",
    "WireStats",
    "payload_nbytes",
    "roundtrip",
    "topk_indices",
]
