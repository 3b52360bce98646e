"""Wire-efficient upload subsystem.

The layer between training and aggregation: codecs that compress the
client→server delta (:mod:`repro.fl.wire.codecs`) and the transport
pipeline with error feedback and byte-exact accounting
(:mod:`repro.fl.wire.format`).
"""

from repro.fl.wire.codecs import (
    DEFAULT_CHUNK,
    HEADER_NBYTES,
    QUANT_BITS,
    WIRE_CODECS,
    Codec,
    DenseCodec,
    QSGDCodec,
    TopKCodec,
    TopKQSGDCodec,
    WirePayload,
    get_codec,
    payload_from_bytes,
    topk_indices,
)
from repro.fl.wire.format import ErrorFeedback, WireFormat, WireStats

__all__ = [
    "DEFAULT_CHUNK",
    "HEADER_NBYTES",
    "QUANT_BITS",
    "WIRE_CODECS",
    "Codec",
    "DenseCodec",
    "ErrorFeedback",
    "QSGDCodec",
    "TopKCodec",
    "TopKQSGDCodec",
    "WireFormat",
    "WirePayload",
    "WireStats",
    "get_codec",
    "payload_from_bytes",
    "topk_indices",
]
