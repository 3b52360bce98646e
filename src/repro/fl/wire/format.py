"""The wire format: what actually moves between client and server.

:class:`WireFormat` sits between training and aggregation in both
engines.  For each upload it (1) refuses non-finite weights, naming the
client, (2) forms the delta against the weights the client was
dispatched (``update.weights - anchor``), (3) adds the client's carried
error-feedback residual, (4) round-trips it through the configured codec
(:func:`repro.fl.wire.codecs.roundtrip`) — stochastic rounding drawn
from the ``STREAM_WIRE`` ``(round|job, client)`` cell so no pool
schedule can reorder draws — into the dense reconstruction every
downstream consumer (robust aggregators, delta mixing, hierarchical
folding) already expects, and (5) keeps what was not transmitted,
``compensated - decoded``, as the client's residual for its next
participating round.

Byte accounting is exact and a-priori: ``upload_nbytes(dim, dtype)`` is
:func:`repro.fl.wire.codecs.payload_nbytes` and depends only on the
arena shape, so the async engine can charge bandwidth-accurate upload
durations at dispatch time, before the payload exists.

The ``dense`` codec short-circuits: the update object passes through
untouched (only counters move), because ``anchor + (w - anchor)`` is not
``w`` in floating point and a dense "compression" must not perturb
numerics — a dense-codec run is bit-identical to a no-wire run.
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import ClientUpdate
from repro.fl.simulation import NonFiniteUpdateError
from repro.fl.wire.codecs import payload_nbytes, roundtrip
from repro.runtime.seeding import STREAM_WIRE, client_round_rng


class ErrorFeedback:
    """Per-client residual accumulators for lossy codecs.

    The residual is whatever the codec failed to transmit last time the
    client participated; it is added to the next delta before encoding
    so the error is carried, not lost.  Keyed by client id — clients
    participate in different rounds, so the state must survive between
    them (and through checkpoint/resume).

    Residuals are read-only: one is replaced, never written into.  A
    residual lives on the heap from :meth:`absorb` until the next
    checkpoint save, then as a read-only view of the snapshot's array
    file (:meth:`adopt`), as a resumed run's residuals do.
    """

    def __init__(self) -> None:
        self.residuals: dict[int, np.ndarray] = {}

    def compensate(self, client_id: int, delta: np.ndarray) -> None:
        """Add the client's carried residual into ``delta`` in place.

        The residual is dropped here, not when :meth:`absorb` replaces
        it, so the encoding's temporaries can reuse its memory: kept
        until then, a large arena's temporaries land on fresh pages each
        upload (about 7x the minor page faults at 100k float64
        coordinates).
        """
        residual = self.residuals.pop(client_id, None)
        if residual is not None:
            delta += residual.astype(delta.dtype, copy=False)

    def absorb(self, client_id: int, residual: np.ndarray) -> None:
        """Keep ``residual`` (frozen read-only) for the client's next upload."""
        self.residuals[client_id] = _read_only(residual)

    def adopt(self, mapped) -> None:
        """Replace each residual by ``mapped(residual)`` — a checkpoint's
        view of the bytes it saved (see
        :meth:`repro.runtime.checkpoint.Checkpointer.mapped`) — freeing
        the heap copies a save wrote."""
        for cid, residual in self.residuals.items():
            self.residuals[cid] = mapped(residual)

    def snapshot(self) -> dict:
        """The residuals by reference: :meth:`absorb` replaces an array,
        and every residual is read-only, so a snapshot needs no copies
        (and a checkpoint writes each one once)."""
        return dict(self.residuals)

    def restore(self, state: dict) -> None:
        """Keeps read-only residuals (a loaded snapshot's) by reference."""
        self.residuals = {
            cid: _read_only(np.array(r)) if r.flags.writeable else r
            for cid, r in state.items()
        }


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class WireStats:
    """Cumulative byte ledger for one run (survives checkpoint/resume)."""

    def __init__(self) -> None:
        self.bytes_up = 0
        self.bytes_down = 0
        self.dense_bytes_up = 0
        self.uploads = 0
        self.downloads = 0

    def compression_ratio(self) -> float:
        """Dense-float-baseline bytes over actual bytes for uploads."""
        if self.bytes_up <= 0:
            return 1.0
        return self.dense_bytes_up / self.bytes_up

    def snapshot(self) -> dict:
        return dict(self.__dict__)

    def restore(self, state: dict) -> None:
        self.__dict__.update(state)


class WireFormat:
    """Client→server payload pipeline: delta → EF → encode → decode.

    ``error_feedback`` applies only to lossy codecs; the dense codec
    never accumulates residuals (there is no error to feed back).

    Note on dropped sync uploads: error feedback is updated for *every*
    transmitted upload, including ones a deadline later drops —
    the client-side encoding already happened, and keeping the residual
    update unconditional keeps it a pure function of the ``(round,
    client)`` cell rather than of drop outcomes.
    """

    def __init__(
        self,
        codec_name: str,
        base_seed: int,
        topk_frac: float = 0.01,
        error_feedback: bool = True,
    ) -> None:
        self.codec = codec_name
        self.base_seed = base_seed
        self.topk_frac = topk_frac
        self.error_feedback = error_feedback
        self.lossless = codec_name == "dense"
        self._stochastic = "qsgd" in codec_name
        self.ef = ErrorFeedback()
        self.stats = WireStats()
        # (dim, dtype) -> (upload, dense) bytes; one shape per run.
        self._size_key = self._sizes = None

    # ------------------------------------------------------------------
    # byte accounting (pure functions of the arena shape)
    # ------------------------------------------------------------------

    def upload_nbytes(self, dim: int, dtype) -> int:
        return payload_nbytes(self.codec, dim, dtype, self.topk_frac)

    def download_nbytes(self, dim: int, dtype) -> int:
        """Server→client broadcast: always the dense global model."""
        return payload_nbytes("dense", dim, dtype)

    def record_downloads(self, n: int, dim: int, dtype) -> int:
        """Charge ``n`` global-model broadcasts; returns bytes added."""
        nbytes = self.download_nbytes(dim, dtype) * n
        self.stats.bytes_down += nbytes
        self.stats.downloads += n
        return nbytes

    # ------------------------------------------------------------------
    # the hot path
    # ------------------------------------------------------------------

    def transmit(
        self, update: ClientUpdate, index: int, anchor: np.ndarray
    ) -> tuple[ClientUpdate, int]:
        """Push one upload through the wire.

        ``index`` is the round index (sync) or job index (async) — the
        time coordinate of the STREAM_WIRE cell.  ``anchor`` is the
        global weight vector the client trained from.  Returns the
        server-side reconstruction and the exact payload byte size.
        Raises :class:`NonFiniteUpdateError` for NaN/inf weights: a top-k
        selection never picks a NaN, so encoding would hand the server a
        finite upload and keep the NaN in the client's residual.
        """
        cid = update.client_id
        if not np.isfinite(update.weights).all():
            raise NonFiniteUpdateError(
                f"non-finite weights uploaded by client {cid}; the upload "
                "was not encoded"
            )
        key = (update.weights.shape[0], update.weights.dtype)
        if key != self._size_key:
            self._size_key = key
            self._sizes = (self.upload_nbytes(*key), self.download_nbytes(*key))
        nbytes, dense_nbytes = self._sizes
        self.stats.bytes_up += nbytes
        self.stats.dense_bytes_up += dense_nbytes
        self.stats.uploads += 1
        if self.lossless:
            # Passthrough: reconstructing anchor + (w - anchor) would
            # perturb numerics; dense runs must match no-wire runs.
            return update, nbytes
        anchor = np.asarray(anchor)
        compensated = update.weights - anchor
        if self.error_feedback:
            self.ef.compensate(cid, compensated)
        rng = None
        if self._stochastic:
            rng = client_round_rng(self.base_seed, index, cid, STREAM_WIRE)
        idx, values = roundtrip(self.codec, compensated, rng, self.topk_frac)
        # anchor + decoded, without building the dense decoded delta:
        # adding 0.0 turns a -0.0 anchor entry into 0.0, as it would.
        if idx is None:
            weights = anchor + values
        else:
            weights = anchor + 0.0
            weights[idx] = anchor[idx] + values
        if self.error_feedback:
            # compensated - decoded, in place: the delta becomes the residual.
            if idx is None:
                compensated -= values
            else:
                compensated[idx] -= values
            self.ef.absorb(cid, compensated)
        reconstructed = ClientUpdate(
            client_id=cid,
            weights=weights,
            loss_before=update.loss_before,
            loss_after=update.loss_after,
            n_samples=update.n_samples,
        )
        return reconstructed, nbytes

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "codec": self.codec,
            "error_feedback": self.error_feedback,
            "residuals": self.ef.snapshot(),
            "stats": self.stats.snapshot(),
        }

    def restore(self, state: dict) -> None:
        if state.get("codec") != self.codec:
            raise ValueError(
                f"checkpoint was taken with codec {state.get('codec')!r}, "
                f"this run uses {self.codec!r}"
            )
        self.ef.restore(state["residuals"])
        self.stats.restore(state["stats"])
