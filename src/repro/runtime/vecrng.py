"""Vectorized SeedSequence -> PCG64 cell draws for whole-fleet columns.

:mod:`repro.runtime.seeding` derives one fresh generator per
``(coordinate..., stream)`` cell as ``default_rng(SeedSequence(entropy=seed,
spawn_key=cell))``.  That derivation is what makes every draw a pure
function of the cell — but instantiating a Python ``SeedSequence`` and
``Generator`` per cell costs microseconds, which at a million clients per
slot is seconds of pure object churn.

:class:`CellBatchKernel` reimplements the *exact* derivation as columnar
numpy arithmetic over the cells ``(*prefix, id, *suffix)`` of one id
column, bit-identical to the scalar path.  One pipeline,
:meth:`CellBatchKernel._initial_words`, feeds every draw:

* ``SeedSequence`` entropy mixing — the 4-word entropy pool built with
  the ``hashmix``/``mix`` functions (constants ``INIT_A``/``MULT_A``/
  ``MIX_MULT_L``/``MIX_MULT_R``), including the detail that entropy is
  zero-padded to the pool size before spawn-key words are appended.
  The multiplicative hash constant evolves independently of the data, so
  every per-position constant is precomputed; pool words that depend
  only on the scalar prefix / suffix stay Python ints and never touch an
  array.
* ``generate_state(4, uint64)`` — the ``INIT_B``/``MULT_B`` output pass
  cycling over the pool, giving PCG64's ``initstate`` / ``initseq``.

From there, ``srandom`` performs two LCG steps
(:meth:`CellBatchKernel.states`, for draws that need a repositioned
``Generator``) and the first ``next64`` a third
(:meth:`CellBatchKernel.uniforms`).  ``k`` steps of the same 128-bit
affine map fold into one::

    state_k = initstate * M^(k-1)  +  initseq * 2A  +  A      (mod 2^128)
    A       = M^(k-1) + ... + M + 1,  initseq term expands inc = 2*initseq + 1

evaluated with 32-bit limb products inside uint64 lanes (a 64x64
multiply does not fit a numpy lane; 32x32 does).  A uniform then applies
the xsl-rr output permutation and the ``(x >> 11) * 2^-53`` double
conversion.

Bit-identity against ``np.random`` is pinned by tests for every key
shape in use and a wide range of seeds and ids; if numpy ever changed
the PCG64 or SeedSequence internals (it has not since they were
introduced — doing so would break stream compatibility for all saved
experiments) the golden tests fail loudly rather than drifting silently.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CellBatchKernel", "spawn_key_draws"]

_POOL_SIZE = 4
_U32 = 0xFFFFFFFF
_U64 = 0xFFFFFFFFFFFFFFFF
_U128 = (1 << 128) - 1

_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_XSHIFT = 16

# PCG64's default 128-bit multiplier M and the folded ``(M^(k-1), A)``
# pairs (see module docstring) for the state after srandom (k = 2) and
# after the first draw (k = 3).
_PCG_MULT = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645
_MULT_SQ = (_PCG_MULT * _PCG_MULT) & _U128
_SRANDOM = (_PCG_MULT, (_PCG_MULT + 1) & _U128)
_FIRST_DRAW = (_MULT_SQ, (_MULT_SQ + _PCG_MULT + 1) & _U128)

_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53

_M32 = np.uint64(0xFFFFFFFF)
_S16 = np.uint32(16)
_S32 = np.uint64(32)
_S58 = np.uint64(58)
_S63 = np.uint64(63)
_S11 = np.uint64(11)
_ONE = np.uint64(1)


def _uint32_words(value: int) -> list[int]:
    """Arbitrary-width non-negative int -> little-endian uint32 words."""
    if value < 0:
        raise ValueError("entropy/spawn-key components must be non-negative")
    if value == 0:
        return [0]
    words = []
    while value:
        words.append(value & _U32)
        value >>= 32
    return words


def _hashmix_scalar(value: int, hash_const: int) -> tuple[int, int]:
    value = (value ^ hash_const) & _U32
    hash_const = (hash_const * _MULT_A) & _U32
    value = (value * hash_const) & _U32
    value ^= value >> _XSHIFT
    return value & _U32, hash_const


def _mix_scalar(x: int, y: int) -> int:
    result = (x * _MIX_L - y * _MIX_R) & _U32
    result ^= result >> _XSHIFT
    return result & _U32


def _hashmix_vec(value: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    out = np.bitwise_xor(value, np.uint32(hash_const))
    hash_const = (hash_const * _MULT_A) & _U32
    np.multiply(out, np.uint32(hash_const), out=out)
    np.bitwise_xor(out, out >> _S16, out=out)
    return out, hash_const


def _hash_const_at(call_index: int) -> int:
    """The evolving hashmix constant before its ``call_index``-th use.

    ``hash_const`` starts at INIT_A and multiplies by MULT_A on every
    hashmix call regardless of the data, so the constant at any position
    in the mixing schedule is known ahead of time.
    """
    return (_INIT_A * pow(_MULT_A, call_index, 1 << 32)) & _U32


def _mul128_const(hi: np.ndarray, lo: np.ndarray, const: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * const mod 2**128 via 32-bit limb products in uint64 lanes."""
    c_lo = const & _U64
    c_hi = (const >> 64) & _U64
    b0 = np.uint64(c_lo & _U32)
    b1 = np.uint64(c_lo >> 32)
    a0 = np.bitwise_and(lo, _M32)
    a1 = lo >> _S32
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    p11 = a1 * b1
    # mid collects the 32..96-bit partial column; each term < 2**32 after
    # masking/shifting so the sum cannot wrap a uint64 lane.
    mid = p00 >> _S32
    mid += np.bitwise_and(p01, _M32)
    mid += np.bitwise_and(p10, _M32)
    new_lo = np.bitwise_and(p00, _M32)
    np.bitwise_or(new_lo, np.bitwise_and(mid, _M32) << _S32, out=new_lo)
    carry = mid >> _S32
    carry += p01 >> _S32
    carry += p10 >> _S32
    carry += p11
    new_hi = lo * np.uint64(c_hi)
    new_hi += hi * np.uint64(c_lo)
    new_hi += carry
    return new_hi, new_lo


def _pcg_steps(s_hi, s_lo, i_hi, i_lo, steps: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The PCG64 state ``k`` steps from ``(initstate, initseq)``, where
    ``steps`` is the folded ``(M^(k-1), A)`` pair."""
    mult, add = steps
    t_hi, t_lo = _mul128_const(s_hi, s_lo, mult)
    q_hi, q_lo = _mul128_const(i_hi, i_lo, (2 * add) & _U128)
    hi = t_hi + q_hi
    lo = t_lo + q_lo
    hi += lo < t_lo  # carry
    prev_lo = lo.copy()
    lo += np.uint64(add & _U64)
    hi += np.uint64(add >> 64)
    hi += lo < prev_lo
    return hi, lo


class CellBatchKernel:
    """Whole-column draws for the spawn keys ``(*prefix, id, *suffix)``.

    A fleet advance draws once per slot with the same id column and only
    the scalar prefix (the slot index) changing; the clock draws one
    static cell per client.  The kernel exploits that shape:

    * the four id-dependent hashmix rows of the entropy-mixing pass use
      hash constants fixed by the id word's *position* in the key, so
      they are computed once and cached (pre-multiplied by MIX_MULT_R,
      the only form the mix step needs);
    * every other mixing word is a scalar, evaluated in exact-arithmetic
      Python ints;
    * the per-call vector work runs over cache-sized chunks with all
      scratch buffers preallocated.

    Prefix and suffix components, and every id, must fit in uint32.
    """

    _CHUNK = 65536

    def __init__(self, base_seed: int, ids: np.ndarray, n_prefix: int, n_suffix: int) -> None:
        ids = np.asarray(ids)
        if ids.ndim != 1:
            raise ValueError("ids must be 1-D")
        if ids.dtype != np.uint32:
            as64 = ids.astype(np.int64, copy=False)
            if ids.size and (as64.min() < 0 or as64.max() > _U32):
                raise ValueError("ids must fit in uint32")
            ids = as64.astype(np.uint32)
        self.base_seed = int(base_seed)
        self.ids = ids
        self.n = ids.shape[0]
        self.n_prefix = int(n_prefix)
        self.n_suffix = int(n_suffix)
        seed_words = _uint32_words(self.base_seed)
        if len(seed_words) < _POOL_SIZE:
            seed_words = seed_words + [0] * (_POOL_SIZE - len(seed_words))
        self._seed_words = seed_words
        # Word index of the id coordinate and the hashmix call index of
        # its first mixing use: 4 phase-1 calls + 12 pairwise calls +
        # 4 calls per preceding phase-3 word.
        id_call = 4 * (len(seed_words) + self.n_prefix)
        self._suffix_call = id_call + 4
        chunk = min(self._CHUNK, max(self.n, 1))
        self._chunk = chunk
        # Cached id rows: hashmix(ids, const at call id_call+dst) * MIX_R,
        # stored chunked so the hot loop reads cache-resident blocks.
        self._id_rows: list[list[np.ndarray]] = []
        for lo in range(0, self.n, chunk):
            ids_c = ids[lo : lo + chunk]
            rows = []
            for dst in range(_POOL_SIZE):
                mixed, _ = _hashmix_vec(ids_c, _hash_const_at(id_call + dst))
                np.multiply(mixed, np.uint32(_MIX_R), out=mixed)
                rows.append(mixed)
            self._id_rows.append(rows)
        # Scratch (per chunk): 4 pool words, 8 state words, uint64 stage.
        self._pool32 = [np.empty(chunk, dtype=np.uint32) for _ in range(_POOL_SIZE)]
        self._w32 = [np.empty(chunk, dtype=np.uint32) for _ in range(2 * _POOL_SIZE)]
        self._u64 = [np.empty(chunk, dtype=np.uint64) for _ in range(4)]

    @property
    def nbytes(self) -> int:
        """Resident bytes of the cached id rows and the chunk scratch."""
        arrays = [r for rows in self._id_rows for r in rows]
        return sum(a.nbytes for a in arrays + self._pool32 + self._w32 + self._u64)

    @staticmethod
    def _words(components: tuple, what: str) -> list[int]:
        words = [int(c) for c in components]
        if not all(0 <= w <= _U32 for w in words):
            raise ValueError(f"{what} components must fit in uint32")
        return words

    def _scalar_pool_before_id(self, prefix: tuple) -> list[int]:
        """Entropy pool mixed through every word preceding the id column."""
        if len(prefix) != self.n_prefix:
            raise ValueError("prefix arity changed")
        words = self._seed_words + self._words(prefix, "prefix")
        pool = [0] * _POOL_SIZE
        hash_const = _INIT_A

        def hashmix(value):
            nonlocal hash_const
            mixed, hash_const = _hashmix_scalar(value, hash_const)
            return mixed

        for i in range(_POOL_SIZE):
            pool[i] = hashmix(words[i])
        for i_src in range(_POOL_SIZE):
            for i_dst in range(_POOL_SIZE):
                if i_src != i_dst:
                    pool[i_dst] = _mix_scalar(pool[i_dst], hashmix(pool[i_src]))
        for i_src in range(_POOL_SIZE, len(words)):
            for i_dst in range(_POOL_SIZE):
                pool[i_dst] = _mix_scalar(pool[i_dst], hashmix(words[i_src]))
        return pool

    def _initial_words(self, prefix: tuple, suffix: tuple):
        """Per chunk, ``(lo, hi, s_hi, s_lo, i_hi, i_lo)``: the uint64
        halves of every cell's ``initstate`` / ``initseq`` for ids
        ``[lo, hi)``.  The arrays are scratch, overwritten by the next
        chunk."""
        if len(suffix) != self.n_suffix:
            raise ValueError("suffix arity changed")
        scalar_pool = self._scalar_pool_before_id(prefix)
        # Scalar halves of the id-row mix: pool[dst] * MIX_MULT_L.
        left = [(scalar_pool[dst] * _MIX_L) & _U32 for dst in range(_POOL_SIZE)]
        # Suffix rows' hashmix values are scalars with known constants.
        suffix_hashed = []
        hash_const = _hash_const_at(self._suffix_call)
        for value in self._words(suffix, "suffix"):
            for _ in range(_POOL_SIZE):
                mixed, hash_const = _hashmix_scalar(value, hash_const)
                suffix_hashed.append((mixed * _MIX_R) & _U32)

        for block, lo in enumerate(range(0, self.n, self._chunk)):
            hi = min(lo + self._chunk, self.n)
            m = hi - lo
            rows = self._id_rows[block]
            pool_c = [p[:m] for p in self._pool32]
            w_c = [x[:m] for x in self._w32]
            u_c = [x[:m] for x in self._u64]
            # id row: pool[dst] = mix(scalar_pool[dst], hashmix(ids)).
            for dst in range(_POOL_SIZE):
                np.subtract(np.uint32(left[dst]), rows[dst][:m], out=pool_c[dst])
                np.bitwise_xor(pool_c[dst], pool_c[dst] >> _S16, out=pool_c[dst])
            # suffix rows: pool[dst] = mix(pool[dst], hashmix(word)).
            for k, hashed in enumerate(suffix_hashed):
                dst = k % _POOL_SIZE
                np.multiply(pool_c[dst], np.uint32(_MIX_L), out=pool_c[dst])
                np.subtract(pool_c[dst], np.uint32(hashed), out=pool_c[dst])
                np.bitwise_xor(pool_c[dst], pool_c[dst] >> _S16, out=pool_c[dst])
            # generate_state(4, uint64) output pass.
            hash_const = _INIT_B
            for i in range(2 * _POOL_SIZE):
                next_const = (hash_const * _MULT_B) & _U32
                np.bitwise_xor(pool_c[i % _POOL_SIZE], np.uint32(hash_const), out=w_c[i])
                np.multiply(w_c[i], np.uint32(next_const), out=w_c[i])
                np.bitwise_xor(w_c[i], w_c[i] >> _S16, out=w_c[i])
                hash_const = next_const
            # generate_state packs uint32 pairs little-endian into uint64;
            # PCG64 reads val[0:2] as the *high/low* halves of initstate,
            # val[2:4] of initseq.
            for j in range(4):
                np.copyto(u_c[j], w_c[2 * j + 1], casting="safe")
                np.left_shift(u_c[j], _S32, out=u_c[j])
                np.bitwise_or(u_c[j], w_c[2 * j], out=u_c[j])
            yield (lo, hi, *u_c)

    def states(self, prefix: tuple = (), suffix: tuple = ()) -> tuple[np.ndarray, ...]:
        """Every cell's seeded PCG64 ``(state, inc)`` as uint64 halves.

        Returns ``(state_hi, state_lo, inc_hi, inc_lo)``, equal to
        ``default_rng(SeedSequence(base_seed, spawn_key=cell)).bit_generator
        .state`` per cell: ``srandom`` sets ``inc = 2*initseq + 1`` and
        ``state = (initstate + inc) * M + inc``.
        """
        out = tuple(np.empty(self.n, dtype=np.uint64) for _ in range(4))
        st_hi, st_lo, inc_hi, inc_lo = out
        for lo, hi, s_hi, s_lo, i_hi, i_lo in self._initial_words(prefix, suffix):
            st_hi[lo:hi], st_lo[lo:hi] = _pcg_steps(s_hi, s_lo, i_hi, i_lo, _SRANDOM)
            inc_hi[lo:hi] = (i_hi << _ONE) | (i_lo >> _S63)
            inc_lo[lo:hi] = (i_lo << _ONE) | _ONE
        return out

    def uniforms(self, prefix: tuple = (), suffix: tuple = ()) -> np.ndarray:
        """First ``Generator.random()`` double of every cell, bit-identical
        to ``default_rng(SeedSequence(base_seed, spawn_key=cell)).random()``."""
        out = np.empty(self.n, dtype=np.float64)
        for lo, hi, *words in self._initial_words(prefix, suffix):
            st_hi, st_lo = _pcg_steps(*words, _FIRST_DRAW)
            # xsl-rr output permutation of the 128-bit state, then the
            # standard 53-bit double conversion.
            xored = np.bitwise_xor(st_hi, st_lo)
            rot = st_hi >> _S58
            word = (xored >> rot) | (xored << ((np.uint64(64) - rot) & _S63))
            np.right_shift(word, _S11, out=word)
            np.multiply(word, _INV_2_53, out=out[lo:hi], casting="unsafe")
        return out


def spawn_key_draws(base_seed: int, spawn_key: tuple, method: str, *args) -> np.ndarray:
    """``default_rng(SeedSequence(base_seed, spawn_key=cell)).<method>(*args)``
    for every cell, bit for bit, without building a generator per cell.

    ``spawn_key`` holds exactly one 1-D integer array (the id column);
    its other components are scalars.  One ``Generator`` is repositioned
    to each cell's :meth:`CellBatchKernel.states` state, for draws like a
    ziggurat normal that use a data-dependent word count.
    """
    (axis,) = [i for i, c in enumerate(spawn_key) if isinstance(c, np.ndarray)]
    ids, prefix, suffix = spawn_key[axis], spawn_key[:axis], spawn_key[axis + 1:]
    bitgen = np.random.PCG64()
    draw = getattr(np.random.Generator(bitgen), method)
    cell: dict = {}
    state = {"bit_generator": "PCG64", "state": cell, "has_uint32": 0, "uinteger": 0}
    out = np.empty(ids.shape[0])
    # Chunked so the kernel's columns and the per-cell Python ints stay
    # small at a million cells.
    for lo in range(0, ids.shape[0], CellBatchKernel._CHUNK):
        kernel = CellBatchKernel(base_seed, ids[lo:lo + CellBatchKernel._CHUNK],
                                 len(prefix), len(suffix))
        halves = [w.tolist() for w in kernel.states(prefix, suffix)]
        for j, (sh, sl, ih, il) in enumerate(zip(*halves), lo):
            cell["state"], cell["inc"] = sh << 64 | sl, ih << 64 | il
            bitgen.state = state
            out[j] = draw(*args)
    return out
