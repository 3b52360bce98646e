"""Vectorized SeedSequence -> PCG64 cell draws for whole-fleet columns.

:mod:`repro.runtime.seeding` derives one fresh generator per
``(coordinate..., stream)`` cell as ``default_rng(SeedSequence(entropy=seed,
spawn_key=cell))``.  That derivation is what makes every draw a pure
function of the cell — but instantiating a Python ``SeedSequence`` and
``Generator`` per cell costs microseconds, which at a million clients per
slot is seconds of pure object churn.

This module reimplements the *exact* derivation pipeline as columnar
numpy arithmetic so one call produces the first uniform double of every
cell in a fleet-sized batch, bit-identical to the scalar path:

* ``SeedSequence`` entropy mixing — the 4-word entropy pool built with
  the ``hashmix``/``mix`` functions (constants ``INIT_A``/``MULT_A``/
  ``MIX_MULT_L``/``MIX_MULT_R``), including the detail that entropy is
  zero-padded to the pool size before spawn-key words are appended.
  The multiplicative hash constant evolves independently of the data, so
  every per-position constant is precomputed; pool words that depend
  only on scalar key components stay Python ints and never touch an
  array.
* ``generate_state(4, uint64)`` — the ``INIT_B``/``MULT_B`` output pass
  cycling over the pool.
* PCG64 seeding plus the first ``next64`` — ``srandom`` performs two LCG
  steps (:func:`spawn_key_states` stops there, for draws that need a
  repositioned ``Generator``) and the first draw a third, all with the
  same 128-bit affine map; :class:`CellBatchKernel` folds the three::

      state_3 = initstate * M^2  +  initseq * (2 * C)  +  C      (mod 2^128)
      C       = M^2 + M + 1,  initseq term expands inc = 2*initseq + 1

  evaluated with 32-bit limb products inside uint64 lanes (a 64x64
  multiply does not fit a numpy lane; 32x32 does).
* The xsl-rr output permutation and the ``(x >> 11) * 2^-53`` double
  conversion.

Bit-identity against ``np.random`` is pinned by tests for every model
and a wide grid of seeds/keys; if numpy ever changed the PCG64 or
SeedSequence internals (it has not since they were introduced — doing so
would break stream compatibility for all saved experiments) the golden
tests fail loudly rather than drifting silently.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_key_uniforms", "spawn_key_states", "spawn_key_draws", "CellBatchKernel"]

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

# PCG64's default 128-bit multiplier and the folded step constants (see
# module docstring): three sequential affine steps collapse into
# state3 = s*_MULT_SQ + i*_SEQ_MULT + _STEP_ADD with i the raw initseq.
_PCG_MULT = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645
_MULT_SQ = (_PCG_MULT * _PCG_MULT) & _U128
_STEP_ADD = (_MULT_SQ + _PCG_MULT + 1) & _U128
_SEQ_MULT = (2 * _STEP_ADD) & _U128

_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53

_M32 = np.uint64(0xFFFFFFFF)
_S16 = np.uint32(16)
_S32 = np.uint64(32)
_S58 = np.uint64(58)
_S63 = np.uint64(63)
_S11 = np.uint64(11)


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


def _mix_any(x, y):
    """mix() where either side may be a scalar int or a uint32 array."""
    x_vec = isinstance(x, np.ndarray)
    y_vec = isinstance(y, np.ndarray)
    if not x_vec and not y_vec:
        return _mix_scalar(x, y)
    if x_vec:
        result = x * np.uint32(_MIX_L)
    else:
        result = np.full_like(y, (x * _MIX_L) & _U32)
    if y_vec:
        result -= y * np.uint32(_MIX_R)
    else:
        result -= np.uint32((y * _MIX_R) & _U32)
    np.bitwise_xor(result, result >> _S16, out=result)
    return result


def _mixed_pool(seed: int, spawn_key: tuple) -> list:
    """The 4-word SeedSequence entropy pool; entries are int or uint32 array.

    ``spawn_key`` components are ints or 1-D integer arrays (< 2**32).
    Matches ``SeedSequence.mix_entropy`` over the assembled entropy:
    seed words, zero-padded to the pool size when a spawn key is present,
    followed by the spawn-key words.
    """
    words: list = _uint32_words(seed)
    if spawn_key and len(words) < _POOL_SIZE:
        words = words + [0] * (_POOL_SIZE - len(words))
    for component in spawn_key:
        if isinstance(component, np.ndarray):
            words.append(component)
        else:
            words.extend(_uint32_words(int(component)))

    pool: list = [0] * _POOL_SIZE
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        if isinstance(value, np.ndarray):
            mixed, hash_const = _hashmix_vec(value, hash_const)
        else:
            mixed, hash_const = _hashmix_scalar(value, hash_const)
        return mixed

    for i in range(_POOL_SIZE):
        pool[i] = hashmix(words[i] if i < len(words) else 0)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix_any(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, len(words)):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix_any(pool[i_dst], hashmix(words[i_src]))
    return pool


def _generate_state_words(pool: list) -> list:
    """``generate_state(4, uint64)`` as 8 uint32 words (int or array)."""
    out = []
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE]
        next_const = (hash_const * _MULT_B) & _U32
        if isinstance(value, np.ndarray):
            word = np.bitwise_xor(value, np.uint32(hash_const))
            np.multiply(word, np.uint32(next_const), out=word)
            np.bitwise_xor(word, word >> _S16, out=word)
        else:
            word = (value ^ hash_const) & _U32
            word = (word * next_const) & _U32
            word ^= word >> _XSHIFT
        hash_const = next_const
        out.append(word)
    return out


def _pair_u64(lo_word, hi_word, n: int) -> np.ndarray:
    """Two uint32 words (int or array) -> one uint64 array of length n."""
    if isinstance(lo_word, np.ndarray):
        lo = lo_word.astype(np.uint64)
    else:
        lo = np.full(n, lo_word, dtype=np.uint64)
    if isinstance(hi_word, np.ndarray):
        np.bitwise_or(lo, hi_word.astype(np.uint64) << _S32, out=lo)
    else:
        np.bitwise_or(lo, np.uint64(hi_word) << _S32, out=lo)
    return lo


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


def _add128(hi1, lo1, hi2, lo2) -> tuple[np.ndarray, np.ndarray]:
    lo = lo1 + lo2
    hi = hi1 + hi2
    hi += lo < lo1  # carry
    return hi, lo


def spawn_key_states(base_seed: int, spawn_key: tuple) -> tuple[np.ndarray, ...]:
    """Every cell's seeded PCG64 ``(state, inc)`` as uint64 halves.

    ``spawn_key`` is the tuple passed to ``SeedSequence(entropy=base_seed,
    spawn_key=...)`` with exactly one component being a 1-D integer array
    (the vectorized coordinate, each value < 2**32); the rest are scalar
    ints.  Returns ``(state_hi, state_lo, inc_hi, inc_lo)``, equal to
    ``default_rng(SeedSequence(base_seed, spawn_key=cell)).bit_generator
    .state`` per cell: ``srandom`` sets ``inc = 2*initseq + 1`` and
    ``state = (initstate + inc) * M + inc``.
    """
    arrays = [c for c in spawn_key if isinstance(c, np.ndarray)]
    if len(arrays) != 1:
        raise ValueError("spawn_key must contain exactly one array component")
    ids = arrays[0]
    if ids.ndim != 1:
        raise ValueError("the array spawn-key component must be 1-D")
    n = ids.shape[0]
    if ids.dtype != np.uint32:
        as64 = ids.astype(np.int64, copy=False)
        if n and (as64.min() < 0 or as64.max() > _U32):
            raise ValueError("array spawn-key values must fit in uint32")
        ids = as64.astype(np.uint32)
    key = tuple(ids if isinstance(c, np.ndarray) else int(c) for c in spawn_key)

    pool = _mixed_pool(int(base_seed), key)
    words = _generate_state_words(pool)
    # generate_state packs uint32 pairs little-endian into uint64; PCG64
    # reads val[0:2] as the *high/low* halves of initstate, val[2:4] of
    # initseq.
    s_hi, s_lo, i_hi, i_lo = (_pair_u64(words[k], words[k + 1], n) for k in range(0, 8, 2))
    inc_hi = (i_hi << np.uint64(1)) | (i_lo >> _S63)
    inc_lo = (i_lo << np.uint64(1)) | np.uint64(1)
    m_hi, m_lo = _mul128_const(*_add128(s_hi, s_lo, inc_hi, inc_lo), _PCG_MULT)
    return (*_add128(m_hi, m_lo, inc_hi, inc_lo), inc_hi, inc_lo)


def spawn_key_uniforms(base_seed: int, spawn_key: tuple) -> np.ndarray:
    """First ``Generator.random()`` double of every spawn-key cell.

    ``spawn_key`` is as for :func:`spawn_key_states`.  Returns one float64
    per array element, bit-identical to::

        default_rng(SeedSequence(base_seed, spawn_key=cell)).random()
    """
    st_hi, st_lo, inc_hi, inc_lo = spawn_key_states(base_seed, spawn_key)
    st_hi, st_lo = _add128(*_mul128_const(st_hi, st_lo, _PCG_MULT), inc_hi, inc_lo)

    # xsl-rr output permutation of the 128-bit state, then the standard
    # 53-bit double conversion.
    xored = np.bitwise_xor(st_hi, st_lo)
    rot = st_hi >> _S58
    out = (xored >> rot) | (xored << ((np.uint64(64) - rot) & _S63))
    np.right_shift(out, _S11, out=out)
    return out * _INV_2_53


_DRAW_CHUNK = 1 << 16


def spawn_key_draws(base_seed: int, spawn_key: tuple, method: str, *args) -> np.ndarray:
    """``default_rng(SeedSequence(base_seed, spawn_key=cell)).<method>(*args)``
    for every cell, bit for bit, without building a generator per cell:
    one ``Generator`` is repositioned to each :func:`spawn_key_states` state
    (for draws like a ziggurat normal that use a data-dependent word count).
    """
    (axis,) = [i for i, c in enumerate(spawn_key) if isinstance(c, np.ndarray)]
    ids = spawn_key[axis]
    bitgen = np.random.PCG64()
    draw = getattr(np.random.Generator(bitgen), method)
    cell: dict = {}
    state = {"bit_generator": "PCG64", "state": cell, "has_uint32": 0, "uinteger": 0}
    out = np.empty(ids.shape[0])
    # Chunked so the per-cell Python ints stay small at a million cells.
    for lo in range(0, ids.shape[0], _DRAW_CHUNK):
        key = spawn_key[:axis] + (ids[lo:lo + _DRAW_CHUNK],) + spawn_key[axis + 1:]
        halves = [w.tolist() for w in spawn_key_states(base_seed, key)]
        for j, (sh, sl, ih, il) in enumerate(zip(*halves), lo):
            cell["state"], cell["inc"] = sh << 64 | sl, ih << 64 | il
            bitgen.state = state
            out[j] = draw(*args)
    return out


def _hash_const_at(call_index: int) -> int:
    """The evolving hashmix constant before its ``call_index``-th use.

    ``hash_const`` starts at INIT_A and multiplies by MULT_A on every
    hashmix call regardless of the data, so the constant at any position
    in the mixing schedule is known ahead of time.
    """
    return (_INIT_A * pow(_MULT_A, call_index, 1 << 32)) & _U32


class CellBatchKernel:
    """Repeated whole-fleet draws for spawn keys ``(*prefix, id, *suffix)``.

    The generic :func:`spawn_key_uniforms` allocates every intermediate
    array per call; a fleet advance calls it once per slot with the same
    id column and only the scalar prefix (the slot index) changing.  This
    kernel exploits that shape:

    * the four id-dependent hashmix rows of the entropy-mixing pass use
      hash constants fixed by the id word's *position* in the key, so
      they are computed once and cached (pre-multiplied by MIX_MULT_R,
      the only form the mix step needs);
    * every other mixing word is a scalar, evaluated in exact-arithmetic
      Python ints;
    * the per-call vector work runs over cache-sized chunks with all
      scratch buffers preallocated, cutting allocator and memory traffic
      roughly in half versus the generic path.

    Output is bit-identical to :func:`spawn_key_uniforms` (tests pin
    both against ``np.random`` itself).
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
        self._id_word = len(seed_words) + self.n_prefix
        id_call = 4 * self._id_word
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
        self._u64 = [np.empty(chunk, dtype=np.uint64) for _ in range(8)]

    def _scalar_pool_before_id(self, prefix: tuple) -> list[int]:
        """Entropy pool mixed through every word preceding the id column."""
        if len(prefix) != self.n_prefix:
            raise ValueError("prefix arity changed")
        words = list(self._seed_words)
        for component in prefix:
            value = int(component)
            if not 0 <= value <= _U32:
                raise ValueError("prefix components must fit in uint32")
            words.append(value)
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

    def uniforms(self, prefix: tuple = (), suffix: tuple = (), out: np.ndarray | None = None) -> np.ndarray:
        """One double per id for spawn key ``(*prefix, id, *suffix)``."""
        if len(suffix) != self.n_suffix:
            raise ValueError("suffix arity changed")
        scalar_pool = self._scalar_pool_before_id(prefix)
        # Scalar halves of the id-row mix: pool[dst] * MIX_MULT_L.
        left = [(scalar_pool[dst] * _MIX_L) & _U32 for dst in range(_POOL_SIZE)]
        # Suffix rows' hashmix values are scalars with known constants.
        suffix_hashed = []
        hash_const = _hash_const_at(self._suffix_call)
        for component in suffix:
            value = int(component)
            if not 0 <= value <= _U32:
                raise ValueError("suffix components must fit in uint32")
            for _ in range(_POOL_SIZE):
                mixed, hash_const = _hashmix_scalar(value, hash_const)
                suffix_hashed.append((mixed * _MIX_R) & _U32)

        if out is None:
            out = np.empty(self.n, dtype=np.float64)
        elif out.shape != (self.n,) or out.dtype != np.float64:
            raise ValueError("out must be a float64 array of length n")

        pool = self._pool32
        w = self._w32
        u64 = self._u64
        chunk = self._chunk
        for block, lo in enumerate(range(0, self.n, chunk)):
            hi = min(lo + chunk, self.n)
            m = hi - lo
            rows = self._id_rows[block]
            pool_c = [p[:m] for p in pool]
            w_c = [x[:m] for x in w]
            u_c = [x[:m] for x in u64]
            # id row: pool[dst] = mix(scalar_pool[dst], hashmix(ids)).
            for dst in range(_POOL_SIZE):
                np.subtract(np.uint32(left[dst]), rows[dst][:m], out=pool_c[dst])
                np.bitwise_xor(pool_c[dst], pool_c[dst] >> _S16, out=pool_c[dst])
            # suffix rows: pool[dst] = mix(pool[dst], hashmix(word)).
            k = 0
            for _ in suffix:
                for dst in range(_POOL_SIZE):
                    np.multiply(pool_c[dst], np.uint32(_MIX_L), out=pool_c[dst])
                    np.subtract(pool_c[dst], np.uint32(suffix_hashed[k]), out=pool_c[dst])
                    np.bitwise_xor(pool_c[dst], pool_c[dst] >> _S16, out=pool_c[dst])
                    k += 1
            # generate_state(4, uint64) output pass.
            hash_const = _INIT_B
            for i in range(2 * _POOL_SIZE):
                next_const = (hash_const * _MULT_B) & _U32
                np.bitwise_xor(pool_c[i % _POOL_SIZE], np.uint32(hash_const), out=w_c[i])
                np.multiply(w_c[i], np.uint32(next_const), out=w_c[i])
                np.bitwise_xor(w_c[i], w_c[i] >> _S16, out=w_c[i])
                hash_const = next_const
            # Pack uint32 pairs -> uint64 halves of initstate/initseq.
            for j in range(4):
                np.copyto(u_c[j], w_c[2 * j + 1], casting="safe")
                np.left_shift(u_c[j], _S32, out=u_c[j])
                np.bitwise_or(u_c[j], w_c[2 * j], out=u_c[j])
            s_hi, s_lo, i_hi, i_lo = u_c[0], u_c[1], u_c[2], u_c[3]
            t_hi, t_lo = _mul128_const(s_hi, s_lo, _MULT_SQ)
            q_hi, q_lo = _mul128_const(i_hi, i_lo, _SEQ_MULT)
            st_hi, st_lo = _add128(t_hi, t_lo, q_hi, q_lo)
            prev_lo = st_lo.copy()
            st_lo += np.uint64(_STEP_ADD & _U64)
            st_hi += np.uint64(_STEP_ADD >> 64)
            st_hi += st_lo < prev_lo
            xored = np.bitwise_xor(st_hi, st_lo)
            rot = st_hi >> _S58
            word = (xored >> rot) | (xored << ((np.uint64(64) - rot) & _S63))
            np.right_shift(word, _S11, out=word)
            np.multiply(word, _INV_2_53, out=out[lo:hi], casting="unsafe")
        return out
