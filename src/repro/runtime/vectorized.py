"""Vectorized mass-trial backend: thousands of independent trials as arrays.

The generator :class:`~repro.runtime.simulator.Simulator` executes one trial
at a time, one shared-memory operation per Python-level step — faithful, but
~430k steps/sec.  The paper's guarantees are statements about *ensembles* of
independent executions, and independent trials of the same algorithm under a
lockstep schedule are an embarrassingly vectorizable workload: this module
runs blocks of trials simultaneously, a few NumPy array ops per *round*
instead of one Python step per *operation*.

Each block draws its coins and raw order keys whole, then runs the kernel
tile by tile: ``max(1, _TILE_ELEMENTS // n)`` trials at a time, sized so a
tile's arrays stay in a 2 MB L2 cache.  A tile ranks its slice of the keys
into *round-major* ``(rounds, tile, n)`` orders, so each round's gathers and
scatters walk one contiguous ``(tile, n)`` slice through flat 1-D indices.
Trial rows are independent and a row's ranking depends only on its own
keys, so the tile size never changes results; the block's peak memory no
longer grows with ``VECTORIZED_BLOCK_TRIALS x rounds x n`` int64 index
arrays.

Why lockstep schedules?  A round-based algorithm's outcome is a pure
function of (a) the coins frozen into each persona and (b) the *relative
order* of same-round operations — round ``i`` only ever touches round ``i``'s
shared object.  When the schedule advances every process through the same
round window together (``round-robin``, ``reversed``, ``front-runner`` after
its prefix, ``permuted``, ``interleaved`` — see :func:`supported_families`),
those per-round orders can be drawn as permutation arrays and the whole
ensemble becomes batched gather / prefix-maximum / scatter kernels:

- **Algorithm 2 (sifting)**: round ``i``'s register content at any position
  is the last writer before it; readers gather the running maximum of writer
  positions and adopt that persona.
- **Algorithm 1 (snapshot)**: a process adopts the max-priority persona
  among updates ordered before its scan; scatter update keys into a
  positions window, prefix-maximize, gather at scan positions.  The
  footnote-1 max-register variant has identical adoption semantics, so both
  use the same kernel.
- **DoublingCIL**: a per-pass state machine (read / write-pending / done)
  over the single proposal register, with the same last-writer-prefix trick
  inside each pass.

Two modes, selected by the ``backend=`` parameter of the
:mod:`repro.analysis.experiments` runners:

- ``"vectorized"`` — the fast path.  Coins come from per-block
  ``numpy.random.PCG64`` streams keyed off the master seed; blocks are
  aligned to *absolute* trial indices (:data:`VECTORIZED_BLOCK_TRIALS`
  trials per block), so results are invariant to worker count, chunking,
  and the total trial count — the PR-1 by-index partitioning discipline,
  at block granularity.  Randomized schedule families here are restricted
  to the lockstep class above.
- ``"vectorized-oracle"`` — the differential-testing path.  Every trial
  consumes the *exact same* ``random.Random`` streams as the generator
  simulator (``trial_seed_tree(master, i)``, ``"schedule"`` and
  ``"algorithm"`` branches), and per-round operation orders are parsed from
  the real schedule object's slot stream.  Decisions are bit-identical to
  the generator per trial; since order parsing is generic over occurrence
  times, this mode also supports the non-lockstep ``random`` / ``blocks``
  families for sifting and snapshot.  It is slower than the generator and
  exists so ``tests/property/test_backend_equivalence.py`` can pin the fast
  kernels to the oracle.

NumPy stays an optional dependency: this module imports it lazily and
raises :class:`~repro.errors.ConfigurationError` with an install hint when
it is absent, so the zero-dependency core (and every generator-backend code
path) is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.parallel import run_indexed_trials
from repro.runtime.rng import SeedTree, _process_streams
from repro.workloads.schedules import make_schedule

__all__ = [
    "BACKENDS",
    "VECTOR_BACKENDS",
    "VECTORIZED_BLOCK_TRIALS",
    "VectorizedSweep",
    "max_priority_range",
    "numpy_available",
    "run_vectorized_sweep",
    "supported_families",
]

#: Every execution backend the experiment runners accept.
BACKENDS = ("generator", "vectorized", "vectorized-oracle")

#: The backends implemented by this module.
VECTOR_BACKENDS = ("vectorized", "vectorized-oracle")

#: Fast-mode trials per block.  This is a *seeding* constant, not a tuning
#: knob: block ``b`` covers absolute trials ``[b*B, (b+1)*B)`` and draws its
#: coins from streams keyed by ``b``, so trial ``i``'s randomness depends
#: only on ``(master_seed, i // B, i % B)`` — never on the total trial
#: count, the worker count, or chunking.  Changing it changes fast-mode
#: results, exactly like changing the master seed would.
VECTORIZED_BLOCK_TRIALS = 4096

#: Oracle-mode trials per block.  Semantically irrelevant (every trial has
#: its own streams); small so worker sharding has useful grain in tests.
_ORACLE_BLOCK_TRIALS = 8

#: Trial-elements (trials x n) per kernel tile.  A tile's per-round
#: ``(tile, n)`` index arrays are 128 KB of intp and its round-major
#: ``(rounds, tile, n)`` orders about 1.7 MB at sifting's 13 rounds, so a
#: tile's working set stays inside a 2 MB L2 cache, where whole-block
#: arrays (27 MB of orders for sifting at n=64) spill to memory.  Tiling
#: never changes results: trial rows are independent.
_TILE_ELEMENTS = 1 << 14

#: Families every kernel supports in both modes: exactly one slot per
#: process per window, windows aligned across processes.
_SINGLE_SLOT_FAMILIES = ("round-robin", "reversed", "permuted")

#: Deterministic families (orders identical across trials).
_DETERMINISTIC_FAMILIES = ("round-robin", "reversed", "front-runner")

_INSTALL_HINT = (
    "backend='vectorized' requires NumPy, which is not installed; install "
    "it with `pip install numpy`, or use the default generator backend"
)


def numpy_available() -> bool:
    """True when ``import numpy`` succeeds (the backend is usable).

    Only a missing NumPy reads as unavailable: an installed NumPy whose
    import fails some other way raises, rather than passing for absent.
    """
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _require_numpy():
    try:
        import numpy
    except ImportError as error:
        raise ConfigurationError(_INSTALL_HINT) from error
    return numpy


# ----- algorithm plans -------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    """Everything a kernel needs, extracted from a conciliator instance."""

    algorithm: str  # "sifting" | "snapshot" | "cil"
    n: int
    rounds: int
    ops_per_round: int
    p_schedule: Tuple[float, ...] = ()
    priority_range: int = 0
    max_iterations: int = 0

    @property
    def ops_per_process(self) -> int:
        if self.algorithm == "cil":
            return self.max_iterations + 1
        return self.rounds * self.ops_per_round


def max_priority_range(n: int) -> int:
    """Largest snapshot priority range the kernel packs into int64 keys:
    ``(range + 1) * mult + n <= 2**63`` for keys ``priority * mult + origin``,
    ``mult`` the next power of two at or above ``n``."""
    mult = 1 << (n - 1).bit_length() if n > 1 else 2
    return (2**63 - n) // mult - 1


def _plan_for(conciliator: Any) -> _Plan:
    """Map a conciliator instance onto a vectorized kernel, or refuse."""
    from repro.baselines.doubling_cil import DoublingCILConciliator
    from repro.core.sifting_conciliator import SiftingConciliator
    from repro.core.snapshot_conciliator import SnapshotConciliator

    if isinstance(conciliator, SiftingConciliator):
        if conciliator.anonymous:
            raise ConfigurationError(
                "the vectorized backend tracks personae by origin id and "
                "does not support anonymous sifting; use the generator "
                "backend"
            )
        return _Plan(
            algorithm="sifting",
            n=conciliator.n,
            rounds=conciliator.rounds,
            ops_per_round=1,
            p_schedule=tuple(conciliator.p_schedule),
        )
    if isinstance(conciliator, SnapshotConciliator):
        # One update + one scan per round; the max-register variant adopts
        # by the same (priority, origin) maximum over preceding writes, so
        # it shares the kernel.
        if conciliator.priority_range > max_priority_range(conciliator.n):
            raise ConfigurationError(
                "priority_range * n overflows the vectorized kernel's "
                "int64 adoption keys; use the generator backend"
            )
        return _Plan(
            algorithm="snapshot",
            n=conciliator.n,
            rounds=conciliator.rounds,
            ops_per_round=2,
            priority_range=conciliator.priority_range,
        )
    if isinstance(conciliator, DoublingCILConciliator):
        return _Plan(
            algorithm="cil",
            n=conciliator.n,
            rounds=conciliator.max_iterations + 1,
            ops_per_round=1,
            max_iterations=conciliator.max_iterations,
        )
    raise ConfigurationError(
        "the vectorized backend supports SiftingConciliator, "
        "SnapshotConciliator, and DoublingCILConciliator; got "
        f"{type(conciliator).__name__} — use the generator backend"
    )


def supported_families(algorithm: str, oracle: bool) -> Tuple[str, ...]:
    """Schedule families a kernel accepts in the given mode.

    The fast mode is limited to lockstep(-ish) families whose per-round
    orders it can draw directly as permutation arrays; the oracle mode
    parses orders from the real schedule's slot stream, which additionally
    admits any non-starving family for the fixed-length algorithms.  The
    CIL baseline's operation sequence is coin-dependent, so it needs strict
    one-slot-per-window alignment in both modes.
    """
    if algorithm == "cil":
        return _SINGLE_SLOT_FAMILIES
    lockstep = _SINGLE_SLOT_FAMILIES + ("interleaved", "front-runner")
    if oracle:
        return lockstep + ("random", "blocks")
    return lockstep


def _check_family(plan: _Plan, family: str, oracle: bool) -> None:
    families = supported_families(plan.algorithm, oracle)
    if family in families:
        return
    mode = "vectorized-oracle" if oracle else "vectorized"
    hint = ""
    if not oracle and family in supported_families(plan.algorithm, True):
        hint = " (backend='vectorized-oracle' supports it, slowly)"
    raise ConfigurationError(
        f"schedule family {family!r} is not lockstep-compatible with the "
        f"{plan.algorithm} kernel under backend={mode!r}; choose from "
        f"{families}{hint}, or use the generator backend"
    )


# ----- order construction ----------------------------------------------------


def _occurrence_times(schedule: Any, n: int, total_ops: int) -> List[List[int]]:
    """``times[pid][j]`` = global slot index of pid's ``j``-th charged step.

    Generic over any schedule: slots granted to a process beyond its
    ``total_ops``-th are free no-ops (the process has finished) and do not
    advance its count.  Only *relative* order matters downstream.
    """
    times = [[0] * total_ops for _ in range(n)]
    counts = [0] * n
    need = n * total_ops
    seen = 0
    guard = 1000 * need + 100_000
    for slot, pid in enumerate(iter(schedule)):
        if slot > guard:
            raise ConfigurationError(
                f"schedule starves a process: {need - seen} charged steps "
                f"still missing after {slot} slots"
            )
        count = counts[pid]
        if count < total_ops:
            times[pid][count] = slot
            counts[pid] = count + 1
            seen += 1
            if seen == need:
                break
    return times


def _orders_from_times(times: List[List[int]], rounds: int) -> List[List[int]]:
    """Per-round execution orders for one-op-per-round algorithms."""
    n = len(times)
    return [
        sorted(range(n), key=lambda pid: times[pid][r]) for r in range(rounds)
    ]


def _positions_from_times(
    times: List[List[int]], rounds: int
) -> Tuple[List[List[int]], List[List[int]]]:
    """Per-round update/scan positions (ranks in the round's 2n-op window)."""
    n = len(times)
    u_pos: List[List[int]] = []
    s_pos: List[List[int]] = []
    for r in range(rounds):
        events = [(times[pid][2 * r], 0, pid) for pid in range(n)]
        events += [(times[pid][2 * r + 1], 1, pid) for pid in range(n)]
        events.sort()
        u_row = [0] * n
        s_row = [0] * n
        for rank, (_, which, pid) in enumerate(events):
            if which == 0:
                u_row[pid] = rank
            else:
                s_row[pid] = rank
        u_pos.append(u_row)
        s_pos.append(s_row)
    return u_pos, s_pos


def _inverse_permutations(np: Any, order: Any) -> Any:
    """Positions array: ``pos[..., pid]`` = rank of ``pid`` in ``order``.

    One flat scatter of ``arange(m)`` through the permutation rows, with
    their row offsets baked in, instead of a second argsort: it gives the
    same positions at about half the cost on tile shapes, and unlike
    ``np.put_along_axis`` it adds no per-call overhead to one-trial sweeps.
    Positions are int32 (they are below ``m``), which halves the scatter's
    writes.
    """
    m = order.shape[-1]
    offsets = np.arange(0, order.size, m, dtype=np.intp)
    inverse = np.empty(order.shape, dtype=np.int32)
    inverse.reshape(-1)[order + offsets.reshape(order.shape[:-1] + (1,))] = (
        np.arange(m, dtype=np.int32)
    )
    return inverse


#: A block's order source: ``tile_orders(lo, hi)`` returns the kernel's
#: round-major orders for trials ``[lo, hi)`` of the block.  Sifting and
#: CIL take ``(orders,)``, one ``(passes, tile, n)`` array of pids in
#: execution order; snapshot takes ``(u_pos, s_pos)``, two ``(rounds, tile,
#: n)`` arrays of update and scan positions in the round's ``2n``-op window.
#: A tile axis of length 1 stands for orders shared by every trial.
_TileOrders = Callable[[int, int], Tuple[Any, ...]]


def _schedule_rows(np: Any, plan: _Plan, schedule: Any) -> Tuple[Any, ...]:
    """One schedule's orders as kernel rows, parsed from its slot stream:
    ``(orders,)`` of shape ``(passes, n)``, or snapshot's ``(u_pos,
    s_pos)`` of shape ``(rounds, n)``."""
    times = _occurrence_times(schedule, plan.n, plan.ops_per_process)
    if plan.algorithm == "snapshot":
        return tuple(map(np.asarray, _positions_from_times(times, plan.rounds)))
    return (np.asarray(_orders_from_times(times, plan.rounds)),)


def _schedule_orders(np: Any, rows: Sequence[Tuple[Any, ...]]) -> _TileOrders:
    """Orders parsed from real schedules: ``rows`` holds one
    :func:`_schedule_rows` result per trial of the block (oracle mode), or
    a single one shared by every trial (the deterministic families), whose
    tile axis of length 1 the kernels broadcast over the tile's rows."""
    arrays = [
        np.ascontiguousarray(np.asarray(field).transpose(1, 0, 2))
        for field in zip(*rows)
    ]

    def tile_orders(lo: int, hi: int) -> Tuple[Any, ...]:
        return tuple(
            array if array.shape[1] == 1 else array[:, lo:hi]
            for array in arrays
        )

    return tile_orders


def _fast_orders(
    np: Any, rng: Any, plan: _Plan, family: str, k: int
) -> _TileOrders:
    """Draw one block's order keys for the fast mode; return its tiles.

    Each call makes a fixed sequence of draws on the block's dedicated
    ``"schedule"`` stream, leading-dimension ``k``, so a partial final block
    is a prefix of a full one (C-order fill).  The keys are drawn for the
    whole block at once (``Generator.integers`` buffers 32-bit draws per
    call, so splitting the call could shift the stream) and ranked per
    tile: a row's argsort depends only on that row's keys.  Permutations
    come from argsorting uint32 keys.  Ties have probability
    ``~(2n)^2 / 2**33`` per window.  They do *not* resolve to index order:
    the default argsort is not stable, and its tie order depends on the CPU
    features NumPy dispatches to (it changes under
    ``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"``).
    Either way the bias is far below anything observable, and ``growth
    --quick`` still regenerated ``GROWTH_baseline.json`` byte for byte
    under that setting.
    """
    n, rounds = plan.n, plan.rounds
    snapshot = plan.algorithm == "snapshot"

    def uniform_keys(shape: Tuple[int, ...]) -> Any:
        return rng.integers(0, 2**32, size=shape, dtype=np.uint32)

    if family in _DETERMINISTIC_FAMILIES:
        schedule = make_schedule(family, n, SeedTree(0))
        return _schedule_orders(np, [_schedule_rows(np, plan, schedule)])
    if family == "permuted":
        # Snapshot draws two fresh permutations per round (update pass,
        # scan pass): positions are the pass ranks, scans offset into
        # [n, 2n).
        keys = uniform_keys((k, 2 * rounds if snapshot else rounds, n))

        def permuted(lo: int, hi: int) -> Tuple[Any, ...]:
            order = np.argsort(keys[lo:hi].transpose(1, 0, 2), axis=-1)
            if not snapshot:
                return (order,)
            pos = _inverse_permutations(np, order)
            return pos[0::2], pos[1::2] + n

        return permuted
    if family == "interleaved":
        # A window is a uniform shuffle of each pid twice; giving every
        # (pid, op) an iid uniform key and ranking reproduces exactly that
        # distribution, with the earlier of a pid's two ranks necessarily
        # its first operation (program order).
        windows = (rounds + 1) // 2 if plan.algorithm == "sifting" else rounds
        keys = uniform_keys((k, windows, n, 2))

        def interleaved(lo: int, hi: int) -> Tuple[Any, ...]:
            shape = (windows, hi - lo, n, 2)
            window_keys = keys[lo:hi].transpose(1, 0, 2, 3).reshape(
                windows, hi - lo, 2 * n
            )
            ranks = _inverse_permutations(
                np, np.argsort(window_keys, axis=-1)
            ).reshape(shape)
            # Elementwise minimum over explicit slices: reducing over a
            # length-2 trailing axis is pathologically slow in numpy.
            first = np.minimum(ranks[..., 0], ranks[..., 1])
            second = np.maximum(ranks[..., 0], ranks[..., 1])
            if snapshot:
                return first, second
            orders = np.empty((2 * windows,) + shape[1:3], dtype=np.intp)
            orders[0::2] = np.argsort(first, axis=-1)
            orders[1::2] = np.argsort(second, axis=-1)
            return (orders[:rounds],)

        return interleaved
    raise ConfigurationError(
        f"fast-mode order construction missing for family {family!r}"
    )  # pragma: no cover - guarded by _check_family


# ----- coin draws ------------------------------------------------------------
#
# A block's coins are one trial-major array: sifting write bits (k, R, n)
# bool and snapshot priorities (k, R, n) int64, both [trial, r, origin]; CIL
# iteration uniforms (k, n, max_iterations) float64.


def _fast_coins(np: Any, rng: Any, plan: _Plan, k: int) -> Any:
    """One block's persona coins from its dedicated ``"personas"`` stream.

    Sifting write bits are drawn as 32-bit integer threshold compares
    (``key < floor(p * 2**32)``), which quantizes each write probability to
    a multiple of ``2**-32`` — a relative error below ``2**-32``, invisible
    to any statistical test at feasible sample sizes and roughly the same
    magnitude as the float rounding already inside the ``p`` values
    themselves.  Snapshot priorities and CIL iteration uniforms are drawn
    with the exact distributions the generator uses.
    """
    n = plan.n
    if plan.algorithm == "sifting":
        keys = rng.integers(0, 2**32, size=(k, plan.rounds, n), dtype=np.uint32)
        exact = np.floor(np.asarray(plan.p_schedule) * float(2**32))
        thresholds = np.minimum(exact, float(2**32 - 1)).astype(np.uint32)
        bits = keys < thresholds[None, :, None]
        for index, value in enumerate(plan.p_schedule):
            if value >= 1.0:  # clipped above; restore the sure-write rounds
                bits[:, index, :] = True
        return bits
    if plan.algorithm == "snapshot":
        return rng.integers(
            1, plan.priority_range + 1, size=(k, plan.rounds, n),
            dtype=np.int64,
        )
    return rng.random((k, n, plan.max_iterations))


def _oracle_coins(np: Any, plan: _Plan, trial_seeds: SeedTree) -> Any:
    """One trial's persona coins, replaying the generator's exact streams.

    Per process the generator draws, in order: sifting — one ``random()``
    per round then the combine coin; snapshot — one ``randint`` per round
    then the coin; CIL — the coin first, then one lazy ``random()`` per
    iteration.  Pre-drawing the CIL uniforms past the point the generator
    stops is invisible (the stream is private to the process and decisions
    depend only on the consumed prefix).
    """
    n = plan.n
    streams = _process_streams(trial_seeds, n)
    if plan.algorithm == "sifting":
        bits = np.empty((plan.rounds, n), dtype=bool)
        for pid, rng in enumerate(streams):
            bits[:, pid] = [rng.random() < p for p in plan.p_schedule]
            rng.randrange(2)  # the combine coin, unused by the decision
        return bits
    if plan.algorithm == "snapshot":
        prio = np.empty((plan.rounds, n), dtype=np.int64)
        for pid, rng in enumerate(streams):
            prio[:, pid] = [
                rng.randint(1, plan.priority_range)
                for _ in range(plan.rounds)
            ]
            rng.randrange(2)
        return prio
    uniforms = np.empty((n, plan.max_iterations))
    for pid, rng in enumerate(streams):
        rng.randrange(2)  # persona coin is drawn before the loop
        uniforms[pid] = [rng.random() for _ in range(plan.max_iterations)]
    return uniforms


# ----- kernels ---------------------------------------------------------------
#
# Each kernel runs one tile: ``coins`` is the tile's trial-major slice of the
# block's coins, ``orders`` its round-major orders (see ``_TileOrders``), so
# every round's gather and scatter walks one contiguous ``(tile, n)`` slice.
# A kernel returns (holder, steps, survivors): ``(tile, n)`` final persona
# origins and charged steps, and a ``(tile, rounds)`` survivor-count array
# when asked for one (``None`` for CIL, which has no per-round survivors).
# Gathers and scatters go through precomputed *flat* indices (trial-row
# offsets baked in) rather than ``take_along_axis``: 1-D fancy indexing is
# the cheapest gather/scatter numpy offers.


def _distinct_counts(np: Any, holder: Any) -> Any:
    """Distinct persona count per trial row (the survivor variable Y_i)."""
    ordered = np.sort(holder, axis=1)
    return 1 + (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1)


def _sifting_kernel(
    np: Any, write_bits: Any, orders: Tuple[Any, ...], survivors: bool
) -> Tuple[Any, Any, Optional[Any]]:
    """Batched Algorithm 2 over one tile."""
    (orders,) = orders
    k, rounds, n = write_bits.shape
    row_base = np.arange(0, k * n, n, dtype=np.intp)[:, None]
    # Register contents ride a single running maximum: encode a write at
    # position j as j * mult + persona and a *read* as (j - n) * mult +
    # persona.  Both families are position-dominant and every write beats
    # every read, so the prefix maximum at position j is the last write
    # before j when one exists — and otherwise position j's own (reader)
    # entry, which decodes back to its own persona.  The persona is the
    # low bits either way (mod-mult arithmetic survives the negatives).
    mult = 1 << (n - 1).bit_length() if n > 1 else 2
    nmult = n * mult
    # Encoded values span (-nmult, nmult); int32 halves the memory traffic
    # of every gather and prefix pass whenever that range fits (it always
    # does at realistic n — the fallback keeps huge n correct, not fast).
    dtype = np.int32 if nmult < 2**31 else np.intp
    holder = np.tile(np.arange(n, dtype=dtype), k)
    posmult = np.arange(n, dtype=dtype) * mult
    # The persona part of the encoding (persona, minus the read penalty
    # when round r's coin says read) depends only on (round, persona), so
    # bake it into one round-major table up front: the round loop then
    # needs a single gather, into round r's slice by trial row and persona.
    adjusted = np.where(
        np.ascontiguousarray(write_bits.transpose(1, 0, 2)),
        np.arange(n, dtype=dtype),
        np.arange(n, dtype=dtype) - dtype(nmult),
    ).reshape(rounds, k * n)
    flat_orders = orders + row_base
    series = np.empty((k, rounds), dtype=np.intp) if survivors else None
    for r in range(rounds):
        flat = flat_orders[r]
        held = holder[flat]  # persona at each schedule position
        encoded = posmult + adjusted[r][row_base + held]
        last_write = np.maximum.accumulate(encoded, axis=1)
        holder[flat] = last_write & (mult - 1)
        if series is not None:
            series[:, r] = _distinct_counts(np, holder.reshape(k, n))
    steps = np.full((k, n), rounds, dtype=np.int64)
    return holder.reshape(k, n), steps, series


def _snapshot_kernel(
    np: Any, priorities: Any, orders: Tuple[Any, ...], survivors: bool
) -> Tuple[Any, Any, Optional[Any]]:
    """Batched Algorithm 1 over one tile.

    Adoption keys pack ``(round priority, origin)`` lexicographically as
    ``priority * mult + origin`` with ``mult`` the next power of two above
    the largest origin, so the origin decodes with a bitmask instead of a
    modulo (the guard in :func:`_plan_for` keeps the product inside int64).
    """
    u_pos, s_pos = orders
    k, rounds, n = priorities.shape
    mult = 1 << (n - 1).bit_length()
    # Key of persona p in round r packs (priority, origin) once for every
    # (trial, round, persona) up front; the round loop gathers finished
    # keys instead of re-deriving them.  Min priority 1 keeps every key
    # strictly above the empty-slot sentinel.  As in the sifting kernel,
    # int32 halves memory traffic whenever the packed keys fit.
    peak = int(priorities.max()) * mult + n if priorities.size else 0
    dtype = np.int32 if peak < 2**31 else np.int64
    # Every process starts as its own persona; round 0 broadcasts this row
    # over the trial rows (rounds >= 1 is enforced at construction).
    holder = np.arange(n, dtype=dtype)
    # Round-major, so round r's keys are one slice indexed by trial row
    # and persona.
    keys = np.multiply(priorities.transpose(1, 0, 2), mult, order="C")
    keys += np.arange(n, dtype=np.int64)
    keys = keys.reshape(rounds, k * n).astype(dtype, copy=False)
    row_base = np.arange(0, k * n, n, dtype=np.intp)[:, None]
    window_row = np.arange(0, k * 2 * n, 2 * n, dtype=np.intp)[:, None]
    u_flat = u_pos + window_row
    s_flat = s_pos + window_row
    window = np.empty(k * 2 * n, dtype=dtype)
    series = np.empty((k, rounds), dtype=np.intp) if survivors else None
    for r in range(rounds):
        key = keys[r][row_base + holder]
        window[:] = -1
        window[u_flat[r]] = key
        running_max = np.maximum.accumulate(window.reshape(k, 2 * n), axis=1)
        # A process's own update precedes its scan, so seen >= its own key
        # and the -1 sentinel never leaks through the mask decode.
        seen = running_max.reshape(-1)[s_flat[r]]
        holder = seen & (mult - 1)
        if series is not None:
            series[:, r] = _distinct_counts(np, holder)
    steps = np.full((k, n), 2 * rounds, dtype=np.int64)
    return holder, steps, series


def _cil_kernel(
    np: Any, uniforms: Any, orders: Tuple[Any, ...], survivors: bool
) -> Tuple[Any, Any, Optional[Any]]:
    """Batched DoublingCIL over one tile.

    Per pass each live process takes one slot: a pending writer publishes
    its own persona and finishes; a reader adopts the last same-pass writer
    before its position (else the carried register), or flips its iteration
    coin and either schedules a write for its next slot or stays reading.
    The generator's charged-step accounting (one per read, one for the
    final write, nothing after finishing) falls out of the ``live`` mask.
    """
    (orders,) = orders
    k, n, max_iterations = uniforms.shape
    exponents = np.arange(max_iterations, dtype=np.float64)
    p_schedule = np.minimum(1.0, (2.0 ** exponents) / (2.0 * n))
    uniforms_flat = uniforms.reshape(-1)
    row_base = np.arange(0, k * n, n, dtype=np.intp)[:, None]
    # Writers are tagged position-dominant, as in the sifting kernel: the
    # prefix maximum of ``position * mult + pid`` over writing positions is
    # the last writer so far, and its pid is the low bits.
    mult = 1 << (n - 1).bit_length()
    posmult = np.arange(n, dtype=np.int64) * mult
    holder = np.tile(np.arange(n, dtype=np.int64), k)
    steps = np.zeros(k * n, dtype=np.int64)
    # phase: 0 = reading, 1 = write pending (next slot), 2 = done
    phase = np.zeros(k * n, dtype=np.int8)
    iteration = np.zeros(k * n, dtype=np.intp)
    register = np.full(k, -1, dtype=np.int64)
    for order, flat in zip(orders, orders + row_base):
        if not (phase < 2).any():
            break
        phase_here = phase[flat]
        live = phase_here < 2
        writing = phase_here == 1
        reading = phase_here == 0
        last_writer = np.maximum.accumulate(
            np.where(writing, posmult + order, -1), axis=1
        )
        content = np.where(
            last_writer >= 0, last_writer & (mult - 1), register[:, None]
        )
        undecided = reading & (content < 0)
        adopts = reading ^ undecided
        iter_here = np.minimum(iteration[flat], max_iterations - 1)
        u_here = uniforms_flat[flat * max_iterations + iter_here]
        wants_write = undecided & (u_here < p_schedule[iter_here])
        holder[flat] = np.where(adopts, content, holder[flat])
        phase[flat] = np.where(
            adopts | writing, 2, np.where(wants_write, 1, phase_here)
        )
        iteration[flat] += undecided ^ wants_write
        steps[flat] += live
        final_writer = last_writer[:, -1]
        register = np.where(
            final_writer >= 0, final_writer & (mult - 1), register
        )
    if (phase < 2).any():  # pragma: no cover - p reaches 1 within the bound
        raise ConfigurationError(
            "CIL kernel failed to terminate within its pass bound"
        )
    return holder.reshape(k, n), steps.reshape(k, n), None


_KERNELS: Dict[str, Callable[..., Tuple[Any, Any, Optional[Any]]]] = {
    "sifting": _sifting_kernel,
    "snapshot": _snapshot_kernel,
    "cil": _cil_kernel,
}


# ----- sweep orchestration ---------------------------------------------------


class _BlockOutcome(NamedTuple):
    """Per-block record shipped back from workers (must stay picklable)."""

    agreement: List[int]
    individual_steps: List[float]
    total_steps: List[float]
    decisions: Optional[List[Tuple[Any, ...]]]
    survivors: Optional[List[Tuple[int, ...]]]


@dataclass(frozen=True)
class VectorizedSweep:
    """The result of a vectorized mass-trial sweep.

    Per-trial vectors are ordered by absolute trial index; ``decisions``
    and ``survivor_series`` are populated only when requested (they are
    what the differential test suite compares against the generator).
    """

    kind: str
    backend: str
    schedule_family: str
    n: int
    trials: int
    agreement: Tuple[int, ...]
    individual_steps: Tuple[float, ...]
    total_steps: Tuple[float, ...]
    decisions: Optional[Tuple[Tuple[Any, ...], ...]] = None
    survivor_series: Optional[Tuple[Tuple[int, ...], ...]] = None

    @property
    def agreement_count(self) -> int:
        return sum(self.agreement)

    def stats(self) -> Any:
        """This sweep as a :class:`ConciliatorTrialStats`.

        Fields are computed with the same trial-order reductions as the
        generator runner, so an oracle-mode sweep's stats are bit-identical
        to ``run_conciliator_trials`` on the generator backend.
        """
        from repro.analysis.experiments import ConciliatorTrialStats
        from repro.analysis.stats import summarize

        return ConciliatorTrialStats(
            n=self.n,
            trials=self.trials,
            agreement_count=self.agreement_count,
            individual_steps=summarize(list(self.individual_steps)),
            total_steps=summarize(list(self.total_steps)),
            validity_failures=0,
            kind=self.kind,
        )

    def decay_series(self) -> List[float]:
        """Mean survivors per round, folded exactly like ``decay_series``."""
        if self.survivor_series is None:
            raise ConfigurationError(
                "sweep was run without collect_survivors=True"
            )
        sums: Dict[int, float] = {}
        rounds_seen = 0
        for series in self.survivor_series:
            rounds_seen = max(rounds_seen, len(series))
            for index, count in enumerate(series):
                sums[index] = sums.get(index, 0.0) + count
        return [
            sums.get(index, 0.0) / self.trials for index in range(rounds_seen)
        ]


def _canonical_value_ids(inputs: Sequence[Any]) -> List[int]:
    """Map each input slot to the first slot holding an equal value.

    One pass with a first-occurrence dict; equal values share a key even
    when distinct (``1``, ``1.0`` and ``True`` all map to the first of
    them), and equality is the generator's set semantics (identity, then
    ``==``).  Unhashable inputs fall back to the pairwise scan.
    """
    first: Dict[Any, int] = {}
    try:
        return [first.setdefault(value, index)
                for index, value in enumerate(inputs)]
    except TypeError:
        pass
    ids: List[int] = []
    for index, value in enumerate(inputs):
        match = index
        for earlier in range(index):
            if inputs[earlier] == value:
                match = earlier
                break
        ids.append(match)
    return ids


def _run_block(
    np: Any,
    plan: _Plan,
    family: str,
    oracle: bool,
    master_seed: int,
    block: int,
    start: int,
    count: int,
    value_of: Any,
    inputs: List[Any],
    collect_decisions: bool,
    collect_survivors: bool,
) -> _BlockOutcome:
    """Execute one block of ``count`` trials starting at absolute ``start``.

    The block's coins and order keys are drawn whole; the kernel then runs
    tile by tile (:data:`_TILE_ELEMENTS`), and each tile's rows are reduced
    into the outcome lists in trial order.
    """
    if oracle:
        from repro.analysis.experiments import trial_seed_tree

        trial_seeds = [
            trial_seed_tree(master_seed, trial)
            for trial in range(start, start + count)
        ]
        coins = np.stack([
            _oracle_coins(np, plan, seeds) for seeds in trial_seeds
        ])
        tile_orders = _schedule_orders(np, [
            _schedule_rows(
                np, plan, make_schedule(family, plan.n, seeds.child("schedule"))
            )
            for seeds in trial_seeds
        ])
    else:
        root = SeedTree(master_seed).child("vectorized").child(f"block-{block}")
        coin_rng = np.random.Generator(
            np.random.PCG64(root.child("personas").seed)
        )
        order_rng = np.random.Generator(
            np.random.PCG64(root.child("schedule").seed)
        )
        coins = _fast_coins(np, coin_rng, plan, count)
        tile_orders = _fast_orders(np, order_rng, plan, family, count)
    kernel = _KERNELS[plan.algorithm]
    outcome = _BlockOutcome(
        agreement=[],
        individual_steps=[],
        total_steps=[],
        decisions=[] if collect_decisions else None,
        survivors=[] if collect_survivors else None,
    )
    tile = max(1, _TILE_ELEMENTS // plan.n)
    for lo in range(0, count, tile):
        hi = min(lo + tile, count)
        holder, steps, series = kernel(
            np, coins[lo:hi], tile_orders(lo, hi), collect_survivors
        )
        decided = value_of[holder]
        agreement = (decided == decided[:, :1]).all(axis=1)
        outcome.agreement.extend(agreement.astype(int).tolist())
        outcome.individual_steps.extend(
            steps.max(axis=1).astype(float).tolist()
        )
        outcome.total_steps.extend(steps.sum(axis=1).astype(float).tolist())
        if outcome.decisions is not None:
            outcome.decisions.extend(
                tuple(inputs[pid] for pid in row) for row in holder.tolist()
            )
        if outcome.survivors is not None:
            if series is not None:
                outcome.survivors.extend(map(tuple, series.tolist()))
            else:
                # Kernels without a per-round survivor notion (CIL) still
                # owe one (empty) series per trial so the container stays
                # rectangular.
                outcome.survivors.extend([()] * (hi - lo))
    return outcome


def run_vectorized_sweep(
    factory: Callable[[], Any],
    inputs: Sequence[Any],
    *,
    schedule_family: str = "permuted",
    trials: int = 100,
    master_seed: int = 0,
    oracle: bool = False,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    run_key: str = "",
    collect_decisions: bool = False,
    collect_survivors: bool = False,
) -> VectorizedSweep:
    """Run ``trials`` independent executions on the vectorized backend.

    ``factory`` must build one of the supported conciliators
    (:class:`SiftingConciliator`, :class:`SnapshotConciliator`,
    :class:`DoublingCILConciliator`); its configuration (rounds,
    probability schedule, priority range) is extracted and batched.

    Trials are grouped into blocks (:data:`VECTORIZED_BLOCK_TRIALS` in the
    fast mode) and blocks are sharded with the same index-ordered engine as
    the generator runners, so ``workers``/``chunk_size`` (here counted in
    blocks) never change results, and ``checkpoint_path`` journals finished
    blocks.  In oracle mode trial ``i`` consumes exactly the generator's
    seed streams; in the fast mode trial ``i``'s randomness depends only on
    ``(master_seed, i)`` through its block, so results are also invariant
    to the *total* trial count.
    """
    np = _require_numpy()
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    inputs = list(inputs)
    conciliator = factory()
    plan = _plan_for(conciliator)
    if plan.n != len(inputs):
        raise ConfigurationError(
            f"got {len(inputs)} inputs for a conciliator with n={plan.n}"
        )
    if plan.n < 2:
        raise ConfigurationError(
            f"a sweep needs at least 2 processes (inputs), got {plan.n}"
        )
    _check_family(plan, schedule_family, oracle)
    kind = getattr(conciliator, "name", None) or type(conciliator).__name__
    value_of = np.asarray(_canonical_value_ids(inputs))
    block_trials = _ORACLE_BLOCK_TRIALS if oracle else VECTORIZED_BLOCK_TRIALS
    blocks = (trials + block_trials - 1) // block_trials

    def task(block: int) -> _BlockOutcome:
        start = block * block_trials
        count = min(block_trials, trials - start)
        return _run_block(
            np, plan, schedule_family, oracle, master_seed, block,
            start, count, value_of, inputs,
            collect_decisions, collect_survivors,
        )

    outcomes = run_indexed_trials(
        task,
        blocks,
        workers=workers,
        chunk_size=chunk_size,
        checkpoint_path=checkpoint_path,
        run_key=run_key,
    )
    agreement: List[int] = []
    individual: List[float] = []
    totals: List[float] = []
    decisions: List[Tuple[Any, ...]] = []
    survivors: List[Tuple[int, ...]] = []
    for outcome in outcomes:
        agreement.extend(outcome.agreement)
        individual.extend(outcome.individual_steps)
        totals.extend(outcome.total_steps)
        if outcome.decisions is not None:
            decisions.extend(outcome.decisions)
        if outcome.survivors is not None:
            survivors.extend(outcome.survivors)
    return VectorizedSweep(
        kind=kind,
        backend="vectorized-oracle" if oracle else "vectorized",
        schedule_family=schedule_family,
        n=plan.n,
        trials=trials,
        agreement=tuple(agreement),
        individual_steps=tuple(individual),
        total_steps=tuple(totals),
        decisions=tuple(decisions) if collect_decisions else None,
        survivor_series=tuple(survivors) if collect_survivors else None,
    )
