"""Struct-of-arrays numpy backend for the Omega-network simulator.

Where the reference simulator advances one Python object at a time, this
kernel stores the whole network as a handful of integer arrays and
advances every switch of a stage per array operation:

* **Queue rings** — every input buffer, whatever its kind, stores its
  packets in per-destination queues: a ring array ``ring[stage, switch,
  input, output, slot]`` of packet ids with head/length registers.  The
  kinds differ only in how the slot pool is split (one partition per
  output for SAMQ/SAFC, the whole buffer per queue for DAMQ/FIFO) and in
  which heads may be read: a FIFO is the case where only the oldest
  head may leave, found by the arrival cycle stamped on each ring slot.
  Packet attributes (destination, creation and injection clocks) live
  in flat pools indexed by packet id.
* **Vectorized arbitration** — the reference arbiter's
  longest-unblocked-queue scan is re-expressed as an argmax over a
  composite key ``(length << 44) | (stale << 4) | (radix-1-output)``
  that encodes the exact lexicographic preference (length, then stale
  count when smart, then lowest output index).  Rotating the key rows by
  each switch's priority pointer turns the round-robin examination order
  into ``radix`` argmax steps executed for all switches of a stage at
  once; granted output columns are invalidated between steps, and the
  SAFC's multi-read passes loop until no switch makes progress — the
  same fixpoint the reference while-loop reaches.
* **Pre-decoded arrivals** — source draw sequences are state-independent
  (a stalled source draws nothing), so :mod:`repro.kernel.arrivals`
  decodes each source's raw PCG64 stream up front and injection becomes
  a vectorized countdown against per-source attempt schedules.
* **Simulation batching** — the quick/full experiment grids run many
  *structurally identical* configurations (same topology, capacity and
  clocking; different buffer kinds, protocols, loads, seeds, arbiter
  schemes or traffic patterns).  :meth:`NumpyKernel.batch` fuses ``B``
  such simulations into one kernel by widening the stage axis: virtual
  stage ``u = s * B + b`` holds network stage ``s`` of simulation ``b``.
  Simulations never interconnect — the inter-stage wiring offset simply
  becomes ``+B`` — so every array op amortizes its fixed dispatch cost
  over the whole batch, which is where the speedup over the reference
  simulator comes from at the paper's 64x64 scale.

Batching whole stages is exact because the inter-stage wiring is a
bijection: each downstream buffer has exactly one upstream feeder, so
the pushes of one switch can never affect another switch's flow-control
predicate within the same stage, and all granted (switch, input, output)
triples of a stage are unique.  One stage walk serves every cycle: it
visits segments of virtual stages last-to-first, exactly like the
reference ``step``.  While some downstream buffer of a blocking
simulation is full, each network stage is its own segment, so a stage's
blocked predicate sees its downstream stage after that stage popped.
Otherwise (always, under the discarding protocol) the blocked predicate
is identically false and one segment spans every virtual stage.
Deliveries are replayed through a scalar Welford loop in the reference's
(switch index, grant order) sequence so the latency accumulators match
bit for bit.

The result is byte-identical packed state — same packets, same grants,
same meters, same RNG stream consumption — verified every cycle by
:mod:`repro.kernel.differential`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.kernel.arrivals import GAP_SENTINEL, decode_arrivals
from repro.kernel.base import SimKernel, numpy_unsupported_reason
from repro.network.metrics import Meters, SimulationResult
from repro.network.simulator import (
    CYCLE_CLOCKS,
    SOURCE_QUEUE_CAPACITY,
    NetworkConfig,
)
from repro.network.topology import OmegaTopology
from repro.network.traffic import make_traffic
from repro.switch.flow_control import Protocol
from repro.utils.stats import OnlineStats

__all__ = ["NumpyKernel", "batch_group_key"]

#: Bit layout of the arbitration key: length in the high bits, stale
#: count (smart scheme only) in the middle, output preference in the low
#: nibble.  Requires radix <= 16 and stale counts < 2**40 — both far
#: beyond any configuration the simulator accepts in practice.
_LENGTH_SHIFT = 44
_STALE_SHIFT = 4

#: Any candidate with a non-empty queue scores at least ``1 << 44``
#: (length >= 1), while an empty queue's key — stale and rank bits only —
#: stays strictly below.  Using this threshold as the grant test makes
#: the explicit ``key[ql == 0] = -1`` masking unnecessary: empty-queue
#: candidates simply never win.
_VALID = 1 << _LENGTH_SHIFT

#: Measured cycles whose meter samples are deferred before a flush.
_FLUSH_CYCLES = 256

#: Arrival stamp of an empty queue: later than any real arrival, so an
#: oldest-head search never picks it.
_NEVER = np.iinfo(np.int64).max


def _cat(parts: tuple[Any, ...]) -> Any:
    """Concatenate per-segment arrays, skipping the copy for one segment."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def batch_group_key(config: NetworkConfig) -> tuple[Any, ...]:
    """Structural batching key: equal keys may share one kernel.

    Configurations in one batch must agree on everything that shapes the
    arrays — topology and slot count.  Everything else is a
    per-simulation property: offered load, seed, arbiter scheme, traffic
    pattern, protocol, flow-control fidelity and buffer kind (all four
    kinds share one ring layout) — which is how each of the paper's
    experiment grids runs as one kernel.
    """
    return (config.num_ports, config.radix, config.slots_per_buffer)


class NumpyKernel(SimKernel):
    """Struct-of-arrays simulation kernel (numpy backend)."""

    name = "numpy"

    def __init__(self, config: NetworkConfig) -> None:
        self._setup([config])

    @classmethod
    def batch(cls, configs: list[NetworkConfig]) -> "NumpyKernel":
        """Fuse structurally identical configs into one batched kernel."""
        kernel = cls.__new__(cls)
        kernel._setup(list(configs))
        return kernel

    def _setup(self, configs: list[NetworkConfig]) -> None:
        if not configs:
            raise ConfigurationError("a kernel batch needs at least one config")
        for config in configs:
            reason = numpy_unsupported_reason(config)
            if reason is not None:
                raise ConfigurationError(
                    f"the numpy backend cannot run this configuration ({reason})"
                )
        group = batch_group_key(configs[0])
        for config in configs[1:]:
            if batch_group_key(config) != group:
                raise ConfigurationError(
                    "batched configurations must be structurally identical "
                    f"({batch_group_key(config)} != {group})"
                )
        self.configs = configs
        self.config = configs[0]
        config = self.config
        topology = OmegaTopology(config.num_ports, config.radix)
        self.B = len(configs)
        self.N = config.num_ports
        self.BN = self.B * self.N
        self.R = config.radix
        self.S = topology.num_stages
        self.SV = self.S * self.B
        self.W = topology.switches_per_stage
        if self.R > 16:
            raise ConfigurationError(
                "the numpy backend's arbitration key packs the output "
                "index into 4 bits; radix > 16 needs the reference backend"
            )
        self.kinds = kinds = [cfg.buffer_kind for cfg in configs]
        self.C = config.slots_per_buffer
        cq_list = []
        for kind in kinds:
            if kind in ("SAMQ", "SAFC"):
                if self.C % self.R != 0:
                    raise ConfigurationError(
                        f"{kind} capacity {self.C} is not divisible by "
                        f"{self.R} output ports"
                    )
                cq_list.append(self.C // self.R)
            else:
                cq_list.append(self.C)
        # Per-sim queue capacity; the ring arrays are as wide as the
        # largest, and every wrap/fullness check uses the sim's own.
        self._cq_b = np.array(cq_list, dtype=np.int64)
        self.CqW = int(self._cq_b.max())
        self._cq_uniform = len(set(cq_list)) == 1
        self.Cq = cq_list[0] if self._cq_uniform else None
        reads_list = [self.R if kind == "SAFC" else 1 for kind in kinds]
        self._single_read = all(reads == 1 for reads in reads_list)
        self.max_reads = max(reads_list)
        smart_flags = [cfg.arbiter_kind == "smart" for cfg in configs]
        self._smart_all = all(smart_flags)
        self._smart_any = any(smart_flags)
        self.clk = CYCLE_CLOCKS
        blocking_flags = [
            cfg.protocol is Protocol.BLOCKING for cfg in configs
        ]
        self._blocking_any = any(blocking_flags)
        self._blocking_all = all(blocking_flags)
        conservative_flags = [
            blocking_flags[b]
            and cfg.flow_control_fidelity == "conservative"
            and kinds[b] in ("SAMQ", "SAFC")
            for b, cfg in enumerate(configs)
        ]
        # Buffer-level room/blocked semantics (whole buffer full) versus
        # queue-level (the destination's partition full).
        buflevel = [kind in ("FIFO", "DAMQ") for kind in kinds]
        self._buflevel_all = all(buflevel)
        self._buflevel_none = not any(buflevel)
        self.patterns = [
            make_traffic(
                cfg.traffic_kind, self.N, cfg.hot_fraction, cfg.hot_port
            )
            for cfg in configs
        ]

        B, N, R, S, W = self.B, self.N, self.R, self.S, self.W
        Cq = self.CqW
        SV = self.SV
        i64 = np.int64
        # Routing digit per network stage for every destination (shared
        # by all simulations — the topology is structural).
        self.digit = np.empty((S, N), dtype=i64)
        for destination in range(N):
            route = topology.route(0, destination)
            for stage in range(S):
                self.digit[stage, destination] = route[stage]
        # Inter-stage wiring (bijections) and stage-0 entry points.
        self.dw = np.empty((max(S - 1, 1), W, R), dtype=i64)
        self.di = np.empty((max(S - 1, 1), W, R), dtype=i64)
        for stage in range(S - 1):
            for switch in range(W):
                for output in range(R):
                    hop = topology.next_hop(stage, switch, output)
                    self.dw[stage, switch, output] = hop.switch
                    self.di[stage, switch, output] = hop.port
        # Downstream buffer as a flat (switch * R + input) index, for
        # gathering per-buffer state along the wiring in one op.
        self.flatidx = self.dw * R + self.di
        # Virtual-stage expansions: row u = s * B + b reads network row s.
        self.digit_v = np.repeat(self.digit, B, axis=0)
        self.dw_v = np.repeat(self.dw, B, axis=0)
        self.di_v = np.repeat(self.di, B, axis=0)
        entry_w = np.empty(N, dtype=i64)
        entry_i = np.empty(N, dtype=i64)
        for port in range(N):
            entry = topology.entry_point(port)
            entry_w[port] = entry.switch
            entry_i[port] = entry.port
        # Global source port p = b * N + n enters stage-0 virtual row b.
        self.entry_w = np.tile(entry_w, B)
        self.entry_i = np.tile(entry_i, B)
        # Flat (virtual stage, switch, input) buffer addresses — one
        # gather against these replaces three coordinate gathers plus
        # multi-array fancy indexing at the push sites.
        sv_dst = np.arange((S - 1) * B, dtype=i64)[:, None, None] + B
        self._oflat_v = (sv_dst * W + self.dw_v) * R + self.di_v
        p_ar = np.arange(B * N, dtype=i64)
        self._entry_oflat = (
            (p_ar // N) * W + self.entry_w
        ) * R + self.entry_i

        # Buffer state.  Queue rings hold packet ids; per-queue capacity
        # is the whole buffer for the dynamically shared kinds (DAMQ,
        # FIFO) and one partition for the statically partitioned ones.
        self.ring = np.zeros((SV, W, R, R, Cq), dtype=i64)
        self.qhead = np.zeros((SV, W, R, R), dtype=i64)
        self.qlen = np.zeros((SV, W, R, R), dtype=i64)
        # Cycle each ring slot's packet was pushed into this buffer.  A
        # buffer takes at most one push per cycle (entry points and
        # inter-stage wiring are bijections, and an output forwards one
        # packet per cycle), so within a buffer the stamp orders packets
        # by arrival.  Kept per slot, not per packet, so its size does
        # not grow with the run.
        self.arrived = np.zeros((SV, W, R, R, Cq), dtype=i64)
        # Occupied slots per input buffer (all kinds).
        self.occb = np.zeros((SV, W, R), dtype=i64)
        # Arbiter fairness state.
        self.prio = np.zeros((SV, W), dtype=i64)
        self.stale = np.zeros((SV, W, R, R), dtype=i64)
        # Switch / sink counters.
        self.recv = np.zeros((SV, W), dtype=i64)
        self.fwd = np.zeros((SV, W), dtype=i64)
        self.sink_recv = np.zeros(self.BN, dtype=i64)
        self.sink_mis = np.zeros(self.BN, dtype=i64)
        # Sources: injection-queue rings plus the arrival countdowns.
        self.K2 = SOURCE_QUEUE_CAPACITY + 2
        self.sring = np.zeros((self.BN, self.K2), dtype=i64)
        self.shead = np.zeros(self.BN, dtype=i64)
        self.slen = np.zeros(self.BN, dtype=i64)
        self.src_gen = np.zeros(self.BN, dtype=i64)
        self.src_stall = np.zeros(self.BN, dtype=i64)
        self.att = np.zeros(self.BN, dtype=i64)
        self.next_k = np.zeros(self.BN, dtype=i64)
        self.target = np.full(self.BN, GAP_SENTINEL, dtype=i64)
        # Packet pools.  Global packet id = sim * stride + local id, so
        # each simulation's local ids count 0, 1, 2, ... exactly like
        # the reference packet factory; ``prepare`` sizes the stride.
        self.pk_dest = np.zeros(1, dtype=i64)
        self.pk_created = np.zeros(1, dtype=i64)
        self.pk_injected = np.zeros(1, dtype=i64)
        self.next_idv = np.zeros(B, dtype=i64)
        self._stride = 0
        self._plan_attempts = -1
        self._arr_att: Any = None
        self._dests: Any = None
        self._offsets: Any = None
        self._first: Any = None

        self._cycle = 0
        self.measure_start_clock: int | None = None
        self.stage_slots = np.zeros(SV, dtype=i64)
        self.metersL = [Meters(num_ports=N) for _ in range(B)]
        # Deferred meter samples: per-cycle (sims, latency, network)
        # delivery triples and stage-slot snapshots, folded into the
        # ``Meters`` accumulators by :meth:`_flush_meters` before any
        # read (``finish`` / ``packed_state``).
        self._pend: list[tuple[Any, Any, Any]] = []
        self._occ_pend: list[Any] = []
        self._cnt_pend: dict[str, Any] = {}
        # Precomputed helpers for the arbitration loop.
        # Examination-order table: row p lists inputs starting at p.
        self._rows_table = (
            np.arange(R, dtype=i64)[None, :] + np.arange(R, dtype=i64)[:, None]
        ) % R
        self._rank_o = np.arange(R - 1, -1, -1, dtype=i64)
        self._r_ar = np.arange(R, dtype=i64)
        # Mixed smart/dumb batches mask the stale term and the priority
        # advance per simulation; uniform batches skip the masks.
        if self._smart_any and not self._smart_all:
            flags = np.array(smart_flags)
            # Pre-shifted per-row stale weight: ``stale * weight`` adds
            # the masked stale term in a single op per cycle.
            stacked = np.repeat(np.tile(flags, S), W)
            self._smart_stacked_bool = stacked
            self._smart_stacked_16 = (
                stacked.astype(i64)[:, None, None] << _STALE_SHIFT
            )
        else:
            self._smart_stacked_bool = None
            self._smart_stacked_16 = None
        # Flat views of the fixed-size state arrays (the packet pools
        # are the only arrays ever reallocated), so the per-cycle hot
        # paths never re-derive them.
        self._occ_flat = self.occb.reshape(-1)
        self._stale_flat = self.stale.reshape(-1)
        self._prio_flat = self.prio.reshape(-1)
        self._fwd_flat = self.fwd.reshape(-1)
        self._recv_flat = self.recv.reshape(-1)
        self._ring_flat = self.ring.reshape(-1)
        self._arrived_flat = self.arrived.reshape(-1)
        self._qhead_flat = self.qhead.reshape(-1)
        self._qlen_flat = self.qlen.reshape(-1)
        # FIFO buffers as flat (vstage, switch, input) addresses, and
        # their queues as ``[fifo buffer, output]`` queue addresses.
        fifo_rows = [u for u in range(SV) if kinds[u % B] == "FIFO"]
        if fifo_rows:
            self._fifo_bflat = (
                np.array(fifo_rows, dtype=i64)[:, None] * (W * R)
                + np.arange(W * R, dtype=i64)
            ).ravel()
            self._fifo_qflat = (
                self._fifo_bflat[:, None] * R + np.arange(R, dtype=i64)
            )
        else:
            self._fifo_bflat = self._fifo_qflat = None
        self._b_grid = np.arange(B, dtype=i64)[:, None, None, None]
        # Mixed-property helpers: per-port / per-virtual-stage expansions
        # of the per-sim capacity, protocol and room-semantics vectors.
        flags_blocking = np.array(blocking_flags)
        flags_buflevel = np.array(buflevel)
        self._cq_b4 = self._cq_b[:, None, None, None]
        self._cq_vstage = np.tile(self._cq_b, S)
        self._cq_port = np.repeat(self._cq_b, N)
        self._buflevel_port = np.repeat(flags_buflevel, N)
        self._buflevel_vstage = np.tile(flags_buflevel, S)
        self._blocking_vstage = np.tile(flags_blocking, S)
        self._blocking_mask4 = flags_blocking[:, None, None, None]
        self._buflevel_mask4 = flags_buflevel[:, None, None, None]
        self._cons_mask4 = np.array(conservative_flags)[:, None, None, None]
        self._any_buflevel_blocking = any(
            blocking_flags[b] and buflevel[b] for b in range(B)
        )
        self._any_cons = any(conservative_flags)
        self._any_precise = any(
            blocking_flags[b] and not buflevel[b] and not conservative_flags[b]
            for b in range(B)
        )
        # Fullness scan rows for the stacked/sequential gate: only the
        # blocking sims' past-stage-0 buffers can block anything.
        occ_rows = [
            u for u in range(B, SV)
            if blocking_flags[u % B] and buflevel[u % B]
        ]
        q_rows = [
            u for u in range(B, SV)
            if blocking_flags[u % B] and not buflevel[u % B]
        ]
        self._full_occ_rows = (
            np.array(occ_rows, dtype=i64) if occ_rows else None
        )
        self._full_q_rows = np.array(q_rows, dtype=i64) if q_rows else None
        self._full_q_cq = (
            self._cq_b[np.array(q_rows, dtype=i64) % B][:, None, None, None]
            if q_rows
            else None
        )
        # (sim, bound) pairs for the per-stage may-block gate.
        self._gate_checks = [
            (b, self.C if buflevel[b] else int(self._cq_b[b]))
            for b in range(B)
            if blocking_flags[b]
        ]
        if not self._single_read:
            # Static row subsets of the multi-read (SAFC) sims: after the
            # first arbitration pass every single-read row is dead, so
            # later passes only touch these rows.  ``None`` when every
            # sim is multi-read (subsetting would buy nothing).
            multi = np.array(
                [b for b in range(B) if reads_list[b] > 1], dtype=i64
            )
            if multi.size == B:
                self._multi_rows_seq = self._multi_rows_stacked = None
            else:
                w_ar = np.arange(W, dtype=i64)
                self._multi_rows_seq = (
                    multi[:, None] * W + w_ar
                ).ravel()
                s_ar = np.arange(S, dtype=i64)
                self._multi_rows_stacked = (
                    ((s_ar[:, None] * B + multi) [:, :, None]) * W + w_ar
                ).ravel()
        else:
            self._multi_rows_seq = self._multi_rows_stacked = None
        # Reusable grant-round scratch, keyed by batch width (one network
        # stage, or a segment spanning every virtual stage): index
        # vectors plus the rotated key array, widened by a dummy output
        # column so non-granting switches can scatter into it harmlessly.
        self._scratch_cache: dict[int, tuple[Any, Any, Any]] = {}

    # ------------------------------------------------------------------
    # SimKernel interface
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> int:
        return self._cycle

    @property
    def meters(self) -> Meters:
        return self.metersL[0]

    def prepare(self, total_cycles: int) -> None:
        if self._plan_attempts >= total_cycles:
            return
        # The tables hold each source's arrivals and the sentinel that
        # ends them, source after source without padding (sources run at
        # different loads); source ``p``'s entries start at ``_first[p]``.
        atts, dests, offsets, counts = [], [], [], []
        for cfg in self.configs:
            plan = decode_arrivals(cfg, total_cycles)
            # Attempt number (1-based, cumulative) of each arrival; the
            # sentinel stays unreachably large.
            padded = plan.gaps >= GAP_SENTINEL
            att = np.cumsum(np.where(padded, 0, plan.gaps) + 1, axis=1)
            att[padded] = GAP_SENTINEL
            keep = np.arange(att.shape[1]) <= plan.counts[:, None]
            atts.append(att[keep])
            dests.append(plan.dests[keep])
            offsets.append(plan.offsets[keep])
            counts.append(plan.counts)
        sizes = np.concatenate(counts) + 1
        self._first = np.cumsum(sizes) - sizes
        self._plan_attempts = total_cycles
        self._arr_att = np.concatenate(atts)
        self._dests = np.concatenate(dests)
        self._offsets = np.concatenate(offsets)
        # Re-deriving the plan over a longer horizon reproduces the old
        # prefix exactly, so live cursors (att, next_k) stay valid; only
        # the per-source targets must be re-read from the new table.
        self.target = self._arr_att[self._first + self.next_k]
        stride = int((sizes - 1).reshape(self.B, self.N).sum(axis=1).max()) + 1
        self._grow_pools(stride)

    def _grow_pools(self, stride: int) -> None:
        """Resize the packet pools to ``B * stride``, preserving ids.

        Growing the stride moves every simulation's id block, so all
        stored global ids (queue rings, source rings) are remapped in
        place: ``id += (id // old_stride) * (stride - old_stride)``.
        Local ids and the per-sim counters are stride-independent.
        """
        old = self._stride
        if stride <= old:
            return
        if old and self.B > 1:
            diff = stride - old
            for array in (self.ring, self.sring):
                array += (array // old) * diff
        for attr in ("pk_dest", "pk_created", "pk_injected"):
            pool = getattr(self, attr)
            grown = np.zeros(self.B * stride, dtype=np.int64)
            if old:
                for b in range(self.B):
                    grown[b * stride : b * stride + old] = pool[
                        b * old : (b + 1) * old
                    ]
            setattr(self, attr, grown)
        self._stride = stride

    def begin_measurement(self) -> None:
        if self.measure_start_clock is None:
            self.measure_start_clock = self._cycle * self.clk

    def step(self) -> None:
        if self._plan_attempts <= self._cycle:
            self.prepare(max(64, 2 * (self._cycle + 1)))
        if self.stage_slots.any():
            self._run_stages()
        self._inject()
        if self.measure_start_clock is not None:
            # Snapshot now, fold into the occupancy stats at flush time.
            self._occ_pend.append(self.stage_slots.copy())
            if len(self._occ_pend) == _FLUSH_CYCLES:
                # Fold in bounded chunks, so deferred samples of a wide
                # batch never pile up over a whole run.
                self._flush_meters()
        self._cycle += 1

    def finish(
        self, warmup_cycles: int, measure_cycles: int
    ) -> SimulationResult:
        return self._result(0, warmup_cycles, measure_cycles)

    def _result(
        self, sim: int, warmup_cycles: int, measure_cycles: int
    ) -> SimulationResult:
        self._flush_meters()
        meters = self.metersL[sim]
        meters.cycles = measure_cycles
        config = self.configs[sim]
        return SimulationResult(
            buffer_kind=config.buffer_kind,
            protocol=str(config.protocol),
            arbiter_kind=config.arbiter_kind,
            traffic_kind=self.patterns[sim].kind,
            offered_load=config.offered_load,
            slots_per_buffer=config.slots_per_buffer,
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
            seed=config.seed,
            meters=meters,
        )

    def run_batch(
        self, warmup_cycles: int = 2000, measure_cycles: int = 10000
    ) -> list[SimulationResult]:
        """Run the whole batch and summarize each simulation."""
        if warmup_cycles < 0 or measure_cycles < 1:
            raise ConfigurationError("invalid warmup/measure cycle counts")
        total = warmup_cycles + measure_cycles
        self.prepare(total)
        while self._cycle < total:
            if self._cycle == warmup_cycles:
                self.begin_measurement()
            self.step()
        return [
            self._result(sim, warmup_cycles, measure_cycles)
            for sim in range(self.B)
        ]

    # ------------------------------------------------------------------
    # One stage: arbitration, pops, forwards / deliveries
    # ------------------------------------------------------------------

    def _scratch(self, batch: int) -> tuple[Any, Any, Any, Any]:
        """Index vectors and the widened key scratch for ``batch`` rows."""
        cached = self._scratch_cache.get(batch)
        if cached is None:
            u_ar = np.arange(batch, dtype=np.int64)
            keyx = np.empty((batch, self.R, self.R + 1), dtype=np.int64)
            picks = np.empty((self.R, batch), dtype=np.int64)
            cached = (u_ar, u_ar[:, None], keyx, picks)
            self._scratch_cache[batch] = cached
        return cached

    def _rounds(
        self, key: Any, prio: Any
    ) -> tuple[Any, Any, Any, Any, Any, Any]:
        """Run the grant rounds for a batch of switches at once.

        ``key`` is the masked arbitration key, ``[batch, input,
        output]``; ``prio`` the matching priority pointers.  Each round
        argmaxes one examination step for every switch.  Rather than
        extracting the granting switches per round, each round scatters
        its grants into a dummy output column ``R`` for non-granting
        switches (``keyx`` is one column wider than real outputs, so the
        unconditional scatter is harmless) and records only the chosen
        column vector; all grants are extracted after the loop with a
        single ``nonzero``.  Returns ``(rows, Ug, Ig, Og, Seq, got0)``
        where ``rows`` is the examination-order table, ``Ug/Ig/Og/Seq``
        the granted (switch, input, output, examination sequence)
        vectors and ``got0`` the boolean "granted at step 0" vector that
        drives the smart scheme's priority advance.
        """
        R = self.R
        u_ar, u_col, keyx, picks = self._scratch(key.shape[0])
        rows = self._rows_table[prio]
        keyx[:, :, :R] = key[u_col, rows]
        keyx[:, :, R] = -1
        sub_chosen: list[Any] = []
        sub = None
        # Pass 1: a switch's input is examined exactly once, and every
        # input still has its full read budget, so no eligibility test.
        for t in range(R):
            row_keys = keyx[:, t, :]
            best = row_keys.argmax(1)
            got = row_keys[u_ar, best] >= _VALID
            taken = np.where(got, best, R)
            keyx[u_ar, :, taken] = -1  # output taken for this cycle
            picks[t] = taken
        granted = picks != R
        if self.max_reads > 1 and granted.any():
            # SAFC: passes repeat while any switch still makes progress;
            # an input that offered nothing is dead for the whole cycle
            # (reads zeroed), exactly like the reference while-loop.
            # Non-SAFC sims fused into the batch have one read per
            # input — dead after pass 1 — so later passes run on the
            # static multi-read row subset.  Read budgets only change
            # at pass boundaries (each input is examined once per
            # pass), so the bookkeeping is a per-pass batch update:
            # granted inputs keep ``budget - passes granted``, inputs
            # that offered nothing drop to zero, and exhausted inputs'
            # key rows are erased before the next pass.
            sub = self._multi_rows_stacked
            if sub is not None and key.shape[0] != self.SV * self.W:
                sub = self._multi_rows_seq
            live = keyx if sub is None else keyx[sub]
            # Probe before the budget bookkeeping: erasing dead inputs
            # only removes keys, so a probe below the validity floor
            # already proves no later pass can grant — the common case
            # at moderate load ends here for the price of one ``max``.
            if int(live.max()) >= _VALID:
                if sub is None:
                    m_ar = u_ar
                    granted_r = granted.T
                else:
                    m_ar = np.arange(sub.size, dtype=np.int64)
                    granted_r = granted.T[sub]
                # Remaining read budgets, kept in the same *round* order
                # as ``live``'s second axis — an input occupies one
                # round slot for the whole cycle.  All multi-read sims
                # use the SAFC budget of R reads.  A pass-end kill is
                # exact: a starved input's keys only shrink, so it
                # could not have granted mid-pass either.
                reads_s = np.where(granted_r, R - 1, 0)
                live[reads_s == 0] = -1
                # The dummy column is -1, so a whole-array max is a
                # valid (and cheaper) any-candidate-left probe.
                while int(live.max()) >= _VALID:
                    # Any remaining valid key guarantees a grant this
                    # pass: its input is examined and argmax finds it
                    # (or a better one), so the loop always progresses.
                    base = len(sub_chosen)
                    for t in range(R):
                        row_keys = live[:, t, :]
                        best = row_keys.argmax(1)
                        found = row_keys[m_ar, best] >= _VALID
                        taken = np.where(found, best, R)
                        live[m_ar, :, taken] = -1
                        sub_chosen.append(taken)
                    granted_p = np.array(sub_chosen[base:]) != R
                    reads_s = np.where(granted_p.T, reads_s - 1, 0)
                    live[reads_s == 0] = -1
        Seq, Ug = granted.nonzero()
        Og = picks[Seq, Ug]
        Ig = rows[Ug, Seq % R]
        if sub_chosen:
            # Map the subset rows' later-pass grants back to global rows
            # and sequence numbers (pass 1 used rounds ``0 .. R-1``).
            picks2 = np.array(sub_chosen)
            Seq2, Us2 = (picks2 != R).nonzero()
            if Us2.size:
                Og2 = picks2[Seq2, Us2]
                Ug2 = Us2 if sub is None else sub[Us2]
                Ig2 = rows[Ug2, Seq2 % R]
                Ug = np.concatenate([Ug, Ug2])
                Ig = np.concatenate([Ig, Ig2])
                Og = np.concatenate([Og, Og2])
                Seq = np.concatenate([Seq, Seq2 + R])
        got0 = picks[0] != R
        return rows, Ug, Ig, Og, Seq, got0

    def _fairness(
        self, ql: Any, prio: Any, stale: Any, occ: Any, got0: Any, mask: Any
    ) -> None:
        """Post-arbitration fairness update on pre-pop lengths.

        ``ql``/``prio``/``stale``/``occ`` are batch views (one stage or
        all stages flattened); updates happen in place through them.
        ``mask`` selects the smart rows of a mixed batch (``None`` when
        the whole batch shares one scheme).
        """
        stale += 1
        stale *= ql > 0
        if mask is None:
            if self._smart_all:
                advance = got0
            else:
                # Dumb round robin advances for every switch that
                # arbitrated (occupancy > 0 — idle switches are skipped).
                advance = occ.any(1)
        else:
            advance = np.where(mask, got0, occ.any(1))
        prio += advance
        prio %= self.R

    def _stacked_key(self) -> tuple[Any, Any]:
        """Cycle-start candidate lengths and arbitration keys, stacked.

        ``ql4`` is the candidate length register ``[vstage, switch,
        input, output]`` — the live ``qlen`` array, or a copy with every
        FIFO buffer reduced to its one readable queue when the batch
        holds a FIFO — and ``key`` the composite arbitration key,
        materialized before any pop.  Every stage's candidates are fixed
        at cycle start (upstream pushes land only after it arbitrates;
        downstream pops never touch its queues), so one stacked
        construction serves every segment of the stage walk.
        """
        R, W, SV = self.R, self.W, self.SV
        U = SV * W
        ql4 = self.qlen
        qflat = self._fifo_qflat
        if qflat is not None:
            # A FIFO reads only its oldest packet: the candidate is the
            # queue whose head arrived first, and its length register
            # reads the whole buffer, as the FIFO's single queue does.
            head_slots = qflat * self.CqW + self._qhead_flat[qflat]
            arrived = np.where(
                self._qlen_flat[qflat] > 0,
                self._arrived_flat[head_slots],
                _NEVER,
            )
            oldest = arrived.argmin(1)
            fifo = np.where(
                self._r_ar == oldest[:, None],
                self._occ_flat[self._fifo_bflat][:, None],
                0,
            )
            ql4 = self.qlen.copy()
            ql4.reshape(-1, R)[self._fifo_bflat] = fifo
        ql = ql4.reshape(U, R, R)
        stale = self.stale.reshape(U, R, R)
        key = ql << _LENGTH_SHIFT
        if self._smart_all:
            key += stale << _STALE_SHIFT
        elif self._smart_any:
            key += stale * self._smart_stacked_16
        key += self._rank_o
        return ql4, key

    def _pop(self, bflat: Any, Sg: Any, Og: Any) -> Any:
        """Pop the granted head packets; returns their global ids.

        ``bflat`` holds flat ``(vstage, switch, input)`` buffer
        addresses.  Granted 4-tuples are unique per cycle, so every
        flat address below is unique and the direct fancy updates are
        exact — except the occupancy decrement of a multi-read (SAFC)
        batch, where one input buffer can grant several outputs.
        """
        qflat = bflat * self.R + Og
        heads = self._qhead_flat[qflat]
        ids = self._ring_flat[qflat * self.CqW + heads]
        bumped = heads + 1
        cq = self.Cq if self._cq_uniform else self._cq_vstage[Sg]
        self._qhead_flat[qflat] = np.where(bumped == cq, 0, bumped)
        self._qlen_flat[qflat] -= 1
        if self.max_reads == 1:
            self._occ_flat[bflat] -= 1
        else:
            np.add.at(self._occ_flat, bflat, -1)
        return ids

    def _run_stages(self) -> None:
        """Arbitrate, pop and move one cycle's grants, last stage first.

        The walk visits segments of virtual stages.  When blocking can
        bite, stage ``s``'s blocked predicate reads stage ``s+1``'s
        post-pop buffer state, so each network stage is a segment and
        the blocked mask, the grant rounds and the pops walk the stages
        last-to-first, exactly like the reference.  Otherwise (no full
        downstream buffer in a blocking sim, always the case under the
        discarding protocol) the stages decouple within the cycle: a
        stage's pushes only land in the next stage's buffers, which have
        already popped, and the blocked predicate is identically false.
        One segment then spans every virtual stage, arbitrated by one
        set of grant rounds.  Everything else is order-free across
        stages and runs once per cycle:

        * the arbitration keys (:meth:`_stacked_key`);
        * the fairness update — it reads pre-pop lengths/occupancy
          (snapshotted below) and the grant-at-step-0 bits, neither of
          which the walk feeds;
        * the stale reset of granted queues — elementwise, applied
          after the fairness bump, exactly the per-stage order;
        * the forwards — stage ``s`` pushes into ``s+1``, which the
          remaining walk never re-reads (stage ``s-1``'s blocked
          predicate looks at stage ``s``, whose pushes come from
          ``s-1`` itself), so they batch into one scatter;
        * the forwarded/slot counters — nothing mid-walk reads them
          except the may-block gate, which then sees pre-pop slot
          counts and only errs toward computing an (exact) blocked
          mask it could have skipped.
        """
        B, R, S, W, SV = self.B, self.R, self.S, self.W, self.SV
        U = SV * W
        BW = B * W
        ql4, key = self._stacked_key()
        # Fairness reads pre-pop state; snapshot what the walk mutates.
        # (A batch with a FIFO already built a copy, and only the dumb
        # scheme's advance reads occupancy.)
        ql_pre = ql4 if ql4 is not self.qlen else ql4.copy()
        occ = self.occb.reshape(U, R)
        occ_pre = occ if self._smart_all else occ.copy()
        if self._blocking_any and self._any_downstream_full():
            segments = [(s, s + 1) for s in range(S - 1, -1, -1)]
        else:
            segments = [(0, S)]
        got0 = np.zeros(U, dtype=bool)
        stage_slots = self.stage_slots
        grants: list[tuple[Any, Any, Any]] = []
        fwd_parts: list[tuple[Any, Any, Any, Any]] = []
        last0 = (S - 1) * B
        for first, end in segments:
            if not stage_slots[first * B : end * B].any():
                continue
            lo, hi = first * BW, end * BW
            key_s = key[lo:hi]
            # Only a one-stage segment short of the last stage can block.
            if end < S and self._downstream_may_block(first):
                blocked = self._blocked(first, ql4[first * B : end * B])
                if not self._blocking_all:
                    # Discarding sims in the batch never block; their
                    # pushes drop at the destination instead.
                    blocked = blocked & self._blocking_mask4
                # Empty queues are already invalid (below the ``_VALID``
                # threshold), so only blocked candidates need erasing.
                # ``blocked`` may be input-independent ([sim, switch, 1,
                # output]); broadcast before flattening.
                key_s[
                    np.broadcast_to(blocked, (B, W, R, R)).reshape(BW, R, R)
                ] = -1
            rows, Ug, Ig, Og, Seq, got0_s = self._rounds(
                key_s, self._prio_flat[lo:hi]
            )
            got0[lo:hi] = got0_s
            if Ug.size == 0:
                continue
            gU = Ug + lo
            bflat = gU * R + Ig
            Sg, Wg = divmod(gU, W)
            ids = self._pop(bflat, Sg, Og)
            grants.append((gU, bflat, Og))
            if end == S:
                # Final-stage grants leave the network.
                out = Sg >= last0
                if out.all():
                    self._deliver(Wg, Og, Seq, ids, Sg - last0)
                    continue
                if out.any():
                    self._deliver(
                        Wg[out], Og[out], Seq[out], ids[out], Sg[out] - last0
                    )
                    rest = ~out
                    Sg, Wg, Og, ids = Sg[rest], Wg[rest], Og[rest], ids[rest]
            fwd_parts.append((Sg, Wg, Og, ids))
        self._fairness(
            ql_pre.reshape(U, R, R), self._prio_flat,
            self.stale.reshape(U, R, R), occ_pre, got0,
            self._smart_stacked_bool,
        )
        if not grants:
            return
        gU, bflat, Og = (_cat(column) for column in zip(*grants))
        self._stale_flat[bflat * R + Og] = 0
        self._fwd_flat += np.bincount(gU, minlength=U)
        stage_slots -= np.bincount(gU // W, minlength=SV)
        if fwd_parts:
            self._forward(*(_cat(column) for column in zip(*fwd_parts)))

    def _any_downstream_full(self) -> bool:
        """Whether any buffer past stage 0 could block an upstream push.

        False means the blocked predicate is identically false this
        cycle (for every fidelity: precise blocking needs the specific
        partition full, conservative any partition — both imply a full
        partition somewhere downstream), so one segment spanning every
        stage is exact.
        Pops only drain buffers, so the pre-pop check stays sufficient
        mid-cycle.  Only the blocking sims' rows are scanned — a full
        buffer of a discarding sim drops pushes instead of blocking.
        """
        rows = self._full_occ_rows
        if rows is not None and bool((self.occb[rows] >= self.C).any()):
            return True
        rows = self._full_q_rows
        if rows is not None and bool(
            (self.qlen[rows] >= self._full_q_cq).any()
        ):
            return True
        return False

    def _downstream_may_block(self, s: int) -> bool:
        """Cheap skip: a blocking sim's downstream buffer can only be
        full while its next-stage slot count reaches the fullness bound
        (queue capacity, or whole-buffer capacity for FIFO/DAMQ).  The
        stage walk defers its slot-count decrements, so the gate
        sees pre-pop counts — an over-approximation that can only make
        it compute an (exact) blocked mask it could have skipped."""
        nxt = (s + 1) * self.B
        stage_slots = self.stage_slots
        return any(
            stage_slots[nxt + b] >= bound for b, bound in self._gate_checks
        )

    def _blocked(self, s: int, ql4: Any) -> Any:
        """Blocked predicate for every candidate of network stage ``s``.

        ``ql4`` is the candidate length register ``[sim, switch, input,
        output]``; the result broadcasts against it.  Mixed batches
        evaluate each blocked semantics only for the sims that use it
        (buffer-full for FIFO/DAMQ, any-partition-full for conservative
        fidelity, head-packet's-partition-full for precise) and stitch
        the results together with per-sim masks; rows of sims in other
        categories are garbage there but never selected.
        """
        B = self.B
        flat = self.flatidx[s]
        nxt = slice((s + 1) * B, (s + 2) * B)
        blocked = None
        if self._any_precise:
            # Precise: the head packet's next-stage queue must have room.
            heads = np.take_along_axis(
                self.ring[slice(s * B, (s + 1) * B)],
                self.qhead[slice(s * B, (s + 1) * B)][..., None],
                axis=4,
            )[..., 0]
            heads = np.where(ql4 > 0, heads, 0)
            next_digit = self.digit[s + 1][self.pk_dest[heads]]
            used = self.qlen[nxt].reshape(B, self.W * self.R, self.R)
            blocked = (
                used[self._b_grid, flat[None, :, None, :], next_digit]
                >= self._cq_b4
            )
        if self._any_cons:
            any_full = (
                (self.qlen[nxt] >= self._cq_b4).any(-1).reshape(B, -1)
            )
            cons = any_full[:, flat][:, :, None, :]
            blocked = (
                cons
                if blocked is None
                else np.where(self._cons_mask4, cons, blocked)
            )
        if not self._buflevel_none:
            occ_full = (self.occb[nxt] >= self.C).reshape(B, -1)
            bufl = occ_full[:, flat][:, :, None, :]
            blocked = (
                bufl
                if blocked is None
                else np.where(self._buflevel_mask4, bufl, blocked)
            )
        return blocked

    def _forward(self, Sg: Any, Wg: Any, Og: Any, ids: Any) -> None:
        """Push granted packets one virtual stage downstream.

        ``Sg`` names each packet's source *virtual* stage; the wiring
        offset between virtual stages is ``B``, and pushes from distinct
        virtual stages land in distinct buffers, so all scatters stay
        collision-free.
        """
        B = self.B
        R = self.R
        s2 = Sg + B
        # Flat downstream buffer / queue addresses; targets are unique,
        # so the single-index gathers read true pre-push state and the
        # direct fancy updates are exact.
        oflat = self._oflat_v[Sg, Wg, Og]
        qflat = oflat * R + self.digit_v[s2, self.pk_dest[ids]]
        occ_flat = self._occ_flat
        qlen_flat = self._qlen_flat
        if not self._blocking_all:
            # Discarding protocol: a full downstream buffer drops the
            # packet.
            if self._buflevel_all:
                room = occ_flat[oflat] < self.C
            elif self._buflevel_none:
                cq = self.Cq if self._cq_uniform else self._cq_vstage[s2]
                room = qlen_flat[qflat] < cq
            else:
                room = np.where(
                    self._buflevel_vstage[s2],
                    occ_flat[oflat] < self.C,
                    qlen_flat[qflat] < self._cq_vstage[s2],
                )
            if self._blocking_any:
                # Blocking sims' grants are never blocked-at-push: flow
                # control already guaranteed room upstream.
                room |= self._blocking_vstage[s2]
            if not room.all():
                dropped = ids[~room]
                ms = self.measure_start_clock
                if ms is not None:
                    self._tally(
                        "discarded",
                        Sg[~room] % B,
                        self.pk_created[dropped] >= ms,
                    )
                ids = ids[room]
                s2 = s2[room]
                oflat = oflat[room]
                qflat = qflat[room]
        if not ids.size:
            return
        cq = self.Cq if self._cq_uniform else self._cq_vstage[s2]
        tail = self._qhead_flat[qflat] + qlen_flat[qflat]
        tail = np.where(tail >= cq, tail - cq, tail)
        slots = qflat * self.CqW + tail
        self._ring_flat[slots] = ids
        self._arrived_flat[slots] = self._cycle
        qlen_flat[qflat] += 1
        occ_flat[oflat] += 1
        recv_flat = self._recv_flat
        recv_flat += np.bincount(oflat // R, minlength=recv_flat.size)
        self.stage_slots += np.bincount(s2, minlength=self.SV)

    def _tally(self, attr: str, sims: Any, ok: Any) -> None:
        """Defer per-sim counts of ``ok`` for a meters counter field."""
        counts = self._cnt_pend.get(attr)
        if counts is None:
            counts = self._cnt_pend[attr] = np.zeros(self.B, dtype=np.int64)
        if self.B == 1:
            counts[0] += int(ok.sum())
        else:
            counts += np.bincount(sims[ok], minlength=self.B)

    @staticmethod
    def _welford_add(stats: OnlineStats, values: list[int]) -> None:
        """Fold samples into an accumulator, replaying ``OnlineStats.add``.

        The loop body performs the identical sequence of float
        operations on identical values, so the accumulator state matches
        the reference's method-call trajectory bit for bit; hoisting the
        attribute accesses out of the loop just removes interpreter
        overhead.
        """
        count = stats.count
        mean = stats._mean  # noqa: SLF001 - exact Welford replay
        m2 = stats._m2  # noqa: SLF001
        minimum = stats.minimum
        maximum = stats.maximum
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
        stats.count = count
        stats._mean = mean  # noqa: SLF001
        stats._m2 = m2  # noqa: SLF001
        stats.minimum = minimum
        stats.maximum = maximum

    def _flush_meters(self) -> None:
        """Fold the deferred meter samples into the accumulators.

        Sample order is preserved — per-cycle batches were appended in
        cycle order and are already sorted in reference order within a
        cycle, so each simulation's concatenated stream replays the
        exact ``OnlineStats.add`` trajectory.
        """
        if self._cnt_pend:
            for attr, counts in self._cnt_pend.items():
                for b in counts.nonzero()[0].tolist():
                    meters = self.metersL[b]
                    setattr(meters, attr, getattr(meters, attr) + int(counts[b]))
            self._cnt_pend.clear()
        if self._occ_pend:
            occ = np.asarray(self._occ_pend, dtype=np.int64)
            self._occ_pend.clear()
            for b in range(self.B):
                self._welford_add(
                    self.metersL[b].occupancy,
                    occ[:, b :: self.B].sum(axis=1).tolist(),
                )
        if self._pend:
            pend = self._pend
            self._pend = []
            lat = np.concatenate([p[1] for p in pend])
            net = np.concatenate([p[2] for p in pend])
            if self.B == 1:
                meters = self.metersL[0]
                meters.delivered += int(lat.size)
                self._welford_add(meters.latency, lat.tolist())
                self._welford_add(meters.network_latency, net.tolist())
                return
            sims = np.concatenate([p[0] for p in pend])
            for b in range(self.B):
                mask = sims == b
                count = int(mask.sum())
                if not count:
                    continue
                meters = self.metersL[b]
                meters.delivered += count
                self._welford_add(meters.latency, lat[mask].tolist())
                self._welford_add(meters.network_latency, net[mask].tolist())

    def _deliver(
        self, Wg: Any, Og: Any, Seq: Any, ids: Any, sims: Any
    ) -> None:
        """Hand final-stage grants to their sinks, in reference order.

        Reference order within one simulation is (switch index, grant
        sequence); simulations' meters are independent, so sorting by
        (sim, switch, sequence) and segmenting per sim replays every
        accumulator exactly.
        """
        # ``Seq`` ascends (grants are extracted in round order), so its
        # last element spans the composite sort key: one stable argsort
        # replaces a multi-key lexsort.
        span = int(Seq[-1]) + 1
        if self.B == 1:
            order = np.argsort(Wg * span + Seq, kind="stable")
        else:
            order = np.argsort(
                (sims * self.W + Wg) * span + Seq, kind="stable"
            )
            sims = sims[order]
        ids = ids[order]
        lports = Wg[order] * self.R + Og[order]
        gports = lports if self.B == 1 else sims * self.N + lports
        # Each output port is granted at most once per cycle, so the
        # gport addresses are unique and direct fancy adds are exact.
        self.sink_recv[gports] += 1
        misrouted = self.pk_dest[ids] != lports
        if misrouted.any():
            self.sink_mis[gports[misrouted]] += 1
        ms = self.measure_start_clock
        if ms is None:
            return
        created = self.pk_created[ids]
        selected = created >= ms
        delivered_at = (self._cycle + 1) * self.clk
        injected = self.pk_injected[ids]
        # Defer the Welford replay: samples are already in reference
        # order (cycle-major, then the sort above), so per-sim streams
        # concatenate across cycles and :meth:`_flush_meters` can fold
        # them with one accumulator pass per simulation.
        self._pend.append(
            (
                None if self.B == 1 else sims[selected],
                delivered_at - created[selected],
                delivered_at - injected[selected],
            )
        )

    # ------------------------------------------------------------------
    # Sources: generation countdown + head injection
    # ------------------------------------------------------------------

    def _inject(self) -> None:
        ms = self.measure_start_clock
        B = self.B
        slen = self.slen
        # Phase 1 — generation.  A stalled source makes no attempt (and
        # draws nothing); a non-stalled attempt arrives exactly when the
        # running attempt count hits the source's next decoded target.
        stalled = slen >= SOURCE_QUEUE_CAPACITY
        self.src_stall += stalled
        self.att += ~stalled
        # ``att`` sits strictly below ``target`` at every cycle start
        # (the target advances past it on each arrival), so a stalled
        # port can never read as a hit and needs no explicit mask.
        hit = self.att == self.target
        ports = hit.nonzero()[0]
        if ports.size:
            k = self._first[ports] + self.next_k[ports]
            destinations = self._dests[k]
            offsets = self._offsets[k]
            count = int(ports.size)
            if B == 1:
                sims_p = None
                base = self.next_idv[0]
                ids = np.arange(base, base + count, dtype=np.int64)
                self.next_idv[0] += count
            else:
                # ``ports`` ascends, so each sim's new ids land in local
                # port order — the reference factory's issue order.
                sims_p = ports // self.N
                per_sim = np.bincount(sims_p, minlength=B)
                first = np.cumsum(per_sim) - per_sim
                within = np.arange(count, dtype=np.int64) - first[sims_p]
                ids = (
                    sims_p * self._stride + self.next_idv[sims_p] + within
                )
                self.next_idv += per_sim
            created = self._cycle * self.clk + offsets
            self.pk_dest[ids] = destinations
            self.pk_created[ids] = created
            self.src_gen[ports] += 1
            tail = (self.shead[ports] + slen[ports]) % self.K2
            self.sring[ports, tail] = ids
            slen[ports] += 1
            self.next_k[ports] += 1
            self.target[ports] = self._arr_att[k + 1]
            if ms is not None:
                self._tally("generated", sims_p, created >= ms)
        # Phase 2 — head injection into stage 0 (entry points are a
        # bijection per simulation, so per-source checks are independent;
        # global port p = b * N + n enters stage-0 virtual row b).
        pending = (slen > 0).nonzero()[0]
        if pending.size == 0:
            return
        head_ids = self.sring[pending, self.shead[pending]]
        d0 = self.digit[0][self.pk_dest[head_ids]]
        oflat0 = self._entry_oflat[pending]
        occ_flat = self._occ_flat
        qflat0 = oflat0 * self.R + d0
        qlen_flat = self._qlen_flat
        if self._buflevel_all:
            can = occ_flat[oflat0] < self.C
        elif self._buflevel_none:
            cq = self.Cq if self._cq_uniform else self._cq_port[pending]
            can = qlen_flat[qflat0] < cq
        else:
            can = np.where(
                self._buflevel_port[pending],
                occ_flat[oflat0] < self.C,
                qlen_flat[qflat0] < self._cq_port[pending],
            )
        accepted = can.nonzero()[0]
        if accepted.size:
            sources = pending[accepted]
            ids = head_ids[accepted]
            oa = oflat0[accepted]
            va = sources // self.N
            self.pk_injected[ids] = (self._cycle + 1) * self.clk
            qa = qflat0[accepted]
            cq = self.Cq if self._cq_uniform else self._cq_port[sources]
            tail = self._qhead_flat[qa] + qlen_flat[qa]
            tail = np.where(tail >= cq, tail - cq, tail)
            slots = qa * self.CqW + tail
            self._ring_flat[slots] = ids
            self._arrived_flat[slots] = self._cycle
            qlen_flat[qa] += 1
            occ_flat[oa] += 1
            recv_flat = self._recv_flat
            recv_flat += np.bincount(
                oa // self.R, minlength=recv_flat.size
            )
            if B == 1:
                self.stage_slots[0] += accepted.size
            else:
                self.stage_slots[:B] += np.bincount(va, minlength=B)
            if ms is not None:
                self._tally("injected", va, self.pk_created[ids] >= ms)
            self.shead[sources] = (self.shead[sources] + 1) % self.K2
            slen[sources] -= 1

    # ------------------------------------------------------------------
    # Packed state (must match ReferenceKernel.packed_state byte-for-byte)
    # ------------------------------------------------------------------

    def _packed_entry(self, packet_id: int, base: int) -> list[Any]:
        return [
            packet_id - base,
            int(self.pk_dest[packet_id]),
            int(self.pk_created[packet_id]),
            int(self.pk_injected[packet_id]),
        ]

    def _queue(self, u: int, w: int, i: int, o: int) -> list[tuple[int, int]]:
        """``(arrival cycle, packet id)`` per packet of one queue."""
        head = int(self.qhead[u, w, i, o])
        cq = int(self._cq_b[u % self.B])
        slots = [(head + k) % cq for k in range(int(self.qlen[u, w, i, o]))]
        return [
            (int(self.arrived[u, w, i, o, s]), int(self.ring[u, w, i, o, s]))
            for s in slots
        ]

    def _packed_switch(self, u: int, w: int, base: int) -> dict[str, Any]:
        R = self.R
        fifo = self.kinds[u % self.B] == "FIFO"
        lengths = []
        queues = []
        for i in range(R):
            rings = [self._queue(u, w, i, o) for o in range(R)]
            if fifo:
                # The FIFO's single queue: its rings merged in arrival
                # order, the whole length on the oldest head's output.
                merged = sorted(
                    (stamp, o, p)
                    for o, ring in enumerate(rings)
                    for stamp, p in ring
                )
                row = [0] * R
                if merged:
                    row[merged[0][1]] = len(merged)
                lengths.append(row)
                packets = [[p for _, _, p in merged]]
            else:
                lengths.append(self.qlen[u, w, i].tolist())
                packets = [[p for _, p in ring] for ring in rings]
            queues.append(
                [[self._packed_entry(p, base) for p in q] for q in packets]
            )
        return {
            "occupancy": int(self.occb[u, w].sum()),
            "received": int(self.recv[u, w]),
            "forwarded": int(self.fwd[u, w]),
            "priority": int(self.prio[u, w]),
            "stale": self.stale[u, w].tolist(),
            "lengths": lengths,
            "queues": queues,
        }

    def packed_state(self) -> dict[str, Any]:
        return self.packed_state_for(0)

    def packed_state_for(self, sim: int) -> dict[str, Any]:
        """The packed state of one simulation of the batch."""
        self._flush_meters()
        B = self.B
        base = sim * self._stride
        sources = []
        for local_port in range(self.N):
            port = sim * self.N + local_port
            head = int(self.shead[port])
            queue = []
            for k in range(int(self.slen[port])):
                packet_id = int(self.sring[port, (head + k) % self.K2])
                queue.append(
                    [
                        packet_id - base,
                        int(self.pk_dest[packet_id]),
                        int(self.pk_created[packet_id]),
                    ]
                )
            sources.append(
                {
                    "generated": int(self.src_gen[port]),
                    "stalled": int(self.src_stall[port]),
                    "queue": queue,
                }
            )
        return {
            "cycle": self._cycle,
            "measure_start_clock": self.measure_start_clock,
            "stage_slots": [
                int(self.stage_slots[s * B + sim]) for s in range(self.S)
            ],
            "factory_next": int(self.next_idv[sim]),
            "switches": [
                [
                    self._packed_switch(s * B + sim, w, base)
                    for w in range(self.W)
                ]
                for s in range(self.S)
            ],
            "sources": sources,
            "sinks": [
                {
                    "received": int(self.sink_recv[sim * self.N + port]),
                    "misrouted": int(self.sink_mis[sim * self.N + port]),
                }
                for port in range(self.N)
            ],
            "meters": self.metersL[sim].snapshot_state(),
        }
