//! An alternative fabric model: max-min fair fluid sharing.
//!
//! The default [`crate::Network`] serves each NIC direction strictly FIFO,
//! one message at a time — the paper's §2.2 abstraction of the
//! communication stack, and the right model for reasoning about
//! preemption. Real transports, however, multiplex flows: a worker
//! pushing to four shards runs four connections that share its uplink
//! fairly. This module provides that alternative: every submitted
//! transfer becomes a *flow*, flow rates are the max-min fair allocation
//! under per-port capacities (computed by progressive filling), and rates
//! are recomputed whenever a flow starts or finishes.
//!
//! Per-message costs carry over: the wire-overhead component of θ is
//! charged as extra flow volume (`θ · B` bytes), and the latency
//! component delays delivery after the flow drains, exactly as in the
//! FIFO fabric — so schedulers see the same interface and the same knob
//! semantics, only the sharing discipline differs. The fabric-sensitivity
//! ablation (`tests/fabrics.rs`) compares the two.

use std::cell::Cell;
use std::collections::VecDeque;

use bs_sim::SimTime;

use crate::fabric::FabricModel;
use crate::network::{CompletedTransfer, DroppedTransfer, NetEvent, NodeId, TransferId};
use crate::probe::{RecordSet, WireLog, WireProbe};
use crate::scope::ScopeWindow;
use crate::transport::NetConfig;

/// Fault-injection state, allocated lazily on the first fault hook call
/// so unfaulted runs take exactly the original code paths.
#[derive(Clone, Debug)]
struct FaultState {
    /// Per-port capacity scale (up ports 0..n, down ports n..2n),
    /// 1.0 = nominal. A flapped-down node has both scales forced to zero
    /// in the allocator (its flows were killed; late retransmits toward
    /// it idle at rate 0 until the revive).
    port_scale: Vec<f64>,
    /// Nodes currently flapped down.
    down: Vec<bool>,
}

/// A flow's cold fields: read when it starts, ends or is dropped.
#[derive(Clone, Debug)]
struct Flow {
    src: NodeId,
    dst: NodeId,
    /// Payload bytes (reported on completion).
    bytes: u64,
    tag: u64,
    /// Submission instant: a flow starts transmitting when submitted.
    started_at: SimTime,
}

/// A flow's hot fields: everything integration, the drain search and the
/// waterfill read, packed densely beside the slot table.
#[derive(Clone, Copy, Debug)]
struct Hot {
    /// Remaining flow volume (payload + overhead equivalent), fractional
    /// to avoid drift across many rate changes.
    remaining: f64,
    /// Current max-min fair rate, bytes/sec.
    rate: f64,
    /// Up port (`src`) and down port (`n + dst`).
    ports: [u32; 2],
}

/// One waterfill round with a positive rate: every flow it froze got
/// `rate`, and `least` had the least `remaining` among them.
#[derive(Clone, Copy, Debug)]
struct Round {
    rate: f64,
    least: TransferId,
}

/// A max-min fair fluid fabric with the same event interface as
/// [`crate::Network`].
#[derive(Clone, Debug)]
pub struct FluidNetwork {
    cfg: NetConfig,
    num_nodes: usize,
    /// Flow slot table, indexed by [`TransferId`]. Slots are recycled via
    /// `free_slots`, so the table length is bounded by the *peak* number
    /// of concurrent flows, not by the total ever submitted.
    flows: Vec<Option<Flow>>,
    /// Hot fields of each slot, same indexing as `flows` (a free slot's
    /// entry is stale until the slot is reused).
    hot: Vec<Hot>,
    /// Recycled slot indices (LIFO).
    free_slots: Vec<u64>,
    active: Vec<TransferId>,
    /// Flows per port in submission order, maintained incrementally
    /// (up ports 0..n, down ports n..2n). Mirrors what `reallocate` used
    /// to rebuild from `active` on every call.
    port_flows: Vec<Vec<TransferId>>,
    /// Deliveries pending after their flow drained: (time, completed).
    deliveries: VecDeque<(SimTime, CompletedTransfer)>,
    /// Last instant `remaining` values were integrated to.
    last_update: SimTime,
    /// The last waterfill's positive-rate rounds: the earliest drain is
    /// always one of their `least` flows (see [`Self::drain_time`]).
    rounds: Vec<Round>,
    /// Memoised earliest flow-drain instant; `None` means stale. Interior
    /// mutability so `next_event_time(&self)` can fill it lazily; cleared
    /// whenever rates, remaining volumes, or the active set change.
    next_drain: Cell<Option<SimTime>>,
    bytes_delivered: u64,
    transfers_delivered: u64,
    /// High-water mark of concurrently active flows.
    peak_in_flight: usize,
    /// Scratch buffers reused across `reallocate`/`advance` calls so the
    /// hot path performs no allocation.
    scratch_frozen: Vec<bool>,
    scratch_port_cap: Vec<f64>,
    scratch_port_live: Vec<u32>,
    /// `cap / live` per port, `+∞` once no unfrozen flow crosses it.
    scratch_port_share: Vec<f64>,
    scratch_finished: Vec<TransferId>,
    /// `Some` only while something is recorded.
    probe: Option<Box<WireProbe>>,
    /// `Some` only once a fault hook has been exercised.
    faults: Option<Box<FaultState>>,
}

impl FluidNetwork {
    /// Creates a fabric of `num_nodes` duplex NICs.
    pub fn new(num_nodes: usize, cfg: NetConfig) -> Self {
        assert!(num_nodes >= 2, "a network needs at least two nodes");
        FluidNetwork {
            cfg,
            num_nodes,
            flows: Vec::new(),
            hot: Vec::new(),
            free_slots: Vec::new(),
            active: Vec::new(),
            port_flows: vec![Vec::new(); 2 * num_nodes],
            deliveries: VecDeque::new(),
            last_update: SimTime::ZERO,
            rounds: Vec::new(),
            next_drain: Cell::new(None),
            bytes_delivered: 0,
            transfers_delivered: 0,
            peak_in_flight: 0,
            scratch_frozen: Vec::new(),
            scratch_port_cap: Vec::new(),
            scratch_port_live: Vec::new(),
            scratch_port_share: Vec::new(),
            scratch_finished: Vec::new(),
            probe: None,
            faults: None,
        }
    }

    /// Starts the recorders in `set` (see [`RecordSet`]), replacing any
    /// earlier recording. Per-port
    /// utilisation is the allocated-rate sum over capacity (a fraction in
    /// `[0, 1]`), resampled after every reallocation — the exact step
    /// function the max-min allocator produces, not a polled
    /// approximation. Lifecycles cover each flow's whole life, so unlike
    /// the FIFO fabric's exclusive wire occupancies, fluid wire spans
    /// overlap. Recording never changes fabric behaviour.
    pub fn enable_recording(&mut self, now: SimTime, set: RecordSet) {
        self.probe = WireProbe::new(now, self.num_nodes, FabricModel::FairShare, set);
    }

    /// Moves closed scope windows into `out`, oldest first.
    pub fn drain_scope_windows(&mut self, out: &mut Vec<ScopeWindow>) {
        if let Some(p) = self.probe.as_mut() {
            p.drain_scope_windows(out);
        }
    }

    /// Ends recording and takes everything recorded, with metric
    /// summaries and the final scope window closed at `now`.
    pub fn take_wire_log(&mut self, now: SimTime) -> WireLog {
        self.probe.take().map_or_else(WireLog::default, |p| {
            p.into_log(now, self.transfers_delivered, self.bytes_delivered)
        })
    }

    /// The network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Total payload bytes delivered so far.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    /// Transfers delivered end-to-end so far.
    pub fn transfers_delivered(&self) -> u64 {
        self.transfers_delivered
    }

    /// Number of flows currently transmitting.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Highest number of simultaneously active flows seen so far.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_in_flight
    }

    /// Length of the flow slot table. With slot recycling this is bounded
    /// by [`Self::peak_in_flight`], no matter how many transfers have ever
    /// been submitted — the long-run boundedness tests assert on it.
    pub fn flow_slots(&self) -> usize {
        self.flows.len()
    }

    /// True when no flow is active and no delivery is pending.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.deliveries.is_empty()
    }

    /// Submits a transfer; it starts transmitting immediately at its fair
    /// share.
    pub fn submit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> TransferId {
        assert!(src.0 < self.num_nodes, "src {src:?} out of range");
        assert!(dst.0 < self.num_nodes, "dst {dst:?} out of range");
        assert_ne!(src, dst, "loopback transfers are not modelled");
        self.integrate_to(now);
        let overhead_bytes =
            self.cfg.transport.wire_overhead.as_secs_f64() * self.cfg.bytes_per_sec();
        let flow = Flow {
            src,
            dst,
            bytes,
            tag,
            started_at: now,
        };
        let (up, down) = (src.0, self.num_nodes + dst.0);
        let hot = Hot {
            remaining: bytes as f64 + overhead_bytes,
            rate: 0.0,
            ports: [up as u32, down as u32],
        };
        let id = match self.free_slots.pop() {
            Some(slot) => {
                debug_assert!(self.flows[slot as usize].is_none(), "slot in use");
                self.flows[slot as usize] = Some(flow);
                self.hot[slot as usize] = hot;
                TransferId(slot)
            }
            None => {
                let id = TransferId(self.flows.len() as u64);
                self.flows.push(Some(flow));
                self.hot.push(hot);
                id
            }
        };
        self.active.push(id);
        self.port_flows[up].push(id);
        self.port_flows[down].push(id);
        self.peak_in_flight = self.peak_in_flight.max(self.active.len());
        if let Some(p) = self.probe.as_mut() {
            p.submit(now, src.0, dst.0, tag);
        }
        self.reallocate();
        id
    }

    /// Earliest instant anything changes: the next flow drain or pending
    /// delivery.
    ///
    /// Costs O(waterfill rounds), not O(active flows): the drain instant
    /// is a minimum over one candidate flow per round of the last
    /// reallocation, memoised until the next integration or reallocation.
    pub fn next_event_time(&self) -> SimTime {
        let delivery = self
            .deliveries
            .front()
            .map(|(d, _)| *d)
            .unwrap_or(SimTime::MAX);
        delivery.min(self.drain_time())
    }

    /// Earliest flow-drain instant, recomputed only when stale.
    ///
    /// Exact over the active set: flows frozen in one waterfill round
    /// share one rate bit for bit, every integration subtracts the same
    /// rounded `rate · dt` from each of them, and the ETA below is
    /// monotone in `remaining` — so each round's least-remaining flow
    /// keeps the round's earliest ETA until the next reallocation, and
    /// every change to rates or to the active set reallocates.
    fn drain_time(&self) -> SimTime {
        if let Some(t) = self.next_drain.get() {
            return t;
        }
        let mut t = SimTime::MAX;
        for r in &self.rounds {
            let remaining = self.hot[r.least.0 as usize].remaining;
            // Round the drain ETA *up* to at least 1 ns past the last
            // integration point: a sub-nanosecond residue must not
            // produce a zero-length step (the event loop would spin at
            // the same instant forever).
            let dur =
                SimTime::from_secs_f64((remaining / r.rate).max(0.0)).max(SimTime::from_nanos(1));
            t = t.min(self.last_update + dur);
        }
        self.next_drain.set(Some(t));
        t
    }

    /// True when `advance(now)` could change state or emit events: the
    /// event loop skips the call otherwise. While flows are in flight the
    /// fabric must integrate every tick (the split points of the numeric
    /// integration are part of the deterministic trace), so this only
    /// reports false when nothing is transmitting.
    pub fn wants_advance(&self, now: SimTime) -> bool {
        !self.active.is_empty() || self.next_event_time() <= now
    }

    /// Advances to `now`, draining flows and reporting releases and
    /// deliveries in time order.
    pub fn advance(&mut self, now: SimTime) -> Vec<NetEvent> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// Like [`Self::advance`] but appends events into a caller-provided
    /// buffer, so the event loop can reuse one allocation across ticks.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetEvent>) {
        loop {
            let next = self.next_event_time();
            if next > now || next.is_never() {
                break;
            }
            // Deliveries strictly before the next drain fire first.
            if let Some(&(dt, _)) = self.deliveries.front() {
                if dt <= next {
                    let (dt, c) = self.deliveries.pop_front().expect("front exists");
                    debug_assert_eq!(dt, c.finished_at);
                    self.bytes_delivered += c.bytes;
                    self.transfers_delivered += 1;
                    if let Some(p) = self.probe.as_mut() {
                        p.delivered(dt, c.src.0, c.dst.0, c.tag);
                    }
                    out.push(NetEvent::Delivered(c));
                    continue;
                }
            }
            // Drain flows to `next` and complete the ones that hit zero.
            self.integrate_to(next);
            let latency = self.cfg.transport.latency;
            let mut finished = std::mem::take(&mut self.scratch_finished);
            let hot = &self.hot;
            self.active.retain(|id| {
                // Sub-byte residue counts as drained (float slop from many
                // rate changes; half a byte is far below any payload).
                if hot[id.0 as usize].remaining <= 0.5 {
                    finished.push(*id);
                    false
                } else {
                    true
                }
            });
            for id in finished.drain(..) {
                let f = self.flows[id.0 as usize].take().expect("finishing flow");
                // Retire the slot and drop the flow from its two port
                // lists (order-preserving, so later reallocations iterate
                // exactly as a rebuild from `active` would).
                self.free_slots.push(id.0);
                self.port_flows[f.src.0].retain(|x| *x != id);
                self.port_flows[self.num_nodes + f.dst.0].retain(|x| *x != id);
                if let Some(p) = self.probe.as_mut() {
                    let (src, dst, at) = (f.src.0, f.dst.0, f.started_at);
                    p.wire_end((f.tag, src, dst, at, at, next, next + latency), f.bytes);
                }
                let done = CompletedTransfer {
                    id,
                    src: f.src,
                    dst: f.dst,
                    bytes: f.bytes,
                    tag: f.tag,
                    finished_at: next,
                };
                out.push(NetEvent::Released(done));
                let mut delivered = done;
                delivered.finished_at = next + latency;
                // Keep deliveries time-ordered (latency is constant, so
                // completion order == delivery order).
                self.deliveries.push_back((next + latency, delivered));
            }
            self.scratch_finished = finished;
            self.reallocate();
        }
        self.integrate_to(now);
    }

    /// Lazily materialises the fault state (all scales 1.0, nothing down).
    fn fault_state(&mut self) -> &mut FaultState {
        let ports = 2 * self.num_nodes;
        let n = self.num_nodes;
        self.faults.get_or_insert_with(|| {
            Box::new(FaultState {
                port_scale: vec![1.0; ports],
                down: vec![false; n],
            })
        })
    }

    /// Rescales one NIC direction's capacity to `scale` × nominal at
    /// `now`; all flow rates are refitted immediately (in-flight flows
    /// keep their accumulated progress). Use [`Self::kill_port`] for
    /// outages — a zero scale is rejected.
    pub fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64) {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be finite and > 0 (got {scale}); use kill_port for outages"
        );
        assert!(node.0 < self.num_nodes, "node {node:?} out of range");
        self.integrate_to(now);
        let n = self.num_nodes;
        let port = if up { node.0 } else { n + node.0 };
        self.fault_state().port_scale[port] = scale;
        self.reallocate();
    }

    /// Flaps `node` down at `now`: every active flow through either of
    /// its ports is killed — removed without delivering — and returned so
    /// the caller can recover them (reclaim credit, retransmit). Flows
    /// already drained but awaiting delivery still deliver. New flows
    /// submitted toward the node idle at rate 0 until [`Self::revive_port`].
    pub fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer> {
        assert!(node.0 < self.num_nodes, "node {node:?} out of range");
        self.integrate_to(now);
        self.fault_state().down[node.0] = true;
        let dropped = self.abort(now, &mut |src, dst, _| src == node || dst == node, false);
        self.reallocate();
        dropped
    }

    /// Cancels every pending transfer whose tag matches `pred` at `now`
    /// — actively draining or awaiting delivery — and returns them. No
    /// port goes down: surviving flows refit to the freed capacity. The
    /// cluster driver purges a checkpointing job's traffic this way
    /// before migrating it.
    pub fn cancel_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer> {
        self.integrate_to(now);
        let dropped = self.abort(now, &mut |_, _, tag| pred(tag), true);
        self.reallocate();
        dropped
    }

    /// Drops every pending transfer `hit(src, dst, tag)` selects at `now`
    /// and returns them; the fabric's one drop record site. Active flows
    /// leave the wire; with `delivering`, drained flows awaiting delivery
    /// are purged too (their deliveries never fire). The caller
    /// reallocates afterwards.
    fn abort(
        &mut self,
        now: SimTime,
        hit: &mut dyn FnMut(NodeId, NodeId, u64) -> bool,
        delivering: bool,
    ) -> Vec<DroppedTransfer> {
        let mut victims = std::mem::take(&mut self.scratch_finished);
        victims.clear();
        victims.extend(self.active.iter().copied().filter(|id| {
            let f = self.flows[id.0 as usize].as_ref().expect("active flow");
            hit(f.src, f.dst, f.tag)
        }));
        let mut dropped = Vec::with_capacity(victims.len());
        for id in victims.drain(..) {
            let f = self.flows[id.0 as usize].take().expect("victim flow");
            self.active.retain(|x| *x != id);
            self.free_slots.push(id.0);
            self.port_flows[f.src.0].retain(|x| *x != id);
            self.port_flows[self.num_nodes + f.dst.0].retain(|x| *x != id);
            if let Some(p) = self.probe.as_mut() {
                // Killed at now; the retransmit shows up as a separate
                // record.
                let (src, dst, at) = (f.src.0, f.dst.0, f.started_at);
                p.wire_end((f.tag, src, dst, at, at, now, now), f.bytes);
                p.dropped(now, src, dst, f.tag, false);
            }
            dropped.push(DroppedTransfer {
                tag: f.tag,
                src: f.src,
                dst: f.dst,
                bytes: f.bytes,
            });
        }
        self.scratch_finished = victims;
        if delivering {
            self.deliveries.retain(|&(_, c)| {
                if !hit(c.src, c.dst, c.tag) {
                    return true;
                }
                if let Some(p) = self.probe.as_mut() {
                    p.dropped(now, c.src.0, c.dst.0, c.tag, false);
                }
                dropped.push(DroppedTransfer {
                    tag: c.tag,
                    src: c.src,
                    dst: c.dst,
                    bytes: c.bytes,
                });
                false
            });
        }
        dropped
    }

    /// Brings `node` back up at `now`; stalled flows pick their fair
    /// rates back up. Capacity scales set before or during the outage
    /// persist.
    pub fn revive_port(&mut self, now: SimTime, node: NodeId) {
        assert!(node.0 < self.num_nodes, "node {node:?} out of range");
        self.integrate_to(now);
        self.fault_state().down[node.0] = false;
        self.reallocate();
    }

    /// Integrates `remaining -= rate · dt` for all active flows.
    fn integrate_to(&mut self, now: SimTime) {
        if now <= self.last_update {
            return;
        }
        self.next_drain.set(None);
        let dt = (now - self.last_update).as_secs_f64();
        for id in &self.active {
            let h = &mut self.hot[id.0 as usize];
            h.remaining = (h.remaining - h.rate * dt).max(0.0);
        }
        self.last_update = now;
    }

    /// Progressive filling: repeatedly find the most-contended port,
    /// freeze its flows at the equal share, remove the port, repeat.
    ///
    /// Runs entirely on persistent state (`port_flows`) and reusable
    /// scratch buffers: cost scales with the *current* number of active
    /// flows and ports, never with the total number of transfers the
    /// fabric has ever carried. Each port's share is cached and
    /// recomputed only when its capacity or live count changes (same
    /// operands, same bits), so a round's bottleneck scan is a pure
    /// compare. Each round with a positive rate leaves one drain
    /// candidate in `rounds`.
    fn reallocate(&mut self) {
        self.next_drain.set(None);
        self.rounds.clear();
        let cap = self.cfg.bytes_per_sec();
        // Port index: up ports are 0..n, down ports n..2n.
        let ports = 2 * self.num_nodes;
        let caps = &mut self.scratch_port_cap;
        caps.clear();
        caps.resize(ports, cap);
        if let Some(fs) = &self.faults {
            for (p, c) in caps.iter_mut().enumerate() {
                let node = p % self.num_nodes;
                *c = if fs.down[node] {
                    0.0
                } else {
                    cap * fs.port_scale[p]
                };
            }
        }
        // Unfrozen-flow count per port; freezing a flow decrements both
        // ports it traverses, so each round sees the live count without
        // rescanning the port's flow list.
        let live = &mut self.scratch_port_live;
        live.clear();
        live.extend(self.port_flows.iter().map(|flows| flows.len() as u32));
        let shares = &mut self.scratch_port_share;
        shares.clear();
        shares.extend(caps.iter().zip(live.iter()).map(|(&c, &l)| share_of(c, l)));
        let frozen = &mut self.scratch_frozen;
        if frozen.len() < self.flows.len() {
            frozen.resize(self.flows.len(), false);
        }
        // Only active slots are ever read below, so only they need
        // clearing — this keeps the reset O(active), not O(slots).
        for id in &self.active {
            frozen[id.0 as usize] = false;
        }
        let mut remaining_unfrozen = self.active.len();
        // Total allocated rate, accumulated as flows freeze so the probe
        // below never has to rescan the active set.
        let mut total_rate = 0.0;
        while remaining_unfrozen > 0 {
            // Bottleneck port: smallest fair share, lowest index on ties;
            // ports without unfrozen flows sit at +∞.
            let (mut port, mut share) = (0, f64::INFINITY);
            for (p, &s) in shares.iter().enumerate() {
                if s < share {
                    (port, share) = (p, s);
                }
            }
            // An unfrozen flow keeps both of its ports live.
            debug_assert!(live[port] > 0, "unfrozen flows but no live port");
            // Freeze that port's unfrozen flows at the share, charging
            // the other port they traverse. Every active flow's
            // `remaining` is finite, so the first one frozen sets `least`.
            let mut count = 0;
            let mut least = (f64::INFINITY, TransferId(0));
            for &id in &self.port_flows[port] {
                if frozen[id.0 as usize] {
                    continue;
                }
                frozen[id.0 as usize] = true;
                count += 1;
                let h = &mut self.hot[id.0 as usize];
                h.rate = share;
                if h.remaining < least.0 {
                    least = (h.remaining, id);
                }
                let [a, b] = h.ports.map(|p| p as usize);
                let other = if a == port { b } else { a };
                caps[other] = (caps[other] - share).max(0.0);
                live[a] -= 1;
                live[b] -= 1;
                shares[other] = share_of(caps[other], live[other]);
            }
            remaining_unfrozen -= count;
            total_rate += share * count as f64;
            caps[port] = 0.0;
            shares[port] = f64::INFINITY;
            if share > 0.0 {
                self.rounds.push(Round {
                    rate: share,
                    least: least.1,
                });
            }
        }
        if let Some(p) = self.probe.as_mut() {
            // Every flow's rate lands on exactly two port directions, so
            // the waterfill's running total is the scope signal.
            let (hot, port_flows) = (&self.hot, &self.port_flows);
            let rate = |id: &TransferId| hot[id.0 as usize].rate;
            // `last_update` is the allocation instant: every caller
            // integrates to "now" before reallocating.
            p.realloc(
                self.last_update,
                cap,
                self.active.len(),
                total_rate,
                |port| port_flows[port].iter().map(rate).sum(),
            );
        }
    }

    /// Calls `f` with the tag of every pending transfer — actively
    /// draining or awaiting delivery. Unlike the FIFO fabric's scan, tags
    /// never repeat here (a flow leaves the active set when its delivery
    /// is queued), but callers should not rely on that.
    pub fn for_each_pending_tag(&self, f: &mut dyn FnMut(u64)) {
        for id in &self.active {
            f(self.flows[id.0 as usize].as_ref().expect("active").tag);
        }
        for (_, c) in &self.deliveries {
            f(c.tag);
        }
    }
}

/// A port's fair share of its remaining capacity: `+∞` once no unfrozen
/// flow crosses it, so the bottleneck scan never picks it.
#[inline]
fn share_of(cap: f64, live: u32) -> f64 {
    if live == 0 {
        f64::INFINITY
    } else {
        cap / live as f64
    }
}

impl crate::port::NetPort for FluidNetwork {
    #[inline]
    fn submit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> TransferId {
        FluidNetwork::submit(self, now, src, dst, bytes, tag)
    }

    #[inline]
    fn next_event_time(&self) -> SimTime {
        FluidNetwork::next_event_time(self)
    }

    #[inline]
    fn wants_advance(&self, now: SimTime) -> bool {
        FluidNetwork::wants_advance(self, now)
    }

    #[inline]
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetEvent>) {
        FluidNetwork::advance_into(self, now, out)
    }

    fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64) {
        FluidNetwork::set_port_scale(self, now, node, up, scale)
    }

    fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer> {
        FluidNetwork::kill_port(self, now, node)
    }

    fn revive_port(&mut self, now: SimTime, node: NodeId) {
        FluidNetwork::revive_port(self, now, node)
    }

    fn cancel_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer> {
        FluidNetwork::cancel_where(self, now, pred)
    }

    fn for_each_pending_tag(&self, f: &mut dyn FnMut(u64)) {
        FluidNetwork::for_each_pending_tag(self, f)
    }

    fn in_flight(&self) -> usize {
        FluidNetwork::in_flight(self)
    }

    fn drain_scope_windows(&mut self, out: &mut Vec<ScopeWindow>) {
        FluidNetwork::drain_scope_windows(self, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    /// 8 Gbps ideal transport: 1e9 B/s, zero overheads.
    fn net(n: usize) -> FluidNetwork {
        FluidNetwork::new(n, NetConfig::gbps(8.0, Transport::ideal()))
    }

    fn mb(x: u64) -> u64 {
        x * 1_000_000
    }

    fn drain(n: &mut FluidNetwork) -> Vec<(u64, SimTime)> {
        let mut out = Vec::new();
        loop {
            let t = n.next_event_time();
            if t.is_never() {
                break;
            }
            out.extend(n.advance(t).into_iter().filter_map(|e| match e {
                NetEvent::Delivered(c) => Some((c.tag, c.finished_at)),
                NetEvent::Released(_) => None,
            }));
        }
        out
    }

    #[test]
    fn single_flow_gets_the_full_rate() {
        let mut n = net(2);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        let done = drain(&mut n);
        assert_eq!(done, vec![(1, SimTime::from_millis(1))]);
        assert!(n.is_idle());
    }

    #[test]
    fn two_flows_share_a_common_uplink_fairly() {
        let mut n = net(3);
        // Same source, different destinations: uplink is the bottleneck.
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(1), 2);
        let done = drain(&mut n);
        // Each at 0.5e9 B/s: both finish at 2 ms (no FIFO serialisation).
        assert_eq!(done.len(), 2);
        for (_, t) in done {
            assert_eq!(t, SimTime::from_millis(2));
        }
    }

    #[test]
    fn departures_speed_up_survivors() {
        let mut n = net(3);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(3), 2);
        let done = drain(&mut n);
        // Both run at 0.5 GB/s; flow 1 drains at 2 ms; flow 2 then gets
        // the full rate for its remaining 2 MB: 2 + 2 = 4 ms.
        assert_eq!(done[0], (1, SimTime::from_millis(2)));
        assert_eq!(done[1], (2, SimTime::from_millis(4)));
    }

    #[test]
    fn incast_shares_the_downlink() {
        let mut n = net(5);
        for w in 0..4usize {
            n.submit(SimTime::ZERO, NodeId(w), NodeId(4), mb(1), w as u64);
        }
        let done = drain(&mut n);
        // Four flows at 0.25 GB/s each: all finish at 4 ms — same
        // aggregate as FIFO, but simultaneous.
        assert_eq!(done.len(), 4);
        for (_, t) in &done {
            assert_eq!(*t, SimTime::from_millis(4));
        }
    }

    #[test]
    fn max_min_gives_unbottlenecked_flows_the_leftovers() {
        let mut n = net(4);
        // Flows A (0→2) and B (1→2) share node 2's downlink; flow C (1→3)
        // shares node 1's uplink with B. Max-min: A = B = 0.5 at the
        // downlink; C gets node 1's remaining 0.5.
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(2), 10);
        n.submit(SimTime::ZERO, NodeId(1), NodeId(2), mb(2), 11);
        n.submit(SimTime::ZERO, NodeId(1), NodeId(3), mb(2), 12);
        // All three at 0.5 GB/s -> all complete at 4 ms.
        let done = drain(&mut n);
        assert_eq!(done.len(), 3);
        for (_, t) in &done {
            assert_eq!(*t, SimTime::from_millis(4));
        }
    }

    #[test]
    fn wire_overhead_charges_extra_volume_and_latency_delays_delivery() {
        let cfg = NetConfig::gbps(
            8.0,
            Transport::custom(
                "t",
                SimTime::from_micros(100),
                SimTime::from_micros(400),
                1.0,
            ),
        );
        let mut n = FluidNetwork::new(2, cfg);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        // Volume = 1 MB + 100 µs · 1e9 B/s = 1.1 MB -> drains at 1.1 ms;
        // delivery 400 µs later.
        let done = drain(&mut n);
        assert_eq!(done, vec![(1, SimTime::from_micros(1_500))]);
    }

    #[test]
    fn staggered_arrival_reallocates_mid_flight() {
        let mut n = net(3);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(2), 1);
        // After 1 ms (1 MB sent), a competitor arrives on the uplink.
        n.advance(SimTime::from_millis(1));
        n.submit(SimTime::from_millis(1), NodeId(0), NodeId(2), mb(1), 2);
        let done = drain(&mut n);
        // Both now at 0.5 GB/s with 1 MB remaining each: finish at 3 ms.
        assert_eq!(done[0].1, SimTime::from_millis(3));
        assert_eq!(done[1].1, SimTime::from_millis(3));
    }

    #[test]
    fn degraded_port_slows_flows_mid_flight() {
        let mut n = net(2);
        // 2 MB at 1 GB/s: would drain at 2 ms.
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(2), 1);
        // At 1 ms (1 MB left) the downlink degrades 4×: the remaining
        // 1 MB trickles at 0.25 GB/s → 4 more ms, drain at 5 ms.
        n.advance(SimTime::from_millis(1));
        n.set_port_scale(SimTime::from_millis(1), NodeId(1), false, 0.25);
        let done = drain(&mut n);
        assert_eq!(done, vec![(1, SimTime::from_millis(5))]);
    }

    #[test]
    fn kill_port_drops_flows_and_revive_resumes_stalled_ones() {
        let mut n = net(3);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(2), 1);
        n.submit(SimTime::ZERO, NodeId(1), NodeId(2), mb(2), 2);
        // Incast at 0.5 GB/s each; node 2 flaps at 1 ms with 1.5 MB left
        // in each flow.
        n.advance(SimTime::from_millis(1));
        let dropped = n.kill_port(SimTime::from_millis(1), NodeId(2));
        assert_eq!(dropped.len(), 2);
        assert_eq!(dropped[0].tag, 1);
        assert_eq!(dropped[1].tag, 2);
        assert!(n.is_idle(), "killed flows vacate the fabric");
        // A retransmit submitted during the outage idles at rate 0...
        n.submit(SimTime::from_millis(2), NodeId(0), NodeId(2), mb(1), 3);
        assert!(n.next_event_time().is_never());
        // ...and picks up the full rate on revive at 10 ms.
        n.revive_port(SimTime::from_millis(10), NodeId(2));
        let done = drain(&mut n);
        assert_eq!(done, vec![(3, SimTime::from_millis(11))]);
    }

    #[test]
    fn kill_port_spares_flows_not_touching_the_node() {
        let mut n = net(4);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        n.submit(SimTime::ZERO, NodeId(2), NodeId(3), mb(1), 2);
        let dropped = n.kill_port(SimTime::ZERO, NodeId(1));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].tag, 1);
        let done = drain(&mut n);
        assert_eq!(done, vec![(2, SimTime::from_millis(1))]);
    }

    #[test]
    fn cancel_where_drops_matching_flows_and_refits_survivors() {
        let mut n = net(3);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(2), 1);
        n.submit(SimTime::ZERO, NodeId(1), NodeId(2), mb(2), 2);
        // Incast at 0.5 GB/s each; at 1 ms each flow has 1.5 MB left.
        n.advance(SimTime::from_millis(1));
        let dropped = n.cancel_where(SimTime::from_millis(1), &mut |tag| tag == 1);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].tag, 1);
        // The survivor refits to the full rate: 1.5 ms more.
        let done = drain(&mut n);
        assert_eq!(done, vec![(2, SimTime::from_micros(2_500))]);
        assert!(n.is_idle());
    }

    /// The waterfill before the share cache, rebuilt from `active` as the
    /// reference: divides `cap / live` for every live port in every round.
    /// Returns each slot's rate (`NaN` for free slots).
    fn reference_rates(n: &FluidNetwork) -> Vec<f64> {
        let nodes = n.num_nodes;
        let ports = 2 * nodes;
        let cap = n.cfg.bytes_per_sec();
        let mut caps = vec![cap; ports];
        if let Some(fs) = &n.faults {
            for (p, c) in caps.iter_mut().enumerate() {
                *c = if fs.down[p % nodes] {
                    0.0
                } else {
                    cap * fs.port_scale[p]
                };
            }
        }
        let mut port_flows = vec![Vec::new(); ports];
        for &id in &n.active {
            let f = n.flows[id.0 as usize].as_ref().expect("active flow");
            port_flows[f.src.0].push(id);
            port_flows[nodes + f.dst.0].push(id);
        }
        let mut live: Vec<u32> = port_flows.iter().map(|f| f.len() as u32).collect();
        let mut rates = vec![f64::NAN; n.flows.len()];
        let mut unfrozen = n.active.len();
        while unfrozen > 0 {
            let mut best: Option<(f64, usize)> = None;
            for p in 0..ports {
                if live[p] == 0 {
                    continue;
                }
                let share = caps[p] / live[p] as f64;
                if best.is_none_or(|(s, _)| share < s) {
                    best = Some((share, p));
                }
            }
            let (share, port) = best.expect("unfrozen flows keep their ports live");
            for id in &port_flows[port] {
                let i = id.0 as usize;
                if !rates[i].is_nan() {
                    continue;
                }
                rates[i] = share;
                unfrozen -= 1;
                let f = n.flows[i].as_ref().expect("active flow");
                let (a, b) = (f.src.0, nodes + f.dst.0);
                let other = if a == port { b } else { a };
                caps[other] = (caps[other] - share).max(0.0);
                live[a] -= 1;
                live[b] -= 1;
            }
            caps[port] = 0.0;
        }
        rates
    }

    /// The next event by a full scan of every active flow's drain ETA.
    fn reference_next_event(n: &FluidNetwork) -> SimTime {
        let mut t = n.deliveries.front().map_or(SimTime::MAX, |(d, _)| *d);
        for id in &n.active {
            let h = n.hot[id.0 as usize];
            if h.rate > 0.0 {
                let dur = SimTime::from_secs_f64((h.remaining / h.rate).max(0.0))
                    .max(SimTime::from_nanos(1));
                t = t.min(n.last_update + dur);
            }
        }
        t
    }

    fn assert_matches_reference(n: &FluidNetwork, step: usize) {
        let want = reference_rates(n);
        for id in &n.active {
            let (got, want) = (n.hot[id.0 as usize].rate, want[id.0 as usize]);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "step {step}: flow {id:?} rate {got} != {want}"
            );
        }
        let want = reference_next_event(n);
        assert_eq!(n.next_event_time(), want, "step {step}: next event");
        // The memoised answer must agree with a fresh one.
        assert_eq!(
            n.next_event_time(),
            want,
            "step {step}: memoised next event"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random mixes of every state-changing call on 6–8 nodes: after
        /// each call, every active flow's rate matches the dividing
        /// waterfill bit for bit, and the next event matches a full scan.
        #[test]
        fn waterfill_and_drain_match_full_scan_reference(
            nodes in 6usize..=8,
            ops in proptest::collection::vec(
                (0u8..10, 0usize..8, 0usize..8, 1u64..4_000_000, 0u64..3_000), 1..80),
        ) {
            let transport = Transport::custom(
                "t",
                SimTime::from_micros(5),
                SimTime::from_micros(20),
                1.0,
            );
            let mut n = FluidNetwork::new(nodes, NetConfig::gbps(8.0, transport));
            let mut now = SimTime::ZERO;
            for (step, &(kind, a, b, x, dt)) in ops.iter().enumerate() {
                let (a, b) = (a % nodes, b % nodes);
                match kind {
                    0..=2 => {
                        let dst = if a == b { (b + 1) % nodes } else { b };
                        n.submit(now, NodeId(a), NodeId(dst), x, step as u64);
                    }
                    3 => {
                        now += SimTime::from_micros(dt);
                        n.advance(now);
                    }
                    4 => {
                        let next = n.next_event_time();
                        if !next.is_never() {
                            now = next;
                            n.advance(now);
                        }
                    }
                    5 => {
                        let scale = 0.1 + (x % 40) as f64 / 10.0;
                        n.set_port_scale(now, NodeId(a), b % 2 == 0, scale);
                    }
                    6 => {
                        n.kill_port(now, NodeId(a));
                    }
                    7 | 8 => n.revive_port(now, NodeId(a)),
                    _ => {
                        n.cancel_where(now, &mut |tag| tag % 3 == x % 3);
                    }
                }
                assert_matches_reference(&n, step);
            }
            for node in 0..nodes {
                n.revive_port(now, NodeId(node));
                assert_matches_reference(&n, ops.len());
            }
            loop {
                let next = n.next_event_time();
                if next.is_never() {
                    break;
                }
                n.advance(next);
                assert_matches_reference(&n, ops.len());
            }
            proptest::prop_assert!(n.is_idle());
        }
    }

    #[test]
    fn conserves_bytes() {
        let mut n = net(4);
        for s in 0..3usize {
            for d in 0..4usize {
                if s != d {
                    n.submit(SimTime::ZERO, NodeId(s), NodeId(d), mb(1), 0);
                }
            }
        }
        drain(&mut n);
        assert_eq!(n.bytes_delivered(), mb(9));
        assert!(n.is_idle());
    }
}
