//! The fabric interface the runtime's event loops are generic over.
//!
//! Every driver loop (single-job, cluster, and the cluster's parallel
//! free-run phase) talks to the network through [`NetPort`]. The trait
//! exists for two reasons:
//!
//! 1. **Speed** — the drivers monomorphise their hot loops over the
//!    concrete fabric ([`Network`] or [`FluidNetwork`]), so per-event
//!    calls inline instead of dispatching through the [`Fabric`] enum on
//!    every submit and advance.
//! 2. **Replayability** — [`SubmitLog`] implements the same interface by
//!    *recording* submissions instead of simulating them, which is what
//!    lets the parallel cluster driver free-run a job ahead of the shared
//!    fabric and replay its traffic later, bit-identically.
//!
//! [`Fabric`]: crate::fabric::Fabric

use bs_sim::SimTime;

use crate::network::{DroppedTransfer, NetEvent, NodeId, TransferId};
use crate::scope::ScopeWindow;

/// A point-to-point fabric as seen by a driver's event loop: transfer
/// submission, clock queries, event draining, and the link-fault hooks.
///
/// Implementations: [`Network`](crate::network::Network) (FIFO),
/// [`FluidNetwork`](crate::fluid::FluidNetwork) (max-min fair),
/// [`Fabric`](crate::fabric::Fabric) (runtime-selected), and
/// [`SubmitLog`] (records instead of simulating).
pub trait NetPort {
    /// Submits a transfer at `now`.
    fn submit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> TransferId;

    /// Earliest instant anything changes, `MAX`/never when idle.
    fn next_event_time(&self) -> SimTime;

    /// True when `advance_into(now)` could change state or emit events.
    fn wants_advance(&self, now: SimTime) -> bool;

    /// Processes everything up to `now`, appending emitted events.
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetEvent>);

    /// Rescales one NIC direction's capacity (fault injection).
    fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64);

    /// Flaps `node` down, killing in-flight transfers on its ports.
    fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer>;

    /// Brings `node` back up.
    fn revive_port(&mut self, now: SimTime, node: NodeId);

    /// Cancels every pending transfer whose tag matches `pred` — queued,
    /// on the wire, or awaiting delivery — and returns them. Unlike
    /// [`Self::kill_port`] the ports stay up, so freed wires immediately
    /// serve surviving work. The cluster driver purges a migrating job's
    /// traffic this way.
    fn cancel_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer>;

    /// Transfers currently occupying wires (diagnostics only).
    fn in_flight(&self) -> usize {
        0
    }

    /// Transfers submitted but not yet on the wire (diagnostics only).
    fn queued(&self) -> usize {
        0
    }

    /// Stalled-transfer rows for `BS_DEBUG_LOOP` (diagnostics only).
    fn debug_stalled(&self) -> Vec<(usize, usize, u64, bool, bool)> {
        Vec::new()
    }

    /// Calls `f` with the tag of every transfer the fabric still owes an
    /// event for (queued, on the wire, or awaiting delivery). Tags may
    /// repeat. The parallel cluster driver uses this to find jobs with no
    /// stake in the shared fabric — the free-run candidates.
    fn for_each_pending_tag(&self, f: &mut dyn FnMut(u64)) {
        let _ = f;
    }

    /// Moves closed scope NIC-utilisation windows into `out`, oldest
    /// first (observation only; no-op unless scope recording was enabled on
    /// a real fabric — a `SubmitLog` records no windows).
    fn drain_scope_windows(&mut self, _out: &mut Vec<ScopeWindow>) {}
}

/// One recorded [`NetPort::submit`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoggedSubmit {
    /// Sender node (fabric-global).
    pub src: NodeId,
    /// Receiver node (fabric-global).
    pub dst: NodeId,
    /// Payload size.
    pub bytes: u64,
    /// Full (namespaced) transfer tag.
    pub tag: u64,
}

/// A fabric stand-in that records submissions instead of simulating them.
///
/// The parallel cluster driver hands a `SubmitLog` to a job that provably
/// cannot receive fabric events (it has nothing pending on the shared
/// fabric), lets the job run ahead on a worker thread, and later replays
/// the recorded submissions against the real fabric at their original
/// instants and order. Callers are expected to ignore the returned
/// [`TransferId`] — every runtime submission path does — so the log hands
/// out sequence numbers.
///
/// Time never advances through a log (`next_event_time` is never,
/// `wants_advance` is false), and the link-fault hooks panic: cluster
/// tenants may not carry link-fault plans precisely because ports are
/// shared, so a logged run can never legitimately reach them.
#[derive(Clone, Debug, Default)]
pub struct SubmitLog {
    /// Recorded submissions in call order.
    pub submits: Vec<LoggedSubmit>,
}

impl SubmitLog {
    /// An empty log.
    pub fn new() -> SubmitLog {
        SubmitLog::default()
    }

    /// Number of submissions recorded so far.
    pub fn len(&self) -> usize {
        self.submits.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.submits.is_empty()
    }
}

impl NetPort for SubmitLog {
    #[inline]
    fn submit(
        &mut self,
        _now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> TransferId {
        let id = TransferId(self.submits.len() as u64);
        self.submits.push(LoggedSubmit {
            src,
            dst,
            bytes,
            tag,
        });
        id
    }

    #[inline]
    fn next_event_time(&self) -> SimTime {
        SimTime::MAX
    }

    #[inline]
    fn wants_advance(&self, _now: SimTime) -> bool {
        false
    }

    fn advance_into(&mut self, _now: SimTime, _out: &mut Vec<NetEvent>) {}

    fn set_port_scale(&mut self, _now: SimTime, _node: NodeId, _up: bool, _scale: f64) {
        panic!("link faults cannot be applied to a SubmitLog (cluster tenants share ports)");
    }

    fn kill_port(&mut self, _now: SimTime, _node: NodeId) -> Vec<DroppedTransfer> {
        panic!("link faults cannot be applied to a SubmitLog (cluster tenants share ports)");
    }

    fn revive_port(&mut self, _now: SimTime, _node: NodeId) {
        panic!("link faults cannot be applied to a SubmitLog (cluster tenants share ports)");
    }

    fn cancel_where(
        &mut self,
        _now: SimTime,
        _pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer> {
        panic!(
            "transfers cannot be cancelled on a SubmitLog (free-running jobs own no fabric state)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_in_order_and_never_advances() {
        let mut log = SubmitLog::new();
        assert!(log.is_empty());
        let a = log.submit(SimTime::ZERO, NodeId(0), NodeId(1), 10, 7);
        let b = log.submit(SimTime::from_micros(5), NodeId(1), NodeId(0), 20, 8);
        assert_ne!(a, b);
        assert_eq!(log.len(), 2);
        assert_eq!(log.submits[0].tag, 7);
        assert_eq!(log.submits[1].bytes, 20);
        assert!(log.next_event_time().is_never());
        assert!(!log.wants_advance(SimTime::MAX));
        let mut out = Vec::new();
        log.advance_into(SimTime::MAX, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "link faults")]
    fn log_rejects_fault_hooks() {
        SubmitLog::new().kill_port(SimTime::ZERO, NodeId(0));
    }
}
