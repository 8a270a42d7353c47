//! A fabric is either the FIFO network or the fluid network, behind one
//! dispatching wrapper so the runtime can switch sharing disciplines with
//! a config flag.

use bs_sim::SimTime;
use serde::Serialize;

use crate::fluid::FluidNetwork;
use crate::network::{DroppedTransfer, NetEvent, Network, NodeId, TransferId};
use crate::port::NetPort;
use crate::probe::{RecordSet, WireLog};
use crate::scope::ScopeWindow;
use crate::transport::NetConfig;

/// Which sharing discipline the point-to-point fabric uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum FabricModel {
    /// Strict FIFO service per NIC direction with head-of-line blocking —
    /// the paper's §2.2 abstraction of the communication stack (default).
    SerialFifo,
    /// Max-min fair fluid multiplexing — how multi-connection transports
    /// actually share a NIC; see [`crate::fluid`].
    FairShare,
}

/// A point-to-point fabric of either discipline. Event-loop calls go
/// through its [`NetPort`] implementation.
#[derive(Clone, Debug)]
pub enum Fabric {
    /// FIFO fabric.
    Fifo(Network),
    /// Fluid fabric.
    Fluid(FluidNetwork),
}

/// Forwards one call to whichever fabric `$self` holds.
macro_rules! dispatch {
    ($self:expr, $n:ident => $call:expr) => {
        match $self {
            Fabric::Fifo($n) => $call,
            Fabric::Fluid($n) => $call,
        }
    };
}

impl Fabric {
    /// Creates the fabric selected by `model`.
    pub fn new(model: FabricModel, num_nodes: usize, cfg: NetConfig) -> Fabric {
        match model {
            FabricModel::SerialFifo => Fabric::Fifo(Network::new(num_nodes, cfg)),
            FabricModel::FairShare => Fabric::Fluid(FluidNetwork::new(num_nodes, cfg)),
        }
    }

    /// Processes everything up to `now`.
    pub fn advance(&mut self, now: SimTime) -> Vec<NetEvent> {
        dispatch!(self, n => n.advance(now))
    }

    /// Total payload bytes delivered so far.
    pub fn bytes_delivered(&self) -> u64 {
        dispatch!(self, n => n.bytes_delivered())
    }

    /// Transfers delivered end-to-end so far.
    pub fn transfers_delivered(&self) -> u64 {
        dispatch!(self, n => n.transfers_delivered())
    }

    /// Highest number of simultaneously active transfers seen so far.
    pub fn peak_in_flight(&self) -> usize {
        dispatch!(self, n => n.peak_in_flight())
    }

    /// Peak port utilisation over `makespan`: the busiest single NIC
    /// direction's busy fraction (FIFO fabric; the fluid fabric does not
    /// track occupancy). Identifies the bottleneck resource of a run.
    pub fn peak_port_utilisation(&self, makespan: bs_sim::SimTime) -> f64 {
        let Fabric::Fifo(n) = self else { return 0.0 };
        if makespan.as_nanos() == 0 {
            return 0.0;
        }
        let m = makespan.as_secs_f64();
        n.uplink_busy()
            .iter()
            .chain(n.downlink_busy())
            .map(|b| b.as_secs_f64() / m)
            .fold(0.0, f64::max)
    }

    /// Starts the recorders in `set`, replacing any earlier recording.
    /// Recording never changes fabric behaviour.
    pub fn enable_recording(&mut self, now: SimTime, set: RecordSet) {
        dispatch!(self, n => n.enable_recording(now, set))
    }

    /// Ends recording and takes everything recorded, with metric
    /// summaries and the final scope window closed at `now` (see
    /// [`WireLog`]).
    pub fn take_wire_log(&mut self, now: SimTime) -> WireLog {
        dispatch!(self, n => n.take_wire_log(now))
    }
}

impl NetPort for Fabric {
    #[inline]
    fn submit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> TransferId {
        dispatch!(self, n => n.submit(now, src, dst, bytes, tag))
    }

    #[inline]
    fn next_event_time(&self) -> SimTime {
        dispatch!(self, n => n.next_event_time())
    }

    /// The fluid fabric must still integrate every tick while flows are
    /// active (see [`FluidNetwork::wants_advance`]); the FIFO fabric only
    /// changes at its scheduled release/delivery instants.
    #[inline]
    fn wants_advance(&self, now: SimTime) -> bool {
        dispatch!(self, n => NetPort::wants_advance(n, now))
    }

    #[inline]
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetEvent>) {
        dispatch!(self, n => n.advance_into(now, out))
    }

    /// In-flight transfers keep their progress: the FIFO fabric stretches
    /// the occupant's remaining occupancy, the fluid fabric refits all
    /// flow rates.
    fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64) {
        dispatch!(self, n => n.set_port_scale(now, node, up, scale))
    }

    fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer> {
        dispatch!(self, n => n.kill_port(now, node))
    }

    fn revive_port(&mut self, now: SimTime, node: NodeId) {
        dispatch!(self, n => n.revive_port(now, node))
    }

    fn cancel_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer> {
        dispatch!(self, n => n.cancel_where(now, pred))
    }

    fn for_each_pending_tag(&self, f: &mut dyn FnMut(u64)) {
        dispatch!(self, n => n.for_each_pending_tag(f))
    }

    fn in_flight(&self) -> usize {
        dispatch!(self, n => n.in_flight())
    }

    fn queued(&self) -> usize {
        dispatch!(self, n => NetPort::queued(n))
    }

    fn debug_stalled(&self) -> Vec<(usize, usize, u64, bool, bool)> {
        dispatch!(self, n => NetPort::debug_stalled(n))
    }

    fn drain_scope_windows(&mut self, out: &mut Vec<ScopeWindow>) {
        dispatch!(self, n => n.drain_scope_windows(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    /// Both disciplines move the same bytes; the fluid one finishes an
    /// incast no later than FIFO (work conservation), and both report the
    /// identical unloaded single-transfer time.
    #[test]
    fn disciplines_agree_on_unloaded_transfers_and_totals() {
        for model in [FabricModel::SerialFifo, FabricModel::FairShare] {
            let cfg = NetConfig::gbps(8.0, Transport::ideal());
            let mut f = Fabric::new(model, 3, cfg);
            f.submit(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, 1);
            let mut last = SimTime::ZERO;
            loop {
                let t = f.next_event_time();
                if t.is_never() {
                    break;
                }
                for e in f.advance(t) {
                    if let NetEvent::Delivered(c) = e {
                        last = c.finished_at;
                    }
                }
            }
            assert_eq!(last, SimTime::from_millis(1), "{model:?}");
            assert_eq!(f.bytes_delivered(), 1_000_000);
        }
    }
}
