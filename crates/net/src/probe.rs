//! The fabrics' one recording sink.
//!
//! Both fabrics hold a single optional `WireProbe` and report each wire
//! event to it exactly once: submit, wire start, wire end, delivery,
//! drop, and (fluid only) rate reallocation. The probe fans the event out
//! to whichever recorders the run switched on:
//!
//! * **lifecycles** — one [`WireXrayRecord`] per transfer that left the
//!   wire, in release order. The xray analyser reads them whole; the
//!   Chrome trace projects each onto its wire span
//!   `(tag, src, dst, wire_start, released)`, so one buffer serves both;
//! * **metrics** — per-port utilisation plus on-wire and queued transfer
//!   counts, one layout and one export for both fabrics;
//! * **scope** — grid-aligned NIC-utilisation windows for the scope bus
//!   (`ScopeUtil`);
//! * **contention** — per-direction active-job sets and occupancy spans
//!   ([`ContentionRecorder`]).
//!
//! Recording never changes fabric behaviour: values flow in, nothing
//! flows back. With recording off a fabric holds no probe, and each
//! record site costs one branch; the probe's methods stay out of line.

use bs_sim::SimTime;
use bs_telemetry::{MetricSet, TimeSeries};

use crate::contention::{ContentionLog, ContentionRecorder};
use crate::fabric::FabricModel;
use crate::network::WireXrayRecord;
use crate::scope::{ScopeUtil, ScopeWindow};

/// Which recorders a fabric feeds; the default records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecordSet {
    /// Full transfer lifecycles, for the Chrome trace's wire spans and
    /// the xray analyser.
    pub lifecycles: bool,
    /// Per-port utilisation and transfer-count series.
    pub metrics: bool,
    /// Scope-bus NIC-utilisation windows of this width.
    pub scope: Option<SimTime>,
    /// Link-contention recording; the function maps a transfer tag to
    /// its job index.
    pub contention: Option<fn(u64) -> usize>,
}

impl RecordSet {
    fn is_empty(&self) -> bool {
        !self.lifecycles && !self.metrics && self.scope.is_none() && self.contention.is_none()
    }
}

/// Everything a fabric recorded, taken once at the end of a run.
#[derive(Clone, Debug, Default)]
pub struct WireLog {
    /// Transfer lifecycles
    /// `(tag, src, dst, submitted, wire_start, released, delivered)`, in
    /// release order. A killed or cancelled transfer releases and
    /// "delivers" at the abort instant; its retransmit is a separate
    /// record. Fluid flows start at submission, so `submitted ==
    /// wire_start`. Empty unless lifecycles were recorded.
    pub lifecycles: Vec<WireXrayRecord>,
    /// The metric series with summaries closed at the take instant, or
    /// `None` if metrics were not recorded. Both fabrics export the same
    /// names; FIFO port utilisation is busy/idle (0 or 1), fluid port
    /// utilisation is the allocated-rate fraction.
    pub metrics: Option<MetricSet>,
    /// The contention recording, or `None` if it was not enabled.
    pub contention: Option<ContentionLog>,
    /// Scope windows not yet drained, the final partial window included.
    pub scope_windows: Vec<ScopeWindow>,
}

/// Per-port metric series shared by both fabrics.
#[derive(Clone, Debug)]
struct PortTelemetry {
    /// Utilisation per NIC direction: up ports `0..n`, down `n..2n`.
    port_util: Vec<TimeSeries>,
    /// Transfers currently on the wire.
    active: TimeSeries,
    /// Transfers submitted but not yet on the wire (always zero on the
    /// fluid fabric, where flows start on submission).
    queued: TimeSeries,
}

/// A fabric's recording sink; see the module docs.
#[derive(Clone, Debug)]
pub(crate) struct WireProbe {
    nodes: usize,
    /// True on the FIFO fabric, whose ports switch busy/idle at wire
    /// start and end; the fluid fabric reports port utilisation at each
    /// reallocation instead.
    fifo: bool,
    lifecycles: Option<Vec<WireXrayRecord>>,
    telem: Option<PortTelemetry>,
    scope: Option<ScopeUtil>,
    contention: Option<ContentionRecorder>,
}

impl WireProbe {
    /// A probe feeding the recorders in `set` of a fabric of `nodes`
    /// NICs, or `None` for an empty set: a fabric that records nothing
    /// holds no probe.
    pub(crate) fn new(
        now: SimTime,
        nodes: usize,
        model: FabricModel,
        set: RecordSet,
    ) -> Option<Box<WireProbe>> {
        if set.is_empty() {
            return None;
        }
        let fifo = model == FabricModel::SerialFifo;
        let telem = set.metrics.then(|| {
            let mut zero = TimeSeries::new();
            zero.record(now, 0.0);
            PortTelemetry {
                port_util: vec![zero.clone(); 2 * nodes],
                active: zero.clone(),
                queued: zero,
            }
        });
        // The fluid fabric integrates one aggregate slot: a window's
        // `util_secs` sums over every direction anyway, and each flow
        // contributes its rate to exactly two of them, so integrating
        // `2 * total_rate / cap` is the same signal at a fraction of the
        // per-reallocation cost.
        let slots = if fifo { 2 * nodes } else { 1 };
        Some(Box::new(WireProbe {
            nodes,
            fifo,
            lifecycles: set.lifecycles.then(Vec::new),
            telem,
            scope: set.scope.map(|w| ScopeUtil::new(now, slots, w)),
            contention: set
                .contention
                .map(|job_of| ContentionRecorder::new(now, nodes, job_of)),
        }))
    }

    /// A transfer entered the fabric.
    #[cold]
    pub(crate) fn submit(&mut self, now: SimTime, src: usize, dst: usize, tag: u64) {
        if let (true, Some(te)) = (self.fifo, self.telem.as_mut()) {
            te.queued.step(now, 1.0);
        }
        if let Some(c) = self.contention.as_mut() {
            c.on_submit(now, src, dst, tag);
        }
    }

    /// A FIFO transfer took its two ports at `now`.
    #[cold]
    pub(crate) fn wire_start(&mut self, now: SimTime, src: usize, dst: usize) {
        self.ports(now, src, dst, 1.0);
        if let Some(te) = self.telem.as_mut() {
            te.queued.step(now, -1.0);
            te.active.step(now, 1.0);
        }
    }

    /// A transfer left the wire — released, killed or cancelled — with
    /// lifecycle `rec` and payload `bytes`.
    #[cold]
    pub(crate) fn wire_end(&mut self, rec: WireXrayRecord, bytes: u64) {
        let (tag, src, dst, _, started, released, _) = rec;
        if let Some(l) = self.lifecycles.as_mut() {
            l.push(rec);
        }
        if self.fifo {
            self.ports(released, src, dst, 0.0);
            if let Some(te) = self.telem.as_mut() {
                te.active.step(released, -1.0);
            }
        }
        if let Some(c) = self.contention.as_mut() {
            c.on_wire(src, dst, tag, bytes, started, released);
        }
    }

    /// A transfer was delivered end-to-end.
    #[cold]
    pub(crate) fn delivered(&mut self, now: SimTime, src: usize, dst: usize, tag: u64) {
        if let Some(c) = self.contention.as_mut() {
            c.on_delivered(now, src, dst, tag);
        }
    }

    /// A pending transfer was dropped and will never deliver; `queued`
    /// when it never reached the wire.
    #[cold]
    pub(crate) fn dropped(&mut self, now: SimTime, src: usize, dst: usize, tag: u64, queued: bool) {
        if let (true, Some(te)) = (queued, self.telem.as_mut()) {
            te.queued.step(now, -1.0);
        }
        if let Some(c) = self.contention.as_mut() {
            c.on_dropped(now, src, dst, tag);
        }
    }

    /// The fluid fabric refitted its rates at `at`: `active` flows with
    /// `total` allocated rate, `port_rate(p)` on port `p`, against
    /// per-port capacity `cap`.
    #[cold]
    pub(crate) fn realloc(
        &mut self,
        at: SimTime,
        cap: f64,
        active: usize,
        total: f64,
        port_rate: impl Fn(usize) -> f64,
    ) {
        if let Some(te) = self.telem.as_mut() {
            for (p, s) in te.port_util.iter_mut().enumerate() {
                s.record(at, port_rate(p) / cap);
            }
            te.active.record(at, active as f64);
        }
        if let Some(sc) = self.scope.as_mut() {
            sc.record(at, 0, 2.0 * total / cap);
        }
    }

    /// FIFO busy/idle switch of `src`'s uplink and `dst`'s downlink.
    fn ports(&mut self, now: SimTime, src: usize, dst: usize, v: f64) {
        if let Some(te) = self.telem.as_mut() {
            te.port_util[src].record(now, v);
            te.port_util[self.nodes + dst].record(now, v);
        }
        if let Some(sc) = self.scope.as_mut() {
            sc.record(now, src, v);
            sc.record(now, self.nodes + dst, v);
        }
    }

    /// Moves closed scope windows into `out`, oldest first.
    pub(crate) fn drain_scope_windows(&mut self, out: &mut Vec<ScopeWindow>) {
        if let Some(sc) = self.scope.as_mut() {
            sc.drain_into(out);
        }
    }

    /// Closes every recorder at `now` into a [`WireLog`]; the fabric's
    /// delivery counters head the metric set.
    pub(crate) fn into_log(self, now: SimTime, transfers: u64, bytes: u64) -> WireLog {
        let metrics = self.telem.map(|t| {
            let mut set = MetricSet::new();
            set.horizon = now;
            set.counter("transfers_delivered", transfers);
            set.counter("bytes_delivered", bytes);
            set.series("active_transfers", t.active);
            set.series("queued_transfers", t.queued);
            let mut ports = t.port_util.into_iter();
            for dir in ["up", "down"] {
                for (i, s) in ports.by_ref().take(self.nodes).enumerate() {
                    set.series(format!("nic{i}/{dir}_util"), s);
                }
            }
            set
        });
        let mut scope_windows = Vec::new();
        if let Some(mut sc) = self.scope {
            sc.finish(now);
            sc.drain_into(&mut scope_windows);
        }
        WireLog {
            lifecycles: self.lifecycles.unwrap_or_default(),
            metrics,
            contention: self.contention.map(|mut c| c.take()),
            scope_windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::network::NodeId;
    use crate::port::NetPort;
    use crate::transport::{NetConfig, Transport};

    const MODELS: [FabricModel; 2] = [FabricModel::SerialFifo, FabricModel::FairShare];

    fn fabric(model: FabricModel) -> Fabric {
        Fabric::new(model, 3, NetConfig::gbps(8.0, Transport::ideal()))
    }

    fn drain(f: &mut Fabric) -> SimTime {
        let mut out = Vec::new();
        let mut end = SimTime::ZERO;
        while !f.next_event_time().is_never() {
            end = f.next_event_time();
            f.advance_into(end, &mut out);
        }
        end
    }

    fn everything() -> RecordSet {
        RecordSet {
            lifecycles: true,
            metrics: true,
            scope: Some(SimTime::from_millis(1)),
            contention: Some(|tag| tag as usize),
        }
    }

    #[test]
    fn an_empty_set_records_nothing() {
        for model in MODELS {
            let mut f = fabric(model);
            f.enable_recording(SimTime::ZERO, RecordSet::default());
            f.submit(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, 0);
            let end = drain(&mut f);
            let log = f.take_wire_log(end);
            assert!(log.lifecycles.is_empty() && log.scope_windows.is_empty());
            assert!(log.metrics.is_none() && log.contention.is_none());
        }
    }

    #[test]
    fn both_fabrics_export_the_same_metric_names() {
        let names: Vec<Vec<String>> = MODELS
            .iter()
            .map(|&model| {
                let mut f = fabric(model);
                f.enable_recording(SimTime::ZERO, everything());
                f.submit(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, 0);
                let end = drain(&mut f);
                let ms = f.take_wire_log(end).metrics.expect("metrics recorded");
                ms.entries().iter().map(|(n, _)| n.clone()).collect()
            })
            .collect();
        assert_eq!(names[0], names[1]);
        assert!(names[0].contains(&"nic2/down_util".to_string()));
    }

    /// A transfer killed on the wire is one lifecycle ending at the kill
    /// instant, and its drop balances the contention active sets.
    #[test]
    fn a_killed_transfer_is_one_lifecycle_and_leaves_no_active_job() {
        let us = SimTime::from_micros;
        for model in MODELS {
            let mut f = fabric(model);
            f.enable_recording(SimTime::ZERO, everything());
            f.submit(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, 1);
            let dropped = f.kill_port(us(400), NodeId(1));
            assert_eq!(dropped.len(), 1, "{model:?}");
            let end = drain(&mut f).max(us(400));
            let log = f.take_wire_log(end);
            assert_eq!(
                log.lifecycles,
                vec![(1, 0, 1, us(0), us(0), us(400), us(400))],
                "{model:?}"
            );
            let c = log.contention.expect("contention recorded");
            assert!(c.active.iter().all(|s| s.last_mask() == 0), "{model:?}");
            assert_eq!(c.occupancy.len(), 2, "{model:?}: both directions");
        }
    }
}
