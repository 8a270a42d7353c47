//! Property tests for the telemetry layer: the recorded per-port
//! utilisation series must account for every byte the fabric moved.
//!
//! With an ideal transport (no per-message wire overhead), a port that is
//! busy for `T` seconds at capacity `C` bytes/sec moves exactly `T·C`
//! bytes — so for *any* workload, on *both* fabric disciplines,
//! `∫ util dt × capacity` per port must equal the bytes that crossed it:
//! exactly for the FIFO fabric's 0/1 busy series, and up to f64 rate
//! accumulation for the fluid fabric's allocated-rate fraction.

use bytescheduler::net::{
    Fabric, FabricModel, NetConfig, NetEvent, NetPort, NodeId, RecordSet, Transport,
};
use bytescheduler::sim::SimTime;
use bytescheduler::telemetry::MetricSet;
use proptest::prelude::*;

const NODES: usize = 5;

/// Runs a workload to completion with telemetry on; returns the closed
/// metrics and per-node (sent, received) byte totals.
fn run_workload(
    model: FabricModel,
    flows: &[(usize, usize, u64, u64)],
) -> (MetricSet, [u64; NODES], [u64; NODES]) {
    let cfg = NetConfig::gbps(8.0, Transport::ideal()); // 1e9 B/s
    let mut fabric = Fabric::new(model, NODES, cfg);
    let metrics = RecordSet {
        metrics: true,
        ..RecordSet::default()
    };
    fabric.enable_recording(SimTime::ZERO, metrics);
    let mut sent = [0u64; NODES];
    let mut recv = [0u64; NODES];
    let mut events: Vec<NetEvent> = Vec::new();
    let mut end = SimTime::ZERO;

    // Submissions in time order (the fabrics expect a monotone clock).
    let mut flows: Vec<_> = flows.to_vec();
    flows.sort_by_key(|&(_, _, _, start_us)| start_us);
    for (i, &(src, dst, bytes, start_us)) in flows.iter().enumerate() {
        if src == dst {
            continue;
        }
        let at = SimTime::from_micros(start_us);
        while fabric.next_event_time() <= at && !fabric.next_event_time().is_never() {
            let t = fabric.next_event_time();
            fabric.advance_into(t, &mut events);
            events.clear();
            end = end.max(t);
        }
        fabric.submit(at, NodeId(src), NodeId(dst), bytes, i as u64);
        sent[src] += bytes;
        recv[dst] += bytes;
        end = end.max(at);
    }
    let mut guard = 0;
    loop {
        let t = fabric.next_event_time();
        if t.is_never() {
            break;
        }
        fabric.advance_into(t, &mut events);
        events.clear();
        end = end.max(t);
        guard += 1;
        assert!(guard < 2_000_000, "fabric did not drain");
    }
    let ms = fabric
        .take_wire_log(end)
        .metrics
        .expect("telemetry enabled");
    (ms, sent, recv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `∫ util dt × capacity == bytes through the port`, per port and
    /// direction, on both fabric disciplines, for any workload.
    #[test]
    fn utilisation_integrals_account_for_every_byte(
        flows in proptest::collection::vec(
            (0usize..NODES, 0usize..NODES, 1u64..10_000_000, 0u64..3_000), 1..24),
    ) {
        let cap = NetConfig::gbps(8.0, Transport::ideal()).bytes_per_sec();
        for model in [FabricModel::SerialFifo, FabricModel::FairShare] {
            let (ms, sent, recv) = run_workload(model, &flows);
            for n in 0..NODES {
                let horizon = ms.horizon;
                let up = ms
                    .get_series(&format!("nic{n}/up_util"))
                    .expect("up series")
                    .integral_secs(horizon) * cap;
                let down = ms
                    .get_series(&format!("nic{n}/down_util"))
                    .expect("down series")
                    .integral_secs(horizon) * cap;
                // Tolerance: one SimTime tick of quantisation per busy
                // segment (≤ 1 byte at this capacity), plus f64 rate
                // accumulation on the fluid fabric.
                let tol = 8.0 + 1e-6 * sent[n] as f64;
                prop_assert!(
                    (up - sent[n] as f64).abs() <= tol,
                    "{model:?} nic{n} up: ∫util·C = {up:.1}, sent {}",
                    sent[n]
                );
                let tol = 8.0 + 1e-6 * recv[n] as f64;
                prop_assert!(
                    (down - recv[n] as f64).abs() <= tol,
                    "{model:?} nic{n} down: ∫util·C = {down:.1}, received {}",
                    recv[n]
                );
            }
            // And the fabric's own byte counter agrees with the series.
            let delivered: u64 = sent.iter().sum();
            prop_assert_eq!(ms.get_counter("bytes_delivered"), Some(delivered));
        }
    }
}
