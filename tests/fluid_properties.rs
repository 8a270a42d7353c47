//! Property tests for the max-min fair fluid fabric.

use bytescheduler::net::{FluidNetwork, NetConfig, NetEvent, NodeId, Transport};
use bytescheduler::sim::SimTime;
use proptest::prelude::*;

fn drain(n: &mut FluidNetwork) -> Vec<(u64, SimTime)> {
    let mut out = Vec::new();
    let mut guard = 0;
    loop {
        let t = n.next_event_time();
        if t.is_never() {
            break;
        }
        out.extend(n.advance(t).into_iter().filter_map(|e| match e {
            NetEvent::Delivered(c) => Some((c.tag, c.finished_at)),
            NetEvent::Released(_) => None,
        }));
        guard += 1;
        assert!(guard < 2_000_000, "fluid fabric did not drain");
    }
    out
}

/// Submits every `(src, dst, bytes, start_us)` flow (skipping loopback)
/// at its start instant, drains the fabric, and checks that all
/// submissions deliver exactly once, bytes are conserved, and no delivery
/// beats the physically possible minimum (size / link rate).
fn drains_and_conserves(flows: &[(usize, usize, u64, u64)]) {
    let cfg = NetConfig::gbps(8.0, Transport::ideal()); // 1e9 B/s
    let mut n = FluidNetwork::new(6, cfg);
    let mut total = 0u64;
    let mut submitted = 0usize;
    let mut done = Vec::new();
    for (i, &(src, dst, bytes, start_us)) in flows.iter().enumerate() {
        if src == dst {
            continue;
        }
        let at = SimTime::from_micros(start_us);
        // Anything delivered before this submission instant counts too.
        done.extend(n.advance(at).into_iter().filter_map(|e| match e {
            NetEvent::Delivered(c) => Some((c.tag, c.finished_at)),
            NetEvent::Released(_) => None,
        }));
        n.submit(at, NodeId(src), NodeId(dst), bytes, i as u64);
        total += bytes;
        submitted += 1;
    }
    done.extend(drain(&mut n));
    prop_assert_eq!(done.len(), submitted);
    prop_assert_eq!(n.bytes_delivered(), total);
    // No flow can beat its solo wire time.
    for &(tag, at) in &done {
        let (_, _, bytes, start_us) = flows[tag as usize];
        let min_end = SimTime::from_micros(start_us) + SimTime::from_secs_f64(bytes as f64 / 1e9);
        prop_assert!(
            at >= min_end,
            "flow {tag} delivered at {at}, before physical minimum {min_end}"
        );
    }
    prop_assert!(n.is_idle());
}

/// A case proptest once saved as a regression: two 1-byte flows into
/// node 0's downlink, the second submitted 1 µs after the first.
#[test]
fn two_one_byte_flows_into_one_downlink_drain_and_conserve() {
    drains_and_conserves(&[(2, 0, 1, 0), (1, 0, 1, 1)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every random workload drains and conserves bytes.
    #[test]
    fn random_workloads_drain_and_conserve(
        flows in proptest::collection::vec(
            (0usize..6, 0usize..6, 1u64..20_000_000, 0u64..5_000), 1..40),
    ) {
        drains_and_conserves(&flows);
    }

    /// Work conservation on a single bottleneck: k same-size flows through
    /// one downlink finish exactly when the serialised schedule would.
    #[test]
    fn incast_aggregate_is_work_conserving(k in 1usize..5, mb in 1u64..8) {
        let cfg = NetConfig::gbps(8.0, Transport::ideal());
        let mut n = FluidNetwork::new(6, cfg);
        let bytes = mb * 1_000_000;
        for w in 0..k {
            n.submit(SimTime::ZERO, NodeId(w), NodeId(5), bytes, w as u64);
        }
        let done = drain(&mut n);
        let last = done.iter().map(|(_, t)| *t).max().unwrap();
        let expect = SimTime::from_secs_f64(k as f64 * bytes as f64 / 1e9);
        let diff = last.saturating_sub(expect).max(expect.saturating_sub(last));
        prop_assert!(
            diff < SimTime::from_micros(5),
            "aggregate finished at {last}, expected {expect}"
        );
    }
}
