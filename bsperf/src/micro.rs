//! Fabric and scheduler probes through the public APIs: the repository's
//! micro loops (bs-bench `perf_baseline`, bs-bench `micro`), sized from
//! the in-flight depth the workload itself reached.

use std::hint::black_box;
use std::time::Instant;

use bs_core::{ByteScheduler, Scheduler, WorkItem};
use bs_net::{FluidNetwork, NetConfig, Network, NodeId, Transport};
use bs_sim::SimTime;

/// Repeats `f` (which reports the ops it did) for at least 50 ms and
/// returns host nanoseconds per op.
fn ns_per_op(mut f: impl FnMut() -> u64) -> f64 {
    let t0 = Instant::now();
    let mut ops = 0u64;
    while t0.elapsed().as_secs_f64() < 0.05 {
        ops += f();
    }
    t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `next_event_time` on the FIFO fabric with `depth` queued transfers.
pub fn fifo_poll_ns(depth: usize) -> f64 {
    let depth = depth.max(1);
    let mut n = Network::new(16, NetConfig::gbps(8.0, Transport::ideal()));
    for f in 0..depth {
        n.submit(
            SimTime::ZERO,
            NodeId(f % 8),
            NodeId(8 + f % 8),
            1_000_000,
            f as u64,
        );
    }
    ns_per_op(|| {
        let mut acc = SimTime::ZERO;
        for _ in 0..10_000 {
            acc = acc.max(black_box(n.next_event_time()));
        }
        black_box(acc);
        10_000
    })
}

/// Rounds of `flows` simultaneous fluid flows drained to idle: the
/// waterfill under contention, per flow.
pub fn fluid_churn_ns(flows: usize) -> f64 {
    let flows = flows.max(1);
    let mut n = FluidNetwork::new(16, NetConfig::gbps(8.0, Transport::ideal()));
    let mut now = SimTime::ZERO;
    let mut tag = 0u64;
    ns_per_op(|| {
        for f in 0..flows {
            n.submit(
                now,
                NodeId(f % 8),
                NodeId(8 + (f + tag as usize) % 8),
                500_000,
                tag,
            );
            tag += 1;
        }
        loop {
            let t = n.next_event_time();
            if t.is_never() {
                break;
            }
            black_box(n.advance(t));
            now = t;
        }
        now += SimTime::from_millis(10);
        flows as u64
    })
}

/// Algorithm 1's submit → poll → complete cycle at queue depth `depth`,
/// per item.
pub fn sched_cycle_ns(depth: usize) -> f64 {
    let depth = depth.max(1) as u64;
    ns_per_op(|| {
        let mut s = ByteScheduler::new(1 << 20, 8 << 20, 2);
        let now = SimTime::ZERO;
        for i in 0..depth {
            s.submit(
                now,
                WorkItem {
                    lane: (i % 2) as usize,
                    priority: i % 16,
                    bytes: 1 << 20,
                    token: i,
                },
            );
        }
        let mut done = 0u64;
        while done < depth {
            let batch = s.poll(now);
            for item in &batch {
                s.complete(now, item.lane, item.bytes);
            }
            done += batch.len() as u64;
        }
        black_box(done)
    })
}
