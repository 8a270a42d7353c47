//! `whatif_service`: one closed-loop client sending what-if batches to an
//! in-process `ReplayService` over the committed Philly day trace, as
//! `replay --serve-stdin` does.

use std::time::Instant;

use bs_cluster::PlacementPolicy;
use bs_harness::experiments::replay::{base_options, load_trace_file};
use bs_harness::fidelity::Fidelity;
use bs_replay::{
    replay_trace, AnswerSource, ReplayOptions, ReplayService, TraceJob, WhatIfAnswer, WhatIfQuery,
};
use bs_runtime::SchedulerKind;
use bs_sim::WorkerPool;

use crate::check::Checker;
use crate::inputs::{nproc, Rng};
use crate::trace::Tracer;
use crate::{Layer, Op, Workload};

pub const NAME: &str = "whatif_service";

const TRACE: &str = "tests/fixtures/traces/philly_day.json";

/// The LRU capacity `replay --serve-stdin` runs with.
const CACHE: usize = 32;

/// Requests per pass.
const PASS_REQUESTS: usize = 10;

/// Requests generated up front; a run uses a prefix.
const STREAM: usize = 4000;

/// The batch sizes of one pass (25 queries), in seed-drawn order.
const BATCHES: [usize; PASS_REQUESTS] = [1, 1, 2, 2, 2, 3, 3, 3, 4, 4];

/// Queries per pass that repeat one of the 16 most recent distinct
/// queries: a cache hit while it is still in the LRU. 7 of 25 keeps hits
/// under half, so the median and the tail are computed replays.
const REPEATS: usize = 7;

/// Queries per pass that copy an earlier query of the same batch
/// (answered by in-batch dedup).
const IN_BATCH_DUPS: usize = 2;

/// A pass's sixteen fresh queries on the axes that set a replay's cost:
/// (truncation, scheduler, threads). Truncation is of the trace's 32 jobs
/// (a wave is 8); the scheduler is the base's (`None`), FIFO (`Some(0)`)
/// or ByteScheduler with `KNOBS[k - 1]` (`Some(k)`). Every pass holds these
/// sixteen, in seed-drawn order, so passes cost alike whatever the seed
/// and runs differ by the host, not by the draw. Sized so a 30 s run
/// sends over 250 requests, more than ten of them beyond p90, and no one
/// huge replay sets the tail.
const FRESH: [(usize, Option<usize>, Option<usize>); 16] = [
    (4, None, Some(1)),
    (4, Some(3), Some(2)),
    (6, Some(0), None),
    (6, Some(1), Some(2)),
    (8, Some(2), Some(1)),
    (8, Some(4), None),
    (8, None, Some(2)),
    (10, Some(0), Some(1)),
    (10, Some(3), Some(2)),
    (10, Some(1), None),
    (12, Some(4), Some(1)),
    (12, None, Some(2)),
    (12, Some(2), Some(1)),
    (16, Some(0), Some(2)),
    (16, Some(3), None),
    (20, Some(1), Some(1)),
];

/// The bandwidths (Gbps) of a pass's fresh queries, paired with them in
/// seed-drawn order; `None` keeps the base's.
const BANDWIDTHS: [Option<f64>; 16] = [
    None,
    None,
    None,
    None,
    Some(5.0),
    Some(10.0),
    Some(10.0),
    Some(12.5),
    Some(20.0),
    Some(25.0),
    Some(25.0),
    Some(40.0),
    Some(40.0),
    Some(50.0),
    Some(100.0),
    Some(100.0),
];

const KNOBS: [(u64, u64); 4] = [
    (1_000_000, 4_000_000),
    (2_000_000, 8_000_000),
    (4_000_000, 16_000_000),
    (8_000_000, 32_000_000),
];

/// One pass's fresh queries: [`FRESH`] in seed-drawn order, each paired
/// with a bandwidth from [`BANDWIDTHS`] and a placement (`None` or one of
/// the three policies, four each) in seed-drawn order. Threads are drawn
/// whatever the host; [`clamp_threads`] caps them at `nproc` when sent.
fn fresh_queries(rng: &mut Rng) -> Vec<WhatIfQuery> {
    let mut fresh = FRESH;
    let mut bandwidths = BANDWIDTHS;
    let mut placements: Vec<Option<PlacementPolicy>> = vec![None; 4];
    for p in PlacementPolicy::all() {
        placements.extend([Some(p); 4]);
    }
    rng.shuffle(&mut fresh);
    rng.shuffle(&mut bandwidths);
    rng.shuffle(&mut placements);
    fresh
        .into_iter()
        .zip(bandwidths)
        .zip(placements)
        .map(
            |(((truncate, sched, threads), bandwidth_gbps), placement)| WhatIfQuery {
                bandwidth_gbps,
                placement,
                scheduler: sched.map(|k| match k {
                    0 => SchedulerKind::Baseline,
                    k => {
                        let (partition, credit) = KNOBS[k - 1];
                        SchedulerKind::ByteScheduler { partition, credit }
                    }
                }),
                threads,
                truncate: Some(truncate),
            },
        )
        .collect()
}

/// The batch as sent: the `threads` overlay capped at this machine's
/// `nproc`.
fn clamp_threads(batch: &[WhatIfQuery]) -> Vec<WhatIfQuery> {
    let cap = nproc();
    batch
        .iter()
        .map(|q| WhatIfQuery {
            threads: q.threads.map(|t| t.min(cap)),
            ..q.clone()
        })
        .collect()
}

/// What a query slot of a pass holds.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    Fresh,
    Repeat,
    InBatchDup,
}

/// The seeded request stream, pass by pass: each pass is ten batches of
/// the sizes in [`BATCHES`], in seed-drawn order. One single-query batch
/// is a repeat (the pass's one all-hit request) and every other batch
/// opens with a fresh query, so the median request is always computed;
/// the other slots hold the rest of the [`REPEATS`] repeats, the
/// [`IN_BATCH_DUPS`] in-batch copies and the pass's sixteen fresh queries.
fn stream(seed: u64) -> Vec<Vec<WhatIfQuery>> {
    let mut rng = Rng::for_pass(seed, NAME, 0);
    let mut recent: Vec<WhatIfQuery> = Vec::new();
    let mut out = Vec::with_capacity(STREAM);
    while out.len() < STREAM {
        let mut sizes = BATCHES;
        rng.shuffle(&mut sizes);
        let hit_batch = sizes.iter().position(|&n| n == 1);
        let mut later = vec![Role::InBatchDup; IN_BATCH_DUPS];
        later.resize(IN_BATCH_DUPS + REPEATS - 1, Role::Repeat);
        later.resize(sizes.iter().sum::<usize>() - sizes.len(), Role::Fresh);
        rng.shuffle(&mut later);
        let mut later = later.into_iter();
        let mut fresh = fresh_queries(&mut rng).into_iter();
        for (b, &n) in sizes.iter().enumerate() {
            let mut batch: Vec<WhatIfQuery> = Vec::with_capacity(n);
            for j in 0..n {
                let role = match j {
                    0 if Some(b) == hit_batch => Role::Repeat,
                    0 => Role::Fresh,
                    _ => later.next().unwrap_or(Role::Fresh),
                };
                let q = match role {
                    Role::InBatchDup => batch[rng.below(batch.len())].clone(),
                    Role::Repeat if !recent.is_empty() => recent[rng.below(recent.len())].clone(),
                    _ => {
                        // A repeat slot before any query to repeat (at the
                        // stream's start) takes a fresh query too.
                        let q = match fresh.next() {
                            Some(q) => q,
                            None => {
                                fresh = fresh_queries(&mut rng).into_iter();
                                fresh.next().expect("a pass has fresh queries")
                            }
                        };
                        recent.push(q.clone());
                        if recent.len() > 16 {
                            recent.remove(0);
                        }
                        q
                    }
                };
                batch.push(q);
            }
            out.push(batch);
        }
    }
    out
}

pub struct WhatIfService {
    jobs: Vec<TraceJob>,
    base: ReplayOptions,
    svc: ReplayService,
    requests: Vec<Vec<WhatIfQuery>>,
    next: usize,
    recompute_checked: bool,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    miss_batches: Vec<Vec<ReplayOptions>>,
}

fn answer_text(a: &WhatIfAnswer) -> String {
    serde_json::to_string(&a.report).expect("replay report serializes")
}

impl WhatIfService {
    pub fn new(seed: u64, tr: &mut Tracer) -> Result<WhatIfService, String> {
        let s = tr.begin("bs-replay.load_trace");
        let jobs = load_trace_file(TRACE)?;
        tr.end(s);
        // The quick service options (`BS_QUICK=1 replay --serve-stdin`):
        // full-fidelity replays take ~0.2 s, too few requests for a p90
        // with ten samples beyond it in a run.
        let base = base_options(Fidelity::quick());
        let svc = ReplayService::new(jobs.clone(), base.clone(), CACHE);
        WorkerPool::shared();
        Ok(WhatIfService {
            jobs,
            base,
            svc,
            requests: stream(seed),
            next: 0,
            recompute_checked: false,
            hit_ms: Vec::new(),
            miss_ms: Vec::new(),
            miss_batches: Vec::new(),
        })
    }

    /// Sends the next request and checks its answers.
    fn request(&mut self, chk: &mut Checker, tr: &mut Tracer) -> Option<Op> {
        let i = self.next;
        self.next = (self.next + 1) % STREAM;
        let batch = self.requests[i].clone();
        let sent = clamp_threads(&batch);
        tr.next_op();
        if tr.on() {
            for q in &sent {
                let s = tr.begin("bs-replay.fingerprint");
                std::hint::black_box(self.svc.fingerprint(q));
                tr.end(s);
            }
        }
        let svc = &mut self.svc;
        let (answers, latency_s) = chk.op("what-if request", || {
            let s = tr.begin("bs-replay.submit_batch");
            let t0 = Instant::now();
            let answers = svc.submit_batch(&sent);
            let latency_s = t0.elapsed().as_secs_f64();
            tr.end(s);
            (answers, latency_s)
        })?;
        chk.attempted += batch.len().saturating_sub(1) as u64;
        let mut events = 0;
        let mut computed = Vec::new();
        for (j, ((drawn, q), a)) in batch.iter().zip(&sent).zip(&answers).enumerate() {
            let text = answer_text(a);
            // The fingerprint of the query as drawn, so the digest does not
            // depend on this machine's thread cap (the report does not).
            let drawn = self.svc.fingerprint(drawn);
            chk.digest(format!("r{i}/q{j}"), &format!("{drawn} {text}"));
            if a.source == AnswerSource::Computed {
                events += a.report.fabric_events;
                computed.push(q.resolve(&self.base));
            }
            // A cached answer equals its recomputation (checked once a
            // run: the recomputation is a full replay, untimed).
            if a.source == AnswerSource::Cache && !self.recompute_checked {
                self.recompute_checked = true;
                let fresh = chk.op("recompute", || {
                    replay_trace(&self.jobs, &q.resolve(&self.base))
                });
                if let Some(fresh) = fresh {
                    let fresh = serde_json::to_string(&fresh).expect("report serializes");
                    chk.same("cached answer == recomputation", &text, &fresh);
                }
            }
        }
        if tr.on() {
            if computed.is_empty() {
                self.hit_ms.push(latency_s * 1e3);
            } else {
                self.miss_ms.push(latency_s * 1e3);
                self.miss_batches.push(computed);
            }
        }
        Some(Op {
            latency_s,
            events,
            count: 1,
        })
    }
}

impl Workload for WhatIfService {
    /// The service's base configuration at four bandwidths, the sweep a
    /// client asks first. Seed-independent, so set-up costs the same on
    /// every seed, and at ~0.3 s it outweighs process start-up costs.
    fn warm_up(&mut self, chk: &mut Checker) {
        let batch: Vec<WhatIfQuery> = [10.0, 25.0, 40.0, 100.0]
            .into_iter()
            .map(|gbps| WhatIfQuery {
                bandwidth_gbps: Some(gbps),
                ..WhatIfQuery::default()
            })
            .collect();
        if let Some(answers) = chk.op("warm-up request", || self.svc.submit_batch(&batch)) {
            let text: Vec<String> = answers.iter().map(answer_text).collect();
            chk.digest("warmup".into(), &text.join("\n"));
        }
    }

    /// The cached ≡ recomputed check runs inside the request loop, on the
    /// first cache hit.
    fn cross_checks(&mut self, _chk: &mut Checker) {}

    fn pass(&mut self, _p: u64, chk: &mut Checker, tr: &mut Tracer) -> Vec<Op> {
        (0..PASS_REQUESTS)
            .filter_map(|_| self.request(chk, tr))
            .collect()
    }

    fn layers(&mut self, chk: &mut Checker, tr: &mut Tracer, out: &mut Vec<Layer>) {
        if !self.recompute_checked {
            chk.fail("no cache hit in the traced requests: cached == recomputed unchecked");
        }
        let stats = self.svc.stats();
        let queries = stats.queries as f64;
        out.push(Layer::new(
            "bs-replay.load_trace_s",
            tr.secs("bs-replay.load_trace"),
            "s",
        ));
        out.push(Layer::new(
            "bs-replay.fingerprint_s",
            tr.secs("bs-replay.fingerprint"),
            "s",
        ));
        out.push(Layer::new("bs-replay.queries", queries, "count"));
        out.push(Layer::new(
            "bs-replay.hit_ratio",
            stats.cache_hits as f64 / queries,
            "ratio",
        ));
        out.push(Layer::new(
            "bs-replay.dedup",
            stats.batch_dedup as f64,
            "count",
        ));
        out.push(Layer::new(
            "bs-replay.executed",
            stats.executed as f64,
            "count",
        ));
        out.push(Layer::new(
            "bs-replay.evictions",
            stats.evictions as f64,
            "count",
        ));
        out.push(Layer::new(
            "bs-replay.hit_ms",
            crate::median(&mut self.hit_ms),
            "ms",
        ));
        out.push(Layer::new(
            "bs-replay.miss_ms",
            crate::median(&mut self.miss_ms),
            "ms",
        ));

        // Direct replays of the misses' options, then the same misses as
        // pool tasks: summed task time over (threads × batch wall).
        let probe: Vec<Vec<ReplayOptions>> = self.miss_batches.iter().take(4).cloned().collect();
        let mut direct = Vec::new();
        for opts in probe.iter().flatten() {
            let t0 = Instant::now();
            std::hint::black_box(replay_trace(&self.jobs, opts));
            direct.push(t0.elapsed().as_secs_f64());
        }
        out.push(Layer::new(
            "bs-replay.replay_trace_s",
            crate::median(&mut direct),
            "s",
        ));
        let pool = WorkerPool::shared();
        let threads = pool.workers() + 1;
        let (mut busy, mut capacity) = (0.0, 0.0);
        for opts in &probe {
            let mut task_s = vec![0.0f64; opts.len()];
            let t0 = Instant::now();
            {
                let jobs = &self.jobs;
                let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = task_s
                    .iter_mut()
                    .zip(opts)
                    .map(|(slot, o)| {
                        let t: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                            let t = Instant::now();
                            std::hint::black_box(replay_trace(jobs, o));
                            *slot = t.elapsed().as_secs_f64();
                        });
                        t
                    })
                    .collect();
                pool.run_scoped(tasks);
            }
            capacity += threads as f64 * t0.elapsed().as_secs_f64();
            busy += task_s.iter().sum::<f64>();
        }
        out.push(Layer::new(
            "bs-simcore.pool_threads",
            threads as f64,
            "count",
        ));
        out.push(Layer::new(
            "bs-simcore.pool_busy_share",
            busy / capacity.max(1e-12),
            "ratio",
        ));
    }
}
