//! The recorder probe of the traced run: single-job and cluster runs with
//! every recorder on — Chrome trace, metrics and xray, a scope bus feeding
//! a flight recorder, and the link-contention recorder on the 4-tenant
//! contention mix — each timed against the same run with its recorders
//! off. The measured workloads run with every recorder off, so this is
//! where the recorders are priced, layer by layer.

use std::time::Instant;

use bs_cluster::{
    run_cluster, run_cluster_observed, ClusterConfig, ClusterResult, JobSpec, PlacementPolicy,
};
use bs_harness::experiments::cluster::{GBPS, GPUS_PER_JOB};
use bs_harness::fidelity::Fidelity;
use bs_harness::setups::Setup;
use bs_models::DnnModel;
use bs_net::FabricModel;
use bs_runtime::{run, run_observed, BackgroundLoad, RunResult, SchedulerKind, WorldConfig};
use bs_scope::{FlightHandle, FlightRecorder, ScopeBus};

use crate::check::Checker;
use crate::cluster::{bytescheduler, cluster_text};
use crate::inputs::Rng;
use crate::Layer;

pub const NAME: &str = "recorded_runs";

/// Which recorders an op runs with.
#[derive(Clone, Copy, PartialEq)]
struct Rec {
    trace: bool,
    metrics: bool,
    xray: bool,
    scope: bool,
    contention: bool,
}

const OFF: Rec = Rec {
    trace: false,
    metrics: false,
    xray: false,
    scope: false,
    contention: false,
};

/// The recorded op kinds of one pass.
#[derive(Clone, Copy)]
enum Kind {
    /// One training job (model index, setup) with trace, metrics and xray.
    Single(usize, Setup),
    /// The same PS job observed by a scope bus with a flight recorder.
    Scoped(usize),
    /// The co-tenant cluster pair with trace, metrics and xray.
    Pair,
    /// The co-tenant pair observed by a scope bus with a flight recorder.
    PairScoped,
    /// The 4-tenant contention mix with the contention recorder, at full
    /// fidelity (`cluster --contention`'s reference run).
    Contention,
}

impl Kind {
    fn recorders(self) -> Rec {
        match self {
            Kind::Single(..) | Kind::Pair => Rec {
                trace: true,
                metrics: true,
                xray: true,
                ..OFF
            },
            Kind::Scoped(_) | Kind::PairScoped => Rec { scope: true, ..OFF },
            Kind::Contention => Rec {
                contention: true,
                ..OFF
            },
        }
    }
}

/// The probed ops: every model on PS and all-reduce with the per-run
/// recorders, the scope bus on every model, the two cluster pairs, and
/// the contention run.
fn kinds() -> Vec<Kind> {
    let mut k = Vec::new();
    for m in 0..3 {
        k.push(Kind::Single(m, Setup::MxnetPsRdma));
        k.push(Kind::Single(m, Setup::MxnetNcclRdma));
        k.push(Kind::Scoped(m));
    }
    k.extend([Kind::Pair, Kind::PairScoped, Kind::Contention]);
    k
}

struct RecordedRuns {
    seed: u64,
    models: Vec<DnnModel>,
}

fn run_text(r: &RunResult) -> String {
    format!(
        "speed {:016x} fin {} events {} p2p {} coll {}",
        r.speed.to_bits(),
        r.finished_at.as_nanos(),
        r.comm_events,
        r.p2p_bytes,
        r.collective_bytes
    )
}

/// A scope bus feeding an in-memory flight recorder.
fn flight_bus() -> (ScopeBus, FlightHandle) {
    let mut bus = ScopeBus::new();
    let (fr, handle) = FlightRecorder::new();
    bus.subscribe(Box::new(fr));
    (bus, handle)
}

/// Serialized size of a run's Chrome trace, metrics and xray report.
fn recorded_bytes(r: &RunResult) -> usize {
    let mut bytes = 0;
    if let Some(t) = &r.trace {
        bytes += t.to_chrome_json().len();
    }
    if let Some(mx) = &r.metrics {
        bytes += serde_json::to_string(mx).expect("metrics serialize").len();
    }
    if let Some(x) = &r.xray {
        bytes += serde_json::to_string(x).expect("xray serializes").len();
    }
    bytes
}

/// What one op produced. What the recorders recorded is serialized only
/// after the op's timer stops, so the probe times the recorders rather
/// than formatting ~10 MB of JSON.
struct Outcome {
    ran: Ran,
    rows: Option<FlightHandle>,
}

enum Ran {
    Single(RunResult),
    Cluster(ClusterResult),
}

impl Outcome {
    /// The digest text of the simulated results.
    fn text(&self) -> String {
        match &self.ran {
            Ran::Single(r) => run_text(r),
            Ran::Cluster(r) => cluster_text(r),
        }
    }

    /// Bytes of the recorders' output, serialized as the harness binaries
    /// write it: Chrome trace, metrics, xray, `events.jsonl`, contention.
    fn bytes(&self) -> usize {
        let mut bytes = self.rows.as_ref().map_or(0, |h| h.to_jsonl().len());
        match &self.ran {
            Ran::Single(r) => bytes += recorded_bytes(r),
            Ran::Cluster(r) => {
                bytes += r
                    .jobs
                    .iter()
                    .map(|j| recorded_bytes(&j.result))
                    .sum::<usize>();
                if let Some(t) = &r.trace {
                    bytes += t.to_chrome_json().len();
                }
                if let Some(mx) = &r.metrics {
                    bytes += serde_json::to_string(mx).expect("metrics serialize").len();
                }
                if let Some(m) = &r.contention {
                    bytes += serde_json::to_string(m)
                        .expect("contention serializes")
                        .len();
                }
            }
        }
        bytes
    }
}

impl RecordedRuns {
    fn new(seed: u64) -> RecordedRuns {
        RecordedRuns {
            seed,
            models: bs_models::zoo::benchmark_models(),
        }
    }

    fn job(&self, m: usize, setup: Setup, sched: SchedulerKind, seed: u64) -> WorldConfig {
        let mut cfg = setup.config(self.models[m].clone(), GPUS_PER_JOB, GBPS, sched);
        Fidelity::full().apply(&mut cfg);
        cfg.seed = seed;
        cfg
    }

    /// Runs `kind` with the recorders `rec`.
    fn run(&self, kind: Kind, rec: Rec, seed: u64) -> Outcome {
        match kind {
            Kind::Single(m, setup) => self.run_single(m, setup, rec, seed),
            Kind::Scoped(m) => self.run_single(m, Setup::MxnetPsRdma, rec, seed),
            Kind::Pair | Kind::PairScoped | Kind::Contention => self.run_pair(kind, rec, seed),
        }
    }

    fn run_single(&self, m: usize, setup: Setup, rec: Rec, seed: u64) -> Outcome {
        let mut cfg = self.job(m, setup, bytescheduler(), seed);
        cfg.record_trace = rec.trace;
        cfg.record_metrics = rec.metrics;
        cfg.record_xray = rec.xray;
        if rec.scope {
            let (mut bus, handle) = flight_bus();
            let r = run_observed(&cfg, Some(&mut bus));
            Outcome {
                ran: Ran::Single(r),
                rows: Some(handle),
            }
        } else {
            Outcome {
                ran: Ran::Single(run(&cfg)),
                rows: None,
            }
        }
    }

    /// The co-tenant pair, or with `Contention` the 4-tenant contention
    /// mix (a second ByteScheduler job and a burst tenant added).
    fn run_pair(&self, kind: Kind, rec: Rec, seed: u64) -> Outcome {
        let contention = matches!(kind, Kind::Contention);
        let job = |sched, seed| {
            let mut cfg = self.job(0, Setup::MxnetPsRdma, sched, seed);
            cfg.fabric = FabricModel::FairShare;
            cfg
        };
        let mut specs = vec![
            JobSpec::train("bytescheduler", job(bytescheduler(), seed)),
            JobSpec::train("fifo-baseline", job(SchedulerKind::Baseline, seed + 1)),
        ];
        if contention {
            specs.insert(
                1,
                JobSpec::train("bytescheduler-b", job(bytescheduler(), seed + 2)),
            );
            let burst = BackgroundLoad {
                burst_bytes: 4 << 20,
                gap_us: 2_000,
            };
            specs.push(JobSpec::burst("burst-bg", burst, 2, seed + 3));
        }
        let template = job(bytescheduler(), 1);
        let mut c = ClusterConfig::new(template.num_workers * 2, template.net);
        c.fabric = FabricModel::FairShare;
        c.placement = PlacementPolicy::Packed;
        c.record_trace = rec.trace;
        c.record_metrics = rec.metrics;
        c.record_xray = rec.xray;
        c.record_contention = rec.contention;
        if rec.scope {
            let (mut bus, handle) = flight_bus();
            let r = run_cluster_observed(&c, &specs, Some(&mut bus));
            Outcome {
                ran: Ran::Cluster(r),
                rows: Some(handle),
            }
        } else {
            Outcome {
                ran: Ran::Cluster(run_cluster(&c, &specs)),
                rows: None,
            }
        }
    }

    /// The probed ops in seed-drawn order, with seed-drawn job seeds.
    fn plan(&self) -> Vec<(Kind, u64)> {
        let mut rng = Rng::for_pass(self.seed, NAME, 0);
        let mut ks = kinds();
        rng.shuffle(&mut ks);
        ks.into_iter().map(|k| (k, rng.small_seed())).collect()
    }
}

/// Times `f`, returning its value unless it panicked (a failed op).
fn timed<T>(chk: &mut Checker, what: &str, f: impl FnOnce() -> T) -> Option<(T, f64)> {
    chk.op(what, || {
        let t0 = Instant::now();
        let v = f();
        (v, t0.elapsed().as_secs_f64())
    })
}

/// Runs every probed op with its recorders off, with all of them on and
/// with each one alone; checks that recording leaves the simulated
/// results unchanged and pushes each recorder's extra wall time over the
/// recorder-off run, the bytes they recorded, and the two recorder
/// predictions.
pub fn probe(seed: u64, chk: &mut Checker, out: &mut Vec<Layer>) {
    let this = RecordedRuns::new(seed);
    let (mut trace, mut metrics, mut xray, mut scope) = (0.0, 0.0, 0.0, 0.0);
    let (mut contention, mut contention_off, mut contention_on) = (0.0, 0.0, 0.0);
    let mut bytes = 0;
    for (kind, seed) in this.plan() {
        let rec = kind.recorders();
        let Some((off, off_s)) = timed(chk, "unrecorded run", || this.run(kind, OFF, seed)) else {
            continue;
        };
        let Some((on, on_s)) = timed(chk, "recorded run", || this.run(kind, rec, seed)) else {
            continue;
        };
        chk.same("recorded == unrecorded", &on.text(), &off.text());
        bytes += on.bytes();
        drop((on, off));
        let mut alone = |one: Rec, sum: &mut f64| {
            if rec == one {
                *sum += on_s - off_s;
            } else if let Some((_, s)) = timed(chk, "recorded run", || this.run(kind, one, seed)) {
                *sum += s - off_s;
            }
        };
        if rec.trace {
            alone(Rec { trace: true, ..OFF }, &mut trace);
        }
        if rec.metrics {
            alone(
                Rec {
                    metrics: true,
                    ..OFF
                },
                &mut metrics,
            );
        }
        if rec.xray {
            alone(Rec { xray: true, ..OFF }, &mut xray);
        }
        if rec.scope {
            alone(Rec { scope: true, ..OFF }, &mut scope);
        }
        if rec.contention {
            alone(
                Rec {
                    contention: true,
                    ..OFF
                },
                &mut contention,
            );
            contention_off += off_s;
            contention_on += on_s;
        }
    }
    let contention_x = contention_on / contention_off;
    out.push(Layer::new("record.trace_s", trace, "s"));
    out.push(Layer::new("record.metrics_s", metrics, "s"));
    out.push(Layer::new("record.xray_s", xray, "s"));
    out.push(Layer::new("record.scope_s", scope, "s"));
    out.push(Layer::new("record.contention_s", contention, "s"));
    out.push(Layer::new("record.contention_off_s", contention_off, "s"));
    out.push(Layer::new("record.contention_x", contention_x, "ratio"));
    out.push(Layer::new("record.bytes", bytes as f64, "bytes"));
    let largest = trace.max(metrics).max(xray).max(scope);
    out.push(Layer::new(
        "predict.contention_dominates",
        (contention > largest) as u8 as f64,
        "bool",
    ));
    out.push(Layer::new(
        "predict.contention_36x",
        (contention_x >= 18.0) as u8 as f64,
        "bool",
    ));
}
