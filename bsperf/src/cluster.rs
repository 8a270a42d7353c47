//! `cluster_studies`: the `--bin cluster` shared-fabric runs — the
//! co-tenant pair, the 2/4/8-job × 3-placement study, the
//! parallel-reference mix on the parallel core, and the machine-failure
//! migration study under the committed cluster fault plan.

use bs_cluster::{
    run_cluster, ClusterConfig, ClusterResult, FaultReaction, JobSpec, PlacementPolicy,
};
use bs_faults::FaultPlan;
use bs_harness::experiments::cluster::{GBPS, GPUS_PER_JOB, MACHINES};
use bs_harness::fidelity::Fidelity;
use bs_harness::setups::Setup;
use bs_models::DnnModel;
use bs_net::FabricModel;
use bs_runtime::{RunOutcome, SchedulerKind, WorldConfig};
use bs_sim::SimTime;

use crate::check::Checker;
use crate::inputs::{nproc, Rng};
use crate::trace::Tracer;
use crate::{Layer, Op, Workload};

pub const NAME: &str = "cluster_studies";

/// The committed fault plan the migration study runs under.
const FAULT_PLAN: &str = "tests/fixtures/cluster_fault_plan.json";

/// One cluster run of the studies; `seed` is the study's base jitter
/// seed, as `cluster --seed N` takes it.
#[derive(Clone, Copy)]
enum Run {
    CoTenant,
    Placement(usize, PlacementPolicy),
    Parallel(usize),
    Migration(FabricModel, FaultReaction),
}

/// The ByteScheduler knobs the cluster study runs its jobs with.
pub fn bytescheduler() -> SchedulerKind {
    SchedulerKind::ByteScheduler {
        partition: 4_000_000,
        credit: 16_000_000,
    }
}

pub struct ClusterStudies {
    seed: u64,
    vgg16: DnnModel,
    plan: FaultPlan,
    peak_in_flight: usize,
}

impl ClusterStudies {
    pub fn new(seed: u64, tr: &mut Tracer) -> Result<ClusterStudies, String> {
        let s = tr.begin("bs-models.build");
        let vgg16 = bs_models::zoo::vgg16();
        tr.end(s);
        let text = std::fs::read_to_string(FAULT_PLAN)
            .map_err(|e| format!("cannot read {FAULT_PLAN}: {e}"))?;
        let plan = FaultPlan::from_json(&text).map_err(|e| format!("{FAULT_PLAN}: {e}"))?;
        Ok(ClusterStudies {
            seed,
            vgg16,
            plan,
            peak_in_flight: 0,
        })
    }

    /// One job: VGG16, MXNet PS RDMA, 16 GPUs at 25 Gbps, fluid fabric.
    fn job(&self, sched: SchedulerKind, seed: u64) -> WorldConfig {
        let mut cfg = Setup::MxnetPsRdma.config(self.vgg16.clone(), GPUS_PER_JOB, GBPS, sched);
        Fidelity::full().apply(&mut cfg);
        cfg.seed = seed;
        cfg.fabric = FabricModel::FairShare;
        cfg
    }

    fn cluster(&self, machines: usize, placement: PlacementPolicy) -> ClusterConfig {
        let template = self.job(bytescheduler(), 1);
        let mut c = ClusterConfig::new(machines, template.net);
        c.fabric = FabricModel::FairShare;
        c.placement = placement;
        c
    }

    fn specs_and_config(&self, run: Run, seed: u64) -> (Vec<JobSpec>, ClusterConfig) {
        let pair = |seed: u64| {
            vec![
                JobSpec::train("bytescheduler", self.job(bytescheduler(), seed)),
                JobSpec::train("fifo-baseline", self.job(SchedulerKind::Baseline, seed + 1)),
            ]
        };
        let workers = self.job(bytescheduler(), 1).num_workers;
        match run {
            Run::CoTenant => (
                pair(seed),
                self.cluster(workers * 2, PlacementPolicy::Packed),
            ),
            Run::Placement(n, policy) => {
                let specs = (0..n)
                    .map(|j| {
                        let sched = if j % 2 == 0 {
                            bytescheduler()
                        } else {
                            SchedulerKind::Baseline
                        };
                        let cfg = self.job(sched, seed + 79 + j as u64);
                        JobSpec::train_at(
                            format!("job{j}"),
                            cfg,
                            SimTime::from_millis(50 * j as u64),
                        )
                    })
                    .collect();
                (specs, self.cluster(MACHINES, policy))
            }
            Run::Parallel(threads) => {
                // The parallel-reference mix: two PS jobs and two
                // all-reduce jobs packed on one fabric.
                let mut specs = pair(seed);
                for i in 0..2u64 {
                    let mut cfg = Setup::MxnetNcclRdma.config(
                        self.vgg16.clone(),
                        GPUS_PER_JOB,
                        GBPS,
                        bytescheduler(),
                    );
                    Fidelity::full().apply(&mut cfg);
                    cfg.seed = seed + 10 + i;
                    specs.push(JobSpec::train(format!("allreduce{i}"), cfg));
                }
                let mut c = self.cluster(workers * 2, PlacementPolicy::Packed);
                c.threads = threads;
                (specs, c)
            }
            Run::Migration(fabric, reaction) => {
                let mut c = self.cluster(workers * 2 + 1, PlacementPolicy::Packed);
                c.fabric = fabric;
                c.faults = Some(self.plan.clone());
                c.reaction = reaction;
                (pair(seed), c)
            }
        }
    }

    /// The pass's runs, in seed-drawn order, with seed-drawn base seeds.
    fn plan_pass(&self, p: u64) -> Vec<(Run, u64)> {
        let mut rng = Rng::for_pass(self.seed, NAME, p);
        let mut runs = vec![Run::CoTenant];
        for n in [2usize, 4, 8] {
            for policy in PlacementPolicy::all() {
                runs.push(Run::Placement(n, policy));
            }
        }
        runs.push(Run::Parallel(nproc()));
        for fabric in [FabricModel::SerialFifo, FabricModel::FairShare] {
            for reaction in [FaultReaction::None, FaultReaction::CheckpointMigrate] {
                runs.push(Run::Migration(fabric, reaction));
            }
        }
        rng.shuffle(&mut runs);
        runs.into_iter().map(|r| (r, rng.small_seed())).collect()
    }
}

/// Makespan, fabric events and every job's JCT, finish time and speed.
pub fn cluster_text(r: &ClusterResult) -> String {
    let mut s = format!(
        "makespan {} events {}",
        r.makespan.as_nanos(),
        r.fabric_events
    );
    for j in &r.jobs {
        let outcome = match &j.result.outcome {
            RunOutcome::Completed => "ok".to_string(),
            RunOutcome::DegradedCompleted { retries, reroutes } => {
                format!("deg{retries}/{reroutes}")
            }
            RunOutcome::Failed { reason } => format!("failed:{reason}"),
        };
        s.push_str(&format!(
            "|{} jct {} fin {} speed {:016x} {outcome}",
            j.name,
            j.jct.as_nanos(),
            j.finished_at.as_nanos(),
            j.result.speed.to_bits()
        ));
    }
    for m in &r.migrations {
        s.push_str(&format!(
            "|mig job {} at {} lost {}",
            m.job,
            m.at.as_nanos(),
            m.lost_iters
        ));
    }
    s
}

impl Workload for ClusterStudies {
    /// The 8-job packed placement run at the study's default seed (21):
    /// fixed whatever the seed, like every warm-up op.
    fn warm_up(&mut self, chk: &mut Checker) {
        let seed = bs_harness::experiments::cluster::DEFAULT_SEED;
        let (specs, c) = self.specs_and_config(Run::Placement(8, PlacementPolicy::Packed), seed);
        if let Some(r) = chk.op("warm-up 8-job run", || run_cluster(&c, &specs)) {
            chk.digest("warmup".into(), &cluster_text(&r));
        }
    }

    /// The parallel core reproduces the sequential driver bit for bit,
    /// Chrome trace included.
    fn cross_checks(&mut self, chk: &mut Checker) {
        let seed = Rng::for_pass(self.seed, NAME, u64::MAX).small_seed();
        let runs: Vec<Option<String>> = [1, nproc().max(2)]
            .into_iter()
            .map(|threads| {
                let (specs, mut c) = self.specs_and_config(Run::Parallel(threads), seed);
                c.record_trace = true;
                chk.op("parallel-reference run", || {
                    let r = run_cluster(&c, &specs);
                    let trace = r
                        .trace
                        .as_ref()
                        .map(|t| t.to_chrome_json())
                        .unwrap_or_default();
                    cluster_text(&r) + &trace
                })
            })
            .collect();
        if let [Some(seq), Some(par)] = &runs[..] {
            chk.same("seq == par on the parallel-reference mix", seq, par);
        }
    }

    fn pass(&mut self, p: u64, chk: &mut Checker, tr: &mut Tracer) -> Vec<Op> {
        let mut ops = Vec::new();
        for (i, (run, seed)) in self.plan_pass(p).into_iter().enumerate() {
            let (specs, c) = self.specs_and_config(run, seed);
            tr.next_op();
            let name = match run {
                Run::Migration(_, FaultReaction::CheckpointMigrate) => "bs-faults.migrate_run",
                _ => "bs-cluster.run",
            };
            let r = chk.op("cluster run", || {
                let s = tr.begin(name);
                let t0 = std::time::Instant::now();
                let r = run_cluster(&c, &specs);
                let latency_s = t0.elapsed().as_secs_f64();
                tr.end(s);
                (r, latency_s)
            });
            if let Some((r, latency_s)) = r {
                ops.push(Op {
                    latency_s,
                    events: r.fabric_events,
                    count: 1,
                });
                tr.add("fabric_events", r.fabric_events as f64);
                tr.add("migrations", r.migrations.len() as f64);
                for j in &r.jobs {
                    self.peak_in_flight = self.peak_in_flight.max(j.result.peak_in_flight);
                }
                chk.digest(format!("p{p}/r{i}"), &cluster_text(&r));
            }
        }
        ops
    }

    fn layers(&mut self, _chk: &mut Checker, tr: &mut Tracer, out: &mut Vec<Layer>) {
        let run_s = tr.secs("bs-cluster.run") + tr.secs("bs-faults.migrate_run");
        let runs = tr.calls("bs-cluster.run") + tr.calls("bs-faults.migrate_run");
        let events = tr.count("fabric_events");
        out.push(Layer::new("bs-cluster.run_s", run_s, "s"));
        out.push(Layer::new("bs-cluster.runs", runs, "count"));
        out.push(Layer::new("bs-cluster.fabric_events", events, "count"));
        out.push(Layer::new(
            "bs-cluster.ns_per_event",
            run_s * 1e9 / events.max(1.0),
            "ns",
        ));
        out.push(Layer::new(
            "bs-faults.migrations",
            tr.count("migrations"),
            "count",
        ));
        out.push(Layer::new(
            "bs-faults.migrate_run_s",
            tr.secs("bs-faults.migrate_run"),
            "s",
        ));
        out.push(Layer::new(
            "bs-net.fluid_churn_ns",
            crate::micro::fluid_churn_ns(self.peak_in_flight.max(8)),
            "ns",
        ));

        // Parallel core: wall at 1 thread over wall at nproc threads on
        // the parallel-reference mix, alternating, median of three each.
        let threads = nproc();
        let seed = Rng::for_pass(self.seed, NAME, u64::MAX).small_seed();
        let mut seq = Vec::new();
        let mut par = Vec::new();
        for _ in 0..3 {
            for (th, walls) in [(1, &mut seq), (threads, &mut par)] {
                let (specs, c) = self.specs_and_config(Run::Parallel(th), seed);
                let t0 = std::time::Instant::now();
                std::hint::black_box(run_cluster(&c, &specs));
                walls.push(t0.elapsed().as_secs_f64());
            }
        }
        let (seq, par) = (crate::median(&mut seq), crate::median(&mut par));
        out.push(Layer::new("bs-cluster.par_seq_s", seq, "s"));
        out.push(Layer::new(
            "bs-cluster.par_threads",
            threads as f64,
            "count",
        ));
        out.push(Layer::new("bs-cluster.par_s", par, "s"));
        out.push(Layer::new("bs-cluster.par_speedup", seq / par, "ratio"));
        out.push(Layer::new(
            "predict.par_core_below_1.2x",
            (seq / par < 1.2) as u8 as f64,
            "bool",
        ));
    }
}
