//! Golden fixture for the *recorded bytes*: every export a recorded run
//! writes, pinned by FNV-1a digest and length.
//!
//! `golden_trace`, `metrics_schema` and `xray_schema` prove recording
//! never changes the simulation; this test pins what the recorders
//! themselves emit, so a refactor of the recording plane (fabric probes,
//! span buffers, harvest order) can prove it is byte-preserving. Five
//! outputs per scenario, each serialised exactly as the harness writes
//! it:
//!
//! * the Chrome trace JSON (`Trace::to_chrome_json`);
//! * the metrics JSON (cluster-level and per job);
//! * the critical-path JSON (one per training job);
//! * the contention JSON (cluster runs only);
//! * the scope `events.jsonl` flight-recorder stream.
//!
//! Four scenarios, each on both fabrics:
//!
//! 1. the comm-heavy PS golden run with every recorder on;
//! 2. the 2-job golden cluster with every recorder, contention and a
//!    scope bus on;
//! 3. the 2-job cluster under `tests/fixtures/cluster_fault_plan.json`
//!    with checkpoint/migrate, which reaches the fabrics' port-kill and
//!    cancel record sites;
//! 4. the same plan with the machine failure moved to 100 ms, where the
//!    kill catches a FIFO transfer on the wire and the cancel purges
//!    fluid transfers in their latency phase.
//!
//! Regenerate after an *intentional* change to a recorded format with
//!
//! ```text
//! BS_UPDATE_GOLDEN=1 cargo test --test recording_golden
//! ```
//!
//! and review the fixture diff like any other behavioural change.

#[allow(dead_code)]
mod common;

use bs_cluster::{
    run_cluster_observed, ClusterConfig, ClusterResult, FaultReaction, JobSpec, PlacementPolicy,
};
use bs_faults::FaultPlan;
use bs_net::FabricModel;
use bs_runtime::{run_observed, RunResult, SchedulerKind, WorldConfig};
use bs_scope::{FlightRecorder, ScopeBus};
use bs_sim::SimTime;
use serde_json::Value;

/// 64-bit FNV-1a: stable across platforms and toolchains, unlike
/// `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One pinned output: its name, byte length and digest.
fn entry(scenario: &str, output: &str, text: &str) -> Value {
    Value::Object(vec![
        ("scenario".to_string(), Value::Str(scenario.to_string())),
        ("output".to_string(), Value::Str(output.to_string())),
        ("bytes".to_string(), Value::U64(text.len() as u64)),
        (
            "fnv1a".to_string(),
            Value::Str(format!("{:016x}", fnv1a(text.as_bytes()))),
        ),
    ])
}

fn pretty<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string_pretty(v).expect("serialise")
}

fn label(fabric: FabricModel) -> &'static str {
    match fabric {
        FabricModel::SerialFifo => "fifo",
        FabricModel::FairShare => "fluid",
    }
}

/// The per-run outputs a single training job records.
fn job_entries(out: &mut Vec<Value>, scenario: &str, job: &str, r: &RunResult) {
    let ms = r.metrics.as_ref().expect("metrics recorded");
    out.push(entry(scenario, &format!("{job}metrics.json"), &pretty(ms)));
    if let Some(x) = &r.xray {
        out.push(entry(
            scenario,
            &format!("{job}critical_path.json"),
            &pretty(x),
        ));
    }
}

/// Scenario 1: the comm-heavy PS golden run, every recorder on.
fn single_job(out: &mut Vec<Value>, fabric: FabricModel) {
    let mut cfg = common::scenario(fabric);
    cfg.record_trace = true;
    cfg.record_metrics = true;
    cfg.record_xray = true;
    let mut bus = ScopeBus::new();
    let (rec, handle) = FlightRecorder::new();
    bus.subscribe(Box::new(rec));
    let r = run_observed(&cfg, Some(&mut bus));
    let scenario = format!("comm_heavy_ps_{}", label(fabric));
    let trace = r.trace.as_ref().expect("trace recorded");
    out.push(entry(&scenario, "trace.json", &trace.to_chrome_json()));
    job_entries(out, &scenario, "", &r);
    out.push(entry(&scenario, "events.jsonl", &handle.to_jsonl()));
}

fn train_job(sched: SchedulerKind, seed: u64) -> WorldConfig {
    let mut c = common::scenario(FabricModel::SerialFifo);
    c.scheduler = sched;
    c.seed = seed;
    c
}

/// The outputs a recorded cluster run writes.
fn cluster_entries(out: &mut Vec<Value>, scenario: &str, r: &ClusterResult, jsonl: &str) {
    let trace = r.trace.as_ref().expect("trace recorded");
    out.push(entry(scenario, "trace.json", &trace.to_chrome_json()));
    let ms = r.metrics.as_ref().expect("cluster metrics recorded");
    out.push(entry(scenario, "metrics.json", &pretty(ms)));
    for (j, job) in r.jobs.iter().enumerate() {
        job_entries(out, scenario, &format!("job{j}/"), &job.result);
    }
    let m = r.contention.as_ref().expect("contention recorded");
    out.push(entry(scenario, "contention.json", &pretty(m)));
    out.push(entry(scenario, "events.jsonl", jsonl));
}

/// Scenarios 2 to 4: the 2-job golden cluster (the second job arriving
/// 20 ms late), every recorder and a scope bus on, optionally under a
/// cluster fault plan with checkpoint/migrate.
fn cluster(out: &mut Vec<Value>, name: &str, fabric: FabricModel, faults: Option<FaultPlan>) {
    let bs = train_job(
        SchedulerKind::ByteScheduler {
            partition: 1_000_000,
            credit: 4_000_000,
        },
        7,
    );
    let fifo = train_job(SchedulerKind::Baseline, 11);
    let faulted = faults.is_some();
    // A faulted run gets one spare machine for the migration target.
    let mut c = ClusterConfig::new(if faulted { 5 } else { 4 }, bs.net);
    c.fabric = fabric;
    c.placement = PlacementPolicy::Packed;
    c.record_trace = true;
    c.record_metrics = true;
    c.record_xray = true;
    c.record_contention = true;
    c.faults = faults;
    c.reaction = FaultReaction::CheckpointMigrate;
    let mut bus = ScopeBus::new();
    let (rec, handle) = FlightRecorder::new();
    bus.subscribe(Box::new(rec));
    let r = run_cluster_observed(
        &c,
        &[
            JobSpec::train("bs", bs),
            JobSpec::train_at("fifo", fifo, SimTime::from_millis(20)),
        ],
        Some(&mut bus),
    );
    bus.finish(r.makespan);
    assert!(
        !faulted || !r.migrations.is_empty(),
        "a fault scenario must checkpoint and migrate a job"
    );
    let scenario = format!("{name}_{}", label(fabric));
    cluster_entries(out, &scenario, &r, &handle.to_jsonl());
}

fn fault_plan() -> FaultPlan {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/cluster_fault_plan.json");
    let text = std::fs::read_to_string(path).expect("committed cluster fault plan");
    FaultPlan::from_json(&text).expect("cluster fault plan parses")
}

fn render() -> String {
    let mut out = Vec::new();
    for fabric in [FabricModel::SerialFifo, FabricModel::FairShare] {
        single_job(&mut out, fabric);
    }
    for fabric in [FabricModel::SerialFifo, FabricModel::FairShare] {
        cluster(&mut out, "two_job_cluster", fabric, None);
    }
    for fabric in [FabricModel::SerialFifo, FabricModel::FairShare] {
        cluster(
            &mut out,
            "cluster_fault_migrate",
            fabric,
            Some(fault_plan()),
        );
    }
    let mut early = fault_plan();
    early.machine_failures[0].at_us = 100_000;
    for fabric in [FabricModel::SerialFifo, FabricModel::FairShare] {
        cluster(&mut out, "cluster_early_fault", fabric, Some(early.clone()));
    }
    serde_json::to_string_pretty(&Value::Array(out)).expect("render digests") + "\n"
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_recording.json")
}

#[test]
fn recorded_bytes_match_committed_fixture() {
    let actual = render();
    let path = fixture_path();
    if std::env::var("BS_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &actual).expect("write fixture");
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with BS_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "recorded output diverged from the golden fixture; if the format \
         change is intentional, regenerate with BS_UPDATE_GOLDEN=1 and \
         review the diff"
    );
}
