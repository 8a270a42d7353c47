//! End-to-end benchmark of the ByteScheduler reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path bsperf/Cargo.toml -- \
//!     --workload tune_sessions --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. Three closed-loop workloads, one client
//! each (see `bsperf/README.md` for why each exists and what every metric
//! should move). With `--trace 0` the last stdout line is a JSON object
//! with the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics of a separate traced run, recorder probe included, whose spans
//! are written to `bsperf/out/`. `--write-digests N` regenerates the committed
//! default-seed digests of one workload over its first `N` passes.

mod check;
mod cluster;
mod inputs;
mod micro;
mod recorded;
mod trace;
mod tune;
mod whatif;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use check::Checker;
use trace::Tracer;

/// One latency sample: a tuning session, a cluster run or a what-if
/// request.
pub struct Op {
    pub latency_s: f64,
    /// Simulated communication completions the op produced.
    pub events: u64,
    /// Ops it counts for in `ops_per_s`: a session's trials, else 1.
    pub count: u64,
}

/// One metric of the result line.
pub struct Layer {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Layer {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Layer {
        Layer {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

pub trait Workload {
    /// The untimed first op; set-up ends when it does.
    fn warm_up(&mut self, chk: &mut Checker);
    /// Untimed checks that hold on any seed.
    fn cross_checks(&mut self, chk: &mut Checker);
    /// One timed pass. Pass `p`'s inputs depend only on the seed and `p`.
    fn pass(&mut self, p: u64, chk: &mut Checker, tr: &mut Tracer) -> Vec<Op>;
    /// Per-layer metrics after traced passes, with any extra probes.
    fn layers(&mut self, chk: &mut Checker, tr: &mut Tracer, out: &mut Vec<Layer>);
}

const WORKLOADS: [&str; 3] = [tune::NAME, cluster::NAME, whatif::NAME];

/// Set-ups per run besides this process's own, each in a fresh child
/// process started between passes, spread evenly over the run so that
/// set-up samples the same stretch of host time as the passes; the median
/// of the nine is reported.
const SETUP_PROBES: usize = 8;

pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile (`q` in (0, 1]); 0 for no samples.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

fn build(name: &str, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        tune::NAME => Box::new(tune::TuneSessions::new(seed, tr)),
        cluster::NAME => Box::new(cluster::ClusterStudies::new(seed, tr)?),
        whatif::NAME => Box::new(whatif::WhatIfService::new(seed, tr)?),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
    write_digests: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let num = |flag: &str, default: &str| -> Result<u64, String> {
        value(flag)
            .unwrap_or(default)
            .parse()
            .map_err(|_| format!("{flag} takes a whole number"))
    };
    let workload = value("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: num("--seed", &check::DEFAULT_SEED.to_string())?,
        seconds: num("--seconds", "20")?.max(1) as f64,
        trace,
        setup_probe: argv.iter().any(|a| a == "--setup-probe"),
        write_digests: value("--write-digests")
            .map(|v| {
                v.parse()
                    .map_err(|_| "--write-digests takes a whole number")
            })
            .transpose()?,
    })
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds the workload and runs its warm-up op, returning it with the
/// set-up seconds since `start`.
fn set_up(
    a: &Args,
    chk: &mut Checker,
    tr: &mut Tracer,
    start: Instant,
) -> Result<(Box<dyn Workload>, f64), String> {
    let mut w = build(&a.workload, a.seed, tr)?;
    w.warm_up(chk);
    Ok((w, start.elapsed().as_secs_f64()))
}

/// Set-up time of a fresh process of this benchmark.
fn probe_setup(a: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", &a.workload])
        .args(["--seed", &a.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(s)) => Ok(s),
        _ => Err(format!("set-up probe failed: {}", out.status)),
    }
}

fn result_line(chk: &Checker, metrics: &[Layer]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        chk.failed == 0,
        chk.attempted.max(1),
        chk.failed,
        body.join(", ")
    )
}

/// The measured run: set-up, timed passes for `seconds` (at least four)
/// with the set-up probes between them, then the cross-checks. A pass's
/// time is the sum of its ops' timers, so checking work is never timed.
/// Every pass is reported: the host's slow spells outlast a pass, and
/// dropping the slower passes of a run only dropped samples (see the
/// noise rules in `bsperf/README.md`).
fn measured(a: &Args, start: Instant) -> Result<(Checker, Vec<Layer>), String> {
    let mut chk = Checker::new(a.seed, &a.workload)?;
    let mut tr = Tracer::new(false);
    let (mut w, own_setup) = set_up(a, &mut chk, &mut tr, start)?;
    let mut setups = vec![own_setup];

    // The run's clock counts pass time only, not the set-up probes'.
    let mut run_s = 0.0;
    let mut passes: Vec<Vec<Op>> = Vec::new();
    while passes.len() < 4 || run_s < a.seconds {
        let probed = setups.len() - 1;
        if probed < SETUP_PROBES && run_s >= probed as f64 * a.seconds / SETUP_PROBES as f64 {
            setups.push(probe_setup(a)?);
        }
        let p = passes.len() as u64;
        let t0 = Instant::now();
        passes.push(w.pass(p, &mut chk, &mut tr));
        run_s += t0.elapsed().as_secs_f64();
    }
    while setups.len() <= SETUP_PROBES {
        setups.push(probe_setup(a)?);
    }
    // The peak is read before the cross-checks run, so it is the
    // workload's own and not the checker's.
    let peak_rss = peak_rss_mb();
    w.cross_checks(&mut chk);
    let rates: Vec<String> = passes
        .iter()
        .map(|ops| {
            let secs: f64 = ops.iter().map(|o| o.latency_s).sum();
            format!(
                "{:.0}",
                ops.iter().map(|o| o.events).sum::<u64>() as f64 / secs
            )
        })
        .collect();
    eprintln!(
        "bsperf: {} passes, {} digests pinned; events/s by pass: {}",
        passes.len(),
        chk.pinned,
        rates.join(" ")
    );
    let ops: Vec<Op> = passes.into_iter().flatten().collect();
    let secs = ops.iter().map(|o| o.latency_s).sum::<f64>().max(1e-12);
    let events = ops.iter().map(|o| o.events as f64).sum::<f64>();
    let count = ops.iter().map(|o| o.count as f64).sum::<f64>();
    let mut lat: Vec<f64> = ops.iter().map(|o| o.latency_s * 1e3).collect();
    eprintln!("bsperf: {} timed ops", ops.len());
    let metrics = vec![
        Layer::new("setup_s", median(&mut setups), "s"),
        Layer::new("ops_per_s", count / secs, "1/s"),
        Layer::new("events_per_s", events / secs, "1/s"),
        Layer::new("p50_ms", percentile(&mut lat, 0.5), "ms"),
        Layer::new("p90_ms", percentile(&mut lat, 0.9), "ms"),
        Layer::new("peak_rss_mb", peak_rss, "MiB"),
    ];
    Ok((chk, metrics))
}

/// Sum of pass `p`'s op timers.
fn pass_secs(w: &mut dyn Workload, p: u64, chk: &mut Checker, tr: &mut Tracer) -> f64 {
    w.pass(p, chk, tr).iter().map(|o| o.latency_s).sum()
}

/// The traced run: every workload's loop with spans on, for a quarter of
/// `seconds` each (at least two passes, three for the what-if service so
/// the cache sees repeats), then each workload's per-layer probes and the
/// recorder probe. The
/// named workload's first two passes alternate with the same passes of an
/// untraced instance, which prices the tracing and checks that traced and
/// untraced ops give the same digests.
fn traced(a: &Args) -> Result<(Checker, Vec<Layer>), String> {
    let mut chk = Checker::unpinned();
    let mut out = Vec::new();
    let (mut build_s, mut untraced_s, mut traced_s) = (0.0, Vec::new(), Vec::new());
    std::fs::create_dir_all("bsperf/out").map_err(|e| format!("bsperf/out: {e}"))?;
    for name in WORKLOADS {
        let mut own = Checker::new(a.seed, name)?;
        let mut off = Tracer::new(false);
        let mut plain = if name == a.workload {
            let mut w = build(name, a.seed, &mut off)?;
            w.warm_up(&mut own);
            Some(w)
        } else {
            None
        };
        let mut tr = Tracer::new(true);
        let mut w = build(name, a.seed, &mut tr)?;
        build_s += tr.secs("bs-models.build");
        w.warm_up(&mut own);
        w.cross_checks(&mut own);
        let t0 = Instant::now();
        let min_passes = if name == whatif::NAME { 3 } else { 2 };
        let mut p = 0;
        while p < min_passes || t0.elapsed().as_secs_f64() < a.seconds / 4.0 {
            if let Some(plain) = plain.as_mut().filter(|_| p < 2) {
                untraced_s.push(pass_secs(plain.as_mut(), p, &mut own, &mut off));
                traced_s.push(pass_secs(w.as_mut(), p, &mut own, &mut tr));
            } else {
                pass_secs(w.as_mut(), p, &mut own, &mut tr);
            }
            p += 1;
        }
        drop(plain);
        w.layers(&mut own, &mut tr, &mut out);
        let path = format!("bsperf/out/spans-{name}-seed{}.jsonl", a.seed);
        std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        chk.attempted += own.attempted;
        chk.failed += own.failed;
        chk.pinned += own.pinned;
    }
    recorded::probe(a.seed, &mut chk, &mut out);
    let (untraced_s, traced_s) = (median(&mut untraced_s), median(&mut traced_s));
    out.push(Layer::new("bs-models.build_s", build_s, "s"));
    out.push(Layer::new("trace.untraced_pass_s", untraced_s, "s"));
    out.push(Layer::new("trace.traced_pass_s", traced_s, "s"));
    out.push(Layer::new(
        "trace.overhead",
        traced_s / untraced_s - 1.0,
        "ratio",
    ));
    for l in out.iter().filter(|l| l.name.starts_with("predict.")) {
        let verdict = if l.value == 1.0 {
            "confirmed"
        } else {
            "not confirmed"
        };
        eprintln!(
            "bsperf: prediction {}: {verdict}",
            &l.name["predict.".len()..]
        );
    }
    Ok((chk, out))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bsperf: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if a.setup_probe {
        let mut chk = match Checker::new(a.seed, &a.workload) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("bsperf: {e}");
                return ExitCode::FAILURE;
            }
        };
        match set_up(&a, &mut chk, &mut Tracer::new(false), start) {
            Ok((_, secs)) if chk.failed == 0 => {
                println!("{secs}");
                return ExitCode::SUCCESS;
            }
            Ok(_) => Err("set-up op failed its checks".to_string()),
            Err(e) => Err(e),
        }
    } else if let Some(passes) = a.write_digests {
        write_digests(&a, passes).map(|()| None)
    } else if a.trace {
        traced(&a).map(Some)
    } else {
        measured(&a, start).map(Some)
    };
    match result {
        Ok(Some((chk, metrics))) => {
            println!("{}", result_line(&chk, &metrics));
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bsperf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the warm-up and `passes` passes on the default seed and writes
/// their digests as the workload's committed section.
fn write_digests(a: &Args, passes: u64) -> Result<(), String> {
    let mut chk = Checker::unpinned();
    let mut tr = Tracer::new(false);
    let mut w = build(&a.workload, check::DEFAULT_SEED, &mut tr)?;
    w.warm_up(&mut chk);
    for p in 0..passes {
        w.pass(p, &mut chk, &mut tr);
    }
    if chk.failed > 0 {
        return Err(format!("{} ops failed; digests not written", chk.failed));
    }
    check::write_digests(&a.workload, &chk.produced)?;
    eprintln!(
        "bsperf: wrote {} digests for {}",
        chk.produced.len(),
        a.workload
    );
    Ok(())
}
