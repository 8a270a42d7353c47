//! Output checks: per-op digests against the committed default-seed
//! file, the cross-checks that hold on any seed, and the attempted /
//! failed op counts the result line reports.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::Value;

/// The seed the committed digests were produced with.
pub const DEFAULT_SEED: u64 = 1;

/// Where the committed digests live, relative to the repository root.
pub const DIGEST_FILE: &str = "bsperf/digests.json";

/// FNV-1a over a byte string: a stable 64-bit digest of an op's
/// simulated outputs.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Counts ops and failures, compares digests, and collects the digests
/// of this run (written out by `--write-digests`).
pub struct Checker {
    committed: BTreeMap<String, String>,
    pub produced: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    pub pinned: u64,
}

impl Checker {
    /// A checker for `seed`. The warm-up op is the same on every seed, so
    /// its digest is checked on every seed; the other committed digests
    /// are for the default seed, and other seeds rely on the cross-checks.
    pub fn new(seed: u64, workload: &str) -> Result<Checker, String> {
        let text = std::fs::read_to_string(DIGEST_FILE)
            .map_err(|e| format!("cannot read {DIGEST_FILE}: {e}"))?;
        let doc = serde_json::from_str(&text).map_err(|e| format!("{DIGEST_FILE}: {e:?}"))?;
        let mut committed = BTreeMap::new();
        if let Some(Value::Object(rows)) = doc.get(workload) {
            for (k, v) in rows {
                if let Value::Str(s) = v {
                    if seed == DEFAULT_SEED || k == "warmup" {
                        committed.insert(k.clone(), s.clone());
                    }
                }
            }
        }
        Ok(Checker {
            committed,
            ..Checker::unpinned()
        })
    }

    /// A checker with no committed digests, for regenerating them.
    pub fn unpinned() -> Checker {
        Checker {
            committed: BTreeMap::new(),
            produced: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            pinned: 0,
        }
    }

    /// Runs one op, counting it as attempted; a panic counts as a failed
    /// op instead of ending the run.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(_) => {
                self.fail(&format!("{what}: op panicked"));
                None
            }
        }
    }

    /// Records an op's digest under `key` and compares it with the
    /// committed one, when there is one, and with the same op's digest
    /// from earlier in this run (the traced run repeats ops untraced).
    pub fn digest(&mut self, key: String, text: &str) {
        let d = format!("{:016x}", fnv(text.as_bytes()));
        if let Some(want) = self.committed.get(&key) {
            self.pinned += 1;
            if *want != d {
                self.fail(&format!("{key}: digest {d} != committed {want}"));
            }
        }
        if let Some(before) = self.produced.insert(key.clone(), d.clone()) {
            if before != d {
                self.fail(&format!("{key}: digest {d} != {before} earlier in the run"));
            }
        }
    }

    /// A cross-check: two computations that must agree byte for byte.
    pub fn same(&mut self, what: &str, a: &str, b: &str) {
        if a != b {
            self.fail(&format!("cross-check {what}: outputs differ"));
        }
    }

    pub fn fail(&mut self, msg: &str) {
        self.failed += 1;
        eprintln!("bsperf: FAILED {msg}");
    }
}

/// Writes `produced` as the committed digest file's `workload` section,
/// keeping the other workloads' sections.
pub fn write_digests(workload: &str, produced: &BTreeMap<String, String>) -> Result<(), String> {
    let mut sections: Vec<(String, Value)> = match std::fs::read_to_string(DIGEST_FILE) {
        Ok(text) => match serde_json::from_str(&text) {
            Ok(Value::Object(s)) => s,
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    let rows = Value::Object(
        produced
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect(),
    );
    match sections.iter_mut().find(|(k, _)| k == workload) {
        Some(slot) => slot.1 = rows,
        None => sections.push((workload.to_string(), rows)),
    }
    sections.sort_by(|a, b| a.0.cmp(&b.0));
    let text = serde_json::to_string_pretty(&Value::Object(sections))
        .map_err(|e| format!("serialize digests: {e:?}"))?;
    std::fs::write(DIGEST_FILE, text + "\n").map_err(|e| format!("write {DIGEST_FILE}: {e}"))
}
