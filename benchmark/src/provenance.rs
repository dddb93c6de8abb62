//! What a run record says about where it ran and on what code: commit,
//! source digest, host, topology, zoo digest, and a fixed CPU reference
//! loop that shows host drift between runs.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use acoustic_core::prng::splitmix64;
use acoustic_net::Topology;
use acoustic_runtime::HostFingerprint;

use crate::json::{self, Value};

/// 64-bit FNV-1a: stable across processes and hosts.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Every regular file under `dir`, recursively, sorted by path.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => files_under(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// FNV-1a over the relative path and bytes of `rel` (relative to the
/// repository root) or, for a directory, of every file under it in path
/// order.
fn tree_digest(rel: &str) -> String {
    let root = repo_root();
    let target = root.join(rel);
    let mut files = Vec::new();
    if target.is_file() {
        files.push(target);
    } else {
        files_under(&target, &mut files);
        files.sort();
    }
    let mut h = Fnv::default();
    for path in files {
        h.write(
            path.strip_prefix(&root)
                .unwrap_or(&path)
                .to_string_lossy()
                .as_bytes(),
        );
        h.write(&std::fs::read(&path).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

/// Digest of the zoo directory; a run that changes it is invalid.
pub fn zoo_digest() -> String {
    tree_digest("results/zoo")
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// in an export that has no `.git` (the source digest still identifies the
/// code then).
fn git_commit() -> String {
    let git = repo_root().join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|t| t.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Milliseconds of a fixed integer loop — a host-speed reference timed
/// before and after each workload. Median of three.
pub fn host_ref_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let mut state = 0x5EED_u64;
            let mut acc = 0u64;
            for _ in 0..(1u32 << 22) {
                acc ^= splitmix64(black_box(&mut state));
            }
            black_box(acc);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// CPU time the hypervisor ran other guests instead of this one ("steal")
/// and all CPU time, in ticks since boot, from the first line of
/// `/proc/stat`; zeros where it cannot be read.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user).
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The run-independent part of a run record's provenance.
pub fn host_and_code() -> Vec<(&'static str, Value)> {
    let topology = Topology::detect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parse_or_str = |text: String| json::parse(&text).unwrap_or(Value::Str(text));
    vec![
        ("git_commit", json::s(git_commit())),
        ("source_digest", json::s(tree_digest("crates"))),
        (
            "zoo_manifest_digest",
            json::s(tree_digest("results/zoo/manifest.txt")),
        ),
        ("nproc", json::n(nproc as f64)),
        ("topology", parse_or_str(topology.json())),
        ("host", parse_or_str(HostFingerprint::detect().json())),
    ]
}
