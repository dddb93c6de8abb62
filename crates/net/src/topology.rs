//! Host CPU topology probing, recorded next to benchmark results.
//!
//! Reads the Linux sysfs topology tree (`/sys/devices/system/cpu`) to
//! learn which logical CPUs share a physical core, and summarizes it as a
//! **cores-first** CPU order: one CPU per physical core before any SMT
//! sibling. On hosts without sysfs the probe degrades to
//! `available_parallelism` with every logical CPU treated as its own
//! core, flagged via [`Topology::source`] so benchmark artifacts stay
//! honest about what was actually detected.
//!
//! Like `HostFingerprint` in acoustic-simfunc, the blob serializes to a
//! small JSON object with a stable FNV-1a id, and is embedded in
//! `results/BENCH_*.json` files so cross-host numbers are comparable.

use std::path::Path;

/// One logical CPU and its physical placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    /// Logical CPU index (the kernel's `cpuN`).
    pub cpu: usize,
    /// Core id within the package.
    pub core: usize,
    /// Physical package (socket) id.
    pub package: usize,
}

/// Detected host CPU layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Online logical CPUs in kernel order.
    pub cpus: Vec<Cpu>,
    /// Distinct `(package, core)` pairs.
    pub physical_cores: usize,
    /// Whether any physical core carries more than one logical CPU.
    pub smt: bool,
    /// `"sysfs"` for a real probe, `"fallback"` when sysfs was absent and
    /// the layout is an `available_parallelism` guess.
    pub source: &'static str,
}

impl Topology {
    /// Probes the host: sysfs when available, fallback otherwise.
    pub fn detect() -> Self {
        Self::from_sysfs(Path::new("/sys/devices/system/cpu")).unwrap_or_else(Self::fallback)
    }

    /// The no-sysfs guess: N logical CPUs, each its own core.
    pub fn fallback() -> Self {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        Topology {
            cpus: (0..n)
                .map(|cpu| Cpu {
                    cpu,
                    core: cpu,
                    package: 0,
                })
                .collect(),
            physical_cores: n,
            smt: false,
            source: "fallback",
        }
    }

    /// Parses a sysfs cpu tree rooted at `root`. Public so tests can feed
    /// a synthetic tree; returns `None` if the tree is missing or empty.
    pub fn from_sysfs(root: &Path) -> Option<Self> {
        let online = std::fs::read_to_string(root.join("online")).ok()?;
        let ids = parse_cpu_list(online.trim())?;
        if ids.is_empty() {
            return None;
        }
        let mut cpus = Vec::with_capacity(ids.len());
        for cpu in ids {
            let topo = root.join(format!("cpu{cpu}/topology"));
            let read = |name: &str| -> Option<usize> {
                std::fs::read_to_string(topo.join(name))
                    .ok()?
                    .trim()
                    .parse()
                    .ok()
            };
            // Some minimal containers expose `online` but no per-cpu
            // topology; treat each such CPU as its own core rather than
            // failing the whole probe.
            let core = read("core_id").unwrap_or(cpu);
            let package = read("physical_package_id").unwrap_or(0);
            cpus.push(Cpu { cpu, core, package });
        }
        let mut pairs: Vec<(usize, usize)> = cpus.iter().map(|c| (c.package, c.core)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let physical_cores = pairs.len();
        Some(Topology {
            smt: physical_cores < cpus.len(),
            physical_cores,
            cpus,
            source: "sysfs",
        })
    }

    /// Logical CPU count.
    pub fn logical_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// CPU ids in cores-first order: the first sibling of every physical
    /// core (in CPU order), then second siblings, and so on, so a placement
    /// that walks this list fills physical cores before any SMT sibling is
    /// reused.
    pub fn pin_order(&self) -> Vec<usize> {
        let mut seen: Vec<(usize, usize)> = Vec::new();
        let mut rounds: Vec<Vec<usize>> = Vec::new();
        for c in &self.cpus {
            let key = (c.package, c.core);
            let round = seen.iter().filter(|&&k| k == key).count();
            seen.push(key);
            if rounds.len() <= round {
                rounds.push(Vec::new());
            }
            rounds[round].push(c.cpu);
        }
        rounds.into_iter().flatten().collect()
    }

    /// JSON object for the shared `results/BENCH_*.json` schema.
    pub fn json(&self) -> String {
        format!(
            "{{\"logical_cpus\": {}, \"physical_cores\": {}, \"smt\": {}, \"source\": \"{}\", \"pin_order\": [{}]}}",
            self.logical_cpus(),
            self.physical_cores,
            self.smt,
            self.source,
            self.pin_order()
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }

    /// Stable hash of the serialized form (FNV-1a, as `HostFingerprint`).
    pub fn id(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.json().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Parses the kernel's cpu list syntax (`"0-3,5,8-9"`) into sorted ids.
fn parse_cpu_list(s: &str) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    if s.is_empty() {
        return Some(out);
    }
    for part in s.split(',') {
        let part = part.trim();
        if let Some((lo, hi)) = part.split_once('-') {
            let lo: usize = lo.trim().parse().ok()?;
            let hi: usize = hi.trim().parse().ok()?;
            if hi < lo {
                return None;
            }
            out.extend(lo..=hi);
        } else {
            out.push(part.parse().ok()?);
        }
    }
    out.sort_unstable();
    out.dedup();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_tree(dir: &Path, cpus: &[(usize, usize, usize)]) {
        // cpus: (cpu, core, package)
        let list = cpus
            .iter()
            .map(|(c, _, _)| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join("online"), list).unwrap();
        for &(cpu, core, package) in cpus {
            let topo = dir.join(format!("cpu{cpu}/topology"));
            std::fs::create_dir_all(&topo).unwrap();
            std::fs::write(topo.join("core_id"), core.to_string()).unwrap();
            std::fs::write(topo.join("physical_package_id"), package.to_string()).unwrap();
        }
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("acoustic-net-topo-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn parses_cpu_list_syntax() {
        assert_eq!(parse_cpu_list("0-3,5").unwrap(), vec![0, 1, 2, 3, 5]);
        assert_eq!(parse_cpu_list("7").unwrap(), vec![7]);
        assert_eq!(parse_cpu_list("0-1,1-2").unwrap(), vec![0, 1, 2]);
        assert!(parse_cpu_list("3-1").is_none());
        assert!(parse_cpu_list("x").is_none());
    }

    #[test]
    fn smt_host_orders_cores_first() {
        // 2 physical cores × 2 SMT threads, kernel-typical sibling
        // numbering: cpu0/cpu2 share core 0, cpu1/cpu3 share core 1.
        let dir = tmpdir("smt");
        synthetic_tree(&dir, &[(0, 0, 0), (1, 1, 0), (2, 0, 0), (3, 1, 0)]);
        let t = Topology::from_sysfs(&dir).unwrap();
        assert_eq!(t.logical_cpus(), 4);
        assert_eq!(t.physical_cores, 2);
        assert!(t.smt);
        assert_eq!(t.source, "sysfs");
        // First one thread of each core, then the siblings.
        assert_eq!(t.pin_order(), vec![0, 1, 2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adjacent_sibling_numbering_interleaves() {
        // The other common numbering: cpu0/cpu1 share core 0.
        let dir = tmpdir("adjacent");
        synthetic_tree(&dir, &[(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 1, 0)]);
        let t = Topology::from_sysfs(&dir).unwrap();
        assert_eq!(t.physical_cores, 2);
        assert!(t.smt);
        assert_eq!(
            t.pin_order(),
            vec![0, 2, 1, 3],
            "both physical cores must be used before any sibling"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_smt_host_is_identity_order() {
        let dir = tmpdir("flat");
        synthetic_tree(&dir, &[(0, 0, 0), (1, 1, 0), (2, 2, 0)]);
        let t = Topology::from_sysfs(&dir).unwrap();
        assert!(!t.smt);
        assert_eq!(t.pin_order(), vec![0, 1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_tree_falls_back() {
        assert!(Topology::from_sysfs(Path::new("/nonexistent/cpu/tree")).is_none());
        let t = Topology::fallback();
        assert!(t.logical_cpus() >= 1);
        assert_eq!(t.source, "fallback");
        assert_eq!(t.physical_cores, t.logical_cpus());
    }

    #[test]
    fn detect_yields_consistent_blob() {
        let t = Topology::detect();
        assert!(t.logical_cpus() >= 1);
        assert!(t.physical_cores >= 1);
        assert!(t.physical_cores <= t.logical_cpus());
        assert_eq!(t.pin_order().len(), t.logical_cpus());
        let json = t.json();
        assert!(json.contains("\"logical_cpus\""));
        assert!(json.contains("\"pin_order\""));
        // Stable id: same blob, same hash.
        assert_eq!(t.id(), t.id());
        assert_ne!(t.id(), 0);
    }

    #[test]
    fn json_shape_is_stable() {
        let t = Topology {
            cpus: vec![
                Cpu {
                    cpu: 0,
                    core: 0,
                    package: 0,
                },
                Cpu {
                    cpu: 1,
                    core: 0,
                    package: 0,
                },
            ],
            physical_cores: 1,
            smt: true,
            source: "sysfs",
        };
        assert_eq!(
            t.json(),
            "{\"logical_cpus\": 2, \"physical_cores\": 1, \"smt\": true, \"source\": \"sysfs\", \"pin_order\": [0, 1]}"
        );
    }
}
