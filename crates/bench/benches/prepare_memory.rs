//! Prepare-time memory footprint of the weights, per zoo model.
//!
//! For every model the bench prepares the weights for real and records
//! resident bytes (weight cycles + lane codes), cycle count, dedup ratio
//! versus the analytic per-lane cost (`materialized_bytes`), and prepare
//! wall time. The trained zoo's `materialized_bytes` are pinned by the
//! root `tests/invariants.rs`, recorded when a per-lane layout was still
//! allocated for real and matched them byte for byte.
//!
//! Flags:
//!
//! * `--quick` (or `ACOUSTIC_BENCH_QUICK`) — trainable models only, at a
//!   shorter stream length.
//! * `--models a,b,c` — explicit slug list overriding the default set.
//! * `--stream-len L` — stream length (default 64).
//! * `--assert-max-bytes N` — fail unless every model's resident bytes
//!   stay at or below `N` (the release-CI memory ceiling).
//! * `--assert-min-ratio R` — fail unless every ImageNet-scale model's
//!   resident bytes stay at least `R`-fold under its per-lane cost.
//!
//! Only a full default run (none of the flags above) writes
//! `results/BENCH_prepare.json`; any other run prints its JSON instead, so
//! a gate invocation leaves the committed file alone.

use std::fmt::Write as _;
use std::time::Instant;

use acoustic_bench::harness::json_string;
use acoustic_net::Topology;
use acoustic_simfunc::{DedupStats, HostFingerprint, ScSimulator, SimConfig};
use acoustic_train::ZooModel;

struct ModelPoint {
    slug: &'static str,
    stream_len: usize,
    prepare_secs: f64,
    stats: DedupStats,
}

struct Args {
    quick: bool,
    /// No flag narrowed or gated the run: only then is the results file
    /// written.
    default_run: bool,
    models: Vec<ZooModel>,
    stream_len: usize,
    assert_max_bytes: Option<u64>,
    assert_min_ratio: Option<f64>,
}

fn parse_args() -> Args {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var_os("ACOUSTIC_BENCH_QUICK").is_some();
    let mut args = Args {
        quick,
        default_run: !quick,
        models: if quick {
            ZooModel::TRAINABLE.to_vec()
        } else {
            ZooModel::ALL.to_vec()
        },
        stream_len: 64,
        assert_max_bytes: None,
        assert_min_ratio: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--quick" => {}
            "--models" => {
                args.default_run = false;
                args.models = val("--models")
                    .split(',')
                    .map(|slug| {
                        ZooModel::from_slug(slug.trim())
                            .unwrap_or_else(|| panic!("unknown model `{slug}`"))
                    })
                    .collect();
            }
            "--stream-len" => {
                args.default_run = false;
                args.stream_len = val("--stream-len").parse().expect("usize");
            }
            "--assert-max-bytes" => {
                args.default_run = false;
                args.assert_max_bytes = Some(val("--assert-max-bytes").parse().expect("u64"));
            }
            "--assert-min-ratio" => {
                args.default_run = false;
                args.assert_min_ratio = Some(val("--assert-min-ratio").parse().expect("f64"));
            }
            // libtest-style flags (e.g. `--bench`) arrive via cargo;
            // ignore anything unrecognized.
            _ => {}
        }
    }
    args
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let args = parse_args();
    let mut points = Vec::new();

    for &model in &args.models {
        let net = model.network().expect("zoo network builds");
        let sim = ScSimulator::new(
            SimConfig::with_stream_len(args.stream_len).expect("valid stream length"),
        );
        let t = Instant::now();
        let prepared = sim.prepare(&net).expect("prepare");
        let prepare_secs = t.elapsed().as_secs_f64();
        let stats = prepared.dedup_stats();
        drop(prepared);

        println!(
            "{:<12} stream {:>4}: {:>12} lanes, {:>4} cycles, {:>9.1} MiB resident \
             ({:>9.1} MiB materialized, {:>5.1}x dedup), prepared in {:.2}s",
            model.slug(),
            args.stream_len,
            stats.lanes,
            stats.distinct_streams,
            mib(stats.resident_bytes),
            mib(stats.materialized_bytes),
            stats.dedup_ratio(),
            prepare_secs,
        );

        if let Some(max) = args.assert_max_bytes {
            assert!(
                stats.resident_bytes <= max,
                "{}: resident {} bytes exceeds the ceiling of {max}",
                model.slug(),
                stats.resident_bytes
            );
        }
        if let Some(min) = args.assert_min_ratio {
            if !model.trainable() {
                assert!(
                    stats.dedup_ratio() >= min,
                    "{}: dedup ratio {:.2} below the required {min}",
                    model.slug(),
                    stats.dedup_ratio()
                );
            }
        }

        points.push(ModelPoint {
            slug: model.slug(),
            stream_len: args.stream_len,
            prepare_secs,
            stats,
        });
    }

    let json = to_json(args.quick, &points);
    if args.default_run {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_prepare.json"
        );
        std::fs::write(path, json).unwrap();
        println!("wrote {path}");
    } else {
        println!("quick, narrowed or gate run: skipping results file\n{json}");
    }
}

fn to_json(quick: bool, points: &[ModelPoint]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"name\": {},", json_string("prepare_memory"));
    out.push_str("  \"config\": {\n");
    let _ = writeln!(out, "    \"quick\": {quick}");
    out.push_str("  },\n");
    let topology = Topology::detect();
    out.push_str("  \"host\": {\n");
    let _ = writeln!(
        out,
        "    \"fingerprint\": {},",
        HostFingerprint::detect().json()
    );
    let _ = writeln!(out, "    \"topology\": {},", topology.json());
    let _ = writeln!(out, "    \"topology_id\": \"{:#018x}\"", topology.id());
    out.push_str("  },\n");
    out.push_str("  \"metrics\": {\n    \"models\": [\n");
    for (i, p) in points.iter().enumerate() {
        let s = &p.stats;
        let _ = write!(
            out,
            "      {{\"model\": {}, \"stream_len\": {}, \"prepare_secs\": {:.6}, \
             \"lanes\": {}, \"distinct_streams\": {}, \"pool_bytes\": {}, \
             \"index_bytes\": {}, \"resident_bytes\": {}, \"materialized_bytes\": {}, \
             \"dedup_ratio\": {:.4}}}",
            json_string(p.slug),
            p.stream_len,
            p.prepare_secs,
            s.lanes,
            s.distinct_streams,
            s.pool_bytes,
            s.index_bytes,
            s.resident_bytes,
            s.materialized_bytes,
            s.dedup_ratio(),
        );
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("    ]\n  }\n}\n");
    out
}
