//! Open-loop load generator with golden-response validation.
//!
//! ```text
//! loadgen [--self-host | --addr HOST:PORT]
//!         [--qps 50] [--requests 100] [--connections 2] [--seed 7]
//!         [--deadline-ms 0]
//!         [--train 128] [--test 32] [--epochs 2] [--stream-len 128]
//!         [--zoo-dir DIR] [--mix 1:3,2:1] [--no-validate]
//!         [--conn-report]
//! ```
//!
//! In demo mode, trains the same demo model as the `serve` binary
//! (bit-identical — both sides are fully deterministic). With `--zoo-dir`
//! it instead loads a `train-zoo` checkpoint directory and replays
//! **mixed-model** traffic: each schedule slot's model is drawn from the
//! weighted `--mix` set (defaulting to equal weights over every zoo
//! model). Every request runs at its model's one stream length:
//! `--stream-len` for the demo model, the manifest's for a zoo model.
//! Either way it replays a Poisson arrival schedule at the target QPS and
//! validates every accepted response against local
//! `BatchEngine::run_ready` evaluation of the same checkpoint, so server
//! and generator must agree bit-for-bit. Exits non-zero if any response
//! is wrong or dropped, which makes it usable directly as a CI smoke
//! check.
//!
//! `--self-host` starts the server in-process on an ephemeral port (for
//! zoo mode: serving the same `--zoo-dir`), so a single command exercises
//! the full client/server path.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use acoustic_runtime::{BatchEngine, ModelCache, PreparedModel};
use acoustic_serve::{
    parse_mix, run_load, run_load_mix, summarize, summarize_connections, summarize_mix,
    validate_responses, validate_responses_mix, LoadGenConfig, ModelRegistry, ModelSpec,
    ModelTraffic, ServeConfig, Server, DEMO_MODEL_ID,
};
use acoustic_simfunc::SimConfig;
use acoustic_train::ZooModel;

struct Args {
    addr: Option<String>,
    self_host: bool,
    load: LoadGenConfig,
    train: usize,
    test: usize,
    epochs: usize,
    stream_len: usize,
    zoo_dir: Option<PathBuf>,
    mix: Option<String>,
    validate: bool,
    conn_report: bool,
    serve_cfg: ServeConfig,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        self_host: false,
        load: LoadGenConfig::default(),
        train: 128,
        test: 32,
        epochs: 2,
        stream_len: 128,
        zoo_dir: None,
        mix: None,
        validate: true,
        conn_report: false,
        serve_cfg: ServeConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = Some(val("--addr")),
            "--self-host" => args.self_host = true,
            "--qps" => args.load.qps = val("--qps").parse().expect("f64"),
            "--requests" => args.load.requests = val("--requests").parse().expect("u64"),
            "--connections" => args.load.connections = val("--connections").parse().expect("usize"),
            "--seed" => args.load.seed = val("--seed").parse().expect("u64"),
            "--deadline-ms" => {
                let ms: u32 = val("--deadline-ms").parse().expect("u32");
                args.load.deadline_micros = ms.saturating_mul(1000);
            }
            "--train" => args.train = val("--train").parse().expect("usize"),
            "--test" => args.test = val("--test").parse().expect("usize"),
            "--epochs" => args.epochs = val("--epochs").parse().expect("usize"),
            "--stream-len" => args.stream_len = val("--stream-len").parse().expect("usize"),
            "--zoo-dir" => args.zoo_dir = Some(PathBuf::from(val("--zoo-dir"))),
            "--mix" => args.mix = Some(val("--mix")),
            "--no-validate" => args.validate = false,
            "--queue-capacity" => {
                args.serve_cfg.queue_capacity = val("--queue-capacity").parse().expect("usize");
            }
            "--workers" => args.serve_cfg.workers = val("--workers").parse().expect("usize"),
            "--model-queue-share" => {
                args.serve_cfg.model_queue_share =
                    Some(val("--model-queue-share").parse().expect("usize"));
            }
            "--conn-report" => args.conn_report = true,
            "--help" | "-h" => {
                println!(
                    "loadgen [--self-host | --addr HOST:PORT] [--qps Q] [--requests N]\n        \
                     [--connections C] [--seed S] [--deadline-ms D]\n        \
                     [--train N] [--test N] [--epochs E] [--stream-len L]\n        \
                     [--zoo-dir DIR] [--mix 1:3,2:1] [--queue-capacity Q]\n        \
                     [--workers W] [--model-queue-share N] [--no-validate]\n        \
                     [--conn-report]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    if args.self_host == args.addr.is_some() {
        panic!("pass exactly one of --self-host or --addr; try --help");
    }
    if args.mix.is_some() && args.zoo_dir.is_none() {
        panic!("--mix needs --zoo-dir (mixed traffic replays zoo checkpoints); try --help");
    }
    args
}

/// Prints the shared report block and returns the CI exit decision inputs.
fn report_and_exit(
    report: acoustic_serve::LoadReport,
    per_model: &[acoustic_serve::ModelLoadReport],
    per_conn: &[acoustic_serve::ConnectionReport],
    mismatches: u64,
    validated: bool,
    server: Option<acoustic_serve::ServerHandle>,
) -> ! {
    println!("offered            {}", report.offered);
    println!("completed          {}", report.completed);
    println!("rejected overload  {}", report.rejected_overload);
    println!("deadline exceeded  {}", report.deadline_exceeded);
    println!("warming            {}", report.warming);
    println!("other errors       {}", report.other_errors);
    println!("dropped            {}", report.dropped);
    println!(
        "p50 / p95 / p99    {} / {} / {} µs",
        report.p50_us, report.p95_us, report.p99_us
    );
    println!(
        "goodput            {:.1} QPS over {:?}",
        report.goodput_qps, report.elapsed
    );
    println!("rejection rate     {:.1}%", 100.0 * report.rejection_rate);
    for m in per_model {
        println!(
            "model {:<3} offered {:<5} completed {:<5} rejected {:<4} dropped {:<4} \
             p50 {} µs p99 {} µs goodput {:.1} QPS",
            m.model_id,
            m.offered,
            m.completed,
            m.rejected_overload,
            m.dropped,
            m.p50_us,
            m.p99_us,
            m.goodput_qps
        );
    }
    for c in per_conn {
        println!(
            "conn {:<4} offered {:<5} completed {:<5} errors {:<4} dropped {:<4} \
             p50 {} µs p99 {} µs",
            c.connection, c.offered, c.completed, c.errors, c.dropped, c.p50_us, c.p99_us
        );
    }
    if validated {
        println!("golden mismatches  {mismatches}");
    }

    if let Some(handle) = server {
        let stats = handle.shutdown();
        println!(
            "server: received {} accepted {} completed {} batches {} (mean size {:.2}) \
             model-budget rejections {}",
            stats.received,
            stats.accepted,
            stats.completed,
            stats.batches,
            stats.mean_batch_size(),
            stats.rejected_model_budget
        );
        println!(
            "server io: shards {} shard-hwm {} steals {} conns {} (peak active {}) \
             idle-reaped {}",
            stats.shards,
            stats.shard_depth_hwm,
            stats.queue_steals,
            stats.conns_opened,
            stats.active_connections_hwm,
            stats.idle_reaped
        );
    }

    // CI contract: any wrong or silently dropped response fails the run.
    let failed = mismatches > 0 || report.dropped > 0 || report.other_errors > 0;
    // Sanity: an idle-capacity run should complete something.
    let nothing_done = report.completed == 0;
    if failed || nothing_done {
        eprintln!(
            "FAIL: mismatches={mismatches} dropped={} other_errors={} completed={}",
            report.dropped, report.other_errors, report.completed
        );
        std::process::exit(1);
    }
    println!("OK");
    std::thread::sleep(Duration::from_millis(10)); // let stdout flush cleanly under CI runners
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    match &args.zoo_dir {
        Some(dir) => run_zoo_mode(&args, dir.clone()),
        None => run_demo_mode(&args),
    }
}

fn resolve_addr(server: &Option<acoustic_serve::ServerHandle>, args: &Args) -> SocketAddr {
    match (server, &args.addr) {
        (Some(h), _) => h.addr(),
        (None, Some(a)) => a.parse().expect("valid HOST:PORT address"),
        (None, None) => unreachable!("checked in parse_args"),
    }
}

fn run_demo_mode(args: &Args) -> ! {
    eprintln!(
        "training demo model ({} train / {} test images, {} epochs)…",
        args.train, args.test, args.epochs
    );
    let (network, data) =
        acoustic_serve::demo_model(args.train, args.test, args.epochs).expect("training succeeds");
    let images: Vec<_> = data.test.iter().map(|(t, _)| t.clone()).collect();
    let sim_cfg = SimConfig::with_stream_len(args.stream_len).expect("valid stream length");
    let cache = Arc::new(ModelCache::new());
    // Golden model for validation; the self-hosted registry dedups onto
    // the same prepared instance through the shared cache.
    let golden = cache
        .get_or_compile(sim_cfg, &network)
        .expect("model preparation succeeds");

    let server = if args.self_host {
        let registry = ModelRegistry::build(
            vec![ModelSpec {
                id: DEMO_MODEL_ID,
                network,
                cfg: sim_cfg,
            }],
            &cache,
        )
        .expect("registry builds");
        Some(Server::start("127.0.0.1:0", registry, args.serve_cfg).expect("server starts"))
    } else {
        None
    };
    let addr = resolve_addr(&server, args);

    eprintln!(
        "offering {} requests at {} QPS over {} connection(s) to {addr}…",
        args.load.requests, args.load.qps, args.load.connections
    );
    let outcome = run_load(addr, &images, &args.load).expect("load run completes");
    let report = summarize(&outcome, args.load.requests);
    let per_conn = if args.conn_report {
        summarize_connections(&outcome, &args.load)
    } else {
        Vec::new()
    };

    let mismatches = if args.validate {
        let engine = BatchEngine::new(1).expect("engine builds");
        validate_responses(&outcome, &golden, &engine, &images, &args.load)
            .expect("validation runs")
    } else {
        0
    };
    report_and_exit(report, &[], &per_conn, mismatches, args.validate, server)
}

fn run_zoo_mode(args: &Args, dir: PathBuf) -> ! {
    eprintln!("loading model zoo from {}…", dir.display());
    let zoo = acoustic_train::load_zoo(&dir).expect("zoo loads");
    let pairs = match &args.mix {
        Some(spec) => parse_mix(spec).expect("valid --mix spec"),
        None => zoo.iter().map(|(e, _)| (e.model.id(), 1)).collect(),
    };

    let cache = Arc::new(ModelCache::new());
    let mut traffic: Vec<ModelTraffic> = Vec::new();
    let mut golden: Vec<(u32, Arc<PreparedModel>)> = Vec::new();
    for (id, weight) in &pairs {
        let (entry, network) = zoo
            .iter()
            .find(|(e, _)| e.model.id() == *id)
            .unwrap_or_else(|| panic!("mix model {id} is not in the zoo manifest"));
        let model = ZooModel::from_id(*id).expect("manifest ids are zoo models");
        // Any deterministic image set works — the generator and the golden
        // recompute see the same tensors by construction.
        let images: Vec<_> = model
            .data_kind()
            .expect("mix models are trainable and carry a dataset")
            .generate(0, args.test.max(1), 11)
            .test
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        let sim_cfg = SimConfig::with_stream_len(entry.stream_len).expect("valid stream length");
        let prepared = cache
            .get_or_compile(sim_cfg, network)
            .expect("model preparation succeeds");
        golden.push((*id, prepared));
        traffic.push(ModelTraffic {
            model_id: *id,
            weight: *weight,
            images,
        });
    }

    let server = if args.self_host {
        let registry = ModelRegistry::from_zoo_dir(&dir, &cache).expect("zoo registry builds");
        Some(Server::start("127.0.0.1:0", registry, args.serve_cfg).expect("server starts"))
    } else {
        None
    };
    let addr = resolve_addr(&server, args);

    eprintln!(
        "offering {} mixed requests ({} models) at {} QPS over {} connection(s) to {addr}…",
        args.load.requests,
        traffic.len(),
        args.load.qps,
        args.load.connections
    );
    let outcome = run_load_mix(addr, &traffic, &args.load).expect("load run completes");
    let report = summarize(&outcome, args.load.requests);
    let per_model = summarize_mix(&outcome, &traffic, &args.load);
    let per_conn = if args.conn_report {
        summarize_connections(&outcome, &args.load)
    } else {
        Vec::new()
    };

    let mismatches = if args.validate {
        let engine = BatchEngine::new(1).expect("engine builds");
        validate_responses_mix(&outcome, &golden, &engine, &traffic, &args.load)
            .expect("validation runs")
    } else {
        0
    };
    report_and_exit(
        report,
        &per_model,
        &per_conn,
        mismatches,
        args.validate,
        server,
    )
}
