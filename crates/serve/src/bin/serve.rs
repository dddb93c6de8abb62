//! Stand-alone acoustic-serve server over the deterministic demo model.
//!
//! ```text
//! serve [--addr 127.0.0.1:7171] [--stream-len 128] [--workers 2]
//!       [--queue-capacity 64] [--batch-max 8] [--batch-wait-us 500]
//!       [--deadline-ms 250] [--train 128] [--test 32] [--epochs 2]
//!       [--duration-secs 0] [--zoo-dir DIR] [--cache-budget-mb M]
//!       [--model-queue-share N] [--shards N] [--idle-timeout-ms T]
//!       [--max-connections N]
//! ```
//!
//! By default trains the demo digit CNN (deterministically — a load
//! generator using the same training parameters holds bit-identical
//! weights) and registers it under model id 1, prepared at `--stream-len`.
//! With `--zoo-dir` it instead serves every checkpoint of a `train-zoo`
//! artifact directory under the manifest's model ids and stream lengths.
//! Every request runs at its model's one stream length. `--cache-budget-mb` bounds the
//! prepared-model cache (cold models are recompiled on demand);
//! `--model-queue-share` caps each model's share of the admission queue.
//! Serves until `--duration-secs` elapses (0 = run until killed).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use acoustic_runtime::{ModelCache, DEFAULT_CACHE_CAPACITY};
use acoustic_serve::{ModelRegistry, ModelSpec, ServeConfig, Server, DEMO_MODEL_ID};
use acoustic_simfunc::SimConfig;

struct Args {
    addr: String,
    stream_len: usize,
    train: usize,
    test: usize,
    epochs: usize,
    duration_secs: u64,
    zoo_dir: Option<PathBuf>,
    cache_budget_mb: Option<usize>,
    cfg: ServeConfig,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7171".into(),
        stream_len: 128,
        train: 128,
        test: 32,
        epochs: 2,
        duration_secs: 0,
        zoo_dir: None,
        cache_budget_mb: None,
        cfg: ServeConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = val("--addr"),
            "--stream-len" => args.stream_len = val("--stream-len").parse().expect("usize"),
            "--train" => args.train = val("--train").parse().expect("usize"),
            "--test" => args.test = val("--test").parse().expect("usize"),
            "--epochs" => args.epochs = val("--epochs").parse().expect("usize"),
            "--duration-secs" => {
                args.duration_secs = val("--duration-secs").parse().expect("u64");
            }
            "--workers" => args.cfg.workers = val("--workers").parse().expect("usize"),
            "--queue-capacity" => {
                args.cfg.queue_capacity = val("--queue-capacity").parse().expect("usize");
            }
            "--batch-max" => args.cfg.batch_max = val("--batch-max").parse().expect("usize"),
            "--batch-wait-us" => {
                args.cfg.batch_wait =
                    Duration::from_micros(val("--batch-wait-us").parse().expect("u64"));
            }
            "--deadline-ms" => {
                args.cfg.default_deadline =
                    Duration::from_millis(val("--deadline-ms").parse().expect("u64"));
            }
            "--zoo-dir" => args.zoo_dir = Some(PathBuf::from(val("--zoo-dir"))),
            "--cache-budget-mb" => {
                args.cache_budget_mb = Some(val("--cache-budget-mb").parse().expect("usize"));
            }
            "--model-queue-share" => {
                args.cfg.model_queue_share =
                    Some(val("--model-queue-share").parse().expect("usize"));
            }
            "--shards" => args.cfg.shards = val("--shards").parse().expect("usize"),
            "--idle-timeout-ms" => {
                args.cfg.idle_timeout = Some(Duration::from_millis(
                    val("--idle-timeout-ms").parse().expect("u64"),
                ));
            }
            "--max-connections" => {
                args.cfg.max_connections = val("--max-connections").parse().expect("usize");
            }
            "--help" | "-h" => {
                println!(
                    "serve [--addr A] [--stream-len N] [--workers W] [--queue-capacity Q]\n      \
                     [--batch-max B] [--batch-wait-us T] [--deadline-ms D]\n      \
                     [--train N] [--test N] [--epochs E] [--duration-secs S]\n      \
                     [--zoo-dir DIR] [--cache-budget-mb M] [--model-queue-share N]\n      \
                     [--shards N] [--idle-timeout-ms T] [--max-connections N]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let cache = Arc::new(
        ModelCache::with_limits(
            DEFAULT_CACHE_CAPACITY,
            args.cache_budget_mb.map(|mb| mb * 1024 * 1024),
        )
        .expect("valid cache limits"),
    );

    let registry = match &args.zoo_dir {
        Some(dir) => {
            eprintln!("loading model zoo from {}…", dir.display());
            ModelRegistry::from_zoo_dir(dir, &cache).expect("zoo loads")
        }
        None => {
            eprintln!(
                "training demo model ({} train / {} test images, {} epochs)…",
                args.train, args.test, args.epochs
            );
            let (network, _data) = acoustic_serve::demo_model(args.train, args.test, args.epochs)
                .expect("training succeeds");
            ModelRegistry::build(
                vec![ModelSpec {
                    id: DEMO_MODEL_ID,
                    network,
                    cfg: SimConfig::with_stream_len(args.stream_len).expect("valid stream length"),
                }],
                &cache,
            )
            .expect("model preparation succeeds")
        }
    };
    let model_ids = registry.ids();

    let handle = Server::start(args.addr.as_str(), registry, args.cfg).expect("server starts");
    println!("listening on {}", handle.addr());
    println!(
        "{} queue shard(s), {} worker(s)",
        args.cfg.effective_shards(),
        args.cfg.workers
    );
    match &args.zoo_dir {
        Some(dir) => println!("models {model_ids:?} from zoo {}", dir.display()),
        None => println!(
            "model {DEMO_MODEL_ID}: demo digit CNN @ stream length {}",
            args.stream_len
        ),
    }

    if args.duration_secs == 0 {
        // Serve until killed.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(args.duration_secs));
    let stats = handle.shutdown();
    println!(
        "shutting down: received {} accepted {} completed {} overloaded {} expired {}",
        stats.received, stats.accepted, stats.completed, stats.rejected_overload, stats.expired
    );
}
