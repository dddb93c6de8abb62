//! One benchmark run: for each workload, start its children, drive them,
//! check every output, and report every metric by name with its unit.
//!
//! A run is made of [`ROUNDS`] rounds, each served by a fresh child
//! process. Single processes are bimodal on their own: the autotuner may
//! pick a slower plan in one, and a served process's reply path can slow
//! down for the rest of its life (see README.md). Pooling several
//! processes' measured time weighs such a process by its share instead of
//! letting it decide a median.

use std::io::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acoustic_core::prng::splitmix64;
use acoustic_nn::Tensor;
use acoustic_runtime::{BatchEngine, PreparedModel};
use acoustic_serve::loadgen::{arrival_schedule, LoadOutcome, ReplyRecord};
use acoustic_serve::{
    validate_responses, ErrorCode, InferReply, InferRequest, LoadGenConfig, ServeConfig,
    StatsSnapshot,
};

use crate::child::{logits_digest, ChildProc};
use crate::gen::{Gen, Pacing, Record};
use crate::json::{self, Value};
use crate::models::{Model, IMAGES};
use crate::probe::{self, Library};
use crate::provenance;
use crate::stats::{lateness_ms, mean, median, percentile, sorted};
use crate::workload::{Workload, OFFLINE_BATCH};

const USAGE: &str = "\
usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                 [--out RUN.json] [--spans DIR] [--quick]
       benchmark compare --base A.json... --head B.json... [--bounds BENCHMARK.json]
workloads: lenet_serve tiny_io zoo_mix_evict offline_batch (default: all)";

/// Fresh child processes per run, one per round.
const ROUNDS: usize = 5;

/// Share of a round's measured time spent in the open-loop phase at the
/// nominal rate; the rest measures saturation throughput.
const OPEN_SHARE: f64 = 0.7;

/// Set-up-only children started before the rounds (not with `--quick`):
/// at least this many, then more until they add up to [`SETUP_SAMPLE_S`]
/// (at most [`MAX_SETUP_ONLY`]). `setup_s` is the median over them and
/// the rounds' children; cheap set-ups get more samples.
const MIN_SETUP_ONLY: usize = 4;
const SETUP_SAMPLE_S: f64 = 0.3;
const MAX_SETUP_ONLY: usize = 18;

/// The open-loop generator should keep its p99 send lateness under this;
/// a run that does not is flagged on stderr and in the run record.
const MAX_LATE_P99_MS: f64 = 1.0;

/// Arrival-schedule seed salt of the warm-up phase.
const WARMUP_SALT: u64 = 0x57A2_0000_0000_0001;

/// A named measurement and its unit.
pub type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

struct Settings {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    spans_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Option<Settings>, String> {
    let mut s = Settings {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        quick: false,
        out: None,
        spans_dir: PathBuf::from(".bench_out"),
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                s.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(v).ok_or_else(|| format!("unknown workload `{v}`"))?]
                };
            }
            "--seed" => {
                let v = value()?;
                s.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                let secs: f64 = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
                if !(1.0..=600.0).contains(&secs) {
                    return Err(format!("--seconds {v} is outside 1..=600"));
                }
                seconds = Some(secs);
            }
            "--trace" => {
                s.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                };
            }
            "--out" => s.out = Some(PathBuf::from(value()?)),
            "--spans" => s.spans_dir = PathBuf::from(value()?),
            "--quick" => s.quick = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    s.seconds = seconds.unwrap_or(if s.quick { 3.0 } else { 15.0 });
    Ok(Some(s))
}

/// How a run of `seconds` measured seconds is split into rounds and phases.
struct Timing {
    rounds: usize,
    warmup: Duration,
    open: Duration,
    sat_warmup: Duration,
    sat: Duration,
    /// `offline_batch`'s timed loop per round.
    measure: Duration,
}

impl Timing {
    fn new(seconds: f64, quick: bool) -> Timing {
        let rounds = if quick { 1 } else { ROUNDS };
        let per_round = seconds / rounds as f64;
        let secs = Duration::from_secs_f64;
        Timing {
            rounds,
            warmup: secs((per_round * 0.2).clamp(0.5, 1.0)),
            open: secs(per_round * OPEN_SHARE),
            sat_warmup: secs((per_round * 0.1).clamp(0.25, 0.5)),
            sat: secs(per_round * (1.0 - OPEN_SHARE)),
            measure: secs(per_round),
        }
    }
}

/// A round's end-to-end quantities, kept as sums so that a run pools its
/// rounds: rates over all rounds' measured time rather than a median of
/// per-round rates, which jumps whenever a draw of plans tips the median.
#[derive(Default)]
struct Totals {
    images: f64,
    images_s: f64,
    cpu_s: f64,
    cpu_images: f64,
    peak_rss_mib: f64,
}

impl Totals {
    /// The end-to-end metrics except `setup_s`.
    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("images_per_s", ratio(self.images, self.images_s), "1/s"),
            metric(
                "cpu_us_per_image",
                ratio(self.cpu_s * 1e6, self.cpu_images),
                "us",
            ),
            metric("peak_rss_mib", self.peak_rss_mib, "MiB"),
        ]
    }

    /// Sums over rounds; peak RSS is the median. Which of the engine's
    /// threads happen to allocate (each through its own malloc arena) moves
    /// a single process's peak by 10 MiB either way.
    fn pool(rounds: &[Round]) -> Totals {
        let sum = |f: fn(&Totals) -> f64| rounds.iter().map(|r| f(&r.totals)).sum();
        let peaks: Vec<f64> = rounds.iter().map(|r| r.totals.peak_rss_mib).collect();
        Totals {
            images: sum(|t| t.images),
            images_s: sum(|t| t.images_s),
            cpu_s: sum(|t| t.cpu_s),
            cpu_images: sum(|t| t.cpu_images),
            peak_rss_mib: median(&peaks),
        }
    }
}

/// What one round (one served child) produced.
#[derive(Default)]
struct Round {
    setup_s: f64,
    totals: Totals,
    /// Latency of each completed request at the nominal rate (offline: of
    /// each call), and how late each was sent, in ms. The percentiles pool
    /// the rounds' samples: a p99 over one round's few hundred sends is its
    /// largest few values, and a median of those over rounds is biased.
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Per-layer metrics other than the percentiles.
    layer: Vec<Metric>,
    extra: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    details: Vec<(&'static str, Value)>,
    spans: Vec<String>,
}

/// Latency and send-lateness percentiles of the given samples.
fn percentiles(latency_ms: &[f64], late_ms: &[f64]) -> Vec<Metric> {
    let (latency, late) = (sorted(latency_ms), sorted(late_ms));
    vec![
        metric("p50_ms", percentile(&latency, 50.0), "ms"),
        metric("p99_ms", percentile(&latency, 99.0), "ms"),
        metric("gen.send_late_p50_ms", percentile(&late, 50.0), "ms"),
        metric("gen.send_late_p99_ms", percentile(&late, 99.0), "ms"),
    ]
}

/// What one workload produced: its rounds pooled (end to end) or their
/// medians (per layer).
struct Outcome {
    workload: Workload,
    /// The `end_to_end` metrics of `BENCHMARK.json`.
    e2e: Vec<Metric>,
    /// The `per_layer` metrics of `BENCHMARK.json`: the ones every workload
    /// measures (the `simfunc` ones in traced runs only).
    layer: Vec<Metric>,
    /// Layer metrics not every workload can report: the network path's,
    /// which `offline_batch` does not have, and the server's whole-ms
    /// prepare total. Printed and recorded, but outside the result line.
    extra: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Correctness failures: any one fails the run.
    problems: Vec<String>,
    /// Set when the open-loop generator ran late.
    late: Option<String>,
    details: Vec<(&'static str, Value)>,
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let Some(s) = parse(args)? else {
        return Ok(ExitCode::SUCCESS);
    };
    let epoch = Instant::now();
    let mut library = Library::new(epoch);
    let mut outcomes = Vec::new();
    for &workload in &s.workloads {
        let outcome = run_workload(workload, &s, &mut library, epoch)?;
        print_lines(&outcome);
        outcomes.push(outcome);
    }
    if let Some(path) = &s.out {
        write_record(path, &s, &outcomes, &library)?;
    }

    let correct = outcomes.iter().all(|o| o.problems.is_empty());
    let single = outcomes.len() == 1;
    let mut metrics: Vec<Metric> = Vec::new();
    for o in &outcomes {
        for (name, value, unit) in if s.trace { &o.layer } else { &o.e2e } {
            let key = if single {
                name.clone()
            } else {
                format!("{}.{name}", o.workload.name())
            };
            metrics.push((key, *value, unit));
        }
    }
    let result = json::obj([
        ("correct", Value::Bool(correct)),
        (
            "attempted",
            json::n(outcomes.iter().map(|o| o.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            json::n(outcomes.iter().map(|o| o.failed).sum::<u64>() as f64),
        ),
        ("metrics", metrics_obj(&metrics.iter().collect::<Vec<_>>())),
    ]);
    println!("{}", result.to_json());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_lines(o: &Outcome) {
    let mut out = std::io::stdout().lock();
    for (name, value, unit) in o.e2e.iter().chain(&o.layer).chain(&o.extra) {
        let _ = writeln!(out, "{} {name} {value} {unit}", o.workload.name());
    }
    for p in &o.problems {
        eprintln!("{}: INCORRECT: {p}", o.workload.name());
    }
    if let Some(p) = &o.late {
        eprintln!("{}: note: {p}", o.workload.name());
    }
}

/// The seed of serving round `round`: each round draws its own arrivals,
/// images and start in the model pattern, so a run also averages over
/// several draws.
fn round_seed(seed: u64, round: usize) -> u64 {
    let mut state = seed ^ (round as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(&mut state)
}

/// Medians over rounds, per metric, in the first round's order.
fn median_metrics(lists: &[&Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = lists.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|(name, _, unit)| {
            let values: Vec<f64> = lists
                .iter()
                .filter_map(|l| l.iter().find(|(n, _, _)| n == name).map(|m| m.1))
                .collect();
            (name.clone(), median(&values), *unit)
        })
        .collect()
}

fn run_workload(
    workload: Workload,
    s: &Settings,
    library: &mut Library,
    epoch: Instant,
) -> Result<Outcome, String> {
    let t = Timing::new(s.seconds, s.quick);
    let zoo_before = provenance::zoo_digest();
    let host_before = provenance::host_ref_ms();
    let ticks_before = provenance::cpu_ticks();

    let mut setups = Vec::new();
    while !s.quick
        && (setups.len() < MIN_SETUP_ONLY
            || (setups.len() < MAX_SETUP_ONLY && setups.iter().sum::<f64>() < SETUP_SAMPLE_S))
    {
        let (child, setup, _) = ChildProc::spawn(workload, s.seed)?;
        setups.push(setup.as_secs_f64());
        child.stop()?;
    }
    let reference = if workload.serving() {
        0
    } else {
        offline_reference(library, s.seed)?
    };
    let mut rounds = Vec::with_capacity(t.rounds);
    for r in 0..t.rounds {
        let round = if workload.serving() {
            serve_round(workload, round_seed(s.seed, r), s.trace, &t, library, epoch)?
        } else {
            offline_round(workload, s.seed, reference, s.trace, &t)?
        };
        setups.push(round.setup_s);
        rounds.push(round);
    }
    let ticks_after = provenance::cpu_ticks();
    let host_after = provenance::host_ref_ms();

    let mut e2e = vec![metric("setup_s", median(&setups), "s")];
    e2e.extend(Totals::pool(&rounds).metrics());
    let pooled =
        |f: fn(&Round) -> &Vec<f64>| rounds.iter().flat_map(f).copied().collect::<Vec<_>>();
    let late = pooled(|r| &r.late_ms);
    let late_p99 = percentile(&sorted(&late), 99.0);
    let mut layer = percentiles(&pooled(|r| &r.latency_ms), &late);
    layer.extend(median_metrics(
        &rounds.iter().map(|r| &r.layer).collect::<Vec<_>>(),
    ));
    let mut o = Outcome {
        workload,
        e2e,
        layer,
        extra: median_metrics(&rounds.iter().map(|r| &r.extra).collect::<Vec<_>>()),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        problems: Vec::new(),
        late: (workload.serving() && late_p99 > MAX_LATE_P99_MS).then(|| {
            format!("the generator sent {late_p99:.3} ms late at p99 (limit {MAX_LATE_P99_MS} ms)")
        }),
        details: Vec::new(),
    };
    for (i, r) in rounds.iter().enumerate() {
        o.problems
            .extend(r.problems.iter().map(|p| format!("round {i}: {p}")));
    }
    if provenance::zoo_digest() != zoo_before {
        o.problems.push("results/zoo changed during the run".into());
    }
    o.details.push((
        "setup_samples_s",
        Value::Arr(setups.iter().map(|&x| json::n(x)).collect()),
    ));
    o.details.push((
        "host_ref_ms",
        json::obj([
            ("before", json::n(host_before)),
            ("after", json::n(host_after)),
        ]),
    ));
    // Share of the host's CPU time over the workload that the hypervisor
    // gave to other guests: a noisy neighbour shows here.
    o.details.push((
        "host_steal_frac",
        json::n(ratio(
            (ticks_after.0 - ticks_before.0) as f64,
            (ticks_after.1 - ticks_before.1) as f64,
        )),
    ));
    o.details.push((
        "rounds",
        Value::Arr(
            rounds
                .iter()
                .map(|r| {
                    let e2e = r.totals.metrics();
                    let tails = percentiles(&r.latency_ms, &r.late_ms);
                    let all: Vec<&Metric> = e2e
                        .iter()
                        .chain(&tails)
                        .chain(&r.layer)
                        .chain(&r.extra)
                        .collect();
                    let mut pairs = vec![("metrics", metrics_obj(&all))];
                    pairs.extend(r.details.iter().cloned());
                    json::obj(pairs)
                })
                .collect(),
        ),
    ));
    if s.trace {
        let (metrics, spans) = probe::simfunc_layer(library, s.seed)?;
        o.layer.extend(metrics);
        let mut all: Vec<String> = spans.iter().map(Value::to_json).collect();
        for r in &mut rounds {
            all.append(&mut r.spans);
        }
        write_spans(s, workload, &all)?;
    }
    Ok(o)
}

fn schedule(qps: f64, duration: Duration, seed: u64) -> Vec<Duration> {
    let cfg = LoadGenConfig {
        qps,
        requests: (qps * duration.as_secs_f64() * 1.2).ceil() as u64 + 16,
        seed,
        ..LoadGenConfig::default()
    };
    let mut offsets = arrival_schedule(&cfg);
    offsets.retain(|&o| o < duration);
    offsets
}

/// The request slot `id` sends: the workload's model for `id`, image
/// `id % n` of that model's seeded image set — the mapping
/// `validate_responses` recomputes.
fn request(id: u64, model: Model, images: &[Tensor], deadline_micros: u32) -> InferRequest {
    let img = &images[(id % images.len() as u64) as usize];
    InferRequest {
        request_id: id,
        model_id: model.id(),
        deadline_micros,
        stream_len: None,
        margin: None,
        shape: img.shape().iter().map(|&d| d as u32).collect(),
        values: img.as_slice().to_vec(),
    }
}

fn is_ok(r: &Record) -> bool {
    matches!(r.reply, Some(InferReply::Ok(_)))
}

fn outcome_label(r: &Record) -> &'static str {
    match &r.reply {
        None => "unanswered",
        Some(InferReply::Ok(_)) => "ok",
        Some(InferReply::Err(e)) => match e.code {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline",
            ErrorCode::Warming => "warming",
            _ => "error",
        },
    }
}

/// Every way a received request can leave the server.
fn drain_accounted(s: &StatsSnapshot) -> u64 {
    s.completed
        + s.rejected_overload
        + s.rejected_model_budget
        + s.rejected_unknown_model
        + s.rejected_shutdown
        + s.rejected_warming
        + s.expired
        + s.failed
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn serve_round(
    workload: Workload,
    seed: u64,
    trace: bool,
    t: &Timing,
    library: &mut Library,
    epoch: Instant,
) -> Result<Round, String> {
    let mut served: Vec<(Model, Vec<Tensor>, Arc<PreparedModel>)> = Vec::new();
    for m in workload.models() {
        served.push((
            m,
            m.images(IMAGES, seed),
            Arc::clone(&library.get(m)?.model),
        ));
    }
    let images_of = |model: Model| {
        &served
            .iter()
            .find(|(m, _, _)| *m == model)
            .expect("the pattern's models are all served")
            .1
    };

    let (child, setup, ready) = ChildProc::spawn(workload, seed)?;
    let mut words = ready.split_whitespace().skip(1);
    let addr: SocketAddr = words
        .next()
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("bad ready line `{ready}`"))?;
    let child_plans: Vec<Value> = words.map(json::s).collect();

    let deadline_micros = u32::try_from(workload.deadline().as_micros()).unwrap_or(u32::MAX);
    let build = |id: u64| {
        let model = workload.model_at(id, seed);
        request(id, model, images_of(model), deadline_micros)
    };
    let closed = |duration| Pacing::Closed {
        window: workload.saturation_window(),
        duration,
    };
    let mut gen = Gen::connect(addr, epoch)?;
    let before = gen.stats()?;
    let warm = gen.run(
        &Pacing::Open(schedule(workload.qps(), t.warmup, seed ^ WARMUP_SALT)),
        &build,
        false,
    )?;
    let cpu0 = child.cpu_seconds()?;
    let nominal = gen.run(
        &Pacing::Open(schedule(workload.qps(), t.open, seed)),
        &build,
        trace,
    )?;
    let cpu1 = child.cpu_seconds()?;
    let sat_warm = gen.run(&closed(t.sat_warmup), &build, false)?;
    let sat = gen.run(&closed(t.sat), &build, trace)?;
    let peak_rss = child.peak_rss_mib()?;
    drop(gen);
    child.stop()?;

    let mut r = Round {
        setup_s: setup.as_secs_f64(),
        ..Round::default()
    };
    let phases = [
        ("warmup", &warm, &before),
        ("nominal", &nominal, &warm.fence),
        ("saturation_warmup", &sat_warm, &nominal.fence),
        ("saturation", &sat, &sat_warm.fence),
    ];
    let mut phase_details = Vec::new();
    for (name, phase, prev) in phases {
        let unanswered = phase.records.iter().filter(|r| r.reply.is_none()).count();
        if unanswered > 0 {
            r.problems
                .push(format!("{name}: {unanswered} requests unanswered"));
        }
        if phase.extra_replies > 0 {
            r.problems.push(format!(
                "{name}: {} replies to requests already answered or never sent",
                phase.extra_replies
            ));
        }
        let received = phase.fence.received - prev.received;
        if received != phase.frames_sent {
            r.problems.push(format!(
                "{name}: the server received {received} requests, {} were sent",
                phase.frames_sent
            ));
        }
        let completed = phase.records.iter().filter(|r| is_ok(r)).count() as u64;
        let requests = phase.records.len() as u64;
        r.attempted += requests;
        r.failed += requests - completed;
        phase_details.push(json::obj([
            ("phase", json::s(name)),
            ("requests", json::n(requests as f64)),
            ("completed", json::n(completed as f64)),
            ("failed", json::n((requests - completed) as f64)),
            ("frames_sent", json::n(phase.frames_sent as f64)),
            (
                "seconds",
                json::n((phase.issue_end_ns - phase.start_ns) as f64 / 1e9),
            ),
        ]));
    }
    if drain_accounted(&sat.fence) != sat.fence.received {
        r.problems
            .push("the server's counters do not account for every request it received".into());
    }

    // End to end: latency and CPU at the nominal rate, throughput at
    // saturation.
    let ok_nominal: Vec<&Record> = nominal.records.iter().filter(|r| is_ok(r)).collect();
    if ok_nominal.is_empty() {
        r.problems
            .push("no request completed in the nominal phase".into());
    }
    r.latency_ms = ok_nominal
        .iter()
        .map(|r| (r.replied_ns.unwrap_or(r.due_ns) - r.due_ns) as f64 / 1e6)
        .collect();
    let sat_window_ns = sat.issue_end_ns.saturating_sub(sat.start_ns);
    let sat_done = sat
        .records
        .iter()
        .filter(|r| is_ok(r) && r.replied_ns.is_some_and(|at| at <= sat.issue_end_ns))
        .count();
    r.totals = Totals {
        images: sat_done as f64,
        images_s: sat_window_ns as f64 / 1e9,
        cpu_s: cpu1 - cpu0,
        cpu_images: ok_nominal.len() as f64,
        peak_rss_mib: peak_rss,
    };

    // Layers, from the generator's own records and the server's counters
    // over the nominal phase.
    let due: Vec<u64> = nominal.records.iter().map(|r| r.due_ns).collect();
    let sent: Vec<u64> = nominal.records.iter().map(|r| r.sent_ns).collect();
    r.late_ms = lateness_ms(&due, &sent);
    let (a, b) = (&warm.fence, &nominal.fence);
    let d = |f: fn(&StatsSnapshot) -> u64| (f(b) - f(a)) as f64;
    let batches = d(|x| x.batches);
    let batch_exec_ms = ratio(d(|x| x.service_ns), batches) / 1e6;
    let queue_wait_ms = ratio(d(|x| x.queue_wait_ns), d(|x| x.completed)) / 1e6;
    let received = d(|x| x.received);
    let nominal_ns = (nominal.issue_end_ns - nominal.start_ns) as f64;
    let cfg = ServeConfig::default();
    let lanes = (cfg.workers * cfg.engine_workers) as f64;
    let end = &sat.fence;
    r.layer = vec![
        metric("runtime.batch_exec_ms", batch_exec_ms, "ms"),
        metric("runtime.prepares", end.prepares_completed as f64, "count"),
        metric(
            "runtime.resident_mib",
            end.resident_bytes as f64 / f64::from(1 << 20),
            "MiB",
        ),
    ];
    r.extra = vec![
        // Whole milliseconds on the wire: 0 for the tiny model's prepare,
        // so it is kept out of the per-layer set every workload reports.
        metric(
            "runtime.prepare_ms_total",
            end.prepare_ms_total as f64,
            "ms",
        ),
        metric("net.queue_depth_hwm", end.queue_depth_hwm as f64, "count"),
        metric("net.queue_steals", d(|x| x.queue_steals), "count"),
        metric("serve.queue_wait_ms", queue_wait_ms, "ms"),
        metric(
            "serve.batch_size",
            ratio(d(|x| x.batch_requests), batches),
            "count",
        ),
        metric(
            "serve.outside_ms",
            mean(&r.latency_ms) - mean(&r.late_ms) - queue_wait_ms - batch_exec_ms,
            "ms",
        ),
        metric(
            "serve.rejected_overload_frac",
            ratio(
                d(|x| x.rejected_overload + x.rejected_model_budget),
                received,
            ),
            "frac",
        ),
        metric(
            "serve.rejected_warming_frac",
            ratio(d(|x| x.rejected_warming), received),
            "frac",
        ),
        metric(
            "serve.expired_frac",
            ratio(d(|x| x.expired), received),
            "frac",
        ),
        metric(
            "runtime.busy_frac",
            ratio(d(|x| x.service_ns), nominal_ns * lanes),
            "frac",
        ),
        metric(
            "runtime.tiled_frac",
            ratio(d(|x| x.tiled_requests), d(|x| x.batch_requests)),
            "frac",
        ),
    ];
    let rtt = sorted(
        &nominal
            .probes
            .iter()
            .chain(&sat.probes)
            .map(|&(sent, replied)| (replied - sent) as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    if !rtt.is_empty() {
        r.extra
            .push(metric("net.stats_rtt_p50_us", percentile(&rtt, 50.0), "us"));
        r.extra
            .push(metric("net.stats_rtt_p99_us", percentile(&rtt, 99.0), "us"));
    }

    if trace {
        for (name, phase) in [("nominal", &nominal), ("saturation", &sat)] {
            for rec in &phase.records {
                r.spans.push(format!(
                    "{{\"name\": \"request\", \"round_seed\": {seed}, \"id\": {}, \
                     \"phase\": \"{name}\", \"model\": {}, \"due_us\": {}, \"sent_us\": {}, \
                     \"replied_us\": {}, \"attempts\": {}, \"outcome\": \"{}\"}}",
                    rec.id,
                    workload.model_at(rec.id, seed).id(),
                    rec.due_ns as f64 / 1e3,
                    rec.sent_ns as f64 / 1e3,
                    rec.replied_ns.map_or(-1.0, |at| at as f64 / 1e3),
                    rec.attempts,
                    outcome_label(rec)
                ));
            }
            for &(sent, replied) in &phase.probes {
                r.spans.push(format!(
                    "{{\"name\": \"stats_probe\", \"round_seed\": {seed}, \"phase\": \"{name}\", \
                     \"start_us\": {}, \"end_us\": {}}}",
                    sent as f64 / 1e3,
                    replied as f64 / 1e3
                ));
            }
        }
    }

    // Every completed reply, warm-ups included, must be bit-identical to
    // this process's own evaluation of the same (model, id, image).
    let engine = BatchEngine::new(2).map_err(|e| e.to_string())?;
    let cfg = LoadGenConfig::default();
    let mut replies: Vec<(Model, ReplyRecord)> = [warm, nominal, sat_warm, sat]
        .into_iter()
        .flat_map(|p| p.records)
        .filter_map(|rec| {
            let reply = rec.reply?;
            let record = ReplyRecord {
                id: rec.id,
                reply,
                latency: Duration::ZERO,
            };
            Some((workload.model_at(rec.id, seed), record))
        })
        .collect();
    let mut mismatches = 0;
    for (model, images, prepared) in &served {
        let (mine, rest) = replies.into_iter().partition(|(m, _)| m == model);
        replies = rest;
        let load = LoadOutcome {
            replies: mine.into_iter().map(|(_, rec)| rec).collect(),
            dropped: 0,
            elapsed: Duration::ZERO,
        };
        mismatches += validate_responses(&load, prepared, &engine, images, &cfg)
            .map_err(|e| e.to_string())?;
    }
    if mismatches > 0 {
        r.problems.push(format!(
            "{mismatches} replies differ from the reference logits"
        ));
    }

    r.details.push(("child_plans", Value::Arr(child_plans)));
    r.details.push(("phases", Value::Arr(phase_details)));
    Ok(r)
}

/// Digest of the `offline_batch` logits a 1-worker engine in this process
/// computes for `seed`'s batch — what every timed call must reproduce.
fn offline_reference(library: &mut Library, seed: u64) -> Result<u64, String> {
    let model = Model::Cifar10Cnn;
    let images = model.images(OFFLINE_BATCH, seed);
    let prepared = &library.get(model)?.model;
    let one = BatchEngine::new(1).map_err(|e| e.to_string())?;
    Ok(logits_digest(
        &one.run(prepared, &images).map_err(|e| e.to_string())?,
    ))
}

/// One `offline_batch` round. Every round runs the run seed's batch, so the
/// 1-worker reference is computed once per run.
fn offline_round(
    workload: Workload,
    seed: u64,
    reference: u64,
    trace: bool,
    t: &Timing,
) -> Result<Round, String> {
    let (mut child, setup, ready) = ChildProc::spawn(workload, seed)?;
    let child_plans: Vec<Value> = ready.split_whitespace().skip(2).map(json::s).collect();
    child.send(&format!(
        "run {} {} {reference:016x}",
        t.warmup.as_millis(),
        t.measure.as_millis()
    ))?;
    let mut r = Round {
        setup_s: setup.as_secs_f64(),
        ..Round::default()
    };
    let slack = Duration::from_secs(120);
    let first = child.next_line(t.warmup + slack)?;
    if first != "measure" {
        r.problems.push(format!(
            "offline logits differ from the 1-worker reference (child said `{first}`)"
        ));
        r.attempted = OFFLINE_BATCH as u64;
        r.failed = OFFLINE_BATCH as u64;
        return Ok(r);
    }
    let cpu0 = child.cpu_seconds()?;
    child.expect("measured", t.measure + slack)?;
    let cpu1 = child.cpu_seconds()?;
    let mut batches: Vec<(u64, u64)> = Vec::new();
    let end = loop {
        let line = child.next_line(slack)?;
        let nums: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|w| w.parse().ok())
            .collect();
        match (line.split_whitespace().next(), nums.as_slice()) {
            (Some("batch"), &[start, end]) => batches.push((start, end)),
            (Some("end"), &[mismatches, prepares, prepare_ns, resident]) => {
                break (mismatches, prepares, prepare_ns, resident)
            }
            _ => return Err(format!("unexpected child line `{line}`")),
        }
    };
    let peak_rss = child.peak_rss_mib()?;
    child.stop()?;

    let (mismatches, prepares, prepare_ns, resident) = end;
    if mismatches > 0 {
        r.problems.push(format!(
            "{mismatches} timed batches differ from the reference"
        ));
    }
    if batches.is_empty() {
        return Err("the offline child timed no batch".into());
    }
    let images_done = (batches.len() * OFFLINE_BATCH) as f64;
    r.attempted = images_done as u64;
    r.failed = mismatches * OFFLINE_BATCH as u64;
    r.latency_ms = batches.iter().map(|&(a, b)| (b - a) as f64 / 1e6).collect();
    let span_ns = (batches[batches.len() - 1].1 - batches[0].0) as f64;
    // Closed loop: each call is due when the previous one returned.
    let due: Vec<u64> = batches.iter().map(|&(_, end)| end).collect();
    let sent: Vec<u64> = batches.iter().skip(1).map(|&(start, _)| start).collect();
    r.late_ms = lateness_ms(&due, &sent);
    r.totals = Totals {
        images: images_done,
        images_s: span_ns / 1e9,
        cpu_s: cpu1 - cpu0,
        cpu_images: images_done,
        peak_rss_mib: peak_rss,
    };
    r.layer = vec![
        metric("runtime.batch_exec_ms", mean(&r.latency_ms), "ms"),
        metric("runtime.prepares", prepares as f64, "count"),
        metric(
            "runtime.resident_mib",
            resident as f64 / f64::from(1 << 20),
            "MiB",
        ),
    ];
    if trace {
        for (i, &(start, end)) in batches.iter().enumerate() {
            r.spans.push(format!(
                "{{\"name\": \"batch\", \"round_seed\": {seed}, \"id\": {i}, \
                 \"images\": {OFFLINE_BATCH}, \"start_us\": {}, \"end_us\": {}, \
                 \"clock\": \"child\"}}",
                start as f64 / 1e3,
                end as f64 / 1e3
            ));
        }
    }
    r.extra = vec![metric(
        "runtime.prepare_ms_total",
        prepare_ns as f64 / 1e6,
        "ms",
    )];
    r.details.push(("child_plans", Value::Arr(child_plans)));
    r.details.push(("batches", json::n(batches.len() as f64)));
    Ok(r)
}

fn write_spans(s: &Settings, workload: Workload, spans: &[String]) -> Result<(), String> {
    std::fs::create_dir_all(&s.spans_dir).map_err(|e| e.to_string())?;
    let path = s
        .spans_dir
        .join(format!("{}-seed{}.spans.json", workload.name(), s.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let header = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"time\": \"microseconds since the run started\", \
         \"spans\": [\n",
        workload.name(),
        s.seed
    );
    let mut write = || -> std::io::Result<()> {
        w.write_all(header.as_bytes())?;
        for (i, span) in spans.iter().enumerate() {
            w.write_all(if i == 0 { b"" } else { b",\n" })?;
            w.write_all(span.as_bytes())?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("{}: spans written to {}", workload.name(), path.display());
    Ok(())
}

fn metrics_obj(list: &[&Metric]) -> Value {
    json::obj(list.iter().map(|(name, value, unit)| {
        (
            name.clone(),
            json::obj([("value", json::n(*value)), ("unit", json::s(*unit))]),
        )
    }))
}

/// Writes the run record `compare` reads: every metric of every workload
/// with its provenance.
fn write_record(
    path: &PathBuf,
    s: &Settings,
    outcomes: &[Outcome],
    library: &Library,
) -> Result<(), String> {
    let provenance = json::obj(provenance::host_and_code());
    let runs = outcomes
        .iter()
        .map(|o| {
            let all: Vec<&Metric> = o.e2e.iter().chain(&o.layer).chain(&o.extra).collect();
            let mut pairs = vec![
                ("workload", json::s(o.workload.name())),
                ("seed", json::n(s.seed as f64)),
                ("seconds", json::n(s.seconds)),
                ("trace", Value::Bool(s.trace)),
                ("correct", Value::Bool(o.problems.is_empty())),
                (
                    "problems",
                    Value::Arr(o.problems.iter().map(json::s).collect()),
                ),
                (
                    "generator_late",
                    Value::Arr(o.late.iter().map(json::s).collect()),
                ),
                ("attempted", json::n(o.attempted as f64)),
                ("failed", json::n(o.failed as f64)),
                ("metrics", metrics_obj(&all)),
                (
                    "parent_plans",
                    Value::Arr(library.plans().into_iter().map(json::s).collect()),
                ),
                ("provenance", provenance.clone()),
            ];
            pairs.extend(o.details.iter().cloned());
            json::obj(pairs)
        })
        .collect();
    let record = json::obj([("runs", Value::Arr(runs))]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, record.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}
