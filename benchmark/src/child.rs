//! The served process. Each workload runs in a fresh child — this binary
//! re-executed as `benchmark child` — that builds the program through its
//! public API and reports on stdout; the parent drives it over stdin and
//! is the only load generator. Keeping the generator out of the child
//! keeps its CPU out of `setup_s`, `cpu_us_per_image` and `peak_rss_mib`,
//! and a fresh process pays the real cold start (the autotune memo is
//! process-wide).
//!
//! Protocol (one line each): the child prints `ready <addr|-> <plans>`
//! once it can serve; serving children then wait for `stop` (or EOF) and
//! shut down gracefully. The `offline_batch` child takes
//! `run <warmup_ms> <measure_ms> <reference digest>`, prints `measure` and
//! `measured` around the timed loop, one `batch <start_ns> <end_ns>` line
//! per timed call and `end <mismatches> <prepares> <prepare_ns>
//! <resident_bytes>`.

use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use acoustic_nn::Tensor;
use acoustic_runtime::{BatchEngine, ModelCache, PreparedModel, DEFAULT_CACHE_CAPACITY};
use acoustic_serve::{ModelRegistry, ModelSpec, ServeConfig, Server};
use acoustic_simfunc::SimConfig;

use crate::models::{self, Model};
use crate::provenance::Fnv;
use crate::workload::{Workload, OFFLINE_BATCH, OFFLINE_WORKERS};

/// Longest a child may take to become ready (zoo load, prepare, bind).
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);

/// Longest a child may take to drain and exit after `stop`.
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// How the served process is started below the generator's priority. When
/// its kernels keep both vCPUs busy, a generator of equal or merely higher
/// `nice` priority is woken up to ~3 ms late (measured on a 2-vCPU host):
/// the scheduler lets a running task finish its time slice whatever its
/// weight. A `SCHED_IDLE` task is preempted as soon as the generator wakes,
/// so sends stay on time; the generator uses little CPU, so the server
/// still gets nearly all of it. (Hosts without `chrt` run the child at
/// equal priority.)
const CHILD_SCHED: [&str; 3] = ["chrt", "--idle", "0"];

/// Linux `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `benchmark child --workload <name> --seed <n>`.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            _ => return Err(format!("unknown child flag {flag}")),
        }
    }
    let workload = workload.ok_or("child needs --workload")?;
    if workload.serving() {
        serve(workload)
    } else {
        offline(seed)
    }
}

fn sim_config(stream_len: usize) -> Result<SimConfig, String> {
    SimConfig::with_stream_len(stream_len).map_err(|e| e.to_string())
}

/// A model's autotuned plan as an `id=kernel/tile` label.
pub fn plan_label(id: u32, model: &PreparedModel) -> String {
    let plan = model.plan();
    format!("{id}={}/{}", plan.kernel.name(), plan.tile)
}

fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Blocks until the parent sends `stop` or closes stdin.
fn wait_for_stop() {
    for line in std::io::stdin().lock().lines() {
        match line {
            Ok(l) if l.trim() != "stop" => continue,
            _ => break,
        }
    }
}

fn serve(workload: Workload) -> Result<ExitCode, String> {
    let cache = Arc::new(match workload.cache_budget() {
        Some(budget) => ModelCache::with_limits(DEFAULT_CACHE_CAPACITY, Some(budget))
            .map_err(|e| e.to_string())?,
        None => ModelCache::new(),
    });
    let registry = if workload == Workload::ZooMixEvict {
        ModelRegistry::from_zoo_dir(&models::zoo_dir(), &cache)
    } else {
        let specs = workload
            .models()
            .into_iter()
            .map(|model| {
                let (network, stream_len) = models::network(model)?;
                Ok(ModelSpec {
                    id: model.id(),
                    network,
                    cfg: sim_config(stream_len)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        ModelRegistry::build(specs, &cache)
    }
    .map_err(|e| e.to_string())?;
    // Evicted models report `cold`: their plan is picked when the
    // background prepare thread compiles them on first request.
    let plans: Vec<String> = registry
        .ids()
        .into_iter()
        .map(|id| match registry.resolve_warm(id) {
            Ok(Some(m)) => plan_label(id, &m),
            _ => format!("{id}=cold"),
        })
        .collect();
    let handle = Server::start("127.0.0.1:0", registry, ServeConfig::default())
        .map_err(|e| e.to_string())?;
    say(&format!("ready {} {}", handle.addr(), plans.join(" ")));
    wait_for_stop();
    handle.shutdown();
    Ok(ExitCode::SUCCESS)
}

/// FNV-1a over the bits of every logit, in order.
pub fn logits_digest(logits: &[Tensor]) -> u64 {
    let mut h = Fnv::default();
    for t in logits {
        for v in t.as_slice() {
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

fn offline(seed: u64) -> Result<ExitCode, String> {
    let model = Model::Cifar10Cnn;
    let (network, stream_len) = models::network(model)?;
    let cache = ModelCache::new();
    let prepared = cache
        .get_or_compile(sim_config(stream_len)?, &network)
        .map_err(|e| e.to_string())?;
    let engine = BatchEngine::new(OFFLINE_WORKERS).map_err(|e| e.to_string())?;
    let images = model.images(OFFLINE_BATCH, seed);
    say(&format!("ready - {}", plan_label(model.id(), &prepared)));

    let mut command = String::new();
    std::io::stdin()
        .lock()
        .read_line(&mut command)
        .map_err(|e| e.to_string())?;
    let parts: Vec<&str> = command.split_whitespace().collect();
    let (warmup, measure, reference) = match parts.as_slice() {
        // A set-up-only child is stopped before it is given work.
        [] | ["stop"] => return Ok(ExitCode::SUCCESS),
        ["run", w, m, d] => (
            Duration::from_millis(w.parse().map_err(|_| "bad warm-up")?),
            Duration::from_millis(m.parse().map_err(|_| "bad measure time")?),
            u64::from_str_radix(d, 16).map_err(|_| "bad digest")?,
        ),
        _ => return Err(format!("unexpected command `{}`", command.trim())),
    };

    let epoch = Instant::now();
    let run_one = || -> Result<(u64, u64, bool), String> {
        let start = epoch.elapsed().as_nanos() as u64;
        let out = engine.run(&prepared, &images).map_err(|e| e.to_string())?;
        let end = epoch.elapsed().as_nanos() as u64;
        Ok((start, end, logits_digest(&out) == reference))
    };
    // The first call is checked against the parent's 1-worker reference
    // before anything is timed.
    if !run_one()?.2 {
        say("mismatch");
        return Ok(ExitCode::FAILURE);
    }
    let mut mismatches = 0u64;
    while epoch.elapsed() < warmup {
        mismatches += u64::from(!run_one()?.2);
    }
    say("measure");
    let measure_start = Instant::now();
    let mut batches = Vec::new();
    while measure_start.elapsed() < measure {
        let (start, end, ok) = run_one()?;
        mismatches += u64::from(!ok);
        batches.push((start, end));
    }
    say("measured");
    for (start, end) in batches {
        say(&format!("batch {start} {end}"));
    }
    let stats = cache.prepare_stats();
    say(&format!(
        "end {mismatches} {} {} {}",
        stats.prepares_completed,
        stats.prepare_ns_total,
        cache.resident_bytes()
    ));
    wait_for_stop();
    Ok(ExitCode::SUCCESS)
}

/// The parent's handle on one child. Dropping it ends the child: stdin is
/// closed, and a child still running is killed; either way it is reaped.
pub struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl ChildProc {
    /// Starts a child and waits for its `ready` line. Returns the handle,
    /// the spawn-to-ready time and the ready line.
    pub fn spawn(workload: Workload, seed: u64) -> Result<(ChildProc, Duration, String), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let seed = seed.to_string();
        let args = ["child", "--workload", workload.name(), "--seed", &seed];
        let spawn = |mut cmd: Command| {
            cmd.stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
        };
        let started = Instant::now();
        let mut idle = Command::new(CHILD_SCHED[0]);
        idle.args(&CHILD_SCHED[1..]).arg(&exe).args(args);
        let mut child = match spawn(idle) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let mut plain = Command::new(&exe);
                plain.args(args);
                spawn(plain)
            }
            other => other,
        }
        .map_err(|e| format!("spawning the child: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let proc = ChildProc {
            stdin: child.stdin.take(),
            child,
            lines,
            reader: Some(reader),
        };
        let ready = proc.expect("ready", SETUP_TIMEOUT)?;
        Ok((proc, started.elapsed(), ready))
    }

    /// The next stdout line.
    pub fn next_line(&self, timeout: Duration) -> Result<String, String> {
        self.lines
            .recv_timeout(timeout)
            .map_err(|_| "child exited or stalled".to_string())
    }

    /// The next stdout line, which must start with `word`.
    pub fn expect(&self, word: &str, timeout: Duration) -> Result<String, String> {
        let line = self
            .next_line(timeout)
            .map_err(|e| format!("{e} before `{word}`"))?;
        if line.split_whitespace().next() == Some(word) {
            Ok(line)
        } else {
            Err(format!("child said `{line}` where `{word}` was expected"))
        }
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin already closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to the child: {e}"))
    }

    /// The child's user + system CPU time so far, in seconds.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("reading the child's CPU time: {e}"))?;
        // Fields after the parenthesised command name: state is the 1st,
        // utime the 12th and stime the 13th.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(user), Some(system)) => Ok((user + system) as f64 / CLOCK_TICKS_PER_S),
            _ => Err(format!("unparseable /proc stat line `{stat}`")),
        }
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading the child's memory: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM line in /proc status".to_string())
    }

    /// Closes stdin and waits for a clean exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.stdin.take();
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("child exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("child did not exit after stop".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        self.stdin.take();
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}
