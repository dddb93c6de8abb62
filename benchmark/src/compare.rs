//! `benchmark compare --base A.json... --head B.json...`: for every
//! workload × metric, each side's median and quartiles, head's win share
//! over pairs, and a verdict (improved / unchanged / worse / unresolved)
//! by the bounds in `BENCHMARK.json`. Also shows host drift (the CPU
//! reference loop), plans that differ between runs, and the tracing
//! overhead on `p50_ms`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::stats::{median, quartiles, verdict, win_share, Better};
use crate::workload::Workload;

/// One workload's run, as read back from a run record.
struct Run {
    workload: String,
    seed: f64,
    trace: bool,
    metrics: Vec<(String, f64)>,
    host_ref_ms: Option<f64>,
    host_steal_frac: Option<f64>,
    /// Every child's autotuned plans, as `id=kernel/tile` labels.
    plans: Vec<String>,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// An `end_to_end` entry of `BENCHMARK.json`.
struct Bounded {
    name: String,
    better: Better,
    bound: f64,
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut base = Vec::new();
    let mut head = Vec::new();
    let mut bounds = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut side: Option<&mut Vec<PathBuf>> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--base" => side = Some(&mut base),
            "--head" => side = Some(&mut head),
            "--bounds" => {
                bounds = PathBuf::from(it.next().ok_or("--bounds needs a path")?);
                side = None;
            }
            file => match side.as_mut() {
                Some(files) => files.push(PathBuf::from(file)),
                None => return Err(format!("`{file}` is neither after --base nor --head")),
            },
        }
    }
    if base.is_empty() || head.is_empty() {
        return Err("compare needs --base FILES... and --head FILES...".into());
    }
    let (e2e, layer) = load_spec(&bounds)?;
    let base = load_runs(&base)?;
    let head = load_runs(&head)?;

    println!(
        "{:<14} {:<36} {:>26} {:>26} {:>8} {:>5}  verdict",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "delta", "wins"
    );
    let mut worse = 0;
    for w in Workload::ALL {
        let pick = |runs, trace| pick(runs, w, trace);
        let (b, h) = (pick(&base, false), pick(&head, false));
        let (bt, ht) = (pick(&base, true), pick(&head, true));
        // End-to-end metrics get a verdict, from untraced runs only; every
        // other recorded metric is shown without one, untraced rows first.
        for m in &e2e {
            if let Some(v) = row(w, &m.name, &b, &h, m.better, Some(m.bound)) {
                worse += usize::from(v == "worse");
            }
        }
        for (base_runs, head_runs) in [(&b, &h), (&bt, &ht)] {
            let mut names: Vec<&str> = layer.iter().map(|(n, _)| n.as_str()).collect();
            for r in base_runs.iter().chain(head_runs.iter()) {
                for (n, _) in &r.metrics {
                    if !names.contains(&n.as_str()) && !e2e.iter().any(|m| &m.name == n) {
                        names.push(n);
                    }
                }
            }
            for name in names {
                let better = layer
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(Better::Lower, |(_, b)| *b);
                row(w, name, base_runs, head_runs, better, None);
            }
        }
        for (label, runs) in [("base", [&b, &bt]), ("head", [&h, &ht])] {
            let all: Vec<&&Run> = runs.iter().flat_map(|v| v.iter()).collect();
            if all.is_empty() {
                continue;
            }
            let host: Vec<f64> = all.iter().filter_map(|r| r.host_ref_ms).collect();
            let steal: Vec<f64> = all.iter().filter_map(|r| r.host_steal_frac).collect();
            let mut plans: Vec<(&str, usize)> = Vec::new();
            for plan in all.iter().flat_map(|r| &r.plans) {
                match plans.iter_mut().find(|(p, _)| p == plan) {
                    Some((_, n)) => *n += 1,
                    None => plans.push((plan, 1)),
                }
            }
            plans.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let plans: Vec<String> = plans.iter().map(|(p, n)| format!("{p} x{n}")).collect();
            println!(
                "{:<14} {label}: host_ref_ms median {:.3}, host_steal_frac median {:.4} over {} runs; children's plans: {}",
                w.name(),
                median(&host),
                median(&steal),
                host.len(),
                plans.join(", ")
            );
        }
        for (label, untraced, traced) in [("base", &b, &bt), ("head", &h, &ht)] {
            let p50 = |runs: &[&Run]| {
                median(
                    &runs
                        .iter()
                        .filter_map(|r| r.metric("p50_ms"))
                        .collect::<Vec<_>>(),
                )
            };
            if !untraced.is_empty() && !traced.is_empty() {
                let (u, t) = (p50(untraced), p50(traced));
                println!(
                    "{:<14} {label}: tracing overhead on p50_ms: {t:.4} traced vs {u:.4} untraced ({:+.1}%)",
                    w.name(),
                    100.0 * (t - u) / u
                );
            }
        }
    }
    println!("{worse} workload x metric pairs worse than their bound");
    Ok(ExitCode::SUCCESS)
}

/// The runs of one workload, traced or not, in seed order — so runs of the
/// two sides made with the same seeds pair up.
fn pick(runs: &[Run], w: Workload, trace: bool) -> Vec<&Run> {
    let mut v: Vec<&Run> = runs
        .iter()
        .filter(|r| r.workload == w.name() && r.trace == trace)
        .collect();
    v.sort_by(|a, b| a.seed.total_cmp(&b.seed));
    v
}

/// Prints one comparison row when both sides have the metric. A metric
/// without a bound (per layer) gets no verdict; the verdict name is
/// returned for bounded ones.
fn row(
    w: Workload,
    name: &str,
    base: &[&Run],
    head: &[&Run],
    better: Better,
    bound: Option<f64>,
) -> Option<&'static str> {
    let values = |runs: &[&Run]| {
        runs.iter()
            .filter_map(|r| r.metric(name))
            .collect::<Vec<_>>()
    };
    let (b, h) = (values(base), values(head));
    if b.is_empty() || h.is_empty() {
        return None;
    }
    let fmt = |v: &[f64]| {
        let (q1, med, q3) = quartiles(v);
        format!("{} [{}, {}]", sig4(med), sig4(q1), sig4(q3))
    };
    let (bm, hm) = (median(&b), median(&h));
    let delta = if bm == 0.0 {
        "-".to_string()
    } else {
        format!("{:+.1}%", 100.0 * (hm - bm) / bm.abs())
    };
    let verdict_name = bound.map(|bound| verdict(&b, &h, better, bound).name());
    println!(
        "{:<14} {:<36} {:>26} {:>26} {:>8} {:>5.2}  {}",
        w.name(),
        name,
        fmt(&b),
        fmt(&h),
        delta,
        win_share(&b, &h, better),
        verdict_name.unwrap_or("-")
    );
    verdict_name
}

/// `x` with four significant digits (whole numbers from 1000 up).
fn sig4(x: f64) -> String {
    let decimals = if x == 0.0 || !x.is_finite() {
        0
    } else {
        (3 - x.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{x:.decimals$}")
}

type Spec = (Vec<Bounded>, Vec<(String, Better)>);

fn load_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = |key: &str| -> Result<Vec<(String, Better, Option<f64>)>, String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{}: no `{key}` list", path.display()))?
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Value::as_str);
                let better = m
                    .get("better")
                    .and_then(Value::as_str)
                    .and_then(Better::parse);
                match (name, better) {
                    (Some(n), Some(b)) => {
                        Ok((n.to_string(), b, m.get("bound").and_then(Value::as_f64)))
                    }
                    _ => Err(format!("{}: malformed `{key}` entry", path.display())),
                }
            })
            .collect()
    };
    let e2e = entries("end_to_end")?
        .into_iter()
        .map(|(name, better, bound)| {
            bound
                .map(|bound| Bounded {
                    name: name.clone(),
                    better,
                    bound,
                })
                .ok_or_else(|| format!("end_to_end metric {name} has no bound"))
        })
        .collect::<Result<_, _>>()?;
    let layer = entries("per_layer")?
        .into_iter()
        .map(|(name, better, _)| (name, better))
        .collect();
    Ok((e2e, layer))
}

/// Reads run records, keeping the correct runs and saying which were left
/// out or had a late generator.
fn load_runs(files: &[PathBuf]) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for r in doc.get("runs").and_then(Value::as_arr).unwrap_or_default() {
            let workload = r
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            let flag = |k: &str| r.get(k).and_then(Value::as_bool).unwrap_or(false);
            if !flag("correct") {
                eprintln!("{}: {workload} run left out (incorrect)", path.display());
                continue;
            }
            for note in r
                .get("generator_late")
                .and_then(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(Value::as_str)
            {
                eprintln!("{}: {workload}: {note}", path.display());
            }
            let metrics = r
                .get("metrics")
                .and_then(Value::as_obj)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect();
            let host_ref_ms = r
                .get("host_ref_ms")
                .and_then(|h| Some((h.get("before")?.as_f64()? + h.get("after")?.as_f64()?) / 2.0));
            let plans = r
                .get("rounds")
                .and_then(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .flat_map(|round| {
                    round
                        .get("child_plans")
                        .and_then(Value::as_arr)
                        .unwrap_or_default()
                })
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect();
            runs.push(Run {
                workload,
                seed: r.get("seed").and_then(Value::as_f64).unwrap_or(0.0),
                trace: flag("trace"),
                metrics,
                host_ref_ms,
                host_steal_frac: r.get("host_steal_frac").and_then(Value::as_f64),
                plans,
            });
        }
    }
    Ok(runs)
}
