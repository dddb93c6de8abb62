//! The parent's own prepared models: the references every reply is
//! checked against, and the `simfunc` layer probe (prepare, calibration
//! and per-step MAC cost of each model, timed through the public
//! `PreparedModel::compile` and `BatchEngine::evaluate`).

use std::sync::Arc;
use std::time::Instant;

use acoustic_runtime::{BatchEngine, PreparedModel};
use acoustic_simfunc::SimConfig;

use crate::child::plan_label;
use crate::json::{self, Value};
use crate::models::{self, Model, IMAGES};
use crate::run::Metric;

/// One model compiled by this process.
pub struct Compiled {
    pub model: Arc<PreparedModel>,
    /// Bank preparation (quantize + stream generation).
    pub prepare_ms: f64,
    /// The autotune sweep that picked the model's (kernel, tile) plan.
    pub calibrate_ms: f64,
    pub span: (u64, u64),
}

/// Compiles each model at most once per process, on first use, so its
/// calibration time is the real cold cost (the plan memo is process-wide).
pub struct Library {
    epoch: Instant,
    compiled: Vec<(Model, Compiled)>,
}

impl Library {
    pub fn new(epoch: Instant) -> Library {
        Library {
            epoch,
            compiled: Vec::new(),
        }
    }

    pub fn get(&mut self, model: Model) -> Result<&Compiled, String> {
        if let Some(i) = self.compiled.iter().position(|(m, _)| *m == model) {
            return Ok(&self.compiled[i].1);
        }
        let (network, stream_len) = models::network(model)?;
        let cfg = SimConfig::with_stream_len(stream_len).map_err(|e| e.to_string())?;
        let start = self.epoch.elapsed().as_nanos() as u64;
        let prepared = PreparedModel::compile(cfg, &network).map_err(|e| e.to_string())?;
        let end = self.epoch.elapsed().as_nanos() as u64;
        let compiled = Compiled {
            prepare_ms: prepared.prepare_ns() as f64 / 1e6,
            calibrate_ms: prepared.plan().calibration_ns as f64 / 1e6,
            model: Arc::new(prepared),
            span: (start, end),
        };
        self.compiled.push((model, compiled));
        Ok(&self.compiled.last().expect("just pushed").1)
    }

    /// Plans of every model compiled so far, as `id=kernel/tile` labels.
    pub fn plans(&self) -> Vec<String> {
        self.compiled
            .iter()
            .map(|(m, c)| plan_label(m.id(), &c.model))
            .collect()
    }
}

/// The `simfunc` metrics of every model plus the spans that timed them:
/// `simfunc.<model>.{prepare_ms, calibrate_ms, <mac_step>_us,
/// mac_lanes_per_image, skip_frac}`. Steps are timed single-threaded over
/// the model's `IMAGES` inputs drawn from `seed`; `<mac_step>_us` is per
/// image.
pub fn simfunc_layer(
    library: &mut Library,
    seed: u64,
) -> Result<(Vec<Metric>, Vec<Value>), String> {
    let engine = BatchEngine::new(1).map_err(|e| e.to_string())?;
    let epoch = library.epoch;
    let mut metrics = Vec::new();
    let mut spans = Vec::new();
    for model in Model::ALL {
        let slug = model.slug();
        let compiled = library.get(model)?;
        spans.push(json::obj([
            ("name", json::s("prepare")),
            ("model", json::s(slug)),
            ("start_us", json::n(compiled.span.0 as f64 / 1e3)),
            ("end_us", json::n(compiled.span.1 as f64 / 1e3)),
        ]));
        let samples: Vec<_> = model
            .images(IMAGES, seed)
            .into_iter()
            .map(|t| (t, 0))
            .collect();
        let start = epoch.elapsed().as_nanos() as u64;
        let report = engine
            .evaluate(&compiled.model, &samples)
            .map_err(|e| e.to_string())?;
        let end = epoch.elapsed().as_nanos() as u64;
        spans.push(json::obj([
            ("name", json::s("evaluate")),
            ("model", json::s(slug)),
            ("start_us", json::n(start as f64 / 1e3)),
            ("end_us", json::n(end as f64 / 1e3)),
        ]));
        let name = |what: &str| format!("simfunc.{slug}.{what}");
        metrics.push((name("prepare_ms"), compiled.prepare_ms, "ms"));
        metrics.push((name("calibrate_ms"), compiled.calibrate_ms, "ms"));
        let images = report.total as f64;
        for step in &report.layer_timings {
            if step.name.starts_with("conv") || step.name.starts_with("dense") {
                let us = step.nanos as f64 / images / 1e3;
                metrics.push((name(&format!("{}_us", step.name)), us, "us"));
            }
        }
        metrics.push((
            name("mac_lanes_per_image"),
            report.kernel.mac_lanes as f64 / images,
            "count",
        ));
        metrics.push((name("skip_frac"), report.kernel.skip_fraction(), "frac"));
    }
    Ok((metrics, spans))
}
