//! Prepared models and the prepared-model cache.
//!
//! Preparation (weight quantization + split-unipolar weight-stream
//! generation) is the image-independent half of a stochastic inference —
//! the software analogue of loading the accelerator's weight buffers. A
//! [`PreparedModel`] performs it exactly once; the result is immutable and
//! shared behind an `Arc` by every worker of the batch engine, and a
//! [`ModelCache`] memoizes it across repeated serving requests for the same
//! `(network, config)` pair.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use acoustic_core::prng::splitmix64;
use acoustic_nn::layers::Network;
use acoustic_nn::Tensor;
use acoustic_simfunc::{
    DedupStats, PreparedNetwork, RunOutput, RunSpec, ScSimulator, SimConfig, SimError, SimScratch,
    TilePlan,
};

use crate::RuntimeError;

/// Derives the activation-stream seed of one image from the batch base
/// seed.
///
/// The derived seed is a pure function of `(base_seed, image_index)` —
/// independent of worker count, chunking, and execution order — which is
/// what makes batch results bit-identical regardless of parallelism
/// (DESIGN.md §6's reproducibility invariant). SplitMix64 scrambles the
/// pair so neighbouring indices get unrelated LFSR seedings.
pub fn derive_image_seed(base_seed: u32, image_index: u64) -> u32 {
    let mut state = (u64::from(base_seed) << 32)
        ^ image_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ 0xA0C0_571C_0000_0001;
    let z = splitmix64(&mut state);
    (z as u32) ^ ((z >> 32) as u32)
}

/// A network prepared once for stochastic batch execution.
///
/// Wraps the quantized, stream-generated [`PreparedNetwork`] together with
/// its [`SimConfig`] and executes [`RunSpec`]s in which image `i` always
/// draws activation seeds derived from `(cfg.act_seed, i)`.
#[derive(Debug)]
pub struct PreparedModel {
    cfg: SimConfig,
    prepared: PreparedNetwork,
    fingerprint: u64,
    /// Wall-clock cost of the bank preparation (quantize + stream
    /// generation), in nanoseconds.
    prepare_ns: u64,
}

impl PreparedModel {
    /// Quantizes `network`'s weights and generates all split-unipolar
    /// weight streams — once.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] for layer arrangements the SC datapath
    /// cannot execute.
    pub fn compile(cfg: SimConfig, network: &Network) -> Result<Self, RuntimeError> {
        let sim = ScSimulator::new(cfg);
        let started = std::time::Instant::now();
        let prepared = sim.prepare(network)?;
        let prepare_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok(PreparedModel {
            cfg,
            prepared,
            fingerprint: cache_key(network, &cfg),
            prepare_ns,
        })
    }

    /// Wall-clock nanoseconds the bank preparation took (quantization plus
    /// weight-stream generation) — the number the serve stats and the
    /// prepare bench surface.
    pub fn prepare_ns(&self) -> u64 {
        self.prepare_ns
    }

    /// The (kernel, tile) execution plan: the host rule of
    /// [`TilePlan::for_choice`] for the configured kernel choice. Every
    /// run of the model uses `plan.kernel`, and the batch engine tiles
    /// images in groups of `plan.tile`.
    pub fn plan(&self) -> TilePlan {
        TilePlan::for_choice(self.cfg.kernel)
    }

    /// The simulation configuration the model was prepared with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The underlying prepared network.
    pub fn prepared(&self) -> &PreparedNetwork {
        &self.prepared
    }

    /// Cache key: network fingerprint mixed with the simulation config.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Approximate resident size of the prepared weight banks, in bytes
    /// (see [`PreparedNetwork::approx_bytes`]). [`ModelCache`] memory
    /// budgets are enforced against this figure, which reflects the actual
    /// allocations of the weights: the model's weight cycles plus one
    /// `u32` code per lane.
    pub fn approx_bytes(&self) -> usize {
        self.prepared.approx_bytes()
    }

    /// Weight-storage accounting of the prepared banks (see
    /// [`PreparedNetwork::dedup_stats`]): lanes, weight cycles,
    /// cycle/code/resident bytes, and the materialized-layout cost of the
    /// same shapes.
    pub fn dedup_stats(&self) -> DedupStats {
        self.prepared.dedup_stats()
    }

    /// A [`RunSpec`] running `inputs[t]` at the activation seed derived for
    /// image index `image_indices[t]` (see [`derive_image_seed`]).
    pub fn spec<'a>(
        &self,
        image_indices: impl IntoIterator<Item = u64>,
        inputs: Vec<&'a Tensor>,
    ) -> RunSpec<'a> {
        let seeds = image_indices
            .into_iter()
            .map(|i| derive_image_seed(self.cfg.act_seed, i))
            .collect();
        RunSpec::new(inputs, seeds)
    }

    /// Executes `spec` against the prepared banks (see
    /// [`ScSimulator::execute`]).
    ///
    /// Only pays for activation-stream generation and the AND/OR datapath;
    /// weight streams come from the one-time preparation. Built with
    /// [`PreparedModel::spec`], each image's logits are a pure function of
    /// `(model, image_index, input)`: the same alone and in any tile.
    ///
    /// # Errors
    ///
    /// See [`ScSimulator::execute`] (a failure anywhere fails the whole
    /// spec — callers wanting per-image isolation re-run tiles of one).
    pub fn logits(
        &self,
        spec: &RunSpec<'_>,
        scratch: &mut SimScratch,
    ) -> Result<RunOutput, SimError> {
        ScSimulator::new(self.cfg).execute(&self.prepared, spec, scratch)
    }
}

fn cache_key(network: &Network, cfg: &SimConfig) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    network.fingerprint().hash(&mut h);
    cfg.hash(&mut h);
    h.finish()
}

/// Default number of prepared models a [`ModelCache`] retains.
///
/// Prepared weights are the dominant cost (the model's weight cycles plus
/// one code per weight lane), so a serving process must not accumulate one
/// per distinct `(network, config)` it has ever seen.
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

/// A bounded, memoizing cache of prepared models, keyed by
/// `(Network::fingerprint(), SimConfig)`.
///
/// Serving layers call [`ModelCache::get_or_compile`] per request; the
/// first request for a `(network, config)` pair pays for preparation, every
/// later one gets the shared `Arc` back. Interior-mutable (`&self`) so one
/// cache can be shared across a serving process.
///
/// Capacity-bounded with least-recently-used eviction: at most
/// `capacity` models are retained (default
/// [`DEFAULT_CACHE_CAPACITY`]), and inserting into a full cache evicts the
/// entry whose last hit is oldest. An optional **memory budget**
/// ([`ModelCache::with_limits`]) additionally bounds the summed
/// [`PreparedModel::approx_bytes`] of resident models, evicting LRU-first
/// until the budget holds (the most recent insert is always retained, so a
/// single over-budget model still serves). Eviction only drops the cache's
/// `Arc` — callers still holding the model keep it alive — and every
/// eviction is counted, globally and per model fingerprint, for serving
/// observability.
#[derive(Debug)]
pub struct ModelCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    memory_budget: Option<usize>,
    /// Prepares finished through this cache (misses that compiled).
    prepares_completed: AtomicU64,
    /// Summed [`PreparedModel::prepare_ns`] of those compiles.
    prepare_ns_total: AtomicU64,
    /// Compiles currently executing (misses between lock release and
    /// insert).
    prepares_in_flight: AtomicU64,
}

/// Point-in-time prepare accounting of a [`ModelCache`] — the
/// compile-side twin of [`DedupStats`], surfaced through the serve stats
/// frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepareStats {
    /// Prepares finished through the cache since creation.
    pub prepares_completed: u64,
    /// Summed wall-clock nanoseconds of those prepares.
    pub prepare_ns_total: u64,
    /// Prepares currently executing.
    pub prepares_in_flight: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Value carries the logical timestamp of its last hit.
    map: HashMap<(u64, SimConfig), (u64, Arc<PreparedModel>)>,
    /// Monotonic logical clock, bumped on every hit or insert.
    tick: u64,
    /// Summed `approx_bytes` of every resident model.
    bytes: usize,
    /// Total evictions since creation.
    evictions: u64,
    /// Evictions per evicted model's [`PreparedModel::fingerprint`].
    evicted_by_model: HashMap<u64, u64>,
}

impl CacheInner {
    /// Evicts the least-recently-used entry (skipping nothing — the caller
    /// guarantees the entry that must survive holds the newest tick).
    fn evict_lru(&mut self) {
        if let Some(oldest) = self
            .map
            .iter()
            .min_by_key(|(_, (stamp, _))| *stamp)
            .map(|(k, _)| *k)
        {
            if let Some((_, gone)) = self.map.remove(&oldest) {
                self.bytes = self.bytes.saturating_sub(gone.approx_bytes());
                self.evictions += 1;
                *self.evicted_by_model.entry(gone.fingerprint()).or_insert(0) += 1;
            }
        }
    }

    /// Whether limits require another eviction (never below one entry).
    fn over_limits(&self, capacity: usize, budget: Option<usize>) -> bool {
        self.map.len() > 1 && (self.map.len() > capacity || budget.is_some_and(|b| self.bytes > b))
    }
}

impl Default for ModelCache {
    fn default() -> Self {
        ModelCache {
            inner: Mutex::default(),
            capacity: DEFAULT_CACHE_CAPACITY,
            memory_budget: None,
            prepares_completed: AtomicU64::new(0),
            prepare_ns_total: AtomicU64::new(0),
            prepares_in_flight: AtomicU64::new(0),
        }
    }
}

impl ModelCache {
    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        ModelCache::default()
    }

    /// Creates an empty cache retaining at most `capacity` models.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Result<Self, RuntimeError> {
        ModelCache::with_limits(capacity, None)
    }

    /// Creates an empty cache retaining at most `capacity` models whose
    /// summed [`PreparedModel::approx_bytes`] stays within
    /// `memory_budget` bytes (when given). The budget is enforced
    /// LRU-first on insert; the most recent insert always survives, so one
    /// over-budget model still serves (and is evicted by the next insert).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] if `capacity` or the budget is zero.
    pub fn with_limits(
        capacity: usize,
        memory_budget: Option<usize>,
    ) -> Result<Self, RuntimeError> {
        if capacity == 0 {
            return Err(RuntimeError::InvalidConfig(
                "model cache capacity must be at least 1".into(),
            ));
        }
        if memory_budget == Some(0) {
            return Err(RuntimeError::InvalidConfig(
                "model cache memory budget must be at least 1 byte".into(),
            ));
        }
        Ok(ModelCache {
            capacity,
            memory_budget,
            ..ModelCache::default()
        })
    }

    /// Point-in-time prepare accounting (completions, summed wall-clock,
    /// in-flight compiles).
    pub fn prepare_stats(&self) -> PrepareStats {
        PrepareStats {
            prepares_completed: self.prepares_completed.load(Ordering::Relaxed),
            prepare_ns_total: self.prepare_ns_total.load(Ordering::Relaxed),
            prepares_in_flight: self.prepares_in_flight.load(Ordering::Relaxed),
        }
    }

    /// Maximum number of retained models.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured memory budget in bytes, if any.
    pub fn memory_budget(&self) -> Option<usize> {
        self.memory_budget
    }

    /// Summed [`PreparedModel::approx_bytes`] of every resident model.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().expect("model cache lock poisoned").bytes
    }

    /// Summed [`PreparedModel::dedup_stats`] over every resident model —
    /// the cache-wide view of how much the orbit-window weights save
    /// versus materialized banks.
    pub fn dedup_totals(&self) -> DedupStats {
        let inner = self.inner.lock().expect("model cache lock poisoned");
        let mut total = DedupStats::default();
        for (_, model) in inner.map.values() {
            total.merge(&model.dedup_stats());
        }
        total
    }

    /// Total evictions since creation (capacity- and budget-driven).
    pub fn evictions(&self) -> u64 {
        self.inner
            .lock()
            .expect("model cache lock poisoned")
            .evictions
    }

    /// Evictions of models whose [`PreparedModel::fingerprint`] equals
    /// `model_fingerprint`.
    pub fn evictions_of(&self, model_fingerprint: u64) -> u64 {
        self.inner
            .lock()
            .expect("model cache lock poisoned")
            .evicted_by_model
            .get(&model_fingerprint)
            .copied()
            .unwrap_or(0)
    }

    /// Returns the cached prepared model for `(network, cfg)`, compiling
    /// and inserting it on first use; a full cache evicts its
    /// least-recently-used entry to make room.
    ///
    /// Preparation runs outside the cache lock; two racing first requests
    /// may both prepare, but the winner's (deterministic, identical) model
    /// is kept and shared.
    ///
    /// # Errors
    ///
    /// Propagates preparation errors; nothing is inserted on failure.
    pub fn get_or_compile(
        &self,
        cfg: SimConfig,
        network: &Network,
    ) -> Result<Arc<PreparedModel>, RuntimeError> {
        if let Some(hit) = self.get_if_cached(&cfg, network) {
            return Ok(hit);
        }
        let key = (network.fingerprint(), cfg);
        self.prepares_in_flight.fetch_add(1, Ordering::Relaxed);
        let compiled = PreparedModel::compile(cfg, network);
        self.prepares_in_flight.fetch_sub(1, Ordering::Relaxed);
        let model = Arc::new(compiled?);
        self.prepares_completed.fetch_add(1, Ordering::Relaxed);
        self.prepare_ns_total
            .fetch_add(model.prepare_ns(), Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("model cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((stamp, racer)) = inner.map.get_mut(&key) {
            // A racing request inserted while we prepared; share its model.
            *stamp = tick;
            return Ok(Arc::clone(racer));
        }
        inner.bytes += model.approx_bytes();
        inner.map.insert(key, (tick, Arc::clone(&model)));
        // The fresh insert holds the newest tick, so LRU eviction can never
        // select it — at least the requested model is always resident.
        while inner.over_limits(self.capacity, self.memory_budget) {
            inner.evict_lru();
        }
        Ok(model)
    }

    /// The cached prepared model for `(network, cfg)` — refreshing its
    /// recency — or `None` without compiling anything. Serving layers use
    /// this peek to answer from warm models instantly while routing cold
    /// compiles off the request path.
    pub fn get_if_cached(&self, cfg: &SimConfig, network: &Network) -> Option<Arc<PreparedModel>> {
        let key = (network.fingerprint(), *cfg);
        let mut inner = self.inner.lock().expect("model cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(&key).map(|(stamp, hit)| {
            *stamp = tick;
            Arc::clone(hit)
        })
    }

    /// Whether `(network, cfg)` is currently cached (does not refresh its
    /// recency).
    pub fn contains(&self, cfg: &SimConfig, network: &Network) -> bool {
        self.inner
            .lock()
            .expect("model cache lock poisoned")
            .map
            .contains_key(&(network.fingerprint(), *cfg))
    }

    /// Number of cached models.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("model cache lock poisoned")
            .map
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached model (eviction counters are preserved; cleared
    /// models are not counted as evictions).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("model cache lock poisoned");
        inner.map.clear();
        inner.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acoustic_nn::layers::{AccumMode, Conv2d, Dense, Network, Relu};

    fn small_net() -> Network {
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_relu(Relu::clamped());
        net.push_flatten();
        net.push_dense(Dense::new(2 * 4 * 4, 3, AccumMode::OrApprox).unwrap());
        net
    }

    fn cfg(n: usize) -> SimConfig {
        SimConfig::with_stream_len(n).unwrap()
    }

    /// Image `i` as a tile of one.
    fn run_one(model: &PreparedModel, i: u64, x: &Tensor) -> Tensor {
        model
            .logits(&model.spec([i], vec![x]), &mut SimScratch::default())
            .unwrap()
            .logits
            .remove(0)
    }

    #[test]
    fn derived_seeds_spread_and_are_reproducible() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..512u64 {
            let s = derive_image_seed(0xACE1, i);
            assert_eq!(s, derive_image_seed(0xACE1, i));
            seen.insert(s);
        }
        assert!(seen.len() > 500, "seed collisions: {}", seen.len());
        assert_ne!(derive_image_seed(0xACE1, 0), derive_image_seed(0xACE2, 0));
    }

    #[test]
    fn logits_are_a_pure_function_of_index_and_input() {
        let model = PreparedModel::compile(cfg(128), &small_net()).unwrap();
        let x = Tensor::from_vec(&[1, 4, 4], vec![0.5; 16]).unwrap();
        let a = run_one(&model, 3, &x);
        let b = run_one(&model, 3, &x);
        assert_eq!(a, b);
        // Different image indices draw different activation streams.
        let c = run_one(&model, 4, &x);
        assert_ne!(a, c, "distinct images should not share streams");
    }

    #[test]
    fn cache_shares_and_distinguishes() {
        let cache = ModelCache::new();
        let net = small_net();
        let a = cache.get_or_compile(cfg(128), &net).unwrap();
        let b = cache.get_or_compile(cfg(128), &net).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same (net, cfg) must share");
        assert_eq!(cache.len(), 1);

        let c = cache.get_or_compile(cfg(256), &net).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "different config, different model");

        let mut other = small_net();
        if let acoustic_nn::layers::NetLayer::Dense(d) = &mut other.layers_mut()[3] {
            d.weights_mut()[0] += 0.5;
        }
        let d = cache.get_or_compile(cfg(128), &other).unwrap();
        assert!(!Arc::ptr_eq(&a, &d), "different weights, different model");
        assert_eq!(cache.len(), 3);

        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_capacity_is_validated_and_reported() {
        assert!(ModelCache::with_capacity(0).is_err());
        let cache = ModelCache::with_capacity(2).unwrap();
        assert_eq!(cache.capacity(), 2);
        assert_eq!(ModelCache::new().capacity(), DEFAULT_CACHE_CAPACITY);
    }

    #[test]
    fn cache_evicts_least_recently_used_at_capacity() {
        let cache = ModelCache::with_capacity(2).unwrap();
        let net = small_net();
        cache.get_or_compile(cfg(64), &net).unwrap();
        cache.get_or_compile(cfg(128), &net).unwrap();
        assert_eq!(cache.len(), 2);

        // Touch 64 so 128 becomes the least recently used entry.
        cache.get_or_compile(cfg(64), &net).unwrap();
        cache.get_or_compile(cfg(256), &net).unwrap();
        assert_eq!(cache.len(), 2, "insert at capacity must evict");
        assert!(cache.contains(&cfg(64), &net), "recently hit entry kept");
        assert!(cache.contains(&cfg(256), &net), "new entry present");
        assert!(
            !cache.contains(&cfg(128), &net),
            "least recently used entry evicted"
        );

        // The evicted config recompiles on demand and re-enters the cache.
        let again = cache.get_or_compile(cfg(128), &net).unwrap();
        assert_eq!(again.config().stream_len, 128);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn approx_bytes_reflects_prepared_banks() {
        let small = PreparedModel::compile(cfg(64), &small_net()).unwrap();
        let big = PreparedModel::compile(cfg(512), &small_net()).unwrap();
        assert!(small.approx_bytes() > 0);
        assert!(
            big.approx_bytes() > small.approx_bytes(),
            "longer streams must occupy more bank bytes ({} vs {})",
            big.approx_bytes(),
            small.approx_bytes()
        );
    }

    #[test]
    fn memory_budget_evicts_lru_and_counts() {
        let net = small_net();
        let one = PreparedModel::compile(cfg(64), &net)
            .unwrap()
            .approx_bytes();
        // Budget fits two stream-64 preparations but not three.
        let cache = ModelCache::with_limits(8, Some(2 * one + one / 2)).unwrap();
        let a = cache.get_or_compile(cfg(64), &net).unwrap();
        cache.get_or_compile(cfg(128), &net).unwrap();
        assert_eq!(cache.evictions(), 0);

        // stream-128 banks are bigger, so inserting a third model must
        // push the cache over budget and evict the LRU entry (cfg 64,
        // untouched since insert is older than 128's).
        let c = cache.get_or_compile(cfg(256), &net).unwrap();
        assert!(cache.evictions() > 0, "budget must force evictions");
        assert!(!cache.contains(&cfg(64), &net), "LRU entry evicted first");
        assert!(cache.resident_bytes() <= 2 * one + one / 2 || cache.len() == 1);
        assert_eq!(cache.evictions_of(a.fingerprint()), 1);
        assert_eq!(cache.evictions_of(c.fingerprint()), 0);

        // Eviction dropped only the cache's Arc; ours still works.
        let x = Tensor::from_vec(&[1, 4, 4], vec![0.5; 16]).unwrap();
        assert_eq!(run_one(&a, 0, &x), {
            let again = cache.get_or_compile(cfg(64), &net).unwrap();
            run_one(&again, 0, &x)
        });
    }

    #[test]
    fn single_over_budget_model_survives_until_next_insert() {
        let net = small_net();
        let cache = ModelCache::with_limits(8, Some(1)).unwrap();
        let a = cache.get_or_compile(cfg(64), &net).unwrap();
        assert_eq!(cache.len(), 1, "most recent insert always survives");
        assert!(cache.resident_bytes() > 1);
        cache.get_or_compile(cfg(128), &net).unwrap();
        assert_eq!(cache.len(), 1, "over-budget predecessor evicted");
        assert!(!cache.contains(&cfg(64), &net));
        assert_eq!(cache.evictions_of(a.fingerprint()), 1);
        assert!(ModelCache::with_limits(4, Some(0)).is_err());
        assert!(ModelCache::new().memory_budget().is_none());
    }

    /// A dense-only net of `in_n × 64` weights, all equal to `value`: one
    /// weight cycle, so its bytes grow with its lane count alone.
    fn dense_net(in_n: usize, value: f32) -> Network {
        let mut d = Dense::new(in_n, 64, AccumMode::OrApprox).unwrap();
        d.weights_mut().fill(value);
        let mut net = Network::new();
        net.push_dense(d);
        net
    }

    #[test]
    fn resident_bytes_track_actual_allocations_and_change_eviction_order() {
        let sim = cfg(64);
        let wide = PreparedModel::compile(sim, &dense_net(96, 0.4)).unwrap();
        let narrow = PreparedModel::compile(sim, &dense_net(1, 0.4)).unwrap();

        // Both models hold one weight cycle; their bytes differ by their
        // 4-byte lane codes — a per-model constant would weigh them
        // equally.
        let (w, n) = (wide.dedup_stats(), narrow.dedup_stats());
        assert_eq!((w.distinct_streams, n.distinct_streams), (1, 1));
        assert_eq!((w.lanes, n.lanes), (96 * 64, 64));
        let big = wide.approx_bytes();
        let small = narrow.approx_bytes();
        assert!(
            small * 2 < big,
            "narrow weights must be much smaller ({small} vs {big})"
        );
        // And the accounting is exact: cycle words + lane codes.
        for s in [w, n] {
            assert_eq!(s.index_bytes, 4 * s.lanes);
            assert_eq!(s.resident_bytes, s.pool_bytes + s.index_bytes);
        }
        assert_eq!(small as u64, n.resident_bytes);
        assert_eq!(big as u64, w.resident_bytes);

        // A budget that holds two narrow models but not one wide model:
        // under byte-accurate accounting the wide model is evicted the
        // moment a narrow one lands, and the two narrow models then
        // coexist — an order impossible under equal-weight accounting.
        let budget = 2 * small + small / 2;
        assert!(budget < big, "budget must not fit the wide model");
        let cache = ModelCache::with_limits(8, Some(budget)).unwrap();
        cache.get_or_compile(sim, &dense_net(96, 0.4)).unwrap();
        cache.get_or_compile(sim, &dense_net(1, 0.4)).unwrap();
        assert_eq!(cache.evictions_of(wide.fingerprint()), 1);
        cache.get_or_compile(sim, &dense_net(1, 0.7)).unwrap();
        assert_eq!(cache.len(), 2, "two narrow models fit the byte budget");
        assert_eq!(cache.evictions(), 1, "no further evictions needed");
        assert_eq!(cache.resident_bytes(), 2 * small);
    }

    #[test]
    fn cache_counts_prepares_and_peeks_without_compiling() {
        let cache = ModelCache::new();
        let net = small_net();
        let c = cfg(64);
        assert!(cache.get_if_cached(&c, &net).is_none());
        assert_eq!(cache.prepare_stats(), PrepareStats::default());

        let model = cache.get_or_compile(c, &net).unwrap();
        let stats = cache.prepare_stats();
        assert_eq!(stats.prepares_completed, 1);
        assert!(stats.prepare_ns_total > 0);
        assert_eq!(stats.prepares_in_flight, 0);
        assert!(model.prepare_ns() > 0);

        // A hit neither compiles nor bumps the counters; the peek sees it.
        let again = cache.get_or_compile(c, &net).unwrap();
        assert!(Arc::ptr_eq(&model, &again));
        assert_eq!(cache.prepare_stats().prepares_completed, 1);
        assert!(Arc::ptr_eq(&model, &cache.get_if_cached(&c, &net).unwrap()));
    }

    #[test]
    fn recompile_after_eviction_is_bit_identical() {
        let cache = ModelCache::new();
        let net = small_net();
        let c = cfg(64);
        let first = cache.get_or_compile(c, &net).unwrap();
        cache.clear();
        let second = cache.get_or_compile(c, &net).unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(
            second.prepared().content_digest(),
            first.prepared().content_digest()
        );
        assert_eq!(second.dedup_stats(), first.dedup_stats());
        assert_eq!(cache.prepare_stats().prepares_completed, 2);
    }
}
