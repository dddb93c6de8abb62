//! acoustic-serve: a dependency-free TCP inference server for the
//! ACOUSTIC stochastic-computing runtime.
//!
//! The crate turns [`acoustic_runtime`]'s deterministic batch engine into
//! a network service without giving up any of its guarantees:
//!
//! * **Wire protocol** ([`protocol`]) — length-prefixed binary frames with
//!   a versioned header; every request runs at its model's one prepared
//!   stream length, and every failure mode is a typed error frame, never a
//!   dropped connection mid-request.
//! * **Non-blocking I/O** ([`server`]) — a single reactor thread drives
//!   every client connection through acoustic-net's readiness poller
//!   (per-connection state machines, bounded buffers, write backpressure,
//!   optional idle reaping). Serving needs the polling syscall shim
//!   (Linux x86-64 / aarch64); other hosts build but refuse to start.
//! * **Admission control** ([`server`]) — one bounded, sharded queue is
//!   the only buffer in the server; when every shard fills, requests are
//!   rejected immediately with `Overloaded`. Workers pop from a home
//!   shard and steal from the rest. Deadlines are enforced at dequeue so
//!   an expired request never burns simulation time.
//! * **Micro-batching** — workers drain up to `batch_max` requests or wait
//!   `batch_wait`, whichever comes first, and evaluate them through
//!   [`acoustic_runtime::BatchEngine::run_ready`], reusing the runtime's
//!   scratch threading.
//! * **Determinism** — a request's id doubles as its seed index, so the
//!   response is bit-identical to a direct `BatchEngine` evaluation of the
//!   same `(model, id, image)` triple regardless of batching, worker count
//!   or arrival order. The load generator ([`loadgen`]) exploits this to
//!   validate every accepted response against locally recomputed golden
//!   logits.
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//!
//! use acoustic_runtime::ModelCache;
//! use acoustic_serve::registry::{demo_model, ModelRegistry, ModelSpec, DEMO_MODEL_ID};
//! use acoustic_serve::server::{ServeConfig, Server};
//! use acoustic_simfunc::SimConfig;
//!
//! let (network, _data) = demo_model(64, 16, 2).unwrap();
//! let cache = Arc::new(ModelCache::new());
//! let registry = ModelRegistry::build(
//!     vec![ModelSpec { id: DEMO_MODEL_ID, network, cfg: SimConfig::with_stream_len(128).unwrap() }],
//!     &cache,
//! )
//! .unwrap();
//! let handle = Server::start("127.0.0.1:0", registry, ServeConfig::default()).unwrap();
//! println!("serving on {}", handle.addr());
//! let stats = handle.shutdown();
//! println!("completed {}", stats.completed);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod loadgen;
pub mod protocol;
mod reactor;
pub mod registry;
mod serve_error;
pub mod server;
pub mod stats;

pub use client::{Client, InferReply};
pub use loadgen::{
    parse_mix, run_load, run_load_mix, summarize, summarize_connections, summarize_mix,
    validate_responses, validate_responses_mix, ConnectionReport, LoadGenConfig, LoadReport,
    ModelLoadReport, ModelTraffic,
};
pub use protocol::{ErrorCode, Frame, InferRequest, InferResponse, StatsSnapshot};
pub use registry::{
    demo_model, demo_network, ModelRegistry, ModelSpec, RegistryError, DEMO_MODEL_ID,
};
pub use serve_error::ServeError;
pub use server::{ServeConfig, Server, ServerHandle};
pub use stats::QueueGauges;
