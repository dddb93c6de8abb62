//! acoustic-net: the std-only networking substrate under acoustic-serve.
//!
//! The serving layer's original design — one blocking reader thread per
//! connection feeding a single global bounded queue — tops out long before
//! the simulation kernels do. This crate provides the three pieces that
//! replace it, all without external dependencies:
//!
//! * **Readiness polling** ([`poll`]) — a minimal level-triggered poller
//!   over raw file descriptors. On Linux it calls `ppoll(2)` directly
//!   through a tiny inline-assembly shim ([`sys`]), keeping the workspace
//!   libc-free; elsewhere [`Poller::supported`] reports `false` and the
//!   server refuses to start.
//! * **Cross-thread wakeups** ([`wake`]) — a loopback-socketpair waker so
//!   worker threads can interrupt a poller blocked in `ppoll` when they
//!   enqueue bytes for a connection the poller owns.
//! * **Connection buffers** ([`conn`]) — reusable read-accumulation and
//!   write-backpressure buffers for per-connection state machines over
//!   non-blocking streams (partial headers, partial bodies, short writes).
//! * **Sharded admission** ([`shard`]) — a bounded, *rejecting* MPMC queue
//!   split into per-worker-group shards with work-stealing between them,
//!   preserving the "full queue is an overload signal" contract of the
//!   original single queue while removing its single lock.
//! * **Topology** ([`topology`]) — sysfs-based core/SMT probing, so
//!   benchmark artifacts can record the host layout that produced them.
//!
//! The only `unsafe` code in the crate lives in [`sys`]; every other
//! module is safe Rust over `std::net`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod conn;
pub mod poll;
pub mod shard;
pub mod sys;
pub mod topology;
pub mod wake;

pub use conn::{FrameBuf, ReadOutcome, WriteBuf};
pub use poll::{Event, Interest, Poller};
pub use shard::{ShardPop, ShardPush, ShardedQueue};
pub use topology::Topology;
pub use wake::Waker;
