//! `pic-cluster` — multi-node sharded serving for the photonic
//! tensor core.
//!
//! The paper's 16×16 mixed-signal core reaches datacenter scale as an
//! array of cores behind a scheduler (the regime the companion
//! system-level modeling work studies). This crate turns the
//! single-[`Runtime`](pic_runtime::Runtime) server into that fleet:
//!
//! * a **shard planner** ([`plan`]) that cuts a
//!   [`TiledMatrix`](pic_runtime::TiledMatrix)'s tile grid into
//!   block-row (and, with surplus nodes, block-column) shards and
//!   places them load-aware across nodes, replicating hot Zipf-head
//!   matrices;
//! * a **coordinator** ([`Coordinator`]) that fans each
//!   [`MatmulRequest`](pic_runtime::MatmulRequest) out to the owning
//!   nodes and **merges partial code sums** in a reduce layer that is
//!   bit-identical to single-node serving (accumulation is digital
//!   post-ADC, so integer partial sums recombine exactly);
//! * **failure-aware re-sharding**: a lost node's shards re-place onto
//!   the least-loaded survivors, and in-flight shard calls on the dead
//!   node surface typed errors and retry exactly once against the new
//!   placement;
//! * a **cluster frame roll-up** ([`Coordinator::frame`]) exposing
//!   per-node busy fraction, achieved vs. peak samples/s, and shard
//!   balance through the existing `pic-net` `/metrics` path;
//! * **waker completion**: every shard call wakes one per-request
//!   fan-in, and a single step collects, retries or reduces once it
//!   fires. The coordinator implements
//!   [`ServeBackend`](pic_net::ServeBackend) on that step
//!   ([`ClusterPending`] is its in-flight state), so one HTTP
//!   front-end serves the whole fleet from its reactor threads;
//!   [`ClusterHandle::wait`] parks until woken and runs the same step.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coordinator;
pub mod plan;

pub use coordinator::{
    ClusterConfig, ClusterCounters, ClusterError, ClusterHandle, ClusterPending, ClusterResponse,
    Coordinator,
};
