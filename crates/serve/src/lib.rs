//! Recommendation serving on top of the private framework.
//!
//! [`ClusterFramework::recommend`] is built for evaluation sweeps: each
//! call re-releases the noisy averages and walks every user's full
//! similarity row. A server answering many requests against one fixed
//! release can do much better without touching the privacy analysis,
//! because everything after the release is post-processing:
//!
//! * [`ReleaseExchange`] — each noisy release is keyed by its
//!   *generation* ([`release_generation`]: a hash of partition / ε /
//!   noise model / seed), built at most once per generation, and
//!   retained across a hot swap ([`hotswap`]);
//! * [`SimMassIndex`] — the per-user cluster similarity masses are
//!   precomputed once, in parallel, collapsing per-query work from
//!   `O(|sim(u)|)` to one sparse axpy per touched cluster;
//! * [`ShardedServer`] — the one serving engine: user-partitioned
//!   shards (each owning a rebased slice of the index), flat-combining
//!   admission that coalesces concurrent single queries into kernel
//!   batches ([`coalesce`]), parallel batch fan-out, and per-shard
//!   counters in a [`socialrec_obs::MetricsRegistry`]. A 1-shard
//!   daemon is the plain batch server.
//!
//! [`loadgen`] holds the Zipf/Poisson samplers the CLI benches drive
//! the daemon with.
//!
//! [`ShardedServer::recommend_batch`] is **bit-identical** to
//! [`ClusterFramework::recommend`] for the same inputs: the index
//! replays the framework's exact floating-point accumulation order
//! (see [`SimMassIndex`]'s floating-point contract).
//!
//! [`ClusterFramework::recommend`]: socialrec_core::private::ClusterFramework

#![warn(missing_docs)]

pub mod coalesce;
pub mod hotswap;
mod index;
pub mod kernel;
pub mod loadgen;
mod shard;

pub use coalesce::AdmissionQueue;
pub use hotswap::{partition_fingerprint, release_generation, EpochCell, ReleaseExchange};
pub use index::{dirty_index_rows, SimMassIndex};
pub use shard::ShardedServer;
