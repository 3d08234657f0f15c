//! The sharded, coalescing serving daemon.
//!
//! [`ShardedServer`] is the front door ROADMAP item 1 asks for: the
//! user space is split into contiguous ranges — **shards** — and each
//! shard owns a rebased slice of the [`SimMassIndex`], its own
//! [`EpochCell`] onto the current release, and its own
//! [`AdmissionQueue`]. Queries touch only their shard's state, so
//! shards scale without sharing anything but the release itself:
//!
//! * **Admission** — [`recommend_one`](ShardedServer::recommend_one)
//!   enqueues on the user's shard; concurrent singles coalesce into one
//!   batch that rides the item-tiled kernel (`kernel.rs`), amortizing
//!   release lookup and tile traversal that the uncoalesced path pays
//!   per query.
//! * **Hot swap** — the noisy release is owned by one daemon-wide
//!   [`ReleaseExchange`]; a generation change (seed / ε / partition
//!   bump) is built exactly once while every shard keeps serving its
//!   current epoch, then each shard flips its [`EpochCell`] on its next
//!   query. The exchange retains the predecessor generation, so
//!   in-flight traffic admitted before the swap completes without a
//!   re-release. Each response is computed wholly from the release of
//!   the generation its seed hashes to — responses never mix
//!   generations — and the privacy ledger is stamped exactly once per
//!   new generation, no matter how many shards or threads race.
//! * **Metrics** — every shard registers named counters
//!   (`serve.shard<i>.queries`, `.admissions`, `.coalesced`,
//!   `.kernel_blocks`, `.release_swaps`), a `.generation` gauge, and a
//!   `.query_ns` latency histogram in the daemon's own
//!   [`MetricsRegistry`], so load skew and coalescing efficiency are
//!   visible per shard.
//!
//! # Floating-point contract
//!
//! Sharding and coalescing are both invisible to the output bits. The
//! per-shard index slices are copied bytes of the full index
//! ([`SimMassIndex::slice_rows`]), each user's utilities are accumulated
//! independently by the kernel regardless of batch composition, and
//! top-N selection is the shared [`top_n_items`]. Every path through
//! this module is bit-identical to `ClusterFramework::recommend` — the
//! serving layer adds zero accuracy loss on top of DP noise.

use crate::coalesce::{AdmissionQueue, PendingQuery};
use crate::hotswap::{partition_fingerprint, release_generation, EpochCell, ReleaseExchange};
use crate::kernel;
use crate::SimMassIndex;
use rayon::prelude::*;
use socialrec_community::Partition;
use socialrec_core::private::framework::{ClusterFramework, NoiseModel, NoisyClusterAverages};
use socialrec_core::{top_n_items, RecommenderInputs, TopN, TopNRecommender};
use socialrec_dp::Epsilon;
use socialrec_graph::UserId;
use socialrec_obs::journal::{self, EventKind};
use socialrec_obs::{span, Counter, Gauge, LatencyHistogram, LiveTelemetry, MetricsRegistry};
use socialrec_similarity::SimilarityMatrix;
use std::sync::Arc;
use std::time::Instant;

/// One user-range shard: a rebased index slice plus all serving state
/// for its users.
struct Shard {
    /// First (global) user id this shard owns.
    first_user: u32,
    /// Rows `[first_user, first_user + index.num_users())` of the full
    /// index, rebased to local user `0`.
    index: SimMassIndex,
    /// The release epoch this shard is currently serving.
    epoch: EpochCell,
    /// Flat-combining admission for single queries.
    queue: AdmissionQueue,
    /// Individual queries served (coalesced singles and batch rows).
    queries: Arc<Counter>,
    /// Leader executions — drained admission batches.
    admissions: Arc<Counter>,
    /// Queries that shared an admission batch with at least one other
    /// (batch size > 1). `coalesced / queries` is the coalescing rate;
    /// `queries / admissions` the mean ride size.
    coalesced: Arc<Counter>,
    /// Item-tiled kernel invocations (user blocks).
    kernel_blocks: Arc<Counter>,
    /// Epoch-cell flips (release swaps observed by this shard).
    release_swaps: Arc<Counter>,
    /// The generation currently in the epoch cell (as `i64` bits).
    generation: Arc<Gauge>,
    /// Admission backlog observed at enqueue time (queries pending a
    /// leader when this one arrived).
    queue_depth: Arc<Gauge>,
    /// End-to-end single-query latency (admission to answer).
    latency: Arc<LatencyHistogram>,
}

/// The sharded, coalescing serving daemon. See the module docs.
pub struct ShardedServer<'p> {
    framework: ClusterFramework<'p>,
    fingerprint: u64,
    exchange: ReleaseExchange,
    shards: Vec<Shard>,
    /// Users per shard (last shard may be ragged).
    chunk: usize,
    registry: Arc<MetricsRegistry>,
}

impl<'p> ShardedServer<'p> {
    /// Build a daemon over `num_shards` contiguous user ranges. `sim`
    /// must be the same matrix later passed inside
    /// [`RecommenderInputs`] to the query methods. `num_shards` is
    /// clamped to `[1, num_users]` (a 0-user partition gets 0 shards).
    pub fn new(
        partition: &'p Partition,
        sim: &SimilarityMatrix,
        epsilon: Epsilon,
        num_shards: usize,
    ) -> ShardedServer<'p> {
        Self::from_index(partition, SimMassIndex::build(sim, partition), epsilon, num_shards)
    }

    /// Build a daemon from a prebuilt [`SimMassIndex`] — typically one
    /// opened from an mmap-able artifact
    /// ([`SimMassIndex::open_artifact`]), in which case the per-shard
    /// `slice_rows` calls are O(1) windows over the shared mapping and
    /// no index bytes are duplicated. The index must cover exactly
    /// `partition`'s users and have been built against that partition.
    pub fn from_index(
        partition: &'p Partition,
        full: SimMassIndex,
        epsilon: Epsilon,
        num_shards: usize,
    ) -> ShardedServer<'p> {
        let n = partition.num_users();
        assert_eq!(full.num_users(), n, "index must cover the partition's users");
        assert_eq!(
            full.num_clusters(),
            partition.num_clusters(),
            "index was built against a different partition"
        );
        let chunk = n.div_ceil(num_shards.clamp(1, n.max(1))).max(1);
        let registry = Arc::new(MetricsRegistry::new());
        let shards = (0..n.div_ceil(chunk))
            .map(|s| {
                let (lo, hi) = (s * chunk, ((s + 1) * chunk).min(n));
                Shard {
                    first_user: lo as u32,
                    index: full.slice_rows(lo, hi),
                    epoch: EpochCell::new(),
                    queue: AdmissionQueue::new(),
                    queries: registry.counter(format!("serve.shard{s}.queries")),
                    admissions: registry.counter(format!("serve.shard{s}.admissions")),
                    coalesced: registry.counter(format!("serve.shard{s}.coalesced")),
                    kernel_blocks: registry.counter(format!("serve.shard{s}.kernel_blocks")),
                    release_swaps: registry.counter(format!("serve.shard{s}.release_swaps")),
                    generation: registry.gauge(format!("serve.shard{s}.generation")),
                    queue_depth: registry.gauge(format!("serve.shard{s}.queue_depth")),
                    latency: registry.histogram(format!("serve.shard{s}.query_ns")),
                }
            })
            .collect();
        ShardedServer {
            framework: ClusterFramework::new(partition, epsilon),
            fingerprint: partition_fingerprint(partition),
            exchange: ReleaseExchange::new(),
            shards,
            chunk,
            registry,
        }
    }

    /// Select the noise distribution (default: Laplace). Changing it
    /// changes the release generation, so the next query hot-swaps.
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.framework = self.framework.with_noise(noise);
        self
    }

    /// The underlying framework (partition, ε, noise model).
    pub fn framework(&self) -> &ClusterFramework<'p> {
        &self.framework
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `user`.
    pub fn shard_of(&self, user: UserId) -> usize {
        user.index() / self.chunk
    }

    /// The daemon's metrics registry (per-shard counters live here).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A shared handle to the registry (e.g. for an
    /// [`socialrec_obs::IntrospectionServer`], which outlives borrows
    /// of the daemon).
    pub fn registry_handle(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// The daemon-wide release exchange (epoch counter, retained
    /// generations).
    pub fn exchange(&self) -> &ReleaseExchange {
        &self.exchange
    }

    /// The generation each shard's epoch cell currently serves
    /// (`None` until a shard's first query).
    pub fn shard_generations(&self) -> Vec<Option<u64>> {
        self.shards.iter().map(|s| s.epoch.generation()).collect()
    }

    /// The release generation queries with `seed` resolve to.
    pub fn generation_for(&self, seed: u64) -> u64 {
        release_generation(
            self.fingerprint,
            self.framework.epsilon(),
            self.framework.noise_model(),
            seed,
        )
    }

    /// Hot-swap an externally produced release into the daemon under
    /// live load: the release for `seed` — typically from
    /// `DynamicRecommender::release_averages`, whose accountant already
    /// debited the spend — becomes the ready generation in the
    /// exchange, so queries carrying `seed` flip to it on their next
    /// admission *without* triggering an on-miss `serve.rebuild` (which
    /// would spend the privacy budget a second time). Queries for older
    /// retained generations keep being answered throughout.
    ///
    /// Returns the generation id queries with `seed` resolve to. The
    /// averages must come from this daemon's partition, ε, and noise
    /// model with `seed` — the generation key encodes exactly those —
    /// otherwise served bits would not match the generation contract.
    /// Publishing an already-present generation is a no-op.
    pub fn publish_release(&self, seed: u64, averages: NoisyClusterAverages) -> u64 {
        let _span = span!("update.publish");
        assert_eq!(
            averages.num_clusters(),
            self.framework.partition().num_clusters(),
            "published release was built against a different partition"
        );
        let generation = self.generation_for(seed);
        if self.exchange.publish(generation, Arc::new(averages)) && socialrec_obs::enabled() {
            // The producing release recorded its spend in the privacy
            // ledger; stamp that record with the generation now serving
            // it, mirroring the on-miss build path.
            socialrec_obs::PrivacyLedger::global().stamp_generation(generation);
        }
        generation
    }

    /// The release for `seed`, from the shard's epoch cell when
    /// current, otherwise from the exchange (building at most once
    /// daemon-wide and stamping the ledger on that one build) followed
    /// by an epoch flip of this shard.
    fn release_for(
        &self,
        shard: &Shard,
        inputs: &RecommenderInputs<'_>,
        seed: u64,
    ) -> Arc<NoisyClusterAverages> {
        let generation = self.generation_for(seed);
        if let Some(averages) = shard.epoch.load(generation) {
            return averages;
        }
        let (averages, built) = self.exchange.get_or_build(generation, || {
            let _span = span!("serve.rebuild");
            self.framework.noisy_cluster_averages(inputs, seed)
        });
        if built && socialrec_obs::enabled() {
            // The build just recorded a release in the privacy ledger
            // (via the core release kernel); stamp it with the
            // generation that consumed it. `built` is true exactly once
            // per generation, so the ledger shows one spend per swap.
            socialrec_obs::PrivacyLedger::global().stamp_generation(generation);
        }
        shard.epoch.store(generation, Arc::clone(&averages));
        shard.release_swaps.inc();
        shard.generation.set(generation as i64);
        journal::emit(
            EventKind::HotSwapCompleted,
            (shard.first_user as usize / self.chunk) as u64,
            generation,
        );
        averages
    }

    /// Execute one drained admission batch on `shard`, fulfilling every
    /// pending query. Queries are grouped by seed (= release
    /// generation) in first-seen order — a kernel call never spans
    /// generations — and each group rides the item-tiled kernel in
    /// [`kernel::USER_BLOCK`] blocks.
    fn run_coalesced(&self, shard: &Shard, inputs: &RecommenderInputs<'_>, batch: &[PendingQuery]) {
        let _span = span!("serve.coalesced", queries = batch.len());
        shard.admissions.inc();
        shard.queries.add(batch.len() as u64);
        if batch.len() > 1 {
            shard.coalesced.add(batch.len() as u64);
        }
        let mut groups: Vec<(u64, Vec<&PendingQuery>)> = Vec::new();
        for q in batch {
            match groups.iter_mut().find(|(s, _)| *s == q.seed()) {
                Some((_, g)) => g.push(q),
                None => groups.push((q.seed(), vec![q])),
            }
        }
        let mut buf = Vec::new();
        let mut locals = Vec::with_capacity(kernel::USER_BLOCK);
        for (seed, group) in groups {
            let averages = self.release_for(shard, inputs, seed);
            let ni = averages.num_items();
            for block in group.chunks(kernel::USER_BLOCK) {
                locals.clear();
                locals.extend(block.iter().map(|q| UserId(q.user().0 - shard.first_user)));
                kernel::utilities_block_tiled(
                    &averages,
                    &shard.index,
                    &locals,
                    kernel::ITEM_TILE,
                    &mut buf,
                );
                shard.kernel_blocks.inc();
                for (k, q) in block.iter().enumerate() {
                    let items = top_n_items(&buf[k * ni..(k + 1) * ni], q.n());
                    q.fulfill(TopN { user: q.user(), items });
                }
            }
        }
    }

    /// A single-user query through the coalescing admission path.
    ///
    /// The query is enqueued on its user's shard; whichever admitted
    /// thread wins the shard's combiner lock executes every pending
    /// query as one kernel batch. Bit-identical to the same query
    /// served alone (and to `ClusterFramework::recommend`).
    pub fn recommend_one(
        &self,
        inputs: &RecommenderInputs<'_>,
        user: UserId,
        n: usize,
        seed: u64,
    ) -> TopN {
        let shard = &self.shards[self.shard_of(user)];
        shard.queue_depth.set(shard.queue.depth() as i64);
        let start = Instant::now();
        let top =
            shard.queue.submit(user, n, seed, |batch| self.run_coalesced(shard, inputs, batch));
        let elapsed = start.elapsed();
        shard.latency.record(elapsed);
        if socialrec_obs::live_armed() {
            LiveTelemetry::global().record_query(elapsed);
        }
        top
    }

    /// Top-N recommendations for a batch of users, fanned out across
    /// shards and user blocks in parallel. Output order matches
    /// `users`; bits match `ClusterFramework::recommend`.
    pub fn recommend_batch(
        &self,
        inputs: &RecommenderInputs<'_>,
        users: &[UserId],
        n: usize,
        seed: u64,
    ) -> Vec<TopN> {
        let _span = span!("serve.shard_batch", users = users.len());
        let mut routed: Vec<Vec<(usize, UserId)>> = vec![Vec::new(); self.shards.len()];
        for (pos, &u) in users.iter().enumerate() {
            routed[self.shard_of(u)].push((pos, u));
        }
        // Resolve the release up front (one build, however many shards
        // are touched) so the parallel region below never stalls on it.
        for (si, r) in routed.iter().enumerate() {
            if !r.is_empty() {
                self.release_for(&self.shards[si], inputs, seed);
                self.shards[si].queries.add(r.len() as u64);
            }
        }
        let mut tasks: Vec<(usize, &[(usize, UserId)])> = Vec::new();
        for (si, r) in routed.iter().enumerate() {
            for block in r.chunks(kernel::USER_BLOCK) {
                tasks.push((si, block));
            }
        }
        let computed: Vec<Vec<(usize, TopN)>> = (0..tasks.len())
            .into_par_iter()
            .map_init(Vec::new, |buf, t| {
                let (si, block) = tasks[t];
                let shard = &self.shards[si];
                let averages = self.release_for(shard, inputs, seed);
                let ni = averages.num_items();
                let locals: Vec<UserId> =
                    block.iter().map(|&(_, u)| UserId(u.0 - shard.first_user)).collect();
                kernel::utilities_block_tiled(
                    &averages,
                    &shard.index,
                    &locals,
                    kernel::ITEM_TILE,
                    buf,
                );
                shard.kernel_blocks.inc();
                block
                    .iter()
                    .enumerate()
                    .map(|(k, &(pos, u))| {
                        (pos, TopN { user: u, items: top_n_items(&buf[k * ni..(k + 1) * ni], n) })
                    })
                    .collect()
            })
            .collect();
        let mut out: Vec<Option<TopN>> = users.iter().map(|_| None).collect();
        for (pos, top) in computed.into_iter().flatten() {
            out[pos] = Some(top);
        }
        out.into_iter().map(|t| t.expect("every routed query is answered")).collect()
    }
}

impl TopNRecommender for ShardedServer<'_> {
    fn name(&self) -> String {
        format!("shards({}, {})", self.shards.len(), self.framework.name())
    }

    fn recommend(
        &self,
        inputs: &RecommenderInputs<'_>,
        users: &[UserId],
        n: usize,
        seed: u64,
    ) -> Vec<TopN> {
        self.recommend_batch(inputs, users, n, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::preference::preference_graph_from_edges;
    use socialrec_graph::social::social_graph_from_edges;
    use socialrec_similarity::Measure;

    fn fixture() -> (socialrec_graph::SocialGraph, socialrec_graph::PreferenceGraph) {
        let s =
            social_graph_from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let p = preference_graph_from_edges(
            6,
            4,
            &[(0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 1), (1, 2), (4, 3)],
        )
        .unwrap();
        (s, p)
    }

    fn assert_bits(got: &[TopN], want: &[TopN]) {
        assert_eq!(got, want);
        for (g, w) in got.iter().zip(want) {
            for ((gi, gu), (wi, wu)) in g.items.iter().zip(&w.items) {
                assert_eq!(gi, wi);
                assert_eq!(gu.to_bits(), wu.to_bits(), "utility bits differ");
            }
        }
    }

    #[test]
    fn sharded_batch_matches_framework_bitwise_for_every_shard_count() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::from_assignment(&[0, 0, 1, 1, 0, 1]);
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        let fw = ClusterFramework::new(&partition, Epsilon::Finite(0.5));
        let want = fw.recommend(&inputs, &users, 3, 42);
        for num_shards in [1, 2, 3, 6, 100] {
            let daemon = ShardedServer::new(&partition, &sim, Epsilon::Finite(0.5), num_shards);
            assert!(daemon.num_shards() <= 6);
            let got = daemon.recommend_batch(&inputs, &users, 3, 42);
            assert_bits(&got, &want);
        }
    }

    /// Tentpole: a daemon sharding an mmap-backed index (O(1) window
    /// slices over one shared mapping) answers bit-identically to the
    /// heap-built daemon, for single queries and batches alike.
    #[test]
    fn mmap_backed_daemon_matches_heap_daemon_bitwise() {
        use socialrec_similarity::ValueKind;
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::from_assignment(&[0, 0, 1, 1, 0, 1]);
        let users: Vec<UserId> = (0..6).map(UserId).collect();

        let full = SimMassIndex::build(&sim, &partition);
        let dir = std::env::temp_dir().join("socialrec-shard-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("daemon-{}.srart", std::process::id()));
        full.write_artifact(&path, ValueKind::F64).unwrap();

        for num_shards in [1, 3, 6] {
            let heap = ShardedServer::new(&partition, &sim, Epsilon::Finite(0.5), num_shards);
            let mapped_index = SimMassIndex::open_artifact(&path).unwrap();
            let mapped = ShardedServer::from_index(
                &partition,
                mapped_index,
                Epsilon::Finite(0.5),
                num_shards,
            );
            let want = heap.recommend_batch(&inputs, &users, 3, 42);
            let got = mapped.recommend_batch(&inputs, &users, 3, 42);
            assert_bits(&got, &want);
            for &u in &users {
                let one = mapped.recommend_one(&inputs, u, 3, 42);
                let row = want.iter().find(|t| t.user == u).unwrap();
                assert_bits(std::slice::from_ref(&one), std::slice::from_ref(row));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn coalesced_single_matches_batch_row_bitwise() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::AdamicAdar);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::one_cluster(6);
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        for num_shards in [1, 3] {
            let daemon = ShardedServer::new(&partition, &sim, Epsilon::Infinite, num_shards);
            let batch = daemon.recommend_batch(&inputs, &users, 2, 0);
            for &u in &users {
                let single = daemon.recommend_one(&inputs, u, 2, 0);
                let row = batch.iter().find(|t| t.user == u).unwrap();
                assert_bits(std::slice::from_ref(&single), std::slice::from_ref(row));
            }
            assert_eq!(daemon.exchange().epoch(), 1, "singles share the batch's release");
        }
    }

    #[test]
    fn batch_with_ragged_and_oversized_blocks_matches_framework() {
        // 6 users with USER_BLOCK = 8: a single ragged block per shard;
        // also ask for more items than exist (n > num_items) through the
        // blocked kernel path.
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::from_assignment(&[0, 1, 0, 1, 0, 1]);
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        let fw = ClusterFramework::new(&partition, Epsilon::Finite(0.3));
        let want = fw.recommend(&inputs, &users, 100, 7);
        for num_shards in [1, 4] {
            let daemon = ShardedServer::new(&partition, &sim, Epsilon::Finite(0.3), num_shards);
            let got = daemon.recommend_batch(&inputs, &users, 100, 7);
            assert_bits(&got, &want);
            assert!(
                got.iter().all(|t| t.items.len() == 4),
                "n > num_items clamps to the item count"
            );
        }
    }

    #[test]
    fn shard_routing_covers_every_user_once() {
        let (s, _) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let partition = Partition::singletons(6);
        let daemon = ShardedServer::new(&partition, &sim, Epsilon::Finite(1.0), 4);
        // 6 users over ≤4 shards: chunk = 2 → 3 shards of 2.
        assert_eq!(daemon.num_shards(), 3);
        let mut per_shard = vec![0usize; daemon.num_shards()];
        for u in 0..6u32 {
            per_shard[daemon.shard_of(UserId(u))] += 1;
        }
        assert_eq!(per_shard, vec![2, 2, 2]);
    }

    #[test]
    fn hot_swap_builds_once_and_flips_every_shard() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::from_assignment(&[0, 0, 0, 1, 1, 1]);
        let daemon = ShardedServer::new(&partition, &sim, Epsilon::Finite(1.0), 3);
        let users: Vec<UserId> = (0..6).map(UserId).collect();

        daemon.recommend_batch(&inputs, &users, 2, 1);
        assert_eq!(daemon.exchange().epoch(), 1, "one build for however many shards");
        let gen1 = daemon.generation_for(1);
        assert_eq!(daemon.shard_generations(), vec![Some(gen1); 3]);

        // Seed bump = hot swap: one more build, every touched shard
        // flips, and the old generation stays retained for stragglers.
        daemon.recommend_batch(&inputs, &users, 2, 2);
        let gen2 = daemon.generation_for(2);
        assert_eq!(daemon.exchange().epoch(), 2);
        assert_eq!(daemon.shard_generations(), vec![Some(gen2); 3]);
        assert_eq!(daemon.exchange().retained(), vec![gen1, gen2]);

        // A straggler for the old seed is answered without a rebuild.
        let straggler = daemon.recommend_one(&inputs, UserId(0), 2, 1);
        assert_eq!(straggler.user, UserId(0));
        assert_eq!(daemon.exchange().epoch(), 2, "straggler must not re-release");

        let snap = daemon.registry().snapshot();
        let swaps: u64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.ends_with(".release_swaps"))
            .map(|(_, v)| *v)
            .sum();
        // 3 shards × 2 generations + shard 0's flip back for the
        // straggler.
        assert_eq!(swaps, 7);
    }

    /// Tentpole: a refreshed release produced outside the daemon (the
    /// `DynamicRecommender` path, with the accountant already debited)
    /// hot-swaps in via `publish_release` and is served bit-identically
    /// with no on-miss rebuild, while stragglers on the previous
    /// generation keep being answered.
    #[test]
    fn published_release_hot_swaps_without_rebuild() {
        use socialrec_core::private::framework::release_noisy_cluster_averages_with;
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::from_assignment(&[0, 0, 1, 1, 0, 1]);
        let daemon = ShardedServer::new(&partition, &sim, Epsilon::Finite(0.5), 3);
        let users: Vec<UserId> = (0..6).map(UserId).collect();

        daemon.recommend_batch(&inputs, &users, 3, 1);
        assert_eq!(daemon.exchange().epoch(), 1);

        // An incremental refresh produced this release out-of-band.
        let refreshed = release_noisy_cluster_averages_with(
            &partition,
            &p,
            Epsilon::Finite(0.5),
            daemon.framework().noise_model(),
            2,
        );
        let gen2 = daemon.publish_release(2, refreshed);
        assert_eq!(gen2, daemon.generation_for(2));
        assert_eq!(daemon.exchange().epoch(), 2, "the publish is the epoch flip");

        // Queries for the new seed flip to the published generation —
        // no serve.rebuild — and their bits match the framework.
        let fw = ClusterFramework::new(&partition, Epsilon::Finite(0.5));
        let want = fw.recommend(&inputs, &users, 3, 2);
        let got = daemon.recommend_batch(&inputs, &users, 3, 2);
        assert_bits(&got, &want);
        assert_eq!(daemon.exchange().epoch(), 2, "served from the published release");
        assert_eq!(daemon.shard_generations(), vec![Some(gen2); 3]);

        // Stragglers on the prior generation are still answered.
        let straggler = daemon.recommend_one(&inputs, UserId(0), 3, 1);
        assert_eq!(straggler.user, UserId(0));
        assert_eq!(daemon.exchange().epoch(), 2, "straggler must not re-release");

        // Republishing the same seed is a no-op.
        assert_eq!(daemon.publish_release(2, fw.noisy_cluster_averages(&inputs, 2)), gen2);
        assert_eq!(daemon.exchange().epoch(), 2);
    }

    #[test]
    fn per_shard_metrics_count_queries_and_admissions() {
        let (s, p) = fixture();
        let sim = SimilarityMatrix::build(&s, &Measure::CommonNeighbors);
        let inputs = RecommenderInputs { prefs: &p, sim: &sim };
        let partition = Partition::from_assignment(&[0, 1, 0, 1, 0, 1]);
        let daemon = ShardedServer::new(&partition, &sim, Epsilon::Finite(0.7), 2);
        let users: Vec<UserId> = (0..6).map(UserId).collect();
        daemon.recommend_batch(&inputs, &users, 2, 5);
        daemon.recommend_one(&inputs, UserId(0), 2, 5);
        daemon.recommend_one(&inputs, UserId(5), 2, 5);
        let snap = daemon.registry().snapshot();
        let get = |name: &str| {
            snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or_default()
        };
        assert_eq!(get("serve.shard0.queries"), 3 + 1);
        assert_eq!(get("serve.shard1.queries"), 3 + 1);
        assert_eq!(get("serve.shard0.admissions"), 1);
        assert_eq!(get("serve.shard1.admissions"), 1);
        let hist = snap.histograms.iter().find(|(n, _)| n == "serve.shard0.query_ns").unwrap();
        assert_eq!(hist.1.count, 1, "single-query latency recorded per shard");
    }
}
