//! Epoch-based hot-swap of the noisy release under live traffic.
//!
//! A generation change (seed / ε / partition bump) must not stop the
//! world: queries for the old generation keep being answered from the
//! release they were admitted under while exactly **one** thread builds
//! the new release, and each response is computed wholly from a single
//! generation's release. Two pieces implement that:
//!
//! * [`ReleaseExchange`] — the daemon-wide source of truth. A
//!   generation-keyed map with **per-generation once-build** semantics:
//!   the first thread to miss a generation builds it (outside any lock
//!   other threads need), racing threads for the same generation park
//!   on a condvar, and every other generation stays readable
//!   throughout. The newest [`RETAIN_GENERATIONS`] generations are
//!   retained so in-flight traffic admitted just before a swap never
//!   forces a *re*-release of its predecessor (a rebuild with the same
//!   seed is bit-identical, but it would double-count in the privacy
//!   ledger). A panicking builder unparks the waiters and leaves the
//!   exchange clean — the next query retries the build.
//! * [`EpochCell`] — a shard-local `(generation, release)` pointer.
//!   Shards serve hits from their own cell (no cross-shard contention)
//!   and refresh it from the exchange on a generation change; the store
//!   is a pointer swap under a lock held for nanoseconds, which is the
//!   epoch flip.
//!
//! Generations are keyed by [`release_generation`]: a hash of
//! everything the release depends on — the partition assignment
//! ([`partition_fingerprint`]), ε, the noise model, and the RNG seed.
//! Any change to any of them changes the key and forces a new release;
//! identical inputs always resolve to the same retained release.
//!
//! Ledger discipline: [`ReleaseExchange::get_or_build`] reports whether
//! *this call* built, so the caller can stamp the privacy ledger
//! exactly once per new generation no matter how many shards or threads
//! raced for it.

use rustc_hash::FxHasher;
use socialrec_community::Partition;
use socialrec_core::private::framework::{NoiseModel, NoisyClusterAverages};
use socialrec_dp::Epsilon;
use socialrec_obs::journal::{self, EventKind};
use std::hash::Hasher;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Generations the exchange keeps alive: the current one plus its
/// predecessor, so a hot swap under live traffic never rebuilds the
/// release that in-flight queries were admitted under.
pub const RETAIN_GENERATIONS: usize = 2;

/// Fingerprint of a partition: hash of its full cluster assignment.
pub fn partition_fingerprint(partition: &Partition) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(partition.num_users());
    for &c in partition.assignment() {
        h.write_u32(c);
    }
    h.finish()
}

/// The release generation: a single `u64` identifying one exact noisy
/// release. Two calls see the same generation iff they agree on the
/// partition, ε, noise model, and seed.
pub fn release_generation(
    partition_fingerprint: u64,
    epsilon: Epsilon,
    noise: NoiseModel,
    seed: u64,
) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(partition_fingerprint);
    match epsilon {
        Epsilon::Finite(e) => {
            h.write_u8(0);
            h.write_u64(e.to_bits());
        }
        Epsilon::Infinite => h.write_u8(1),
    }
    h.write_u8(match noise {
        NoiseModel::Laplace => 0,
        NoiseModel::Geometric => 1,
    });
    h.write_u64(seed);
    h.finish()
}

/// Lock a mutex, recovering from poisoning (the protected state is only
/// written in consistent steps, so a panicking peer leaves it usable).
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

enum Entry {
    /// A build is in flight; waiters park on the exchange condvar.
    Building,
    /// The release is available.
    Ready(Arc<NoisyClusterAverages>),
}

#[derive(Default)]
struct ExchangeState {
    /// `(generation, entry)` in build order, newest last.
    entries: Vec<(u64, Entry)>,
    /// Monotone swap counter: bumped once per installed release.
    epoch: u64,
}

impl ExchangeState {
    /// Mark `generation` ready with `averages` (appending it unless a
    /// build claim already holds its slot), flip the epoch, and evict
    /// the oldest ready generations beyond [`RETAIN_GENERATIONS`] —
    /// never an in-flight build.
    fn install(&mut self, generation: u64, averages: Arc<NoisyClusterAverages>) {
        match self.entries.iter_mut().find(|(g, _)| *g == generation) {
            Some((_, e)) => *e = Entry::Ready(averages),
            None => self.entries.push((generation, Entry::Ready(averages))),
        }
        self.epoch += 1;
        let mut ready_count =
            self.entries.iter().filter(|(_, e)| matches!(e, Entry::Ready(_))).count();
        self.entries.retain(|(_, e)| {
            if ready_count > RETAIN_GENERATIONS && matches!(e, Entry::Ready(_)) {
                ready_count -= 1;
                false
            } else {
                true
            }
        });
    }
}

/// The daemon-wide, generation-keyed release source. See the module
/// docs for the full contract.
#[derive(Default)]
pub struct ReleaseExchange {
    state: Mutex<ExchangeState>,
    ready: Condvar,
}

impl ReleaseExchange {
    /// An empty exchange.
    pub fn new() -> ReleaseExchange {
        ReleaseExchange::default()
    }

    /// The release for `generation`, building it with `build` on a
    /// miss. Returns the release and whether **this call** ran the
    /// build — `true` exactly once per generation (while retained), so
    /// the caller can stamp the privacy ledger without double counting.
    ///
    /// Hits and builds of *other* generations never block on an
    /// in-flight build; racing calls for the *same* generation park
    /// until the builder finishes (or panics, in which case one of them
    /// retries the build and the panic propagates to the original
    /// caller only).
    pub fn get_or_build(
        &self,
        generation: u64,
        build: impl FnOnce() -> NoisyClusterAverages,
    ) -> (Arc<NoisyClusterAverages>, bool) {
        {
            let mut state = lock_recovering(&self.state);
            loop {
                match state.entries.iter().find(|(g, _)| *g == generation).map(|(_, e)| e) {
                    Some(Entry::Ready(a)) => return (Arc::clone(a), false),
                    Some(Entry::Building) => {
                        state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
                    }
                    None => {
                        state.entries.push((generation, Entry::Building));
                        break;
                    }
                }
            }
        }
        // Build outside the lock: every other generation stays
        // servable. The guard withdraws the claim and unparks waiters
        // if `build` panics, so they retry instead of hanging.
        struct Claim<'a> {
            exchange: &'a ReleaseExchange,
            generation: u64,
            done: bool,
        }
        impl Drop for Claim<'_> {
            fn drop(&mut self) {
                if !self.done {
                    let mut state = lock_recovering(&self.exchange.state);
                    state.entries.retain(|(g, _)| *g != self.generation);
                    self.exchange.ready.notify_all();
                    journal::emit(EventKind::BuilderPanicRecovered, self.generation, 0);
                }
            }
        }
        let mut claim = Claim { exchange: self, generation, done: false };
        let averages = Arc::new(build());
        claim.done = true;
        lock_recovering(&self.state).install(generation, Arc::clone(&averages));
        self.ready.notify_all();
        journal::emit(EventKind::ReleasePublished, generation, 0);
        (averages, true)
    }

    /// Insert an externally built release for `generation` — the
    /// streaming-refresh path, where a `DynamicRecommender` produced
    /// (and its accountant already debited) the release, and the daemon
    /// must serve it *without* an on-miss rebuild that would spend the
    /// privacy budget a second time.
    ///
    /// A successful publish counts as an epoch flip and participates in
    /// the normal [`RETAIN_GENERATIONS`] retention window. Returns
    /// whether this call installed the release: `false` when the
    /// generation is already ready (publish is idempotent) or a build
    /// for it is in flight (the publisher defers; the builder's result
    /// is bit-identical by the generation contract).
    pub fn publish(&self, generation: u64, averages: Arc<NoisyClusterAverages>) -> bool {
        let mut state = lock_recovering(&self.state);
        if state.entries.iter().any(|(g, _)| *g == generation) {
            return false;
        }
        state.install(generation, averages);
        drop(state);
        self.ready.notify_all();
        journal::emit(EventKind::ReleasePublished, generation, 0);
        true
    }

    /// The release for `generation` if already built and retained.
    pub fn get(&self, generation: u64) -> Option<Arc<NoisyClusterAverages>> {
        let state = lock_recovering(&self.state);
        state.entries.iter().find_map(|(g, e)| match e {
            Entry::Ready(a) if *g == generation => Some(Arc::clone(a)),
            _ => None,
        })
    }

    /// Number of completed builds (epoch flips) so far.
    pub fn epoch(&self) -> u64 {
        lock_recovering(&self.state).epoch
    }

    /// Generations currently retained (ready entries, oldest first).
    pub fn retained(&self) -> Vec<u64> {
        lock_recovering(&self.state)
            .entries
            .iter()
            .filter_map(|(g, e)| matches!(e, Entry::Ready(_)).then_some(*g))
            .collect()
    }
}

/// A shard-local `(generation, release)` pointer — the epoch a shard is
/// currently serving. Loads and stores hold the lock for a pointer copy
/// only, so the flip is invisible to latency.
#[derive(Default)]
pub struct EpochCell {
    slot: Mutex<Option<(u64, Arc<NoisyClusterAverages>)>>,
}

impl EpochCell {
    /// An empty cell.
    pub fn new() -> EpochCell {
        EpochCell::default()
    }

    /// The release if the cell currently holds `generation`.
    pub fn load(&self, generation: u64) -> Option<Arc<NoisyClusterAverages>> {
        match lock_recovering(&self.slot).as_ref() {
            Some((g, a)) if *g == generation => Some(Arc::clone(a)),
            _ => None,
        }
    }

    /// Flip the cell to `generation`.
    pub fn store(&self, generation: u64, averages: Arc<NoisyClusterAverages>) {
        *lock_recovering(&self.slot) = Some((generation, averages));
    }

    /// The generation the cell last served, if any.
    pub fn generation(&self) -> Option<u64> {
        lock_recovering(&self.slot).as_ref().map(|(g, _)| *g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_core::private::framework::release_noisy_cluster_averages;
    use socialrec_graph::preference::preference_graph_from_edges;

    #[test]
    fn generation_separates_every_input() {
        let p1 = partition_fingerprint(&Partition::singletons(4));
        let p2 = partition_fingerprint(&Partition::one_cluster(4));
        assert_ne!(p1, p2);
        let base = release_generation(p1, Epsilon::Finite(0.5), NoiseModel::Laplace, 7);
        assert_eq!(base, release_generation(p1, Epsilon::Finite(0.5), NoiseModel::Laplace, 7));
        for other in [
            release_generation(p2, Epsilon::Finite(0.5), NoiseModel::Laplace, 7),
            release_generation(p1, Epsilon::Finite(0.6), NoiseModel::Laplace, 7),
            release_generation(p1, Epsilon::Infinite, NoiseModel::Laplace, 7),
            release_generation(p1, Epsilon::Finite(0.5), NoiseModel::Geometric, 7),
            release_generation(p1, Epsilon::Finite(0.5), NoiseModel::Laplace, 8),
        ] {
            assert_ne!(base, other);
        }
    }

    fn tiny_release(seed: u64) -> NoisyClusterAverages {
        let partition = Partition::from_assignment(&[0, 0, 1]);
        let prefs = preference_graph_from_edges(3, 2, &[(0, 0), (1, 1), (2, 0)]).unwrap();
        release_noisy_cluster_averages(&partition, &prefs, Epsilon::Finite(1.0), seed)
    }

    #[test]
    fn racing_threads_build_each_generation_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ex = ReleaseExchange::new();
        let builds = AtomicUsize::new(0);
        let built_flags = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (ex, builds, built_flags) = (&ex, &builds, &built_flags);
                s.spawn(move || {
                    let gen = t % 2; // two generations, four racers each
                    let (_, built) = ex.get_or_build(gen, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        tiny_release(gen)
                    });
                    lock_recovering(built_flags).push(built);
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 2, "one build per generation");
        let flags = lock_recovering(&built_flags);
        assert_eq!(flags.iter().filter(|&&b| b).count(), 2, "exactly one builder per generation");
        assert_eq!(ex.epoch(), 2);
    }

    #[test]
    fn predecessor_generation_survives_one_swap() {
        let ex = ReleaseExchange::new();
        let (g1, built) = ex.get_or_build(1, || tiny_release(1));
        assert!(built);
        ex.get_or_build(2, || tiny_release(2));
        // Straggler traffic admitted under generation 1 still hits.
        let (again, built) = ex.get_or_build(1, || panic!("predecessor must be retained"));
        assert!(!built);
        assert!(Arc::ptr_eq(&g1, &again));
        assert_eq!(ex.retained(), vec![1, 2]);
        // A third generation evicts the oldest.
        ex.get_or_build(3, || tiny_release(3));
        assert_eq!(ex.retained(), vec![2, 3]);
        assert!(ex.get(1).is_none());
        assert_eq!(ex.epoch(), 3);
    }

    #[test]
    fn panicking_build_unparks_waiters_and_leaves_exchange_clean() {
        let ex = ReleaseExchange::new();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ex.get_or_build(5, || panic!("release builder exploded"));
        }));
        assert!(boom.is_err());
        assert!(ex.get(5).is_none(), "failed build leaves no entry");
        assert_eq!(ex.epoch(), 0);
        // The same generation rebuilds cleanly afterwards.
        let (_, built) = ex.get_or_build(5, || tiny_release(5));
        assert!(built);
        assert_eq!(ex.retained(), vec![5]);
    }

    #[test]
    fn other_generations_stay_readable_during_a_build() {
        use std::sync::mpsc;
        let ex = ReleaseExchange::new();
        ex.get_or_build(1, || tiny_release(1));
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let ex = &ex;
        std::thread::scope(|s| {
            s.spawn(move || {
                ex.get_or_build(2, || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    tiny_release(2)
                });
            });
            entered_rx.recv().unwrap();
            // Generation 1 is served while generation 2 is mid-build.
            let (_, built) = ex.get_or_build(1, || panic!("hit must not rebuild"));
            assert!(!built);
            release_tx.send(()).unwrap();
        });
        assert_eq!(ex.retained(), vec![1, 2]);
    }

    #[test]
    fn publish_installs_once_and_respects_retention() {
        let ex = ReleaseExchange::new();
        let a = Arc::new(tiny_release(1));
        assert!(ex.publish(1, Arc::clone(&a)));
        assert_eq!(ex.epoch(), 1);
        assert!(Arc::ptr_eq(&ex.get(1).unwrap(), &a));
        // Idempotent: a second publish of the same generation is a no-op
        // and the originally published release keeps serving.
        assert!(!ex.publish(1, Arc::new(tiny_release(1))));
        assert_eq!(ex.epoch(), 1);
        assert!(Arc::ptr_eq(&ex.get(1).unwrap(), &a));
        // A query for a published generation never rebuilds.
        let (got, built) = ex.get_or_build(1, || panic!("published generation must hit"));
        assert!(!built);
        assert!(Arc::ptr_eq(&got, &a));
        // Publishes ride the same retention window as builds.
        assert!(ex.publish(2, Arc::new(tiny_release(2))));
        assert!(ex.publish(3, Arc::new(tiny_release(3))));
        assert_eq!(ex.retained(), vec![2, 3]);
        assert_eq!(ex.epoch(), 3);
    }

    #[test]
    fn publish_defers_to_in_flight_build() {
        use std::sync::mpsc;
        let ex = ReleaseExchange::new();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let exr = &ex;
        std::thread::scope(|s| {
            s.spawn(move || {
                exr.get_or_build(7, || {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    tiny_release(7)
                });
            });
            entered_rx.recv().unwrap();
            assert!(!exr.publish(7, Arc::new(tiny_release(7))), "publisher defers to the builder");
            release_tx.send(()).unwrap();
        });
        assert_eq!(ex.epoch(), 1, "only the build flipped the epoch");
        assert_eq!(ex.retained(), vec![7]);
    }

    #[test]
    fn epoch_cell_flips_generations() {
        let cell = EpochCell::new();
        assert_eq!(cell.generation(), None);
        assert!(cell.load(1).is_none());
        let a = Arc::new(tiny_release(1));
        cell.store(1, Arc::clone(&a));
        assert!(Arc::ptr_eq(&cell.load(1).unwrap(), &a));
        assert!(cell.load(2).is_none(), "wrong generation must miss");
        let b = Arc::new(tiny_release(2));
        cell.store(2, b);
        assert_eq!(cell.generation(), Some(2));
        assert!(cell.load(1).is_none(), "cell holds exactly one epoch");
    }
}
