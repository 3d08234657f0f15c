//! The workload stages: each public call into a layer crate runs inside
//! a [`Tracer`] span named `<layer>.<call>`, and its wall time lands in
//! the run's samples under the per-layer metric it feeds.

use crate::trace::{SpanId, Tracer};
use rand::rngs::SmallRng;
use rand::Rng;
use socialrec_community::{
    ClusteringStrategy, IncrementalLouvain, Louvain, LouvainStrategy, Partition,
};
use socialrec_core::private::framework::{release_noisy_cluster_averages_with, NoiseModel};
use socialrec_core::private::{ClusterFramework, NoisyClusterAverages};
use socialrec_core::{top_n_items, BudgetSchedule, DynamicRecommender, RecommenderInputs, TopN};
use socialrec_datasets::{flixster_like, Dataset};
use socialrec_dp::{Epsilon, PrivacyAccountant};
use socialrec_graph::{GraphDelta, ItemId, PreferenceGraph, SocialGraph, UserId};
use socialrec_serve::loadgen::Zipf;
use socialrec_serve::{dirty_index_rows, ShardedServer, SimMassIndex};
use socialrec_similarity::{dirty_rows, CommonNeighbors, SimilarityMatrix, ValueKind};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Recommendations per query.
pub const TOP_N: usize = 10;
/// Daemon shards.
pub const SHARDS: usize = 4;
/// ε of every release.
pub const EPSILON: f64 = 0.5;
/// Louvain restarts (best of).
pub const RESTARTS: usize = 3;
/// Modularity drift that forces a full Louvain restart on refresh.
pub const DRIFT: f64 = 0.02;
/// Releases the dynamic recommender's uniform schedule plans for; the
/// total budget is `EPSILON × SCHEDULE`, so each release spends exactly
/// `EPSILON` and the daemon's generation key matches published ones.
pub const SCHEDULE: usize = 4096;

pub fn epsilon() -> Epsilon {
    Epsilon::Finite(EPSILON)
}

/// A fresh dynamic recommender on the benchmark's schedule.
pub fn dynamic_recommender() -> DynamicRecommender {
    DynamicRecommender::new(
        Epsilon::Finite(EPSILON * SCHEDULE as f64),
        BudgetSchedule::Uniform { releases: SCHEDULE },
    )
}

/// One benchmark pass: the tracer, per-metric samples, operation and
/// check counts, and the privacy mirror every release is composed into.
pub struct Run {
    pub tr: Tracer,
    pub dir: PathBuf,
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
    attempted: AtomicU64,
    failed: AtomicU64,
    checks: AtomicU64,
    mirror: Mutex<PrivacyAccountant>,
    refusals: AtomicU64,
}

impl Run {
    pub fn new(traced: bool, dir: PathBuf) -> Run {
        Run {
            tr: Tracer::new(traced),
            dir,
            samples: Mutex::new(BTreeMap::new()),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            checks: AtomicU64::new(0),
            mirror: Mutex::new(PrivacyAccountant::new()),
            refusals: AtomicU64::new(0),
        }
    }

    /// Append one sample of a per-layer metric.
    pub fn sample(&self, name: &'static str, v: f64) {
        self.samples.lock().expect("samples poisoned").entry(name).or_default().push(v);
    }

    /// Every sample recorded under `name` (empty if none).
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples.lock().expect("samples poisoned").get(name).cloned().unwrap_or_default()
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn ops(&self, n: u64, failed: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
        self.failed.fetch_add(failed, Ordering::Relaxed);
    }

    /// Record one correctness check; a failed check is a failed
    /// operation and is reported on stderr.
    pub fn check(&self, what: &str, ok: bool) {
        self.checks.fetch_add(1, Ordering::Relaxed);
        self.ops(1, u64::from(!ok));
        if !ok {
            eprintln!("perfbench: check failed: {what}");
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    /// Compose one release into the privacy mirror.
    pub fn spent(&self, eps: Epsilon) {
        self.mirror.lock().expect("mirror poisoned").spend_sequential(eps);
    }

    /// Releases composed so far and their total ε.
    pub fn privacy(&self) -> (usize, f64) {
        let m = self.mirror.lock().expect("mirror poisoned");
        (m.releases(), m.total_epsilon())
    }

    pub fn refusals(&self) -> u64 {
        self.refusals.load(Ordering::Relaxed)
    }

    /// A scheduled release through the dynamic recommender's enforcing
    /// accountant; a refusal is a failed operation.
    pub fn release_averages(
        &self,
        dynrec: &mut DynamicRecommender,
        partition: &Partition,
        prefs: &PreferenceGraph,
        seed: u64,
        parent: SpanId,
    ) -> Option<(Epsilon, NoisyClusterAverages)> {
        let (out, ms) = self.tr.span("core.release_averages", parent, |_| {
            dynrec.release_averages(partition, prefs, seed)
        });
        self.sample("core.dynamic_release_ms", ms);
        match out {
            Ok((eps, avg)) => {
                self.spent(eps);
                self.ops(1, 0);
                Some((eps, avg))
            }
            Err(e) => {
                eprintln!("perfbench: release refused: {e}");
                self.refusals.fetch_add(1, Ordering::Relaxed);
                self.ops(1, 1);
                None
            }
        }
    }
}

/// `flixster_like(scale, seed)`.
pub fn generate(run: &Run, scale: f64, seed: u64, parent: SpanId) -> Dataset {
    let (ds, ms) = run.tr.span("datasets.flixster_like", parent, |_| flixster_like(scale, seed));
    run.sample("datasets.generate_ms", ms);
    ds
}

/// The clustering a build produced: a fixed partition, or the live
/// state of an incremental Louvain that refresh rounds keep repairing.
pub enum Clusters {
    Fixed(Partition),
    Live(IncrementalLouvain),
}

impl Clusters {
    pub fn partition(&self) -> &Partition {
        match self {
            Clusters::Fixed(p) => p,
            Clusters::Live(inc) => inc.partition(),
        }
    }
}

/// Everything the offline half produces, before it is served.
pub struct Offline {
    pub sim: SimilarityMatrix,
    pub clusters: Clusters,
    /// The heap index the artifact was written from.
    pub index: SimMassIndex,
    /// The release the daemon starts on, and its seed.
    pub averages: NoisyClusterAverages,
    pub release_seed: u64,
    pub artifact: PathBuf,
    /// Wall time of the offline stages (similarity → artifact write).
    pub build_ms: f64,
}

/// Algorithm 1's offline half on `social`/`prefs`: CN similarity,
/// Louvain (fixed, or incremental when `live`), the sim-mass index, the
/// noisy release, and the f64 artifact.
pub fn build_offline(
    run: &Run,
    social: &SocialGraph,
    prefs: &PreferenceGraph,
    seed: u64,
    live: bool,
    tag: &str,
) -> Offline {
    let artifact = run.dir.join(format!("index-{tag}.srart"));
    let ((sim, clusters, index, averages), build_ms) = run.tr.span("bench.build", 0, |root| {
        let (sim, ms) = run
            .tr
            .span("similarity.build", root, |_| SimilarityMatrix::build(social, &CommonNeighbors));
        run.sample("similarity.build_ms", ms);
        run.sample("similarity.entries", sim.num_entries() as f64);
        let (clusters, ms) = run.tr.span("community.louvain", root, |_| {
            if live {
                let base = Louvain { seed, ..Louvain::default() };
                Clusters::Live(IncrementalLouvain::new(base, RESTARTS, DRIFT, social))
            } else {
                Clusters::Fixed(
                    LouvainStrategy { restarts: RESTARTS, seed, refine: true }.cluster(social),
                )
            }
        });
        run.sample("community.louvain_ms", ms);
        run.sample("community.clusters", clusters.partition().num_clusters() as f64);
        let partition = clusters.partition();
        let (index, ms) =
            run.tr.span("serve.index_build", root, |_| SimMassIndex::build(&sim, partition));
        run.sample("serve.index_build_ms", ms);
        run.sample("serve.index_entries", index.nnz() as f64);
        let inputs = RecommenderInputs { prefs, sim: &sim };
        let fw = ClusterFramework::new(partition, epsilon());
        let (averages, ms) = run.tr.span("core.noisy_cluster_averages", root, |_| {
            fw.noisy_cluster_averages(&inputs, seed)
        });
        run.sample("core.release_ms", ms);
        run.spent(epsilon());
        let (written, ms) = run.tr.span("serve.write_artifact", root, |_| {
            index.write_artifact(&artifact, ValueKind::F64)
        });
        run.sample("serve.artifact_write_ms", ms);
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", artifact.display());
            run.ops(1, 1);
        }
        (sim, clusters, index, averages)
    });
    Offline { sim, clusters, index, averages, release_seed: seed, artifact, build_ms }
}

/// The online half's start: reopen the artifact (mapped), check it
/// against the heap index, wrap it in a 4-shard daemon and publish the
/// offline release. Returns the daemon and the wall time of the
/// reopen/wrap/publish (the check excluded).
pub fn serve_offline<'a>(run: &Run, off: &'a Offline) -> Option<(ShardedServer<'a>, f64)> {
    let ((server, check_ms), ms) = run.tr.span("bench.serve", 0, |root| {
        let (mapped, ms) = run
            .tr
            .span("serve.open_artifact", root, |_| SimMassIndex::open_artifact(&off.artifact));
        run.sample("serve.artifact_open_ms", ms);
        let mapped = match mapped {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: opening {}: {e}", off.artifact.display());
                run.ops(1, 1);
                return (None, 0.0);
            }
        };
        let t = Instant::now();
        run.check(
            "reopened artifact index equals the heap index",
            mapped.is_mapped() && mapped == off.index,
        );
        let check_ms = t.elapsed().as_secs_f64() * 1e3;
        let partition = off.clusters.partition();
        let (server, _) = run.tr.span("serve.from_index", root, |_| {
            ShardedServer::from_index(partition, mapped, epsilon(), SHARDS)
        });
        let (_, ms) = run.tr.span("serve.publish_release", root, |_| {
            server.publish_release(off.release_seed, off.averages.clone())
        });
        run.sample("serve.publish_ms", ms);
        (Some(server), check_ms)
    });
    server.map(|s| (s, ms - check_ms))
}

/// Bitwise equality of two top-N lists.
pub fn same_topn(a: &TopN, b: &TopN) -> bool {
    a.user == b.user
        && a.items.len() == b.items.len()
        && a.items
            .iter()
            .zip(&b.items)
            .all(|((ai, au), (bi, bu))| ai == bi && au.to_bits() == bu.to_bits())
}

/// Bitwise equality of two releases.
pub fn same_release(a: &NoisyClusterAverages, b: &NoisyClusterAverages) -> bool {
    a.num_clusters() == b.num_clusters()
        && a.num_items() == b.num_items()
        && a.values().iter().zip(b.values()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `ClusterFramework::recommend`'s answer for `u` under an already
/// released generation: the framework's utility walk over the full
/// similarity row, then top-N. (Recomputing the release would spend ε
/// again; it is a pure function of the generation's seed, so reusing
/// the generation's averages gives the same bits.)
pub fn reference_topn(
    fw: &ClusterFramework<'_>,
    inputs: &RecommenderInputs<'_>,
    averages: &NoisyClusterAverages,
    u: UserId,
    scratch: &mut (Vec<f64>, Vec<f64>),
) -> TopN {
    fw.utility_estimates_into(inputs, averages, u, &mut scratch.0, &mut scratch.1);
    TopN { user: u, items: top_n_items(&scratch.1, TOP_N) }
}

/// One full-population `recommend_batch`; returns users per second and
/// checks an evenly spaced sample of answers bit for bit.
pub fn full_batch(
    run: &Run,
    server: &ShardedServer<'_>,
    inputs: &RecommenderInputs<'_>,
    averages: &NoisyClusterAverages,
    seed: u64,
) -> f64 {
    let users: Vec<UserId> = (0..inputs.num_users() as u32).map(UserId).collect();
    let (out, ms) = run
        .tr
        .span("serve.recommend_batch", 0, |_| server.recommend_batch(inputs, &users, TOP_N, seed));
    run.ops(users.len() as u64, u64::from(out.len() != users.len()));
    let fw = ClusterFramework::new(server.framework().partition(), epsilon());
    let mut scratch = (Vec::new(), Vec::new());
    let step = (users.len() / 64).max(1);
    let ok = out
        .iter()
        .step_by(step)
        .all(|got| same_topn(got, &reference_topn(&fw, inputs, averages, got.user, &mut scratch)));
    run.check("batch answers equal ClusterFramework::recommend", ok);
    users.len() as f64 / (ms / 1e3)
}

/// Zipf(s)-popular user, with the rank hash-spread over the ID space so
/// popularity is independent of ID order (and of the contiguous-range
/// shard a user lands in).
pub fn zipf_user(rng: &mut SmallRng, zipf: &Zipf, num_users: usize) -> UserId {
    let rank = zipf.sample(rng) as u64;
    UserId((rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % num_users as u64) as u32)
}

/// A churn delta: `social` toggles between popular users (80% arrivals)
/// and `pref` toggles of popular users onto uniform items.
pub fn churn_delta(
    rng: &mut SmallRng,
    zipf: &Zipf,
    num_users: usize,
    num_items: usize,
    social: usize,
    pref: usize,
) -> GraphDelta {
    let mut d = GraphDelta::new();
    while d.num_social() < social {
        let (u, v) = (zipf_user(rng, zipf, num_users), zipf_user(rng, zipf, num_users));
        if u == v {
            continue;
        }
        let r = if rng.gen_bool(0.8) { d.add_social(u, v) } else { d.remove_social(u, v) };
        r.expect("sampled endpoints are in range");
    }
    for _ in 0..pref {
        let u = zipf_user(rng, zipf, num_users);
        let i = ItemId(rng.gen_range(0..num_items as u32));
        if rng.gen_bool(0.8) {
            d.add_preference(u, i);
        } else {
            d.remove_preference(u, i);
        }
    }
    d
}

/// A preference-only refresh round: apply the delta, then the scheduled
/// release. Returns the round's wall time in ms (`None` on failure).
pub fn pref_round(
    run: &Run,
    dynrec: &mut DynamicRecommender,
    partition: &Partition,
    prefs: &mut PreferenceGraph,
    delta: &GraphDelta,
    seed: u64,
) -> Option<(f64, NoisyClusterAverages)> {
    let (out, ms) = run.tr.span("bench.round", 0, |root| {
        let (applied, ms) =
            run.tr.span("graph.apply_preferences", root, |_| delta.apply_preferences(prefs));
        run.sample("graph.delta_apply_ms", ms);
        let (p2, report) = applied.ok()?;
        run.sample("graph.delta_edges", report.changed.len() as f64);
        *prefs = p2;
        run.release_averages(dynrec, partition, prefs, seed, root).map(|(_, avg)| avg)
    });
    out.map(|avg| (ms, avg))
}

/// The live state refresh-churn keeps current round after round.
pub struct Live {
    pub social: SocialGraph,
    pub prefs: PreferenceGraph,
    pub sim: SimilarityMatrix,
    pub inc: IncrementalLouvain,
    pub index: SimMassIndex,
}

/// One social+preference refresh round through every incremental
/// layer; returns its wall time in ms and the release (`None` on
/// failure, counted as a failed operation).
pub fn churn_round(
    run: &Run,
    live: &mut Live,
    dynrec: &mut DynamicRecommender,
    delta: &GraphDelta,
    seed: u64,
) -> Option<(f64, NoisyClusterAverages)> {
    let measure = CommonNeighbors;
    let (out, ms) = run.tr.span("bench.round", 0, |root| {
        let ((social, prefs), ms) = run.tr.span("graph.apply_delta", root, |_| {
            (delta.apply_social(&live.social), delta.apply_preferences(&live.prefs))
        });
        run.sample("graph.delta_apply_ms", ms);
        let ((g2, sr), (p2, pr)) = (social.ok()?, prefs.ok()?);
        run.sample("graph.delta_edges", (sr.changed.len() + pr.changed.len()) as f64);
        let (s2, ms) = run.tr.span("similarity.update", root, |id| {
            let (dirty, _) = run.tr.span("similarity.dirty_rows", id, |_| {
                dirty_rows(&measure, &live.social, &g2, &sr.touched)
            });
            let (s2, _) = run.tr.span("similarity.update_rows", id, |_| {
                live.sim.update_rows(&g2, &measure, &dirty)
            });
            run.sample("similarity.dirty_rows", dirty.len() as f64);
            (s2, dirty)
        });
        run.sample("similarity.update_rows_ms", ms);
        let (s2, sim_dirty) = s2;
        let (outcome, ms) =
            run.tr.span("community.refresh", root, |_| live.inc.refresh(&g2, &sr.touched));
        run.sample("community.refresh_ms", ms);
        run.sample("community.moved_users", outcome.moved_users.len() as f64);
        run.sample("community.restarts", f64::from(u8::from(outcome.restarted)));
        let (i2, ms) = run.tr.span("serve.index_update", root, |id| {
            let (dirty, _) = run.tr.span("serve.dirty_index_rows", id, |_| {
                dirty_index_rows(&s2, &sim_dirty, &outcome.moved_users)
            });
            run.sample("serve.index_dirty_rows", dirty.len() as f64);
            let (i2, _) = run.tr.span("serve.index_update_rows", id, |_| {
                live.index.update_rows(&s2, live.inc.partition(), &dirty)
            });
            i2
        });
        run.sample("serve.index_update_rows_ms", ms);
        let release = run.release_averages(dynrec, live.inc.partition(), &p2, seed, root);
        (live.social, live.prefs, live.sim, live.index) = (g2, p2, s2, i2);
        release.map(|(_, avg)| avg)
    });
    out.map(|avg| (ms, avg))
}

/// The final refresh-churn state must equal a from-scratch rebuild
/// under the same partition: similarity, index and last release.
pub fn check_against_rebuild(run: &Run, live: &Live, last: Option<(u64, &NoisyClusterAverages)>) {
    let sim = SimilarityMatrix::build(&live.social, &CommonNeighbors);
    let same_sim = sim.num_users() == live.sim.num_users()
        && (0..sim.num_users() as u32).all(|u| {
            let ((an, av), (bn, bv)) = (sim.row(UserId(u)), live.sim.row(UserId(u)));
            an == bn && av.iter().zip(bv).all(|(x, y)| x.to_bits() == y.to_bits())
        });
    run.check("refreshed similarity equals a full rebuild", same_sim);
    let index = SimMassIndex::build(&sim, live.inc.partition());
    run.check("refreshed index equals a full rebuild", index == live.index);
    if let Some((seed, avg)) = last {
        let want = release_noisy_cluster_averages_with(
            live.inc.partition(),
            &live.prefs,
            epsilon(),
            NoiseModel::Laplace,
            seed,
        );
        run.spent(epsilon());
        run.check("last refresh release equals a direct release", same_release(avg, &want));
    }
}
