//! Structural social-similarity measures (paper §2.2).
//!
//! The recommenders in the paper's model are driven by a *social
//! similarity measure* `sim(u, v)` computed purely from the structure of
//! the public social graph. Four concrete measures are studied:
//!
//! * **Common Neighbors** — `|Γ(u) ∩ Γ(v)|`,
//! * **Graph Distance** — `1/d` for shortest-path length `d ≤ d_max`
//!   (paper uses `d_max = 2`),
//! * **Adamic/Adar** — `Σ_{x ∈ Γ(u)∩Γ(v)} 1/log|Γ(x)|`,
//! * **Katz** — `Σ_{l=1..k} α^l · |paths^l_{uv}|` (walk counting,
//!   truncated; paper uses `k = 3`, `α = 0.05`).
//!
//! All four are *symmetric* and return sparse "similarity sets"
//! `sim(u) = {v : sim(u, v) > 0}`. Computation is per-user into reusable
//! dense scratch buffers (no hashing in the hot loop), and
//! [`SimilarityMatrix`] precomputes all rows in parallel for the
//! recommenders.
//!
//! For streaming graph deltas, [`dirty_rows`] bounds which rows a batch
//! of edge flips can change (per-measure influence radius,
//! [`Similarity::dirty_radius`]) and
//! [`SimilarityMatrix::update_rows`](cache::SimilarityMatrix::update_rows)
//! recomputes exactly those rows, bit-identical to a from-scratch
//! rebuild. The matrix keeps each row in its own shared immutable
//! allocation, so an update shares every clean row with the previous
//! generation instead of copying it.

#![warn(missing_docs)]

pub mod adamic_adar;
pub mod artifact;
pub mod cache;
pub mod common_neighbors;
pub mod csr;
pub mod extended;
pub mod graph_distance;
pub mod katz;
pub mod measure;
pub mod mmap;
pub mod scratch;
pub mod store;
pub mod stream;

pub use adamic_adar::AdamicAdar;
pub use artifact::{ArtifactKind, CsrArtifact, StreamingCsrWriter, ValueKind};
pub use cache::SimilarityMatrix;
pub use common_neighbors::CommonNeighbors;
pub use extended::{HubPromoted, Jaccard, PreferentialAttachment, ResourceAllocation, Salton};
pub use graph_distance::GraphDistance;
pub use katz::Katz;
pub use measure::{parse_measure, Measure};
pub use mmap::MappedBytes;
pub use scratch::SimScratch;
pub use store::{MappedSimilarity, RowVals, SimilarityRows};
pub use stream::{write_similarity_artifact_streaming, StreamBuildStats};

use socialrec_graph::{SocialGraph, UserId};

/// A structural similarity measure over the social graph.
///
/// Implementations must be symmetric (`sim(u,v) = sim(v,u)`), return
/// only strictly positive scores, never include `u` itself, and must
/// depend on nothing but `G_s` — that last property is what lets the
/// private framework use them without spending privacy budget.
pub trait Similarity: Send + Sync {
    /// Short name for reports ("CN", "GD", "AA", "KZ", ...).
    fn name(&self) -> &'static str;

    /// Compute the similarity set of `u`: all `(v, sim(u, v))` with
    /// positive similarity, sorted by ascending `v`, appended to `out`
    /// (which is cleared first).
    fn similarity_set(
        &self,
        g: &SocialGraph,
        u: UserId,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
    );

    /// Convenience: similarity set as a fresh vector.
    fn similarity_set_vec(&self, g: &SocialGraph, u: UserId) -> Vec<(UserId, f64)> {
        let mut scratch = SimScratch::new(g.num_users());
        let mut out = Vec::new();
        self.similarity_set(g, u, &mut scratch, &mut out);
        out
    }

    /// Convenience: `sim(u, v)` via the similarity set (O(set) lookup;
    /// fine for tests, use [`SimilarityMatrix`] in hot paths).
    fn pair(&self, g: &SocialGraph, u: UserId, v: UserId) -> f64 {
        self.similarity_set_vec(g, u).iter().find(|(w, _)| *w == v).map(|&(_, s)| s).unwrap_or(0.0)
    }

    /// Influence radius for dirty-row tracking: flipping edge `(a, b)`
    /// can only change the similarity row of users within this many
    /// hops of `a` or `b` (in the old *or* the new graph).
    ///
    /// The default of 2 is correct for every neighborhood/degree-based
    /// measure (AA, JC, SA, RA, HP, PA): a flip changes `Γ` and `deg`
    /// of its endpoints only, which reaches rows at most two hops away
    /// (the endpoint as a common neighbor, or — for measures that read
    /// a candidate's degree — as the scored candidate of a two-hop
    /// partner). Measures that can prove a tighter bound override:
    /// plain CN uses no degrees, so only radius-1 rows are affected.
    /// Path-based measures override upward or downward as needed: Katz
    /// walks of length `k` feel an edge from `k-1` hops away, and
    /// Graph Distance at cutoff `d` from `d-1`.
    fn dirty_radius(&self) -> u32 {
        2
    }
}

/// The rows of a similarity matrix that a graph delta may have changed:
/// every user within [`Similarity::dirty_radius`] hops of a touched
/// endpoint, in the old or the new graph (union, sorted, deduplicated).
///
/// This is a conservative superset — recomputing exactly these rows
/// against the new graph and splicing the rest reproduces a from-scratch
/// rebuild bit for bit (see `SimilarityMatrix::update_rows`).
pub fn dirty_rows<S: Similarity + ?Sized>(
    measure: &S,
    g_old: &SocialGraph,
    g_new: &SocialGraph,
    touched: &[UserId],
) -> Vec<UserId> {
    use socialrec_graph::traversal::{reach_within, BfsScratch};
    let r = measure.dirty_radius();
    let mut scratch = BfsScratch::new(g_old.num_users().max(g_new.num_users()));
    let mut rows = reach_within(g_old, touched, r, &mut scratch);
    let in_new = reach_within(g_new, touched, r, &mut scratch);
    rows.extend(in_new);
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Brute-force reference for the two-hop measures, shared by their
/// unit tests.
#[cfg(test)]
mod oracle {
    use crate::{SimScratch, Similarity};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use socialrec_graph::social::social_graph_from_edges;
    use socialrec_graph::{SocialGraph, UserId};

    /// 80 users: hubs 0..3 adjacent to about a third of the graph, a
    /// random core 3..66 of degree about 3, pendants 66..74 with a
    /// single edge into the core, and isolated users 74..80.
    pub(crate) fn random_graph(seed: u64) -> SocialGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for hub in 0..3u32 {
            for v in 3..66u32 {
                if rng.gen_bool(0.33) {
                    edges.push((hub, v));
                }
            }
        }
        for u in 3..66u32 {
            for _ in 0..2 {
                let v = rng.gen_range(3..66u32);
                if v != u {
                    edges.push((u, v));
                }
            }
        }
        for p in 66..74u32 {
            edges.push((p, rng.gen_range(0..66u32)));
        }
        social_graph_from_edges(80, &edges).unwrap()
    }

    /// Score every pair `u ≠ v` by merging the sorted `Γ(u)` and `Γ(v)`
    /// and summing `weight(deg x)` over the common neighbors `x` in
    /// ascending order from `0.0`, then assert that `measure` returns
    /// exactly the positive scores, bit for bit.
    pub(crate) fn assert_matches_brute_force(
        measure: &dyn Similarity,
        g: &SocialGraph,
        weight: impl Fn(usize) -> f64,
    ) {
        let n = g.num_users() as u32;
        let mut scratch = SimScratch::new(n as usize);
        let mut got = Vec::new();
        for u in (0..n).map(UserId) {
            let mut want = Vec::new();
            for v in (0..n).map(UserId).filter(|&v| v != u) {
                let (a, b) = (g.neighbors(u), g.neighbors(v));
                let (mut i, mut j, mut sum) = (0, 0, 0.0f64);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            sum += weight(g.degree(a[i]));
                            i += 1;
                            j += 1;
                        }
                    }
                }
                if sum > 0.0 {
                    want.push((v, sum));
                }
            }
            measure.similarity_set(g, u, &mut scratch, &mut got);
            assert_eq!(got.len(), want.len(), "{} row {u:?} length", measure.name());
            for (&(gv, gs), &(wv, ws)) in got.iter().zip(&want) {
                assert_eq!(gv, wv, "{} row {u:?}", measure.name());
                assert_eq!(gs.to_bits(), ws.to_bits(), "{} row {u:?} at {wv:?}", measure.name());
            }
        }
    }
}
