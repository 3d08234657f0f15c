//! Common Neighbors: `sim(u, v) = |Γ(u) ∩ Γ(v)|`.
//!
//! Computed as a scatter walk: every two-step walk `u → x → v` adds 1
//! to a dense accumulator slot for `v`, which is then drained sorted.
//! The walk touches `Σ_{x ∈ Γ(u)} deg x` entries and nothing else, so
//! it is the cheapest exact formulation: scoring each two-hop
//! candidate by a sorted-set intersection of `Γ(u)` and `Γ(v)` does the
//! same walk to find the candidates and then a merge per candidate on
//! top.

use crate::scratch::SimScratch;
use crate::Similarity;
use socialrec_graph::{SocialGraph, UserId};

/// The Common Neighbors (CN) measure.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommonNeighbors;

impl Similarity for CommonNeighbors {
    fn name(&self) -> &'static str {
        "CN"
    }

    /// Radius 1, tighter than the degree-based default of 2: a flipped
    /// edge `(u, v)` changes row `a` only when (a) `a ∈ {u, v}` (its
    /// own neighbor set changed), (b) the new/old common neighbor
    /// witnesses a pair — `c = u` requires `a ∈ Γ(u)`, `c = v` requires
    /// `a ∈ Γ(v)` — or (c) a candidate's score against `a` shifts
    /// because `Γ(u)` gained/lost `v`, which changes
    /// `|Γ(a) ∩ Γ(u)|` only when `v ∈ Γ(a)`, i.e. `a ∈ Γ(v)`. CN uses
    /// no endpoint or candidate degrees, so no two-hop row is ever
    /// affected. (The cache's delta property test checks this bitwise
    /// against full rebuilds across random delta sequences.)
    fn dirty_radius(&self) -> u32 {
        1
    }

    fn similarity_set(
        &self,
        g: &SocialGraph,
        u: UserId,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
    ) {
        out.clear();
        // Every two-step walk u -> x -> v witnesses one common neighbor
        // x of u and v.
        for &x in g.neighbors(u) {
            for &v in g.neighbors(x) {
                scratch.acc.add(v.0, 1.0);
            }
        }
        scratch.acc.drain_sorted_into(u, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialrec_graph::social::social_graph_from_edges;

    #[test]
    fn hand_computed_square() {
        // Square 0-1-2-3-0: opposite corners share 2 neighbors,
        // adjacent corners share none.
        let g = social_graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let cn = CommonNeighbors;
        assert_eq!(cn.pair(&g, UserId(0), UserId(2)), 2.0);
        assert_eq!(cn.pair(&g, UserId(0), UserId(1)), 0.0);
        let set = cn.similarity_set_vec(&g, UserId(0));
        assert_eq!(set, vec![(UserId(2), 2.0)]);
    }

    #[test]
    fn triangle_includes_direct_friends() {
        // In a triangle every pair shares exactly one common neighbor.
        let g = social_graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let cn = CommonNeighbors;
        assert_eq!(cn.pair(&g, UserId(0), UserId(1)), 1.0);
        assert_eq!(cn.pair(&g, UserId(1), UserId(2)), 1.0);
    }

    #[test]
    fn symmetric() {
        let g =
            social_graph_from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 0), (1, 5)])
                .unwrap();
        let cn = CommonNeighbors;
        for u in 0..6u32 {
            for v in 0..6u32 {
                assert_eq!(cn.pair(&g, UserId(u), UserId(v)), cn.pair(&g, UserId(v), UserId(u)));
            }
        }
    }

    #[test]
    fn isolated_user_empty_set() {
        let g = social_graph_from_edges(3, &[(0, 1)]).unwrap();
        assert!(CommonNeighbors.similarity_set_vec(&g, UserId(2)).is_empty());
    }

    #[test]
    fn never_contains_self() {
        let g = social_graph_from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap();
        for u in 0..4u32 {
            let set = CommonNeighbors.similarity_set_vec(&g, UserId(u));
            assert!(set.iter().all(|&(v, _)| v != UserId(u)));
        }
    }

    /// Every row equals the brute-force pairwise merge of `Γ(u)` and
    /// `Γ(v)`, bit for bit, on graphs with hubs, pendants and isolated
    /// users.
    #[test]
    fn matches_brute_force_pairwise_merge() {
        for seed in [1, 2, 3] {
            let g = crate::oracle::random_graph(seed);
            crate::oracle::assert_matches_brute_force(&CommonNeighbors, &g, |_| 1.0);
        }
    }
}
