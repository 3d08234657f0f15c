//! Reusable per-thread scratch buffers for similarity computation.
//!
//! The measures accumulate into dense `f64` arrays indexed by user id,
//! tracking which slots were touched so that clearing costs O(touched)
//! instead of O(|U|). One scratch per worker thread; no allocation in
//! the per-user hot loop.

use socialrec_graph::traversal::BfsScratch;
use socialrec_graph::UserId;

/// Dense accumulator with a touched-slot list.
#[derive(Clone, Debug)]
pub struct DenseAccumulator {
    values: Vec<f64>,
    touched: Vec<u32>,
}

impl DenseAccumulator {
    /// Accumulator over `n` slots, all zero.
    pub fn new(n: usize) -> Self {
        DenseAccumulator { values: vec![0.0; n], touched: Vec::new() }
    }

    /// Add `w` to slot `idx`.
    #[inline]
    pub fn add(&mut self, idx: u32, w: f64) {
        let slot = &mut self.values[idx as usize];
        if *slot == 0.0 {
            self.touched.push(idx);
        }
        *slot += w;
    }

    /// Current value of slot `idx`.
    #[inline]
    pub fn get(&self, idx: u32) -> f64 {
        self.values[idx as usize]
    }

    /// Slots touched since the last clear (unsorted, may contain slots
    /// whose value returned to zero).
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Drain into `out` as sorted `(UserId, value)` pairs with strictly
    /// positive values, excluding `exclude`; resets the accumulator.
    pub fn drain_sorted_into(&mut self, exclude: UserId, out: &mut Vec<(UserId, f64)>) {
        self.touched.sort_unstable();
        for &idx in &self.touched {
            let v = self.values[idx as usize];
            self.values[idx as usize] = 0.0;
            if v > 0.0 && idx != exclude.0 {
                out.push((UserId(idx), v));
            }
        }
        self.touched.clear();
    }

    /// Reset without draining.
    pub fn clear(&mut self) {
        for &idx in &self.touched {
            self.values[idx as usize] = 0.0;
        }
        self.touched.clear();
    }
}

/// Deduplicating candidate collector: byte marks plus a touched list,
/// so gathering the distinct two-hop neighborhood costs O(walk) and
/// clearing costs O(candidates). Feeds the intersection-formulated
/// Katz path.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    marks: Vec<bool>,
    list: Vec<u32>,
}

impl CandidateSet {
    /// Candidate set over `n` slots, all unmarked.
    pub fn new(n: usize) -> Self {
        CandidateSet { marks: vec![false; n], list: Vec::new() }
    }

    /// Mark `idx` as a candidate (idempotent).
    #[inline]
    pub fn insert(&mut self, idx: u32) {
        let m = &mut self.marks[idx as usize];
        if !*m {
            *m = true;
            self.list.push(idx);
        }
    }

    /// Sort the candidate list ascending.
    pub fn sort(&mut self) {
        self.list.sort_unstable();
    }

    /// The distinct candidates inserted since the last clear, in
    /// insertion order unless [`sort`](Self::sort) was called.
    #[inline]
    pub fn list(&self) -> &[u32] {
        &self.list
    }

    /// Unmark everything and empty the list.
    pub fn clear(&mut self) {
        for &idx in &self.list {
            self.marks[idx as usize] = false;
        }
        self.list.clear();
    }
}

/// All scratch state a similarity measure may need.
#[derive(Clone, Debug)]
pub struct SimScratch {
    /// Main accumulator (final scores).
    pub acc: DenseAccumulator,
    /// Secondary accumulator (e.g. Katz walk-front counts).
    pub front: DenseAccumulator,
    /// Tertiary accumulator (next walk front).
    pub next: DenseAccumulator,
    /// BFS state for distance-bounded measures.
    pub bfs: BfsScratch,
    /// Two-hop candidate collector (intersection-formulated Katz).
    pub cand: CandidateSet,
    /// Sorted walk-front ids (intersection-formulated Katz); doubles as
    /// the sorted reached list for the gather-formulated Graph Distance.
    pub front_ids: Vec<u32>,
    /// Walk counts parallel to `front_ids` (Katz).
    pub front_counts: Vec<f64>,
    /// Next-front staging ids (Katz); doubles as the gathered depth
    /// buffer for Graph Distance.
    pub next_ids: Vec<u32>,
    /// Next-front staging counts (Katz).
    pub next_counts: Vec<f64>,
    /// Per-user depth labels for the gather-formulated Graph Distance
    /// path. Entries are only valid for users in the reached list and
    /// are zeroed again before the call returns.
    pub depth: Vec<u32>,
}

impl SimScratch {
    /// Scratch sized for a graph with `num_users` users.
    pub fn new(num_users: usize) -> Self {
        SimScratch {
            acc: DenseAccumulator::new(num_users),
            front: DenseAccumulator::new(num_users),
            next: DenseAccumulator::new(num_users),
            bfs: BfsScratch::new(num_users),
            cand: CandidateSet::new(num_users),
            front_ids: Vec::new(),
            front_counts: Vec::new(),
            next_ids: Vec::new(),
            next_counts: Vec::new(),
            depth: vec![0; num_users],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_drain() {
        let mut acc = DenseAccumulator::new(10);
        acc.add(5, 1.0);
        acc.add(2, 0.5);
        acc.add(5, 2.0);
        let mut out = Vec::new();
        acc.drain_sorted_into(UserId(9), &mut out);
        assert_eq!(out, vec![(UserId(2), 0.5), (UserId(5), 3.0)]);
        // Reset: nothing remains.
        let mut out2 = Vec::new();
        acc.add(5, 1.0);
        acc.drain_sorted_into(UserId(9), &mut out2);
        assert_eq!(out2, vec![(UserId(5), 1.0)]);
    }

    #[test]
    fn drain_excludes_self_and_nonpositive() {
        let mut acc = DenseAccumulator::new(4);
        acc.add(0, 1.0);
        acc.add(1, 1.0);
        acc.add(1, -1.0); // cancels to zero
        let mut out = Vec::new();
        acc.drain_sorted_into(UserId(0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut acc = DenseAccumulator::new(3);
        acc.add(1, 2.0);
        acc.clear();
        assert_eq!(acc.get(1), 0.0);
        assert!(acc.touched().is_empty());
    }
}
