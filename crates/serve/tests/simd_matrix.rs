//! `SOCIALREC_SIMD` ISA matrix for the vectorized kernels.
//!
//! The dispatch tier is resolved once per process (an `AtomicU8` latch
//! in `socialrec_simd`), so one process can only ever observe one
//! ambient tier. To exercise the DESIGN.md §6d bit-identity contract on
//! every tier the hardware offers — not just the one auto-dispatch
//! picks — the matrix test re-runs this test binary as a child process
//! per `SOCIALREC_SIMD` value in {scalar, sse2, avx2}, skipping (and
//! logging) tiers the CPU cannot run. Each child runs the full
//! equivalence suite: the blocked utility kernel vs its scalar
//! reference, CN/AA similarity sets vs a brute-force oracle, top-N
//! selection vs the reference heap, and end-to-end serving vs the
//! framework walk.

use socialrec_community::{ClusteringStrategy, LouvainStrategy};
use socialrec_core::private::framework::release_noisy_cluster_averages;
use socialrec_core::private::ClusterFramework;
use socialrec_core::{top_n_items, top_n_items_reference, RecommenderInputs, TopNRecommender};
use socialrec_datasets::lastfm_like_scaled;
use socialrec_dp::Epsilon;
use socialrec_graph::{SocialGraph, UserId};
use socialrec_serve::{kernel, RecommendationServer, SimMassIndex};
use socialrec_simd::Isa;
use socialrec_similarity::{
    AdamicAdar, CommonNeighbors, Measure, SimScratch, Similarity, SimilarityMatrix,
};

/// `(v, Σ weight(deg x))` over the common neighbors `x` of `u` and
/// every `v ≠ u`, merged from the sorted adjacency lists in ascending
/// `x` order; zero scores are dropped.
fn brute_force_row(
    g: &SocialGraph,
    u: UserId,
    weight: impl Fn(usize) -> f64,
) -> Vec<(UserId, f64)> {
    let mut row = Vec::new();
    for v in (0..g.num_users() as u32).map(UserId).filter(|&v| v != u) {
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
            row.push((v, sum));
        }
    }
    row
}

fn assert_rows_bits_eq(measure: &str, u: UserId, got: &[(UserId, f64)], want: &[(UserId, f64)]) {
    assert_eq!(got.len(), want.len(), "{measure} row {u:?} length diverged");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.0, b.0, "{measure} row {u:?} neighbor diverged");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "{measure} row {u:?} score bits diverged");
    }
}

fn run_equivalence_checks() {
    // When the parent set an override, the resolved tier must be
    // exactly the requested one (the parent only spawns available
    // tiers, so no clamping can have happened).
    if let Ok(want) = std::env::var(socialrec_simd::ENV_VAR) {
        assert_eq!(
            socialrec_simd::active().name(),
            want,
            "child resolved a different tier than SOCIALREC_SIMD requested"
        );
    }
    let ds = lastfm_like_scaled(0.04, 21);
    let n = ds.social.num_users();

    // CN and AA similarity sets vs a brute-force pairwise merge of
    // Γ(u) and Γ(v), bit for bit, every user. No kernel of this crate
    // runs in either walk, so the rows must not move with the tier.
    let mut scratch = SimScratch::new(n);
    let mut got = Vec::new();
    for u in (0..n as u32).map(UserId) {
        CommonNeighbors.similarity_set(&ds.social, u, &mut scratch, &mut got);
        assert_rows_bits_eq("CN", u, &got, &brute_force_row(&ds.social, u, |_| 1.0));
        AdamicAdar.similarity_set(&ds.social, u, &mut scratch, &mut got);
        let aa = brute_force_row(&ds.social, u, |deg| 1.0 / (deg as f64).ln());
        assert_rows_bits_eq("AA", u, &got, &aa);
    }

    // Blocked utility kernel (SIMD axpy) vs the fully scalar per-user
    // reference, across ragged tiles and user blocks.
    let sim = SimilarityMatrix::build(&ds.social, &Measure::CommonNeighbors);
    let partition = LouvainStrategy { restarts: 2, seed: 21, refine: true }.cluster(&ds.social);
    let index = SimMassIndex::build(&sim, &partition);
    let averages = release_noisy_cluster_averages(&partition, &ds.prefs, Epsilon::Finite(0.5), 7);
    let ni = averages.num_items();
    let users: Vec<UserId> = (0..n as u32).step_by(3).map(UserId).collect();
    let mut reference = Vec::new();
    let mut blocked = Vec::new();
    for tile in [1, 13, kernel::ITEM_TILE, ni + 1] {
        for block in users.chunks(kernel::USER_BLOCK) {
            kernel::utilities_block_tiled(&averages, &index, block, tile, &mut blocked);
            for (k, &u) in block.iter().enumerate() {
                kernel::utilities_into_reference(&averages, &index, u, &mut reference);
                let got = &blocked[k * ni..(k + 1) * ni];
                for (i, (a, b)) in got.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "tile={tile} user={u:?} item={i}: blocked kernel diverged"
                    );
                }
            }
        }
    }

    // Top-N selection (SIMD reject-path scan) vs the reference heap
    // over real utility rows, including the NaN-free negative regime.
    for &u in users.iter().take(64) {
        kernel::utilities_into_reference(&averages, &index, u, &mut reference);
        for top in [1, 10, ni] {
            let fast = top_n_items(&reference, top);
            let slow = top_n_items_reference(&reference, top);
            assert_eq!(fast.len(), slow.len(), "top-{top} for {u:?} diverged in length");
            for ((fi, fu), (si, su)) in fast.iter().zip(&slow) {
                assert_eq!(fi, si, "top-{top} for {u:?} diverged in items");
                assert_eq!(fu.to_bits(), su.to_bits(), "top-{top} for {u:?} diverged in bits");
            }
        }
    }

    // End-to-end: the serving engine vs the framework's per-user walk.
    let fw = ClusterFramework::new(&partition, Epsilon::Finite(0.5));
    let inputs = RecommenderInputs { prefs: &ds.prefs, sim: &sim };
    let sample: Vec<UserId> = (0..n as u32).step_by(17).map(UserId).collect();
    let want = fw.recommend(&inputs, &sample, 10, 7);
    let server = RecommendationServer::new(&partition, &sim, Epsilon::Finite(0.5));
    let got = server.recommend_batch(&inputs, &sample, 10, 7);
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.user, w.user);
        assert_eq!(g.items.len(), w.items.len(), "list shape diverged for {:?}", g.user);
        for ((gi, gu), (wi, wu)) in g.items.iter().zip(&w.items) {
            assert_eq!(gi, wi, "served item diverged for {:?}", g.user);
            assert_eq!(gu.to_bits(), wu.to_bits(), "served bits diverged for {:?}", g.user);
        }
    }
}

/// The checks under whatever tier is ambient (auto-dispatch in default
/// CI, the overridden tier when run as a matrix child).
#[test]
fn equivalence_under_ambient_isa() {
    eprintln!(
        "simd_matrix: detected {}, active {}",
        socialrec_simd::detected().name(),
        socialrec_simd::active().name()
    );
    run_equivalence_checks();
}

/// Re-run `equivalence_under_ambient_isa` in a child process per
/// `SOCIALREC_SIMD` tier the CPU can actually run, logging the skip
/// reason for the rest. The `--exact` filter keeps the child from
/// recursing into this test.
#[test]
fn equivalence_matrix_across_isa_tiers() {
    let exe = std::env::current_exe().expect("test binary path");
    for isa in Isa::ALL {
        if !isa.is_available() {
            eprintln!(
                "simd_matrix: skipping SOCIALREC_SIMD={} — not available on this CPU \
                 (detected {})",
                isa.name(),
                socialrec_simd::detected().name()
            );
            continue;
        }
        let status = std::process::Command::new(&exe)
            .args(["--exact", "equivalence_under_ambient_isa"])
            .env(socialrec_simd::ENV_VAR, isa.name())
            .status()
            .expect("spawn matrix child");
        assert!(status.success(), "equivalence failed under SOCIALREC_SIMD={}", isa.name());
    }
}
