//! Property tests pinning the vectorized kernels to their scalar
//! references on every tier the CPU supports — ragged lengths (0, 1,
//! non-multiples of the lane width), duplicate-free sorted inputs,
//! skewed length ratios that cross the galloping threshold, and
//! full/empty overlap.

use proptest::prelude::*;
use socialrec_simd::{
    axpy_on, axpy_reference, gather_u32_on, gather_u32_reference, intersect_sum_on,
    intersect_sum_reference, scan_ge_on, scan_ge_reference, Isa,
};

/// Strictly ascending duplicate-free u32 set (the CSR adjacency
/// invariant), with lengths spanning 0, 1, and non-lane-multiples.
fn sorted_set(max_len: usize, universe: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..universe, 0..max_len).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #[test]
    fn intersect_matches_reference_on_all_tiers(
        a in sorted_set(96, 300),
        b in sorted_set(96, 300),
    ) {
        let wa: Vec<f64> = a.iter().map(|&x| 1.0 / (x as f64 + 2.0).ln()).collect();
        let want_sum = intersect_sum_reference(&a, &wa, &b);
        for isa in Isa::ALL {
            let got = intersect_sum_on(isa, &a, &wa, &b);
            prop_assert_eq!(got.to_bits(), want_sum.to_bits(), "sum {}", isa.name());
        }
    }

    #[test]
    fn intersect_skewed_lengths_cross_gallop_threshold(
        small in sorted_set(8, 4000),
        big in sorted_set(512, 4000),
    ) {
        // With |big| up to 64× |small| this exercises both the block
        // compare and the galloping regimes on either argument order.
        let ws: Vec<f64> = small.iter().map(|&x| (x as f64).sqrt()).collect();
        let wb: Vec<f64> = big.iter().map(|&x| (x as f64).sqrt()).collect();
        let want_ab = intersect_sum_reference(&small, &ws, &big);
        let want_ba = intersect_sum_reference(&big, &wb, &small);
        for isa in Isa::ALL {
            let ab = intersect_sum_on(isa, &small, &ws, &big);
            prop_assert_eq!(ab.to_bits(), want_ab.to_bits(), "sum a/b {}", isa.name());
            let ba = intersect_sum_on(isa, &big, &wb, &small);
            prop_assert_eq!(ba.to_bits(), want_ba.to_bits(), "sum b/a {}", isa.name());
        }
    }

    #[test]
    fn axpy_bit_identical_on_all_tiers(
        src in proptest::collection::vec(-1.0e6f64..1.0e6, 0..70),
        a in -100.0f64..100.0,
    ) {
        let base: Vec<f64> = src.iter().map(|&x| x * 0.3 + 1.0).collect();
        let mut want = base.clone();
        axpy_reference(&mut want, a, &src);
        for isa in Isa::ALL {
            let mut got = base.clone();
            axpy_on(isa, &mut got, a, &src);
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "isa={}", isa.name());
            }
        }
    }

    #[test]
    fn gather_matches_reference_on_all_tiers(
        table in proptest::collection::vec(0u32..u32::MAX, 1..200),
        raw_idx in proptest::collection::vec(0u32..10_000, 0..40),
    ) {
        let idx: Vec<u32> = raw_idx.iter().map(|&i| i % table.len() as u32).collect();
        let mut want = vec![0u32; idx.len()];
        gather_u32_reference(&table, &idx, &mut want);
        for isa in Isa::ALL {
            let mut got = vec![0u32; idx.len()];
            gather_u32_on(isa, &table, &idx, &mut got);
            prop_assert_eq!(&got, &want, "isa={}", isa.name());
        }
    }

    #[test]
    fn scan_ge_matches_reference_on_all_tiers(
        xs in proptest::collection::vec(-10.0f64..10.0, 0..50),
        from in 0usize..55,
        t in -12.0f64..12.0,
    ) {
        let want = scan_ge_reference(&xs, from, t);
        for isa in Isa::ALL {
            prop_assert_eq!(scan_ge_on(isa, &xs, from, t), want, "isa={}", isa.name());
        }
    }
}
