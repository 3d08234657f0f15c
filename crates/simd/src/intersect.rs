//! Weighted sorted duplicate-free `u32` set intersection — the kernel
//! behind the intersection-formulated Katz walk fronts.
//!
//! Inputs are strictly ascending (the CSR adjacency invariant).
//! [`intersect_sum`] computes `Σ wa[i]` over positions `i` with
//! `a[i] ∈ b`, with `wa` parallel to `a`.
//!
//! Three algorithm regimes, picked per call by length ratio:
//! straight two-pointer merge (the scalar reference), a vectorized
//! block-compare merge (broadcast one element of the shorter side
//! against an 8/4-lane block of the longer side), and galloping
//! (exponential probe + binary search) when one side is
//! [`GALLOP_RATIO`]× longer than the other.
//!
//! # Bit-exactness
//!
//! The sum adds `wa[i]` into one scalar accumulator in ascending match
//! order — and *every* regime visits matches in ascending element
//! order (merge and block-compare scan forward; galloping probes
//! forward) — so all tiers and regimes produce identical bits from the
//! same `0.0`.

use crate::Isa;

/// When one input is at least this many times longer than the other,
/// galloping (per-element exponential search) beats scanning the long
/// side linearly.
pub const GALLOP_RATIO: usize = 32;

/// Scalar two-pointer reference for `Σ wa[i]` over `a[i] ∈ b`,
/// accumulating from `sum` in ascending `i` order.
fn merge_sum_from(mut sum: f64, a: &[u32], wa: &[f64], b: &[u32]) -> f64 {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                sum += wa[i];
                i += 1;
                j += 1;
            }
        }
    }
    sum
}

/// Scalar reference for the weighted intersection sum.
pub fn intersect_sum_reference(a: &[u32], wa: &[f64], b: &[u32]) -> f64 {
    assert_eq!(a.len(), wa.len(), "intersect_sum: a/wa length mismatch");
    merge_sum_from(0.0, a, wa, b)
}

/// First index in `xs` whose value is `>= x`, galloping from the
/// front: exponential probe, then binary search inside the bracket.
fn lower_bound_gallop(xs: &[u32], x: u32) -> usize {
    let n = xs.len();
    let mut hi = 1usize;
    while hi < n && xs[hi - 1] < x {
        hi <<= 1;
    }
    let lo = hi >> 1; // xs[lo - 1] < x (or lo == 0)
    let hi = hi.min(n);
    lo + xs[lo..hi].partition_point(|&v| v < x)
}

/// Weighted sum via galloping, scanning `a` (matches are found in
/// ascending `i` order, so the accumulation order matches the merge).
fn gallop_sum_scan_a(mut sum: f64, a: &[u32], wa: &[f64], b: &[u32]) -> f64 {
    let mut base = 0usize;
    for (i, &x) in a.iter().enumerate() {
        base += lower_bound_gallop(&b[base..], x);
        if base >= b.len() {
            break;
        }
        if b[base] == x {
            sum += wa[i];
            base += 1;
        }
    }
    sum
}

/// Weighted sum galloping into `a` for each element of a much shorter
/// `b`. Matches still surface in ascending element order — equal to
/// ascending `a`-position order — so the accumulation sequence is
/// unchanged.
fn gallop_sum_scan_b(mut sum: f64, a: &[u32], wa: &[f64], b: &[u32]) -> f64 {
    let mut base = 0usize;
    for &x in b {
        base += lower_bound_gallop(&a[base..], x);
        if base >= a.len() {
            break;
        }
        if a[base] == x {
            sum += wa[base];
            base += 1;
        }
    }
    sum
}

fn strictly_sorted(xs: &[u32]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

/// Dispatched weighted intersection sum: `Σ wa[i]` over `a[i] ∈ b`.
///
/// # Panics
///
/// If `a.len() != wa.len()`.
pub fn intersect_sum(a: &[u32], wa: &[f64], b: &[u32]) -> f64 {
    intersect_sum_on(crate::active(), a, wa, b)
}

/// [`intersect_sum`] on an explicit tier (clamped to the CPU).
pub fn intersect_sum_on(isa: Isa, a: &[u32], wa: &[f64], b: &[u32]) -> f64 {
    assert_eq!(a.len(), wa.len(), "intersect_sum: a/wa length mismatch");
    debug_assert!(strictly_sorted(a) && strictly_sorted(b));
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    if b.len() / a.len() >= GALLOP_RATIO {
        return gallop_sum_scan_a(0.0, a, wa, b);
    }
    if a.len() / b.len() >= GALLOP_RATIO {
        return gallop_sum_scan_b(0.0, a, wa, b);
    }
    match isa.clamped() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamped()` only returns Avx2 when avx2+fma are detected.
        Isa::Avx2 => unsafe { x86::sum_avx2(a, wa, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        Isa::Sse2 => unsafe { x86::sum_sse2(a, wa, b) },
        _ => intersect_sum_reference(a, wa, b),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::merge_sum_from;
    use core::arch::x86_64::*;

    // Block-compare merge: broadcast one element of the short side and
    // compare it against a full register of the long side. Invariant at
    // the top of each iteration: every element of `big[..j]` is
    // strictly below `small[i]`, so a block with no equality whose last
    // lane is >= small[i] proves small[i] is absent from big entirely.

    /// # Safety
    /// Caller must ensure AVX2 is available and `a.len() == wa.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_avx2(a: &[u32], wa: &[f64], b: &[u32]) -> f64 {
        let (n, m) = (a.len(), b.len());
        let (mut i, mut j) = (0usize, 0usize);
        let mut sum = 0.0f64;
        while i < n && j + 8 <= m {
            let x = *a.get_unchecked(i);
            let vx = _mm256_set1_epi32(x as i32);
            let vb = _mm256_loadu_si256(b.as_ptr().add(j) as *const __m256i);
            let eq = _mm256_cmpeq_epi32(vx, vb);
            if _mm256_movemask_epi8(eq) != 0 {
                sum += *wa.get_unchecked(i);
                i += 1;
            } else if *b.get_unchecked(j + 7) < x {
                j += 8;
            } else {
                i += 1;
            }
        }
        merge_sum_from(sum, &a[i..], &wa[i..], &b[j..])
    }

    /// # Safety
    /// Caller must ensure `a.len() == wa.len()` (SSE2 is baseline).
    pub unsafe fn sum_sse2(a: &[u32], wa: &[f64], b: &[u32]) -> f64 {
        let (n, m) = (a.len(), b.len());
        let (mut i, mut j) = (0usize, 0usize);
        let mut sum = 0.0f64;
        while i < n && j + 4 <= m {
            let x = *a.get_unchecked(i);
            let vx = _mm_set1_epi32(x as i32);
            let vb = _mm_loadu_si128(b.as_ptr().add(j) as *const __m128i);
            let eq = _mm_cmpeq_epi32(vx, vb);
            if _mm_movemask_epi8(eq) != 0 {
                sum += *wa.get_unchecked(i);
                i += 1;
            } else if *b.get_unchecked(j + 3) < x {
                j += 4;
            } else {
                i += 1;
            }
        }
        merge_sum_from(sum, &a[i..], &wa[i..], &b[j..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(a: &[u32]) -> Vec<f64> {
        a.iter().map(|&x| 1.0 / (x as f64 + 2.0).ln()).collect()
    }

    fn check_all_tiers(a: &[u32], b: &[u32]) {
        let wa = weights(a);
        let want_sum = intersect_sum_reference(a, &wa, b);
        for isa in Isa::ALL {
            let got = intersect_sum_on(isa, a, &wa, b);
            assert_eq!(
                got.to_bits(),
                want_sum.to_bits(),
                "sum isa={} a={a:?} b={b:?}: {got} vs {want_sum}",
                isa.name()
            );
        }
    }

    #[test]
    fn edge_shapes() {
        check_all_tiers(&[], &[]);
        check_all_tiers(&[], &[1, 2, 3]);
        check_all_tiers(&[5], &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        check_all_tiers(&[5], &[6]);
        let long: Vec<u32> = (0..100).collect();
        check_all_tiers(&long, &long); // full overlap
        let evens: Vec<u32> = (0..100).step_by(2).collect();
        let odds: Vec<u32> = (1..100).step_by(2).collect();
        check_all_tiers(&evens, &odds); // empty overlap
        check_all_tiers(&evens, &long);
    }

    #[test]
    fn gallop_regime_matches_merge() {
        // One side far longer than the other → gallop path.
        let big: Vec<u32> = (0..4000).map(|i| i * 3).collect();
        let small: Vec<u32> = [7u32, 9, 300, 301, 302, 6000, 11997].to_vec();
        check_all_tiers(&small, &big);
        // Gallop threshold boundary.
        let just_under: Vec<u32> = (0..small.len() as u32 * 31).collect();
        let just_over: Vec<u32> = (0..small.len() as u32 * 40).collect();
        check_all_tiers(&small, &just_under);
        check_all_tiers(&small, &just_over);
    }

    #[test]
    fn lower_bound_gallop_agrees_with_partition_point() {
        let xs: Vec<u32> = (0..257).map(|i| i * 2 + 1).collect();
        for x in 0..520u32 {
            assert_eq!(lower_bound_gallop(&xs, x), xs.partition_point(|&v| v < x), "x={x}");
        }
        assert_eq!(lower_bound_gallop(&[], 3), 0);
    }
}
