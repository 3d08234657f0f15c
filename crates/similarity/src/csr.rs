//! Two-pass parallel CSR assembly.
//!
//! Flat CSR arrays are what `SimMassIndex::build` (in `socialrec-serve`)
//! produces. Its first generation collected one `Vec` per row in
//! parallel, then copied everything down into the flat arrays on the
//! calling thread — O(rows) heap allocations plus a serial O(nnz) copy
//! at the very end of an otherwise parallel build. (The similarity
//! matrix, by contrast, keeps one shared allocation per row so updates
//! can swap rows; see [`crate::cache`].)
//!
//! [`assemble_csr`] replaces that with the two-pass layout used by
//! KONECT/WebGraph-style graph pipelines, adapted to a chunked single
//! compute pass (the fill computation for similarity rows is far too
//! expensive to run twice just to learn the lengths):
//!
//! 1. **Fill + count (parallel).** Rows are appended chunk-by-chunk
//!    into one contiguous column buffer and one contiguous value buffer
//!    per chunk, recording every row's length as it is appended. The
//!    buffers are kept **split** (`Vec<A>` + `Vec<B>`) rather than
//!    interleaved as `(A, B)` tuples: no padding bytes are staged, and
//!    pass 3 degenerates to two straight `memcpy`s per chunk. Chunks
//!    are claimed off the dynamic scheduler, so skewed row lengths
//!    load-balance, and each worker reuses one fill state (`init`)
//!    across all the rows it produces — no per-row allocation anywhere.
//! 2. **Exclusive prefix sum (serial, O(rows)).** The row lengths
//!    become the CSR offsets array in one cheap scan.
//! 3. **Direct-slot writes (parallel).** The flat column/value arrays
//!    are split at chunk element boundaries with
//!    `par_uneven_chunks_mut` and every chunk buffer is copied into its
//!    final slots with `copy_from_slice`, concurrently.
//!
//! The output is **identical** (offsets, column order, value bits) to a
//! serial row-major assembly for any chunk size and any thread count:
//! rows are filled in ascending order inside each chunk, chunks cover
//! ascending row ranges, and the slot writes preserve position. That
//! makes the builder safe for the workspace's bit-identity contracts
//! (see `DESIGN.md` §6d).

use rayon::prelude::*;

/// The three flat arrays of a CSR matrix: `offsets` (rows + 1 entries,
/// exclusive prefix sums), parallel `cols` / `vals` element arrays.
pub struct CsrParts<A, B> {
    /// Row offsets: row `r` spans `cols[offsets[r]..offsets[r + 1]]`.
    pub offsets: Vec<u64>,
    /// Column ids, concatenated row-major.
    pub cols: Vec<A>,
    /// Values, parallel to `cols`.
    pub vals: Vec<B>,
}

/// Rows per pass-1 chunk: enough chunks for the dynamic scheduler to
/// balance skewed rows, large enough that per-chunk buffers amortize.
/// Overpartitioning only exists to load-balance *across* workers, so a
/// single-worker build uses one chunk — which pass 3 then adopts
/// wholesale instead of copying (see below).
fn default_chunk_rows(num_rows: usize) -> usize {
    let workers = rayon::current_num_threads();
    if workers <= 1 {
        num_rows.max(1)
    } else {
        num_rows.div_ceil(workers * 16).max(8)
    }
}

/// Assemble a CSR matrix with the default chunking policy.
///
/// `fill(state, row, cols, vals)` must **append** row `row`'s entries —
/// the same number of elements to `cols` and to `vals`, never
/// truncating either; `init` creates one reusable `state` per worker.
/// `zero_col`/`zero_val` are placeholder fills for the output arrays,
/// fully overwritten by pass 3.
pub fn assemble_csr<A, B, S, INIT, FILL>(
    num_rows: usize,
    zero_col: A,
    zero_val: B,
    init: INIT,
    fill: FILL,
) -> CsrParts<A, B>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    S: Send,
    INIT: Fn() -> S + Sync,
    FILL: Fn(&mut S, usize, &mut Vec<A>, &mut Vec<B>) + Sync,
{
    assemble_csr_with_chunk_rows(
        num_rows,
        default_chunk_rows(num_rows),
        zero_col,
        zero_val,
        init,
        fill,
    )
}

/// [`assemble_csr`] with an explicit pass-1 chunk size (exposed so the
/// equivalence tests can drive chunk boundaries through every edge
/// case: one row per chunk, chunk sizes that do not divide `num_rows`,
/// a single chunk covering everything).
pub fn assemble_csr_with_chunk_rows<A, B, S, INIT, FILL>(
    num_rows: usize,
    chunk_rows: usize,
    zero_col: A,
    zero_val: B,
    init: INIT,
    fill: FILL,
) -> CsrParts<A, B>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    S: Send,
    INIT: Fn() -> S + Sync,
    FILL: Fn(&mut S, usize, &mut Vec<A>, &mut Vec<B>) + Sync,
{
    let chunk_rows = chunk_rows.max(1);
    let num_chunks = num_rows.div_ceil(chunk_rows);

    // Pass 1: fill rows into per-chunk split buffers, counting lengths.
    let fill_span = socialrec_obs::span!("csr.fill", chunks = num_chunks);
    let chunks: Vec<(Vec<u64>, Vec<A>, Vec<B>)> = (0..num_chunks)
        .into_par_iter()
        .map_init(init, |state, c| {
            let lo = c * chunk_rows;
            let hi = ((c + 1) * chunk_rows).min(num_rows);
            let _span = socialrec_obs::span!("csr.chunk", rows = hi - lo);
            let mut lens = Vec::with_capacity(hi - lo);
            let mut cols = Vec::new();
            let mut vals = Vec::new();
            for row in lo..hi {
                let before = cols.len();
                fill(state, row, &mut cols, &mut vals);
                debug_assert!(cols.len() >= before, "fill must only append");
                debug_assert_eq!(
                    cols.len(),
                    vals.len(),
                    "fill must append cols and vals in lockstep"
                );
                lens.push((cols.len() - before) as u64);
            }
            (lens, cols, vals)
        })
        .collect();
    drop(fill_span);

    // Pass 2: exclusive prefix sum over the row lengths, tracking the
    // element boundary of every chunk for the parallel writes below.
    let _span = socialrec_obs::span!("csr.scatter");
    let mut offsets = Vec::with_capacity(num_rows + 1);
    offsets.push(0u64);
    let mut chunk_bounds = Vec::with_capacity(num_chunks + 1);
    chunk_bounds.push(0usize);
    let mut total = 0u64;
    for (lens, _, _) in &chunks {
        for &l in lens {
            total += l;
            offsets.push(total);
        }
        chunk_bounds.push(total as usize);
    }
    let total = total as usize;

    // Pass 3: a single chunk already *is* the row-major concatenation,
    // so adopt its buffers without copying a byte; otherwise write
    // every chunk into its disjoint final span in parallel.
    let (cols, vals) = if chunks.len() == 1 {
        let (_, c, v) = chunks.into_iter().next().expect("one chunk");
        (c, v)
    } else {
        let mut cols = vec![zero_col; total];
        let mut vals = vec![zero_val; total];
        cols.par_uneven_chunks_mut(&chunk_bounds)
            .enumerate()
            .for_each(|(k, slot)| slot.copy_from_slice(&chunks[k].1));
        vals.par_uneven_chunks_mut(&chunk_bounds)
            .enumerate()
            .for_each(|(k, slot)| slot.copy_from_slice(&chunks[k].2));
        (cols, vals)
    };
    CsrParts { offsets, cols, vals }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serial reference: row-major fill straight into the flat arrays.
    fn assemble_serial<A: Copy, B: Copy, S>(
        num_rows: usize,
        mut state: S,
        fill: impl Fn(&mut S, usize, &mut Vec<A>, &mut Vec<B>),
    ) -> (Vec<u64>, Vec<A>, Vec<B>) {
        let mut offsets = vec![0u64];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for row in 0..num_rows {
            fill(&mut state, row, &mut cols, &mut vals);
            offsets.push(cols.len() as u64);
        }
        (offsets, cols, vals)
    }

    /// Deterministic pseudo-row: length `row % 7` (some rows empty),
    /// values derived from splitmix-style mixing so boundary mistakes
    /// show up as value mismatches, not just length mismatches.
    fn demo_fill(_state: &mut (), row: usize, cols: &mut Vec<u32>, vals: &mut Vec<f64>) {
        for k in 0..row % 7 {
            let h = (row as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(k as u64);
            cols.push(h as u32);
            vals.push((h >> 16) as f64 * 1e-3);
        }
    }

    #[test]
    fn matches_serial_across_chunk_sizes() {
        let n = 103; // prime: no chunk size divides it evenly
        let (offsets, cols, vals) = assemble_serial(n, (), demo_fill);
        for chunk_rows in [1, 2, 3, 7, 16, 50, 103, 1000] {
            let parts = assemble_csr_with_chunk_rows(n, chunk_rows, 0u32, 0.0f64, || (), demo_fill);
            assert_eq!(parts.offsets, offsets, "offsets differ at chunk_rows={chunk_rows}");
            assert_eq!(parts.cols, cols, "cols differ at chunk_rows={chunk_rows}");
            let same_bits = parts.vals.iter().zip(&vals).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_bits && parts.vals.len() == vals.len(), "vals differ at {chunk_rows}");
        }
        // Default policy too.
        let parts = assemble_csr(n, 0u32, 0.0f64, || (), demo_fill);
        assert_eq!(parts.offsets, offsets);
        assert_eq!(parts.cols, cols);
    }

    #[test]
    fn empty_and_all_empty_rows() {
        let parts = assemble_csr(0, 0u32, 0.0f64, || (), |_: &mut (), _, _, _| {});
        assert_eq!(parts.offsets, vec![0]);
        assert!(parts.cols.is_empty() && parts.vals.is_empty());

        let parts = assemble_csr(17, 0u32, 0.0f64, || (), |_: &mut (), _, _, _| {});
        assert_eq!(parts.offsets, vec![0u64; 18]);
        assert!(parts.cols.is_empty());
    }

    #[test]
    fn worker_state_is_reused_not_reset() {
        // The fill state survives across rows of a chunk: a counter
        // state must never observe a fresh value mid-chunk.
        let parts = assemble_csr_with_chunk_rows(
            40,
            10,
            0u32,
            0i64,
            || 0u32,
            |calls, row, cols, vals| {
                *calls += 1;
                cols.push(row as u32);
                vals.push(*calls as i64);
            },
        );
        assert_eq!(parts.offsets.len(), 41);
        assert_eq!(parts.cols, (0..40u32).collect::<Vec<_>>());
        // Within each 10-row chunk the per-worker call counter is
        // strictly increasing.
        for chunk in parts.vals.chunks(10) {
            assert!(chunk.windows(2).all(|w| w[1] > w[0]), "state reset mid-chunk: {chunk:?}");
        }
    }
}
