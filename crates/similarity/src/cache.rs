//! Precomputed similarity sets for all users, one shared row each.
//!
//! The recommenders evaluate `sim(u)` for every user, and the NOU
//! baseline needs the global sensitivity `max_u Σ_v sim(v, u)`; both
//! want the whole matrix up front. Rows are computed in parallel with
//! per-worker scratch buffers, then copied into their own allocations
//! on the calling thread. Each row lives in its own immutable
//! `Arc`, so a graph delta rebuilds only the rows it dirtied and the
//! new matrix shares every other row with the old one.

use crate::scratch::SimScratch;
use crate::stream::for_each_row;
use crate::Similarity;
use rayon::prelude::*;
use socialrec_graph::{SocialGraph, UserId};
use std::convert::Infallible;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// One user's similarity set: neighbors ascending, scores parallel.
#[derive(Debug)]
struct Row {
    users: Box<[UserId]>,
    scores: Box<[f64]>,
}

impl Row {
    fn new(users: &[UserId], scores: &[f64]) -> Arc<Row> {
        Arc::new(Row { users: users.into(), scores: scores.into() })
    }
}

/// All similarity sets, one shared immutable row per user.
///
/// Cloning copies the row-pointer table, not the rows.
///
/// # Examples
///
/// ```
/// use socialrec_similarity::{Measure, SimilarityMatrix};
/// use socialrec_graph::social::social_graph_from_edges;
/// use socialrec_graph::UserId;
///
/// // Square: opposite corners share two neighbors.
/// let g = social_graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// let sim = SimilarityMatrix::build(&g, &Measure::CommonNeighbors);
/// assert_eq!(sim.pair(UserId(0), UserId(2)), 2.0);
/// assert_eq!(sim.pair(UserId(0), UserId(1)), 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct SimilarityMatrix {
    rows: Vec<Arc<Row>>,
    entries: usize,
    name: &'static str,
}

/// Batches [`compute_rows`] splits a request into, each of at least
/// [`MIN_BATCH_ROWS`] rows.
const BATCHES: usize = 16;

/// Smallest batch: a typical update's dirty rows run as one batch.
const MIN_BATCH_ROWS: usize = 1024;

/// Compute the rows of `user(0..count)` in parallel, in order.
///
/// The similarity work runs on the pool, batch by batch, and the
/// calling thread copies each staged row into its long-lived
/// allocation. Allocated on the workers instead, the rows would land
/// in the allocator's per-thread arenas in whatever shares the dynamic
/// scheduler gave each worker, and memory freed in one arena is not
/// reused by another, so the resident size of a process that builds,
/// updates and drops matrices would change from one run to the next.
/// Batching bounds the staged copies to one batch.
fn compute_rows<S: Similarity + ?Sized>(
    g: &SocialGraph,
    measure: &S,
    count: usize,
    user: impl Fn(usize) -> UserId + Sync,
) -> Vec<Arc<Row>> {
    let batch = count.div_ceil(BATCHES).max(MIN_BATCH_ROWS);
    let mut rows = Vec::with_capacity(count);
    let Ok(_) = for_each_row(
        g,
        measure,
        count,
        batch,
        user,
        |v| v,
        |users, scores| {
            rows.push(Row::new(users, scores));
            Ok::<(), Infallible>(())
        },
    );
    rows
}

impl SimilarityMatrix {
    /// Compute every user's similarity set in parallel.
    ///
    /// Rows are independent and deterministic, so the output is
    /// bit-identical to
    /// [`build_sequential`](SimilarityMatrix::build_sequential) for any
    /// thread count (proven by tests and re-checked at run time by
    /// `socialrec pipeline-bench`).
    pub fn build<S: Similarity + ?Sized>(g: &SocialGraph, measure: &S) -> SimilarityMatrix {
        let n = g.num_users();
        let _span = socialrec_obs::span!("sim.build", users = n);
        Self::from_rows(compute_rows(g, measure, n, |u| UserId(u as u32)), measure.name())
    }

    /// Sequential reference for [`build`](SimilarityMatrix::build):
    /// one thread, one row after another. Retained so the equivalence
    /// tests and `pipeline-bench` can prove the parallel build produces
    /// the same bytes.
    pub fn build_sequential<S: Similarity + ?Sized>(
        g: &SocialGraph,
        measure: &S,
    ) -> SimilarityMatrix {
        let n = g.num_users();
        let mut scratch = SimScratch::new(n);
        let mut pairs = Vec::new();
        let rows = (0..n as u32)
            .map(|u| {
                measure.similarity_set(g, UserId(u), &mut scratch, &mut pairs);
                let (users, scores): (Vec<UserId>, Vec<f64>) = pairs.iter().copied().unzip();
                Row::new(&users, &scores)
            })
            .collect();
        Self::from_rows(rows, measure.name())
    }

    fn from_rows(rows: Vec<Arc<Row>>, name: &'static str) -> SimilarityMatrix {
        let entries = rows.iter().map(|r| r.users.len()).sum();
        SimilarityMatrix { rows, entries, name }
    }

    /// Rebuild only the given rows against `g` and share every other
    /// row with `self` — the delta-aware update path.
    ///
    /// `dirty` must be sorted ascending without duplicates (as produced
    /// by [`crate::dirty_rows`]) and in range. If `dirty` conservatively
    /// covers every row a graph delta could have changed, the result is
    /// **bit-identical** to `SimilarityMatrix::build(g, measure)` from
    /// scratch: per-row computation is deterministic, so clean rows keep
    /// their exact bytes and dirty rows are recomputed exactly as a full
    /// build would. `self` is left untouched, so readers of the old
    /// generation keep it. Cost is the similarity work of the dirty rows
    /// plus one copy of the n-entry row-pointer table; clean rows are
    /// shared, never copied.
    pub fn update_rows<S: Similarity + ?Sized>(
        &self,
        g: &SocialGraph,
        measure: &S,
        dirty: &[UserId],
    ) -> SimilarityMatrix {
        let n = self.num_users();
        assert_eq!(g.num_users(), n, "deltas must preserve the user set");
        debug_assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty rows must be sorted unique");
        assert!(dirty.last().is_none_or(|u| u.index() < n), "dirty row out of range");
        let _span = socialrec_obs::span!("update.sim_rows", rows = dirty.len());

        let fresh = compute_rows(g, measure, dirty.len(), |i| dirty[i]);
        let mut rows = self.rows.clone();
        let mut entries = self.entries;
        for (&u, row) in dirty.iter().zip(fresh) {
            let slot = &mut rows[u.index()];
            entries = entries - slot.users.len() + row.users.len();
            *slot = row;
        }
        SimilarityMatrix { rows, entries, name: self.name }
    }

    /// Number of users (rows).
    pub fn num_users(&self) -> usize {
        self.rows.len()
    }

    /// Total number of stored (non-zero) entries.
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// Name of the measure that produced this matrix.
    pub fn measure_name(&self) -> &'static str {
        self.name
    }

    /// The similarity set of `u` as parallel slices `(users, scores)`,
    /// users ascending.
    #[inline]
    pub fn row(&self, u: UserId) -> (&[UserId], &[f64]) {
        let row = &self.rows[u.index()];
        (&row.users, &row.scores)
    }

    /// `sim(u, v)` by binary search in `u`'s row.
    pub fn pair(&self, u: UserId, v: UserId) -> f64 {
        let (users, scores) = self.row(u);
        match users.binary_search(&v) {
            Ok(i) => scores[i],
            Err(_) => 0.0,
        }
    }

    /// `Σ_v sim(u, v)` — the row sum.
    pub fn total_similarity(&self, u: UserId) -> f64 {
        self.row(u).1.iter().sum()
    }

    /// The NOU global sensitivity `Δ_A = max_u Σ_v sim(v, u)`
    /// (§5.1.1). All four paper measures are symmetric, so the max
    /// column sum equals the max row sum. Row sums are computed in
    /// parallel; `max` is order-independent, so the result matches the
    /// sequential fold exactly.
    pub fn max_total_similarity(&self) -> f64 {
        (0..self.num_users() as u32)
            .into_par_iter()
            .map(|u| self.total_similarity(UserId(u)))
            .reduce(|| 0.0, f64::max)
    }

    /// The largest single similarity value in `u`'s row
    /// (`max_{v∈sim(u)} sim(u,v)`, used by the GS comparator).
    pub fn max_in_row(&self, u: UserId) -> f64 {
        self.row(u).1.iter().copied().fold(0.0, f64::max)
    }

    /// Mean similarity-set size across users.
    pub fn mean_set_size(&self) -> f64 {
        if self.num_users() == 0 {
            0.0
        } else {
            self.num_entries() as f64 / self.num_users() as f64
        }
    }

    /// Serialize to a compact little-endian binary stream (building a
    /// large matrix can dominate a pipeline; caching it on disk lets
    /// repeated experiments skip the computation).
    ///
    /// Elements are converted and written in [`IO_CHUNK_BYTES`]-sized
    /// batches — one `write_all` per batch rather than one syscall per
    /// element, which made large-matrix caching I/O-bound.
    ///
    /// The stream is versioned: the magic is `"SRSIM"` + an ASCII
    /// version tag, currently `v2`, which adds a flags word (zero for
    /// now) after the counts. [`read_from`](SimilarityMatrix::read_from)
    /// still accepts `v1` streams and rejects unknown versions with an
    /// explicit error instead of decoding garbage.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(SIM_MAGIC_V2)?;
        w.write_all(&(self.num_users() as u64).to_le_bytes())?;
        w.write_all(&(self.num_entries() as u64).to_le_bytes())?;
        // v2 flags word, reserved for future use (compression, value
        // width, ...); readers reject non-zero flags they don't know.
        w.write_all(&0u32.to_le_bytes())?;
        let name_bytes = self.name.as_bytes();
        w.write_all(&(name_bytes.len() as u32).to_le_bytes())?;
        w.write_all(name_bytes)?;
        let ends = self.rows.iter().scan(0u64, |end, r| {
            *end += r.users.len() as u64;
            Some(*end)
        });
        write_chunked(&mut w, std::iter::once(0u64).chain(ends), u64::to_le_bytes)?;
        let users = self.rows.iter().flat_map(|r| r.users.iter());
        write_chunked(&mut w, users, |v| v.0.to_le_bytes())?;
        let scores = self.rows.iter().flat_map(|r| r.scores.iter());
        write_chunked(&mut w, scores, |x| x.to_le_bytes())?;
        Ok(())
    }

    /// Deserialize a matrix previously written by
    /// [`write_to`](SimilarityMatrix::write_to).
    pub fn read_from<R: Read>(mut r: R) -> io::Result<SimilarityMatrix> {
        let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        let bad_s = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic[..5] != b"SRSIM" {
            return Err(bad_s("not a socialrec similarity-matrix file"));
        }
        let version = match &magic {
            SIM_MAGIC_V1 => 1u32,
            SIM_MAGIC_V2 => 2u32,
            _ => {
                let tag = String::from_utf8_lossy(&magic[5..]).trim_end_matches('\0').to_string();
                return Err(bad(format!(
                    "similarity-matrix stream version \"{tag}\" is newer than this reader \
                     (understands v1 and v2); rebuild the cache or upgrade"
                )));
            }
        };
        let mut b8 = [0u8; 8];
        r.read_exact(&mut b8)?;
        let n = u64::from_le_bytes(b8) as usize;
        r.read_exact(&mut b8)?;
        let entries = u64::from_le_bytes(b8) as usize;
        let mut b4 = [0u8; 4];
        if version >= 2 {
            r.read_exact(&mut b4)?;
            let flags = u32::from_le_bytes(b4);
            if flags != 0 {
                return Err(bad(format!("unknown stream flags {flags:#x}")));
            }
        }
        r.read_exact(&mut b4)?;
        let name_len = u32::from_le_bytes(b4) as usize;
        if name_len > 64 {
            return Err(bad_s("implausible measure-name length"));
        }
        let mut name_bytes = vec![0u8; name_len];
        r.read_exact(&mut name_bytes)?;
        let name_string = String::from_utf8(name_bytes).map_err(|_| bad_s("bad measure name"))?;
        // Names are interned to the known measure set; unknown names
        // round-trip as "??" rather than leaking allocations into the
        // 'static field.
        let name: &'static str = match name_string.as_str() {
            "CN" => "CN",
            "GD" => "GD",
            "AA" => "AA",
            "KZ" => "KZ",
            "JC" => "JC",
            "SA" => "SA",
            "RA" => "RA",
            "HP" => "HP",
            "PA" => "PA",
            _ => "??",
        };
        let offsets: Vec<u64> = read_chunked(&mut r, n + 1, u64::from_le_bytes)?;
        if offsets.first() != Some(&0) || offsets.last() != Some(&(entries as u64)) {
            return Err(bad_s("corrupt offsets"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad_s("offsets not monotone"));
        }
        let neighbors: Vec<UserId> =
            read_chunked(&mut r, entries, |b| UserId(u32::from_le_bytes(b)))?;
        let scores: Vec<f64> = read_chunked(&mut r, entries, f64::from_le_bytes)?;
        let rows = offsets
            .windows(2)
            .map(|w| {
                let (a, b) = (w[0] as usize, w[1] as usize);
                Row::new(&neighbors[a..b], &scores[a..b])
            })
            .collect();
        Ok(SimilarityMatrix { rows, entries, name })
    }
}

/// Magic header of version-1 streams (no flags word); still readable.
const SIM_MAGIC_V1: &[u8; 8] = b"SRSIMv1\0";

/// Magic header of version-2 streams, the current write format: v1
/// plus a reserved u32 flags word after the entry count.
const SIM_MAGIC_V2: &[u8; 8] = b"SRSIMv2\0";

/// Batch size for element-array I/O: elements are converted through a
/// buffer of this many bytes per `write_all`/`read_exact`, so syscall
/// count scales with matrix size / 16 KiB instead of per element.
const IO_CHUNK_BYTES: usize = 16 * 1024;

/// Write `xs` as little-endian bytes in [`IO_CHUNK_BYTES`] batches.
fn write_chunked<W: Write, T, const N: usize>(
    w: &mut W,
    xs: impl IntoIterator<Item = T>,
    to_bytes: impl Fn(T) -> [u8; N],
) -> io::Result<()> {
    let batch_bytes = (IO_CHUNK_BYTES / N).max(1) * N;
    let mut buf = Vec::with_capacity(batch_bytes);
    for x in xs {
        buf.extend_from_slice(&to_bytes(x));
        if buf.len() == batch_bytes {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)
}

/// Read `count` little-endian elements in [`IO_CHUNK_BYTES`] batches.
fn read_chunked<R: Read, T, const N: usize>(
    r: &mut R,
    count: usize,
    from_bytes: impl Fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let per_batch = (IO_CHUNK_BYTES / N).max(1);
    let mut buf = vec![0u8; per_batch * N];
    let mut out = Vec::with_capacity(count);
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(per_batch);
        let bytes = &mut buf[..take * N];
        r.read_exact(bytes)?;
        for chunk in bytes.chunks_exact(N) {
            out.push(from_bytes(chunk.try_into().expect("chunks_exact yields N bytes")));
        }
        remaining -= take;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdamicAdar, CommonNeighbors, GraphDistance, Katz, Measure};
    use socialrec_graph::generate::{planted_communities, CommunityGraphConfig};
    use socialrec_graph::social::social_graph_from_edges;

    /// Assert `a` and `b` hold the same rows, bit for bit, and that the
    /// cached entry counts match the rows.
    fn assert_same_bits(a: &SimilarityMatrix, b: &SimilarityMatrix, ctx: &str) {
        assert_eq!(a.num_users(), b.num_users(), "{ctx}: users");
        assert_eq!(a.measure_name(), b.measure_name(), "{ctx}: measure");
        for m in [a, b] {
            let stored: usize = m.rows.iter().map(|r| r.users.len()).sum();
            assert_eq!(m.num_entries(), stored, "{ctx}: entry count out of sync");
        }
        for u in (0..a.num_users() as u32).map(UserId) {
            let ((au, as_), (bu, bs)) = (a.row(u), b.row(u));
            assert_eq!(au, bu, "{ctx}: row {u:?} users");
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(as_), bits(bs), "{ctx}: row {u:?} score bits");
        }
    }

    #[test]
    fn matches_direct_computation() {
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 120,
            seed: 3,
            ..Default::default()
        })
        .graph;
        for m in Measure::paper_suite() {
            let matrix = SimilarityMatrix::build(&g, &m);
            for u in (0..120u32).step_by(17) {
                let direct = m.similarity_set_vec(&g, UserId(u));
                let (users, scores) = matrix.row(UserId(u));
                assert_eq!(users.len(), direct.len(), "{} row {u}", m.name());
                for (k, &(v, s)) in direct.iter().enumerate() {
                    assert_eq!(users[k], v);
                    assert!((scores[k] - s).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn parallel_build_matches_sequential_bitwise() {
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 300,
            num_communities: 5,
            seed: 17,
            ..Default::default()
        })
        .graph;
        for m in Measure::paper_suite() {
            let par = SimilarityMatrix::build(&g, &m);
            let seq = SimilarityMatrix::build_sequential(&g, &m);
            assert_same_bits(&par, &seq, m.name());
        }
    }

    /// Enough users for three batches, the last one short: rows keep
    /// their order and bits across batch boundaries.
    #[test]
    fn build_across_batches_matches_sequential_bitwise() {
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 2 * MIN_BATCH_ROWS + 37,
            num_communities: 12,
            mean_degree: 6.0,
            seed: 29,
            ..Default::default()
        })
        .graph;
        for m in [Measure::CommonNeighbors, Measure::AdamicAdar] {
            let par = SimilarityMatrix::build(&g, &m);
            let seq = SimilarityMatrix::build_sequential(&g, &m);
            assert_same_bits(&par, &seq, m.name());
        }
    }

    #[test]
    fn symmetry_holds_in_matrix() {
        let g = social_graph_from_edges(
            7,
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (6, 0)],
        )
        .unwrap();
        for m in [
            Box::new(CommonNeighbors) as Box<dyn Similarity>,
            Box::new(AdamicAdar),
            Box::new(GraphDistance::default()),
            Box::new(Katz::default()),
        ] {
            let matrix = SimilarityMatrix::build(&g, m.as_ref());
            for u in 0..7u32 {
                for v in 0..7u32 {
                    let a = matrix.pair(UserId(u), UserId(v));
                    let b = matrix.pair(UserId(v), UserId(u));
                    assert!((a - b).abs() < 1e-12, "{} asym ({u},{v})", m.name());
                }
            }
        }
    }

    #[test]
    fn sensitivity_is_max_row_sum() {
        let g = social_graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]).unwrap();
        let matrix = SimilarityMatrix::build(&g, &CommonNeighbors);
        let by_hand = (0..5u32).map(|u| matrix.total_similarity(UserId(u))).fold(0.0, f64::max);
        assert_eq!(matrix.max_total_similarity(), by_hand);
        assert!(matrix.max_total_similarity() > 0.0);
    }

    #[test]
    fn binary_roundtrip() {
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 80,
            seed: 5,
            ..Default::default()
        })
        .graph;
        let m = SimilarityMatrix::build(&g, &Measure::AdamicAdar);
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        let m2 = SimilarityMatrix::read_from(&buf[..]).unwrap();
        assert_eq!(m2.num_users(), m.num_users());
        assert_eq!(m2.num_entries(), m.num_entries());
        assert_eq!(m2.measure_name(), "AA");
        for u in 0..80u32 {
            let (ua, sa) = m.row(UserId(u));
            let (ub, sb) = m2.row(UserId(u));
            assert_eq!(ua, ub);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn binary_roundtrip_crosses_io_chunk_boundaries() {
        // Large enough that the offsets array (n+1 u64s) and the
        // neighbors/scores arrays all span several IO_CHUNK_BYTES
        // batches, exercising the batched converters across boundaries.
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 2600,
            num_communities: 8,
            seed: 11,
            ..Default::default()
        })
        .graph;
        let m = SimilarityMatrix::build(&g, &Measure::CommonNeighbors);
        let offsets_per_batch = IO_CHUNK_BYTES / 8;
        assert!(
            m.num_users() + 1 > offsets_per_batch,
            "offsets ({}) must cross the {offsets_per_batch}-element batch boundary",
            m.num_users() + 1
        );
        assert!(
            m.num_entries() > 2 * offsets_per_batch,
            "entries ({}) must cross several batch boundaries",
            m.num_entries()
        );
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        let m2 = SimilarityMatrix::read_from(&buf[..]).unwrap();
        assert_eq!(m2.num_users(), m.num_users());
        assert_eq!(m2.num_entries(), m.num_entries());
        assert_eq!(m2.measure_name(), m.measure_name());
        for u in (0..m.num_users() as u32).step_by(131) {
            let (ua, sa) = m.row(UserId(u));
            let (ub, sb) = m2.row(UserId(u));
            assert_eq!(ua, ub);
            assert_eq!(sa, sb);
        }
        // Row sums and the sensitivity survive the round trip bit-for-bit.
        assert_eq!(m.max_total_similarity().to_bits(), m2.max_total_similarity().to_bits());
    }

    #[test]
    fn max_total_similarity_matches_sequential_fold() {
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 700,
            seed: 9,
            ..Default::default()
        })
        .graph;
        for m in Measure::paper_suite() {
            let matrix = SimilarityMatrix::build(&g, &m);
            let seq = (0..matrix.num_users() as u32)
                .map(|u| matrix.total_similarity(UserId(u)))
                .fold(0.0, f64::max);
            assert_eq!(matrix.max_total_similarity().to_bits(), seq.to_bits(), "{}", m.name());
        }
    }

    /// Serialize in the legacy v1 layout — v2 without the flags word —
    /// so the reader's backward-compatibility path stays covered even
    /// though the writer now emits v2 (whose bytes the golden test
    /// pins).
    fn write_v1(m: &SimilarityMatrix, buf: &mut Vec<u8>) {
        m.write_to(&mut *buf).unwrap();
        buf[..8].copy_from_slice(SIM_MAGIC_V1);
        buf.drain(24..28);
    }

    #[test]
    fn writes_v2_and_still_reads_v1() {
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 60,
            seed: 13,
            ..Default::default()
        })
        .graph;
        let m = SimilarityMatrix::build(&g, &Measure::CommonNeighbors);

        // The current writer emits v2.
        let mut v2 = Vec::new();
        m.write_to(&mut v2).unwrap();
        assert_eq!(&v2[..8], SIM_MAGIC_V2);

        // A legacy v1 stream decodes to the same matrix.
        let mut v1 = Vec::new();
        write_v1(&m, &mut v1);
        let from_v1 = SimilarityMatrix::read_from(&v1[..]).unwrap();
        let from_v2 = SimilarityMatrix::read_from(&v2[..]).unwrap();
        assert_same_bits(&from_v1, &from_v2, "v1 vs v2");
        assert_same_bits(&from_v2, &m, "v2 vs built");
    }

    #[test]
    fn rejects_future_versions_and_unknown_flags_with_clear_errors() {
        let g = social_graph_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let m = SimilarityMatrix::build(&g, &CommonNeighbors);
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();

        // A version tag from the future is refused by name, not
        // misparsed as data.
        let mut future = buf.clone();
        future[..8].copy_from_slice(b"SRSIMv9\0");
        let err = SimilarityMatrix::read_from(&future[..]).unwrap_err();
        assert!(err.to_string().contains("v9"), "error should name the version: {err}");
        assert!(err.to_string().contains("newer"), "error should say it is newer: {err}");

        // Non-zero reserved flags are refused too.
        let mut flagged = buf.clone();
        flagged[24..28].copy_from_slice(&0x10u32.to_le_bytes());
        let err = SimilarityMatrix::read_from(&flagged[..]).unwrap_err();
        assert!(err.to_string().contains("flags"), "error should mention flags: {err}");

        // And a non-SRSIM prefix still gets the generic message.
        let mut other = buf;
        other[..8].copy_from_slice(b"ZZZZZZZZ");
        let err = SimilarityMatrix::read_from(&other[..]).unwrap_err();
        assert!(err.to_string().contains("not a socialrec"), "{err}");
    }

    /// Pins the exact SRSIMv2 bytes `write_to` emits, independent of
    /// how the matrix stores its rows in memory. Triangle 0-1-2 plus
    /// the pendant 2-3 under AA: the common neighbors 0 and 1 have
    /// degree 2 (weight `1/ln 2`), the hub 2 has degree 3 (`1/ln 3`).
    #[test]
    fn write_to_emits_golden_srsim_v2_bytes() {
        let g = social_graph_from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap();
        let m = SimilarityMatrix::build(&g, &AdamicAdar);
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();

        let inv_ln2 = 1.0 / 2.0f64.ln();
        let inv_ln3 = 1.0 / 3.0f64.ln();
        assert_eq!(inv_ln2.to_bits(), 0x3FF7_1547_652B_82FE);
        assert_eq!(inv_ln3.to_bits(), 0x3FED_20AE_03BC_C152);
        let mut want: Vec<u8> = Vec::new();
        want.extend_from_slice(b"SRSIMv2\0");
        want.extend_from_slice(&[4, 0, 0, 0, 0, 0, 0, 0]); // users
        want.extend_from_slice(&[10, 0, 0, 0, 0, 0, 0, 0]); // entries
        want.extend_from_slice(&[0, 0, 0, 0]); // flags
        want.extend_from_slice(&[2, 0, 0, 0]); // name length
        want.extend_from_slice(b"AA");
        for offset in [0u8, 3, 6, 8, 10] {
            want.extend_from_slice(&[offset, 0, 0, 0, 0, 0, 0, 0]);
        }
        for v in [1u8, 2, 3, 0, 2, 3, 0, 1, 0, 1] {
            want.extend_from_slice(&[v, 0, 0, 0]);
        }
        let a = [0x52, 0xC1, 0xBC, 0x03, 0xAE, 0x20, 0xED, 0x3F]; // 1/ln 3
        let b = [0xFE, 0x82, 0x2B, 0x65, 0x47, 0x15, 0xF7, 0x3F]; // 1/ln 2
        for s in [a, b, a, a, b, a, b, b, a, a] {
            want.extend_from_slice(&s);
        }
        assert_eq!(buf.len(), 194);
        assert_eq!(buf, want);
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(SimilarityMatrix::read_from(&b"not a matrix"[..]).is_err());
        // Truncated stream.
        let g = social_graph_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let m = SimilarityMatrix::build(&g, &CommonNeighbors);
        let mut buf = Vec::new();
        m.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(SimilarityMatrix::read_from(&buf[..]).is_err());
    }

    /// The delta contract, end to end: across random delta sequences,
    /// `dirty_rows` + `update_rows` is bitwise equal to a from-scratch
    /// rebuild for every paper measure.
    #[test]
    fn update_rows_matches_full_rebuild_bitwise_across_random_deltas() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use socialrec_graph::GraphDelta;

        let mut rng = SmallRng::seed_from_u64(77);
        let n = 90usize;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for _ in 0..3 {
                let v = rng.gen_range(0..n as u32);
                if v != u {
                    edges.push((u, v));
                }
            }
        }
        let g0 = social_graph_from_edges(n, &edges).unwrap();

        for m in Measure::paper_suite() {
            let mut g = g0.clone();
            let mut sim = SimilarityMatrix::build(&g, &m);
            for round in 0..12 {
                let mut d = GraphDelta::new();
                for _ in 0..rng.gen_range(1..6) {
                    let u = UserId(rng.gen_range(0..n as u32));
                    let v = UserId(rng.gen_range(0..n as u32));
                    if u == v {
                        continue;
                    }
                    if rng.gen_bool(0.5) {
                        d.add_social(u, v).unwrap();
                    } else {
                        d.remove_social(u, v).unwrap();
                    }
                }
                let (g_new, report) = d.apply_social(&g).unwrap();
                let dirty = crate::dirty_rows(&m, &g, &g_new, &report.touched);
                let updated = sim.update_rows(&g_new, &m, &dirty);
                let rebuilt = SimilarityMatrix::build(&g_new, &m);
                assert_same_bits(&updated, &rebuilt, &format!("{} round {round}", m.name()));
                g = g_new;
                sim = updated;
            }
        }
    }

    #[test]
    fn update_rows_with_empty_dirty_set_is_identity() {
        let g = social_graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let sim = SimilarityMatrix::build(&g, &CommonNeighbors);
        let same = sim.update_rows(&g, &CommonNeighbors, &[]);
        assert_same_bits(&same, &sim, "empty update");
        assert!(same.rows.iter().zip(&sim.rows).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    /// Generations: `update_rows` leaves `self` bit-identical to a
    /// clone taken before the update (readers of the old generation
    /// keep it), and the new matrix shares every clean row with the old
    /// one by pointer while the dirty rows are fresh allocations.
    #[test]
    fn update_rows_keeps_old_generation_and_shares_clean_rows() {
        use socialrec_graph::GraphDelta;
        let g = planted_communities(&CommunityGraphConfig {
            num_users: 150,
            seed: 23,
            ..Default::default()
        })
        .graph;
        let mut d = GraphDelta::new();
        d.add_social(UserId(3), UserId(97)).unwrap();
        d.remove_social(UserId(3), g.neighbors(UserId(3))[0]).unwrap();
        let (g_new, report) = d.apply_social(&g).unwrap();
        for m in Measure::paper_suite() {
            let sim = SimilarityMatrix::build(&g, &m);
            let before = sim.clone();
            let dirty = crate::dirty_rows(&m, &g, &g_new, &report.touched);
            assert!(!dirty.is_empty() && dirty.len() < sim.num_users(), "{}", m.name());
            let updated = sim.update_rows(&g_new, &m, &dirty);

            assert_same_bits(&sim, &before, &format!("{} old generation", m.name()));
            assert_same_bits(
                &updated,
                &SimilarityMatrix::build(&g_new, &m),
                &format!("{} new generation", m.name()),
            );
            for u in 0..sim.num_users() {
                let shared = Arc::ptr_eq(&updated.rows[u], &sim.rows[u]);
                let is_dirty = dirty.binary_search(&UserId(u as u32)).is_ok();
                assert_eq!(shared, !is_dirty, "{} row {u}: shared={shared}", m.name());
            }
        }
    }

    #[test]
    fn row_stats() {
        let g = social_graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let matrix = SimilarityMatrix::build(&g, &CommonNeighbors);
        // Square: each user similar only to the opposite corner.
        assert_eq!(matrix.num_entries(), 4);
        assert_eq!(matrix.mean_set_size(), 1.0);
        assert_eq!(matrix.max_in_row(UserId(0)), 2.0);
        assert_eq!(matrix.pair(UserId(0), UserId(2)), 2.0);
        assert_eq!(matrix.pair(UserId(0), UserId(1)), 0.0);
        assert_eq!(matrix.measure_name(), "CN");
    }
}
