//! Bench-side spans around calls into the layer crates.
//!
//! Every timed call goes through [`Tracer::span`], which always
//! measures the call's wall time (the end-to-end numbers need it) and,
//! when tracing is on, also keeps a [`Span`] in memory: name, start,
//! end, parent, and the query id shared by every span of one query.
//! The spans are written out once, when the run ends. A span's layer is
//! its name up to the first `.`; a layer's self time is the time its
//! spans do not spend in child spans.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span handle; `0` means "no span" (a root's parent, or tracing off).
pub type SpanId = u64;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Query id shared by the spans of one load-generator query (`0`
    /// outside queries).
    pub qid: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// A fresh span id for a span whose interval is only known later
    /// (see [`Tracer::push`]); `0` when tracing is off.
    pub fn alloc(&self) -> SpanId {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span with an id from [`Tracer::alloc`].
    pub fn push(
        &self,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        qid: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let span = Span { id, parent, qid, name, start_ns: self.ns(start), end_ns: self.ns(end) };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Run `f` inside a span named `name`. Returns `f`'s result and the
    /// call's wall time in milliseconds, measured with tracing on or off.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, f64) {
        let id = self.alloc();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.push(id, name, parent, 0, start, end);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Self time per layer in milliseconds: each span's duration minus
    /// the time its children cover (children of one span run one after
    /// another on its thread, so their durations add).
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let own = dur - child_ns.get(&s.id).copied().unwrap_or(0).min(dur);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_default() += own as f64 / 1e6;
        }
        out
    }

    /// Share of the time in spans named one of `roots` that no child
    /// span covers, over all of them: `Σ self / Σ duration`.
    pub fn unattributed_frac(&self, roots: &[&str]) -> f64 {
        let spans = self.spans.lock().expect("span store poisoned");
        let roots: BTreeMap<SpanId, u64> = spans
            .iter()
            .filter(|s| roots.contains(&s.name))
            .map(|s| (s.id, s.end_ns - s.start_ns))
            .collect();
        let total: u64 = roots.values().sum();
        let covered: u64 = spans
            .iter()
            .filter(|s| roots.contains_key(&s.parent))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        if total == 0 {
            return 0.0;
        }
        total.saturating_sub(covered) as f64 / total as f64
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"qid\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.qid, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tr = Tracer::new(true);
        let ((), _) = tr.span("bench.build", 0, |root| {
            tr.span("similarity.build", root, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let layers = tr.layer_self_ms();
        assert!(layers["similarity"] >= 5.0);
        assert!(layers["bench"] < layers["similarity"]);
        assert!(tr.unattributed_frac(&["bench.build"]) < 0.5);
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let tr = Tracer::new(false);
        let (v, ms) = tr.span("x.y", 0, |id| {
            assert_eq!(id, 0);
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(ms >= 2.0);
        assert_eq!(tr.len(), 0);
    }
}
