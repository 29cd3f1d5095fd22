//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions — nothing inside the program is instrumented. A
//! span has a name, start, end, the span that caused it, and the
//! request (publication or control op) it belongs to. Spans stay in
//! memory until the run ends, when the workload folds them into its
//! per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `broker.commit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// The request this span serves (batch or op number).
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// the span's id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Opens a span that [`Tracer::end`] closes — for a span whose
    /// children are recorded while it is open.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, now, now, parent, request)
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Records an already-timed span.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        id
    }

    /// The recorded span `id`.
    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id as usize]
    }

    /// Every span named `name`, in recording order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.ns() as f64 / 1e6).collect()
    }

    /// Total nanoseconds spent in spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::ns).sum()
    }

    /// Number of distinct requests the spans serve.
    pub fn requests(&self) -> usize {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.request).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Self time per span name: each span's duration minus the part
    /// its direct children cover, summed by name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0) += s.ns().saturating_sub(c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let parent = t.record("cycle", 0, 1_000, None, 0);
        t.record("flush", 0, 100, Some(parent), 0);
        let commit = t.record("commit", 100, 900, Some(parent), 0);
        t.record("contact", 200, 300, Some(commit), 0);
        let own = t.self_ns_by_name();
        assert_eq!(own["cycle"], 100);
        assert_eq!(own["flush"], 100);
        assert_eq!(own["commit"], 700);
        assert_eq!(own["contact"], 100);
        // Self times partition the root span exactly.
        assert_eq!(own.values().sum::<u64>(), t.get(parent).ns());
        assert_eq!(t.requests(), 1);
        assert_eq!(t.total_ns("flush"), 100);
        assert_eq!(t.durations_ms("commit"), vec![0.0008]);
    }

    #[test]
    fn span_times_the_closure() {
        let mut t = Tracer::new();
        let (v, id) = t.span("work", None, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert!(t.get(id).ns() >= 2_000_000);
        assert_eq!(t.get(id).request, 7);
    }
}
