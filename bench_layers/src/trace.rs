//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in a `Vec` until the run ends and are written out with the
//! result file; nothing is printed while measuring.

use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The k-NN call or daemon request the span belongs to.
    pub request_id: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; every time is relative to the recorder's creation.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
    ) -> usize {
        let now = Instant::now();
        self.record(name, layer, parent, None, now, now)
    }

    pub fn end(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Record a span whose endpoints were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        request_id: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            start_ns,
            end_ns,
            request_id,
        });
        id
    }

    /// Run `f` inside a span under `parent`; returns its value and wall
    /// seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, layer, Some(parent), None, start, end);
        (out, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of span `id` that none of its direct children cover.
    pub fn self_s(&self, id: usize) -> f64 {
        self_time_ns(&self.spans, id) as f64 / 1e9
    }
}

/// A span's duration minus the part of its interval covered by the union
/// of its direct children (children may overlap each other, as parallel
/// work does, and are clipped to the parent).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer: "l",
            start_ns,
            end_ns,
            request_id: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // Overlaps child 1: [30, 50) adds only [40, 50).
            span(2, Some(0), 30, 50),
            // Nested inside child 1: covered already, and a grandchild.
            span(3, Some(1), 15, 20),
            // Sticks out past the parent: clipped to [90, 100).
            span(4, Some(0), 90, 130),
        ];
        // Covered: [10, 50) + [90, 100) = 50 ns of 100.
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 25);
        assert_eq!(self_time_ns(&spans, 3), 5);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new();
        let root = t.begin("workload", "bench", None);
        let (two, secs) = t.time("child", "leaf", root, || std::hint::black_box(1 + 1));
        assert_eq!(two, 2);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(secs >= spans[1].duration_ns() as f64 / 1e9 - 1e-9);
        assert!(t.self_s(root) <= spans[0].duration_ns() as f64 / 1e9);
    }
}
