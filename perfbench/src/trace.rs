//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, and the id of
//! the query it belongs to. Spans stay in memory while the workload runs and
//! are written out as JSON lines when it ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub query: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span log. Tracers of several threads share an epoch and are
/// merged with [`Tracer::absorb`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, query: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            query,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        query: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, query, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another tracer's spans into this one, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Summed self time per span name, in nanoseconds.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let k = &self.spans[c];
                    (k.start_ns.max(s.start_ns), k.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            // Union of the children's intervals, so overlapping children
            // are not subtracted twice.
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - covered;
        }
        out
    }

    /// Summed duration and count of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, n), s| (t + (s.end_ns - s.start_ns), n + 1))
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{id},"name":"{}","query":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.query, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            query: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            span("query", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a`: only 30..40 is new coverage.
            span("b", Some(0), 20, 40),
            span("c", Some(0), 50, 60),
            span("leaf", Some(3), 52, 55),
        ];
        let st = t.self_time_ns();
        assert_eq!(st["query"], 100 - 40);
        assert_eq!(st["a"], 20);
        assert_eq!(st["b"], 20);
        assert_eq!(st["c"], 10 - 3);
        assert_eq!(st["leaf"], 3);
        assert_eq!(t.total_ns("a"), (20, 1));
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.begin("query", 1, None);
        a.span("x", 1, root, || ());
        a.end(root);
        let mut b = Tracer::new(epoch);
        let root_b = b.begin("query", 2, None);
        b.span("y", 2, root_b, || ());
        b.end(root_b);
        a.absorb(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.spans()[3].query, 2);
        assert!(a.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
