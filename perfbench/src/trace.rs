//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span carries its name, start, end, parent and the cell or request id
//! it belongs to. Spans stay in memory and are written once, at the end.
//! A span named `layer.what` belongs to `layer`; spans without a dot
//! (`cell`, `request`) only group their children. A layer's self time is
//! the duration of its spans minus the time their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, or a grouping name without a dot.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Cell or request id.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// The layer this span belongs to, if it belongs to one.
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

/// A serial span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64) -> usize {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            id,
        });
        self.open.push(index);
        index
    }

    /// Close the innermost open span, which must be `index`.
    pub fn close(&mut self, index: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index].end = self.now();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, id);
        let out = f();
        self.close(span);
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans once, as tab-separated lines:
    /// `name start_ns end_ns parent id` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tid")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.id
            )?;
        }
        out.flush()
    }
}

/// Measured cost of recording one span (open and close), nanoseconds.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 200_000;
    let mut t = Tracer::new();
    let start = Instant::now();
    for i in 0..N {
        let s = t.open("calibrate", i);
        t.close(s);
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// Self time of every span: its duration minus its children's durations.
/// Children of a serial span never overlap, so their sum is the time they
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_time = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.duration();
        }
    }
    spans
        .iter()
        .zip(child_time)
        .map(|(s, c)| s.duration().saturating_sub(c))
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
    /// Each span's full duration, ns (for percentiles).
    pub durations: Vec<u64>,
}

/// Roll spans up by name and by layer.
pub struct Rollup {
    /// Keyed by span name.
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// Self time per layer, ns.
    pub by_layer: BTreeMap<&'static str, u64>,
    /// Summed duration of the spans without a parent: the traced wall time
    /// of the replayed work, ns.
    pub root_ns: u64,
}

impl Rollup {
    /// Build the rollup.
    pub fn of(spans: &[Span]) -> Rollup {
        let selfs = self_times(spans);
        let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut root_ns = 0;
        for (s, own) in spans.iter().zip(selfs) {
            if s.parent.is_none() {
                root_ns += s.duration();
            }
            let stats = by_name.entry(s.name).or_default();
            stats.calls += 1;
            stats.self_ns += own;
            stats.durations.push(s.duration());
            if let Some(layer) = s.layer() {
                *by_layer.entry(layer).or_default() += own;
            }
        }
        Rollup {
            by_name,
            by_layer,
            root_ns,
        }
    }

    /// Share of the traced wall time covered by layer self time.
    pub fn coverage(&self) -> f64 {
        self.by_layer.values().sum::<u64>() as f64 / self.root_ns.max(1) as f64
    }

    /// Mean self time per call of `name`, microseconds (0 when never called).
    pub fn mean_self_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |s| s.self_ns as f64 / 1000.0 / s.calls.max(1) as f64)
    }

    /// Calls of `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |s| s.calls)
    }

    /// Nearest-rank p99 of the full durations of `name`, microseconds.
    pub fn p99_us(&self, name: &str) -> f64 {
        let mut d = self
            .by_name
            .get(name)
            .map(|s| s.durations.clone())
            .unwrap_or_default();
        snails_bench::Percentiles::of(&mut d).p99 as f64 / 1000.0
    }

    /// Spans in the rollup.
    pub fn spans(&self) -> u64 {
        self.by_name.values().map(|s| s.calls).sum()
    }

    /// Self time of `layer`, seconds.
    pub fn layer_s(&self, layer: &str) -> f64 {
        self.by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // request [0,100) holds engine.plan [10,30) and engine.exec [30,90);
        // engine.exec holds nothing.
        let spans = vec![
            span("request", 0, 100, None),
            span("engine.plan", 10, 30, Some(0)),
            span("engine.exec", 30, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 60]);
        let r = Rollup::of(&spans);
        assert_eq!(r.by_layer.get("engine"), Some(&80));
        assert!(!r.by_layer.contains_key("request"));
        assert_eq!(r.root_ns, 100);
        assert!((r.coverage() - 0.8).abs() < 1e-12);
        assert_eq!(r.calls("engine.exec"), 1);
        assert!((r.mean_self_us("engine.plan") - 0.02).abs() < 1e-12);
    }

    #[test]
    fn nested_layers_count_only_their_own_time() {
        // serve.execute [0,50) wraps engine.exec [5,45): serve keeps 10.
        let spans = vec![
            span("serve.execute", 0, 50, None),
            span("engine.exec", 5, 45, Some(0)),
        ];
        let r = Rollup::of(&spans);
        assert_eq!(r.by_layer.get("serve"), Some(&10));
        assert_eq!(r.by_layer.get("engine"), Some(&40));
        assert!((r.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_links_parents() {
        let mut t = Tracer::new();
        let outer = t.open("cell", 7);
        let x = t.time("llm.infer", 7, || 41 + 1);
        t.close(outer);
        assert_eq!(x, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].id, 7);
        assert!(t.spans()[0].start <= t.spans()[1].start);
        assert!(t.spans()[1].end <= t.spans()[0].end);
    }
}
