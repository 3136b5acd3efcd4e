//! In-memory span recorder for the traced mode.
//!
//! A span is a name, a start and an end (nanoseconds since the process
//! started), the span that was open when it began (its parent), a group id
//! shared by every span of one batch or one simulator run, and the number of
//! items (images, rows, requests) the call handled. A disabled tracer
//! records nothing and reads no clock, so untraced runs pay nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `models.cbnet.autoencoder`.
    pub name: &'static str,
    /// Shared by the spans of one batch or one simulator run.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns since the process started.
    pub start_ns: u64,
    /// End, ns since the process started.
    pub end_ns: u64,
    /// Images, rows or requests the call handled.
    pub items: u64,
}

impl Span {
    /// Wall time of the call, ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals: calls, summed wall time and summed self time (wall
/// time minus the time covered by child spans).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub calls: u64,
    /// Summed wall time, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    groups: u64,
}

/// Handle of an open span (`None` when tracing is off).
pub type Open = Option<u32>;

impl Tracer {
    /// A recorder timing from `origin` (the process start); records only
    /// when `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            groups: 0,
        }
    }

    /// A fresh group id for the spans of one batch or one simulator run.
    pub fn group(&mut self) -> u64 {
        self.groups += 1;
        self.groups
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, group: u64, items: u64) -> Open {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            items,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close the span `begin` returned. Spans close innermost first.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open {
            let end_ns = self.now_ns();
            self.spans[idx as usize].end_ns = end_ns;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        group: u64,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, group, items);
        let out = f();
        self.end(open);
        out
    }

    /// Every recorded span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Recorded spans with this name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed wall time of the spans with this name, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::ns).sum()
    }

    /// Per-name calls, wall time and self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.ns();
            e.self_ns += s.ns().saturating_sub(children);
        }
        out
    }

    /// Write every span as one JSON object per line, then one line per
    /// name with its self time.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"group\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"items\": {}}}",
                s.name, s.group, s.start_ns, s.end_ns, s.items
            )?;
        }
        for (name, t) in self.self_times() {
            writeln!(
                out,
                "{{\"layer\": \"{name}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.calls, t.total_ns, t.self_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let g = t.group();
        let outer = t.begin("outer", g, 1);
        t.span("inner", g, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let st = t.self_times();
        let (outer, inner) = (st["outer"], st["inner"]);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].group, g);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let g = t.group();
        assert_eq!(t.span("x", g, 1, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
