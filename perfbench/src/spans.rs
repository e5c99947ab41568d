//! In-memory spans recorded by the benchmark around each public call
//! it makes into a layer.
//!
//! A span carries a name, start and end (ns since the recorder's
//! epoch), its parent span, and the operation id shared by every span
//! of one operation. Spans stay in memory while the workload runs and
//! are written out as JSONL when it ends. A span's *self time* is its
//! duration minus the part of its interval that its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `api.run` or `serve.ttfb`.
    pub name: String,
    /// Operation id shared by the spans of one operation.
    pub op: u64,
    /// Index of the parent span in the same [`Recorder`], if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans; one per thread or per operation, merged at the end.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder measuring from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// ns since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Converts an instant to ns since the epoch (0 before it).
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            op,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Opens a span (end = start until [`Recorder::close`]).
    pub fn open(&mut self, name: &str, op: u64, parent: Option<usize>) -> usize {
        let now = self.now();
        self.push(name, op, parent, now, now)
    }

    /// Closes span `idx` now.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, op, parent);
        let out = f();
        self.close(idx);
        out
    }

    /// Appends every span of `other`, re-basing its parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64)
            .collect()
    }

    /// Self times (ns) of every span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let children = self.children();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| self_time(s, children[i].iter().map(|&c| &self.spans[c])) as f64)
            .collect()
    }

    /// Child indices of every span.
    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        children
    }

    /// Writes every span as one JSON object per line, with its self
    /// time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let children = self.children();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let own = self_time(s, children[i].iter().map(|&c| &self.spans[c]));
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                crate::stats::json_str(&s.name),
                s.op,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// `span`'s duration minus the length of the union of its children's
/// intervals clipped to the span.
pub fn self_time<'a>(span: &Span, children: impl IntoIterator<Item = &'a Span>) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .into_iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    span.duration() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            name: "s".into(),
            op: 0,
            parent: None,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let parent = span(0, 100);
        let kids = [span(10, 20), span(30, 60)];
        assert_eq!(self_time(&parent, &kids), 100 - 10 - 30);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips() {
        let parent = span(100, 200);
        // Overlapping children cover [90, 150] ∪ [140, 160] → clipped to
        // [100, 160]; a child wholly outside adds nothing.
        let kids = [span(90, 150), span(140, 160), span(250, 300)];
        assert_eq!(self_time(&parent, &kids), 40);
        // A child spanning the whole parent leaves no self time.
        assert_eq!(self_time(&parent, &[span(0, 1000)]), 0);
        assert_eq!(self_time(&parent, &[]), 100);
    }

    #[test]
    fn recorder_links_parents_across_absorb() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.push("x", 0, None, 0, 10);
        let mut b = Recorder::new(epoch);
        let root = b.push("op", 1, None, 0, 100);
        b.push("api.run", 1, Some(root), 10, 70);
        b.push("api.wire", 1, Some(root), 70, 90);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times("op"), vec![20.0]);
        assert_eq!(a.durations("api.run"), vec![60.0]);
    }
}
