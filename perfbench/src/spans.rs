//! Wall-clock spans recorded by the benchmark around its own calls into
//! the simulator crates. Spans stay in memory and are written out when
//! the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

const NO_PARENT: SpanId = SpanId::MAX;

/// One closed (or still open) span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Request index or device id; 0 for one-off calls.
    pub id: u64,
    /// Enclosing span, or `SpanId::MAX` for a root.
    pub parent: SpanId,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals: calls, total and self time.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    /// Spans with this name.
    pub calls: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the part child spans cover, ns.
    pub self_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: parent.unwrap_or(NO_PARENT),
            start_ns,
            end_ns: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close a span opened by [`Spans::open`].
    pub fn close(&mut self, span: SpanId) {
        let end = self.now_ns();
        self.spans[span as usize].end_ns = end;
    }

    /// Run `f` inside a leaf span and return its result.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, id, parent);
        let r = f();
        self.close(s);
        r
    }

    /// Durations in ns of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Summed duration in ms of every span called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<u64>() as f64 / 1e6
    }

    /// Calls, total and self time per span name. The recorder is driven
    /// by one thread at a time and children close before their parent,
    /// so the children of a span never overlap and their summed duration
    /// is the part of the parent they cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Write every span as CSV (`span,parent,name,id,start_ns,end_ns`;
    /// `parent` is empty for a root).
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "span,parent,name,id,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { String::new() } else { s.parent.to_string() };
            writeln!(w, "{i},{parent},{},{},{},{}", s.name, s.id, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::default();
        let root = sp.open("root", 0, None);
        sp.leaf("child", 1, Some(root), || std::thread::sleep(std::time::Duration::from_millis(2)));
        sp.leaf("child", 2, Some(root), || std::thread::sleep(std::time::Duration::from_millis(2)));
        sp.close(root);
        let t = sp.self_times();
        assert_eq!(t["child"].calls, 2);
        assert_eq!(t["root"].total_ns, t["root"].self_ns + t["child"].total_ns);
        assert!(t["child"].total_ns >= 4_000_000);
    }
}
