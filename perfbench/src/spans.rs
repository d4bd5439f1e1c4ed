//! In-memory span recorder for the traced run.
//!
//! The benchmark's own code opens a span around each call into a layer:
//! name, start, end, parent, and the id of the operation it belongs to.
//! Spans stay in memory while the workload runs and are written out at
//! the end. A span's self time is its duration minus the part of it
//! that its children cover.

use std::collections::BTreeMap;
use std::io::Write as _;

use crate::util::ns;

/// One recorded span (times in nanoseconds on the [`ns`] clock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Layer call name, e.g. `plan.lookup`.
    pub name: &'static str,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
    /// Start time.
    pub start: u64,
    /// End time (equal to `start` while the span is open).
    pub end: u64,
}

/// A span recorder; a disabled one records nothing and reads no clock.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when recording is off).
pub type Open = Option<usize>;

impl Spans {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            spans: Vec::new(),
        }
    }

    /// Open a span now.
    pub fn begin(&mut self, op: u64, name: &'static str, parent: Open) -> Open {
        if !self.on {
            return None;
        }
        let t = ns();
        self.spans.push(Span {
            op,
            name,
            parent,
            start: t,
            end: t,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span now.
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open {
            self.spans[i].end = ns();
        }
    }

    /// Record a span whose times were taken elsewhere.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Open,
        start: u64,
        end: u64,
    ) -> Open {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            op,
            name,
            parent,
            start,
            end: end.max(start),
        });
        Some(self.spans.len() - 1)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals: (self time ns, span count).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start, self.spans[c].end))
                .collect();
            let own = (s.end - s.start).saturating_sub(covered(s.start, s.end, kids));
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Write every span as tab-separated lines (op, name, parent index,
    /// start ns, end ns) after a header.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\top\tname\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.op, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Length of `[start, end)` covered by the union of `kids` intervals.
fn covered(start: u64, end: u64, mut kids: Vec<(u64, u64)>) -> u64 {
    kids.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in kids {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new(true);
        let root = s.record(1, "root", None, 100, 200);
        s.record(1, "a", root, 110, 150);
        // Overlaps `a`: the union 110..170 is covered once.
        s.record(1, "b", root, 140, 170);
        // Reaches past the parent: only the part inside counts.
        s.record(1, "c", root, 190, 260);
        let t = s.self_times();
        assert_eq!(t["root"], (100 - 60 - 10, 1));
        assert_eq!(t["a"], (40, 1));
        assert_eq!(t["b"], (30, 1));
        assert_eq!(t["c"], (70, 1));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let o = s.begin(1, "x", None);
        s.end(o);
        assert_eq!(o, None);
        assert_eq!(s.len(), 0);
    }
}
