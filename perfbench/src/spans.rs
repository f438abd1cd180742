//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer of the program: name, start, end, parent span, and the scope
//! (workload phase, iteration or request) they belong to. They stay in
//! memory and are written out once, when the run ends. With recording off
//! (the untraced run) [`enter`] costs one thread-local flag read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub scope: (&'static str, u64),
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    scope: (&'static str, u64),
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        scope: ("run", 0),
    });
}

/// Turns recording on or off for this thread.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

pub fn enabled() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Sets the scope stamped on spans opened from now on.
pub fn set_scope(kind: &'static str, index: u64) {
    REC.with(|r| r.borrow_mut().scope = (kind, index));
}

/// An open span; it closes when dropped.
pub struct Guard(Option<usize>);

/// Opens a span named `name` under the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        let scope = r.scope;
        let idx = r.spans.len();
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            scope,
        });
        r.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let end = r.origin.elapsed().as_nanos() as u64;
                r.spans[idx].end_ns = end;
                r.open.pop();
            });
        }
    }
}

/// Takes every recorded span, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Summed self time: each span's duration minus the part its child
    /// spans cover.
    pub self_s: f64,
    /// Summed inclusive duration.
    pub total_s: f64,
    pub count: u64,
}

pub type Totals = BTreeMap<&'static str, Total>;

/// Per-name totals over the spans `keep` selects.
pub fn totals(spans: &[Span], keep: impl Fn(&Span) -> bool) -> Totals {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = Totals::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| keep(s)) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.self_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
        e.total_s += dur as f64 * 1e-9;
        e.count += 1;
    }
    out
}

/// Writes spans as JSON lines (one object per span).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"scope\":\"{}\",\"index\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.scope.0,
            s.scope.1
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "outer",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                scope: ("run", 0),
            },
            Span {
                name: "inner",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                scope: ("run", 0),
            },
        ];
        let t = totals(&spans, |_| true);
        assert!((t["outer"].self_s - 70e-9).abs() < 1e-15);
        assert!((t["outer"].total_s - 100e-9).abs() < 1e-15);
        assert!((t["inner"].self_s - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        set_enabled(false);
        drop(enter("x"));
        assert!(take().is_empty());
        set_enabled(true);
        {
            let _a = enter("a");
            let _b = enter("b");
        }
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}
