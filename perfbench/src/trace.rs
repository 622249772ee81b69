//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Off by default: [`span`] then costs one relaxed load and runs its body.
//! When a traced repetition turns recording on, every span keeps its name,
//! start, end, parent, and request id (job seq, record id, or program key)
//! in memory; [`take`] hands them over when the repetition ends, and
//! [`write`] saves them as one line per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One finished span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn span recording on or off for the whole process.
pub fn enable(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name` for request `req`. The span's
/// parent is the innermost span open on this thread.
pub fn span<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(NO_PARENT);
        s.push(id);
        parent
    });
    let start = now_ns();
    let out = f();
    let end = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(Span {
        id,
        parent,
        name,
        req,
        start,
        end,
    });
    out
}

/// Take every recorded span, ordered by id (open order).
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Self time of every span: its duration minus the time its direct
/// children cover. Children of one parent run on the parent's thread, one
/// after another, so their durations add without overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            covered[p] += s.dur();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur().saturating_sub(c))
        .collect()
}

/// Summed self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Share (percent) of the root spans' time that no child span covers:
/// the work the trace cannot attribute to a layer.
pub fn unattributed_pct(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut root_total, mut root_self) = (0u64, 0u64);
    for (s, t) in spans.iter().zip(selfs) {
        if s.parent == NO_PARENT {
            root_total += s.dur();
            root_self += t;
        }
    }
    if root_total == 0 {
        0.0
    } else {
        100.0 * root_self as f64 / root_total as f64
    }
}

/// Write `spans` to `path`, one tab-separated line per span:
/// `id parent name req start_ns end_ns`.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, parent, s.name, s.req, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            sp(0, NO_PARENT, "rep", 0, 100),
            sp(1, 0, "a", 10, 40),
            sp(2, 1, "b", 15, 25),
            sp(3, 0, "a", 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["a"], 40);
        assert_eq!(by["rep"], 50);
        assert!((unattributed_pct(&spans) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn recorded_spans_nest_on_one_thread() {
        // The only test that toggles the process-wide switch.
        enable(true);
        span("outer", 7, || span("inner", 7, || ()));
        enable(false);
        span("ignored", 0, || ());
        let spans = take();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, NO_PARENT);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.req, 7);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
    }
}
