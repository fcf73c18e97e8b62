//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! workspace crates (name, start, end, parent, run id, work count); nothing
//! inside the crates is instrumented. A disabled recorder reads no clock and
//! stores nothing, so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one run (one recorder).
    pub run: u64,
    /// Work units done inside the span (ops, calls, programs, ...).
    pub count: u64,
}

/// Handle of an open span, returned by [`Spans::enter`].
#[must_use]
#[derive(Debug)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Spans {
    on: bool,
    run: u64,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

impl Spans {
    pub fn new(on: bool, run: u64) -> Self {
        Spans {
            on,
            run,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// A recorder sharing this one's state (on/off, run id, clock origin)
    /// for another thread; merge it back with [`Spans::absorb`].
    pub fn fork(&self) -> Self {
        Spans {
            on: self.on,
            run: self.run,
            origin: self.origin,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
            count: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, crediting it with `count` work units.
    pub fn exit(&mut self, open: Open, count: u64) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.count = count;
    }

    /// Runs `f` inside a span named `name` credited with `count` units.
    pub fn time<R>(&mut self, name: &str, count: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open, count);
        r
    }

    /// Adds `value` to the counter `name` (recorded only when on).
    pub fn count(&mut self, name: &str, value: f64) {
        if self.on {
            *self.counters.entry(name.to_string()).or_default() += value;
        }
    }

    /// Appends another recorder's spans and counters (from [`Spans::fork`]).
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        let parent = self.stack.last().copied();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
    }

    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters.get(name).copied()
    }

    /// Per-name totals of self time (span minus its direct children) and
    /// work count.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child);
            e.1 += s.count;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"count\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Spans::new(true, 1);
        let outer = t.enter("outer");
        t.time("inner", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer, 1);
        let st = t.self_times();
        let (outer_ns, _) = st["outer"];
        let (inner_ns, inner_n) = st["inner"];
        assert!(inner_ns >= 5_000_000);
        assert!(outer_ns < inner_ns, "outer self time excludes the child");
        assert_eq!(inner_n, 3);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Spans::new(false, 1);
        t.time("x", 1, || ());
        t.count("c", 1.0);
        assert!(t.self_times().is_empty());
        assert!(t.counter("c").is_none());
    }
}
