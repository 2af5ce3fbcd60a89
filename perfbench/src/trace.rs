//! In-memory span recorder.
//!
//! Every public framework call the benchmark makes is bracketed by
//! [`Tracer::begin`] / [`Tracer::end`]. A span records its name, an
//! optional label (attack kind, tenant class), start and end relative to
//! the run's origin, its parent (the innermost span open when it began)
//! and the cycle id shared by every span of one epoch, round or incident
//! cycle. Phase timings and counters that a call returns are attached as
//! attributes. Nothing leaves memory until [`Tracer::write_jsonl`] runs
//! at the end of the run.
//!
//! [`Tracer::begin`] always reads the clock, so the untraced workload
//! loops time their calls through the same path; only the span record
//! is skipped while tracing is off.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub label: &'static str,
    pub cycle: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An open span: the start instant, plus the slot of its record when
/// tracing is on.
#[derive(Debug)]
pub struct Open {
    at: Instant,
    slot: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off between sessions. Spans a failed step
    /// left open are closed where they stand.
    pub fn set_on(&mut self, on: bool) {
        self.stack.clear();
        self.on = on;
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str, cycle: u64) -> Open {
        self.begin_labelled(name, "", cycle)
    }

    pub fn begin_labelled(&mut self, name: &'static str, label: &'static str, cycle: u64) -> Open {
        let at = Instant::now();
        let slot = self.on.then(|| {
            let start_ns = self.ns_since_origin(at);
            self.spans.push(Span {
                name,
                label,
                cycle,
                parent: self.stack.last().copied(),
                start_ns,
                end_ns: start_ns,
                attrs: Vec::new(),
            });
            let slot = self.spans.len() - 1;
            self.stack.push(slot);
            slot
        });
        Open { at, slot }
    }

    /// Close `open` and return its duration. Inner spans an early error
    /// return left open close with it. Attributes may still be attached
    /// to a closed span.
    pub fn end(&mut self, open: &Open) -> Duration {
        let now = Instant::now();
        if let Some(slot) = open.slot {
            let end_ns = self.ns_since_origin(now);
            while let Some(top) = self.stack.pop() {
                self.spans[top].end_ns = end_ns;
                if top == slot {
                    break;
                }
            }
        }
        now.duration_since(open.at)
    }

    /// Attach `key = value` to `open` (keys may repeat on one span).
    pub fn attr(&mut self, open: &Open, key: &'static str, value: f64) {
        if let Some(slot) = open.slot {
            self.spans[slot].attrs.push((key, value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write `header` as the first line, then one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        let mut line = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            line.clear();
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                line,
                "{{\"id\":{id},\"name\":\"{}\",\"label\":\"{}\",\"cycle\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
                s.name, s.label, s.cycle, s.start_ns, s.end_ns
            );
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(line, "{sep}\"{k}\":{}", json_number(*v));
            }
            line.push_str("}}");
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// A finite JSON number (`NaN`/infinity have no JSON form).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_attributes() {
        let mut t = Tracer::new();
        t.set_on(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin_labelled("inner", "heap", 7);
        t.attr(&inner, "pause_ms", 2.5);
        t.attr(&inner, "extra", 1.0);
        t.end(&inner);
        t.end(&outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].label, "heap");
        assert_eq!(spans[1].cycle, 7);
        assert_eq!(spans[1].attrs, vec![("pause_ms", 2.5), ("extra", 1.0)]);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut t = Tracer::new();
        let open = t.begin("x", 0);
        t.attr(&open, "k", 1.0);
        let d = t.end(&open);
        assert!(t.spans().is_empty());
        assert!(d >= Duration::ZERO);
    }
}
