//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API: name, start, duration, the span that caused it, the
//! events the call drove and the allocations it made on this thread.
//! Spans stay in memory until the run ends and are then written out as
//! Chrome `trace_event` JSON (loadable in Perfetto or `chrome://tracing`).

use crate::alloc::thread_allocs;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Position in the recorder (the span's identifier).
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `mem.cache.nvm`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 while open).
    pub dur_ns: u64,
    /// Events the call drove (or builds it made, for build spans).
    pub events: u64,
    /// Allocations the call made on the recording thread.
    pub allocs: u64,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open_allocs: Vec<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open_allocs: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: 0,
            dur_ns: 0,
            events: 0,
            allocs: 0,
        });
        self.open_allocs.push(thread_allocs());
        // Read the clock last so the span's own bookkeeping stays outside it.
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    /// Closes span `id`, crediting it with `events`. Spans close in
    /// reverse order of opening.
    pub fn end(&mut self, id: usize, events: u64) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let allocs_at_begin = self.open_allocs.pop().expect("a span is open");
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns;
        span.events = events;
        span.allocs = thread_allocs() - allocs_at_begin;
    }

    /// Runs `f` inside a span named `name` credited with `events`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        events: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id, events);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed by id: its duration minus the
    /// part its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// The spans as Chrome `trace_event` JSON.
    pub fn to_chrome_json(&self) -> String {
        let self_ns = self.self_ns();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"events\":{},\"allocs\":{},\"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                parent,
                s.events,
                s.allocs,
                self_ns[i] as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
