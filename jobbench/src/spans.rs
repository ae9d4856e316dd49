//! The benchmark's own spans: recorded around the calls it makes into each
//! crate's public functions, kept in memory and written out when the run
//! ends. Nothing is recorded inside the program.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span. Times are nanoseconds since the recorder started.
struct Span {
    name: &'static str,
    job: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An append-only span store shared by the threads of one run.
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            // Pre-sized so recording does not allocate inside counted regions.
            spans: Mutex::new(Vec::with_capacity(1 << 14)),
        }
    }

    /// Opens a span now; it is recorded when [`Spans::close`] is called.
    pub fn open(&self, name: &'static str, job: u64, parent: Option<usize>) -> usize {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its duration.
    pub fn close(&self, id: usize) -> Duration {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut spans = self.spans.lock().expect("span store poisoned by a panic");
        let span = &mut spans[id];
        span.end_ns = end_ns;
        Duration::from_nanos(end_ns - span.start_ns)
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration.
    pub fn time<R>(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.open(name, job, parent);
        let result = f();
        (result, self.close(id))
    }

    /// The spans as JSON lines: `name`, `job`, `id`, `parent`, `start_ns`,
    /// `end_ns`.
    pub fn to_json_lines(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned by a panic");
        let mut out = String::new();
        for (id, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"job\":{},\"id\":{id},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.job, span.start_ns, span.end_ns
            );
        }
        out
    }
}
