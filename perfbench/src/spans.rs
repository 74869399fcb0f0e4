//! In-memory spans around the benchmark's own calls.
//!
//! Every pass records a tree: pass → trial → `world_new` /
//! `proximity_graph` / `st_run` / `fst_run`, each with its parent's id.
//! Spans are kept in memory while the benchmark runs and written out
//! once, as JSON lines, when it ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the log.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// What was timed.
    pub name: &'static str,
    /// Seconds from the log's creation to the span's start.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Devices in the trial (0 for a pass).
    pub n: usize,
}

/// A thread-safe, append-only span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserve an id, so children can name a parent that is still open.
    pub fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
        n: usize,
    ) {
        let span = Span {
            id,
            parent,
            name,
            start_s: (start - self.epoch).as_secs_f64(),
            dur_s: (end - start).as_secs_f64(),
            n,
        };
        self.spans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(span);
    }

    /// A copy of every span recorded so far, in id order.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for s in self.snapshot() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \
                 \"dur_s\": {}, \"n\": {}}}",
                s.id, s.name, s.start_s, s.dur_s, s.n
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
