//! In-memory span recorder of the traced run.
//!
//! A span is one call the benchmark makes into a layer of the program:
//! name, start, end, parent span and (on `serve`) the request it belongs
//! to. Spans are kept in memory and written out once, when the run ends.
//! With tracing off every entry point returns immediately, so an untraced
//! run records no spans.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// The innermost open span of this thread (0 at the root).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// One closed span; times are seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub request: Option<u64>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
pub struct Guard {
    open: Option<(u64, u64, String, Option<u64>, f64)>,
}

/// Opens a span as a child of this thread's innermost open span.
pub fn span(name: &str) -> Guard {
    span_with(name, None)
}

/// Opens a span tagged with a request id.
pub fn span_with(name: &str, request: Option<u64>) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    let start = epoch().elapsed().as_secs_f64();
    Guard {
        open: Some((id, parent, name.to_string(), request, start)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, request, start_s)) = self.open.take() {
            let end_s = epoch().elapsed().as_secs_f64();
            CURRENT.with(|c| c.set(parent));
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(Span {
                    id,
                    parent,
                    name,
                    request,
                    start_s,
                    end_s,
                });
            }
        }
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let _guard = span(name);
    f()
}

/// Every span recorded so far, in closing order.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span store poisoned").clone()
}

/// Total duration of the spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .sum()
}

/// Writes every span as one JSON object per line.
pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans() {
        let request = s.request.map_or("null".to_string(), |r| r.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_s\":{:.9},\"end_s\":{:.9}}}",
            s.id, s.parent, s.name, request, s.start_s, s.end_s
        )?;
    }
    out.flush()
}
