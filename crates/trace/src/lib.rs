//! Structured tracing and metrics for the translation pipeline.
//!
//! The crate is std-only (the workspace's zero-external-dependency policy)
//! and provides the observability spine of the pipeline:
//!
//! * **[`TraceCtx`]** — the handle threaded through every Figure 3 stage.
//!   A disabled context ([`TraceCtx::disabled`]) is a `None` behind a
//!   clonable wrapper: every recording method starts with an `enabled`
//!   check and performs no allocation, no locking, and no clock read, so
//!   tracing costs nothing on the hot path when off.
//! * **Spans and events** — [`TraceCtx::span`] returns a guard that records
//!   a *complete* duration event on drop; [`TraceCtx::instant`] records a
//!   point event. Events carry structured key/value [`ArgVal`] arguments, a
//!   per-thread *track* (see below), and the span nesting depth.
//! * **[`MetricsRegistry`]** — monotonic counters and fixed-bucket
//!   histograms, striped across several mutexes so concurrent workers from
//!   the pipeline's `par_map` do not contend (see [`metrics`]).
//! * **Exporters** — [`chrome`] renders the event log as Chrome
//!   trace-event JSON (loadable in Perfetto or `chrome://tracing`, one
//!   track per worker thread); [`MetricsSnapshot::to_json`] renders the
//!   flat metrics object merged into the pipeline's `--timings` report.
//! * **[`json`]** — a minimal JSON reader used by tests and the CLI's
//!   `trace-check` validator to parse the exporters' output back.
//!
//! # Tracks
//!
//! Chrome trace viewers group events by `(pid, tid)`. Worker threads
//! spawned by the pipeline's `par_map` are short-lived (one
//! `std::thread::scope` per stage), so using OS thread identity would
//! scatter one worker slot's events over dozens of tracks. Instead the
//! pipeline assigns each worker *slot* a stable small integer via
//! [`set_current_track`] (slot `w` → track `w + 1`; the main thread is
//! track 0), giving exactly one track per worker thread in the output.
//!
//! # Lock discipline
//!
//! Every mutex acquisition goes through a poison-recovering helper: a
//! panicking worker must never poison the collector for the rest of the
//! pipeline (events are append-only, so a torn write cannot exist). The
//! repository CI greps this crate for `lock().unwrap()` and fails if the
//! pattern reappears.

#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod metrics;

pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Number of independent event stripes in a [`Collector`]. Workers hash to
/// a stripe by track id, so with the pipeline's small worker counts each
/// worker effectively owns a stripe.
pub const EVENT_STRIPES: usize = 16;

thread_local! {
    static CURRENT_TRACK: Cell<u32> = const { Cell::new(0) };
    static SPAN_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Assigns the calling thread's track id (0 is the main/serial track;
/// worker slot `w` conventionally uses `w + 1`). Cheap enough to call
/// unconditionally at worker startup.
pub fn set_current_track(track: u32) {
    CURRENT_TRACK.with(|t| t.set(track));
}

/// The calling thread's track id.
pub fn current_track() -> u32 {
    CURRENT_TRACK.with(|t| t.get())
}

/// Locks `m`, recovering the guard if a panicking thread poisoned it.
///
/// Poisoning exists to flag state a panicking thread may have left
/// half-updated; every structure this crate (and the pipeline's
/// instrumentation) guards is either append-only or written in a single
/// statement, so recovery is always safe — and an `unwrap()` here would
/// let one panicking worker take the whole trace (or the work-stealing
/// pool) down with it. Public so the pipeline's `TimingSink` and
/// `lasagne-pool` share the one poison policy; `ci.sh` greps both
/// crates for raw `lock().unwrap()` calls.
///
/// ```
/// use std::sync::Mutex;
/// let m = Mutex::new(1u32);
/// *lasagne_trace::lock_clean(&m) += 1;
/// assert_eq!(*lasagne_trace::lock_clean(&m), 2);
/// ```
pub fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A structured event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// String.
    Str(String),
}

impl ArgVal {
    /// Renders the value as a JSON fragment.
    pub fn to_json(&self) -> String {
        match self {
            ArgVal::U64(v) => v.to_string(),
            ArgVal::I64(v) => v.to_string(),
            ArgVal::Str(s) => json::escape(s),
        }
    }
}

impl From<u64> for ArgVal {
    fn from(v: u64) -> ArgVal {
        ArgVal::U64(v)
    }
}

impl From<usize> for ArgVal {
    fn from(v: usize) -> ArgVal {
        ArgVal::U64(v as u64)
    }
}

impl From<i64> for ArgVal {
    fn from(v: i64) -> ArgVal {
        ArgVal::I64(v)
    }
}

impl From<&str> for ArgVal {
    fn from(v: &str) -> ArgVal {
        ArgVal::Str(v.to_string())
    }
}

impl From<String> for ArgVal {
    fn from(v: String) -> ArgVal {
        ArgVal::Str(v)
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event name (e.g. a function name or `"cache-hit"`).
    pub name: String,
    /// Category — by convention the pipeline stage (`"lift"`, `"fences"`,
    /// …) or a subsystem (`"cache"`).
    pub cat: &'static str,
    /// Start time in nanoseconds since the collector's epoch.
    pub ts_nanos: u64,
    /// `Some(duration)` for a completed span, `None` for an instant event.
    pub dur_nanos: Option<u64>,
    /// Track (worker slot) the event was recorded on.
    pub track: u32,
    /// Span nesting depth at record time (0 = top level).
    pub depth: u32,
    /// Structured key/value arguments.
    pub args: Vec<(&'static str, ArgVal)>,
}

/// The shared event/metrics sink behind an enabled [`TraceCtx`].
///
/// Events land in one of [`EVENT_STRIPES`] mutex-protected vectors chosen
/// by track id, so pipeline workers append without contending with each
/// other or with the main thread.
#[derive(Debug)]
pub struct Collector {
    epoch: Instant,
    stripes: Vec<Mutex<Vec<Event>>>,
    metrics: MetricsRegistry,
    /// Highest declared track id (== worker count; track 0 is main).
    tracks: AtomicU32,
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

impl Collector {
    /// Creates an empty collector; its epoch is the creation instant.
    pub fn new() -> Collector {
        Collector {
            epoch: Instant::now(),
            stripes: (0..EVENT_STRIPES).map(|_| Mutex::new(Vec::new())).collect(),
            metrics: MetricsRegistry::new(),
            tracks: AtomicU32::new(0),
        }
    }

    /// Nanoseconds since the collector's epoch.
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one event into the calling thread's stripe.
    pub fn record(&self, ev: Event) {
        let stripe = ev.track as usize % EVENT_STRIPES;
        lock_clean(&self.stripes[stripe]).push(ev);
    }

    /// Declares that tracks `0..=n` exist (main + `n` worker slots), so the
    /// Chrome export names them even if a slot recorded no events.
    pub fn declare_tracks(&self, n: u32) {
        self.tracks.fetch_max(n, Ordering::Relaxed);
    }

    /// Highest declared or observed track id.
    pub fn max_track(&self) -> u32 {
        let declared = self.tracks.load(Ordering::Relaxed);
        let observed = self.all_events().iter().map(|e| e.track).max().unwrap_or(0);
        declared.max(observed)
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// All events so far, sorted by `(ts, track, name)` for a stable
    /// export order.
    pub fn all_events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for s in &self.stripes {
            out.extend(lock_clean(s).iter().cloned());
        }
        out.sort_by(|a, b| (a.ts_nanos, a.track, &a.name).cmp(&(b.ts_nanos, b.track, &b.name)));
        out
    }
}

/// The tracing handle threaded through the pipeline. Cloning is cheap
/// (an `Option<Arc>`); clones share one [`Collector`].
#[derive(Debug, Clone, Default)]
pub struct TraceCtx {
    inner: Option<Arc<Collector>>,
}

impl TraceCtx {
    /// A disabled context: every recording method is a no-op that performs
    /// no allocation and reads no clock.
    pub fn disabled() -> TraceCtx {
        TraceCtx { inner: None }
    }

    /// An enabled context with a fresh collector.
    pub fn collecting() -> TraceCtx {
        TraceCtx {
            inner: Some(Arc::new(Collector::new())),
        }
    }

    /// Whether recording is enabled. Call sites that would allocate while
    /// building event arguments should gate on this.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The collector, when enabled.
    pub fn collector(&self) -> Option<&Arc<Collector>> {
        self.inner.as_ref()
    }

    /// Opens a span; the returned guard records a complete duration event
    /// when dropped. `name` is only copied when tracing is enabled.
    pub fn span(&self, cat: &'static str, name: &str) -> Span<'_> {
        match &self.inner {
            None => Span { live: None },
            Some(col) => {
                let depth = SPAN_DEPTH.with(|d| {
                    let v = d.get();
                    d.set(v + 1);
                    v
                });
                Span {
                    live: Some(SpanLive {
                        col,
                        name: name.to_string(),
                        cat,
                        start: col.now_nanos(),
                        track: current_track(),
                        depth,
                        args: Vec::new(),
                    }),
                }
            }
        }
    }

    /// Records an instant event with structured arguments.
    pub fn instant(&self, cat: &'static str, name: &str, args: Vec<(&'static str, ArgVal)>) {
        if let Some(col) = &self.inner {
            col.record(Event {
                name: name.to_string(),
                cat,
                ts_nanos: col.now_nanos(),
                dur_nanos: None,
                track: current_track(),
                depth: SPAN_DEPTH.with(|d| d.get()),
                args,
            });
        }
    }

    /// Adds `delta` to the monotonic counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(col) = &self.inner {
            col.metrics.add(current_track(), name, delta);
        }
    }

    /// Records `value` into the fixed-bucket histogram `name`, creating it
    /// with `bounds` on first use (bounds must be identical at every call
    /// site for a given name).
    pub fn observe(&self, name: &str, bounds: &[u64], value: u64) {
        if let Some(col) = &self.inner {
            col.metrics.observe(name, bounds, value);
        }
    }

    /// Folds an externally maintained [`metrics::Histogram`]
    /// into histogram `name` — the bulk counterpart of [`TraceCtx::observe`]
    /// for producers (like the pipeline's work-stealing pool) that keep
    /// their own buckets and publish a per-run delta.
    pub fn merge_histogram(&self, name: &str, src: &metrics::Histogram) {
        if let Some(col) = &self.inner {
            col.metrics.merge_histogram(name, src);
        }
    }

    /// Declares worker tracks `1..=n` (plus main track 0) for the export.
    pub fn declare_tracks(&self, n: u32) {
        if let Some(col) = &self.inner {
            col.declare_tracks(n);
        }
    }

    /// A merged snapshot of all counters and histograms, when enabled.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|c| c.metrics.snapshot())
    }

    /// The Chrome trace-event JSON export, when enabled.
    pub fn chrome_json(&self) -> Option<String> {
        self.inner.as_ref().map(|c| chrome::chrome_json(c))
    }
}

/// Live half of an in-flight span (absent when tracing is disabled).
#[derive(Debug)]
struct SpanLive<'c> {
    col: &'c Collector,
    name: String,
    cat: &'static str,
    start: u64,
    track: u32,
    depth: u32,
    args: Vec<(&'static str, ArgVal)>,
}

/// Guard for an open span; records a complete event on drop. When tracing
/// is disabled the guard is inert.
#[derive(Debug)]
pub struct Span<'c> {
    live: Option<SpanLive<'c>>,
}

impl Span<'_> {
    /// Attaches a structured argument to the span (no-op when disabled;
    /// gate on [`TraceCtx::is_enabled`] if constructing the value
    /// allocates).
    pub fn arg(&mut self, key: &'static str, val: impl Into<ArgVal>) -> &mut Self {
        if let Some(live) = &mut self.live {
            live.args.push((key, val.into()));
        }
        self
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            let end = live.col.now_nanos();
            live.col.record(Event {
                name: live.name,
                cat: live.cat,
                ts_nanos: live.start,
                dur_nanos: Some(end.saturating_sub(live.start)),
                track: live.track,
                depth: live.depth,
                args: live.args,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ctx_records_nothing_and_is_cheap() {
        let ctx = TraceCtx::disabled();
        assert!(!ctx.is_enabled());
        {
            let mut s = ctx.span("lift", "f");
            s.arg("k", 1u64);
        }
        ctx.instant("lift", "e", Vec::new());
        ctx.add("c", 5);
        ctx.observe("h", &[1, 2], 1);
        assert!(ctx.metrics_snapshot().is_none());
        assert!(ctx.chrome_json().is_none());
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let ctx = TraceCtx::collecting();
        {
            let _outer = ctx.span("opt", "outer");
            let _inner = ctx.span("opt", "inner");
        }
        let events = ctx.collector().unwrap().all_events();
        assert_eq!(events.len(), 2);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(outer.dur_nanos.unwrap() >= inner.dur_nanos.unwrap());
    }

    #[test]
    fn poisoned_stripe_recovers() {
        let ctx = TraceCtx::collecting();
        let col = Arc::clone(ctx.collector().unwrap());
        // Poison stripe 0 (main track) by panicking while holding its lock.
        let col2 = Arc::clone(&col);
        let _ = std::thread::spawn(move || {
            let _g = col2.stripes[0].lock().expect("first lock");
            panic!("poison");
        })
        .join();
        // Recording on the main track must still work.
        ctx.instant("cache", "after-poison", Vec::new());
        assert_eq!(col.all_events().len(), 1);
    }
}
