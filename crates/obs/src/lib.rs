//! Observability layer for the STR reproduction: lock-free counters,
//! gauges, log-bucketed latency histograms, a global named-metric
//! registry with point-in-time snapshots, span-style scoped timers,
//! and request-scoped span tracing ([`trace`]), whose per-thread rings
//! also hold the system's instant events.
//!
//! # Near-zero cost when disabled
//!
//! Everything is gated on one process-global `AtomicBool`, off by
//! default. Instrumentation sites use the lazy handles below
//! ([`LazyCounter`] / [`LazyHistogram`]), whose fast path is a single
//! relaxed load-and-branch when the layer is disabled — no clock
//! reads, no atomics RMW, no allocation, no registry lookups. Enabling
//! the layer ([`set_enabled`]) resolves each handle against the global
//! [`Registry`] on first touch and caches the `Arc` in a `OnceLock`.
//!
//! # Metric naming
//!
//! Dotted lowercase paths, coarse-to-fine: `disk.file.read_ns`,
//! `buffer.hits`, `rtree.query.nodes_visited`, `executor.query_ns`.
//! The full list lives in DESIGN.md §Observability.

mod metric;
mod registry;

pub mod rss;
pub mod trace;

pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{histogram_json, MetricValue, Registry, Snapshot};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the observability layer is recording. Relaxed load; the
/// branch predicts cold-off perfectly, so disabled call sites cost one
/// load and a never-taken jump.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the layer on or off process-wide. Metrics recorded while on
/// are retained (the registry is never cleared by toggling).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Snapshot the global registry.
pub fn snapshot() -> Snapshot {
    Registry::global().snapshot()
}

/// A named counter resolved against the global registry on first
/// touch. `const`-constructible so call sites can use a `static`.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// Handle to the counter named `name` (registered on first use).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> &Counter {
        self.cell
            .get_or_init(|| Registry::global().counter(self.name))
    }

    /// Add one iff the layer is enabled.
    #[inline]
    pub fn inc(&self) {
        if enabled() {
            self.get().inc();
        }
    }

    /// Add `n` iff the layer is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.get().add(n);
        }
    }
}

/// A named gauge resolved against the global registry on first touch.
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<Arc<Gauge>>,
}

impl LazyGauge {
    /// Handle to the gauge named `name` (registered on first use).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> &Gauge {
        self.cell
            .get_or_init(|| Registry::global().gauge(self.name))
    }

    /// Overwrite the level iff the layer is enabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.get().set(v);
        }
    }

    /// Add `n` iff the layer is enabled.
    #[inline]
    pub fn add(&self, n: i64) {
        if enabled() {
            self.get().add(n);
        }
    }
}

/// A named histogram resolved against the global registry on first
/// touch.
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    /// Handle to the histogram named `name` (registered on first use).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    fn get(&self) -> &Histogram {
        self.cell
            .get_or_init(|| Registry::global().histogram(self.name))
    }

    /// Record `v` iff the layer is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.get().record(v);
        }
    }

    /// Start a span-style timer whose elapsed nanoseconds are recorded
    /// into this histogram when the guard drops. Returns `None` when
    /// the layer is disabled, so the clock is never read on the cold
    /// path — bind it to `_guard` and the whole site is one branch.
    #[inline]
    pub fn start(&'static self) -> Option<ScopedTimer> {
        if enabled() {
            Some(ScopedTimer {
                hist: self,
                start: Instant::now(),
            })
        } else {
            None
        }
    }
}

/// RAII timer from [`LazyHistogram::start`]; records elapsed
/// nanoseconds into its histogram on drop.
pub struct ScopedTimer {
    hist: &'static LazyHistogram,
    start: Instant,
}

impl ScopedTimer {
    /// Nanoseconds elapsed so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        // The guard only exists if the layer was enabled at start; use
        // the direct path so a concurrent disable can't lose the span.
        self.hist.get().record(self.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enabled flag and registry are process-global, so these tests
    // use uniquely named metrics and tolerate other tests toggling.

    #[test]
    fn lazy_counter_respects_enabled_flag() {
        static C: LazyCounter = LazyCounter::new("libtest.gated");
        set_enabled(false);
        C.inc();
        // Disabled increments never resolve nor count. The metric may
        // not even be registered yet.
        set_enabled(true);
        C.inc();
        C.add(2);
        set_enabled(false);
        match snapshot().get("libtest.gated") {
            Some(MetricValue::Counter(n)) => assert_eq!(*n, 3),
            other => panic!("libtest.gated = {other:?}"),
        }
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        static H: LazyHistogram = LazyHistogram::new("libtest.span_ns");
        set_enabled(true);
        {
            let _guard = H.start();
            std::hint::black_box(42);
        }
        set_enabled(false);
        match snapshot().get("libtest.span_ns") {
            Some(MetricValue::Histogram(h)) => assert!(h.count() >= 1),
            other => panic!("libtest.span_ns = {other:?}"),
        }
    }

    #[test]
    fn timer_is_none_when_disabled() {
        static H: LazyHistogram = LazyHistogram::new("libtest.cold_ns");
        set_enabled(false);
        assert!(H.start().is_none());
    }
}
