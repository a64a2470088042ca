//! Offline shim for `tracing`.
//!
//! Provides the leveled event macros (`error!` … `trace!`) as plain
//! formatted writes to stderr, gated by a process-global max level,
//! plus the span-macro surface (`span!`, `debug_span!`, …) backed by a
//! pluggable [`SpanBackend`]. With no backend installed, spans are
//! free no-ops; `obs::trace` installs a backend that turns facade
//! spans into real recorded spans. No subscribers and no structured
//! fields — callers format their payload with the usual `format!`
//! syntax. The default level is `Warn` so that rare, load-bearing
//! diagnostics (e.g. the trace-ring dump when a tree poisons) are
//! visible without configuration, while `info!` and below stay silent
//! unless explicitly enabled.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-loss conditions.
    Error = 1,
    /// Surprising but survivable conditions (default max level).
    Warn = 2,
    /// High-level progress notes.
    Info = 3,
    /// Detailed diagnostics.
    Debug = 4,
    /// Firehose.
    Trace = 5,
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// Set the most verbose level that will be emitted.
pub fn set_max_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The most verbose level currently emitted.
pub fn max_level() -> Level {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        1 => Level::Error,
        2 => Level::Warn,
        3 => Level::Info,
        4 => Level::Debug,
        _ => Level::Trace,
    }
}

/// Whether an event at `level` would currently be emitted.
pub fn enabled(level: Level) -> bool {
    (level as u8) <= MAX_LEVEL.load(Ordering::Relaxed)
}

#[doc(hidden)]
pub fn __emit(level: Level, args: std::fmt::Arguments<'_>) {
    if enabled(level) {
        let tag = match level {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        };
        eprintln!("[{tag}] {args}");
    }
}

/// Emit an [`Level::Error`] event.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::__emit($crate::Level::Error, format_args!($($arg)*)) };
}

/// Emit a [`Level::Warn`] event.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::__emit($crate::Level::Warn, format_args!($($arg)*)) };
}

/// Emit a [`Level::Info`] event.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::__emit($crate::Level::Info, format_args!($($arg)*)) };
}

/// Emit a [`Level::Debug`] event.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::__emit($crate::Level::Debug, format_args!($($arg)*)) };
}

/// Emit a [`Level::Trace`] event.
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => { $crate::__emit($crate::Level::Trace, format_args!($($arg)*)) };
}

// ---- spans -----------------------------------------------------------

/// Receiver for facade spans. `enter` is called when a span is
/// entered and returns an opaque token handed back to `exit` when the
/// guard drops. Guards are `!Send` and drop in LIFO order per thread.
pub trait SpanBackend: Sync {
    /// A span named `name` was entered on the calling thread.
    fn enter(&self, name: &'static str) -> usize;
    /// The span identified by `token` (from [`enter`](Self::enter) on
    /// the same thread) exited.
    fn exit(&self, token: usize);
}

static SPAN_BACKEND: OnceLock<&'static dyn SpanBackend> = OnceLock::new();

/// Install the process-wide span backend. First caller wins; later
/// calls are ignored (idempotent installation from multiple layers).
pub fn set_span_backend(backend: &'static dyn SpanBackend) {
    let _ = SPAN_BACKEND.set(backend);
}

/// An unentered span from the `span!` macros. Does nothing until
/// [`entered`](Span::entered).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    name: &'static str,
}

impl Span {
    #[doc(hidden)]
    pub fn new(name: &'static str) -> Span {
        Span { name }
    }

    /// Enter the span, notifying the installed backend (if any). The
    /// returned guard exits the span on drop and must stay on this
    /// thread.
    pub fn entered(self) -> EnteredSpan {
        let token = SPAN_BACKEND.get().map(|backend| backend.enter(self.name));
        EnteredSpan {
            token,
            _not_send: PhantomData,
        }
    }
}

/// RAII guard for an entered span; exits on drop. `!Send` so per-thread
/// LIFO discipline holds by construction.
#[must_use = "an entered span measures the scope it is bound to"]
pub struct EnteredSpan {
    token: Option<usize>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for EnteredSpan {
    fn drop(&mut self) {
        if let (Some(token), Some(backend)) = (self.token, SPAN_BACKEND.get()) {
            backend.exit(token);
        }
    }
}

/// Construct a [`Span`]. The level argument is accepted for source
/// compatibility; backends see only the name.
#[macro_export]
macro_rules! span {
    ($level:expr, $name:expr) => {
        $crate::Span::new($name)
    };
}

/// Construct a [`Level::Trace`] span.
#[macro_export]
macro_rules! trace_span {
    ($name:expr) => {
        $crate::Span::new($name)
    };
}

/// Construct a [`Level::Debug`] span.
#[macro_export]
macro_rules! debug_span {
    ($name:expr) => {
        $crate::Span::new($name)
    };
}

/// Construct a [`Level::Info`] span.
#[macro_export]
macro_rules! info_span {
    ($name:expr) => {
        $crate::Span::new($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_level_is_warn() {
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
    }

    #[test]
    fn level_ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn macros_compile_with_format_args() {
        // Nothing to assert beyond "does not panic": output goes to
        // stderr. Trace is off by default, so this line is free.
        trace!("value = {}", 42);
    }

    #[test]
    fn spans_without_backend_are_noops() {
        let span = debug_span!("noop");
        let entered = span.entered();
        assert!(entered.token.is_none());
        drop(entered);
        let _ = span!(Level::Info, "also_noop").entered();
    }
}
