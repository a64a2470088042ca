//! Request-scoped span tracing: the system's one event buffer, beside
//! the registry's process-wide aggregates.
//!
//! A [`Span`] is an RAII guard carrying a 64-bit trace id (shared by
//! every span of one logical operation) and a span id / parent id pair.
//! Finished spans are recorded into per-thread ring buffers and stitched
//! into trees ([`stitch`]) only at dump time, so the hot path never
//! touches a global structure beyond one uncontended per-thread mutex.
//!
//! # Events
//!
//! An instant event ([`event`]) is a zero-length span with a two-word
//! payload in [`SpanRecord::args`]: an eviction, a write-back, a fired
//! fault, a split, a re-insert, a poisoning. It goes through [`span`],
//! so it obeys the same enable gate, sampling and parentage as any
//! span. Terminal `disk.read`/`disk.write` spans carry `[page, bytes]`
//! in their args too. When a tree poisons, [`dump_to_stderr`] writes
//! the most recent [`DUMP_RECORDS`] records, stitched, to stderr.
//!
//! # Context propagation
//!
//! Within a thread, parentage is implicit: [`span`] reads the calling
//! thread's current context and becomes its child. Across threads the
//! context travels *explicitly*: capture [`current`] before spawning,
//! move the (Copy) [`TraceContext`] into the worker, and
//! [`TraceContext::attach`] it there. The executor's batch workers, the
//! external sort's run-former pool, the slab-pack worker pool, and the
//! WAL group-commit path all do exactly this.
//!
//! # Per-span I/O attribution
//!
//! The storage layer bumps thread-local I/O counters
//! ([`io_read`]/[`io_write`]/[`cache_hit`]/[`cache_miss`]) whenever
//! tracing is enabled. A span snapshots them at birth and records the
//! delta at drop, so every span reports the pages, bytes, and cache
//! traffic that happened on its thread during its lifetime. Attribution
//! is *inclusive of same-thread descendants*; work done by children on
//! other threads shows up in those children's own records (roll it up
//! with [`SpanTree::io_rollup`]).
//!
//! # Cost when disabled
//!
//! Every public entry point is gated on one process-global relaxed
//! atomic load, exactly like the metric layer (PR 4's contract): a
//! disabled call site is one load and a never-taken branch — no clock
//! read, no TLS access, no allocation.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Next span id; ids are process-unique and never zero (0 = "no span").
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Root ordinal for sampling decisions.
static ROOT_SEQ: AtomicU64 = AtomicU64::new(0);
/// Record 1-in-N new traces (1 = every trace).
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);
/// Root spans at least this long are promoted to the slow-op log
/// (0 = promotion off).
static SLOW_NS: AtomicU64 = AtomicU64::new(0);
/// Per-thread ring capacity applied to rings created after the store.
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static THREAD_SEQ: AtomicU32 = AtomicU32::new(0);
static RECORDED: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Sentinel trace id marking an *unsampled* trace: spans exist (to keep
/// sampling decisions per-trace, not per-span) but record nothing, and
/// children short-circuit to `None`.
const SUPPRESSED: u64 = u64::MAX;

/// Default per-thread ring capacity, in span records.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// Bounded retention of the slow-op log.
pub const SLOW_LOG_CAPACITY: usize = 32;

/// Whether the trace layer is recording. One relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn span tracing on or off process-wide. Enabling also installs the
/// bridge that makes the `tracing` facade's spans real (see
/// [`install_tracing_bridge`]). Records already in the rings are kept.
pub fn set_enabled(on: bool) {
    if on {
        install_tracing_bridge();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Record only 1 in `n` new traces (`n <= 1` records every trace).
/// Spans of unsampled traces cost one TLS read and record nothing.
pub fn set_sample_every(n: u64) {
    SAMPLE_EVERY.store(n.max(1), Ordering::Relaxed);
}

/// Promote root spans lasting at least `threshold` to the slow-op log;
/// `Duration::ZERO` turns promotion off.
pub fn set_slow_threshold(threshold: Duration) {
    SLOW_NS.store(threshold.as_nanos() as u64, Ordering::Relaxed);
}

/// Capacity (in records) of rings created for threads that first touch
/// the tracer *after* this call. Existing rings keep their size.
pub fn set_ring_capacity(cap: usize) {
    RING_CAPACITY.store(cap.max(16), Ordering::Relaxed);
}

/// Spans recorded (ring-buffered) since process start.
pub fn spans_recorded() -> u64 {
    RECORDED.load(Ordering::Relaxed)
}

/// Span records evicted from a full thread ring before being dumped.
pub fn spans_dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---- thread-local I/O attribution -----------------------------------

/// Counters a span attributes to itself: physical page I/O plus buffer
/// cache traffic observed on the span's thread during its lifetime.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoCounts {
    /// Physical pages read (terminal disk impls only).
    pub pages_read: u64,
    /// Physical pages written.
    pub pages_written: u64,
    /// Bytes read from the device.
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Buffer-pool hits (including coalesced waits).
    pub cache_hits: u64,
    /// Buffer-pool misses (paper's "disk accesses").
    pub cache_misses: u64,
}

impl IoCounts {
    /// Counter movement since `earlier` (all fields are monotone).
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            pages_read: self.pages_read - earlier.pages_read,
            pages_written: self.pages_written - earlier.pages_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
        }
    }

    /// Field-wise sum.
    pub fn add(&self, other: &IoCounts) -> IoCounts {
        IoCounts {
            pages_read: self.pages_read + other.pages_read,
            pages_written: self.pages_written + other.pages_written,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
        }
    }
}

/// Attribute `pages` physical pages (`bytes` bytes) read on this thread.
/// Called by terminal `Disk` impls next to their registry counters.
#[inline]
pub fn io_read(pages: u64, bytes: u64) {
    if enabled() {
        with_tls(|t| {
            let mut io = t.io.get();
            io.pages_read += pages;
            io.bytes_read += bytes;
            t.io.set(io);
        });
    }
}

/// Attribute `pages` physical pages (`bytes` bytes) written on this
/// thread.
#[inline]
pub fn io_write(pages: u64, bytes: u64) {
    if enabled() {
        with_tls(|t| {
            let mut io = t.io.get();
            io.pages_written += pages;
            io.bytes_written += bytes;
            t.io.set(io);
        });
    }
}

/// Attribute one buffer-pool hit on this thread.
#[inline]
pub fn cache_hit() {
    if enabled() {
        with_tls(|t| {
            let mut io = t.io.get();
            io.cache_hits += 1;
            t.io.set(io);
        });
    }
}

/// Attribute one buffer-pool miss on this thread.
#[inline]
pub fn cache_miss() {
    if enabled() {
        with_tls(|t| {
            let mut io = t.io.get();
            io.cache_misses += 1;
            t.io.set(io);
        });
    }
}

/// This thread's cumulative attributed I/O (mostly for tests).
pub fn thread_io() -> IoCounts {
    with_tls(|t| t.io.get()).unwrap_or_default()
}

// ---- per-thread state ------------------------------------------------

/// One finished span, as recorded into its thread's ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace the span belongs to (== the root's span id).
    pub trace: u64,
    /// Process-unique span id (never 0).
    pub span: u64,
    /// Parent span id; 0 for a trace root.
    pub parent: u64,
    /// Static site name (`"rtree.query"`, `"disk.read"`, …).
    pub name: &'static str,
    /// Ordinal of the recording thread.
    pub thread: u32,
    /// Start, in nanoseconds since the tracer's process epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// I/O attributed to this span (inclusive of same-thread children).
    pub io: IoCounts,
    /// Two-word payload: `[page index, bytes]` on terminal `disk.*`
    /// spans, the event's payload on an [`event`], zero otherwise.
    pub args: [u64; 2],
}

impl SpanRecord {
    /// End time in nanoseconds since the tracer epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

struct Ring {
    thread: u32,
    cap: usize,
    slots: Mutex<VecDeque<SpanRecord>>,
}

impl Ring {
    fn push(&self, rec: SpanRecord) {
        let mut slots = self.slots.lock();
        if slots.len() == self.cap {
            slots.pop_front();
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        slots.push_back(rec);
        RECORDED.fetch_add(1, Ordering::Relaxed);
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

struct ThreadState {
    /// (trace id, innermost open span id); (0, 0) = no active trace.
    ctx: Cell<(u64, u64)>,
    io: Cell<IoCounts>,
    ring: Arc<Ring>,
    /// LIFO stack backing the `tracing`-facade bridge.
    facade: RefCell<Vec<Option<Span>>>,
}

thread_local! {
    static TLS: ThreadState = {
        let ring = Arc::new(Ring {
            thread: THREAD_SEQ.fetch_add(1, Ordering::Relaxed),
            cap: RING_CAPACITY.load(Ordering::Relaxed),
            slots: Mutex::new(VecDeque::new()),
        });
        rings().lock().push(ring.clone());
        ThreadState {
            ctx: Cell::new((0, 0)),
            io: Cell::new(IoCounts::default()),
            ring,
            facade: RefCell::new(Vec::new()),
        }
    };
}

/// TLS access that tolerates thread teardown (drops during TLS
/// destruction silently lose their record rather than aborting).
fn with_tls<R>(f: impl FnOnce(&ThreadState) -> R) -> Option<R> {
    TLS.try_with(f).ok()
}

// ---- spans -----------------------------------------------------------

/// RAII span guard from [`span`]. Restores the thread's previous
/// context and records itself into the thread ring on drop. Not `Send`:
/// a span must end on the thread it started on (move a
/// [`TraceContext`] across threads instead).
#[must_use = "a span measures the scope it is bound to"]
pub struct Span {
    trace: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    prev: (u64, u64),
    start_ns: u64,
    io_at_start: IoCounts,
    args: [u64; 2],
    /// An [`event`]: closes at its start time, so its duration is 0.
    instant: bool,
    _not_send: PhantomData<*const ()>,
}

impl Span {
    /// This span's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The trace this span belongs to (0 when suppressed by sampling).
    pub fn trace_id(&self) -> u64 {
        if self.trace == SUPPRESSED {
            0
        } else {
            self.trace
        }
    }

    /// Attach a two-word payload to this span's record.
    pub fn set_args(&mut self, a: u64, b: u64) {
        self.args = [a, b];
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let end = if self.instant {
            self.start_ns
        } else {
            now_ns()
        };
        with_tls(|t| {
            t.ctx.set(self.prev);
            if self.trace == SUPPRESSED {
                return;
            }
            let rec = SpanRecord {
                trace: self.trace,
                span: self.id,
                parent: self.parent,
                name: self.name,
                thread: t.ring.thread,
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
                io: t.io.get().since(&self.io_at_start),
                args: self.args,
            };
            t.ring.push(rec);
            if rec.parent == 0 {
                let thr = SLOW_NS.load(Ordering::Relaxed);
                if thr > 0 && rec.dur_ns >= thr {
                    promote_slow(rec);
                }
            }
        });
    }
}

/// Open a span named `name`: a child of the thread's current context,
/// or — with no active context — the root of a new trace (subject to
/// the sampling rate). Returns `None` when tracing is disabled or the
/// context is an unsampled trace's interior, so the disabled path stays
/// one load-and-branch.
#[inline]
pub fn span(name: &'static str) -> Option<Span> {
    if !enabled() {
        return None;
    }
    span_slow(name)
}

#[inline(never)]
fn span_slow(name: &'static str) -> Option<Span> {
    with_tls(|t| {
        let (cur_trace, cur_span) = t.ctx.get();
        if cur_trace == SUPPRESSED {
            return None;
        }
        if cur_trace == 0 {
            // New root: one sampling decision for the whole trace.
            let every = SAMPLE_EVERY.load(Ordering::Relaxed);
            if every > 1
                && !ROOT_SEQ
                    .fetch_add(1, Ordering::Relaxed)
                    .is_multiple_of(every)
            {
                t.ctx.set((SUPPRESSED, 0));
                return Some(Span {
                    trace: SUPPRESSED,
                    id: 0,
                    parent: 0,
                    name,
                    prev: (0, 0),
                    start_ns: 0,
                    io_at_start: IoCounts::default(),
                    args: [0; 2],
                    instant: false,
                    _not_send: PhantomData,
                });
            }
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            t.ctx.set((id, id));
            Some(Span {
                trace: id,
                id,
                parent: 0,
                name,
                prev: (0, 0),
                start_ns: now_ns(),
                io_at_start: t.io.get(),
                args: [0; 2],
                instant: false,
                _not_send: PhantomData,
            })
        } else {
            let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
            t.ctx.set((cur_trace, id));
            Some(Span {
                trace: cur_trace,
                id,
                parent: cur_span,
                name,
                prev: (cur_trace, cur_span),
                start_ns: now_ns(),
                io_at_start: t.io.get(),
                args: [0; 2],
                instant: false,
                _not_send: PhantomData,
            })
        }
    })
    .flatten()
}

/// Record an instant event: a zero-length span named `name` carrying
/// `[a, b]` in its args. Opened through [`span`], so it records only
/// when tracing is on and the trace is sampled, becomes a child of the
/// thread's current span, and attributes no I/O.
#[inline]
pub fn event(name: &'static str, a: u64, b: u64) {
    if let Some(mut s) = span(name) {
        s.set_args(a, b);
        s.instant = true;
    }
}

// ---- cross-thread propagation ---------------------------------------

/// A copyable capture of a thread's span context, for explicit handoff
/// across thread boundaries: capture with [`current`] *before* spawning
/// and [`attach`](TraceContext::attach) inside the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    trace: u64,
    span: u64,
}

impl TraceContext {
    /// The empty context (attaching it is a no-op).
    pub fn none() -> TraceContext {
        TraceContext { trace: 0, span: 0 }
    }

    /// Whether spans opened under this context will join a live trace.
    pub fn is_active(&self) -> bool {
        self.trace != 0 && self.trace != SUPPRESSED
    }

    /// Make this context current on the calling thread until the guard
    /// drops; spans opened meanwhile become children of the captured
    /// span, even though they run on another thread.
    pub fn attach(self) -> AttachGuard {
        let prev = with_tls(|t| {
            let prev = t.ctx.get();
            if self.trace != 0 {
                t.ctx.set((self.trace, self.span));
            }
            prev
        })
        .unwrap_or((0, 0));
        AttachGuard {
            prev,
            installed: self.trace != 0,
            _not_send: PhantomData,
        }
    }
}

/// Capture the calling thread's context ([`TraceContext::none`] when
/// tracing is disabled).
#[inline]
pub fn current() -> TraceContext {
    if !enabled() {
        return TraceContext::none();
    }
    with_tls(|t| {
        let (trace, span) = t.ctx.get();
        TraceContext { trace, span }
    })
    .unwrap_or_else(TraceContext::none)
}

/// Guard from [`TraceContext::attach`]; restores the thread's previous
/// context on drop.
pub struct AttachGuard {
    prev: (u64, u64),
    installed: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        if self.installed {
            with_tls(|t| t.ctx.set(self.prev));
        }
    }
}

// ---- dumping, stitching, exporting ----------------------------------

/// Every span record currently retained, across all threads (live and
/// exited), ordered by start time. Non-destructive.
pub fn dump() -> Vec<SpanRecord> {
    let rings: Vec<Arc<Ring>> = rings().lock().clone();
    let mut out = Vec::new();
    for ring in rings {
        out.extend(ring.slots.lock().iter().copied());
    }
    out.sort_by_key(|r| (r.start_ns, r.span));
    out
}

/// How many of the most recent records [`render_recent`] and
/// [`dump_to_stderr`] include.
pub const DUMP_RECORDS: usize = 4096;

/// The most recent [`DUMP_RECORDS`] retained records across all rings,
/// ordered by `(start_ns, span)`, stitched and rendered as text. A
/// record whose parent fell outside the window renders as a root.
pub fn render_recent() -> String {
    let mut records = dump();
    let recent = records.split_off(records.len().saturating_sub(DUMP_RECORDS));
    stitch(&recent).iter().map(SpanTree::render_text).collect()
}

/// Write [`render_recent`] to stderr, headed by `reason`. Called when a
/// tree poisons, so the run-up to the failure is on record. Does
/// nothing while tracing is off.
pub fn dump_to_stderr(reason: &str) {
    if !enabled() {
        return;
    }
    tracing::warn!("trace dump ({reason}): last {DUMP_RECORDS} records");
    for line in render_recent().lines() {
        tracing::warn!("{line}");
    }
}

/// Empty every ring and the slow-op log (tests and long-lived servers).
pub fn clear() {
    for ring in rings().lock().iter() {
        ring.slots.lock().clear();
    }
    slow_log().lock().clear();
}

/// One stitched span and its children (children ordered by start time).
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The span itself.
    pub record: SpanRecord,
    /// Child spans, possibly recorded on other threads.
    pub children: Vec<SpanTree>,
}

impl SpanTree {
    /// Depth of the tree rooted here (a leaf span is depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(SpanTree::depth).max().unwrap_or(0)
    }

    /// Number of spans in the tree rooted here.
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanTree::span_count)
            .sum::<usize>()
    }

    /// Total I/O of this subtree. A span's own counters already include
    /// everything its thread did while it was open, so a descendant's
    /// counters are added only when no enclosing span ran on the same
    /// thread (see the module docs on attribution). The walk descends
    /// through same-thread spans too: a worker pool spawned under a
    /// same-thread child (say `external.pack` under the build root) is
    /// still found.
    pub fn io_rollup(&self) -> IoCounts {
        fn go(node: &SpanTree, covered: &mut Vec<u32>, total: &mut IoCounts) {
            let thread = node.record.thread;
            let counted = !covered.contains(&thread);
            if counted {
                *total = total.add(&node.record.io);
                covered.push(thread);
            }
            for child in &node.children {
                go(child, covered, total);
            }
            if counted {
                covered.pop();
            }
        }
        let mut total = IoCounts::default();
        go(self, &mut Vec::new(), &mut total);
        total
    }

    /// Render the tree as an indented text block (one span per line;
    /// args are printed when nonzero).
    pub fn render_text(&self) -> String {
        fn go(node: &SpanTree, depth: usize, out: &mut String) {
            let r = &node.record;
            out.push_str(&format!(
                "{:indent$}{} {}ns reads={} writes={} hits={} misses={} [t{}]",
                "",
                r.name,
                r.dur_ns,
                r.io.pages_read,
                r.io.pages_written,
                r.io.cache_hits,
                r.io.cache_misses,
                r.thread,
                indent = depth * 2
            ));
            if r.args != [0; 2] {
                out.push_str(&format!(" a={} b={}", r.args[0], r.args[1]));
            }
            out.push('\n');
            for c in &node.children {
                go(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        go(self, 0, &mut out);
        out
    }
}

/// Stitch flat records into span trees. A record whose parent is absent
/// (evicted from its ring, or still open) becomes a root of its own
/// tree, so the result always accounts for every input record exactly
/// once; children are ordered by start time. Malformed inputs cannot
/// cycle: the tree is built by single parent-attachment, and any
/// parent-cycle's members (unreachable from a root) are emitted as
/// their own roots.
pub fn stitch(records: &[SpanRecord]) -> Vec<SpanTree> {
    use std::collections::HashMap;
    let mut index: HashMap<u64, usize> = HashMap::with_capacity(records.len());
    for (i, r) in records.iter().enumerate() {
        index.insert(r.span, i);
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
    let mut is_child = vec![false; records.len()];
    for (i, r) in records.iter().enumerate() {
        if r.parent != 0 {
            if let Some(&p) = index.get(&r.parent) {
                if p != i {
                    children[p].push(i);
                    is_child[i] = true;
                }
            }
        }
    }
    for kids in &mut children {
        kids.sort_by_key(|&i| (records[i].start_ns, records[i].span));
    }
    // Build bottom-up without recursion: process in reverse start order
    // is not sufficient (cross-thread clock skew is zero here but ids
    // are not ordered), so resolve via explicit DFS with a visited set
    // that breaks any parent cycles defensively.
    fn build(
        i: usize,
        records: &[SpanRecord],
        children: &[Vec<usize>],
        visited: &mut [bool],
    ) -> SpanTree {
        visited[i] = true;
        let mut kids = Vec::with_capacity(children[i].len());
        for &c in &children[i] {
            if !visited[c] {
                kids.push(build(c, records, children, visited));
            }
        }
        SpanTree {
            record: records[i],
            children: kids,
        }
    }
    let mut visited = vec![false; records.len()];
    let mut roots = Vec::new();
    for i in 0..records.len() {
        if !is_child[i] && !visited[i] {
            roots.push(build(i, records, &children, &mut visited));
        }
    }
    // Cycle members are reachable from no root; emit them as roots too
    // (their intra-cycle edge was already severed by the visited set).
    for i in 0..records.len() {
        if !visited[i] {
            roots.push(build(i, records, &children, &mut visited));
        }
    }
    roots.sort_by_key(|t| (t.record.start_ns, t.record.span));
    roots
}

/// Render records as a Chrome `trace_event` JSON document (the format
/// `chrome://tracing` and Perfetto load): complete (`"ph": "X"`) events
/// with microsecond timestamps, one track per recording thread, and the
/// span/trace/parent ids, per-span I/O attribution and the record's
/// two payload words (`a`, `b`) in `args`. Events are `X` with `dur` 0.
pub fn export_chrome(records: &[SpanRecord]) -> String {
    use std::fmt::Write;
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"str\", \"ph\": \"X\", \
             \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \
             \"args\": {{\"trace\": {}, \"span\": {}, \"parent\": {}, \
             \"pages_read\": {}, \"pages_written\": {}, \
             \"bytes_read\": {}, \"bytes_written\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"a\": {}, \"b\": {}}}}}",
            r.name,
            r.start_ns as f64 / 1_000.0,
            r.dur_ns as f64 / 1_000.0,
            r.thread,
            r.trace,
            r.span,
            r.parent,
            r.io.pages_read,
            r.io.pages_written,
            r.io.bytes_read,
            r.io.bytes_written,
            r.io.cache_hits,
            r.io.cache_misses,
            r.args[0],
            r.args[1],
        );
    }
    out.push_str("]}");
    out
}

// ---- slow-op log -----------------------------------------------------

/// A root span that exceeded the slow threshold, retained with its full
/// child tree as captured at promotion time.
#[derive(Debug, Clone)]
pub struct SlowOp {
    /// The slow root span.
    pub root: SpanRecord,
    /// Every retained span of the root's trace (including the root),
    /// in start order — feed to [`stitch`] for the tree.
    pub spans: Vec<SpanRecord>,
}

fn slow_log() -> &'static Mutex<VecDeque<SlowOp>> {
    static LOG: OnceLock<Mutex<VecDeque<SlowOp>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(VecDeque::new()))
}

fn promote_slow(root: SpanRecord) {
    let rings: Vec<Arc<Ring>> = rings().lock().clone();
    let mut spans = Vec::new();
    for ring in rings {
        spans.extend(
            ring.slots
                .lock()
                .iter()
                .filter(|r| r.trace == root.trace)
                .copied(),
        );
    }
    spans.sort_by_key(|r| (r.start_ns, r.span));
    let mut log = slow_log().lock();
    if log.len() == SLOW_LOG_CAPACITY {
        log.pop_front();
    }
    log.push_back(SlowOp { root, spans });
}

/// The retained slow operations, oldest first.
pub fn slow_ops() -> Vec<SlowOp> {
    slow_log().lock().iter().cloned().collect()
}

// ---- tracing-facade bridge ------------------------------------------

/// Backend for the `tracing` shim's spans: facade spans opened while
/// tracing is enabled become real [`Span`]s (children of the thread's
/// current context), so instrumentation written against
/// `tracing::span!` lights up with no code change.
struct Bridge;

impl tracing::SpanBackend for Bridge {
    fn enter(&self, name: &'static str) -> usize {
        with_tls(|t| {
            let mut stack = t.facade.borrow_mut();
            stack.push(span(name));
            stack.len()
        })
        .unwrap_or(0)
    }

    fn exit(&self, token: usize) {
        with_tls(|t| {
            let mut stack = t.facade.borrow_mut();
            // Facade guards are !Send and drop LIFO per thread; the
            // assert is debug-only so a logic error can't take down a
            // release process.
            debug_assert_eq!(stack.len(), token, "facade span exit out of order");
            if stack.len() == token {
                stack.pop();
            }
        });
    }
}

/// Install the bridge turning `tracing` facade spans into real spans.
/// Idempotent; called automatically by [`set_enabled`]`(true)`.
pub fn install_tracing_bridge() {
    static BRIDGE: Bridge = Bridge;
    tracing::set_span_backend(&BRIDGE);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that toggle the global tracer.
    fn lock_tracer() -> parking_lot::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(())).lock()
    }

    fn reset() {
        set_sample_every(1);
        set_slow_threshold(Duration::ZERO);
        clear();
    }

    #[test]
    fn disabled_span_is_none() {
        let _g = lock_tracer();
        set_enabled(false);
        assert!(span("off").is_none());
        let before = dump().len();
        event("off.event", 1, 2);
        assert_eq!(dump().len(), before, "disabled event recorded");
        assert!(!current().is_active());
    }

    #[test]
    fn same_thread_nesting_records_parentage() {
        let _g = lock_tracer();
        reset();
        set_enabled(true);
        let (root_id, child_id);
        {
            let root = span("root").unwrap();
            root_id = root.id();
            assert_eq!(root.trace_id(), root_id);
            {
                let child = span("child").unwrap();
                child_id = child.id();
                assert_ne!(child_id, root_id);
            }
        }
        set_enabled(false);
        let records = dump();
        let child = records.iter().find(|r| r.span == child_id).unwrap();
        let root = records.iter().find(|r| r.span == root_id).unwrap();
        assert_eq!(child.parent, root_id);
        assert_eq!(child.trace, root_id);
        assert_eq!(root.parent, 0);
        assert!(child.start_ns >= root.start_ns);
        assert!(child.end_ns() <= root.end_ns());
        let trees = stitch(&records);
        let tree = trees.iter().find(|t| t.record.span == root_id).unwrap();
        assert_eq!(tree.depth(), 2);
        assert_eq!(tree.span_count(), 2);
    }

    #[test]
    fn context_attaches_across_threads() {
        let _g = lock_tracer();
        reset();
        set_enabled(true);
        let root_id;
        {
            let root = span("root").unwrap();
            root_id = root.id();
            let ctx = current();
            assert!(ctx.is_active());
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _att = ctx.attach();
                    let _child = span("worker");
                });
            });
        }
        set_enabled(false);
        let records = dump();
        let worker = records.iter().find(|r| r.name == "worker").unwrap();
        assert_eq!(worker.parent, root_id);
        assert_eq!(worker.trace, root_id);
    }

    #[test]
    fn sampling_suppresses_whole_traces() {
        let _g = lock_tracer();
        reset();
        set_enabled(true);
        set_sample_every(1 << 30); // effectively: record almost nothing
                                   // Burn the ordinal so the next root is not the sampled one.
        drop(span("burn"));
        let before = dump().len();
        {
            let _root = span("unsampled");
            // Children of an unsampled trace don't even allocate ids.
            assert!(span("inner").is_none());
            event("inner.event", 1, 2);
            assert!(!current().is_active());
        }
        set_sample_every(1);
        set_enabled(false);
        assert_eq!(dump().len(), before, "suppressed trace recorded spans");
    }

    #[test]
    fn io_attribution_is_scoped_per_span() {
        let _g = lock_tracer();
        reset();
        set_enabled(true);
        let outer_id;
        let inner_id;
        {
            let outer = span("outer").unwrap();
            outer_id = outer.id();
            io_read(2, 8192);
            {
                let inner = span("inner").unwrap();
                inner_id = inner.id();
                io_read(3, 12288);
                cache_miss();
                cache_hit();
            }
            io_write(1, 4096);
        }
        set_enabled(false);
        let records = dump();
        let inner = records.iter().find(|r| r.span == inner_id).unwrap();
        let outer = records.iter().find(|r| r.span == outer_id).unwrap();
        assert_eq!(inner.io.pages_read, 3);
        assert_eq!(inner.io.cache_misses, 1);
        assert_eq!(inner.io.cache_hits, 1);
        // Outer includes the same-thread child (inclusive attribution).
        assert_eq!(outer.io.pages_read, 5);
        assert_eq!(outer.io.pages_written, 1);
        assert_eq!(outer.io.bytes_written, 4096);
    }

    #[test]
    fn slow_ops_retain_the_child_tree() {
        let _g = lock_tracer();
        reset();
        set_enabled(true);
        set_slow_threshold(Duration::from_nanos(1));
        {
            let _root = span("slow_root").unwrap();
            drop(span("slow_child"));
            std::thread::sleep(Duration::from_millis(2));
        }
        set_slow_threshold(Duration::ZERO);
        set_enabled(false);
        let ops = slow_ops();
        let op = ops
            .iter()
            .find(|o| o.root.name == "slow_root")
            .expect("root promoted");
        assert!(op.spans.iter().any(|s| s.name == "slow_child"));
        let trees = stitch(&op.spans);
        assert!(trees.iter().any(|t| t.depth() >= 2));
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let recs = vec![
            SpanRecord {
                trace: 7,
                span: 7,
                parent: 0,
                name: "root",
                thread: 0,
                start_ns: 1000,
                dur_ns: 5000,
                io: IoCounts {
                    pages_read: 3,
                    ..IoCounts::default()
                },
                args: [0; 2],
            },
            SpanRecord {
                trace: 7,
                span: 8,
                parent: 7,
                name: "child",
                thread: 1,
                start_ns: 1500,
                dur_ns: 0,
                io: IoCounts::default(),
                args: [42, 4096],
            },
        ];
        let json = export_chrome(&recs);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"pages_read\": 3"));
        assert!(json.contains("\"parent\": 7"));
        assert!(json.contains("\"dur\": 0.000"));
        assert!(json.contains("\"a\": 42, \"b\": 4096"));
    }

    #[test]
    fn stitch_orphans_become_roots() {
        let rec = |span, parent, start| SpanRecord {
            trace: 1,
            span,
            parent,
            name: "x",
            thread: 0,
            start_ns: start,
            dur_ns: 1,
            io: IoCounts::default(),
            args: [0; 2],
        };
        // 10's parent (99) was evicted; 11 is 10's child.
        let records = vec![rec(10, 99, 5), rec(11, 10, 6), rec(12, 0, 1)];
        let trees = stitch(&records);
        assert_eq!(trees.len(), 2);
        let total: usize = trees.iter().map(SpanTree::span_count).sum();
        assert_eq!(total, 3, "every record appears exactly once");
    }

    #[test]
    fn io_rollup_finds_workers_under_same_thread_children() {
        let io = |pages_read| IoCounts {
            pages_read,
            ..IoCounts::default()
        };
        let rec = |span, parent, thread, pages| SpanRecord {
            trace: 1,
            span,
            parent,
            name: "x",
            thread,
            start_ns: span,
            dur_ns: 1,
            io: io(pages),
            args: [0; 2],
        };
        // t0: root (10 reads, inclusive of its t0 child `pack`, 4 reads)
        //   t1: two workers under `pack`, 3 and 5 reads
        //     t0: a callback back on the root's thread, already inside
        //         the root's 10, so it must not count twice
        let records = vec![
            rec(1, 0, 0, 10),
            rec(2, 1, 0, 4),
            rec(3, 2, 1, 3),
            rec(4, 2, 1, 5),
            rec(5, 4, 0, 2),
        ];
        let trees = stitch(&records);
        assert_eq!(trees.len(), 1);
        let root = &trees[0];
        assert_eq!(root.depth(), 4);
        assert_eq!(root.io_rollup().pages_read, 10 + 3 + 5);
        // Rooted at `pack`: its own 4 plus the workers'.
        assert_eq!(root.children[0].io_rollup().pages_read, 4 + 3 + 5);
        // Rooted at a worker: the callback ran on another thread.
        assert_eq!(root.children[0].children[1].io_rollup().pages_read, 5 + 2);
    }

    #[test]
    fn facade_spans_light_up_via_bridge() {
        let _g = lock_tracer();
        reset();
        set_enabled(true);
        {
            let _root = span("root").unwrap();
            let _facade = tracing::debug_span!("facade.child").entered();
        }
        set_enabled(false);
        let records = dump();
        let facade = records
            .iter()
            .find(|r| r.name == "facade.child")
            .expect("facade span recorded");
        let root = records.iter().find(|r| r.name == "root").unwrap();
        assert_eq!(facade.parent, root.span);
    }

    #[test]
    fn events_are_zero_length_children_with_args() {
        let _g = lock_tracer();
        reset();
        set_enabled(true);
        let root_id;
        {
            let root = span("root").unwrap();
            root_id = root.id();
            io_read(1, 4096);
            event("test.event", 7, 15);
            let mut read = span("test.read").unwrap();
            read.set_args(3, 4096);
        }
        set_enabled(false);
        let records = dump();
        let ev = records.iter().find(|r| r.name == "test.event").unwrap();
        assert_eq!(ev.parent, root_id);
        assert_eq!(ev.trace, root_id);
        assert_eq!(ev.dur_ns, 0);
        assert_eq!(ev.io, IoCounts::default());
        assert_eq!(ev.args, [7, 15]);
        let read = records.iter().find(|r| r.name == "test.read").unwrap();
        assert_eq!(read.args, [3, 4096]);
        let root = records.iter().find(|r| r.span == root_id).unwrap();
        assert_eq!(root.args, [0; 2]);

        let text = stitch(&records)
            .iter()
            .find(|t| t.record.span == root_id)
            .unwrap()
            .render_text();
        assert!(text.contains("  test.event 0ns"), "{text}");
        assert!(text.contains(" a=7 b=15\n"), "{text}");
        assert!(text.lines().next().unwrap().ends_with(']'), "{text}");
    }

    #[test]
    fn recent_dump_keeps_the_newest_records() {
        let _g = lock_tracer();
        reset();
        set_enabled(true);
        for i in 0..(DUMP_RECORDS as u64 + 100) {
            event("recent.event", i, 2 * i + 1);
        }
        set_enabled(false);
        let text = render_recent();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), DUMP_RECORDS);
        // The oldest 100 fell out; the rest are in order.
        for (line, i) in lines.iter().zip(100u64..) {
            assert!(line.starts_with("recent.event 0ns"), "{line}");
            assert!(line.ends_with(&format!(" a={i} b={}", 2 * i + 1)), "{line}");
        }
    }
}
