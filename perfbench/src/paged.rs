//! `paged_cold`: the paper's region queries over 1M STR-packed squares.
//!
//! The paged `RTree` is queried through the paper's 250-page LRU pool
//! (about 2.5% of the ~10.1k-page tree) with the paper's 1%-of-space
//! windows, 500 per pass, so most node visits miss the pool: it
//! exercises the pool, the node codec and traversal.
//!
//! An instance checks the clock only between whole passes over its
//! window list and warms the pool with the list's tail, so every pass
//! starts from the same pool state and the disk accesses repeat exactly.

use std::sync::Arc;
use std::time::Instant;

use flat::FlatTree;
use geom::Rect2;
use rtree::RTree;
use storage::{BufferPool, BufferStats};

use crate::build::QUERY_POOL_FRAMES;
use crate::report::{self, Outcome};
use crate::shim::{CountingDisk, DiskTally};
use crate::tracer::Tracer;
use crate::{
    capacity, gen_items, registry_layers, report_layers, windows, Config, EndToEnd, Fingerprint,
    Instance, USER_BYTES_PER_ITEM,
};

/// Windows per pass.
const PASS: usize = 500;
/// Windows from the list's tail that warm the pool; they touch more
/// than 250 distinct pages, so they fix the pool's whole state.
const WARM: usize = 32;
/// One query in this many of an instance's first pass is checked.
const SAMPLE_EVERY: usize = 20;
/// Pack frames used while building, as `rtree-cli build` uses.
const PACK_POOL_FRAMES: usize = 1024;
/// Queries between ring drains in the traced pass.
const DRAIN_EVERY: usize = 64;

struct Setup {
    items: Vec<(Rect2, u64)>,
    disk: Arc<CountingDisk>,
    tree: RTree<2>,
    windows: Vec<Rect2>,
    gen_s: f64,
    /// Bytes written to build the tree.
    written: u64,
}

fn setup(cfg: &Config) -> Result<Setup, String> {
    let t = Instant::now();
    let items = gen_items(cfg.scale.query_items, cfg.stream_seed(1));
    let gen_s = t.elapsed().as_secs_f64();
    let windows = windows(PASS, 0.01, cfg.stream_seed(3));

    let disk = CountingDisk::mem();
    let pool = Arc::new(BufferPool::new(disk.clone(), PACK_POOL_FRAMES));
    let mut packed = str_core::pack(pool, items.clone(), capacity(), &str_core::StrPacker::new())
        .map_err(|e| format!("pack: {e}"))?;
    packed.persist().map_err(|e| format!("persist: {e}"))?;
    drop(packed);
    let written = disk.tally().writes * storage::DEFAULT_PAGE_SIZE as u64;
    let pool = Arc::new(BufferPool::new(disk.clone(), QUERY_POOL_FRAMES));
    let tree = RTree::<2>::open(pool).map_err(|e| format!("open: {e}"))?;
    let s = Setup {
        items,
        disk,
        tree,
        windows,
        gen_s,
        written,
    };
    warm_up(&s)?;
    Ok(s)
}

/// Run the last [`WARM`] windows of the list untimed, which leaves the
/// pool exactly as the end of a full pass leaves it.
fn warm_up(s: &Setup) -> Result<(), String> {
    for q in &s.windows[PASS - WARM..] {
        query(s, q).map_err(|e| format!("warm-up query: {e}"))?;
    }
    Ok(())
}

fn query(s: &Setup, q: &Rect2) -> Result<Fingerprint, rtree::RTreeError> {
    let mut fp = Fingerprint::default();
    s.tree.query_region_visit(q, &mut |_, id| fp.add(id))?;
    Ok(fp)
}

#[derive(Default)]
struct Pass {
    query_ns: Vec<u64>,
    failed: u64,
    /// `(window index, digest)` of the first pass's sampled queries.
    samples: Vec<(usize, Fingerprint)>,
    /// Pool misses of each whole pass.
    pass_misses: Vec<u64>,
    pool: BufferStats,
    io: DiskTally,
    busy_ns: u64,
}

fn measure(s: &Setup, seconds: f64, mut tracer: Option<&mut Tracer>) -> Result<Pass, String> {
    warm_up(s)?;
    let mut p = Pass::default();
    let io0 = s.disk.tally();
    let pool0 = s.tree.pool().stats();
    let start = Instant::now();
    let mut drain_ns = 0;
    // Two passes hold the 1000 samples a p99 needs.
    while p.pass_misses.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let first_pass = p.pass_misses.is_empty();
        let misses0 = s.tree.pool().stats().misses;
        for (i, q) in s.windows.iter().enumerate() {
            let root = obs::trace::span("bench.query");
            let t = Instant::now();
            let res = query(s, q);
            p.query_ns.push(t.elapsed().as_nanos() as u64);
            drop(root);
            match res {
                Ok(fp) if first_pass && i % SAMPLE_EVERY == 0 => p.samples.push((i, fp)),
                Ok(_) => {}
                Err(_) => p.failed += 1,
            }
            if let Some(t) = tracer.as_deref_mut() {
                if (i + 1) % DRAIN_EVERY == 0 {
                    let d = Instant::now();
                    t.drain();
                    drain_ns += d.elapsed().as_nanos() as u64;
                }
            }
        }
        p.pass_misses.push(s.tree.pool().stats().misses - misses0);
    }
    p.busy_ns = (start.elapsed().as_nanos() as u64).saturating_sub(drain_ns);
    p.pool = s.tree.pool().stats().since(&pool0);
    p.io = s.disk.tally().since(&io0);
    if let Some(t) = tracer {
        t.drain();
    }
    Ok(p)
}

/// The oracle, outside the timed window: each sampled result must equal
/// a brute-force scan of the items, and the tree lowered to a
/// `flat::FlatTree` must answer the window identically.
fn check(s: &Setup, samples: &[(usize, Fingerprint)]) -> Result<u64, String> {
    let flat = FlatTree::from_rtree(&s.tree).map_err(|e| format!("lower: {e}"))?;
    let mut failed = 0;
    for &(i, got) in samples {
        let q = &s.windows[i];
        let mut lowered = Fingerprint::default();
        flat.for_each_in_region(q, |_, id| lowered.add(id));
        let brute = Fingerprint::brute(&s.items, q);
        if got != brute || lowered != brute {
            failed += 1;
        }
    }
    Ok(failed)
}

/// Every whole pass over the window list must miss the pool alike.
fn check_passes(p: &Pass, out: &mut Outcome) {
    out.check(p.pass_misses.windows(2).all(|w| w[0] == w[1]), || {
        format!(
            "passes over one window list missed the pool differently: {:?}",
            p.pass_misses
        )
    });
}

pub fn run(cfg: &Config, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rate = |p: &Pass| p.query_ns.len() as f64 / (p.busy_ns as f64 / 1e9);
    if !traced {
        let share = cfg.seconds / cfg.scale.instances as f64;
        let mut instances = Vec::new();
        let (mut written, mut served) = (0, 0);
        for _ in 0..cfg.scale.instances {
            report::trim_heap();
            let probe = obs::rss::PeakProbe::start();
            let t = Instant::now();
            let s = setup(cfg)?;
            let setup_s = t.elapsed().as_secs_f64();
            let p = measure(&s, share, None)?;
            check_passes(&p, &mut out);
            out.attempted += p.query_ns.len() as u64;
            out.failed += p.failed + check(&s, &p.samples)?;
            instances.push(Instance {
                setup_s,
                peak_rss_mb: report::peak_rss_mb(&probe),
                rate: rate(&p),
                op_ns: p.query_ns.clone(),
                read_ns: p.query_ns,
            });
            written = s.written;
            served = s.disk.live_bytes();
        }
        let user_bytes = cfg.scale.query_items as f64 * USER_BYTES_PER_ITEM;
        EndToEnd {
            instances,
            write_amp: written as f64 / user_bytes,
            space_amp: served as f64 / user_bytes,
        }
        .report(&mut out);
        return Ok(out);
    }

    let s = setup(cfg)?;
    let half = cfg.seconds / 2.0;
    let plain = measure(&s, half, None)?;
    let io0 = s.disk.tally();
    let mut tracer = Tracer::start();
    let p = measure(&s, half, Some(&mut tracer))?;
    let traced = tracer.finish();
    let op_wall_ns: u64 = p.query_ns.iter().sum();
    traced.check(op_wall_ns, &mut out);
    let shim = s.disk.tally().since(&io0);
    let d = &traced.delta;
    out.check(
        shim.pages() == (d.total("disk.reads"), d.total("disk.writes")),
        || {
            format!(
                "the shim moved {:?} pages, the registry counted {} reads and {} writes",
                shim.pages(),
                d.total("disk.reads"),
                d.total("disk.writes")
            )
        },
    );
    check_passes(&plain, &mut out);
    check_passes(&p, &mut out);
    out.attempted = (plain.query_ns.len() + p.query_ns.len()) as u64;
    out.failed = plain.failed + p.failed + check(&s, &plain.samples)? + check(&s, &p.samples)?;

    let q = p.query_ns.len().max(1) as f64;
    let mut layers = registry_layers(d, 1.0, 0.0);
    layers.extend([
        ("datagen.gen_s", s.gen_s),
        ("disk.reads_per_query", p.io.reads as f64 / q),
        ("disk.read_us_per_query", p.io.read_ns as f64 / 1e3 / q),
        ("buffer.hit_rate", p.pool.hit_rate()),
        ("buffer.misses_per_query", p.pool.misses as f64 / q),
        ("buffer.evictions_per_query", p.pool.evictions as f64 / q),
        (
            "rtree.query_self_us",
            op_wall_ns.saturating_sub(p.io.read_ns) as f64 / 1e3 / q,
        ),
        ("obs.trace_overhead", rate(&p) / rate(&plain)),
    ]);
    report_layers(&layers, &mut out);
    Ok(out)
}
