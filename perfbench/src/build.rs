//! `build`: the production out-of-core STR build (`rtree-cli build
//! --threads`), 2M squares, sort budget N/8, `threads` = core count,
//! into an in-memory destination with an in-memory scratch device.
//!
//! Every build is checked (`validate`, `len`) and then serves the
//! paper's 1%-of-space region queries through a cold 250-page LRU pool,
//! so the workload reports both of the paper's numbers for the tree it
//! just built: build cost and query cost.

use std::sync::Arc;
use std::time::Instant;

use geom::Rect2;
use rtree::RTree;
use storage::BufferPool;
use str_core::{pack_str_external_opts, ExternalPackOptions};

use crate::report::{self, Outcome};
use crate::shim::{CountingDisk, DiskTally};
use crate::tracer::Tracer;
use crate::{
    capacity, gen_items, registry_layers, report_layers, windows, Config, EndToEnd, Fingerprint,
    Instance, USER_BYTES_PER_ITEM,
};

/// Destination pool frames, as `rtree-cli build` uses.
const BUILD_POOL_FRAMES: usize = 1024;
/// The paper's large buffer, in pages.
pub const QUERY_POOL_FRAMES: usize = 250;
/// The paper's queries run on each freshly built tree.
const PROBES_PER_BUILD: usize = 250;
/// Fewest timed builds in an untraced run: the build p50 needs ten
/// builds on each side of it.
const MIN_BUILDS_PER_RUN: usize = 21;

struct Setup {
    items: Vec<(Rect2, u64)>,
    probes: Vec<Rect2>,
    gen_s: f64,
}

struct Built {
    tree: RTree<2>,
    dest: Arc<CountingDisk>,
    scratch: Arc<CountingDisk>,
    ns: u64,
}

fn build_once(items: &[(Rect2, u64)], cfg: &Config) -> Result<Built, String> {
    let dest = CountingDisk::mem();
    let scratch = CountingDisk::mem();
    let pool = Arc::new(BufferPool::new(dest.clone(), BUILD_POOL_FRAMES));
    let opts = ExternalPackOptions::new(items.len() / 8).threads(cfg.threads);
    let root = obs::trace::span("bench.build");
    let t = Instant::now();
    let mut tree = pack_str_external_opts(
        pool,
        rtree::DEFAULT_TREE,
        scratch.clone(),
        items.iter().copied(),
        capacity(),
        opts,
    )
    .map_err(|e| format!("build: {e}"))?;
    tree.persist().map_err(|e| format!("persist: {e}"))?;
    let ns = t.elapsed().as_nanos() as u64;
    drop(root);
    Ok(Built {
        tree,
        dest,
        scratch,
        ns,
    })
}

fn setup(cfg: &Config) -> Result<Setup, String> {
    let n = cfg.scale.build_items;
    let t = Instant::now();
    let items = gen_items(n, cfg.stream_seed(1));
    let gen_s = t.elapsed().as_secs_f64();
    let probes = windows(PROBES_PER_BUILD, 0.01, cfg.stream_seed(2));
    // Warm-up build: faults in the allocator's arenas and the code.
    build_once(&items, cfg)?;
    Ok(Setup {
        items,
        probes,
        gen_s,
    })
}

/// Everything one pass measured.
#[derive(Default)]
struct Pass {
    builds: u64,
    build_ns: Vec<u64>,
    probe_ns: Vec<u64>,
    failed: u64,
    /// I/O of the first build; every later build must repeat it.
    dest: DiskTally,
    scratch: DiskTally,
    dest_bytes: u64,
    /// Totals over every build and probe batch.
    dest_all: DiskTally,
    scratch_all: DiskTally,
    probe_io: DiskTally,
    probe_pool: storage::BufferStats,
    /// Every page the shims saw, checks included.
    shim_total: DiskTally,
    op_wall_ns: u64,
    busy_ns: u64,
}

/// Build and probe for `seconds`, and at least `min_builds` times.
/// `expected` holds the brute-force
/// digests of the probes, computed on first use before the clock
/// starts; every build's probe results must match them.
fn measure(
    s: &Setup,
    cfg: &Config,
    seconds: f64,
    min_builds: u64,
    expected: &mut Vec<Fingerprint>,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let n = s.items.len() as u64;
    if expected.is_empty() {
        *expected = s
            .probes
            .iter()
            .map(|q| Fingerprint::brute(&s.items, q))
            .collect();
    }
    let mut p = Pass::default();
    let start = Instant::now();
    while p.builds < min_builds || start.elapsed().as_secs_f64() < seconds {
        let b = build_once(&s.items, cfg)?;
        p.build_ns.push(b.ns);
        p.op_wall_ns += b.ns;
        p.busy_ns += b.ns;
        if let Some(t) = tracer.as_deref_mut() {
            t.drain();
        }
        let (dest, scratch) = (b.dest.tally(), b.scratch.tally());
        if p.builds == 0 {
            p.dest = dest;
            p.scratch = scratch;
            p.dest_bytes = b.dest.live_bytes();
        } else {
            out.check(dest.pages() == p.dest.pages(), || {
                format!("build {} moved different destination pages", p.builds)
            });
            out.check(scratch.pages() == p.scratch.pages(), || {
                format!("build {} moved different scratch pages", p.builds)
            });
        }
        p.dest_all.add(&dest);
        p.scratch_all.add(&scratch);
        p.builds += 1;

        // Oracle, outside the timed build.
        {
            let _root = obs::trace::span("bench.verify");
            let valid = b.tree.validate(false).is_ok() && b.tree.len() == n;
            if !valid {
                p.failed += 1;
            }
        }
        drop(b.tree);

        // The paper's query cost of the fresh tree, from a cold pool.
        let pool = Arc::new(BufferPool::new(b.dest.clone(), QUERY_POOL_FRAMES));
        let tree = {
            let _root = obs::trace::span("bench.verify");
            RTree::<2>::open(pool.clone()).map_err(|e| format!("reopen: {e}"))?
        };
        let io0 = b.dest.tally();
        for (i, q) in s.probes.iter().enumerate() {
            let mut fp = Fingerprint::default();
            let root = obs::trace::span("bench.probe");
            let t = Instant::now();
            let res = tree.query_region_visit(q, &mut |_, id| fp.add(id));
            let ns = t.elapsed().as_nanos() as u64;
            drop(root);
            p.probe_ns.push(ns);
            p.op_wall_ns += ns;
            if res.is_err() || expected[i] != fp {
                p.failed += 1;
            }
        }
        p.probe_io.add(&b.dest.tally().since(&io0));
        p.probe_pool.merge(&pool.stats());
        p.shim_total.add(&b.dest.tally());
        p.shim_total.add(&b.scratch.tally());
        if let Some(t) = tracer.as_deref_mut() {
            t.drain();
        }
    }
    Ok(p)
}

pub fn run(cfg: &Config, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut expected = Vec::new();
    if !traced {
        let share = cfg.seconds / cfg.scale.instances as f64;
        let min_builds = MIN_BUILDS_PER_RUN.div_ceil(cfg.scale.instances) as u64;
        let mut instances = Vec::new();
        let mut first: Option<Pass> = None;
        for _ in 0..cfg.scale.instances {
            report::trim_heap();
            let probe = obs::rss::PeakProbe::start();
            let t = Instant::now();
            let s = setup(cfg)?;
            let setup_s = t.elapsed().as_secs_f64();
            let p = measure(&s, cfg, share, min_builds, &mut expected, None, &mut out)?;
            out.attempted += p.builds + p.probe_ns.len() as u64;
            out.failed += p.failed;
            instances.push(Instance {
                setup_s,
                peak_rss_mb: report::peak_rss_mb(&probe),
                rate: s.items.len() as f64 * p.builds as f64 / (p.busy_ns as f64 / 1e9),
                op_ns: p.build_ns.clone(),
                read_ns: p.probe_ns.clone(),
            });
            match &first {
                None => first = Some(p),
                Some(f) => out.check(
                    f.dest.pages() == p.dest.pages() && f.scratch.pages() == p.scratch.pages(),
                    || "builds of two instances moved different pages".to_string(),
                ),
            }
        }
        let f = first.expect("at least one instance");
        let user_bytes = cfg.scale.build_items as f64 * USER_BYTES_PER_ITEM;
        let page = storage::DEFAULT_PAGE_SIZE as f64;
        EndToEnd {
            instances,
            write_amp: (f.dest.writes + f.scratch.writes) as f64 * page / user_bytes,
            space_amp: f.dest_bytes as f64 / user_bytes,
        }
        .report(&mut out);
        return Ok(out);
    }

    let s = setup(cfg)?;
    let half = cfg.seconds / 2.0;
    let n = s.items.len() as f64;
    let plain = measure(&s, cfg, half, 1, &mut expected, None, &mut out)?;
    let mut tracer = Tracer::start();
    let p = measure(&s, cfg, half, 1, &mut expected, Some(&mut tracer), &mut out)?;
    let traced = tracer.finish();
    traced.check(p.op_wall_ns, &mut out);
    let (shim_reads, shim_writes) = (p.shim_total.reads, p.shim_total.writes);
    out.check(shim_reads == traced.delta.total("disk.reads"), || {
        format!(
            "shims read {shim_reads} pages, the registry counted {}",
            traced.delta.total("disk.reads")
        )
    });
    out.check(shim_writes == traced.delta.total("disk.writes"), || {
        format!(
            "shims wrote {shim_writes} pages, the registry counted {}",
            traced.delta.total("disk.writes")
        )
    });
    out.attempted = plain.builds + p.builds + (plain.probe_ns.len() + p.probe_ns.len()) as u64;
    out.failed = plain.failed + p.failed;

    let builds = p.builds as f64;
    let built_items = n * builds;
    let probes = p.probe_ns.len().max(1) as f64;
    let probe_wall_ns: u64 = p.probe_ns.iter().sum();
    let rate = |p: &Pass| n * p.builds as f64 / (p.busy_ns as f64 / 1e9);
    let mut layers = registry_layers(&traced.delta, builds, built_items);
    layers.extend([
        ("datagen.gen_s", s.gen_s),
        (
            "disk.scratch_writes_per_item",
            p.scratch_all.writes as f64 / built_items,
        ),
        (
            "disk.scratch_reads_per_item",
            p.scratch_all.reads as f64 / built_items,
        ),
        (
            "disk.dest_writes_per_item",
            p.dest_all.writes as f64 / built_items,
        ),
        ("disk.reads_per_query", p.probe_io.reads as f64 / probes),
        (
            "disk.read_us_per_query",
            p.probe_io.read_ns as f64 / 1e3 / probes,
        ),
        ("buffer.hit_rate", p.probe_pool.hit_rate()),
        (
            "buffer.misses_per_query",
            p.probe_pool.misses as f64 / probes,
        ),
        (
            "buffer.evictions_per_query",
            p.probe_pool.evictions as f64 / probes,
        ),
        (
            "rtree.query_self_us",
            probe_wall_ns.saturating_sub(p.probe_io.read_ns) as f64 / 1e3 / probes,
        ),
        ("obs.trace_overhead", rate(&p) / rate(&plain)),
    ]);
    report_layers(&layers, &mut out);
    Ok(out)
}
