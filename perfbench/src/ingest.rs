//! `ingest`: 250k squares inserted one at a time with `LsmTree::insert`
//! (memtable 4096, `max_levels` 4, background compaction), with every
//! 20th op a 1%-of-space query, so reads run beside writes.
//!
//! It exercises the WAL, the memtable, compaction (which drains through
//! the external STR pack and extsort) and LSM reads over flat segments.
//! Each round is an instance of its own (fresh set-up, fresh tree) and
//! takes 1–2 s, so a run holds several rounds and reports their
//! median. The per-insert tail is left
//! out: on 1 µs inserts it is timer jitter, while compaction stalls show
//! in `items_per_s`.

use std::sync::Arc;
use std::time::Instant;

use geom::Rect2;
use lsm::{LsmOptions, LsmTree, MemSegmentStore};
use rtree::SpatialIndex;
use storage::MemLogStore;

use crate::report::{self, Outcome};
use crate::shim::{CountingDisk, CountingLog, CountingSegments, DiskTally, LogTally, SegTally};
use crate::tracer::Tracer;
use crate::{
    capacity, gen_items, registry_layers, report_layers, windows, Config, EndToEnd, Fingerprint,
    Instance, USER_BYTES_PER_ITEM,
};

/// One op in this many is a query.
const READ_EVERY: usize = 20;
/// One query in this many is checked against a brute-force scan.
const CHECK_EVERY: usize = 100;
/// Ops between ring drains in the traced pass.
const DRAIN_EVERY: usize = 4096;
/// Fewest rounds whose median a run reports.
const MIN_ROUNDS: usize = 3;
/// Inserts into a throwaway tree during set-up: four memtables, so the
/// warm-up runs compactions too.
const WARM_UP_INSERTS: usize = 4 * 4096;

struct Rig {
    tree: LsmTree<2>,
    disk: Arc<CountingDisk>,
    log: Arc<CountingLog>,
    segs: Arc<CountingSegments>,
}

fn open_rig() -> Result<Rig, String> {
    let disk = CountingDisk::mem();
    let log = CountingLog::new(MemLogStore::new());
    let segs = CountingSegments::new(Arc::new(MemSegmentStore::new()));
    let opts = LsmOptions {
        capacity: capacity(),
        memtable_items: 4096,
        max_levels: 4,
        background: true,
        ..LsmOptions::default()
    };
    let tree = LsmTree::open(disk.clone(), log.clone(), segs.clone(), opts)
        .map_err(|e| format!("open: {e}"))?;
    Ok(Rig {
        tree,
        disk,
        log,
        segs,
    })
}

struct Setup {
    items: Vec<(Rect2, u64)>,
    windows: Vec<Rect2>,
    /// The first round's tree, opened as part of the set-up.
    rig: Option<Rig>,
    gen_s: f64,
}

fn setup(cfg: &Config) -> Result<Setup, String> {
    let n = cfg.scale.ingest_items;
    let t = Instant::now();
    let items = gen_items(n, cfg.stream_seed(1));
    let gen_s = t.elapsed().as_secs_f64();
    let windows = windows(n / (READ_EVERY - 1) + 1, 0.01, cfg.stream_seed(4));
    let warm = open_rig()?;
    for &(rect, id) in items.iter().take(WARM_UP_INSERTS) {
        warm.tree
            .insert(rect, id)
            .map_err(|e| format!("warm-up insert: {e}"))?;
    }
    while warm
        .tree
        .compact_once()
        .map_err(|e| format!("compact: {e}"))?
    {}
    drop(warm);
    Ok(Setup {
        items,
        windows,
        rig: Some(open_rig()?),
        gen_s,
    })
}

/// What one round left on its devices.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct RoundIo {
    disk: DiskTally,
    log: LogTally,
    segs: SegTally,
    disk_live: u64,
    compactions: u64,
}

impl RoundIo {
    /// Whether two rounds wrote the same: the counts the program makes
    /// deterministically must repeat exactly.
    fn writes_alike(&self, o: &RoundIo) -> bool {
        self.disk.writes == o.disk.writes
            && self.log.bytes == o.log.bytes
            && self.segs.bytes == o.segs.bytes
            && self.compactions == o.compactions
    }
}

#[derive(Default)]
struct Pass {
    rounds: u64,
    inserts: u64,
    insert_ns: Vec<u64>,
    /// Queries issued while a sealed memtable was being compacted.
    busy_read_ns: Vec<u64>,
    reads: u64,
    levels_at_read: u64,
    memtable_at_read: u64,
    failed: u64,
    first: RoundIo,
    /// Totals over every round.
    log: LogTally,
    segs: SegTally,
    /// The rounds' main disks, opening included.
    disk: DiskTally,
    op_wall_ns: u64,
    busy_ns: u64,
}

fn round(
    s: &Setup,
    rig: Rig,
    p: &mut Pass,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<(), String> {
    let tree = &rig.tree;
    let n = s.items.len();
    let mut next = 0;
    let mut op = 0usize;
    let mut untimed_ns = 0;
    let start = Instant::now();
    while next < n {
        op += 1;
        if op.is_multiple_of(READ_EVERY) {
            let stats = tree.stats();
            p.levels_at_read += stats.levels as u64;
            p.memtable_at_read += stats.memtable_items;
            let q = &s.windows[op / READ_EVERY];
            let mut fp = Fingerprint::default();
            let root = obs::trace::span("bench.read");
            let t = Instant::now();
            let res = tree.for_each_intersecting(q, &mut |_, id| fp.add(id));
            let ns = t.elapsed().as_nanos() as u64;
            drop(root);
            p.op_wall_ns += ns;
            p.reads += 1;
            if stats.sealed_items > 0 {
                p.busy_read_ns.push(ns);
            }
            // Every insert acknowledged so far, and nothing else; the
            // scan is left out of the round's time.
            let mut ok = res.is_ok();
            if (op / READ_EVERY).is_multiple_of(CHECK_EVERY) {
                let c = Instant::now();
                ok &= fp == Fingerprint::brute(&s.items[..next], q);
                untimed_ns += c.elapsed().as_nanos() as u64;
            }
            if !ok {
                p.failed += 1;
            }
        } else {
            let (rect, id) = s.items[next];
            let root = obs::trace::span("bench.insert");
            let t = Instant::now();
            let res = tree.insert(rect, id);
            let ns = t.elapsed().as_nanos() as u64;
            drop(root);
            p.op_wall_ns += ns;
            p.insert_ns.push(ns);
            if res.is_err() {
                p.failed += 1;
            }
            next += 1;
        }
        if let Some(t) = tracer.as_deref_mut() {
            // Drain only while no compaction runs: with no sealed
            // memtable, `compact_once` returns once the compactor's
            // last span has closed, and nothing starts another until
            // this thread seals the next memtable.
            if op.is_multiple_of(DRAIN_EVERY) && tree.stats().sealed_items == 0 {
                let d = Instant::now();
                tree.compact_once().map_err(|e| format!("compact: {e}"))?;
                t.drain();
                untimed_ns += d.elapsed().as_nanos() as u64;
            }
        }
    }
    p.busy_ns += (start.elapsed().as_nanos() as u64).saturating_sub(untimed_ns);
    p.inserts += n as u64;

    // Let the last compaction finish before reading the devices.
    while tree.compact_once().map_err(|e| format!("compact: {e}"))? {}
    if let Some(t) = tracer {
        t.drain();
    }
    let len = SpatialIndex::len(tree);
    out.check(len == n as u64, || {
        format!("the tree holds {len} items after {n} acknowledged inserts")
    });
    let io = RoundIo {
        disk: rig.disk.tally(),
        log: rig.log.tally(),
        segs: rig.segs.tally(),
        disk_live: rig.disk.live_bytes(),
        compactions: tree.stats().compactions,
    };
    if p.rounds == 0 {
        p.first = io;
    } else {
        out.check(p.first.writes_alike(&io), || {
            format!(
                "round {} wrote differently: {:?} vs {io:?}",
                p.rounds, p.first
            )
        });
    }
    p.log.appends += io.log.appends;
    p.log.bytes += io.log.bytes;
    p.log.syncs += io.log.syncs;
    p.log.append_ns += io.log.append_ns;
    p.log.sync_ns += io.log.sync_ns;
    p.segs.bytes += io.segs.bytes;
    p.disk.add(&io.disk);
    p.rounds += 1;
    drop(rig);
    Ok(())
}

fn measure(
    s: &mut Setup,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<Pass, String> {
    let mut p = Pass::default();
    let start = Instant::now();
    while p.rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        let rig = match s.rig.take() {
            Some(rig) => rig,
            None => open_rig()?,
        };
        round(s, rig, &mut p, tracer.as_deref_mut(), out)?;
    }
    Ok(p)
}

pub fn run(cfg: &Config, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let user_bytes = cfg.scale.ingest_items as f64 * USER_BYTES_PER_ITEM;
    let rate = |p: &Pass| p.inserts as f64 / (p.busy_ns as f64 / 1e9);
    if !traced {
        // Each instance runs one round; a run holds as many as fit.
        let start = Instant::now();
        let mut instances = Vec::new();
        let mut first: Option<RoundIo> = None;
        while instances.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < cfg.seconds {
            report::trim_heap();
            let probe = obs::rss::PeakProbe::start();
            let t = Instant::now();
            let mut s = setup(cfg)?;
            let setup_s = t.elapsed().as_secs_f64();
            let p = measure(&mut s, 0.0, None, &mut out)?;
            out.attempted += p.inserts + p.reads;
            out.failed += p.failed;
            instances.push(Instance {
                setup_s,
                peak_rss_mb: report::peak_rss_mb(&probe),
                rate: rate(&p),
                op_ns: p.insert_ns,
                read_ns: p.busy_read_ns,
            });
            match first {
                None => first = Some(p.first),
                Some(f) => out.check(f.writes_alike(&p.first), || {
                    format!(
                        "rounds of two instances wrote differently: {f:?} vs {:?}",
                        p.first
                    )
                }),
            }
        }
        let f = first.expect("at least one instance");
        let page = storage::DEFAULT_PAGE_SIZE as u64;
        EndToEnd {
            instances,
            write_amp: (f.disk.writes * page + f.log.bytes + f.segs.bytes) as f64 / user_bytes,
            space_amp: (f.disk_live + f.log.live_bytes + f.segs.live_bytes) as f64 / user_bytes,
        }
        .report(&mut out);
        return Ok(out);
    }

    let mut s = setup(cfg)?;
    let half = cfg.seconds / 2.0;
    let plain = measure(&mut s, half, None, &mut out)?;
    let mut tracer = Tracer::start();
    let p = measure(&mut s, half, Some(&mut tracer), &mut out)?;
    let traced = tracer.finish();
    traced.check(p.op_wall_ns, &mut out);
    let d = &traced.delta;
    out.check(p.log.bytes == d.total("wal.bytes_appended"), || {
        format!(
            "the log shim took {} bytes, the registry counted {} wal.bytes_appended",
            p.log.bytes,
            d.total("wal.bytes_appended")
        )
    });
    out.attempted = plain.inserts + plain.reads + p.inserts + p.reads;
    out.failed = plain.failed + p.failed;

    let rounds = p.rounds as f64;
    let items = p.inserts.max(1) as f64;
    let reads = p.reads.max(1) as f64;
    // The compactions' own scratch and staging disks are internal to
    // the LSM tier; their pages are the registry's minus the main disk's.
    let scratch_writes = d.total("disk.writes").saturating_sub(p.disk.writes);
    let scratch_reads = d.total("disk.reads").saturating_sub(p.disk.reads);
    let mut layers = registry_layers(d, rounds, items);
    layers.extend([
        ("datagen.gen_s", s.gen_s),
        (
            "disk.scratch_writes_per_item",
            scratch_writes as f64 / items,
        ),
        ("disk.scratch_reads_per_item", scratch_reads as f64 / items),
        ("lsm.stall_s", d.total("lsm.stall_ns") as f64 / 1e9 / rounds),
        ("lsm.compact_busy_s", traced.span_s("lsm.compact") / rounds),
        (
            "lsm.compactions",
            d.total("lsm.compactions") as f64 / rounds,
        ),
        ("lsm.segment_bytes_per_item", p.segs.bytes as f64 / items),
        ("lsm.levels_at_read", p.levels_at_read as f64 / reads),
        (
            "lsm.memtable_items_at_read",
            p.memtable_at_read as f64 / reads,
        ),
        ("wal.bytes_per_item", p.log.bytes as f64 / items),
        (
            "wal.commits_per_fsync",
            d.total("wal.commits") as f64 / d.total("wal.fsyncs").max(1) as f64,
        ),
        (
            "wal.append_us",
            p.log.append_ns as f64 / 1e3 / p.log.appends.max(1) as f64,
        ),
        (
            "wal.sync_us",
            p.log.sync_ns as f64 / 1e3 / p.log.syncs.max(1) as f64,
        ),
        ("obs.trace_overhead", rate(&p) / rate(&plain)),
    ]);
    report_layers(&layers, &mut out);
    Ok(out)
}
