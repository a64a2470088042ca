//! `repro mixed-bench` — measure the durable write path under mixed
//! read/write load and emit `BENCH_mixed_workload.json`.
//!
//! Three phases, each on a fresh LSM tree whose 10k seed items sit in a
//! flat level, behind a WAL whose log simulates a 100µs fsync (an
//! NVMe-class flush; in-memory appends would otherwise make batching
//! unmeasurable). Compaction runs on the background thread.
//!
//! 1. **commit burst** — 8 writer threads insert concurrently with
//!    group commit on and off; the artifact records commit-latency
//!    percentiles and the commits-per-fsync amortization ratio.
//! 2. **read only** — 1/4/8 reader threads, each read one region
//!    query. The 8-thread p99 is the baseline the mixed gate compares
//!    against.
//! 3. **mixed** — 95/5 and 50/50 read/write mixes at 1/4/8 threads,
//!    read and commit latencies reported separately. The 95/5 writes
//!    are inserts; the 50/50 writes alternate inserts with deletes of
//!    seed items, so its tombstones force full-fold compactions.
//!
//! The emitted document conforms to `str_bench::schema` (checked at
//! emit time) and carries two load-bearing properties, re-checkable
//! offline with `repro mixed-bench --verify`:
//!
//! * 8-writer commits/fsync with group commit > 2× without it;
//! * mixed-95/5 read p99 at 8 threads within 10% of read-only.

use std::sync::Arc;
use std::time::{Duration, Instant};

use geom::Rect2;
use lsm::{LsmOptions, LsmTree, MemSegmentStore};
use rtree::{NodeCapacity, SpatialIndex};
use storage::{MemDisk, MemLogStore};
use str_bench::schema::{self, Value};

const SEED_ITEMS: u64 = 10_000;
const CAPACITY: usize = 16;
const GRID: u64 = 100;
const SYNC_DELAY_US: u64 = 100;
const BURST_WRITERS: usize = 8;
const BURST_OPS: u64 = 300;
const READS_PER_THREAD: u64 = 2_000;
const MIXED_OPS_PER_THREAD: u64 = 2_000;
const THREADS: [usize; 3] = [1, 4, 8];

/// Unit-square grid cell for item `i`.
fn item_rect(i: u64) -> Rect2 {
    let (x, y) = (
        (i % GRID) as f64 / GRID as f64,
        (i / GRID % GRID) as f64 / GRID as f64,
    );
    Rect2::new([x, y], [x + 0.008, y + 0.008])
}

/// Deterministic query window for the `k`-th read of `thread`: the
/// paper's standard 1%-of-space region (side 0.1), placed on a hashed
/// grid cell.
fn query_window(thread: u64, k: u64) -> Rect2 {
    let cell = (thread.wrapping_mul(0x9E37_79B9) ^ k.wrapping_mul(0x85EB_CA6B)) % (GRID * GRID);
    let (x, y) = (
        (cell % GRID) as f64 / GRID as f64,
        (cell / GRID) as f64 / GRID as f64,
    );
    Rect2::new([x, y], [x + 0.1, y + 0.1])
}

/// A fresh LSM tree with the seed flushed to one flat level, then
/// switched to the simulated-fsync log.
fn rig(group_commit: bool) -> LsmTree<2> {
    let log = MemLogStore::new();
    let opts = LsmOptions {
        capacity: NodeCapacity::new(CAPACITY).unwrap(),
        background: true,
        ..LsmOptions::default()
    };
    let tree = LsmTree::open(
        Arc::new(MemDisk::default_size()),
        log.clone(),
        Arc::new(MemSegmentStore::new()),
        opts,
    )
    .unwrap();
    let seed: Vec<(Rect2, u64)> = (0..SEED_ITEMS).map(|i| (item_rect(i), i)).collect();
    tree.insert_batch(&seed).unwrap();
    tree.flush().unwrap();
    log.set_sync_delay(Duration::from_micros(SYNC_DELAY_US));
    tree.wal().set_group_commit(group_commit);
    tree
}

/// One emitted benchmark sample: merged latencies plus free-form extra
/// metrics (the schema ignores keys it does not require).
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

/// Run `threads` workers, merge their timed latencies, label the sample.
fn run_threads<F>(label: String, threads: usize, work: F) -> Sample
where
    F: Fn(u64) -> Vec<u64> + Sync,
{
    let start = Instant::now();
    let work = &work;
    let lat: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| s.spawn(move || work(t)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    Sample::new(label, lat, start.elapsed().as_secs_f64())
}

/// Phase 1: 8 concurrent writers, group commit on vs off.
fn commit_burst(group_commit: bool) -> Sample {
    let tree = rig(group_commit);
    let before = tree.wal().stat();
    let mut sample = run_threads(
        format!(
            "commit_burst/gc_{}/{}w",
            if group_commit { "on" } else { "off" },
            BURST_WRITERS
        ),
        BURST_WRITERS,
        |t| {
            let base = 1_000_000 * (t + 1);
            (0..BURST_OPS)
                .map(|k| {
                    let t0 = Instant::now();
                    tree.insert(item_rect(base + k), base + k).unwrap();
                    t0.elapsed().as_nanos() as u64
                })
                .collect()
        },
    );
    let after = tree.wal().stat();
    let commits = (after.commits - before.commits) as f64;
    let fsyncs = (after.fsyncs - before.fsyncs).max(1) as f64;
    sample.extra.push(("commits", commits));
    sample.extra.push(("fsyncs", fsyncs));
    sample.extra.push(("commits_per_fsync", commits / fsyncs));
    sample
}

/// One region query, timed end to end.
fn timed_read(tree: &LsmTree<2>, thread: u64, k: u64) -> u64 {
    let t0 = Instant::now();
    let hits = tree.query(&query_window(thread, k)).unwrap();
    std::hint::black_box(hits.len());
    t0.elapsed().as_nanos() as u64
}

/// Phase 2: read-only baseline at each thread count.
fn read_only(threads: usize) -> Sample {
    let tree = rig(true);
    run_threads(format!("read_only/read/{threads}t"), threads, |t| {
        (0..READS_PER_THREAD)
            .map(|k| timed_read(&tree, t, k))
            .collect()
    })
}

/// Phase 3: `write_pct`% writes at each thread count; returns the read
/// sample and the commit sample. With `deletes`, every other write
/// deletes the next seed item of the thread's share (ids `t`,
/// `t + threads`, …), which sits in the flat level.
fn mixed(name: &str, write_pct: u64, deletes: bool, threads: usize) -> (Sample, Sample) {
    let tree = rig(true);
    let start = Instant::now();
    let per_thread: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                let tree = &tree;
                s.spawn(move || {
                    let base = 1_000_000 * (t + 1);
                    let mut reads = Vec::new();
                    let mut commits = Vec::new();
                    let (mut inserted, mut deleted) = (0u64, 0u64);
                    for k in 0..MIXED_OPS_PER_THREAD {
                        // Spread writes evenly through the stream.
                        if (k * write_pct) % 100 < write_pct {
                            let t0 = Instant::now();
                            if deletes && deleted < inserted {
                                let id = t + deleted * threads as u64;
                                deleted += 1;
                                assert!(tree.delete(&item_rect(id), id).unwrap());
                            } else {
                                let id = base + inserted;
                                inserted += 1;
                                tree.insert(item_rect(id), id).unwrap();
                            }
                            commits.push(t0.elapsed().as_nanos() as u64);
                        } else {
                            reads.push(timed_read(tree, t, k));
                        }
                    }
                    (reads, commits)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let (mut reads, mut commits) = (Vec::new(), Vec::new());
    for (r, c) in per_thread {
        reads.extend(r);
        commits.extend(c);
    }
    (
        Sample::new(format!("{name}/read/{threads}t"), reads, wall),
        Sample::new(format!("{name}/commit/{threads}t"), commits, wall),
    )
}

/// Run every phase and emit `BENCH_mixed_workload.json` at the repo
/// root. Fails (without writing) if the document violates the schema;
/// fails *after* writing if the acceptance gates do not hold, so a bad
/// run is inspectable.
pub fn run() -> Result<(), String> {
    let mut samples = Vec::new();
    eprintln!("# mixed-bench: commit burst ({BURST_WRITERS} writers, gc on/off)");
    samples.push(commit_burst(true));
    samples.push(commit_burst(false));
    eprintln!("# mixed-bench: read-only baseline");
    for t in THREADS {
        samples.push(read_only(t));
    }
    for (name, write_pct, deletes) in [("mixed_95_5", 5u64, false), ("mixed_50_50", 50, true)] {
        eprintln!("# mixed-bench: {name}");
        for t in THREADS {
            let (r, c) = mixed(name, write_pct, deletes, t);
            samples.push(r);
            samples.push(c);
        }
    }

    let rendered: Vec<String> = samples.iter().map(Sample::render).collect();
    let metrics = format!(
        "{{\"benchmarks\": [\n    {}\n  ]}}",
        rendered.join(",\n    ")
    );
    let config = [
        ("index", "\"lsm\"".to_string()),
        ("seed_items", SEED_ITEMS.to_string()),
        ("capacity", CAPACITY.to_string()),
        (
            "memtable_items",
            LsmOptions::default().memtable_items.to_string(),
        ),
        ("sync_delay_us", SYNC_DELAY_US.to_string()),
        ("burst_writers", BURST_WRITERS.to_string()),
        ("burst_ops_per_writer", BURST_OPS.to_string()),
        ("reads_per_thread", READS_PER_THREAD.to_string()),
        ("mixed_ops_per_thread", MIXED_OPS_PER_THREAD.to_string()),
        ("threads", "[1, 4, 8]".to_string()),
    ];
    let path = str_bench::write_artifact("mixed_workload", &config, &metrics)
        .map_err(|e| e.to_string())?;
    for s in &samples {
        println!(
            "{:32} p50 {:>9.0} ns   p99 {:>9.0} ns   {:>10.0} ops/s",
            s.label,
            pct(&s.lat_ns, 0.5),
            pct(&s.lat_ns, 0.99),
            s.ops as f64 / s.wall_secs.max(1e-9),
        );
    }
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
    let path = str_bench::artifact_path("BENCH_mixed_workload.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (run `repro mixed-bench` first)", path.display()))?;
    schema::validate_artifact(&text).map_err(|e| format!("schema violation: {e}"))?;
    let doc = schema::parse(&text).map_err(|e| e.to_string())?;

    let on = sample_field(&doc, "commit_burst/gc_on/8w", "commits_per_fsync")?;
    let off = sample_field(&doc, "commit_burst/gc_off/8w", "commits_per_fsync")?;
    if on <= 2.0 * off {
        return Err(format!(
            "group commit fails to amortize: {on:.2} commits/fsync with batching \
             vs {off:.2} without (need > 2x)"
        ));
    }
    println!(
        "gate OK: commits/fsync {on:.2} (gc on) vs {off:.2} (gc off), ratio {:.2}",
        on / off
    );

    let mixed_p99 = sample_field(&doc, "mixed_95_5/read/8t", "p99_ns")?;
    let base_p99 = sample_field(&doc, "read_only/read/8t", "p99_ns")?;
    if mixed_p99 > 1.10 * base_p99 {
        return Err(format!(
            "reads degrade under writers: mixed 95/5 read p99 {mixed_p99:.0} ns \
             vs read-only {base_p99:.0} ns (limit +10%)"
        ));
    }
    println!(
        "gate OK: read p99 {mixed_p99:.0} ns under 95/5 load vs {base_p99:.0} ns read-only ({:+.1}%)",
        (mixed_p99 / base_p99 - 1.0) * 100.0
    );
    Ok(())
}
