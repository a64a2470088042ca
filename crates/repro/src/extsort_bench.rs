//! `repro extsort-bench` — measure the out-of-core STR build across
//! data scales and thread counts and emit `BENCH_extsort.json`.
//!
//! The grid is 10⁶ / 10⁷ / 10⁸ entries × 1 / 4 / 8 worker threads. Each
//! cell streams synthetic rectangles (never materialized as a `Vec` —
//! that would be the in-memory build) into
//! [`str_core::pack_str_external_opts`] over `FileDisk` scratch and
//! destination files wrapped in [`storage::LatencyDisk`], which charges
//! a per-page read latency and a per-request write latency. The latency
//! models a storage device on which sequential batched writes are cheap
//! and random/merge reads dominate — the regime the paper's external
//! sort operates in — and is what makes thread scaling measurable on a
//! single-core host: the 1-thread pipeline reads strictly
//! synchronously, while the `t` workers of the parallel pipeline each
//! merge their own rank range, so their reads and leaf writes overlap.
//!
//! Per cell the artifact records wall time, build throughput
//! (entries/s), and the process peak RSS (`VmHWM`, reset via
//! `clear_refs` before each cell so cells don't inherit each other's
//! high-water mark), plus per-phase seconds and I/O volumes from the
//! `obs` registry.
//!
//! `repro extsort-bench --verify` re-checks the committed artifact's
//! acceptance gates offline (CI runs exactly this):
//!
//! * 8-thread build ≥ 3× the 1-thread build on the 10⁷ cell;
//! * 10⁸ peak RSS ≤ sort budget + threads × slab + fixed allowance —
//!   bounded by the memory model, not by `r`;
//! * 10⁸ peak RSS ≤ 2× the 10⁷ peak at the same thread count (RSS is
//!   governed by budget and slab, not data size).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use geom::Rect;
use rtree::NodeCapacity;
use storage::{BufferPool, Disk, FileDisk, LatencyDisk};
use str_bench::schema::{self, Value};
use str_core::{pack_str_external_opts, ExternalPackOptions};

/// In-memory sort budget, in records (~80 MB of `Entry<2>`).
const BUDGET: usize = 2_000_000;
/// Leaf/node capacity: the most a 4 KiB page holds in 2-D.
const CAP: usize = 101;
const THREADS: [usize; 3] = [1, 4, 8];
/// Bytes per `Entry<2>` (2 × 2 f64 corners + u64 payload).
const ENTRY_BYTES: u64 = 40;
/// RSS the gate grants beyond budget + threads × slab: binary + buffer
/// pool + merge cursors + fence keys + the level-1 parent entries
/// (~40 MB at 10⁸).
const RSS_ALLOWANCE: u64 = 256 * 1024 * 1024;

/// Data scales with their simulated read latency. The 10⁷ cell carries
/// the thread-scaling gate, so it gets the full merge-read cost; the
/// 10⁸ cell exists to demonstrate scale and memory bounds, so its
/// latency is dialed down to keep the grid's wall time sane. Each
/// sample records the latency it ran under.
const SCALES: [(u64, u64); 3] = [(1_000_000, 500), (10_000_000, 500), (100_000_000, 100)];

/// Streaming synthetic rectangles: splitmix64-derived unit-square
/// points with small extents. Yields entries one at a time; memory use
/// is O(1) regardless of `n`.
fn items(n: u64) -> impl Iterator<Item = (Rect<2>, u64)> {
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next01 = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n).map(move |i| {
        let (x, y) = (next01(), next01());
        let (w, h) = (next01() * 1e-4, next01() * 1e-4);
        (Rect::new([x, y], [(x + w).min(1.0), (y + h).min(1.0)]), i)
    })
}

/// Slab size (records) the pipeline will pick for `n` entries at
/// [`CAP`] — the bench repeats the pipeline's arithmetic so the gate's
/// memory model uses the real slab, not a guess.
fn slab_records(n: u64) -> u64 {
    let pages = n.div_ceil(CAP as u64);
    if pages <= 1 {
        n
    } else {
        // ⌈√pages⌉ pages per slab in 2-D (k = 2).
        CAP as u64 * (pages as f64).sqrt().ceil() as u64
    }
}

struct Cell {
    label: String,
    wall: Duration,
    entries: u64,
    peak_rss: Option<u64>,
    read_latency_us: u64,
    /// (name, value) extras from the obs registry delta.
    extras: Vec<(&'static str, f64)>,
}

impl Cell {
    fn render(&self) -> String {
        let ns = self.wall.as_nanos() as f64;
        let mut out = format!(
            "{{\"label\": \"{}\", \"median_ns\": {ns:.0}, \"min_ns\": {ns:.0}, \
             \"max_ns\": {ns:.0}, \"p50_ns\": {ns:.0}, \"p90_ns\": {ns:.0}, \
             \"p99_ns\": {ns:.0}, \"throughput_per_sec\": {:.1}",
            self.label,
            self.entries as f64 / self.wall.as_secs_f64().max(1e-9),
        );
        out.push_str(&format!(
            ", \"peak_rss_bytes\": {}",
            self.peak_rss.map_or(-1.0, |b| b as f64)
        ));
        out.push_str(&format!(", \"read_latency_us\": {}", self.read_latency_us));
        for (k, v) in &self.extras {
            out.push_str(&format!(", \"{k}\": {v:.3}"));
        }
        out.push('}');
        out
    }
}

fn counter_delta(before: &obs::Snapshot, after: &obs::Snapshot, name: &str) -> f64 {
    let read = |s: &obs::Snapshot| match s.get(name) {
        Some(obs::MetricValue::Counter(n)) => *n as f64,
        _ => 0.0,
    };
    read(after) - read(before)
}

fn histogram_sum_delta(before: &obs::Snapshot, after: &obs::Snapshot, name: &str) -> f64 {
    let read = |s: &obs::Snapshot| match s.get(name) {
        Some(obs::MetricValue::Histogram(h)) => h.sum() as f64,
        _ => 0.0,
    };
    read(after) - read(before)
}

fn gauge_value(after: &obs::Snapshot, name: &str) -> f64 {
    match after.get(name) {
        Some(obs::MetricValue::Gauge(v)) => *v as f64,
        _ => 0.0,
    }
}

/// Run one grid cell: build an `n`-entry tree with `threads` workers
/// over latency-wrapped file disks in `dir`.
fn run_cell(
    dir: &std::path::Path,
    n: u64,
    threads: usize,
    latency_us: u64,
) -> Result<Cell, String> {
    let read_lat = Duration::from_micros(latency_us);
    let write_lat = Duration::from_micros(latency_us);

    let scratch_path = dir.join(format!("scratch_{n}_{threads}.disk"));
    let dest_path = dir.join(format!("dest_{n}_{threads}.disk"));
    let scratch: Arc<dyn Disk> = Arc::new(LatencyDisk::with_latencies(
        Arc::new(FileDisk::create(&scratch_path, 4096).map_err(|e| e.to_string())?),
        read_lat,
        write_lat,
    ));
    let dest: Arc<dyn Disk> = Arc::new(LatencyDisk::with_latencies(
        Arc::new(FileDisk::create(&dest_path, 4096).map_err(|e| e.to_string())?),
        read_lat,
        write_lat,
    ));
    let pool = Arc::new(BufferPool::new(dest, 512));

    let rss_probe = obs::rss::PeakProbe::start();
    let before = obs::snapshot();
    let start = Instant::now();
    let tree = pack_str_external_opts(
        pool,
        rtree::DEFAULT_TREE,
        scratch,
        items(n),
        NodeCapacity::new(CAP).unwrap(),
        ExternalPackOptions::new(BUDGET).threads(threads),
    )
    .map_err(|e| e.to_string())?;
    let wall = start.elapsed();
    let after = obs::snapshot();
    let peak_rss = rss_probe.peak_bytes();

    if tree.len() != n {
        return Err(format!("built tree holds {} of {n} entries", tree.len()));
    }
    drop(tree);
    let _ = std::fs::remove_file(&scratch_path);
    let _ = std::fs::remove_file(&dest_path);

    let extras = vec![
        ("budget_bytes", (BUDGET as u64 * ENTRY_BYTES) as f64),
        ("slab_bytes", (slab_records(n) * ENTRY_BYTES) as f64),
        ("threads", threads as f64),
        (
            "spill_pages",
            counter_delta(&before, &after, "extsort.spill_pages"),
        ),
        ("merge_fanin", gauge_value(&after, "extsort.merge_fanin")),
        (
            "sort_s",
            histogram_sum_delta(&before, &after, "external.sort_ns") / 1e9,
        ),
        (
            "scatter_s",
            histogram_sum_delta(&before, &after, "external.scatter_ns") / 1e9,
        ),
        (
            "pack_s",
            histogram_sum_delta(&before, &after, "external.pack_ns") / 1e9,
        ),
        (
            "stitch_s",
            histogram_sum_delta(&before, &after, "external.stitch_ns") / 1e9,
        ),
    ];

    Ok(Cell {
        label: format!("build/n1e{}/{}t", n.ilog10(), threads),
        wall,
        entries: n,
        peak_rss,
        read_latency_us: latency_us,
        extras,
    })
}

fn bench_dir() -> Result<PathBuf, String> {
    let dir = std::env::temp_dir().join(format!("str_extsort_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(dir)
}

/// Run the full grid and emit `BENCH_extsort.json`. With `quick`, run a
/// reduced grid (10⁵/10⁶ × 1/4 threads) for smoke-testing the harness
/// and do NOT write the artifact — quick numbers are not comparable.
pub fn run(quick: bool) -> Result<(), String> {
    obs::set_enabled(true);
    let dir = bench_dir()?;
    let grid: Vec<(u64, u64)> = if quick {
        vec![(100_000, 100), (1_000_000, 100)]
    } else {
        SCALES.to_vec()
    };
    let threads: &[usize] = if quick { &[1, 4] } else { &THREADS };

    let mut cells = Vec::new();
    for &(n, latency_us) in &grid {
        for &t in threads {
            eprintln!("# extsort-bench: n={n} threads={t} (read latency {latency_us} µs/page)");
            let cell = run_cell(&dir, n, t, latency_us)?;
            eprintln!(
                "#   {:20} {:>8.2} s  {:>12.0} entries/s  peak RSS {:>7} MB",
                cell.label,
                cell.wall.as_secs_f64(),
                n as f64 / cell.wall.as_secs_f64(),
                cell.peak_rss.map_or(0, |b| b / (1024 * 1024)),
            );
            cells.push(cell);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    for c in &cells {
        println!(
            "{:20} {:>9.2} s   {:>12.0} entries/s   peak RSS {:>7} MB",
            c.label,
            c.wall.as_secs_f64(),
            c.entries as f64 / c.wall.as_secs_f64().max(1e-9),
            c.peak_rss.map_or(0, |b| b / (1024 * 1024)),
        );
    }
    if quick {
        println!("quick mode: artifact not written");
        return Ok(());
    }

    let rendered: Vec<String> = cells.iter().map(Cell::render).collect();
    let metrics = format!(
        "{{\"benchmarks\": [\n    {}\n  ]}}",
        rendered.join(",\n    ")
    );
    let config = [
        ("budget_records", BUDGET.to_string()),
        ("node_capacity", CAP.to_string()),
        ("entry_bytes", ENTRY_BYTES.to_string()),
        ("threads", "[1, 4, 8]".to_string()),
        (
            "scales",
            format!(
                "[{}]",
                SCALES
                    .iter()
                    .map(|(n, _)| n.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        (
            "read_latency_us",
            format!(
                "[{}]",
                SCALES
                    .iter()
                    .map(|(_, l)| l.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("rss_allowance_bytes", RSS_ALLOWANCE.to_string()),
    ];
    let path =
        str_bench::write_artifact("extsort", &config, &metrics).map_err(|e| e.to_string())?;
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

/// Check the acceptance gates against `BENCH_extsort.json` on disk.
pub fn verify() -> Result<(), String> {
    let path = str_bench::artifact_path("BENCH_extsort.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (run `repro extsort-bench` first)", path.display()))?;
    schema::validate_artifact(&text).map_err(|e| format!("schema violation: {e}"))?;
    let doc = schema::parse(&text).map_err(|e| e.to_string())?;

    // Gate 1: thread scaling on the 10⁷ cell.
    let t1 = sample_field(&doc, "build/n1e7/1t", "median_ns")?;
    let t8 = sample_field(&doc, "build/n1e7/8t", "median_ns")?;
    let speedup = t1 / t8;
    if speedup < 3.0 {
        return Err(format!(
            "parallel build fails to scale: 8-thread is {speedup:.2}x the 1-thread \
             build at 10^7 entries (need >= 3.0x)"
        ));
    }
    println!("gate OK: 10^7 build speedup 8t vs 1t = {speedup:.2}x (>= 3.0x)");

    // Gate 2: 10⁸ peak RSS obeys the memory model — budget + slabs +
    // allowance, with no term proportional to r.
    for threads in THREADS {
        let label = format!("build/n1e8/{threads}t");
        let peak = sample_field(&doc, &label, "peak_rss_bytes")?;
        if peak < 0.0 {
            println!("gate SKIP: {label} has no RSS probe (non-Linux run)");
            continue;
        }
        let budget = sample_field(&doc, &label, "budget_bytes")?;
        let slab = sample_field(&doc, &label, "slab_bytes")?;
        let bound = budget + threads as f64 * slab + RSS_ALLOWANCE as f64;
        if peak > bound {
            return Err(format!(
                "{label}: peak RSS {:.0} MB exceeds memory model {:.0} MB \
                 (budget {:.0} MB + {threads} x slab {:.1} MB + allowance {} MB)",
                peak / 1048576.0,
                bound / 1048576.0,
                budget / 1048576.0,
                slab / 1048576.0,
                RSS_ALLOWANCE / 1048576,
            ));
        }
        println!(
            "gate OK: {label} peak RSS {:.0} MB <= model bound {:.0} MB",
            peak / 1048576.0,
            bound / 1048576.0
        );
    }

    // Gate 3: RSS independent of r — 10x the data must not cost 2x the
    // memory at the same thread count.
    let p7 = sample_field(&doc, "build/n1e7/8t", "peak_rss_bytes")?;
    let p8 = sample_field(&doc, "build/n1e8/8t", "peak_rss_bytes")?;
    if p7 > 0.0 && p8 > 0.0 {
        if p8 > 2.0 * p7 {
            return Err(format!(
                "peak RSS grows with r: {:.0} MB at 10^8 vs {:.0} MB at 10^7 (limit 2x)",
                p8 / 1048576.0,
                p7 / 1048576.0
            ));
        }
        println!(
            "gate OK: peak RSS {:.0} MB at 10^8 vs {:.0} MB at 10^7 ({:.2}x, limit 2x)",
            p8 / 1048576.0,
            p7 / 1048576.0,
            p8 / p7
        );
    }
    Ok(())
}
