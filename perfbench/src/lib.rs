//! End-to-end and per-layer benchmark of the STR R-tree workspace.
//!
//! Three closed-loop workloads run from one client thread against the
//! library's public API, over in-memory devices only. See `README.md`
//! for what each workload and metric means and which layer metric
//! should move which end-to-end metric.

mod build;
mod ingest;
mod paged;
pub mod report;
mod shim;
mod tracer;

use std::collections::BTreeMap;

use geom::Rect2;
use rtree::NodeCapacity;

use report::{median, percentile, Outcome};

/// The paper's node capacity for every workload.
pub(crate) const CAPACITY: usize = 100;
/// Density of the paper's synthetic squares.
pub(crate) const DENSITY: f64 = 5.0;
/// User bytes per 2-D item: a rectangle (4 × f64) and an id (u64).
pub(crate) const USER_BYTES_PER_ITEM: f64 = 40.0;

/// The workloads, by the name the command line takes.
pub const WORKLOADS: [&str; 3] = ["build", "paged_cold", "ingest"];

/// Sizes of one run. [`Scale::full`] is what the benchmark command
/// runs; tests use [`Scale::small`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub build_items: usize,
    pub query_items: usize,
    pub ingest_items: usize,
    /// Instances (set-ups) per untraced run; `setup_s` is the median
    /// of their set-up times.
    pub instances: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            build_items: 2_000_000,
            query_items: 1_000_000,
            ingest_items: 250_000,
            instances: 7,
        }
    }

    pub fn small() -> Scale {
        Scale {
            build_items: 60_000,
            query_items: 200_000,
            ingest_items: 100_000,
            instances: 2,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Worker threads the program may use: the machine's core count.
    pub threads: usize,
}

impl Config {
    pub fn new(seed: u64, seconds: f64, scale: Scale) -> Config {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Config {
            seed,
            seconds,
            scale,
            threads,
        }
    }

    /// A seed for one input stream of this run, distinct per `stream`.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
    }
}

pub(crate) fn capacity() -> NodeCapacity {
    NodeCapacity::new(CAPACITY).expect("capacity 100 is valid")
}

/// The paper's synthetic squares with sequential ids.
pub(crate) fn gen_items(n: usize, seed: u64) -> Vec<(Rect2, u64)> {
    datagen::synthetic::synthetic_squares(n, DENSITY, seed)
        .rects
        .into_iter()
        .zip(0u64..)
        .collect()
}

/// `count` square windows covering `fraction` of the unit square.
pub(crate) fn windows(count: usize, fraction: f64, seed: u64) -> Vec<Rect2> {
    datagen::region_queries(count, &Rect2::unit(), fraction.sqrt(), seed)
}

/// An order-independent digest of a query's result set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    count: u64,
    sum: u64,
    xor: u64,
}

impl Fingerprint {
    #[inline]
    pub fn add(&mut self, id: u64) {
        let h = id.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h.rotate_left(29);
    }

    /// The digest a brute-force scan of `items` gives for `window`.
    pub fn brute(items: &[(Rect2, u64)], window: &Rect2) -> Fingerprint {
        let mut fp = Fingerprint::default();
        for (r, id) in items {
            if r.intersects(window) {
                fp.add(*id);
            }
        }
        fp
    }
}

/// One set-up and the untraced measurement made on it.
///
/// A run sets up several fresh instances and measures each for an equal
/// share of its time. It reports the median over instances of
/// `setup_s`, `items_per_s` and `peak_rss_mb`: on a 2-vCPU Xeon VM, instances of one
/// process differed by up to 15% in query rate (where their buffers
/// landed, which vCPU ran them), while repeated passes on one instance
/// agreed within 2%. Latency percentiles are taken over the samples of
/// every instance together, so each holds enough samples on both sides.
pub(crate) struct Instance {
    pub setup_s: f64,
    /// Peak resident set from the start of this instance's set-up.
    pub peak_rss_mb: f64,
    /// `items_per_s` of this instance.
    pub rate: f64,
    /// Latency of the workload's own op: a build, a query or an insert.
    pub op_ns: Vec<u64>,
    /// Latency of the workload's queries.
    pub read_ns: Vec<u64>,
}

/// The end-to-end figures every workload reports, in the order the
/// result line lists them.
pub(crate) struct EndToEnd {
    pub instances: Vec<Instance>,
    pub write_amp: f64,
    pub space_amp: f64,
}

impl EndToEnd {
    pub fn report(self, out: &mut Outcome) {
        let mut stat = |samples: fn(&Instance) -> &Vec<u64>, q: f64| -> f64 {
            let mut all: Vec<u64> = self.instances.iter().flat_map(samples).copied().collect();
            all.sort_unstable();
            percentile(&all, q).unwrap_or_else(|e| {
                out.errors.push(e);
                0.0
            }) / 1e3
        };
        let op_p50 = stat(|i| &i.op_ns, 0.5);
        let read_p50 = stat(|i| &i.read_ns, 0.5);
        let read_p99 = stat(|i| &i.read_ns, 0.99);
        let mut setup: Vec<f64> = self.instances.iter().map(|i| i.setup_s).collect();
        let mut rate: Vec<f64> = self.instances.iter().map(|i| i.rate).collect();
        let mut rss: Vec<f64> = self.instances.iter().map(|i| i.peak_rss_mb).collect();
        let ok = out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64;
        out.push("setup_s", median(&mut setup), "s");
        out.push("items_per_s", median(&mut rate), "1/s");
        out.push("op_p50_us", op_p50, "us");
        out.push("read_p50_us", read_p50, "us");
        out.push("read_p99_us", read_p99, "us");
        out.push("peak_rss_mb", median(&mut rss), "MB");
        out.push("write_amp", self.write_amp, "ratio");
        out.push("space_amp", self.space_amp, "ratio");
        out.push("ok_op_ratio", ok, "ratio");
    }
}

/// Every per-layer metric with its unit, in the order the result line
/// lists them (and `BENCHMARK.json` names them).
pub(crate) const LAYER_METRICS: [(&str, &str); 32] = [
    ("datagen.gen_s", "s"),
    ("core.sort_s", "s"),
    ("core.scatter_s", "s"),
    ("core.pack_s", "s"),
    ("core.stitch_s", "s"),
    ("extsort.runs", "count"),
    ("extsort.spill_pages_per_item", "pages/item"),
    ("disk.scratch_writes_per_item", "pages/item"),
    ("disk.scratch_reads_per_item", "pages/item"),
    ("disk.dest_writes_per_item", "pages/item"),
    ("disk.reads_per_query", "pages"),
    ("disk.read_us_per_query", "us"),
    ("buffer.hit_rate", "ratio"),
    ("buffer.misses_per_query", "count"),
    ("buffer.evictions_per_query", "count"),
    ("rtree.nodes_visited_per_query", "count"),
    ("rtree.leaf_touches_per_query", "count"),
    ("rtree.query_self_us", "us"),
    ("flat.slots_scanned_per_query", "count"),
    ("flat.hits_per_query", "count"),
    ("flat.query_us", "us"),
    ("lsm.stall_s", "s"),
    ("lsm.compact_busy_s", "s"),
    ("lsm.compactions", "count"),
    ("lsm.segment_bytes_per_item", "B/item"),
    ("lsm.levels_at_read", "count"),
    ("lsm.memtable_items_at_read", "count"),
    ("wal.bytes_per_item", "B/item"),
    ("wal.commits_per_fsync", "ratio"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("obs.trace_overhead", "ratio"),
];

/// Per-layer figures of a traced pass, by metric name.
pub(crate) type Layers = BTreeMap<&'static str, f64>;

/// The layer figures every workload derives the same way from the
/// traced pass's registry delta: the external pack phases and extsort
/// (divided by `per`, the builds or ingest rounds run), and the flat
/// and paged query counters.
pub(crate) fn registry_layers(d: &tracer::RegistryDelta, per: f64, sorted_items: f64) -> Layers {
    let per = per.max(1.0);
    let queries = d.total("rtree.queries").max(1) as f64;
    let flat_queries = d.total("flat.queries").max(1) as f64;
    Layers::from([
        (
            "core.sort_s",
            d.total("external.sort_ns") as f64 / 1e9 / per,
        ),
        (
            "core.scatter_s",
            d.total("external.scatter_ns") as f64 / 1e9 / per,
        ),
        (
            "core.pack_s",
            d.total("external.pack_ns") as f64 / 1e9 / per,
        ),
        (
            "core.stitch_s",
            d.total("external.stitch_ns") as f64 / 1e9 / per,
        ),
        ("extsort.runs", d.total("extsort.runs") as f64 / per),
        (
            "extsort.spill_pages_per_item",
            d.total("extsort.spill_pages") as f64 / sorted_items.max(1.0),
        ),
        (
            "rtree.nodes_visited_per_query",
            d.total("rtree.query.nodes_visited") as f64 / queries,
        ),
        (
            "rtree.leaf_touches_per_query",
            d.total("rtree.query.leaf_touches") as f64 / queries,
        ),
        (
            "flat.slots_scanned_per_query",
            d.total("flat.query.slots_scanned") as f64 / flat_queries,
        ),
        (
            "flat.hits_per_query",
            d.total("flat.query.hits") as f64 / flat_queries,
        ),
        (
            "flat.query_us",
            d.total("flat.query.latency_ns") as f64 / 1e3 / flat_queries,
        ),
    ])
}

/// Report every metric of [`LAYER_METRICS`]; one the workload did not
/// fill, because it does not reach that layer, reads 0.
pub(crate) fn report_layers(layers: &Layers, out: &mut Outcome) {
    for name in layers.keys() {
        out.check(LAYER_METRICS.iter().any(|(n, _)| n == name), || {
            format!("layer metric '{name}' is not in the metric table")
        });
    }
    for (name, unit) in LAYER_METRICS {
        out.push(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// Run one workload. Without `traced`, the run measures
/// [`Scale::instances`] fresh set-ups for an equal share of its time
/// each and reports the end-to-end metrics. With `traced`, it sets up
/// once, makes an untraced and then a traced pass of half the time
/// each, and reports the per-layer metrics.
pub fn run(workload: &str, cfg: &Config, traced: bool) -> Result<Outcome, String> {
    obs::trace::set_ring_capacity(tracer::RING_CAPACITY);
    match workload {
        "build" => build::run(cfg, traced),
        "paged_cold" => paged::run(cfg, traced),
        "ingest" => ingest::run(cfg, traced),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::LAYER_METRICS;

    /// `(name, unit)` of each object after `key` in the benchmark file.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let field = |entry: &str, f: &str| -> String {
            let start = entry.find(&format!("\"{f}\": \"")).expect(f) + f.len() + 5;
            entry[start..].split('"').next().unwrap().to_string()
        };
        let section = &json[json.find(key).expect(key)..];
        let section = &section[..section.find(']').unwrap()];
        section
            .split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn layer_table_matches_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let table: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&json, "\"per_layer\""), table);
    }
}
