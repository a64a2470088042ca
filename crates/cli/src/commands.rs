//! The operations behind each subcommand.

use std::path::Path;
use std::sync::Arc;

use rtree::{NodeCapacity, RTree, SpatialIndex};
use storage::{BufferPool, FileDisk, DEFAULT_PAGE_SIZE};
use str_core::{PackingOrder, TgsPacker, TreeMetrics};

use storage::BufferStats;

use crate::{csvio, CliResult};

/// Render one [`BufferStats`] as a JSON object (shared by `--metrics
/// json` outputs so the schema matches the bench artifacts).
pub fn buffer_stats_json(s: &BufferStats) -> String {
    format!(
        "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"writebacks\": {}, \"coalesced\": {}}}",
        s.hits, s.misses, s.evictions, s.writebacks, s.coalesced
    )
}

/// Which packing algorithm a `--packer` flag names.
pub fn parse_packer(name: &str) -> CliResult<Box<dyn PackingOrder<2>>> {
    match name.to_ascii_lowercase().as_str() {
        "str" => Ok(Box::new(str_core::StrPacker::new())),
        "str-par" | "str-parallel" => Ok(Box::new(str_core::StrPacker::parallel())),
        "hs" | "hilbert" => Ok(Box::new(str_core::HilbertPacker::new())),
        "nx" | "nearest-x" => Ok(Box::new(str_core::NearestXPacker::new())),
        "tgs" => Ok(Box::new(TgsPacker::new())),
        other => Err(format!(
            "unknown packer '{other}' (expected str, str-par, hs, nx, tgs)"
        )),
    }
}

/// Open one named tree of an existing index file behind a buffer of
/// `buffer` pages.
pub fn open_index(path: &Path, buffer: usize, tree: &str) -> CliResult<RTree<2>> {
    let disk = Arc::new(
        FileDisk::open(path, DEFAULT_PAGE_SIZE).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    let pool = Arc::new(BufferPool::new(disk, buffer.max(1)));
    RTree::open_named(pool, tree).map_err(|e| format!("{}: {e}", path.display()))
}

/// `build`: pack a CSV of rectangles into an index file.
///
/// `external_budget` > 0 switches STR to the out-of-core pipeline with
/// that many records of sort memory (ignored for other packers, which
/// have no streaming formulation); `threads` > 1 additionally runs the
/// pipeline's run formation and per-slab pack on worker threads — the
/// resulting file is byte-identical to the single-threaded build.
///
/// With `tree: Some(name)` the pack targets that catalog entry: if
/// `output` already exists it is opened (not truncated), so several
/// named trees can be packed into one file. Without `--tree` the file
/// is created from scratch and the tree lands under the default name.
pub fn build(
    input: &Path,
    output: &Path,
    packer_name: &str,
    capacity: usize,
    external_budget: usize,
    threads: usize,
    tree: Option<&str>,
) -> CliResult<String> {
    let items = csvio::read_items(input)?;
    if items.is_empty() {
        return Err(format!("{}: no rectangles", input.display()));
    }
    let packer = parse_packer(packer_name)?;
    let cap = NodeCapacity::new(capacity)
        .ok_or_else(|| format!("invalid capacity {capacity} (need >= 2)"))?;
    let name = tree.unwrap_or(rtree::DEFAULT_TREE);
    let disk = Arc::new(if tree.is_some() && output.exists() {
        FileDisk::open(output, DEFAULT_PAGE_SIZE)
            .map_err(|e| format!("{}: {e}", output.display()))?
    } else {
        FileDisk::create(output, DEFAULT_PAGE_SIZE)
            .map_err(|e| format!("{}: {e}", output.display()))?
    });
    let pool = Arc::new(BufferPool::new(disk, 1024));
    let n = items.len();
    let mut tree = if external_budget > 0 && packer_name.starts_with("str") {
        let scratch = Arc::new(storage::MemDisk::default_size());
        let opts = str_core::ExternalPackOptions::new(external_budget).threads(threads);
        str_core::pack_str_external_opts(pool, name, scratch, items, cap, opts)
            .map_err(|e| e.to_string())?
    } else {
        str_core::pack_named(pool, name, items, cap, packer.as_ref()).map_err(|e| e.to_string())?
    };
    tree.persist().map_err(|e| e.to_string())?;
    Ok(format!(
        "packed {n} rectangles with {} into {} tree '{name}' ({} levels, {} pages)",
        packer.name(),
        output.display(),
        tree.height(),
        tree.node_count().map_err(|e| e.to_string())?
    ))
}

/// Default sibling path for a flattened tree: `<index>.<tree>.flat`.
pub fn default_flat_path(index: &Path, tree_name: &str) -> std::path::PathBuf {
    let mut os = index.as_os_str().to_os_string();
    os.push(format!(".{tree_name}.flat"));
    std::path::PathBuf::from(os)
}

/// `flatten`: lower a named tree into a flat zero-copy serving file
/// (see the `flat` crate for the wire layout). The file lands next to
/// the index as `<index>.<tree>.flat` unless `--out` says otherwise,
/// and is re-opened and checksum-verified before reporting success.
pub fn flatten(index: &Path, tree_name: &str, out: Option<&Path>) -> CliResult<String> {
    let tree = open_index(index, 1024, tree_name)?;
    let path = out
        .map(Path::to_path_buf)
        .unwrap_or_else(|| default_flat_path(index, tree_name));
    let written = flat::FlatTree::write_file(&tree, &path).map_err(|e| e.to_string())?;
    Ok(format!(
        "flattened tree '{tree_name}' ({} rectangles, {} levels) into {} ({written} bytes)",
        tree.len(),
        tree.height() + 1,
        path.display()
    ))
}

/// Run a region query against any [`SpatialIndex`] backend and render
/// the hits as CSV plus a `#` summary line. The summary reports buffer
/// I/O when the backend is paged and the backend name either way, so
/// the paged, flat and LSM tiers all answer through this one path.
pub fn run_region_query(index: &dyn SpatialIndex<2>, region: &geom::Rect2) -> CliResult<String> {
    let before = index.buffer_stats().unwrap_or_default();
    let hits = index.query(region).map_err(|e| e.to_string())?;
    let stats = index.stats();
    let mut out = String::new();
    for (r, id) in &hits {
        out.push_str(&format!(
            "{},{},{},{},{id}\n",
            r.lo(0),
            r.lo(1),
            r.hi(0),
            r.hi(1)
        ));
    }
    match index.buffer_stats() {
        Some(after) => {
            let io = after.since(&before);
            out.push_str(&format!(
                "# {} hits, {} disk accesses, {} buffer hits\n",
                hits.len(),
                io.misses,
                io.hits
            ));
        }
        None => out.push_str(&format!(
            "# {} hits, {} backend ({} items, {} levels)\n",
            hits.len(),
            stats.backend,
            stats.len,
            stats.levels
        )),
    }
    Ok(out)
}

/// `query --flat` / `point --flat`: serve a region query from a flat
/// file, mmap'ed zero-copy — no buffer pool, no page decoding.
pub fn query_region_flat(path: &Path, region: geom::Rect2) -> CliResult<String> {
    let flat = flat::FlatTree::<2>::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = run_region_query(&flat, &region)?;
    out.push_str(&format!(
        "# served {}\n",
        if flat.is_mapped() {
            "mmap"
        } else {
            "heap copy"
        }
    ));
    Ok(out)
}

type LsmParts = (
    Arc<dyn storage::Disk>,
    Arc<dyn storage::LogStore>,
    Arc<dyn lsm::SegmentStore>,
);

/// The three files/directories of an on-disk LSM tree under `dir`:
/// superblock+meta disk, WAL directory, segment directory. Only
/// `create` makes `dir` and its superblock file; otherwise a directory
/// without one is an error, so a mistyped path never becomes an empty
/// tree.
fn open_lsm_parts(dir: &Path, create: bool) -> CliResult<LsmParts> {
    let index = dir.join("index.v2");
    if create {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    } else if !index.exists() {
        return Err(format!(
            "{}: no LSM tree here (build --lsm creates one)",
            dir.display()
        ));
    }
    let disk: Arc<dyn storage::Disk> = Arc::new(
        if index.exists() {
            FileDisk::open(&index, DEFAULT_PAGE_SIZE)
        } else {
            FileDisk::create(&index, DEFAULT_PAGE_SIZE)
        }
        .map_err(|e| format!("{}: {e}", index.display()))?,
    );
    let log: Arc<dyn storage::LogStore> = storage::FileLogStore::open(dir.join("wal"))
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let segs: Arc<dyn lsm::SegmentStore> = Arc::new(
        lsm::FileSegmentStore::open(dir.join("segments"))
            .map_err(|e| format!("{}: {e}", dir.display()))?,
    );
    Ok((disk, log, segs))
}

/// Open the LSM tree stored under `dir`, running recovery; with
/// `create`, make an empty one there if there is none.
pub fn open_lsm(dir: &Path, opts: lsm::LsmOptions, create: bool) -> CliResult<lsm::LsmTree<2>> {
    let (disk, log, segs) = open_lsm_parts(dir, create)?;
    lsm::LsmTree::open(disk, log, segs, opts).map_err(|e| format!("{}: {e}", dir.display()))
}

/// `query --lsm` / `point --lsm`: answer from an LSM directory.
pub fn query_region_lsm(dir: &Path, region: geom::Rect2) -> CliResult<String> {
    let tree = open_lsm(dir, lsm::LsmOptions::default(), false)?;
    run_region_query(&tree, &region)
}

/// `build --lsm`: ingest a CSV of rectangles into an LSM directory via
/// the durable insert path (every batch WAL-committed), then flush so
/// everything is segment-resident. Unlike `build --output`, this is
/// incremental — running it twice adds both files' rectangles.
pub fn build_lsm(input: &Path, dir: &Path, capacity: usize, threads: usize) -> CliResult<String> {
    let items = csvio::read_items(input)?;
    if items.is_empty() {
        return Err(format!("{}: no rectangles", input.display()));
    }
    let cap = NodeCapacity::new(capacity)
        .ok_or_else(|| format!("invalid capacity {capacity} (need >= 2)"))?;
    let opts = lsm::LsmOptions {
        capacity: cap,
        threads: threads.max(1),
        ..lsm::LsmOptions::default()
    };
    let tree = open_lsm(dir, opts, true)?;
    let n = items.len();
    for batch in items.chunks(1024) {
        tree.insert_batch(batch).map_err(|e| e.to_string())?;
    }
    tree.flush().map_err(|e| e.to_string())?;
    let st = tree.stats();
    Ok(format!(
        "ingested {n} rectangles into {} ({} items across {} flat level(s), {} compaction(s), \
         {:.2} items packed per ingested item)",
        dir.display(),
        st.level_items,
        st.levels,
        st.compactions,
        st.items_packed as f64 / n as f64
    ))
}

/// `delete --lsm`: delete the rectangles listed in a CSV (exact rect +
/// id match, one copy per row) from an LSM directory through the
/// durable delete path, each one WAL-committed before the next. The
/// deletes stay tombstones in the memtable until a later compaction
/// folds them out; reopening replays them from the log.
pub fn delete_lsm(input: &Path, dir: &Path) -> CliResult<String> {
    let items = csvio::read_items(input)?;
    let tree = open_lsm(dir, lsm::LsmOptions::default(), false)?;
    let mut removed = 0u64;
    for (rect, id) in &items {
        if tree.delete(rect, *id).map_err(|e| e.to_string())? {
            removed += 1;
        }
    }
    Ok(format!(
        "deleted {removed} of {} listed rectangles from {}; it now holds {}",
        items.len(),
        dir.display(),
        SpatialIndex::len(&tree)
    ))
}

/// `trees`: list every named tree in the file's catalog.
pub fn trees(index: &Path) -> CliResult<String> {
    let disk: Arc<dyn storage::Disk> = Arc::new(
        FileDisk::open(index, DEFAULT_PAGE_SIZE)
            .map_err(|e| format!("{}: {e}", index.display()))?,
    );
    let alloc = storage::PageAllocator::open(disk.clone())
        .map_err(|e| format!("{}: {e}", index.display()))?;
    let mut out = format!(
        "{:<24} {:<8} {:>4} {:>8} {:>10} {:>7}\n",
        "tree", "kind", "dims", "capacity", "entries", "height"
    );
    for entry in alloc.trees() {
        if flat::parse_segment_file_name(&entry.name).is_some() {
            out.push_str(&segment_row(index, &entry.name));
            continue;
        }
        let meta = rtree::read_tree_meta(disk.as_ref(), &alloc, &entry.name)
            .map_err(|e| format!("{}: tree '{}': {e}", index.display(), entry.name))?;
        out.push_str(&format!(
            "{:<24} {:<8} {:>4} {:>8} {:>10} {:>7}\n",
            entry.name,
            rtree::kind_name(meta.kind),
            meta.dims,
            meta.cap_max,
            meta.len,
            meta.height
        ));
    }
    out.push_str(&format!(
        "{} tree(s), {} free page(s)\n",
        alloc.trees().len(),
        alloc.free_count()
    ));
    Ok(out)
}

/// A `trees` row for an LSM segment: its catalog entry owns no page, so
/// the figures come from the header of its `FLT1` image in the
/// `segments` directory beside the index file (`-` if it cannot be read).
fn segment_row(index: &Path, name: &str) -> String {
    let path = index.with_file_name("segments").join(name);
    let header = std::fs::read(path)
        .ok()
        .and_then(|bytes| flat::Header::parse(&bytes).ok());
    let field =
        |f: fn(&flat::Header) -> u64| header.as_ref().map_or("-".into(), |h| f(h).to_string());
    format!(
        "{:<24} {:<8} {:>4} {:>8} {:>10} {:>7}\n",
        name,
        "segment",
        field(|h| h.dims.into()),
        field(|h| h.node_capacity.into()),
        field(|h| h.num_items),
        field(|h| u64::from(h.num_levels) - 1),
    )
}

/// `gen`: generate a named data set as CSV.
pub fn generate(dataset: &str, n: usize, seed: u64, output: &Path) -> CliResult<String> {
    let ds = match dataset.to_ascii_lowercase().as_str() {
        "uniform" | "points" => datagen::synthetic::synthetic_points(n, seed),
        "squares" => datagen::synthetic::synthetic_squares(n, 5.0, seed),
        "tiger" | "gis" => datagen::tiger::tiger_like(n, seed),
        "vlsi" => datagen::vlsi::vlsi_like(n, seed),
        "cfd" => datagen::cfd::cfd_like(n, seed),
        other => {
            return Err(format!(
                "unknown dataset '{other}' (expected uniform, squares, tiger, vlsi, cfd)"
            ))
        }
    };
    csvio::write_items(output, &ds.items())?;
    Ok(format!(
        "wrote {} rectangles to {}",
        ds.len(),
        output.display()
    ))
}

/// Counter value of `name` in `snap`, 0 if absent.
fn counter_value(snap: &obs::Snapshot, name: &str) -> u64 {
    match snap.get(name) {
        Some(obs::MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// `query`: region query with I/O accounting.
pub fn query_region(
    index: &Path,
    region: geom::Rect2,
    buffer: usize,
    tree_name: &str,
) -> CliResult<String> {
    let tree = open_index(index, buffer, tree_name)?;
    // Registry delta measured around exactly the traced window, so the
    // root span's pages_read must equal it (index-open reads excluded
    // from both).
    let reads_before = counter_value(&obs::snapshot(), "disk.reads");
    let span = obs::trace::span("cli.query");
    let root_span_id = span.as_ref().map(|s| s.id());
    let mut out = run_region_query(&tree, &region)?;
    drop(span);
    let reads_delta = counter_value(&obs::snapshot(), "disk.reads") - reads_before;
    if let Some(span_id) = root_span_id {
        let dump = obs::trace::dump();
        if let Some(root) = dump.iter().find(|r| r.span == span_id) {
            out.push_str(&format!(
                "# trace: pages_read={} physical_reads_delta={}\n",
                root.io.pages_read, reads_delta
            ));
        }
    }
    Ok(out)
}

/// `knn`: k nearest neighbours of a point.
pub fn knn(
    index: &Path,
    at: geom::Point2,
    k: usize,
    buffer: usize,
    tree_name: &str,
) -> CliResult<String> {
    let tree = open_index(index, buffer, tree_name)?;
    let nn = tree.nearest(&at, k).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for (r, id, dist) in nn {
        out.push_str(&format!(
            "{},{},{},{},{id},{dist:.6}\n",
            r.lo(0),
            r.lo(1),
            r.hi(0),
            r.hi(1)
        ));
    }
    Ok(out)
}

/// `stats`: per-level summary plus quality metrics.
pub fn stats(index: &Path, tree_name: &str) -> CliResult<String> {
    let tree = open_index(index, 256, tree_name)?;
    let summary = tree.summary().map_err(|e| e.to_string())?;
    let metrics = TreeMetrics::compute(&tree).map_err(|e| e.to_string())?;
    let mut out = format!(
        "rectangles : {}\nheight     : {}\npages      : {}\nutilization: {:.1}%\n",
        tree.len(),
        tree.height(),
        metrics.nodes,
        metrics.utilization * 100.0
    );
    out.push_str(&format!(
        "leaf  area {:.4}  perimeter {:.2}\ntotal area {:.4}  perimeter {:.2}\n",
        metrics.leaf_area, metrics.leaf_perimeter, metrics.total_area, metrics.total_perimeter
    ));
    out.push_str("level  nodes  entries  area        perimeter\n");
    for l in &summary.levels {
        out.push_str(&format!(
            "{:<6} {:<6} {:<8} {:<11.4} {:.2}\n",
            l.level, l.nodes, l.entries, l.area_sum, l.perimeter_sum
        ));
    }
    Ok(out)
}

/// `validate`: check structural invariants.
pub fn validate(index: &Path, tree_name: &str) -> CliResult<String> {
    let tree = open_index(index, 256, tree_name)?;
    tree.validate(false).map_err(|e| e.to_string())?;
    Ok(format!(
        "{}: OK ({} rectangles, {} levels)",
        index.display(),
        tree.len(),
        tree.height()
    ))
}

/// `check`: fsck-style page walk — verifies that every reachable page
/// decodes (magic, checksum, truncation), that levels step down by one,
/// and that child MBRs stay inside what their parents recorded; reports
/// unreachable pages. It also audits the page allocator: the free-list
/// chain is walked and cross-checked against reachability, so leaked
/// pages (allocated but unreachable from any catalogued tree) and
/// double-frees surface here. Unlike `validate`, it collects every
/// problem instead of stopping at the first, so a damaged index yields a
/// full damage report (and a non-zero exit).
pub fn check(index: &Path, tree_name: &str) -> CliResult<String> {
    let tree = open_index(index, 256, tree_name)?;
    let report = tree.check();
    if report.is_clean() {
        Ok(format!("{}:\n{report}", index.display()))
    } else {
        Err(format!("{}:\n{report}", index.display()))
    }
}

/// `dump-leaves`: leaf MBRs as CSV (plot fodder, as in the paper's
/// Figures 2–4).
pub fn dump_leaves(index: &Path, tree_name: &str) -> CliResult<String> {
    let tree = open_index(index, 256, tree_name)?;
    let leaves = tree.level_mbrs(0).map_err(|e| e.to_string())?;
    let mut out = String::from("xmin,ymin,xmax,ymax\n");
    for mbr in leaves {
        out.push_str(&format!(
            "{},{},{},{}\n",
            mbr.lo(0),
            mbr.lo(1),
            mbr.hi(0),
            mbr.hi(1)
        ));
    }
    Ok(out)
}

/// `compare`: pack the input with every packer and print a quality/IO
/// comparison table — the paper's experiment, on the user's own data.
pub fn compare(input: &Path, capacity: usize, buffer: usize) -> CliResult<String> {
    use std::sync::Arc as StdArc;
    let items = csvio::read_items(input)?;
    if items.is_empty() {
        return Err(format!("{}: no rectangles", input.display()));
    }
    let cap = NodeCapacity::new(capacity).ok_or_else(|| format!("invalid capacity {capacity}"))?;
    // Paper-style probes over the data's bounding box.
    let bbox = geom::Rect2::union_all(items.iter().map(|(r, _)| r));
    let side = 0.1 * bbox.extent(0).max(bbox.extent(1));
    let points = datagen::point_queries(1000, &bbox, 11);
    let regions = datagen::region_queries(1000, &bbox, side, 12);

    let mut out = format!(
        "{:<8} {:>8} {:>8} {:>12} {:>12} {:>12}\n",
        "packer", "pages", "util%", "leaf perim", "pt acc", "1% acc"
    );
    for name in ["str", "hs", "nx", "tgs"] {
        let packer = parse_packer(name)?;
        let disk = StdArc::new(storage::MemDisk::default_size());
        let pool = StdArc::new(BufferPool::new(disk, 1024));
        let tree =
            str_core::pack(pool, items.clone(), cap, packer.as_ref()).map_err(|e| e.to_string())?;
        let m = TreeMetrics::compute(&tree).map_err(|e| e.to_string())?;
        let pool = tree.pool();
        pool.set_capacity(buffer.max(1))
            .map_err(|e| e.to_string())?;
        pool.reset_stats();
        for p in &points {
            tree.query_point(p).map_err(|e| e.to_string())?;
        }
        let pt_acc = pool.stats().misses as f64 / points.len() as f64;
        pool.set_capacity(buffer.max(1))
            .map_err(|e| e.to_string())?;
        pool.reset_stats();
        for q in &regions {
            tree.query_region_visit(q, &mut |_, _| {})
                .map_err(|e| e.to_string())?;
        }
        let rg_acc = pool.stats().misses as f64 / regions.len() as f64;
        out.push_str(&format!(
            "{:<8} {:>8} {:>8.1} {:>12.2} {:>12.2} {:>12.2}\n",
            packer.name(),
            m.nodes,
            m.utilization * 100.0,
            m.leaf_perimeter,
            pt_acc,
            rg_acc
        ));
    }
    Ok(out)
}

/// `query-bench`: serve a mixed query batch through the parallel
/// executor at increasing thread counts and report throughput scaling.
///
/// The index is opened behind a *sharded* pool sized for `threads`
/// workers; the same batch is replayed cold (pool cleared, stats reset)
/// at 1, 2, … up to `threads` workers, so the printed speedups isolate
/// the serving engine rather than cache warm-up luck.
///
/// `metrics` selects the observability rendering: `""` keeps the plain
/// table, `"text"` appends per-run latency percentiles, per-shard
/// buffer counters and the metric registry, `"json"` replaces the
/// table with one JSON document carrying all of it.
pub fn query_bench(
    index: &Path,
    queries: usize,
    threads: usize,
    buffer: usize,
    seed: u64,
    metrics: &str,
    tree_name: &str,
) -> CliResult<String> {
    use rtree::{BatchQuery, QueryExecutor};

    let threads = threads.max(1);
    let disk = Arc::new(
        FileDisk::open(index, DEFAULT_PAGE_SIZE)
            .map_err(|e| format!("{}: {e}", index.display()))?,
    );
    let pool = Arc::new(storage::ShardedBufferPool::for_threads(
        disk,
        buffer.max(1),
        threads,
    ));
    let tree =
        RTree::open_named(pool, tree_name).map_err(|e| format!("{}: {e}", index.display()))?;
    let bbox = tree.root_mbr().map_err(|e| e.to_string())?;
    let side = 0.05 * bbox.extent(0).max(bbox.extent(1));

    let mut batch: Vec<BatchQuery<2>> = Vec::with_capacity(queries);
    for p in datagen::point_queries(queries / 3, &bbox, seed) {
        batch.push(BatchQuery::Point(p));
    }
    for r in datagen::region_queries(queries - queries / 3, &bbox, side, seed + 1) {
        batch.push(BatchQuery::Region(r));
    }

    let exec = QueryExecutor::new(&tree);
    let mut out = format!(
        "{} queries, {}-page pool, {} shards\n{:<8} {:>12} {:>10} {:>10} {:>10}\n",
        batch.len(),
        buffer.max(1),
        tree.pool().shard_count(),
        "threads",
        "queries/s",
        "speedup",
        "hit rate",
        "disk acc"
    );
    let mut base = None;
    let mut t = 1;
    // (report, per-shard stats for that run) — the pool counters are
    // reset before every run, so a post-run per-shard snapshot is
    // exactly that run's traffic.
    let mut runs = Vec::new();
    while t <= threads {
        tree.pool().clear().map_err(|e| e.to_string())?;
        tree.pool().reset_stats();
        let report = exec.run_batch(&batch, t).map_err(|e| e.to_string())?;
        let per_shard = tree.pool().per_shard_stats();
        let qps = report.throughput();
        let base_qps = *base.get_or_insert(qps);
        out.push_str(&format!(
            "{:<8} {:>12.0} {:>9.2}x {:>9.1}% {:>10}\n",
            report.threads,
            qps,
            qps / base_qps,
            report.stats.hit_rate() * 100.0,
            report.stats.misses
        ));
        runs.push((report, per_shard, qps / base_qps));
        if t == threads {
            break;
        }
        t = (t * 2).min(threads);
    }

    match metrics {
        "" => Ok(out),
        "text" => {
            out.push('\n');
            for (report, _, _) in &runs {
                let h = &report.latency;
                out.push_str(&format!(
                    "latency_ns t={}: count={} mean={:.0} p50={} p90={} p99={} max={}\n",
                    report.threads,
                    h.count(),
                    h.mean(),
                    h.percentile(0.50),
                    h.percentile(0.90),
                    h.percentile(0.99),
                    h.max()
                ));
            }
            let (last, per_shard, _) = runs.last().expect("threads >= 1 ran");
            out.push_str(&format!("\nper-shard buffer stats (t={}):\n", last.threads));
            out.push_str(&format!(
                "{:<6} {:>8} {:>8} {:>10} {:>11} {:>10}\n",
                "shard", "hits", "misses", "evictions", "writebacks", "coalesced"
            ));
            for (i, s) in per_shard.iter().enumerate() {
                out.push_str(&format!(
                    "{:<6} {:>8} {:>8} {:>10} {:>11} {:>10}\n",
                    i, s.hits, s.misses, s.evictions, s.writebacks, s.coalesced
                ));
            }
            out.push_str("\n-- metrics --\n");
            out.push_str(&obs::snapshot().render_text());
            Ok(out)
        }
        "json" => {
            let mut j = format!(
                "{{\"queries\": {}, \"pool_pages\": {}, \"shards\": {}, \"runs\": [",
                batch.len(),
                buffer.max(1),
                tree.pool().shard_count()
            );
            for (i, (report, per_shard, speedup)) in runs.iter().enumerate() {
                if i > 0 {
                    j.push_str(", ");
                }
                let shards: Vec<String> = per_shard.iter().map(buffer_stats_json).collect();
                j.push_str(&format!(
                    "{{\"threads\": {}, \"queries_per_sec\": {:.1}, \"speedup\": {:.3}, \
                     \"hit_rate\": {:.4}, \"disk_accesses\": {}, \"latency_ns\": {}, \
                     \"per_thread_queries\": {:?}, \"buffer\": {}, \"per_shard\": [{}]}}",
                    report.threads,
                    report.throughput(),
                    speedup,
                    report.stats.hit_rate(),
                    report.stats.misses,
                    obs::histogram_json(&report.latency),
                    report.per_thread_queries,
                    buffer_stats_json(&report.stats),
                    shards.join(", ")
                ));
            }
            j.push_str(&format!("], \"registry\": {}}}", obs::snapshot().to_json()));
            Ok(j)
        }
        other => Err(format!("--metrics: expected text or json, got '{other}'")),
    }
}

/// `trace`: run a seeded probe workload with span tracing on, report a
/// per-trace summary, and print the most recent records as stitched
/// trees (the same dump a poisoned tree writes to stderr); the caller
/// (main) writes the Chrome trace_event file from the same retained
/// records via [`write_trace`].
///
/// Each probe query runs under its own `cli.query` root span, so the
/// exported file shows one trace per query with the node visits,
/// physical reads (with their page args) and buffer events it caused
/// as the child tree.
pub fn trace_command(
    index: &Path,
    queries: usize,
    buffer: usize,
    seed: u64,
    tree_name: &str,
) -> CliResult<String> {
    obs::set_enabled(true);
    obs::trace::set_enabled(true);
    let tree = open_index(index, buffer, tree_name)?;
    let bbox = tree.root_mbr().map_err(|e| e.to_string())?;
    let side = 0.05 * bbox.extent(0).max(bbox.extent(1));
    for r in datagen::region_queries(queries.max(1), &bbox, side, seed) {
        let _span = obs::trace::span("cli.query");
        tree.query_region_visit(&r, &mut |_, _| {})
            .map_err(|e| e.to_string())?;
    }
    let records = obs::trace::dump();
    let trees = obs::trace::stitch(&records);
    let roots = trees
        .iter()
        .filter(|t| t.record.name == "cli.query")
        .count();
    let max_depth = trees.iter().map(|t| t.depth()).max().unwrap_or(0);
    let slow = obs::trace::slow_ops();
    let mut out = format!(
        "traced {} spans in {} trees ({roots} query roots, max depth {max_depth}, {} dropped)\n",
        records.len(),
        trees.len(),
        obs::trace::spans_dropped(),
    );
    if !slow.is_empty() {
        out.push_str(&format!("slow ops ({}):\n", slow.len()));
        for op in &slow {
            out.push_str(&format!(
                "  {} {}ns trace={} spans={}\n",
                op.root.name,
                op.root.dur_ns,
                op.root.trace,
                op.spans.len()
            ));
        }
    }
    out.push_str("recent records:\n");
    out.push_str(&obs::trace::render_recent());
    Ok(out)
}

/// Export every retained span record as a Chrome trace_event JSON file
/// at `path`. Called by main after any `--trace <path>` run.
pub fn write_trace(path: &Path) -> CliResult<String> {
    let records = obs::trace::dump();
    let json = obs::trace::export_chrome(&records);
    std::fs::write(path, &json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(format!(
        "# wrote {} spans to {} (load in chrome://tracing or Perfetto)\n",
        records.len(),
        path.display()
    ))
}

/// `insert`: add rectangles from a CSV to an existing index (Guttman
/// dynamic insertion), persisting afterwards.
pub fn insert(index: &Path, input: &Path, buffer: usize, tree_name: &str) -> CliResult<String> {
    let items = csvio::read_items(input)?;
    let mut tree = open_index(index, buffer.max(64), tree_name)?;
    let n = items.len();
    for (rect, id) in items {
        tree.insert(rect, id).map_err(|e| e.to_string())?;
    }
    tree.persist().map_err(|e| e.to_string())?;
    Ok(format!(
        "inserted {n} rectangles; index now holds {}",
        tree.len()
    ))
}

/// `delete`: remove rectangles listed in a CSV (exact rect + id match).
pub fn delete(index: &Path, input: &Path, buffer: usize, tree_name: &str) -> CliResult<String> {
    let items = csvio::read_items(input)?;
    let mut tree = open_index(index, buffer.max(64), tree_name)?;
    let mut removed = 0u64;
    for (rect, id) in items {
        if tree.delete(&rect, id).map_err(|e| e.to_string())? {
            removed += 1;
        }
    }
    tree.persist().map_err(|e| e.to_string())?;
    Ok(format!(
        "deleted {removed} rectangles; index now holds {}",
        tree.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEF: &str = rtree::DEFAULT_TREE;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rtree-cli-cmd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn full_lifecycle() {
        let data = tmp("life.csv");
        let index = tmp("life.rtree");

        let msg = generate("uniform", 2000, 7, &data).unwrap();
        assert!(msg.contains("2000"));

        let msg = build(&data, &index, "str", 50, 0, 1, None).unwrap();
        assert!(msg.contains("packed 2000"), "{msg}");

        let msg = validate(&index, DEF).unwrap();
        assert!(msg.contains("OK"));

        let out =
            query_region(&index, geom::Rect2::new([0.0, 0.0], [0.25, 0.25]), 32, DEF).unwrap();
        assert!(out.contains("disk accesses"));

        let out = knn(&index, geom::Point2::new([0.5, 0.5]), 3, 32, DEF).unwrap();
        assert_eq!(out.lines().count(), 3);

        let out = stats(&index, DEF).unwrap();
        assert!(out.contains("utilization"));
        assert!(out.contains("level"));

        let leaves = dump_leaves(&index, DEF).unwrap();
        assert_eq!(leaves.lines().count(), 1 + 2000usize.div_ceil(50));

        // Insert more, delete some.
        let extra = tmp("extra.csv");
        generate("uniform", 100, 8, &extra).unwrap();
        let msg = insert(&index, &extra, 64, DEF).unwrap();
        assert!(msg.contains("2100"), "{msg}");
        let msg = delete(&index, &extra, 64, DEF).unwrap();
        assert!(msg.contains("deleted"), "{msg}");

        std::fs::remove_file(data).ok();
        std::fs::remove_file(index).ok();
        std::fs::remove_file(extra).ok();
    }

    #[test]
    fn flatten_serves_identical_query_results() {
        let data = tmp("flat.csv");
        let index = tmp("flat.rtree");
        generate("uniform", 2500, 17, &data).unwrap();
        build(&data, &index, "str", 50, 0, 1, None).unwrap();

        let msg = flatten(&index, DEF, None).unwrap();
        assert!(msg.contains("2500 rectangles"), "{msg}");
        let flat_path = default_flat_path(&index, DEF);
        assert!(flat_path.exists(), "{}", flat_path.display());

        let region = geom::Rect2::new([0.1, 0.2], [0.5, 0.6]);
        let paged = query_region(&index, region, 32, DEF).unwrap();
        let flat = query_region_flat(&flat_path, region).unwrap();
        // Same hit lines (flat reorders nothing: both emit slot/leaf
        // order), different footer.
        let body = |s: &str| {
            let mut v: Vec<&str> = s.lines().filter(|l| !l.starts_with('#')).collect();
            v.sort_unstable();
            v.join("\n")
        };
        assert_eq!(body(&paged), body(&flat));
        assert!(flat.contains("flat backend"), "{flat}");

        // --out writes where told.
        let alt = tmp("alt.flat");
        flatten(&index, DEF, Some(&alt)).unwrap();
        assert_eq!(
            body(&query_region_flat(&alt, region).unwrap()),
            body(&paged)
        );

        std::fs::remove_file(data).ok();
        std::fs::remove_file(index).ok();
        std::fs::remove_file(flat_path).ok();
        std::fs::remove_file(alt).ok();
    }

    #[test]
    fn check_reports_clean_and_detects_corruption() {
        let data = tmp("chk.csv");
        let index = tmp("chk.rtree");
        generate("uniform", 1000, 13, &data).unwrap();
        build(&data, &index, "str", 50, 0, 1, None).unwrap();

        let msg = check(&index, DEF).unwrap();
        assert!(msg.contains("clean"), "{msg}");

        // Flip a byte in the middle of a node page on disk.
        use std::io::{Read, Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&index)
            .unwrap();
        let off = storage::DEFAULT_PAGE_SIZE as u64 * 2 + 100;
        f.seek(SeekFrom::Start(off)).unwrap();
        let mut byte = [0u8; 1];
        f.read_exact(&mut byte).unwrap();
        byte[0] ^= 0x55;
        f.seek(SeekFrom::Start(off)).unwrap();
        f.write_all(&byte).unwrap();
        drop(f);

        let err = check(&index, DEF).unwrap_err();
        assert!(err.contains("problem"), "{err}");
        // validate (fail-fast) must also refuse the damaged index.
        assert!(validate(&index, DEF).is_err());

        std::fs::remove_file(data).ok();
        std::fs::remove_file(index).ok();
    }

    #[test]
    fn every_packer_name_builds() {
        let data = tmp("packers.csv");
        generate("squares", 500, 9, &data).unwrap();
        for name in ["str", "str-par", "hs", "nx", "tgs"] {
            let index = tmp(&format!("packers-{name}.rtree"));
            let msg = build(&data, &index, name, 20, 0, 1, None).unwrap();
            assert!(msg.contains("packed 500"), "{name}: {msg}");
            validate(&index, DEF).unwrap();
            std::fs::remove_file(index).ok();
        }
        assert!(parse_packer("bogus").is_err());
        std::fs::remove_file(data).ok();
    }

    #[test]
    fn compare_prints_all_packers() {
        let data = tmp("cmp.csv");
        generate("uniform", 800, 10, &data).unwrap();
        let out = compare(&data, 40, 16).unwrap();
        for name in ["STR", "HS", "NX", "TGS"] {
            assert!(out.contains(name), "{name} missing from:\n{out}");
        }
        assert!(out.lines().count() >= 5);
        std::fs::remove_file(data).ok();
    }

    #[test]
    fn external_build_matches_in_memory() {
        let data = tmp("ext.csv");
        generate("uniform", 3000, 12, &data).unwrap();
        let a = tmp("ext-mem.rtree");
        let b = tmp("ext-ext.rtree");
        build(&data, &a, "str", 50, 0, 1, None).unwrap();
        build(&data, &b, "str", 50, 100, 4, None).unwrap();
        assert_eq!(dump_leaves(&a, DEF).unwrap(), dump_leaves(&b, DEF).unwrap());
        std::fs::remove_file(data).ok();
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn query_bench_metrics_modes() {
        let data = tmp("qb.csv");
        let index = tmp("qb.rtree");
        generate("uniform", 3000, 21, &data).unwrap();
        build(&data, &index, "str", 50, 0, 1, None).unwrap();

        let plain = query_bench(&index, 60, 2, 16, 11, "", DEF).unwrap();
        assert!(plain.contains("queries/s"), "{plain}");

        let text = query_bench(&index, 60, 2, 16, 11, "text", DEF).unwrap();
        assert!(text.contains("latency_ns t=1:"), "{text}");
        assert!(text.contains("per-shard buffer stats"), "{text}");

        let json = query_bench(&index, 60, 2, 16, 11, "json", DEF).unwrap();
        for needle in [
            "\"per_shard\": [",
            "\"latency_ns\": {",
            "\"p50\":",
            "\"p90\":",
            "\"p99\":",
            "\"disk_accesses\":",
            "\"per_thread_queries\":",
            "\"registry\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Crude structural check: braces balance, so the document at
        // least nests correctly.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close, "unbalanced JSON:\n{json}");

        assert!(query_bench(&index, 60, 2, 16, 11, "xml", DEF).is_err());

        std::fs::remove_file(data).ok();
        std::fs::remove_file(index).ok();
    }

    #[test]
    fn trace_prints_disk_reads_with_page_args() {
        let data = tmp("tr.csv");
        let index = tmp("tr.rtree");
        generate("uniform", 2000, 31, &data).unwrap();
        build(&data, &index, "str", 50, 0, 1, None).unwrap();

        let out = trace_command(&index, 32, 8, 11, DEF).unwrap();
        obs::trace::set_enabled(false);
        assert!(out.contains("query roots"), "{out}");
        // The stitched dump shows physical reads naming their page and
        // size (other tests may record into the rings meanwhile, so no
        // exact counts).
        let recent = out.split_once("recent records:\n").expect("dump section").1;
        let reads: Vec<&str> = recent
            .lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with("disk.read "))
            .collect();
        assert!(!reads.is_empty(), "{out}");
        let size = format!(" b={DEFAULT_PAGE_SIZE}");
        assert!(reads.iter().all(|l| l.ends_with(&size)), "{out}");
        assert!(reads.iter().any(|l| !l.contains(" a=0 ")), "{out}");

        std::fs::remove_file(data).ok();
        std::fs::remove_file(index).ok();
    }

    #[test]
    fn named_trees_share_one_file() {
        let data_a = tmp("multi-a.csv");
        let data_b = tmp("multi-b.csv");
        let index = tmp("multi.rtree");
        std::fs::remove_file(&index).ok();
        generate("uniform", 600, 41, &data_a).unwrap();
        generate("squares", 400, 42, &data_b).unwrap();

        let msg = build(&data_a, &index, "str", 50, 0, 1, Some("roads")).unwrap();
        assert!(msg.contains("tree 'roads'"), "{msg}");
        let msg = build(&data_b, &index, "hs", 40, 0, 1, Some("parcels")).unwrap();
        assert!(msg.contains("tree 'parcels'"), "{msg}");

        let listing = trees(&index).unwrap();
        assert!(listing.contains("roads"), "{listing}");
        assert!(listing.contains("parcels"), "{listing}");
        assert!(listing.contains("2 tree(s)"), "{listing}");

        // Both trees open and validate independently out of one file.
        let msg = validate(&index, "roads").unwrap();
        assert!(msg.contains("600 rectangles"), "{msg}");
        let msg = validate(&index, "parcels").unwrap();
        assert!(msg.contains("400 rectangles"), "{msg}");
        check(&index, "roads").unwrap();
        check(&index, "parcels").unwrap();
        assert!(validate(&index, "nope").is_err());

        // Re-packing an existing name must be rejected, not clobbered.
        assert!(build(&data_a, &index, "str", 50, 0, 1, Some("roads")).is_err());

        std::fs::remove_file(data_a).ok();
        std::fs::remove_file(data_b).ok();
        std::fs::remove_file(index).ok();
    }

    #[test]
    fn every_dataset_name_generates() {
        for ds in ["uniform", "squares", "tiger", "vlsi", "cfd"] {
            let path = tmp(&format!("gen-{ds}.csv"));
            let msg = generate(ds, 300, 1, &path).unwrap();
            assert!(msg.contains("300"), "{ds}: {msg}");
            std::fs::remove_file(path).ok();
        }
        assert!(generate("bogus", 10, 1, &tmp("x.csv")).is_err());
    }
}
