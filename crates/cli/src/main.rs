//! `rtree-cli` — build, query and inspect packed R-tree index files.
//!
//! ```text
//! rtree-cli gen      --dataset tiger --n 53145 --seed 1 --output data.csv
//! rtree-cli build    --input data.csv --output index.rtree [--packer str|str-par|hs|nx|tgs] [--capacity 100] [--external N] [--threads T] [--tree NAME]
//! rtree-cli build    --input data.csv --lsm DIR [--capacity 100] [--threads T]
//! rtree-cli flatten  --index index.rtree [--tree NAME] [--out file.flat]
//! rtree-cli query    --index index.rtree --region 0.1,0.1,0.3,0.3 [--buffer 32] [--flat auto|file.flat]
//! rtree-cli query    --lsm DIR --region 0.1,0.1,0.3,0.3
//! rtree-cli point    --index index.rtree --at 0.5,0.5 [--flat auto|file.flat]
//! rtree-cli point    --lsm DIR --at 0.5,0.5
//! rtree-cli knn      --index index.rtree --at 0.5,0.5 --k 10
//! rtree-cli compare  --input data.csv [--capacity 100] [--buffer 32]
//! rtree-cli query-bench --index index.rtree [--queries 512] [--threads 8] [--buffer 128] [--seed 11]
//! rtree-cli trace    --index index.rtree [--queries 64] [--buffer 16] [--seed 11] [--trace out.json]
//! rtree-cli stats    --index index.rtree
//! rtree-cli validate --index index.rtree
//! rtree-cli check    --index index.rtree
//! rtree-cli dump-leaves --index index.rtree
//! rtree-cli insert   --index index.rtree --input more.csv
//! rtree-cli delete   --index index.rtree --input victims.csv
//! rtree-cli delete   --lsm DIR --input victims.csv
//! rtree-cli trees    --index index.rtree
//! rtree-cli trees    --lsm DIR
//! ```
//!
//! Index files use the v2 on-disk format, which holds several named
//! trees in one file; every command that reads or writes a tree accepts
//! `--tree NAME` (default `default`). `build --tree` packs into an
//! existing file instead of truncating it; `trees` lists the catalog.
//!
//! `flatten` lowers a named tree into a sibling `.flat` file — one
//! contiguous checksummed buffer the flat tier serves zero-copy via
//! mmap. `query --flat auto` (or `--flat path.flat`) answers from that
//! file instead of the paged index.
//!
//! `--lsm DIR` points `build`/`query`/`point`/`delete`/`trees` at an LSM
//! tree directory (`wal/` and `segments/`, its whole durable state — see
//! DESIGN.md §15):
//! `build --lsm` ingests through the durable insert path instead of
//! bulk packing, `delete --lsm` removes through the durable delete
//! path, and queries answer over the memtable plus every flat level
//! through the same `SpatialIndex` interface as the other tiers, and
//! `trees --lsm` lists the segments with each one's seal LSN and fold
//! id. Only `build --lsm` creates the directory; the others fail on a
//! path that holds no LSM tree, and a directory an older build left
//! with an `index.v2` superblock file is refused.
//!
//! Every command additionally accepts `--metrics text|json`, which
//! turns the observability layer on for the run and appends a snapshot
//! of every recorded metric (counters, gauges, latency histograms with
//! p50/p90/p99) to the output. `query-bench` folds the metrics into its
//! own report instead — per-run latency percentiles and per-shard
//! buffer-pool counters, as one JSON document in json mode.
//!
//! `--trace out.json` additionally turns on request-scoped span
//! tracing (see DESIGN.md §14) and writes every retained span to
//! `out.json` in Chrome trace_event format — load it in
//! `chrome://tracing` or Perfetto. `--trace-sample N` records 1-in-N
//! traces; `--slow-ms MS` promotes root spans over the threshold to
//! the slow-op log (reported by the `trace` subcommand).

use std::collections::HashMap;
use std::path::PathBuf;

use rtree_cli::{commands, parse_point, parse_rect, CliResult};

fn usage() -> ! {
    eprintln!(
        "usage: rtree-cli <gen|build|flatten|query|point|knn|stats|validate|check|dump-leaves|insert|delete|compare|query-bench|trace|trees> \
         [--flag value]... [--tree name] [--metrics text|json] [--trace out.json [--trace-sample N] [--slow-ms MS]]\nsee the crate docs for per-command flags"
    );
    std::process::exit(2);
}

struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> CliResult<Self> {
        let mut map = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{}'", args[i]))?;
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Self(map))
    }

    fn req(&self, key: &str) -> CliResult<&str> {
        self.0
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing required --{key}"))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(|s| s.as_str())
    }

    fn opt(&self, key: &str, default: &str) -> String {
        self.0
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> CliResult<T>
    where
        T::Err: std::fmt::Display,
    {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }
}

/// `--flat` target for query/point: `auto` derives the sibling path the
/// `flatten` command writes by default, anything else is the path
/// itself; absent means serve from the paged index.
fn resolve_flat(flags: &Flags, tree: &str) -> CliResult<Option<PathBuf>> {
    match flags.get("flat") {
        None => Ok(None),
        Some("auto") => Ok(Some(commands::default_flat_path(
            &PathBuf::from(flags.req("index")?),
            tree,
        ))),
        Some(path) => Ok(Some(PathBuf::from(path))),
    }
}

/// Dispatch a region query to the backend the flags select: an LSM
/// directory (`--lsm`), a flat file (`--flat`), or the paged index.
fn run_query(flags: &Flags, tree: &str, region: geom::Rect2) -> CliResult<String> {
    if let Some(dir) = flags.get("lsm") {
        return commands::query_region_lsm(&PathBuf::from(dir), region);
    }
    match resolve_flat(flags, tree)? {
        Some(path) => commands::query_region_flat(&path, region),
        None => commands::query_region(
            &PathBuf::from(flags.req("index")?),
            region,
            flags.parse_num("buffer", 32usize)?,
            tree,
        ),
    }
}

fn run() -> CliResult<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    let flags = Flags::parse(rest)?;
    let metrics = flags.opt("metrics", "");
    let tree = flags.opt("tree", rtree::DEFAULT_TREE);
    if !matches!(metrics.as_str(), "" | "text" | "json") {
        return Err(format!("--metrics: expected text or json, got '{metrics}'"));
    }
    if !metrics.is_empty() {
        obs::set_enabled(true);
    }
    // `--trace <path>` turns on span tracing for the run and writes the
    // retained spans to <path> as a Chrome trace_event file afterwards.
    // Tracing implies metrics: span I/O attribution is checked against
    // the registry deltas, so both layers must count the same events.
    let trace_path = flags.get("trace").map(PathBuf::from);
    if trace_path.is_some() {
        obs::set_enabled(true);
        obs::trace::set_enabled(true);
        obs::trace::set_sample_every(flags.parse_num("trace-sample", 1u64)?);
    }
    let slow_ms = flags.parse_num("slow-ms", 0u64)?;
    if slow_ms > 0 {
        obs::trace::set_slow_threshold(std::time::Duration::from_millis(slow_ms));
    }
    let out = match cmd.as_str() {
        "gen" => commands::generate(
            flags.req("dataset")?,
            flags.parse_num("n", 10_000usize)?,
            flags.parse_num("seed", 1u64)?,
            &PathBuf::from(flags.req("output")?),
        ),
        "build" => match flags.get("lsm") {
            Some(dir) => commands::build_lsm(
                &PathBuf::from(flags.req("input")?),
                &PathBuf::from(dir),
                flags.parse_num("capacity", 100usize)?,
                flags.parse_num("threads", 1usize)?,
            ),
            None => commands::build(
                &PathBuf::from(flags.req("input")?),
                &PathBuf::from(flags.req("output")?),
                &flags.opt("packer", "str"),
                flags.parse_num("capacity", 100usize)?,
                flags.parse_num("external", 0usize)?,
                flags.parse_num("threads", 1usize)?,
                flags.get("tree"),
            ),
        },
        "flatten" => commands::flatten(
            &PathBuf::from(flags.req("index")?),
            &tree,
            flags.get("out").map(PathBuf::from).as_deref(),
        ),
        "query" => {
            let region = parse_rect(flags.req("region")?)?;
            run_query(&flags, &tree, region)
        }
        "point" => {
            let p = parse_point(flags.req("at")?)?;
            run_query(&flags, &tree, geom::Rect2::from_point(p))
        }
        "knn" => commands::knn(
            &PathBuf::from(flags.req("index")?),
            parse_point(flags.req("at")?)?,
            flags.parse_num("k", 5usize)?,
            flags.parse_num("buffer", 32usize)?,
            &tree,
        ),
        "compare" => commands::compare(
            &PathBuf::from(flags.req("input")?),
            flags.parse_num("capacity", 100usize)?,
            flags.parse_num("buffer", 32usize)?,
        ),
        "query-bench" => commands::query_bench(
            &PathBuf::from(flags.req("index")?),
            flags.parse_num("queries", 512usize)?,
            flags.parse_num("threads", 8usize)?,
            flags.parse_num("buffer", 128usize)?,
            flags.parse_num("seed", 11u64)?,
            &metrics,
            &tree,
        ),
        "trace" => commands::trace_command(
            &PathBuf::from(flags.req("index")?),
            flags.parse_num("queries", 64usize)?,
            flags.parse_num("buffer", 16usize)?,
            flags.parse_num("seed", 11u64)?,
            &tree,
        ),
        "stats" => commands::stats(&PathBuf::from(flags.req("index")?), &tree),
        "validate" => commands::validate(&PathBuf::from(flags.req("index")?), &tree),
        "check" => commands::check(&PathBuf::from(flags.req("index")?), &tree),
        "dump-leaves" => commands::dump_leaves(&PathBuf::from(flags.req("index")?), &tree),
        "trees" => match flags.get("lsm") {
            Some(dir) => commands::lsm_segments(&PathBuf::from(dir)),
            None => commands::trees(&PathBuf::from(flags.req("index")?)),
        },
        "insert" => commands::insert(
            &PathBuf::from(flags.req("index")?),
            &PathBuf::from(flags.req("input")?),
            flags.parse_num("buffer", 64usize)?,
            &tree,
        ),
        "delete" => match flags.get("lsm") {
            Some(dir) => {
                commands::delete_lsm(&PathBuf::from(flags.req("input")?), &PathBuf::from(dir))
            }
            None => commands::delete(
                &PathBuf::from(flags.req("index")?),
                &PathBuf::from(flags.req("input")?),
                flags.parse_num("buffer", 64usize)?,
                &tree,
            ),
        },
        _ => usage(),
    };
    // Any traced run exports its spans on the way out; the note is a
    // `#` comment line so machine-read outputs stay parseable.
    let out = match (out, &trace_path) {
        (Ok(mut text), Some(path)) => {
            if !text.ends_with('\n') {
                text.push('\n');
            }
            text.push_str(&commands::write_trace(path)?);
            Ok(text)
        }
        (out, _) => out,
    };
    // `query-bench` embeds its metrics (the generic registry dump would
    // corrupt its JSON document); every other command gets the snapshot
    // appended.
    match (out, metrics.as_str(), cmd.as_str()) {
        (Ok(mut text), "text", c) if c != "query-bench" => {
            text.push_str("\n-- metrics --\n");
            text.push_str(&obs::snapshot().render_text());
            Ok(text)
        }
        (Ok(mut text), "json", c) if c != "query-bench" => {
            if !text.ends_with('\n') {
                text.push('\n');
            }
            text.push_str(&obs::snapshot().to_json());
            Ok(text)
        }
        (out, _, _) => out,
    }
}

fn main() {
    match run() {
        Ok(out) => print!("{out}{}", if out.ends_with('\n') { "" } else { "\n" }),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
