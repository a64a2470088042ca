//! Zero-copy paged vs flat traversal on a 100k-entry STR tree, plus
//! build throughput — every serving path of the same packed data
//! interleaved in one binary, so the A/B numbers share a process, a
//! warm cache state, and one artifact.
//!
//! The flat rows serve the identical query set from the flat tier
//! (`flat::FlatTree`): `flat` from an owned in-memory buffer, and
//! `flat_mmap` zero-copy from an mmap'ed file — the paged rows above
//! them are the baseline the flat tier must beat. Result-set parity is
//! asserted before timing starts, so a fast-but-wrong kernel cannot
//! produce a benchmark number.
//!
//! Unlike the other benches this one has a custom `main`: after running,
//! it serializes every sample to `BENCH_pack_query.json` at the
//! repository root so the numbers land in a machine-readable artifact
//! next to the human-readable table (the shim's `samples()` accessor
//! exists for exactly this). The artifact follows the repo-wide
//! `{name, config, metrics}` schema documented in DESIGN.md and is
//! schema-checked on emit.

use criterion::{BenchmarkId, Criterion, Throughput};
use geom::Rect2;
use rtree::{NodeCapacity, RTree};
use str_bench::{fresh_pool, uniform_items};
use str_core::PackerKind;

const N: usize = 100_000;

fn bench_build(c: &mut Criterion) {
    // Full build: sort + encode + streamed sequential write.
    let items = uniform_items(N, 7);
    let mut g = c.benchmark_group("pack_100k");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N as u64));
    g.bench_with_input(BenchmarkId::from_parameter("STR"), &items, |b, items| {
        b.iter(|| {
            PackerKind::Str
                .pack(fresh_pool(), items.clone(), NodeCapacity::new(100).unwrap())
                .unwrap()
        })
    });
    g.finish();
}

fn bench_traversal(c: &mut Criterion) {
    let tree: RTree<2> = PackerKind::Str
        .pack(
            fresh_pool(),
            uniform_items(N, 7),
            NodeCapacity::new(100).unwrap(),
        )
        .unwrap();
    let regions = datagen::region_queries(64, &Rect2::unit(), 0.3, 11);
    // Warm the pool so every path measures CPU, not first-touch faults.
    for q in &regions {
        tree.count_region(q).unwrap();
    }

    let mut g = c.benchmark_group("region_query_100k");
    g.sample_size(20);
    let mut i = 0usize;
    g.bench_function(BenchmarkId::from_parameter("zero_copy"), |b| {
        b.iter(|| {
            i = (i + 1) % regions.len();
            let mut n = 0u64;
            tree.query_region_visit(&regions[i], &mut |_, _| n += 1)
                .unwrap();
            n
        })
    });
    let mut i = 0usize;
    g.bench_function(BenchmarkId::from_parameter("zero_copy_iter"), |b| {
        b.iter(|| {
            i = (i + 1) % regions.len();
            tree.iter_region(&regions[i]).count()
        })
    });

    // Flat tier over the same tree: owned buffer and mmap'ed file.
    let flat_owned = flat::FlatTree::from_rtree(&tree).unwrap();
    let flat_path =
        std::env::temp_dir().join(format!("bench-traversal-{}.flat", std::process::id()));
    flat::FlatTree::write_file(&tree, &flat_path).unwrap();
    let flat_mapped = flat::FlatTree::<2>::open(&flat_path).unwrap();
    assert!(flat_mapped.is_mapped());

    // Identical result sets on every probe region, checked before any
    // timing: the speedup below is only meaningful if the answers match.
    for q in &regions {
        let mut want: Vec<u64> = Vec::new();
        tree.query_region_visit(q, &mut |_, id| want.push(id))
            .unwrap();
        want.sort_unstable();
        for (label, f) in [("owned", &flat_owned), ("mmap", &flat_mapped)] {
            let mut got: Vec<u64> = f.query_region(q).into_iter().map(|(_, id)| id).collect();
            got.sort_unstable();
            assert_eq!(got, want, "flat ({label}) diverged from paged on {q:?}");
        }
    }

    let mut i = 0usize;
    g.bench_function(BenchmarkId::from_parameter("flat"), |b| {
        b.iter(|| {
            i = (i + 1) % regions.len();
            let mut n = 0u64;
            flat_owned.for_each_in_region(&regions[i], |_, _| n += 1);
            n
        })
    });
    let mut i = 0usize;
    g.bench_function(BenchmarkId::from_parameter("flat_mmap"), |b| {
        b.iter(|| {
            i = (i + 1) % regions.len();
            let mut n = 0u64;
            flat_mapped.for_each_in_region(&regions[i], |_, _| n += 1);
            n
        })
    });
    g.finish();
    std::fs::remove_file(&flat_path).ok();
}

/// Render the collected samples as the `metrics` object of the repo-wide
/// artifact schema (the shim has no serde, and the schema is flat). Each
/// sample now carries its p50/p90/p99 alongside the historical
/// median/min/max keys — see [`str_bench::sample_json`].
fn render_metrics(c: &Criterion) -> String {
    let mut out = String::from("{\"benchmarks\": [\n");
    for (i, s) in c.samples().iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            str_bench::sample_json(s),
            if i + 1 == c.samples().len() { "" } else { "," }
        ));
    }
    out.push_str("  ]}");
    out
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_build(&mut c);
    bench_traversal(&mut c);
    c.final_summary();
    let config = [
        ("entries", N.to_string()),
        ("capacity", "100".to_string()),
        ("region_queries", "64".to_string()),
    ];
    // Headline ratio: flat tier vs the fastest paged path.
    let median = |label: &str| {
        c.samples()
            .iter()
            .find(|s| s.label == label)
            .map(|s| s.median_ns)
    };
    if let (Some(paged), Some(flat), Some(flat_mmap)) = (
        median("region_query_100k/zero_copy"),
        median("region_query_100k/flat"),
        median("region_query_100k/flat_mmap"),
    ) {
        println!(
            "flat speedup vs paged zero_copy: {:.2}x owned, {:.2}x mmap",
            paged / flat,
            paged / flat_mmap
        );
    }
    match str_bench::write_artifact("pack_query", &config, &render_metrics(&c)) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
}
