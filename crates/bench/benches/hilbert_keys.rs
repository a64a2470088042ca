//! Cost of the orderings themselves: a Hilbert key is ~100 bit
//! operations per point, an STR comparison is one float compare. This is
//! the "simple to implement" half of the paper's title made measurable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hilbert::{axes_to_index, hilbert_index_f64};
use str_bench::uniform_items;

fn bench_key_computation(c: &mut Criterion) {
    let mut g = c.benchmark_group("hilbert_key");
    g.throughput(Throughput::Elements(1));
    g.bench_function("f64_2d", |b| {
        let mut x = 0.123456f64;
        b.iter(|| {
            x = (x * 1.000001) % 1.0;
            hilbert_index_f64(&[x, 1.0 - x])
        })
    });
    g.bench_function("u32_2d", |b| {
        let mut x = 12345u64;
        b.iter(|| {
            x = (x * 48271) % 0x7FFF_FFFF;
            axes_to_index(&[x & 0xFFFF_FFFF, !x & 0xFFFF_FFFF], 32)
        })
    });
    g.bench_function("f64_3d", |b| {
        let mut x = 0.5f64;
        b.iter(|| {
            x = (x * 1.000001) % 1.0;
            hilbert_index_f64(&[x, 1.0 - x, x * 0.5])
        })
    });
    g.finish();
}

fn bench_orderings(c: &mut Criterion) {
    use rtree::{Entry, NodeCapacity};
    use str_core::{HilbertPacker, NearestXPacker, PackingOrder, StrPacker};

    let mut g = c.benchmark_group("order_100k");
    let items = uniform_items(100_000, 7);
    let entries: Vec<Entry<2>> = items.iter().map(|(r, id)| Entry::data(*r, *id)).collect();
    let cap = NodeCapacity::new(100).unwrap();
    g.throughput(Throughput::Elements(entries.len() as u64));
    g.sample_size(20);

    g.bench_function(BenchmarkId::from_parameter("STR"), |b| {
        b.iter(|| {
            let mut es = entries.clone();
            StrPacker::new().order_level(&mut es, 0, cap);
            es
        })
    });
    g.bench_function(BenchmarkId::from_parameter("HS"), |b| {
        b.iter(|| {
            let mut es = entries.clone();
            HilbertPacker::new().order_level(&mut es, 0, cap);
            es
        })
    });
    g.bench_function(BenchmarkId::from_parameter("NX"), |b| {
        b.iter(|| {
            let mut es = entries.clone();
            NearestXPacker::new().order_level(&mut es, 0, cap);
            es
        })
    });
    g.finish();
}

criterion_group!(benches, bench_key_computation, bench_orderings);
criterion_main!(benches);
