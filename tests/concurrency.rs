//! Concurrent read access: queries take `&self` and the buffer pool is
//! internally synchronized, so many readers may share one tree. The
//! multi-threaded tests run under the `within` watchdog, so a deadlock
//! fails them instead of hanging the suite.

use std::sync::Arc;
use std::time::Duration;

use str_rtree::storage::within;

use str_rtree::prelude::*;

#[test]
fn parallel_readers_agree_with_serial() {
    within(Duration::from_secs(120), || {
        let ds = datagen::synthetic::synthetic_squares(20_000, 2.0, 51);
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 128));
        let tree = StrPacker::new()
            .pack(pool, ds.items(), NodeCapacity::new(100).unwrap())
            .unwrap();

        let queries: Vec<geom::Rect2> = datagen::region_queries(64, &geom::Rect2::unit(), 0.15, 52);
        let serial: Vec<usize> = queries
            .iter()
            .map(|q| tree.query_region(q).unwrap().len())
            .collect();

        let parallel: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .chunks(8)
                .map(|chunk| {
                    let tree = &tree;
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|q| tree.query_region(q).unwrap().len())
                            .collect::<Vec<usize>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });

        assert_eq!(serial, parallel);
    });
}

#[test]
fn readers_share_a_tiny_buffer_without_errors() {
    within(Duration::from_secs(120), || {
        // Heavy contention on a 2-frame pool: correctness must hold even
        // while every access evicts someone else's page.
        let ds = datagen::synthetic::synthetic_points(5_000, 53);
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 512));
        let tree = StrPacker::new()
            .pack(pool, ds.items(), NodeCapacity::new(50).unwrap())
            .unwrap();
        tree.pool().set_capacity(2).unwrap();

        let total: u64 = std::thread::scope(|scope| {
            (0..8)
                .map(|t| {
                    let tree = &tree;
                    scope.spawn(move || {
                        let probes =
                            datagen::point_queries(200, &geom::Rect2::unit(), 100 + t as u64);
                        probes
                            .iter()
                            .map(|p| tree.query_point(p).unwrap().len() as u64)
                            .sum::<u64>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        // Point data: queries rarely hit an exact point, but the traversal
        // itself must never error or deadlock. The sum is just a use of the
        // results.
        let _ = total;
        tree.validate(false).unwrap();
    });
}

#[test]
fn streaming_iterators_run_interleaved() {
    let ds = datagen::synthetic::synthetic_squares(5_000, 1.0, 54);
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 64));
    let tree = StrPacker::new()
        .pack(pool, ds.items(), NodeCapacity::new(50).unwrap())
        .unwrap();

    let q1 = geom::Rect2::new([0.0, 0.0], [0.5, 0.5]);
    let q2 = geom::Rect2::new([0.5, 0.5], [1.0, 1.0]);
    let mut it1 = tree.iter_region(&q1);
    let mut it2 = tree.iter_region(&q2);
    let mut n1 = 0;
    let mut n2 = 0;
    loop {
        match (it1.next(), it2.next()) {
            (None, None) => break,
            (a, b) => {
                if let Some(r) = a {
                    r.unwrap();
                    n1 += 1;
                }
                if let Some(r) = b {
                    r.unwrap();
                    n2 += 1;
                }
            }
        }
    }
    assert_eq!(n1, tree.query_region(&q1).unwrap().len());
    assert_eq!(n2, tree.query_region(&q2).unwrap().len());
}
