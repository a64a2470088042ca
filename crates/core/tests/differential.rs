//! Differential tests: the zero-copy [`rtree::NodeView`] read path must
//! be observably identical to the decoded-[`rtree::Node`] path on trees
//! packed by all three of the paper's algorithms.
//!
//! Two angles of attack:
//!
//! 1. Per node: parse every page of a packed tree with both `decode`
//!    (a decoded walk over `NodeStore::read_node`, kept here in test
//!    code) and `NodeView` (via `visit_views`) and compare level, entry
//!    count, and every entry byte for byte.
//! 2. Per query: run the same region queries through the zero-copy
//!    visitor (`query_region_visit`) and a decode-based reference
//!    traversal kept here in test code ([`decoded_query`]) and require
//!    identical result sets in identical order.

use std::collections::HashMap;
use std::sync::Arc;

use geom::Rect;
use rtree::{codec, Entry, NodeCapacity, RTree};
use storage::{BufferPool, MemDisk, PageId};
use str_core::PackerKind;

fn uniform_items(n: usize) -> Vec<(Rect<2>, u64)> {
    // xorshift64*: deterministic scatter without pulling in rand.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let (x, y) = (next(), next());
            let (w, h) = (next() * 0.01, next() * 0.01);
            (Rect::new([x, y], [x + w, y + h]), i as u64)
        })
        .collect()
}

fn packed(kind: PackerKind, n: usize, cap: usize) -> RTree<2> {
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::default_size()), 256));
    kind.pack(pool, uniform_items(n), NodeCapacity::new(cap).unwrap())
        .unwrap()
}

/// Reference region query over fully decoded nodes: each visited page
/// is read through the pool and materialized with `codec::decode`, and
/// entries are matched with `Node::matching`. Same depth-first order as
/// the zero-copy traversal, so results compare in order.
fn decoded_query(tree: &RTree<2>, query: &Rect<2>) -> Vec<(Rect<2>, u64)> {
    let mut out = Vec::new();
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree
            .pool()
            .with_page(page, |bytes| codec::decode::<2>(bytes, page))
            .unwrap()
            .unwrap();
        for e in node.matching(query) {
            if node.is_leaf() {
                out.push((e.rect, e.payload));
            } else {
                stack.push(e.child_page());
            }
        }
    }
    out
}

#[test]
fn view_matches_decode_on_every_node_of_all_packers() {
    for kind in PackerKind::ALL {
        let tree = packed(kind, 5_000, 64);

        // Decoded pass first: snapshot every node.
        let mut decoded: HashMap<PageId, (u32, Vec<Entry<2>>)> = HashMap::new();
        let mut stack = vec![tree.root_page()];
        while let Some(page) = stack.pop() {
            let (level, entries) = tree.store().read_node(page).unwrap();
            if level > 0 {
                stack.extend(entries.iter().map(|e| e.child_page()));
            }
            decoded.insert(page, (level, entries));
        }

        // Zero-copy pass: every node must reproduce the snapshot.
        let mut seen = 0usize;
        tree.visit_views(&mut |page, view| {
            let (level, entries) = decoded.get(&page).unwrap_or_else(|| {
                panic!("{kind}: view walk reached {page} the decoded walk never saw")
            });
            assert_eq!(view.level(), *level, "{kind}: level of {page}");
            assert_eq!(view.len(), entries.len(), "{kind}: count of {page}");
            for (i, want) in entries.iter().enumerate() {
                assert_eq!(view.rect(i), want.rect, "{kind}: rect {i} of {page}");
                assert_eq!(
                    view.payload(i),
                    want.payload,
                    "{kind}: payload {i} of {page}"
                );
                assert_eq!(view.entry(i), *want, "{kind}: entry {i} of {page}");
            }
            assert_eq!(view.to_node().mbr(), view.mbr(), "{kind}: mbr of {page}");
            seen += 1;
        })
        .unwrap();
        assert_eq!(seen, decoded.len(), "{kind}: node counts differ");
    }
}

#[test]
fn zero_copy_queries_match_decoded_reference_on_all_packers() {
    let queries = [
        Rect::new([0.0, 0.0], [1.0, 1.0]),     // everything
        Rect::new([0.2, 0.3], [0.5, 0.6]),     // ~9% region
        Rect::new([0.77, 0.12], [0.78, 0.13]), // tiny
        Rect::new([2.0, 2.0], [3.0, 3.0]),     // empty
    ];
    for kind in PackerKind::ALL {
        let tree = packed(kind, 5_000, 64);
        for q in &queries {
            let mut fast: Vec<(Rect<2>, u64)> = Vec::new();
            tree.query_region_visit(q, &mut |r, id| fast.push((r, id)))
                .unwrap();
            let reference = decoded_query(&tree, q);
            assert_eq!(fast, reference, "{kind}: query {q:?}");

            let streamed: Vec<(Rect<2>, u64)> = tree.iter_region(q).map(|r| r.unwrap()).collect();
            assert_eq!(streamed, reference, "{kind}: iter_region {q:?}");
        }
    }
}

#[test]
fn point_queries_match_region_queries_through_views() {
    let tree = packed(PackerKind::Str, 3_000, 32);
    for &(x, y) in &[(0.25, 0.25), (0.5, 0.9), (0.01, 0.99)] {
        let mut by_point: Vec<u64> = tree
            .query_point(&geom::Point::new([x, y]))
            .unwrap()
            .into_iter()
            .map(|(_, id)| id)
            .collect();
        let mut by_region: Vec<u64> = tree
            .query_region(&Rect::new([x, y], [x, y]))
            .unwrap()
            .into_iter()
            .map(|(_, id)| id)
            .collect();
        by_point.sort_unstable();
        by_region.sort_unstable();
        assert_eq!(by_point, by_region);
    }
}
