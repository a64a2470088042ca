//! Determinism self-test: the counts the program makes must repeat
//! exactly for one seed, and another seed must still pass every check.
//!
//! Runs at a small scale. The registry and span rings are process-wide,
//! so every run happens in this one test, one after another.

use perfbench::{run, Config, Scale, WORKLOADS};

/// End-to-end metrics that are counts, not times.
const E2E_COUNTS: [&str; 2] = ["write_amp", "space_amp"];

/// Per-layer metrics that are counts, not times.
const LAYER_COUNTS: [&str; 8] = [
    "buffer.misses_per_query",
    "disk.reads_per_query",
    "extsort.runs",
    "extsort.spill_pages_per_item",
    "disk.scratch_writes_per_item",
    "disk.scratch_reads_per_item",
    "disk.dest_writes_per_item",
    "lsm.compactions",
];

fn run_ok(workload: &str, seed: u64, traced: bool) -> perfbench::report::Outcome {
    let cfg = Config::new(seed, 0.2, Scale::small());
    let out = run(workload, &cfg, traced).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(
        out.correct(),
        "{workload} seed {seed} traced={traced}: failed {} of {}; {:?}",
        out.failed,
        out.attempted,
        out.errors
    );
    out
}

#[test]
fn counts_repeat_for_a_seed_and_a_second_seed_passes() {
    for w in WORKLOADS {
        for (traced, names) in [(false, &E2E_COUNTS[..]), (true, &LAYER_COUNTS[..])] {
            let a = run_ok(w, 7, traced);
            let b = run_ok(w, 7, traced);
            for name in names {
                let (x, y) = (a.get(name), b.get(name));
                assert!(x.is_some(), "{w}: {name} not reported");
                assert_eq!(
                    x.map(f64::to_bits),
                    y.map(f64::to_bits),
                    "{w}: {name} differs between two runs of seed 7: {x:?} vs {y:?}"
                );
            }
        }
        let other = run_ok(w, 8, false);
        assert_eq!(other.get("ok_op_ratio"), Some(1.0), "{w} seed 8");
    }
}
