//! End-to-end tests of the `rtree-cli` binary as a subprocess.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rtree-cli"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtree-cli-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn gen_build_query_pipeline() {
    let data = tmp("pipe.csv");
    let index = tmp("pipe.rtree");

    let out = bin()
        .args([
            "gen",
            "--dataset",
            "tiger",
            "--n",
            "3000",
            "--seed",
            "2",
            "--output",
        ])
        .arg(&data)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["build", "--packer", "str", "--capacity", "64", "--input"])
        .arg(&data)
        .arg("--output")
        .arg(&index)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("packed 3000"));

    let out = bin()
        .args(["query", "--region", "0.4,0.4,0.6,0.6", "--index"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("disk accesses"), "{stdout}");
    let paged_hits: Vec<String> = stdout
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(str::to_string)
        .collect();

    // Flatten into the sibling .flat file, then serve the same query
    // zero-copy and compare hit sets.
    let out = bin()
        .args(["flatten", "--index"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("flattened"));

    let out = bin()
        .args([
            "query",
            "--region",
            "0.4,0.4,0.6,0.6",
            "--flat",
            "auto",
            "--index",
        ])
        .arg(&index)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let flat_out = String::from_utf8_lossy(&out.stdout);
    assert!(flat_out.contains("flat backend"), "{flat_out}");
    let mut flat_hits: Vec<String> = flat_out
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    let mut want = paged_hits.clone();
    flat_hits.sort();
    want.sort();
    assert_eq!(flat_hits, want, "flat and paged hit sets differ");

    let mut flat_file = index.clone().into_os_string();
    flat_file.push(".default.flat");
    std::fs::remove_file(PathBuf::from(flat_file)).ok();

    let out = bin()
        .args(["stats", "--index"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("utilization"));

    let out = bin()
        .args(["validate", "--index"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}

/// Run the binary, demand success, return stdout.
fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The durable delete beside `build --lsm`: build, delete a listed
/// subset, reopen and query — the deleted rows are gone, deleting them
/// again finds nothing, and re-inserting them brings them back.
#[test]
fn lsm_build_delete_reopen_query_round_trip() {
    let data = tmp("lsm-del.csv");
    let victims = tmp("lsm-victims.csv");
    let dir = tmp("lsm-del.lsm");
    let _ = std::fs::remove_dir_all(&dir);

    run_ok(
        bin()
            .args([
                "gen",
                "--dataset",
                "tiger",
                "--n",
                "2000",
                "--seed",
                "4",
                "--output",
            ])
            .arg(&data),
    );
    run_ok(
        bin()
            .args(["build", "--input"])
            .arg(&data)
            .arg("--lsm")
            .arg(&dir),
    );
    // The header plus the first 300 rows.
    let text = std::fs::read_to_string(&data).unwrap();
    let rows: Vec<&str> = text.lines().take(301).collect();
    std::fs::write(&victims, rows.join("\n") + "\n").unwrap();
    let gone: Vec<u64> = rows[1..]
        .iter()
        .map(|r| r.rsplit(',').next().unwrap().parse().unwrap())
        .collect();

    let out = run_ok(
        bin()
            .args(["delete", "--input"])
            .arg(&victims)
            .arg("--lsm")
            .arg(&dir),
    );
    assert!(out.contains("deleted 300 of 300"), "{out}");

    let query = |dir: &PathBuf| {
        run_ok(
            bin()
                .args(["query", "--region", "0,0,1,1", "--lsm"])
                .arg(dir),
        )
    };
    let out = query(&dir);
    assert!(out.contains("# 1700 hits"), "{out}");
    let ids: Vec<u64> = out
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.rsplit(',').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(ids.len(), 1700);
    assert!(
        ids.iter().all(|id| !gone.contains(id)),
        "a deleted row answered"
    );

    let out = run_ok(
        bin()
            .args(["delete", "--input"])
            .arg(&victims)
            .arg("--lsm")
            .arg(&dir),
    );
    assert!(out.contains("deleted 0 of 300"), "{out}");
    run_ok(
        bin()
            .args(["build", "--input"])
            .arg(&victims)
            .arg("--lsm")
            .arg(&dir),
    );
    assert!(query(&dir).contains("# 2000 hits"));
}

/// `query --lsm --metrics json` reports the memtable scan histogram:
/// block MBRs plus rows tested, one sample per memtable a read scans.
#[test]
fn lsm_query_reports_memtable_rows_tested() {
    let data = tmp("lsm-rows.csv");
    let dir = tmp("lsm-rows.lsm");
    let _ = std::fs::remove_dir_all(&dir);
    run_ok(
        bin()
            .args(["gen", "--dataset", "uniform", "--n", "500", "--output"])
            .arg(&data),
    );
    run_ok(
        bin()
            .args(["build", "--input"])
            .arg(&data)
            .arg("--lsm")
            .arg(&dir),
    );
    let out = run_ok(
        bin()
            .args(["query", "--region", "0,0,1,1", "--metrics", "json", "--lsm"])
            .arg(&dir),
    );
    assert!(out.contains("# 500 hits"), "{out}");
    let key = "\"lsm.memtable.rows_tested\": {\"count\": ";
    let at = out.find(key).unwrap_or_else(|| panic!("no {key} in {out}"));
    let count: u64 = out[at + key.len()..]
        .split(',')
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap();
    assert!(count >= 1, "{out}");
}

/// `trees` on an LSM directory's index file lists each segment as a
/// row of its own, read from the segment's image: its catalog entry
/// owns no meta page to read.
#[test]
fn trees_lists_the_segments_of_an_lsm_directory() {
    let data = tmp("lsm-trees.csv");
    let dir = tmp("lsm-trees.lsm");
    let _ = std::fs::remove_dir_all(&dir);
    run_ok(
        bin()
            .args(["gen", "--dataset", "tiger", "--n", "3000", "--output"])
            .arg(&data),
    );
    run_ok(
        bin()
            .args(["build", "--input"])
            .arg(&data)
            .args(["--capacity", "16", "--lsm"])
            .arg(&dir),
    );
    let out = run_ok(bin().args(["trees", "--index"]).arg(dir.join("index.v2")));
    let rows: Vec<Vec<&str>> = out
        .lines()
        .filter(|l| l.starts_with("seg-"))
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert!(!rows.is_empty(), "{out}");
    for row in &rows {
        assert_eq!(&row[1..4], ["segment", "2", "16"], "{out}");
    }
    let items: u64 = rows.iter().map(|r| r[4].parse::<u64>().unwrap()).sum();
    assert_eq!(items, 3000, "{out}");
    assert!(out.contains(&format!("{} tree(s)", rows.len())), "{out}");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&data).ok();
}

/// Only `build --lsm` creates an LSM directory: a read or a delete
/// aimed at a missing one fails and leaves nothing behind.
#[test]
fn lsm_reads_of_a_missing_directory_fail_without_creating_it() {
    let dir = tmp("missing.lsm");
    let victims = tmp("missing-victims.csv");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::write(&victims, "min_x,min_y,max_x,max_y,id\n0,0,1,1,7\n").unwrap();
    let runs: [&[&str]; 3] = [
        &["query", "--region", "0,0,1,1"],
        &["point", "--at", "0.5,0.5"],
        &["delete", "--input", victims.to_str().unwrap()],
    ];
    for args in runs {
        let out = bin().args(args).arg("--lsm").arg(&dir).output().unwrap();
        assert!(!out.status.success(), "{args:?} succeeded");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("no LSM tree here"), "{args:?}: {err}");
        assert!(!dir.exists(), "{args:?} created {}", dir.display());
    }
}

#[test]
fn query_bench_reports_thread_scaling() {
    let data = tmp("qb.csv");
    let index = tmp("qb.rtree");
    assert!(bin()
        .args(["gen", "--dataset", "uniform", "--n", "5000", "--output"])
        .arg(&data)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["build", "--capacity", "64", "--input"])
        .arg(&data)
        .arg("--output")
        .arg(&index)
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args([
            "query-bench",
            "--queries",
            "64",
            "--threads",
            "4",
            "--buffer",
            "32",
            "--index",
        ])
        .arg(&index)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("queries/s"), "{stdout}");
    // One row per thread count: 1, 2, 4.
    for t in ["1", "2", "4"] {
        assert!(
            stdout.lines().any(|l| l.trim_start().starts_with(t)),
            "missing row for {t} threads:\n{stdout}"
        );
    }
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());

    let out = bin().args(["build", "--input"]).output().unwrap();
    assert!(!out.status.success());

    let out = bin()
        .args([
            "query",
            "--index",
            "/nonexistent.rtree",
            "--region",
            "0,0,1,1",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn knn_outputs_k_lines() {
    let data = tmp("knn.csv");
    let index = tmp("knn.rtree");
    assert!(bin()
        .args(["gen", "--dataset", "uniform", "--n", "500", "--output"])
        .arg(&data)
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(["build", "--input"])
        .arg(&data)
        .arg("--output")
        .arg(&index)
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args(["knn", "--at", "0.5,0.5", "--k", "7", "--index"])
        .arg(&index)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim().lines().count(),
        7
    );
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&index).ok();
}
