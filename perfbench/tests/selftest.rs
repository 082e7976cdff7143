//! Seconds-long self-tests of the benchmark, on the reduced (`smoke`)
//! size of each workload:
//!
//! * the interior digest is identical at 1, 2 and 4 ranks, which the
//!   ownership-independent correctness check relies on;
//! * a non-default seed moves the patch layout and still passes every
//!   correctness check;
//! * the binary emits every metric `BENCHMARK.json` names.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use rbamr_perfbench::{run_rep, seed_shift, Plan, Workload};

const WORKERS: usize = 2;
/// The seed whose shift is zero: the unshifted problem.
const DEFAULT_SEED: u64 = 4;

#[test]
fn default_seed_is_unshifted() {
    assert_eq!(seed_shift(DEFAULT_SEED), 0);
}

#[test]
fn interior_digest_is_independent_of_rank_count() {
    for w in Workload::ALL {
        let digests: Vec<u64> = [1, 2, 4]
            .into_iter()
            .map(|ranks| {
                let size = rbamr_perfbench::Size { ranks, ..w.smoke_size() };
                run_rep(&Plan::new(w, size, DEFAULT_SEED), false, WORKERS).virt.digest
            })
            .collect();
        assert!(
            digests.windows(2).all(|p| p[0] == p[1]),
            "{}: interior digests at 1, 2, 4 ranks differ: {digests:x?}",
            w.name()
        );
    }
}

#[test]
fn another_seed_moves_the_layout_and_stays_correct() {
    for w in Workload::ALL {
        let base = run_rep(&Plan::new(w, w.smoke_size(), DEFAULT_SEED), false, WORKERS);
        for seed in [0, 8] {
            let moved = run_rep(&Plan::new(w, w.smoke_size(), seed), false, WORKERS);
            assert_ne!(base.virt.layout, moved.virt.layout, "{} seed {seed}", w.name());
            assert_ne!(base.virt.digest, moved.virt.digest, "{} seed {seed}", w.name());
            assert_eq!(moved.ops.failed, 0, "{} seed {seed}: failed operations", w.name());
            assert!(
                moved.virt.problems().is_empty(),
                "{} seed {seed}: {:?}",
                w.name(),
                moved.virt.problems()
            );
        }
    }
}

/// The `"name"` values of one metric list of `BENCHMARK.json`.
fn benchmark_names(json: &str, list: &str) -> Vec<String> {
    let start = json.find(&format!("\"{list}\"")).expect("metric list in BENCHMARK.json");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("closing bracket")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn every_named_metric_is_emitted() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let json = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json");
    for w in Workload::ALL {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let names = benchmark_names(&json, list);
            assert!(!names.is_empty(), "no {list} metrics in BENCHMARK.json");
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_rbamr-perfbench"))
                .args(["--workload", w.name(), "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--size", "smoke"])
                .current_dir(&root)
                .output()
                .expect("run the benchmark binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{} trace {trace}: {stdout}", w.name());
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true"), "{} trace {trace}: {last}", w.name());
            for name in &names {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{} trace {trace}: metric {name} missing from {last}",
                    w.name()
                );
            }
            let emitted = last.matches("\"value\"").count();
            assert_eq!(
                emitted,
                names.len(),
                "{} trace {trace}: unlisted metrics in {last}",
                w.name()
            );
        }
    }
}
