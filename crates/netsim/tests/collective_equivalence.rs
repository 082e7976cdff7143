//! Collective-algorithm equivalence: `Flat` is the semantic oracle;
//! the log-depth `RecursiveDoubling` must reproduce its observable
//! results exactly.
//!
//! Random collective scripts run under both algorithms and every
//! *semantic* observable is required to be byte-identical: reduction
//! results (compared as bit patterns), digest words, gathered /
//! broadcast payload bytes, and the algorithm-independent accounting
//! counters (`net.collectives`, `net.collective_bytes`). Wire-level
//! observables (frame counts, causal edges, virtual time) legitimately
//! differ across algorithms, so those are checked for *per-algorithm*
//! self-consistency instead: the event-driven scheduler must match the
//! thread-per-rank oracle counter-for-counter and edge-for-edge under
//! each algorithm, and every algorithm's causal edge stream must form
//! a complete DAG (no unmatched sends, no stalls).
//!
//! `allreduce-sum` contributions are integer-valued so that the
//! differing association orders (arrival order under `Flat`, pairwise
//! butterfly under recursive doubling) produce bit-identical f64 sums.

use bytes::Bytes;
use proptest::prelude::*;
use rbamr_netsim::{Cluster, CollectiveAlgo, Engine};
use rbamr_perfmodel::{Category, Machine, TimeBreakdown};
use rbamr_telemetry::Recorder;

/// One collective in a script; roots are picked modulo the rank count.
#[derive(Clone, Debug)]
enum Op {
    Min,
    Max,
    SumInt,
    Digest,
    Barrier,
    AllGather,
    Gather { root_pick: usize },
    Broadcast { root_pick: usize },
}

/// What a rank observed *semantically* — identical across algorithms.
#[derive(Debug, PartialEq)]
struct Semantics {
    /// Bit patterns of every reduction result / digest word.
    collective_bits: Vec<u64>,
    /// FNV-1a over every gathered / broadcast payload, in order.
    payload_digest: u64,
    /// `net.collectives`: one per issued collective, any algorithm.
    collectives: u64,
    /// `net.collective_bytes`: logical payload bytes, any algorithm.
    collective_bytes: u64,
}

/// Full per-rank observation — identical across *engines* for a fixed
/// algorithm, but not across algorithms.
#[derive(Debug, PartialEq)]
struct Observation {
    sem: Semantics,
    counters: std::collections::BTreeMap<String, u64>,
    edges: Vec<String>,
    time: TimeBreakdown,
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn machine() -> Machine {
    Machine::ipa_cpu_node()
}

/// Deterministic per-(rank, op) payload with varying (possibly zero)
/// lengths so segment framing is exercised across size classes.
fn payload_for(rank: usize, i: usize) -> Bytes {
    let len = (rank * 13 + i * 7) % 50;
    Bytes::from(vec![(rank * 31 + i + 1) as u8; len])
}

fn run_ops(cluster: Cluster, nranks: usize, ops: &[Op]) -> (Vec<Observation>, Vec<Recorder>) {
    let ops = ops.to_vec();
    let results = cluster.run(nranks, move |comm| {
        let clock = comm.clock().clone();
        let mut comm = comm;
        let rec = Recorder::new(comm.rank(), clock);
        comm.set_recorder(rec.clone());
        let r = comm.rank();
        let n = comm.size();
        let mut bits = Vec::new();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Min => bits.push(
                    comm.allreduce_min(r as f64 - i as f64 * 0.5, Category::Timestep).to_bits(),
                ),
                Op::Max => bits.push(
                    comm.allreduce_max((r * 2) as f64 + i as f64, Category::Timestep).to_bits(),
                ),
                // Integer-valued so the sum is exact under any
                // association order (see module docs).
                Op::SumInt => {
                    bits.push(comm.allreduce_sum((r + i) as f64, Category::Other).to_bits())
                }
                Op::Digest => bits.extend_from_slice(&comm.allreduce_digest(
                    [(r * 3 + i) as u64, 1u64 << (r % 64), r as u64 + 1],
                    Category::Regrid,
                )),
                Op::Barrier => comm.barrier(Category::Other),
                Op::AllGather => {
                    let parts = comm.allgatherv(payload_for(r, i), Category::Regrid);
                    assert_eq!(parts.len(), n);
                    for p in &parts {
                        fnv1a(&mut h, p);
                    }
                }
                Op::Gather { root_pick } => {
                    match comm.gather(root_pick % n, payload_for(r, i), Category::Regrid) {
                        Some(parts) => {
                            assert_eq!(parts.len(), n, "root sees every rank's part");
                            for p in &parts {
                                fnv1a(&mut h, p);
                            }
                        }
                        None => fnv1a(&mut h, b"\xffnot-root"),
                    }
                }
                Op::Broadcast { root_pick } => {
                    let root = root_pick % n;
                    let mine = (r == root).then(|| payload_for(root, i));
                    let got = comm.broadcast(root, mine, Category::Regrid).expect("fault-free");
                    assert_eq!(got, payload_for(root, i));
                    fnv1a(&mut h, &got);
                }
            }
        }
        let counters = rec.counters();
        let sem = Semantics {
            collective_bits: bits,
            payload_digest: h,
            collectives: *counters.get("net.collectives").unwrap_or(&0),
            collective_bytes: *counters.get("net.collective_bytes").unwrap_or(&0),
        };
        let obs = Observation {
            sem,
            counters,
            edges: rec.edges().iter().map(|e| format!("{e:?}")).collect(),
            time: comm.clock().snapshot(),
        };
        (obs, rec)
    });
    results.into_iter().map(|r| r.value).unzip()
}

const ALGOS: [CollectiveAlgo; 2] = [CollectiveAlgo::Flat, CollectiveAlgo::RecursiveDoubling];

/// Run `ops` under every algorithm and check the equivalence contract.
fn check_algorithms(nranks: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut oracle: Option<Vec<Observation>> = None;
    for algo in ALGOS {
        let (sched, recs) =
            run_ops(Cluster::new(machine()).with_collectives(algo).with_workers(3), nranks, ops);
        // Per-algorithm: the causal edge stream must be a complete DAG.
        let analysis = rbamr_telemetry::analyze(&recs)
            .unwrap_or_else(|e| panic!("causal analysis under {algo:?}: {e}"));
        prop_assert_eq!(analysis.unmatched_sends, 0, "unmatched sends under {:?}", algo);
        // Per-algorithm: engine choice must not change any observable.
        let (threads, _) = run_ops(
            Cluster::new(machine()).with_collectives(algo).with_engine(Engine::ThreadPerRank),
            nranks,
            ops,
        );
        prop_assert_eq!(&sched, &threads, "engines diverged under {:?}", algo);
        // Cross-algorithm: semantics must match the Flat oracle.
        match &oracle {
            None => oracle = Some(sched),
            Some(flat) => {
                for (f, s) in flat.iter().zip(&sched) {
                    prop_assert_eq!(&f.sem, &s.sem, "{:?} diverged from Flat", algo);
                }
            }
        }
    }
    Ok(())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..8, 0usize..1024).prop_map(|(kind, root_pick)| match kind {
        0 => Op::Min,
        1 => Op::Max,
        2 => Op::SumInt,
        3 => Op::Digest,
        4 => Op::Barrier,
        5 => Op::AllGather,
        6 => Op::Gather { root_pick },
        _ => Op::Broadcast { root_pick },
    })
}

proptest! {
    // Each case runs the script four times (two algorithms, two
    // engines each); modest rank counts keep the suite fast while
    // covering power-of-two, odd, and prime communicator sizes.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_scripts_are_algorithm_invariant(
        nranks in 2usize..48,
        ops in prop::collection::vec(op_strategy(), 1..6),
    ) {
        check_algorithms(nranks, &ops)?;
    }
}

#[test]
fn fixed_script_is_algorithm_invariant_across_sizes() {
    // Deterministic sweep over the boundary sizes the proptest may
    // miss: 2 (trivial trees), primes, non-powers-of-two (recursive
    // doubling's proxy phase), and an exact power of two.
    let ops = [
        Op::AllGather,
        Op::Min,
        Op::Gather { root_pick: 3 },
        Op::Digest,
        Op::Broadcast { root_pick: 5 },
        Op::SumInt,
        Op::Barrier,
        Op::Max,
    ];
    for nranks in [2usize, 3, 5, 7, 12, 33, 64, 100] {
        check_algorithms(nranks, &ops).unwrap_or_else(|e| panic!("{nranks} ranks: {e}"));
    }
}

#[test]
fn log_depth_allgatherv_is_algorithm_invariant_at_512_ranks() {
    // The issue's headline claim at the top of the tested rank range:
    // identical allgatherv results with O(N log N) (recursive
    // doubling) frames instead of Flat's O(N^2). Frame counts are read back from the `net.sends`
    // counters, which include collective-internal plumbing traffic.
    let nranks = 512usize;
    let ops = [Op::AllGather];
    let mut flat_sem: Option<Vec<Semantics>> = None;
    for algo in ALGOS {
        let (obs, _) =
            run_ops(Cluster::new(machine()).with_collectives(algo).with_workers(4), nranks, &ops);
        let frames: u64 =
            obs.iter().map(|o| o.counters.get("net.sends").copied().unwrap_or(0)).sum();
        let bound = match algo {
            // Every rank sends to every other rank.
            CollectiveAlgo::Flat => (nranks * (nranks - 1)) as u64,
            // ceil(log2 N) butterfly rounds, one frame per rank per
            // round, plus slack for the non-power-of-two proxy phase
            // (absent at 512).
            CollectiveAlgo::RecursiveDoubling => (nranks * (nranks.ilog2() as usize + 2)) as u64,
        };
        assert!(
            frames <= bound,
            "{algo:?}: {frames} frames for one allgatherv at {nranks} ranks (bound {bound})"
        );
        if algo == CollectiveAlgo::Flat {
            assert_eq!(frames, bound, "flat fan-out is exactly N*(N-1) frames");
        }
        let sem: Vec<Semantics> = obs.into_iter().map(|o| o.sem).collect();
        match &flat_sem {
            None => flat_sem = Some(sem),
            Some(flat) => assert_eq!(flat, &sem, "{algo:?} diverged from Flat at 512 ranks"),
        }
    }
}

#[test]
fn generic_entry_point_matches_legacy_wrappers() {
    use rbamr_netsim::collectives::f64_words;
    use rbamr_netsim::{CollectiveOp, ReduceSpec};
    for algo in ALGOS {
        let results = Cluster::new(machine()).with_collectives(algo).run(5, move |comm| {
            let r = comm.rank() as f64;
            let wrapper = comm.allreduce_min(r, Category::Timestep);
            let generic = comm
                .collective(
                    CollectiveOp::Reduce { spec: ReduceSpec::MIN_F64, words: f64_words(r) },
                    Category::Timestep,
                )
                .reduced();
            assert_eq!(wrapper.to_bits(), generic[0], "min wrapper == generic");
            let wrapper =
                comm.allgatherv(Bytes::from(vec![comm.rank() as u8; 3]), Category::Regrid);
            let generic = comm
                .collective(
                    CollectiveOp::AllGather { payload: Bytes::from(vec![comm.rank() as u8; 3]) },
                    Category::Regrid,
                )
                .gathered();
            assert_eq!(wrapper, generic, "allgatherv wrapper == generic");
            comm.collective_algo()
        });
        for r in &results {
            assert_eq!(r.value, algo, "cluster knob reaches every rank");
        }
    }
}
