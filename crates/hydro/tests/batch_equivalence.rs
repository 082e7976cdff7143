//! The batch-equivalence layer: batched + overlapped execution must be
//! observationally identical to the per-patch oracle.
//!
//! Property-tests random hierarchy configurations (deck, rank count,
//! metadata mode, grid size) and asserts, per rank and per step:
//!
//! * the batched run's `state_field_digest` is bitwise identical to
//!   the per-patch oracle's on the event-driven engine;
//! * the batched run is **engine-invariant**: the event-driven and
//!   thread-per-rank netsim engines produce identical digests, device
//!   counters, recorder counters, and causal-edge streams (tags,
//!   occurrences, bytes, and bit-exact virtual costs);
//! * in the many-patch regime the batched executor issues strictly
//!   fewer kernel launches than the oracle;
//! * under fault schedules (message drops and corruption during the
//!   overlapped halo exchange), recovery reproduces the fault-free
//!   digest — which itself equals the oracle's.

use proptest::prelude::*;
use rbamr_amr::MetadataMode;
use rbamr_device::DeviceStats;
use rbamr_hydro::{
    HydroConfig, HydroSim, Placement, RecoveryPolicy, RegionInit, ResilientSim, SimSpec,
};
use rbamr_netsim::{Cluster, Engine, FaultKind, FaultPlan, FaultRule};
use rbamr_perfmodel::Machine;
use rbamr_telemetry::Recorder;
use std::time::Duration;

/// Sod shock tube: the canonical two-state deck.
fn sod_regions() -> Vec<RegionInit> {
    vec![
        RegionInit { rect: (0.0, 0.0, 0.5, 1.0), density: 1.0, energy: 2.5, xvel: 0.0, yvel: 0.0 },
        RegionInit {
            rect: (0.5, 0.0, 1.0, 1.0),
            density: 0.125,
            energy: 2.0,
            xvel: 0.0,
            yvel: 0.0,
        },
    ]
}

/// A three-state blast deck: refines in a different pattern than Sod,
/// so regrids exercise different box structures and batch plans.
fn blast_regions() -> Vec<RegionInit> {
    vec![
        RegionInit { rect: (0.0, 0.0, 1.0, 1.0), density: 0.2, energy: 1.0, xvel: 0.0, yvel: 0.0 },
        RegionInit { rect: (0.3, 0.3, 0.7, 0.7), density: 1.0, energy: 3.0, xvel: 0.0, yvel: 0.0 },
        RegionInit { rect: (0.0, 0.7, 0.3, 1.0), density: 0.5, energy: 1.5, xvel: 0.0, yvel: 0.0 },
    ]
}

#[derive(Clone, Copy, Debug)]
struct RunConfig {
    deck: u8,
    ranks: usize,
    cells: i64,
    mode: MetadataMode,
    steps: usize,
    /// Maximum patch extent in cells, on every level.
    patch: i64,
}

/// Everything observable about one rank of a run: per-step digests,
/// cumulative device transfer/launch statistics, deterministic recorder
/// counters, and the full causal-edge stream.
#[derive(Debug, PartialEq)]
struct RankTrace {
    digests: Vec<u64>,
    device: DeviceStats,
    counters: Vec<(String, u64)>,
    /// (name, peer, tag, occurrence, bytes, cost bits) per edge, in
    /// record order.
    edges: Vec<(String, usize, u64, u64, u64, u64)>,
}

fn run(cfg: RunConfig, engine: Engine, batched: bool) -> Vec<RankTrace> {
    let machine = Machine::ipa_gpu();
    let m = machine.clone();
    let results = Cluster::new(machine)
        .with_engine(engine)
        .with_deadlock_timeout(Duration::from_secs(30))
        .run(cfg.ranks, move |mut comm| {
            let rec = Recorder::new(comm.rank(), comm.clock().clone());
            comm.set_recorder(rec.clone());
            let mut config = HydroConfig {
                regrid_interval: 3,
                max_patch_size: cfg.patch,
                metadata_mode: cfg.mode,
                batched,
                ..HydroConfig::default()
            };
            config.regrid.cluster.min_size = 4;
            config.regrid.max_patch_size = cfg.patch;
            let regions = if cfg.deck == 0 { sod_regions() } else { blast_regions() };
            let mut sim = HydroSim::new(
                m.clone(),
                Placement::Device,
                comm.clock().clone(),
                (1.0, 1.0),
                (cfg.cells, cfg.cells),
                2,
                2,
                config,
                regions,
                comm.rank(),
                comm.size(),
            );
            sim.set_recorder(rec.clone());
            sim.initialize(Some(&comm));
            let mut digests = Vec::new();
            for _ in 0..cfg.steps {
                sim.step(Some(&comm));
                digests.push(sim.state_field_digest());
            }
            let device = sim.device().expect("device placement").stats();
            // Wall-clock counters (`*_ns`) are inherently noisy; every
            // other counter must be engine-invariant.
            let counters =
                rec.counters().into_iter().filter(|(name, _)| !name.ends_with("_ns")).collect();
            let edges = rec
                .edges()
                .into_iter()
                .map(|e| {
                    (e.name.to_string(), e.peer, e.tag, e.occurrence, e.bytes, e.cost.to_bits())
                })
                .collect();
            RankTrace { digests, device, counters, edges }
        });
    let mut out: Vec<_> = results.into_iter().map(|r| (r.rank, r.value)).collect();
    out.sort_by_key(|(rank, _)| *rank);
    out.into_iter().map(|(_, t)| t).collect()
}

/// The core property: batched == oracle physics, and the batched run
/// itself is engine-invariant down to counters and edge costs.
fn check_equivalence(cfg: RunConfig) {
    let oracle = run(cfg, Engine::EventDriven, false);
    let batched = run(cfg, Engine::EventDriven, true);
    let batched_tpr = run(cfg, Engine::ThreadPerRank, true);

    for (rank, (o, b)) in oracle.iter().zip(&batched).enumerate() {
        assert_eq!(
            o.digests, b.digests,
            "{cfg:?}: rank {rank}: batched digests diverge from the per-patch oracle"
        );
    }
    for (rank, (ed, tpr)) in batched.iter().zip(&batched_tpr).enumerate() {
        assert_eq!(
            ed.digests, tpr.digests,
            "{cfg:?}: rank {rank}: digests differ across netsim engines"
        );
        assert_eq!(
            ed.device, tpr.device,
            "{cfg:?}: rank {rank}: device counters differ across netsim engines"
        );
        assert_eq!(
            ed.counters, tpr.counters,
            "{cfg:?}: rank {rank}: recorder counters differ across netsim engines"
        );
        assert_eq!(
            ed.edges, tpr.edges,
            "{cfg:?}: rank {rank}: causal-edge streams differ across netsim engines"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random hierarchies at 1–8 ranks, both decks, both metadata
    /// modes: batched == oracle, and batched is engine-invariant.
    #[test]
    fn random_hierarchies_match_oracle_across_engines(
        deck in prop::sample::select(vec![0u8, 1]),
        ranks in prop::sample::select(vec![1usize, 2, 3, 5, 8]),
        cells in prop::sample::select(vec![24i64, 32]),
        partitioned in any::<bool>(),
    ) {
        let mode = if partitioned { MetadataMode::Partitioned } else { MetadataMode::Replicated };
        check_equivalence(RunConfig { deck, ranks, cells, mode, steps: 3, patch: 8 });
    }
}

/// Fixed corner pins the proptest strategy's ends: the largest rank
/// count with partitioned metadata on the non-Sod deck.
#[test]
fn eight_rank_partitioned_blast_matches() {
    check_equivalence(RunConfig {
        deck: 1,
        ranks: 8,
        cells: 32,
        mode: MetadataMode::Partitioned,
        steps: 3,
        patch: 8,
    });
}

/// With 64-wide patches the interior cores of the early kernels in
/// every window are non-empty, so the interior/boundary split itself
/// runs (8-cell patches mostly degrade to boundary-only passes).
#[test]
fn large_patches_split_interior_and_boundary_and_match() {
    for ranks in [1, 2] {
        check_equivalence(RunConfig {
            deck: 0,
            ranks,
            cells: 64,
            mode: MetadataMode::Replicated,
            steps: 6,
            patch: 64,
        });
    }
}

/// In the many-patch regime (patches per rank ≫ levels) the batched
/// executor issues strictly fewer kernel launches than the per-patch
/// oracle, on every rank, while remaining bitwise identical.
#[test]
fn batched_issues_fewer_launches_in_many_patch_regime() {
    let cfg = RunConfig {
        deck: 0,
        ranks: 2,
        cells: 32,
        mode: MetadataMode::Replicated,
        steps: 4,
        patch: 8,
    };
    let oracle = run(cfg, Engine::EventDriven, false);
    let batched = run(cfg, Engine::EventDriven, true);
    for (rank, (o, b)) in oracle.iter().zip(&batched).enumerate() {
        assert_eq!(o.digests, b.digests, "rank {rank}: digests diverge");
        assert!(
            b.device.kernel_launches < o.device.kernel_launches,
            "rank {rank}: batched issued {} launches, oracle {}",
            b.device.kernel_launches,
            o.device.kernel_launches
        );
    }
}

fn resilient_digests(plan: FaultPlan, batched: bool) -> Vec<u64> {
    let machine = Machine::ipa_gpu();
    let m = machine.clone();
    let results = Cluster::new(machine)
        .with_deadlock_timeout(Duration::from_secs(30))
        .with_fault_plan(plan)
        .run(2, move |comm| {
            let mut config = HydroConfig {
                regrid_interval: 3,
                max_patch_size: 8,
                batched,
                ..HydroConfig::default()
            };
            config.regrid.cluster.min_size = 4;
            config.regrid.max_patch_size = 8;
            let spec = SimSpec {
                machine: m.clone(),
                placement: Placement::Device,
                extent: (1.0, 1.0),
                coarse_cells: (24, 24),
                max_levels: 2,
                ratio: 2,
                config,
                regions: sod_regions(),
                rank: comm.rank(),
                nranks: 2,
            };
            let policy = RecoveryPolicy {
                checkpoint_interval: 3,
                max_retries: 6,
                backoff_base: 0.05,
                ..RecoveryPolicy::default()
            };
            let recorder = Recorder::new(comm.rank(), comm.clock().clone());
            let mut sim = ResilientSim::new(spec, policy, recorder, Some(&comm))
                .expect("resilient sim builds");
            sim.run_steps(6, Some(&comm)).expect("faults are recoverable");
            sim.sim().state_field_digest()
        });
    let mut out: Vec<_> = results.into_iter().map(|r| (r.rank, r.value)).collect();
    out.sort_by_key(|(rank, _)| *rank);
    out.into_iter().map(|(_, d)| d).collect()
}

/// Fault schedules landing during the overlapped exchange: rollback +
/// replay under batching reproduces the fault-free digest, which
/// itself equals the per-patch oracle's.
#[test]
fn fault_recovery_under_batching_reproduces_fault_free_digest() {
    let fault_free_oracle = resilient_digests(FaultPlan::none(), false);
    let fault_free_batched = resilient_digests(FaultPlan::none(), true);
    assert_eq!(
        fault_free_oracle, fault_free_batched,
        "fault-free batched run must match the per-patch oracle"
    );
    for (name, rules) in [
        ("drop", vec![FaultRule::once_on(FaultKind::MsgDrop, 0, 12)]),
        ("corrupt", vec![FaultRule::once_on(FaultKind::MsgCorrupt, 1, 20)]),
        (
            "drop+corrupt",
            vec![
                FaultRule::once_on(FaultKind::MsgDrop, 0, 8),
                FaultRule::once_on(FaultKind::MsgCorrupt, 1, 30),
            ],
        ),
    ] {
        let faulted = resilient_digests(FaultPlan::new(9000, rules), true);
        assert_eq!(
            faulted, fault_free_batched,
            "{name}: batched recovery must reproduce the fault-free digest"
        );
    }
}
