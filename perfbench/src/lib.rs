//! The repository benchmark: three named workloads run through the
//! public `rbamr` API, timed on two clocks.
//!
//! * **virtual** — the modelled K20x/Titan cluster (`perfmodel`): fully
//!   deterministic, so every virtual metric, counter and digest must
//!   repeat bit for bit across repetitions, processes and traced runs.
//! * **host** — what the simulator costs to run on this machine.
//!
//! One *repetition* ([`run_rep`]) spawns a simulated cluster, builds and
//! initialises the simulation (set-up), then runs the workload's fixed
//! operation schedule (the timed loop). A traced repetition additionally
//! attaches a telemetry `Recorder` to every rank and, after the loop,
//! times out-of-band probes into single layers (collectives, schedule
//! builds, fills, box-index queries, SFC partitioning, checkpoint file
//! I/O). Every probe runs after the loop's virtual clock snapshot, so
//! probes never move a virtual metric.

use rbamr::amr::balance::partition_sfc;
use rbamr::amr::restart::Database;
use rbamr::amr::schedule::{CoarsenSpec, FillSpec};
use rbamr::amr::{GridGeometry, PatchHierarchy, ScheduleBuild, VariableRegistry};
use rbamr::device::{Device, DeviceStats};
use rbamr::geometry::{
    BoxIndex, BoxList, BoxOverlap, Centring, Fnv64, GBox, IntVector, UnorderedDigest,
};
use rbamr::gpu_amr::ops as dev_ops;
use rbamr::gpu_amr::DeviceDataFactory;
use rbamr::hydro::state::GHOSTS;
use rbamr::hydro::{
    Fields, HydroConfig, HydroSim, MetadataMode, Placement, ReflectiveBoundary, RegionInit,
};
use rbamr::netsim::{Cluster, Comm, Engine};
use rbamr::perfmodel::{Category, Clock, Machine, TimeBreakdown};
use rbamr::problems::sedov::sedov_regions;
use rbamr::problems::sod::sod_exact;
use rbamr::problems::{sod_regions, triple_point_regions, TRIPLE_POINT_EXTENT};
use rbamr::telemetry::{analyze, Buckets, Recorder};
use std::sync::Arc;
use std::time::Instant;

/// Levels of every workload's hierarchy (the paper: 3 levels, ratio 2).
const LEVELS: usize = 3;

/// Per-rank carrier stack. 256 simulated ranks with the std default
/// would reserve 2 GiB of address space; 2 MiB is ample for the solver.
const STACK_BYTES: usize = 2 << 20;

/// Environment variables that silently override the `Cluster` builder;
/// the benchmark refuses to run while any is set.
pub const NETSIM_OVERRIDES: [&str; 4] = [
    "RBAMR_NETSIM_ENGINE",
    "RBAMR_NETSIM_WORKERS",
    "RBAMR_NETSIM_COLLECTIVES",
    "RBAMR_NETSIM_STACK_KB",
];

/// The benchmark workloads. Each stresses a different cost regime, so a
/// gain in one regime cannot hide a loss in another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Sod on one rank, K20x model, per-patch launches, few large
    /// patches: the paper's Fig. 9 kernel-bound regime. No point-to-point
    /// traffic, no metadata exchange.
    SodSerial,
    /// Triple point on 256 Titan ranks, partitioned metadata, batched
    /// launches with comm/compute overlap, 16-cell patches: the paper's
    /// Fig. 11 launch- and communication-bound regime, with the steady
    /// read path (fills through cached schedules) between regrids.
    TriplePointWeak,
    /// Sedov blast on 4 ranks, replicated metadata, per-patch launches,
    /// a regrid every step while the front expands (hierarchy rebuilds,
    /// solution transfer), in-memory checkpoints and rollbacks.
    SedovRegridCkpt,
}

/// Problem size of one repetition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    /// Level-0 cells `(nx, ny)`.
    pub coarse: (i64, i64),
    /// Simulated ranks.
    pub ranks: usize,
    /// Iterations of the timed loop (one hydro step each).
    pub iters: usize,
}

/// What one loop iteration does besides its step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterOps {
    pub regrid: bool,
    pub save: bool,
    pub restore: bool,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::SodSerial, Workload::TriplePointWeak, Workload::SedovRegridCkpt];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SodSerial => "sod_serial",
            Workload::TriplePointWeak => "triple_point_weak",
            Workload::SedovRegridCkpt => "sedov_regrid_ckpt",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured size.
    pub fn full_size(self) -> Size {
        match self {
            Workload::SodSerial => Size { coarse: (384, 384), ranks: 1, iters: 20 },
            // fig11_weak's scale runs: 256 coarse cells per rank.
            Workload::TriplePointWeak => Size { coarse: (392, 168), ranks: 256, iters: 12 },
            Workload::SedovRegridCkpt => Size { coarse: (128, 128), ranks: 4, iters: 40 },
        }
    }

    /// A seconds-long reduced size with the same operation schedule.
    pub fn smoke_size(self) -> Size {
        match self {
            Workload::SodSerial => Size { coarse: (64, 64), ranks: 1, iters: 10 },
            Workload::TriplePointWeak => Size { coarse: (56, 24), ranks: 8, iters: 6 },
            Workload::SedovRegridCkpt => Size { coarse: (48, 48), ranks: 4, iters: 10 },
        }
    }

    fn machine(self) -> Machine {
        match self {
            Workload::TriplePointWeak => Machine::titan(),
            Workload::SodSerial | Workload::SedovRegridCkpt => Machine::ipa_gpu(),
        }
    }

    /// The fixed operation schedule: iteration `i` (0-based) always
    /// steps, then does these.
    pub fn iter_ops(self, i: usize) -> IterOps {
        let n = i + 1;
        match self {
            Workload::SodSerial => IterOps { regrid: n.is_multiple_of(10), ..IterOps::default() },
            // Every third iteration regrids: the regrid iterations stay a
            // minority, so the median iteration is a plain step and the
            // slowest iteration is a regrid.
            Workload::TriplePointWeak => {
                IterOps { regrid: n.is_multiple_of(3), ..IterOps::default() }
            }
            // Checkpoint every 5 steps; two steps after every other
            // checkpoint, roll back to it and replay (what `ResilientSim`
            // does after a fault).
            Workload::SedovRegridCkpt => {
                IterOps { regrid: true, save: n.is_multiple_of(5), restore: n % 10 == 7 }
            }
        }
    }
}

/// One workload instance: what, how big, and the seed's displacement of
/// the initial discontinuity.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub size: Size,
    /// Whole coarse cells by which the seed moves the diaphragm,
    /// material interface or blast centre.
    pub shift: i64,
}

/// The seed's displacement of the initial discontinuity, in whole
/// coarse cells: one of -4..=4. Patch layout and refinement move with it
/// while the cost regime stays the same.
pub fn seed_shift(seed: u64) -> i64 {
    (seed % 9) as i64 - 4
}

impl Plan {
    pub fn new(workload: Workload, size: Size, seed: u64) -> Self {
        Self { workload, size, shift: seed_shift(seed) }
    }

    fn extent(&self) -> (f64, f64) {
        match self.workload {
            Workload::TriplePointWeak => TRIPLE_POINT_EXTENT,
            Workload::SodSerial | Workload::SedovRegridCkpt => (1.0, 1.0),
        }
    }

    /// Coarse cell width `(dx, dy)`.
    fn dx(&self) -> (f64, f64) {
        let (ex, ey) = self.extent();
        (ex / self.size.coarse.0 as f64, ey / self.size.coarse.1 as f64)
    }

    /// The Sod diaphragm position for this seed.
    pub fn diaphragm(&self) -> f64 {
        0.5 + self.shift as f64 * self.dx().0
    }

    fn regions(&self) -> Vec<RegionInit> {
        let (dx, dy) = self.dx();
        let (sx, sy) = (self.shift as f64 * dx, self.shift as f64 * dy);
        match self.workload {
            Workload::SodSerial => {
                let x0 = self.diaphragm();
                let mut r = sod_regions();
                r[0].rect.2 = x0;
                r[1].rect.0 = x0;
                r
            }
            Workload::TriplePointWeak => {
                let mut r = triple_point_regions();
                r[0].rect.2 += sx;
                r[1].rect.0 += sx;
                r[1].rect.3 += sy;
                r[2].rect.0 += sx;
                r[2].rect.1 += sy;
                r
            }
            Workload::SedovRegridCkpt => {
                // Hot square twelve coarse cells wide: a ring large enough
                // that most regrids move some box.
                let mut r = sedov_regions(1.0, 6.0 * dx, 8.0);
                let hot = &mut r[1].rect;
                *hot = (hot.0 + sx, hot.1 + sx, hot.2 + sx, hot.3 + sx);
                r
            }
        }
    }

    fn config(&self) -> HydroConfig {
        let (max_patch, metadata_mode, batched) = match self.workload {
            // Effectively unlimited: a few large patches.
            Workload::SodSerial => (1 << 20, MetadataMode::Replicated, false),
            Workload::TriplePointWeak => (16, MetadataMode::Partitioned, true),
            Workload::SedovRegridCkpt => (16, MetadataMode::Replicated, false),
        };
        let mut config = HydroConfig {
            regrid_interval: 0,
            max_patch_size: max_patch,
            metadata_mode,
            batched,
            ..HydroConfig::default()
        };
        config.regrid.max_patch_size = max_patch;
        config.regrid.cluster.max_size = max_patch;
        config
    }

    fn build_sim(&self, comm: &Comm) -> HydroSim {
        HydroSim::new(
            self.workload.machine(),
            Placement::Device,
            comm.clock().clone(),
            self.extent(),
            self.size.coarse,
            LEVELS,
            2,
            self.config(),
            self.regions(),
            comm.rank(),
            comm.size(),
        )
    }
}

/// Everything on the virtual clock, plus the operation counters and the
/// state digest: identical on every repetition of a (plan, seed) pair,
/// traced or not, or the benchmark reports an error.
#[derive(Clone, Debug, PartialEq)]
pub struct VirtualOutcome {
    /// Slowest rank's clock advance over the timed loop, per category.
    pub slowest: TimeBreakdown,
    /// Stored cells (all levels, global) summed over committed steps.
    pub cell_steps: u64,
    /// Committed steps.
    pub steps: u64,
    /// Interior-only state digest (see [`interior_digest`]).
    pub digest: u64,
    /// Digest of the final level structure (boxes and owners).
    pub layout: u64,
    pub mass0: f64,
    pub mass_end: f64,
    pub energy_end: f64,
    /// Schedule-cache lookups during the loop, summed over ranks.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Regrids, and refined levels a regrid left unchanged / examined.
    pub regrids: u64,
    pub levels_unchanged: u64,
    pub levels_regridded: u64,
    /// Device counters over the loop, summed over ranks.
    pub launches: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    /// Sod only: L1 density error against the exact Riemann solution.
    pub sod_l1_error: Option<f64>,
}

/// Relative mass drift over the loop. Regridding interpolates
/// conservatively but coarse-fine faces are not refluxed, so mass drifts
/// slightly; this is the bound the repository's own conservation test
/// (`long_run_with_regridding_conserves_mass`) allows.
pub const MASS_DRIFT_LIMIT: f64 = 5e-4;

/// Sod's L1 density error at the loop's end time (about 1.3e-3 on the
/// 384² grid).
pub const SOD_L1_LIMIT: f64 = 0.01;

impl VirtualOutcome {
    /// |M_end − M_0| / M_0.
    pub fn mass_rel_drift(&self) -> f64 {
        (self.mass_end - self.mass0).abs() / self.mass0
    }

    /// Every correctness check the final state fails (empty when
    /// correct). The digest reference is checked separately: it exists
    /// only for the measured size.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        let drift = self.mass_rel_drift();
        if !drift.is_finite() || drift > MASS_DRIFT_LIMIT {
            out.push(format!("mass drift {drift:e} exceeds {MASS_DRIFT_LIMIT:e}"));
        }
        if !self.energy_end.is_finite() {
            out.push("non-finite total energy".to_string());
        }
        if let Some(e) = self.sod_l1_error {
            if !e.is_finite() || e > SOD_L1_LIMIT {
                out.push(format!("Sod L1 density error {e} exceeds {SOD_L1_LIMIT}"));
            }
        }
        out
    }
}

/// Host-clock measurements of one repetition (rank 0's view).
#[derive(Clone, Debug, Default)]
pub struct HostOutcome {
    /// From before the cluster spawn until every rank is ready to step.
    pub setup_s: f64,
    /// Wall time of the timed loop.
    pub loop_s: f64,
    /// Wall time of each loop iteration.
    pub iter_ms: Vec<f64>,
    pub step_ms: Vec<f64>,
    pub regrid_ms: Vec<f64>,
    pub save_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
}

/// Operations attempted and failed (typed error, non-finite state).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// Per-layer measurements only a traced repetition takes.
#[derive(Clone, Debug, Default)]
pub struct TraceOutcome {
    /// Telemetry counters over the loop, summed over ranks.
    pub counters: std::collections::BTreeMap<String, u64>,
    /// Causal buckets of the loop, summed over ranks.
    pub buckets: Buckets,
    /// Transfer and collective cost on the loop's critical path.
    pub critical_path_comm: f64,
    /// Causal makespan of the loop (from the common loop start).
    pub causal_makespan: f64,
    /// Largest |Σ buckets − makespan| over ranks, as a share of the
    /// makespan: zero when the buckets sum to the makespan.
    pub causal_sum_error: f64,
    /// Largest per-category |span − clock| over the loop, as a share of
    /// the loop's rank-summed virtual time.
    pub span_clock_disagreement: f64,
    pub checkpoint_bytes: u64,
    pub checkpoint_file_write_ms: f64,
    pub checkpoint_file_read_ms: f64,
    pub allreduce_us: f64,
    pub allgatherv_us: f64,
    pub schedule_build_us: f64,
    pub fill_ms: f64,
    pub box_index_build_us: f64,
    pub box_index_query_us: f64,
    pub partition_sfc_us: f64,
}

/// The result of one repetition.
#[derive(Clone, Debug)]
pub struct Rep {
    pub virt: VirtualOutcome,
    pub host: HostOutcome,
    pub ops: Ops,
    pub trace: Option<TraceOutcome>,
}

/// What one rank hands back from the cluster.
struct RankOut {
    /// Virtual time at the loop's start.
    loop_start: f64,
    loop_clock: TimeBreakdown,
    cell_steps: u64,
    steps: u64,
    digest: u64,
    layout: u64,
    mass0: f64,
    mass_end: f64,
    energy_end: f64,
    cache_hits: u64,
    cache_misses: u64,
    regrids: u64,
    levels_unchanged: u64,
    levels_regridded: u64,
    device: DeviceStats,
    sod_l1_error: Option<f64>,
    ops: Ops,
    host: HostOutcome,
    recorder: Option<Recorder>,
    probes: Option<TraceOutcome>,
}

/// Interior-only state digest: an order-independent set of
/// (level, patch box, variable, interior bytes) over the four persisted
/// state fields, allreduced over ranks. Ghost cells are excluded (they
/// legitimately differ right after a checkpoint restore), and patches
/// are named by box rather than owner or index, so the digest does not
/// depend on which rank holds a patch.
pub fn interior_digest(sim: &HydroSim, comm: &Comm) -> u64 {
    let f = sim.fields();
    let mut set = UnorderedDigest::new();
    for l in 0..sim.hierarchy().num_levels() {
        for patch in sim.hierarchy().level(l).local() {
            for var in [f.density0, f.energy0, f.xvel0, f.yvel0] {
                let data = patch.data(var);
                let centring = data.centring();
                let interior = BoxOverlap {
                    dst_boxes: BoxList::from_box(centring.data_box(patch.cell_box())),
                    shift: IntVector::ZERO,
                    centring,
                };
                let bytes = data.pack(&interior);
                let mut h = Fnv64::new();
                h.write_usize(l);
                h.write_gbox(patch.cell_box());
                h.write_usize(var.0);
                for chunk in bytes.chunks(8) {
                    let mut w = [0u8; 8];
                    w[..chunk.len()].copy_from_slice(chunk);
                    h.write_u64(u64::from_le_bytes(w));
                }
                set.add(h.finish());
            }
        }
    }
    UnorderedDigest::from_words(comm.allreduce_digest(set.to_words(), Category::Other)).finish()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of a non-empty sample (average of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Run one repetition of `plan` on `workers` run slots. Panics in a rank
/// propagate (the caller counts the repetition as failed).
pub fn run_rep(plan: &Plan, traced: bool, workers: usize) -> Rep {
    let start = Instant::now();
    let results = Cluster::new(plan.workload.machine())
        .with_engine(Engine::EventDriven)
        .with_workers(workers)
        .with_stack_size(STACK_BYTES)
        .run(plan.size.ranks, |comm| rank_main(plan, traced, start, comm));

    let mut outs: Vec<RankOut> = results.into_iter().map(|r| r.value).collect();
    let slowest = outs
        .iter()
        .map(|o| o.loop_clock)
        .max_by(|a, b| a.total().total_cmp(&b.total()))
        .expect("at least one rank");
    let sum = |f: fn(&RankOut) -> u64| outs.iter().map(f).sum::<u64>();
    let virt = VirtualOutcome {
        slowest,
        cell_steps: outs[0].cell_steps,
        steps: outs[0].steps,
        digest: outs[0].digest,
        layout: outs[0].layout,
        mass0: outs[0].mass0,
        mass_end: outs[0].mass_end,
        energy_end: outs[0].energy_end,
        cache_hits: sum(|o| o.cache_hits),
        cache_misses: sum(|o| o.cache_misses),
        regrids: outs[0].regrids,
        levels_unchanged: outs[0].levels_unchanged,
        levels_regridded: outs[0].levels_regridded,
        launches: sum(|o| o.device.kernel_launches),
        h2d_bytes: sum(|o| o.device.h2d_bytes),
        d2h_bytes: sum(|o| o.device.d2h_bytes),
        sod_l1_error: outs[0].sod_l1_error,
    };
    // Every verdict is global (a failed step fails on every rank), so
    // rank 0's count is the job's.
    let ops = outs[0].ops;
    let trace = traced.then(|| {
        let recorders: Vec<Recorder> = outs.iter_mut().filter_map(|o| o.recorder.take()).collect();
        let loop_clocks: Vec<(f64, TimeBreakdown)> =
            outs.iter().map(|o| (o.loop_start, o.loop_clock)).collect();
        let mut t = outs[0].probes.take().unwrap_or_default();
        finish_trace(&mut t, &recorders, &loop_clocks);
        t
    });
    let host = std::mem::take(&mut outs[0].host);
    Rep { virt, host, ops, trace }
}

fn rank_main(plan: &Plan, traced: bool, start: Instant, mut comm: Comm) -> RankOut {
    let rank0 = comm.rank() == 0;
    let mut sim = plan.build_sim(&comm);
    sim.initialize(Some(&comm));
    let mass0 = sim.summary(Some(&comm)).mass;
    comm.barrier(Category::Other);
    let mut host = HostOutcome { setup_s: start.elapsed().as_secs_f64(), ..HostOutcome::default() };

    let recorder = traced.then(|| Recorder::new(comm.rank(), comm.clock().clone()));
    if let Some(rec) = &recorder {
        comm.set_recorder(rec.clone());
        sim.set_recorder(rec.clone());
    }
    let rec = recorder.clone().unwrap_or_else(Recorder::disabled);
    let device = sim.device().expect("device placement").clone();
    let dev0 = device.stats();
    let (hits0, misses0) = (sim.schedule_cache().hits(), sim.schedule_cache().misses());
    let clock0 = comm.clock().snapshot();

    let mut ops = Ops::default();
    let mut cell_steps = 0u64;
    let mut steps = 0u64;
    let (mut regrids, mut levels_unchanged, mut levels_regridded) = (0u64, 0u64, 0u64);
    let mut checkpoint: Option<Database> = None;
    let loop_start = Instant::now();
    for i in 0..plan.size.iters {
        let it = Instant::now();
        let todo = plan.workload.iter_ops(i);
        ops.attempted += 1;
        let t = Instant::now();
        match sim.try_step_capped(Some(&comm), None) {
            Ok(stats) => {
                cell_steps += stats.total_cells as u64;
                steps += 1;
            }
            Err(_) => ops.failed += 1,
        }
        host.step_ms.push(ms_since(t));
        if todo.regrid {
            let _span = rec.span("bench.regrid", Category::Regrid);
            ops.attempted += 1;
            let t = Instant::now();
            match sim.try_regrid(Some(&comm)) {
                Ok(outcome) => {
                    regrids += 1;
                    let refined = &outcome.levels_changed[1..];
                    levels_regridded += refined.len() as u64;
                    levels_unchanged += refined.iter().filter(|&&c| !c).count() as u64;
                }
                Err(_) => ops.failed += 1,
            }
            host.regrid_ms.push(ms_since(t));
        }
        if todo.save {
            let _span = rec.span("bench.checkpoint-save", Category::Other);
            ops.attempted += 1;
            let t = Instant::now();
            match sim.try_save_checkpoint(Some(&comm)) {
                Ok(db) => checkpoint = Some(db),
                Err(_) => ops.failed += 1,
            }
            host.save_ms.push(ms_since(t));
        }
        if todo.restore {
            let _span = rec.span("bench.checkpoint-restore", Category::Other);
            ops.attempted += 1;
            let t = Instant::now();
            let restored = checkpoint
                .as_ref()
                .is_some_and(|db| sim.try_restore_checkpoint(db, Some(&comm)).is_ok());
            if !restored {
                ops.failed += 1;
            }
            host.restore_ms.push(ms_since(t));
        }
        host.iter_ms.push(ms_since(it));
    }
    let loop_clock = comm.clock().snapshot().since(&clock0);
    let dev1 = device.stats();
    if recorder.is_some() {
        comm.set_recorder(Recorder::disabled());
        sim.set_recorder(Recorder::disabled());
    }
    comm.barrier(Category::Other);
    host.loop_s = loop_start.elapsed().as_secs_f64();

    let summary = sim.summary(Some(&comm));
    if !(summary.mass.is_finite() && summary.total_energy().is_finite()) {
        ops.failed += 1;
    }
    let digest = interior_digest(&sim, &comm);
    let mut layout = Fnv64::new();
    for l in 0..sim.hierarchy().num_levels() {
        layout.write_u64(sim.hierarchy().structure_digest(l));
    }
    // The midline profile is a single-rank diagnostic.
    let sod_l1_error = (plan.workload == Workload::SodSerial && comm.size() == 1).then(|| {
        let exact = sod_exact();
        let (x0, t) = (plan.diaphragm(), sim.time());
        let profile = sim.density_profile();
        let sum: f64 =
            profile.iter().map(|&(x, rho)| (rho - exact.sample((x - x0) / t).rho).abs()).sum();
        sum / profile.len() as f64
    });
    let probes = traced.then(|| probe_layers(plan, &sim, &comm, checkpoint.as_ref()));

    RankOut {
        loop_start: clock0.total(),
        loop_clock,
        cell_steps,
        steps,
        digest,
        layout: layout.finish(),
        mass0,
        mass_end: summary.mass,
        energy_end: summary.total_energy(),
        cache_hits: sim.schedule_cache().hits() - hits0,
        cache_misses: sim.schedule_cache().misses() - misses0,
        regrids,
        levels_unchanged,
        levels_regridded,
        device: DeviceStats {
            h2d_bytes: dev1.h2d_bytes - dev0.h2d_bytes,
            d2h_bytes: dev1.d2h_bytes - dev0.d2h_bytes,
            kernel_launches: dev1.kernel_launches - dev0.kernel_launches,
            ..DeviceStats::default()
        },
        sod_l1_error,
        ops,
        host: if rank0 { host } else { HostOutcome::default() },
        recorder,
        probes: if rank0 { probes } else { None },
    }
}

/// Median host time of `reps` calls of `f`, in microseconds.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Out-of-band probes into single layers, timed after the loop. Every
/// rank takes part (the collectives and fills need them all); rank 0's
/// timings are the ones reported.
fn probe_layers(plan: &Plan, sim: &HydroSim, comm: &Comm, ckpt: Option<&Database>) -> TraceOutcome {
    let mut t = TraceOutcome::default();

    // netsim: collectives at the workload's rank count.
    comm.barrier(Category::Other);
    t.allreduce_us = time_us(20, || {
        std::hint::black_box(comm.allreduce_sum(1.0, Category::Other));
    });
    let payload = bytes::Bytes::from(vec![comm.rank() as u8; 64]);
    t.allgatherv_us = time_us(5, || {
        std::hint::black_box(comm.allgatherv(payload.clone(), Category::Other));
    });

    // The live structure, gathered so every rank holds every level's
    // boxes and owners (partitioned levels hold only a neighbourhood).
    let h = sim.hierarchy();
    let levels: Vec<(Vec<GBox>, Vec<usize>)> =
        (0..h.num_levels()).map(|l| gather_level(h, l, comm)).collect();

    // amr: SFC partition of the finest level at the workload's rank count.
    let (finest, _) = levels.last().expect("a hierarchy has level 0");
    t.partition_sfc_us = time_us(5, || {
        std::hint::black_box(partition_sfc(finest, comm.size()));
    });

    // geometry: Morton box index over the finest level's ghost boxes.
    let ghost = IntVector::uniform(GHOSTS);
    t.box_index_build_us = time_us(5, || {
        std::hint::black_box(BoxIndex::new(finest, ghost));
    });
    let index = BoxIndex::new(finest, ghost);
    let mut hits = Vec::new();
    t.box_index_query_us = time_us(5, || {
        for b in finest {
            index.query_into(b.grow(ghost), &mut hits);
            std::hint::black_box(&hits);
        }
    });

    // amr + gpu-amr: build the start-of-step fill schedules (and the
    // density sync schedules) of a replica hierarchy with the live
    // structure, then time one fill of every level.
    let device = Device::new(plan.workload.machine(), Clock::new());
    let mut reg = VariableRegistry::new(Arc::new(DeviceDataFactory::new(device)));
    let density = reg.register("density0", Centring::Cell, ghost);
    let energy = reg.register("energy0", Centring::Cell, ghost);
    let xvel = reg.register("xvel0", Centring::Node, ghost);
    let yvel = reg.register("yvel0", Centring::Node, ghost);
    // Only the four state fields are registered; the other `Fields`
    // slots alias them so the reflective parity table covers exactly
    // these four.
    let fields = Fields {
        density0: density,
        density1: density,
        energy0: energy,
        energy1: energy,
        pressure: density,
        viscosity: density,
        soundspeed: density,
        xvel0: xvel,
        xvel1: xvel,
        yvel0: yvel,
        yvel1: yvel,
        vol_flux_x: xvel,
        vol_flux_y: yvel,
        mass_flux_x: xvel,
        mass_flux_y: yvel,
        pre_vol: density,
        post_vol: density,
        ener_flux: density,
        node_flux: density,
        node_mass_post: density,
        node_mass_pre: density,
        mom_flux: density,
    };
    let boundary = ReflectiveBoundary::for_fields(&fields, reg.len());
    let mut replica = PatchHierarchy::new(
        GridGeometry { origin: (0.0, 0.0), dx0: h.dx(0) },
        h.base_domain().clone(),
        IntVector::uniform(2),
        h.max_levels(),
        comm.rank(),
        comm.size(),
    );
    for (l, (boxes, owners)) in levels.iter().enumerate() {
        replica.set_level(l, boxes.clone(), owners.clone(), &reg);
    }
    let specs = |l: usize| -> Vec<FillSpec> {
        [density, energy, xvel, yvel]
            .into_iter()
            .map(|var| {
                let op: Arc<dyn rbamr::amr::RefineOperator> = if var == xvel || var == yvel {
                    Arc::new(dev_ops::DeviceLinearNodeRefine)
                } else {
                    Arc::new(dev_ops::DeviceConservativeCellRefine)
                };
                FillSpec { var, refine_op: (l > 0).then_some(op) }
            })
            .collect()
    };
    let build_start = Instant::now();
    let schedules: Vec<_> = (0..levels.len())
        .map(|l| ScheduleBuild::indexed().refine(&replica, &reg, l, &specs(l)))
        .collect();
    for l in 1..levels.len() {
        let sync = [CoarsenSpec {
            var: density,
            op: Arc::new(dev_ops::DeviceVolumeWeightedCoarsen),
            aux: Vec::new(),
        }];
        std::hint::black_box(ScheduleBuild::indexed().coarsen(&replica, &reg, l, &sync));
    }
    t.schedule_build_us = build_start.elapsed().as_secs_f64() * 1e6;
    let fills: Vec<f64> = (0..3)
        .map(|_| {
            comm.barrier(Category::Other);
            let start = Instant::now();
            for sched in &schedules {
                sched.fill(&mut replica, &reg, &boundary, Some(comm), 0.0, Category::HaloExchange);
            }
            ms_since(start)
        })
        .collect();
    t.fill_ms = median(&fills);

    // hydro: checkpoint size and file I/O (rank 0; fsync makes this disk
    // noise, which is why it stays out of the end-to-end numbers).
    if let (Some(db), true) = (ckpt, comm.rank() == 0) {
        t.checkpoint_bytes = db.to_bytes().len() as u64;
        let dir = std::path::Path::new(".perfbench_tmp");
        std::fs::create_dir_all(dir).expect("create the checkpoint scratch directory");
        let path = dir.join(format!("ckpt-{}.bin", std::process::id()));
        let w = Instant::now();
        db.save(&path).expect("write the checkpoint file");
        t.checkpoint_file_write_ms = ms_since(w);
        let r = Instant::now();
        let back = Database::load(&path).expect("read the checkpoint file back");
        t.checkpoint_file_read_ms = ms_since(r);
        assert_eq!(back.to_bytes(), db.to_bytes(), "checkpoint file round trip");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(dir).ok();
    }
    t
}

/// Level `l`'s global boxes and owners, gathered from each rank's own
/// patches (ordered by global patch index).
fn gather_level(h: &PatchHierarchy, l: usize, comm: &Comm) -> (Vec<GBox>, Vec<usize>) {
    let mut mine = Vec::new();
    for p in h.level(l).local() {
        let b = p.cell_box();
        for w in [p.id().index as i64, b.lo.x, b.lo.y, b.hi.x, b.hi.y] {
            mine.extend_from_slice(&w.to_le_bytes());
        }
    }
    let parts = comm.allgatherv(bytes::Bytes::from(mine), Category::Other);
    let mut recs: Vec<(i64, GBox, usize)> = Vec::new();
    for (owner, part) in parts.iter().enumerate() {
        let words: Vec<i64> = part
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().expect("8-byte word")))
            .collect();
        for r in words.chunks_exact(5) {
            recs.push((r[0], GBox::from_coords(r[1], r[2], r[3], r[4]), owner));
        }
    }
    recs.sort_by_key(|r| r.0);
    recs.into_iter().map(|(_, b, o)| (b, o)).unzip()
}

/// Fold the per-rank recorders into the trace outcome: counters,
/// span-vs-clock agreement and causal attribution over the loop. Each
/// rank's `(loop start, loop clock)` scopes the whole-run figures to the
/// loop: before the recorders were attached a rank only computed, so the
/// causal replay books that prefix as compute.
fn finish_trace(t: &mut TraceOutcome, recorders: &[Recorder], loops: &[(f64, TimeBreakdown)]) {
    let mut spans = TimeBreakdown::default();
    let mut clock = TimeBreakdown::default();
    for (rec, (_, lc)) in recorders.iter().zip(loops) {
        for (k, v) in rec.counters() {
            *t.counters.entry(k).or_insert(0) += v;
        }
        spans = spans.merged(&rec.span_breakdown());
        clock = clock.merged(lc);
    }
    let scale = clock.total().max(f64::MIN_POSITIVE);
    t.span_clock_disagreement = Category::ALL
        .iter()
        .map(|&c| (spans.get(c) - clock.get(c)).abs() / scale)
        .fold(0.0, f64::max);

    let causal = analyze(recorders).expect("causal analysis of the traced loop");
    let start = loops.iter().map(|l| l.0).fold(f64::INFINITY, f64::min);
    t.causal_makespan = causal.makespan - start;
    t.critical_path_comm = causal.critical_path.comm;
    for r in &causal.ranks {
        let b = r.buckets;
        t.causal_sum_error =
            t.causal_sum_error.max((b.total() - causal.makespan).abs() / causal.makespan);
        t.buckets.compute += b.compute - loops[r.rank].0;
        t.buckets.exposed_comm += b.exposed_comm;
        t.buckets.late_sender_wait += b.late_sender_wait;
        t.buckets.imbalance += b.imbalance;
    }
}
