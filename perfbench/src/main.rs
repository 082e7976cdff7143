//! `rbamr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints every metric by name with its
//! unit and clock, then one `RESULT` line (the full record: metrics,
//! seed, `nproc`, worker count, git revision) and, last, the summary
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the summary carries the end-to-end metrics of untraced
//! repetitions; with `--trace 1` the per-layer metrics of a traced
//! repetition. Exit code 2 on a usage error or a refused environment,
//! 3 when the determinism self-check fails.

use rbamr::perfmodel::Category;
use rbamr_perfbench::{
    median, run_rep, Plan, Rep, TraceOutcome, Workload, MASS_DRIFT_LIMIT, NETSIM_OVERRIDES,
    SOD_L1_LIMIT,
};
use std::fmt::Write as _;

/// Committed interior digests, one line per `<workload> <shift> <hex>`.
const REFERENCE_DIGESTS: &str = include_str!("../reference_digests.txt");

/// Run slots for the simulated ranks: never more than the host's cores,
/// so at most this many simulated ranks are runnable at once, on any host
/// with at least this many cores.
const MAX_WORKERS: usize = 2;

/// Repetitions per run are fixed by `--seconds` and these per-workload
/// host costs of one repetition (measured on an idle 2-vCPU x86-64 VM),
/// not by the clock: every run of a seed then pools the same number of
/// iterations.
fn rep_seconds(w: Workload) -> f64 {
    match w {
        Workload::SodSerial => 1.3,
        Workload::TriplePointWeak => 3.6,
        Workload::SedovRegridCkpt => 0.65,
    }
}
const MIN_REPS: usize = 3;
/// A loaded host stops starting repetitions once a run has used this
/// multiple of `--seconds` (after `MIN_REPS`), so a run's length stays
/// bounded.
const OVERRUN: f64 = 1.25;

/// Span-derived and clock virtual time agree to within this share of
/// the loop's virtual time on every category.
const SPAN_CLOCK_LIMIT: f64 = 0.01;

/// The 22 hydro kernels and the 8 schedule kernels, as named in the
/// `device.kernel_launches.<name>` counters.
const HYDRO_KERNELS: [&str; 22] = [
    "accelerate",
    "advec-cell",
    "advec-ener-flux",
    "advec-ener-update",
    "advec-mass-flux",
    "advec-post-vol",
    "advec-pre-vol",
    "calc-dt",
    "field-summary",
    "flux-calc",
    "ideal-gas-pressure",
    "ideal-gas-soundspeed",
    "mom-flux",
    "mom-node-flux",
    "mom-node-mass-post",
    "mom-node-mass-pre",
    "mom-save-vel",
    "mom-vel-update",
    "pdv-density",
    "pdv-energy",
    "revert-save",
    "viscosity",
];
const SCHEDULE_KERNELS: [&str; 8] = [
    "copy-region",
    "pack",
    "unpack",
    "refine-interp",
    "extend-uncovered",
    "coarsen-project",
    "physical-boundary",
    "copy-field",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `--size smoke` runs the seconds-long reduced size the self-tests
    /// use; it has no committed digest reference.
    smoke: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("rbamr-perfbench: {msg}");
    eprintln!(
        "usage: rbamr-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--size full|smoke]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.len().is_multiple_of(2) {
        usage("arguments come in --flag value pairs");
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut smoke = false;
    for pair in argv.chunks(2) {
        let v = pair[1].as_str();
        match pair[0].as_str() {
            "--workload" => {
                workload = Some(Workload::parse(v).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => seed = Some(v.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match v {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--size" => {
                smoke = match v {
                    "full" => false,
                    "smoke" => true,
                    _ => usage("--size takes full or smoke"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("missing --workload")),
        seed: seed.unwrap_or_else(|| usage("missing --seed")),
        seconds: seconds.unwrap_or_else(|| usage("missing --seconds")),
        trace: trace.unwrap_or_else(|| usage("missing --trace")),
        smoke,
    }
}

/// One named metric value.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    clock: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str, clock: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, clock });
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
            .expect("write to a String");
        }
        out.push('}');
        out
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process (`VmHWM`), in KiB.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse().ok())
}

fn reference_digest(w: Workload, shift: i64) -> Option<u64> {
    REFERENCE_DIGESTS.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        let (name, s, hex) = (it.next()?, it.next()?, it.next()?);
        (name == w.name() && s.parse::<i64>().ok()? == shift)
            .then(|| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())
            .flatten()
    })
}

/// Tail of the iteration times: the slowest iteration of the fixed
/// schedule, each iteration timed as its median over the repetitions.
/// A per-iteration median ignores the one-off stalls of a shared host
/// that a high percentile of the pooled sample would report, and means
/// the same thing however many repetitions a run made. Returns (value,
/// iteration index).
fn tail(runs: &[Rep]) -> (f64, usize) {
    let iters = runs[0].host.iter_ms.len();
    (0..iters)
        .map(|i| (median(&runs.iter().map(|r| r.host.iter_ms[i]).collect::<Vec<_>>()), i))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one iteration")
}

fn main() {
    let args = parse_args();
    if let Some(var) = NETSIM_OVERRIDES.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("rbamr-perfbench: refusing to run with {var} set (it overrides the benchmark's cluster settings)");
        std::process::exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(MAX_WORKERS);
    let w = args.workload;
    let size = if args.smoke { w.smoke_size() } else { w.full_size() };
    let plan = Plan::new(w, size, args.seed);
    let reps = ((args.seconds / rep_seconds(w)).round() as usize).max(MIN_REPS);
    let rev = git_revision();
    println!(
        "workload {} seed {} (shift {} cells) trace {} | {} ranks, {}x{} coarse, {} iterations x {} \
         repetitions | nproc {nproc} workers {workers} rev {rev}",
        w.name(),
        args.seed,
        plan.shift,
        u8::from(args.trace),
        plan.size.ranks,
        plan.size.coarse.0,
        plan.size.coarse.1,
        plan.size.iters,
        reps
    );

    // Untraced repetitions (all of them, or all but one when tracing).
    let untraced = if args.trace { (reps - 1).max(1) } else { reps };
    let mut runs: Vec<Rep> = Vec::new();
    let mut panicked = 0u64;
    let started = std::time::Instant::now();
    for i in 0..untraced {
        if i >= MIN_REPS && started.elapsed().as_secs_f64() > args.seconds * OVERRUN {
            println!("host slower than calibrated: stopping after {i} of {untraced} repetitions");
            break;
        }
        match std::panic::catch_unwind(|| run_rep(&plan, false, workers)) {
            Ok(rep) => runs.push(rep),
            Err(_) => panicked += 1,
        }
    }
    let traced = if args.trace {
        match std::panic::catch_unwind(|| run_rep(&plan, true, workers)) {
            Ok(rep) => Some(rep),
            Err(_) => {
                panicked += 1;
                None
            }
        }
    } else {
        None
    };
    let Some(first) = runs.first().or(traced.as_ref()) else {
        println!("every repetition panicked");
        finish(false, panicked, panicked, &Report::default());
        return;
    };

    // Determinism self-check: the virtual clock, the operation counters
    // and the digest repeat bit for bit across every repetition, traced
    // or not.
    for rep in runs.iter().chain(traced.as_ref()) {
        if rep.virt != first.virt {
            eprintln!(
                "rbamr-perfbench: determinism self-check failed: repetitions disagree on the \
                 virtual outcome\n  first: {:?}\n  other: {:?}",
                first.virt, rep.virt
            );
            std::process::exit(3);
        }
    }
    let secs = |f: fn(&Rep) -> f64| -> Vec<String> {
        runs.iter().chain(traced.as_ref()).map(|r| format!("{:.3}", f(r))).collect()
    };
    println!("repetitions setup_s [{}]", secs(|r| r.host.setup_s).join(", "));
    println!("repetitions loop_s  [{}]", secs(|r| r.host.loop_s).join(", "));
    let v = &first.virt;
    let steps = plan.size.iters as f64;
    let makespan = v.slowest.total();
    // The traced run checks its own instrumentation: spans cover the
    // clock, and the causal buckets add up to the makespan.
    if let Some(t) = traced.as_ref().and_then(|r| r.trace.as_ref()) {
        println!(
            "check span_clock_disagreement {:e} (limit {SPAN_CLOCK_LIMIT}); causal bucket sum \
             error {:e}; causal loop makespan {} s vs clock {makespan} s",
            t.span_clock_disagreement, t.causal_sum_error, t.causal_makespan
        );
        if t.span_clock_disagreement > SPAN_CLOCK_LIMIT || t.causal_sum_error > 1e-9 {
            eprintln!("rbamr-perfbench: the traced run failed its instrumentation self-check");
            std::process::exit(3);
        }
    }

    // Correctness.
    let attempted: u64 = runs.iter().chain(traced.as_ref()).map(|r| r.ops.attempted).sum();
    let mut failed: u64 = runs.iter().chain(traced.as_ref()).map(|r| r.ops.failed).sum();
    let reference = reference_digest(w, plan.shift);
    let digest_ok = args.smoke || reference == Some(v.digest);
    if !digest_ok {
        // A mismatch counts every repetition's operations as failed.
        failed = attempted;
    }
    let mass_drift = v.mass_rel_drift();
    let problems = v.problems();
    for p in &problems {
        println!("check FAILED: {p}");
    }
    let correct = failed == 0 && panicked == 0 && problems.is_empty();
    let attempted = attempted + panicked;
    let failed = failed + panicked;
    println!(
        "check interior_digest {:#018x} reference {} -> {}",
        v.digest,
        reference.map_or("none".to_string(), |r| format!("{r:#018x}")),
        if args.smoke {
            "not checked at the smoke size"
        } else if digest_ok {
            "match"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "check failed_ops_frac {} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    println!("check mass_rel_drift {mass_drift:e} (limit {MASS_DRIFT_LIMIT:e})");
    if let Some(e) = v.sod_l1_error {
        println!("check sod_l1_error {e} (limit {SOD_L1_LIMIT})");
    }

    // Virtual-clock end-to-end metrics: deterministic per seed, so they
    // are compared exactly (see compare.py) rather than against a
    // run-to-run bound, and carry their own units.
    let mut virt = Report::default();
    let cells_per_rank = v.cell_steps as f64 / steps / plan.size.ranks as f64;
    virt.add("virtual_step_ms", makespan / steps * 1e3, "virtual_ms", "virtual");
    virt.add("virtual_grind_ns", makespan / steps / cells_per_rank * 1e9, "virtual_ns", "virtual");

    let mut report = Report::default();
    if let Some(tr) = &traced {
        per_layer(&mut report, &plan, tr, &runs, steps);
    } else {
        let per_cell: Vec<f64> =
            runs.iter().map(|r| r.host.loop_s / v.cell_steps as f64 * 1e9).collect();
        report.add("host_ns_per_cell_step", median(&per_cell), "ns", "host");
        let iters: Vec<f64> = runs.iter().flat_map(|r| r.host.iter_ms.iter().copied()).collect();
        report.add("host_step_ms_p50", median(&iters), "ms", "host");
        let (tail_ms, slowest) = tail(&runs);
        println!(
            "tail: iteration {slowest} ({:?}) of {}, median over {} repetitions",
            w.iter_ops(slowest),
            plan.size.iters,
            runs.len()
        );
        report.add("host_step_ms_tail", tail_ms, "ms", "host");
        let setups: Vec<f64> = runs.iter().map(|r| r.host.setup_s).collect();
        report.add("setup_s", median(&setups), "s", "host");
        report.add("peak_rss_mib", vm_hwm_kb().unwrap_or(0) as f64 / 1024.0, "MiB", "host");
    }
    for m in &virt.metrics {
        println!("metric {:<40} {:>22} {:<10} [{}]", m.name, json_num(m.value), m.unit, m.clock);
    }
    for m in &report.metrics {
        println!("metric {:<40} {:>22} {:<10} [{}]", m.name, json_num(m.value), m.unit, m.clock);
    }
    println!(
        "RESULT {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"workers\": {workers}, \"rev\": \"{rev}\", \"repetitions\": {}, \"correct\": {correct}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"failed_ops_frac\": {}, \
         \"digest\": \"{:#018x}\", \"mass_rel_drift\": {}, \"sod_l1_error\": {}, \
         \"virtual\": {}, \"metrics\": {}}}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        runs.len() + usize::from(traced.is_some()),
        json_num(failed as f64 / attempted.max(1) as f64),
        v.digest,
        json_num(mass_drift),
        v.sod_l1_error.map_or("null".to_string(), json_num),
        virt.json(),
        report.json()
    );
    finish(correct, attempted, failed, &report);
}

fn finish(correct: bool, attempted: u64, failed: u64, report: &Report) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        report.json()
    );
}

/// The per-layer metrics of the traced repetition `tr`.
fn per_layer(report: &mut Report, plan: &Plan, tr: &Rep, untraced: &[Rep], steps: f64) {
    let t: &TraceOutcome = tr.trace.as_ref().expect("a traced repetition carries a trace");
    let v = &tr.virt;
    for (name, value) in &t.counters {
        println!("counter {name} {value}");
    }
    let c = |name: &str| t.counters.get(name).copied().unwrap_or(0) as f64;
    let launches = |names: &[&str]| -> f64 {
        names.iter().map(|k| c(&format!("device.kernel_launches.{k}"))).sum()
    };
    let med_or_zero = |s: &[f64]| if s.is_empty() { 0.0 } else { median(s) };
    let regrids = v.regrids as f64;
    let per_regrid = |x: f64| if regrids > 0.0 { x / regrids } else { 0.0 };

    // hydro
    report.add("hydro.step_host_ms", median(&tr.host.step_ms), "ms", "host");
    report.add(
        "hydro.kernel_launches_per_step",
        launches(&HYDRO_KERNELS) / steps,
        "count",
        "virtual",
    );
    report.add("hydro.checkpoint_save_ms", med_or_zero(&tr.host.save_ms), "ms", "host");
    report.add("hydro.checkpoint_restore_ms", med_or_zero(&tr.host.restore_ms), "ms", "host");
    report.add("hydro.checkpoint_bytes", t.checkpoint_bytes as f64, "B", "virtual");
    report.add("hydro.checkpoint_file_write_ms", t.checkpoint_file_write_ms, "ms", "host");
    report.add("hydro.checkpoint_file_read_ms", t.checkpoint_file_read_ms, "ms", "host");

    // perfmodel: the slowest rank's loop, per category.
    for (cat, name) in [
        (Category::HydroKernel, "hydro_kernel"),
        (Category::HaloExchange, "halo_exchange"),
        (Category::Timestep, "timestep"),
        (Category::Synchronize, "synchronize"),
        (Category::Regrid, "regrid"),
        (Category::Other, "other"),
    ] {
        report.add(
            &format!("perfmodel.{name}_ms"),
            v.slowest.get(cat) / steps * 1e3,
            "virtual_ms",
            "virtual",
        );
    }

    // device (summed over ranks)
    report.add("device.launches_per_step", v.launches as f64 / steps, "count", "virtual");
    report.add("device.h2d_bytes_per_step", v.h2d_bytes as f64 / steps, "B", "virtual");
    report.add("device.d2h_bytes_per_step", v.d2h_bytes as f64 / steps, "B", "virtual");
    report.add("device.allocs_per_step", c("device.allocs") / steps, "count", "virtual");
    report.add("device.alloc_bytes_per_step", c("device.alloc_bytes") / steps, "B", "virtual");

    // gpu-amr
    report.add(
        "gpu-amr.schedule_launches_per_step",
        launches(&SCHEDULE_KERNELS) / steps,
        "count",
        "virtual",
    );
    report.add("gpu-amr.pack_bytes_per_step", c("pack.bytes") / steps, "B", "virtual");
    report.add("gpu-amr.fill_host_ms", t.fill_ms, "ms", "host");

    // amr
    report.add("amr.regrid_host_ms", med_or_zero(&tr.host.regrid_ms), "ms", "host");
    report.add("amr.schedule_build_host_us", t.schedule_build_us, "us", "host");
    report.add(
        "amr.schedule_build_loop_us_per_regrid",
        per_regrid(c("schedule.build_ns") / 1e3 / plan.size.ranks as f64),
        "us",
        "host",
    );
    let lookups = (v.cache_hits + v.cache_misses) as f64;
    report.add(
        "amr.schedule_cache_hit_ratio",
        if lookups > 0.0 { v.cache_hits as f64 / lookups } else { 0.0 },
        "ratio",
        "virtual",
    );
    report.add(
        "amr.schedule_builds_per_regrid",
        per_regrid(v.cache_misses as f64 / plan.size.ranks as f64),
        "count",
        "virtual",
    );
    report.add(
        "amr.regrid_levels_unchanged_ratio",
        if v.levels_regridded > 0 {
            v.levels_unchanged as f64 / v.levels_regridded as f64
        } else {
            0.0
        },
        "ratio",
        "virtual",
    );
    report.add("amr.partition_sfc_host_us", t.partition_sfc_us, "us", "host");

    // geometry
    report.add("geometry.box_index_build_us", t.box_index_build_us, "us", "host");
    report.add("geometry.box_index_query_us", t.box_index_query_us, "us", "host");
    report.add(
        "geometry.candidate_pairs_per_regrid",
        per_regrid(c("regrid.candidate_pairs") + c("schedule.candidate_pairs")),
        "count",
        "virtual",
    );

    // netsim: traffic counters (summed over ranks) and causal buckets
    // (rank-summed virtual time).
    report.add("netsim.sends_per_step", c("net.sends") / steps, "count", "virtual");
    report.add("netsim.send_bytes_per_step", c("net.send_bytes") / steps, "B", "virtual");
    report.add("netsim.collectives_per_step", c("net.collectives") / steps, "count", "virtual");
    report.add(
        "netsim.collective_bytes_per_step",
        c("net.collective_bytes") / steps,
        "B",
        "virtual",
    );
    let sum = &t.buckets;
    let ms = |x: f64| x / steps * 1e3;
    report.add("netsim.compute_ms", ms(sum.compute), "virtual_ms", "virtual");
    report.add("netsim.exposed_comm_ms", ms(sum.exposed_comm), "virtual_ms", "virtual");
    report.add("netsim.late_sender_wait_ms", ms(sum.late_sender_wait), "virtual_ms", "virtual");
    report.add("netsim.imbalance_ms", ms(sum.imbalance), "virtual_ms", "virtual");
    report.add("netsim.critical_path_comm_ms", ms(t.critical_path_comm), "virtual_ms", "virtual");
    report.add("netsim.allreduce_host_us", t.allreduce_us, "us", "host");
    report.add("netsim.allgatherv_host_us", t.allgatherv_us, "us", "host");

    // telemetry
    let base: Vec<f64> = untraced.iter().map(|r| r.host.loop_s).collect();
    let overhead = if base.is_empty() { f64::NAN } else { tr.host.loop_s / median(&base) - 1.0 };
    report.add("telemetry.overhead_frac", overhead, "ratio", "host");
    report.add("telemetry.span_clock_disagreement", t.span_clock_disagreement, "ratio", "virtual");
}
