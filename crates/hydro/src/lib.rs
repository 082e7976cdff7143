//! CleverLeaf: explicit compressible-Euler shock hydrodynamics with AMR.
//!
//! This crate reproduces the application layer of the paper (Section
//! IV-C): the CloverLeaf staggered-grid Lagrangian–Eulerian scheme for
//! the 2D Euler equations, packaged as patch-local "black box"
//! integrators behind the [`PatchIntegrator`] trait — the paper's
//! Figure 6 structure, where the hierarchy/level drivers are oblivious
//! to whether a patch advances on the CPU ([`HostPatchIntegrator`]) or
//! on the resident GPU ([`DevicePatchIntegrator`]). The device kernels
//! are wired once, in [`batched`]: the per-patch device build launches
//! them on one-patch batches, the batched build on whole levels.
//!
//! The timestep follows CloverLeaf's `hydro` loop — EOS, viscosity and
//! the dt reduction (the only global reduction), the Lagrangian phase,
//! then directionally split van Leer advection with alternating sweep
//! order — written once, as the phase table the integrator interprets.
//!
//! [`HydroSim`] drives the whole hierarchy with synchronised
//! timestepping (one global dt, all levels advanced in lockstep),
//! halo fills via the framework's refine schedules, fine→coarse
//! synchronisation (volume-weighted density, mass-weighted energy,
//! node-injected velocities) and periodic regridding driven by the
//! gradient flagging heuristic.
//!
//! Deviation from CloverLeaf, documented per `DESIGN.md`: the
//! artificial viscosity is the classic von Neumann–Richtmyer
//! quadratic+linear form rather than CloverLeaf's tensor-limited
//! variant — same role (shock spreading over ~2 cells), same memory
//! traffic, simpler coefficients.

pub mod batched;
pub mod boundary;
pub mod checkpoint;
pub mod device_integrator;
pub mod host_integrator;
pub mod integrator;
pub mod kernels;
pub mod output;
pub mod resilience;
pub mod state;

pub use boundary::ReflectiveBoundary;
pub use device_integrator::DevicePatchIntegrator;
pub use host_integrator::HostPatchIntegrator;
pub use integrator::{HydroConfig, HydroSim, Placement, SimError, StepStats};
pub use rbamr_amr::MetadataMode;
pub use resilience::{RecoveryPolicy, RecoveryStats, ResilienceError, ResilientSim, SimSpec};
pub use state::{Fields, FlagThresholds, PatchIntegrator, RegionInit, Summary};
