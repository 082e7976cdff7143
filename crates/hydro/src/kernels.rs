//! The CloverLeaf numerical kernels as pure, data-parallel functions.
//!
//! Every kernel here is shared verbatim by the two patch integrators:
//! the host integrator calls them directly on `HostData` slices; the
//! device integrator calls them *inside* `Device::launch`, on
//! `DeviceBuffer` slices — so the CPU baseline and the GPU-resident
//! build execute identical arithmetic and any divergence between the
//! two paths is a residency/communication bug, not a numerics bug.
//!
//! All kernels are elementwise or row-parallel: outputs are written
//! through disjoint row slices ([`par_rows`]), inputs are read through
//! immutable [`View`]s — the safe-Rust equivalent of the CUDA
//! one-thread-per-element formulation the paper uses.

use rayon::prelude::*;
use rbamr_geometry::GBox;

/// Read-only view of a row-major field.
#[derive(Clone, Copy)]
pub struct View<'a> {
    /// The values, row-major over `dbox`.
    pub data: &'a [f64],
    /// The index box the array covers.
    pub dbox: GBox,
}

impl<'a> View<'a> {
    /// Construct, checking the length.
    pub fn new(data: &'a [f64], dbox: GBox) -> Self {
        debug_assert_eq!(data.len(), dbox.num_cells() as usize, "View: shape mismatch");
        Self { data, dbox }
    }

    /// Value at `(x, y)`.
    #[inline]
    pub fn at(&self, x: i64, y: i64) -> f64 {
        debug_assert!(
            self.dbox.contains(rbamr_geometry::IntVector::new(x, y)),
            "View::at ({x},{y}) outside {:?}",
            self.dbox
        );
        self.data[((y - self.dbox.lo.y) * self.dbox.size().x + (x - self.dbox.lo.x)) as usize]
    }

    /// Value at `(x, y)`, clamped into the box (one-sided stencils at
    /// the edge of allocated data).
    #[inline]
    pub fn at_c(&self, x: i64, y: i64) -> f64 {
        let cx = x.clamp(self.dbox.lo.x, self.dbox.hi.x - 1);
        let cy = y.clamp(self.dbox.lo.y, self.dbox.hi.y - 1);
        self.at(cx, cy)
    }
}

/// Row-parallel write over `region` of an array laid out over `obox`:
/// `f(row, y)` receives the full row slice (index with
/// `(x - obox.lo.x)`) and the absolute row coordinate.
pub fn par_rows(
    out: &mut [f64],
    obox: GBox,
    region: GBox,
    f: impl Fn(&mut [f64], i64) + Sync + Send,
) {
    if region.is_empty() {
        return;
    }
    debug_assert!(obox.contains_box(region), "par_rows: region {region:?} escapes {obox:?}");
    let w = obox.size().x as usize;
    let first = (region.lo.y - obox.lo.y) as usize;
    let rows = region.size().y as usize;
    out.par_chunks_mut(w)
        .skip(first)
        .take(rows)
        .enumerate()
        .for_each(|(r, row)| f(row, region.lo.y + r as i64));
}

/// The sign-of-`b`, magnitude-limited minimum used by the van Leer
/// limiter.
#[inline]
fn sign(v: f64, s: f64) -> f64 {
    if s >= 0.0 {
        v.abs()
    } else {
        -v.abs()
    }
}

// --------------------------------------------------------------------
// Equation of state
// --------------------------------------------------------------------

/// Ideal-gas pressure: `p = (γ-1) ρ e`.
pub fn ideal_gas_pressure(p: &mut [f64], cbox: GBox, rho: View, e: View, region: GBox, gamma: f64) {
    par_rows(p, cbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            row[(x - cbox.lo.x) as usize] = (gamma - 1.0) * rho.at(x, y) * e.at(x, y);
        }
    });
}

/// Ideal-gas sound speed: `c = sqrt(γ p / ρ)` (zero in vacuum).
pub fn ideal_gas_soundspeed(
    ss: &mut [f64],
    cbox: GBox,
    p: View,
    rho: View,
    region: GBox,
    gamma: f64,
) {
    par_rows(ss, cbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let d = rho.at(x, y);
            let v = if d > 0.0 { (gamma * p.at(x, y).max(0.0) / d).sqrt() } else { 0.0 };
            row[(x - cbox.lo.x) as usize] = v;
        }
    });
}

// --------------------------------------------------------------------
// Artificial viscosity (von Neumann–Richtmyer quadratic + linear)
// --------------------------------------------------------------------

/// Velocity jumps across cell `(x, y)`: `(Δu, Δv)` from the four
/// surrounding nodes.
#[inline]
fn cell_velocity_jumps(u: View, v: View, x: i64, y: i64) -> (f64, f64) {
    let du = 0.5 * ((u.at(x + 1, y) + u.at(x + 1, y + 1)) - (u.at(x, y) + u.at(x, y + 1)));
    let dv = 0.5 * ((v.at(x, y + 1) + v.at(x + 1, y + 1)) - (v.at(x, y) + v.at(x + 1, y)));
    (du, dv)
}

/// Artificial viscous pressure `q`: quadratic + linear in the
/// compressive velocity jump, zero in expansion.
#[allow(clippy::too_many_arguments)]
pub fn viscosity(
    q: &mut [f64],
    cbox: GBox,
    rho: View,
    ss: View,
    u: View,
    v: View,
    region: GBox,
    dx: (f64, f64),
) {
    const Q2: f64 = 2.0; // quadratic coefficient
    const Q1: f64 = 0.5; // linear coefficient
    par_rows(q, cbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let (du, dv) = cell_velocity_jumps(u, v, x, y);
            let div = du / dx.0 + dv / dx.1;
            let out = &mut row[(x - cbox.lo.x) as usize];
            if div < 0.0 {
                // Compressive jump magnitude.
                let jump = (-du).max(0.0) + (-dv).max(0.0);
                *out = rho.at(x, y) * (Q2 * jump * jump + Q1 * ss.at(x, y) * jump);
            } else {
                *out = 0.0;
            }
        }
    });
}

// --------------------------------------------------------------------
// Timestep
// --------------------------------------------------------------------

/// Per-patch stable dt: CFL on the effective signal speed plus a
/// divergence (volume-change) constraint. Returns `+inf` for an empty
/// region.
#[allow(clippy::too_many_arguments)]
pub fn calc_dt(
    rho: View,
    p: View,
    q: View,
    ss: View,
    u: View,
    v: View,
    region: GBox,
    dx: (f64, f64),
    cfl: f64,
) -> f64 {
    if region.is_empty() {
        return f64::INFINITY;
    }
    let _ = p;
    (region.lo.y..region.hi.y)
        .into_par_iter()
        .map(|y| {
            let mut dt = f64::INFINITY;
            for x in region.lo.x..region.hi.x {
                let d = rho.at(x, y).max(1e-300);
                // Effective signal speed: sound speed stiffened by the
                // viscous pressure.
                let cs = (ss.at(x, y) * ss.at(x, y) + 2.0 * q.at(x, y) / d).sqrt();
                let umax = u
                    .at(x, y)
                    .abs()
                    .max(u.at(x + 1, y).abs())
                    .max(u.at(x, y + 1).abs())
                    .max(u.at(x + 1, y + 1).abs());
                let vmax = v
                    .at(x, y)
                    .abs()
                    .max(v.at(x + 1, y).abs())
                    .max(v.at(x, y + 1).abs())
                    .max(v.at(x + 1, y + 1).abs());
                let dtx = dx.0 / (cs + umax + 1e-12);
                let dty = dx.1 / (cs + vmax + 1e-12);
                let (du, dv) = cell_velocity_jumps(u, v, x, y);
                let div = (du / dx.0 + dv / dx.1).abs();
                let dtdiv = 0.25 / div.max(1e-12);
                dt = nan_min(nan_min(dt, cfl * nan_min(dtx, dty)), dtdiv);
            }
            dt
        })
        .reduce(|| f64::INFINITY, nan_min)
}

/// `f64::min`, except that a NaN operand gives NaN: the CFL reduction
/// must carry a NaN cell to the dt verdict instead of dropping it.
pub(crate) fn nan_min(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.min(b)
    }
}

// --------------------------------------------------------------------
// PdV
// --------------------------------------------------------------------

/// Net swept volume of cell `(x, y)` over `dt_eff` from time-averaged
/// node velocities (`u0`/`u1` are the same view in the predictor).
#[inline]
#[allow(clippy::too_many_arguments)]
fn total_flux(
    u0: View,
    u1: View,
    v0: View,
    v1: View,
    x: i64,
    y: i64,
    dt_eff: f64,
    dx: (f64, f64),
) -> f64 {
    let (xarea, yarea) = (dx.1, dx.0);
    let left =
        0.25 * dt_eff * xarea * (u0.at(x, y) + u0.at(x, y + 1) + u1.at(x, y) + u1.at(x, y + 1));
    let right = 0.25
        * dt_eff
        * xarea
        * (u0.at(x + 1, y) + u0.at(x + 1, y + 1) + u1.at(x + 1, y) + u1.at(x + 1, y + 1));
    let bottom =
        0.25 * dt_eff * yarea * (v0.at(x, y) + v0.at(x + 1, y) + v1.at(x, y) + v1.at(x + 1, y));
    let top = 0.25
        * dt_eff
        * yarea
        * (v0.at(x, y + 1) + v0.at(x + 1, y + 1) + v1.at(x, y + 1) + v1.at(x + 1, y + 1));
    right - left + top - bottom
}

/// PdV energy update: `e1 = e0 - (p + q)/ρ0 · ΔV / V`.
#[allow(clippy::too_many_arguments)]
pub fn pdv_energy(
    e1: &mut [f64],
    cbox: GBox,
    e0: View,
    rho0: View,
    p: View,
    q: View,
    u0: View,
    u1: View,
    v0: View,
    v1: View,
    region: GBox,
    dt_eff: f64,
    dx: (f64, f64),
) {
    let vol = dx.0 * dx.1;
    par_rows(e1, cbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let tf = total_flux(u0, u1, v0, v1, x, y, dt_eff, dx);
            let d = rho0.at(x, y).max(1e-300);
            let ech = (p.at(x, y) + q.at(x, y)) / d * tf / vol;
            row[(x - cbox.lo.x) as usize] = e0.at(x, y) - ech;
        }
    });
}

/// PdV density update: `ρ1 = ρ0 · V / (V + ΔV)`.
#[allow(clippy::too_many_arguments)]
pub fn pdv_density(
    rho1: &mut [f64],
    cbox: GBox,
    rho0: View,
    u0: View,
    u1: View,
    v0: View,
    v1: View,
    region: GBox,
    dt_eff: f64,
    dx: (f64, f64),
) {
    let vol = dx.0 * dx.1;
    par_rows(rho1, cbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let tf = total_flux(u0, u1, v0, v1, x, y, dt_eff, dx);
            row[(x - cbox.lo.x) as usize] = rho0.at(x, y) * vol / (vol + tf);
        }
    });
}

/// Plain field copy over a region (revert / reset).
pub fn copy_field(dst: &mut [f64], dbox: GBox, src: View, region: GBox) {
    par_rows(dst, dbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            row[(x - dbox.lo.x) as usize] = src.at(x, y);
        }
    });
}

// --------------------------------------------------------------------
// Acceleration
// --------------------------------------------------------------------

/// Node velocity update from pressure and viscosity gradients. `axis`
/// selects the component being updated (0 = u, 1 = v).
#[allow(clippy::too_many_arguments)]
pub fn accelerate(
    vel1: &mut [f64],
    nbox: GBox,
    vel0: View,
    rho0: View,
    p: View,
    q: View,
    region: GBox,
    dt: f64,
    dx: (f64, f64),
    axis: usize,
) {
    let vol = dx.0 * dx.1;
    let (xarea, yarea) = (dx.1, dx.0);
    par_rows(vel1, nbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let nodal_mass = 0.25
                * (rho0.at(x - 1, y - 1) + rho0.at(x, y - 1) + rho0.at(x, y) + rho0.at(x - 1, y))
                * vol;
            let sbm = 0.5 * dt / nodal_mass.max(1e-300);
            let grad = |f: View| -> f64 {
                if axis == 0 {
                    xarea * ((f.at(x, y) - f.at(x - 1, y)) + (f.at(x, y - 1) - f.at(x - 1, y - 1)))
                } else {
                    yarea * ((f.at(x, y) - f.at(x, y - 1)) + (f.at(x - 1, y) - f.at(x - 1, y - 1)))
                }
            };
            row[(x - nbox.lo.x) as usize] = vel0.at(x, y) - sbm * (grad(p) + grad(q));
        }
    });
}

// --------------------------------------------------------------------
// Volume fluxes
// --------------------------------------------------------------------

/// Face volume fluxes from time-averaged node velocities. `axis`
/// selects x-faces (0) or y-faces (1); `region` is in the side data
/// index space.
#[allow(clippy::too_many_arguments)]
pub fn flux_calc(
    vol_flux: &mut [f64],
    sbox: GBox,
    vel0: View,
    vel1: View,
    region: GBox,
    dt: f64,
    dx: (f64, f64),
    axis: usize,
) {
    let (xarea, yarea) = (dx.1, dx.0);
    par_rows(vol_flux, sbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let f = if axis == 0 {
                0.25 * dt
                    * xarea
                    * (vel0.at(x, y) + vel0.at(x, y + 1) + vel1.at(x, y) + vel1.at(x, y + 1))
            } else {
                0.25 * dt
                    * yarea
                    * (vel0.at(x, y) + vel0.at(x + 1, y) + vel1.at(x, y) + vel1.at(x + 1, y))
            };
            row[(x - sbox.lo.x) as usize] = f;
        }
    });
}

// --------------------------------------------------------------------
// Cell advection (van Leer second order, directionally split)
// --------------------------------------------------------------------

/// Pre-advection cell volume for the current sweep.
#[allow(clippy::too_many_arguments)]
pub fn advec_pre_vol(
    pre: &mut [f64],
    cbox: GBox,
    vfx: View,
    vfy: View,
    region: GBox,
    dir: usize,
    sweep: usize,
    dx: (f64, f64),
) {
    let vol = dx.0 * dx.1;
    par_rows(pre, cbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let dfx = vfx.at(x + 1, y) - vfx.at(x, y);
            let dfy = vfy.at(x, y + 1) - vfy.at(x, y);
            let v = if sweep == 1 {
                vol + dfx + dfy
            } else if dir == 0 {
                vol + dfx
            } else {
                vol + dfy
            };
            row[(x - cbox.lo.x) as usize] = v;
        }
    });
}

/// Post-advection cell volume for the current sweep.
#[allow(clippy::too_many_arguments)]
pub fn advec_post_vol(
    post: &mut [f64],
    cbox: GBox,
    vfx: View,
    vfy: View,
    region: GBox,
    dir: usize,
    sweep: usize,
    dx: (f64, f64),
) {
    let vol = dx.0 * dx.1;
    par_rows(post, cbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let dfx = vfx.at(x + 1, y) - vfx.at(x, y);
            let dfy = vfy.at(x, y + 1) - vfy.at(x, y);
            // post = pre - (sweep-direction flux difference).
            let v = if sweep == 1 {
                if dir == 0 {
                    vol + dfy
                } else {
                    vol + dfx
                }
            } else {
                vol
            };
            row[(x - cbox.lo.x) as usize] = v;
        }
    });
}

/// The van Leer face value limiter: second-order upwind-biased face
/// reconstruction of `field` at face `f` (between cells `f-1` and `f`
/// along `axis`), given the signed face volume flux.
#[inline]
fn van_leer_face(
    field: View,
    pre_vol: View,
    flux: f64,
    x: i64,
    y: i64,
    axis: usize,
    mass_weighted: Option<(View, View)>, // (mass_flux view, pre_mass denominator field = density)
) -> f64 {
    // Indices along the sweep axis.
    let cell = |k: i64| -> (i64, i64) {
        if axis == 0 {
            (k, y)
        } else {
            (x, k)
        }
    };
    let f0 = if axis == 0 { x } else { y };
    let (donor, upwind, downwind) =
        if flux > 0.0 { (f0 - 1, f0 - 2, f0) } else { (f0, f0 + 1, f0 - 1) };
    let (dx_, dy_) = cell(donor);
    let (ux, uy) = cell(upwind);
    let (wx, wy) = cell(downwind);
    let sigma = match mass_weighted {
        None => {
            let pv = pre_vol.at_c(dx_, dy_).max(1e-300);
            flux.abs() / pv
        }
        Some((mass_flux, density)) => {
            let pm = (density.at_c(dx_, dy_) * pre_vol.at_c(dx_, dy_)).max(1e-300);
            mass_flux.at(x, y).abs() / pm
        }
    };
    let val_d = field.at_c(dx_, dy_);
    let diffuw = val_d - field.at_c(ux, uy);
    let diffdw = field.at_c(wx, wy) - val_d;
    let limiter = if diffuw * diffdw > 0.0 {
        let auw = diffuw.abs();
        let adw = diffdw.abs();
        let wind = if diffdw >= 0.0 { 1.0 } else { -1.0 };
        (1.0 - sigma) * wind * auw.min(adw).min(((2.0 - sigma) * adw + (1.0 + sigma) * auw) / 6.0)
    } else {
        0.0
    };
    let _ = sign;
    val_d + limiter
}

/// Mass flux through the faces of the sweep axis:
/// `mass_flux = vol_flux · ρ_face` with the van Leer face density.
#[allow(clippy::too_many_arguments)]
pub fn advec_mass_flux(
    mass_flux: &mut [f64],
    sbox: GBox,
    vol_flux: View,
    density1: View,
    pre_vol: View,
    region: GBox,
    axis: usize,
) {
    par_rows(mass_flux, sbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let vf = vol_flux.at(x, y);
            let rho_face = van_leer_face(density1, pre_vol, vf, x, y, axis, None);
            row[(x - sbox.lo.x) as usize] = vf * rho_face;
        }
    });
}

/// Energy flux through the faces of the sweep axis:
/// `ener_flux = mass_flux · e_face` with the mass-coordinate van Leer
/// face energy. `ener_flux` is stored in a cell-shaped work array
/// indexed by the face's low cell.
#[allow(clippy::too_many_arguments)]
pub fn advec_ener_flux(
    ener_flux: &mut [f64],
    cbox: GBox,
    mass_flux: View,
    energy1: View,
    density1: View,
    pre_vol: View,
    region: GBox,
    axis: usize,
) {
    par_rows(ener_flux, cbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let mf = mass_flux.at(x, y);
            let e_face =
                van_leer_face(energy1, pre_vol, mf, x, y, axis, Some((mass_flux, density1)));
            row[(x - cbox.lo.x) as usize] = mf * e_face;
        }
    });
}

/// Cell energy update from the energy and mass fluxes (must run before
/// [`advec_cell_density`], which overwrites the pre-advection density).
#[allow(clippy::too_many_arguments)]
pub fn advec_cell_energy(
    energy1: &mut [f64],
    cbox: GBox,
    energy_old: View,
    density_old: View,
    pre_vol: View,
    mass_flux: View,
    ener_flux: View,
    region: GBox,
    axis: usize,
) {
    par_rows(energy1, cbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let (mf_lo, mf_hi, ef_lo, ef_hi) = if axis == 0 {
                (
                    mass_flux.at(x, y),
                    mass_flux.at(x + 1, y),
                    ener_flux.at(x, y),
                    ener_flux.at_c(x + 1, y),
                )
            } else {
                (
                    mass_flux.at(x, y),
                    mass_flux.at(x, y + 1),
                    ener_flux.at(x, y),
                    ener_flux.at_c(x, y + 1),
                )
            };
            let pre_mass = density_old.at(x, y) * pre_vol.at(x, y);
            let post_mass = pre_mass + mf_lo - mf_hi;
            row[(x - cbox.lo.x) as usize] =
                (energy_old.at(x, y) * pre_mass + ef_lo - ef_hi) / post_mass.max(1e-300);
        }
    });
}

/// Cell density update from the mass and volume fluxes.
#[allow(clippy::too_many_arguments)]
pub fn advec_cell_density(
    density1: &mut [f64],
    cbox: GBox,
    density_old: View,
    pre_vol: View,
    mass_flux: View,
    vol_flux: View,
    region: GBox,
    axis: usize,
) {
    par_rows(density1, cbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let (mf_lo, mf_hi, vf_lo, vf_hi) = if axis == 0 {
                (
                    mass_flux.at(x, y),
                    mass_flux.at(x + 1, y),
                    vol_flux.at(x, y),
                    vol_flux.at(x + 1, y),
                )
            } else {
                (
                    mass_flux.at(x, y),
                    mass_flux.at(x, y + 1),
                    vol_flux.at(x, y),
                    vol_flux.at(x, y + 1),
                )
            };
            let pre_mass = density_old.at(x, y) * pre_vol.at(x, y);
            let post_mass = pre_mass + mf_lo - mf_hi;
            let advec_vol = pre_vol.at(x, y) + vf_lo - vf_hi;
            row[(x - cbox.lo.x) as usize] = post_mass / advec_vol.max(1e-300);
        }
    });
}

// --------------------------------------------------------------------
// Momentum advection
// --------------------------------------------------------------------

/// Nodal mass flux: the average of the four adjacent face mass fluxes
/// along the sweep axis.
pub fn mom_node_flux(
    node_flux: &mut [f64],
    nbox: GBox,
    mass_flux: View,
    region: GBox,
    axis: usize,
) {
    par_rows(node_flux, nbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let v = if axis == 0 {
                0.25 * (mass_flux.at_c(x, y - 1)
                    + mass_flux.at_c(x, y)
                    + mass_flux.at_c(x + 1, y - 1)
                    + mass_flux.at_c(x + 1, y))
            } else {
                0.25 * (mass_flux.at_c(x - 1, y)
                    + mass_flux.at_c(x, y)
                    + mass_flux.at_c(x - 1, y + 1)
                    + mass_flux.at_c(x, y + 1))
            };
            row[(x - nbox.lo.x) as usize] = v;
        }
    });
}

/// Post-advection nodal mass: the average of the four adjacent cell
/// masses (post-sweep density × post volume).
pub fn mom_node_mass_post(
    node_mass_post: &mut [f64],
    nbox: GBox,
    density1: View,
    post_vol: View,
    region: GBox,
) {
    par_rows(node_mass_post, nbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let m = |i: i64, j: i64| density1.at_c(i, j) * post_vol.at_c(i, j);
            row[(x - nbox.lo.x) as usize] =
                0.25 * (m(x - 1, y - 1) + m(x, y - 1) + m(x - 1, y) + m(x, y));
        }
    });
}

/// Pre-advection nodal mass from the post mass and the nodal fluxes.
pub fn mom_node_mass_pre(
    node_mass_pre: &mut [f64],
    nbox: GBox,
    node_mass_post: View,
    node_flux: View,
    region: GBox,
    axis: usize,
) {
    par_rows(node_mass_pre, nbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let (lo_f, hi_f) = if axis == 0 {
                (node_flux.at_c(x - 1, y), node_flux.at(x, y))
            } else {
                (node_flux.at_c(x, y - 1), node_flux.at(x, y))
            };
            row[(x - nbox.lo.x) as usize] = node_mass_post.at(x, y) - lo_f + hi_f;
        }
    });
}

/// Momentum flux: the advected velocity times the nodal mass flux,
/// with the van Leer limited node-face velocity.
#[allow(clippy::too_many_arguments)]
pub fn mom_flux(
    mom_flux: &mut [f64],
    nbox: GBox,
    vel1: View,
    node_flux: View,
    node_mass_pre: View,
    region: GBox,
    axis: usize,
) {
    par_rows(mom_flux, nbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let nf = node_flux.at(x, y);
            let f0 = if axis == 0 { x } else { y };
            let (donor, upwind, downwind) =
                if nf < 0.0 { (f0 + 1, f0 + 2, f0) } else { (f0, f0 - 1, f0 + 1) };
            let node = |k: i64| -> (i64, i64) {
                if axis == 0 {
                    (k, y)
                } else {
                    (x, k)
                }
            };
            let (dxn, dyn_) = node(donor);
            let (uxn, uyn) = node(upwind);
            let (wxn, wyn) = node(downwind);
            let sigma = nf.abs() / node_mass_pre.at_c(dxn, dyn_).max(1e-300);
            let vd = vel1.at_c(dxn, dyn_);
            let vdiffuw = vd - vel1.at_c(uxn, uyn);
            let vdiffdw = vel1.at_c(wxn, wyn) - vd;
            let limiter = if vdiffuw * vdiffdw > 0.0 {
                let auw = vdiffuw.abs();
                let adw = vdiffdw.abs();
                let wind = if vdiffdw >= 0.0 { 1.0 } else { -1.0 };
                wind * auw.min(adw).min(((2.0 - sigma) * adw + (1.0 + sigma) * auw) / 6.0)
            } else {
                0.0
            };
            let advec_vel = vd + (1.0 - sigma) * limiter;
            row[(x - nbox.lo.x) as usize] = advec_vel * nf;
        }
    });
}

/// Node velocity update from the momentum fluxes and nodal masses.
#[allow(clippy::too_many_arguments)]
pub fn mom_vel_update(
    vel1: &mut [f64],
    nbox: GBox,
    vel_old: View,
    mom_flux: View,
    node_mass_pre: View,
    node_mass_post: View,
    region: GBox,
    axis: usize,
) {
    par_rows(vel1, nbox, region, |row, y| {
        for x in region.lo.x..region.hi.x {
            let (lo_f, hi_f) = if axis == 0 {
                (mom_flux.at_c(x - 1, y), mom_flux.at(x, y))
            } else {
                (mom_flux.at_c(x, y - 1), mom_flux.at(x, y))
            };
            row[(x - nbox.lo.x) as usize] = (vel_old.at(x, y) * node_mass_pre.at(x, y) + lo_f
                - hi_f)
                / node_mass_post.at(x, y).max(1e-300);
        }
    });
}

// --------------------------------------------------------------------
// Flagging and diagnostics
// --------------------------------------------------------------------

/// Gradient refinement heuristic: tag where the relative jump of
/// density or energy across the cell exceeds the thresholds. Writes
/// row-major `i32` tags (0/1) over `region` into `tags`.
///
/// # Panics
/// Panics if `tags.len()` does not match the region.
pub fn flag_cells(
    tags: &mut [i32],
    rho: View,
    e: View,
    region: GBox,
    density_threshold: f64,
    energy_threshold: f64,
) {
    let w = region.size().x;
    assert_eq!(tags.len(), region.num_cells() as usize, "flag_cells: tag buffer shape");
    tags.par_chunks_mut(w as usize).enumerate().for_each(|(r, row)| {
        let y = region.lo.y + r as i64;
        for x in region.lo.x..region.hi.x {
            let rel = |f: View, thresh: f64| {
                let c = f.at(x, y).abs().max(1e-300);
                let jx = (f.at_c(x + 1, y) - f.at_c(x - 1, y)).abs();
                let jy = (f.at_c(x, y + 1) - f.at_c(x, y - 1)).abs();
                jx.max(jy) / c > thresh
            };
            row[(x - region.lo.x) as usize] =
                i32::from(rel(rho, density_threshold) || rel(e, energy_threshold));
        }
    });
}

/// Conservation diagnostics over `region` (CloverLeaf `field_summary`).
#[allow(clippy::too_many_arguments)]
pub fn field_summary(
    rho: View,
    e: View,
    p: View,
    u: View,
    v: View,
    region: GBox,
    dx: (f64, f64),
) -> crate::state::Summary {
    let vol = dx.0 * dx.1;
    (region.lo.y..region.hi.y)
        .into_par_iter()
        .map(|y| {
            let mut s = crate::state::Summary::default();
            for x in region.lo.x..region.hi.x {
                let d = rho.at(x, y);
                let vsqrd = 0.25
                    * ((u.at(x, y).powi(2) + v.at(x, y).powi(2))
                        + (u.at(x + 1, y).powi(2) + v.at(x + 1, y).powi(2))
                        + (u.at(x, y + 1).powi(2) + v.at(x, y + 1).powi(2))
                        + (u.at(x + 1, y + 1).powi(2) + v.at(x + 1, y + 1).powi(2)));
                s.volume += vol;
                s.mass += d * vol;
                s.internal_energy += d * e.at(x, y) * vol;
                s.kinetic_energy += 0.5 * d * vsqrd * vol;
                s.pressure += p.at(x, y) * vol;
            }
            s
        })
        .reduce(crate::state::Summary::default, |a, b| a.merged(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbamr_geometry::IntVector;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    fn constant(dbox: GBox, v: f64) -> Vec<f64> {
        vec![v; dbox.num_cells() as usize]
    }

    #[test]
    fn view_indexing_and_clamping() {
        let dbox = b(-1, -1, 3, 3);
        let data: Vec<f64> = dbox.iter().map(|p| (p.x * 10 + p.y) as f64).collect();
        let v = View::new(&data, dbox);
        assert_eq!(v.at(0, 0), 0.0);
        assert_eq!(v.at(2, 1), 21.0);
        assert_eq!(v.at_c(5, 1), v.at(2, 1));
        assert_eq!(v.at_c(-9, -9), v.at(-1, -1));
    }

    #[test]
    fn ideal_gas_on_uniform_state() {
        let cbox = b(0, 0, 4, 4);
        let rho = constant(cbox, 1.0);
        let e = constant(cbox, 2.5);
        let mut p = constant(cbox, 0.0);
        let mut ss = constant(cbox, 0.0);
        ideal_gas_pressure(&mut p, cbox, View::new(&rho, cbox), View::new(&e, cbox), cbox, 1.4);
        assert!((p[0] - 1.0).abs() < 1e-14); // (1.4-1)*1*2.5 = 1
        ideal_gas_soundspeed(&mut ss, cbox, View::new(&p, cbox), View::new(&rho, cbox), cbox, 1.4);
        assert!((ss[0] - (1.4f64).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn viscosity_zero_in_uniform_flow() {
        let cbox = b(0, 0, 4, 4);
        let nbox = b(0, 0, 5, 5);
        let rho = constant(cbox, 1.0);
        let ss = constant(cbox, 1.0);
        let u = constant(nbox, 3.0); // uniform motion: no compression
        let v = constant(nbox, -1.0);
        let mut q = constant(cbox, 9.0);
        viscosity(
            &mut q,
            cbox,
            View::new(&rho, cbox),
            View::new(&ss, cbox),
            View::new(&u, nbox),
            View::new(&v, nbox),
            cbox,
            (0.1, 0.1),
        );
        assert!(q.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn viscosity_positive_under_compression() {
        let cbox = b(0, 0, 2, 2);
        let nbox = b(0, 0, 3, 3);
        let rho = constant(cbox, 2.0);
        let ss = constant(cbox, 1.0);
        // Converging x-velocity: u = -x.
        let u: Vec<f64> = nbox.iter().map(|p| -(p.x as f64)).collect();
        let v = constant(nbox, 0.0);
        let mut q = constant(cbox, 0.0);
        viscosity(
            &mut q,
            cbox,
            View::new(&rho, cbox),
            View::new(&ss, cbox),
            View::new(&u, nbox),
            View::new(&v, nbox),
            cbox,
            (1.0, 1.0),
        );
        // jump = 1 -> q = 2*(2*1 + 0.5*1*1) = 5.
        assert!(q.iter().all(|&x| (x - 5.0).abs() < 1e-14), "{q:?}");
    }

    #[test]
    fn calc_dt_scales_with_cell_size() {
        let cbox = b(0, 0, 4, 4);
        let nbox = b(0, 0, 5, 5);
        let rho = constant(cbox, 1.0);
        let p = constant(cbox, 1.0);
        let q = constant(cbox, 0.0);
        let ss = constant(cbox, 2.0);
        let u = constant(nbox, 0.0);
        let v = constant(nbox, 0.0);
        let views = |d: &'static str| d;
        let _ = views;
        let dt1 = calc_dt(
            View::new(&rho, cbox),
            View::new(&p, cbox),
            View::new(&q, cbox),
            View::new(&ss, cbox),
            View::new(&u, nbox),
            View::new(&v, nbox),
            cbox,
            (0.1, 0.1),
            0.5,
        );
        let dt2 = calc_dt(
            View::new(&rho, cbox),
            View::new(&p, cbox),
            View::new(&q, cbox),
            View::new(&ss, cbox),
            View::new(&u, nbox),
            View::new(&v, nbox),
            cbox,
            (0.05, 0.05),
            0.5,
        );
        assert!((dt1 / dt2 - 2.0).abs() < 1e-12);
        // dt = cfl * dx / cs = 0.5*0.1/2.
        assert!((dt1 - 0.025).abs() < 1e-12);
        assert_eq!(
            calc_dt(
                View::new(&rho, cbox),
                View::new(&p, cbox),
                View::new(&q, cbox),
                View::new(&ss, cbox),
                View::new(&u, nbox),
                View::new(&v, nbox),
                GBox::EMPTY,
                (0.1, 0.1),
                0.5
            ),
            f64::INFINITY
        );
    }

    #[test]
    fn pdv_conserves_state_with_zero_velocity() {
        let cbox = b(0, 0, 4, 4);
        let nbox = b(0, 0, 5, 5);
        let rho0 = constant(cbox, 1.5);
        let e0 = constant(cbox, 2.0);
        let p = constant(cbox, 1.0);
        let q = constant(cbox, 0.0);
        let u = constant(nbox, 0.0);
        let v = constant(nbox, 0.0);
        let mut e1 = constant(cbox, 0.0);
        let mut rho1 = constant(cbox, 0.0);
        let uv = View::new(&u, nbox);
        let vv = View::new(&v, nbox);
        pdv_energy(
            &mut e1,
            cbox,
            View::new(&e0, cbox),
            View::new(&rho0, cbox),
            View::new(&p, cbox),
            View::new(&q, cbox),
            uv,
            uv,
            vv,
            vv,
            cbox,
            0.01,
            (0.1, 0.1),
        );
        pdv_density(
            &mut rho1,
            cbox,
            View::new(&rho0, cbox),
            uv,
            uv,
            vv,
            vv,
            cbox,
            0.01,
            (0.1, 0.1),
        );
        assert!(e1.iter().all(|&x| (x - 2.0).abs() < 1e-14));
        assert!(rho1.iter().all(|&x| (x - 1.5).abs() < 1e-14));
    }

    #[test]
    fn pdv_compression_heats_and_densifies() {
        // Uniformly converging flow: u = -x on nodes.
        let cbox = b(0, 0, 2, 2);
        let nbox = b(0, 0, 3, 3);
        let rho0 = constant(cbox, 1.0);
        let e0 = constant(cbox, 1.0);
        let p = constant(cbox, 0.4);
        let q = constant(cbox, 0.0);
        let u: Vec<f64> = nbox.iter().map(|pnt| -(pnt.x as f64)).collect();
        let v = constant(nbox, 0.0);
        let mut e1 = constant(cbox, 0.0);
        let mut rho1 = constant(cbox, 0.0);
        let uv = View::new(&u, nbox);
        let vv = View::new(&v, nbox);
        pdv_energy(
            &mut e1,
            cbox,
            View::new(&e0, cbox),
            View::new(&rho0, cbox),
            View::new(&p, cbox),
            View::new(&q, cbox),
            uv,
            uv,
            vv,
            vv,
            cbox,
            0.05,
            (1.0, 1.0),
        );
        pdv_density(
            &mut rho1,
            cbox,
            View::new(&rho0, cbox),
            uv,
            uv,
            vv,
            vv,
            cbox,
            0.05,
            (1.0, 1.0),
        );
        assert!(e1.iter().all(|&x| x > 1.0), "compression must heat: {e1:?}");
        assert!(rho1.iter().all(|&x| x > 1.0), "compression must densify: {rho1:?}");
    }

    #[test]
    fn accelerate_pushes_down_pressure_gradient() {
        let cbox = b(-1, -1, 4, 4);
        let nbox = b(0, 0, 4, 4);
        let rho0 = constant(cbox, 1.0);
        // Pressure increasing with x: force along -x.
        let p: Vec<f64> = cbox.iter().map(|pnt| pnt.x as f64).collect();
        let q = constant(cbox, 0.0);
        let u0 = constant(nbox, 0.0);
        let mut u1 = constant(nbox, 0.0);
        accelerate(
            &mut u1,
            nbox,
            View::new(&u0, nbox),
            View::new(&rho0, cbox),
            View::new(&p, cbox),
            View::new(&q, cbox),
            nbox,
            0.1,
            (1.0, 1.0),
            0,
        );
        assert!(u1.iter().all(|&x| x < 0.0), "{u1:?}");
    }

    #[test]
    fn flux_calc_zero_for_static_flow() {
        let nbox = b(0, 0, 5, 5);
        let sxbox = b(0, 0, 5, 4);
        let u = constant(nbox, 0.0);
        let mut vf = constant(sxbox, 1.0);
        flux_calc(
            &mut vf,
            sxbox,
            View::new(&u, nbox),
            View::new(&u, nbox),
            sxbox,
            0.1,
            (1.0, 1.0),
            0,
        );
        assert!(vf.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn advection_of_uniform_state_is_exact() {
        // A uniform density advected by uniform fluxes must stay
        // uniform (the telescoping test for the flux form).
        let cbox = b(-2, -2, 6, 6);
        let sxbox = b(-2, -2, 7, 6);
        let sybox = b(-2, -2, 6, 7);
        let rho = constant(cbox, 2.0);
        let e = constant(cbox, 1.0);
        let vol = 1.0;
        // Uniform positive x-flux, zero y-flux.
        let vfx = constant(sxbox, 0.1 * vol);
        let vfy = constant(sybox, 0.0);
        let mut pre = constant(cbox, 0.0);
        let mut post = constant(cbox, 0.0);
        advec_pre_vol(
            &mut pre,
            cbox,
            View::new(&vfx, sxbox),
            View::new(&vfy, sybox),
            cbox,
            0,
            1,
            (1.0, 1.0),
        );
        advec_post_vol(
            &mut post,
            cbox,
            View::new(&vfx, sxbox),
            View::new(&vfy, sybox),
            cbox,
            0,
            1,
            (1.0, 1.0),
        );
        assert!(pre.iter().all(|&x| (x - 1.0).abs() < 1e-14));
        let mut mfx = constant(sxbox, 0.0);
        let interior = b(0, 0, 4, 4);
        let faces = b(0, 0, 5, 4);
        advec_mass_flux(
            &mut mfx,
            sxbox,
            View::new(&vfx, sxbox),
            View::new(&rho, cbox),
            View::new(&pre, cbox),
            faces,
            0,
        );
        for p in faces.iter() {
            let got = mfx[sxbox.offset_of(p)];
            assert!((got - 0.2).abs() < 1e-14, "face {p}: {got}"); // 0.1 * rho 2.0
        }
        let mut ef = constant(cbox, 0.0);
        advec_ener_flux(
            &mut ef,
            cbox,
            View::new(&mfx, sxbox),
            View::new(&e, cbox),
            View::new(&rho, cbox),
            View::new(&pre, cbox),
            b(0, 0, 5, 4).intersect(cbox),
            0,
        );
        let mut e1 = constant(cbox, 0.0);
        let mut rho1 = constant(cbox, 0.0);
        advec_cell_energy(
            &mut e1,
            cbox,
            View::new(&e, cbox),
            View::new(&rho, cbox),
            View::new(&pre, cbox),
            View::new(&mfx, sxbox),
            View::new(&ef, cbox),
            interior,
            0,
        );
        advec_cell_density(
            &mut rho1,
            cbox,
            View::new(&rho, cbox),
            View::new(&pre, cbox),
            View::new(&mfx, sxbox),
            View::new(&vfx, sxbox),
            interior,
            0,
        );
        for p in interior.iter() {
            assert!((rho1[cbox.offset_of(p)] - 2.0).abs() < 1e-13, "rho at {p}");
            assert!((e1[cbox.offset_of(p)] - 1.0).abs() < 1e-13, "e at {p}");
        }
    }

    #[test]
    fn flagging_marks_jumps_only() {
        let region = b(0, 0, 8, 4);
        let dbox = b(-2, -2, 10, 6);
        let rho: Vec<f64> = dbox.iter().map(|p| if p.x < 4 { 1.0 } else { 2.0 }).collect();
        let e = constant(dbox, 1.0);
        let mut tags = vec![0i32; region.num_cells() as usize];
        flag_cells(&mut tags, View::new(&rho, dbox), View::new(&e, dbox), region, 0.1, 0.1);
        for (k, p) in region.iter().enumerate() {
            let expected = (3..=4).contains(&p.x);
            assert_eq!(tags[k] == 1, expected, "cell {p}");
        }
    }

    #[test]
    fn advection_mass_telescopes_exactly() {
        // With zero flux through the outer faces of a region, the total
        // advected mass over that region is exactly conserved for
        // arbitrary interior fluxes (the telescoping property the
        // finite-volume form guarantees).
        let cbox = b(-2, -2, 8, 8);
        let sxbox = b(-2, -2, 9, 8);
        let interior = b(0, 0, 6, 6);
        let mut rho: Vec<f64> = constant(cbox, 0.0);
        for (k, v) in rho.iter_mut().enumerate() {
            *v = 1.0 + 0.3 * ((k * 13 % 7) as f64);
        }
        // Random-ish interior x-fluxes, zero on the interior's outer
        // faces (x = 0 and x = 6) and beyond.
        let mut vfx: Vec<f64> = constant(sxbox, 0.0);
        for p in b(1, 0, 6, 6).iter() {
            vfx[sxbox.offset_of(p)] = 0.05 * (((p.x * 31 + p.y * 17) % 11) as f64 - 5.0) / 10.0;
        }
        let vfy = constant(b(-2, -2, 8, 9), 0.0);
        let mut pre = constant(cbox, 0.0);
        advec_pre_vol(
            &mut pre,
            cbox,
            View::new(&vfx, sxbox),
            View::new(&vfy, b(-2, -2, 8, 9)),
            cbox,
            0,
            1,
            (1.0, 1.0),
        );
        let mut mfx = constant(sxbox, 0.0);
        advec_mass_flux(
            &mut mfx,
            sxbox,
            View::new(&vfx, sxbox),
            View::new(&rho, cbox),
            View::new(&pre, cbox),
            b(0, 0, 7, 6),
            0,
        );
        let mut rho1 = constant(cbox, 0.0);
        advec_cell_density(
            &mut rho1,
            cbox,
            View::new(&rho, cbox),
            View::new(&pre, cbox),
            View::new(&mfx, sxbox),
            View::new(&vfx, sxbox),
            interior,
            0,
        );
        // Total mass over the interior: sum rho*pre before, rho1*advec_vol
        // after; with zero boundary fluxes these are equal.
        let before: f64 =
            interior.iter().map(|p| rho[cbox.offset_of(p)] * pre[cbox.offset_of(p)]).sum();
        let after: f64 = interior
            .iter()
            .map(|p| {
                let advec_vol = pre[cbox.offset_of(p)] + vfx[sxbox.offset_of(p)]
                    - vfx[sxbox.offset_of(p + IntVector::new(1, 0))];
                rho1[cbox.offset_of(p)] * advec_vol
            })
            .sum();
        assert!((before - after).abs() < 1e-12, "mass drift {before} -> {after}");
    }

    #[test]
    fn accelerate_is_zero_for_uniform_pressure() {
        let cbox = b(-1, -1, 5, 5);
        let nbox = b(0, 0, 5, 5);
        let rho0 = constant(cbox, 1.0);
        let p = constant(cbox, 2.5);
        let q = constant(cbox, 0.7);
        let u0: Vec<f64> = nbox.iter().map(|pnt| (pnt.x - pnt.y) as f64).collect();
        let mut u1 = constant(nbox, 0.0);
        accelerate(
            &mut u1,
            nbox,
            View::new(&u0, nbox),
            View::new(&rho0, cbox),
            View::new(&p, cbox),
            View::new(&q, cbox),
            nbox,
            0.1,
            (1.0, 1.0),
            0,
        );
        // No gradients: velocity unchanged.
        assert_eq!(u1, u0);
    }

    #[test]
    fn field_summary_totals() {
        let cbox = b(0, 0, 2, 2);
        let nbox = b(0, 0, 3, 3);
        let rho = constant(cbox, 2.0);
        let e = constant(cbox, 3.0);
        let p = constant(cbox, 1.0);
        let u = constant(nbox, 1.0);
        let v = constant(nbox, 0.0);
        let s = field_summary(
            View::new(&rho, cbox),
            View::new(&e, cbox),
            View::new(&p, cbox),
            View::new(&u, nbox),
            View::new(&v, nbox),
            cbox,
            (0.5, 0.5),
        );
        assert!((s.volume - 1.0).abs() < 1e-14);
        assert!((s.mass - 2.0).abs() < 1e-14);
        assert!((s.internal_energy - 6.0).abs() < 1e-14);
        assert!((s.kinetic_energy - 1.0).abs() < 1e-14); // 0.5*2*1*1
        assert!((s.pressure - 1.0).abs() < 1e-14);
        assert!((s.total_energy() - 7.0).abs() < 1e-14);
    }
}
