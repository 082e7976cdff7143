//! Per-phase host/device equivalence: every method of the
//! [`PatchIntegrator`] trait must produce bit-identical results on the
//! CPU baseline and the device build, starting from identical random
//! patch states. The device step phases are the batched kernel wiring
//! run on a one-patch batch, so these tests check that wiring directly
//! against the host reference. Each step phase runs on the device both
//! resident and with `copy_back`, which must also move the staged
//! arrays over PCIe. End-to-end equivalence is covered elsewhere; these
//! tests localise a divergence to the exact phase that caused it.

use rand::{Rng, SeedableRng};
use rbamr_amr::patch::PatchId;
use rbamr_amr::{HostData, HostDataFactory, Patch, VariableRegistry};
use rbamr_device::Device;
use rbamr_geometry::GBox;
use rbamr_gpu_amr::{DeviceData, DeviceDataFactory};
use rbamr_hydro::{
    DevicePatchIntegrator, Fields, FlagThresholds, HostPatchIntegrator, PatchIntegrator,
};
use rbamr_perfmodel::Category;
use std::sync::Arc;

const DX: (f64, f64) = (0.05, 0.05);
const GAMMA: f64 = 1.4;
const DT: f64 = 1e-3;

/// Build matched host and device patches with identical random state in
/// every field (positive for densities/energies, signed for the rest).
fn matched_patches(seed: u64) -> (Patch, Fields, Patch, Fields, Device) {
    let cell_box = GBox::from_coords(0, 0, 12, 10);

    let mut host_reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
    let host_fields = Fields::register(&mut host_reg);
    let mut host_patch = Patch::new(PatchId { level: 0, index: 0 }, cell_box, 0, &host_reg);

    let device = Device::k20x();
    let mut dev_reg = VariableRegistry::new(Arc::new(DeviceDataFactory::new(device.clone())));
    let dev_fields = Fields::register(&mut dev_reg);
    let mut dev_patch = Patch::new(PatchId { level: 0, index: 0 }, cell_box, 0, &dev_reg);

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for v in 0..host_reg.len() {
        let var = rbamr_amr::VariableId(v);
        let positive = v < 7; // densities/energies/EOS fields stay positive
        let len = host_patch.host::<f64>(var).as_slice().len();
        let image: Vec<f64> = (0..len)
            .map(|_| if positive { rng.gen_range(0.2..2.0) } else { rng.gen_range(-1.0..1.0) })
            .collect();
        host_patch.host_mut::<f64>(var).as_mut_slice().copy_from_slice(&image);
        dev_patch
            .data_mut(var)
            .as_any_mut()
            .downcast_mut::<DeviceData<f64>>()
            .unwrap()
            .upload_all(&image, Category::Other);
    }
    (host_patch, host_fields, dev_patch, dev_fields, device)
}

/// Compare every field of the two patches bit for bit.
fn assert_all_fields_equal(host: &Patch, dev: &Patch, nvars: usize, phase: &str) {
    for v in 0..nvars {
        let var = rbamr_amr::VariableId(v);
        let h: &HostData<f64> = host.host(var);
        let d = dev
            .data(var)
            .as_any()
            .downcast_ref::<DeviceData<f64>>()
            .unwrap()
            .download_all(Category::Other);
        for (i, (a, b)) in h.as_slice().iter().zip(&d).enumerate() {
            assert!(
                a == b || (a.is_nan() && b.is_nan()),
                "{phase}: field {v} diverges at linear index {i}: host {a:e} vs device {b:e}"
            );
        }
    }
}

/// Run one phase on matched host and device patches and compare every
/// field; returns the D2H bytes the phase itself moved.
fn run_phase(
    seed: u64,
    phase: &str,
    copy_back: bool,
    run: &impl Fn(&dyn PatchIntegrator, &mut Patch, &Fields),
) -> u64 {
    let (mut hp, hf, mut dp, df, device) = matched_patches(seed);
    run(&HostPatchIntegrator::new(), &mut hp, &hf);
    run(&DevicePatchIntegrator { copy_back }, &mut dp, &df);
    // Read the transfer count before the comparison downloads.
    let d2h = device.stats().d2h_bytes;
    assert_all_fields_equal(&hp, &dp, 22, phase);
    d2h
}

/// A step phase matches the host resident and with copy-back; only the
/// copy-back run moves data to the host.
fn check_phase(seed: u64, phase: &str, run: impl Fn(&dyn PatchIntegrator, &mut Patch, &Fields)) {
    assert_eq!(run_phase(seed, phase, false, &run), 0, "{phase}: resident run left the device");
    let d2h = run_phase(seed, &format!("{phase} (copy-back)"), true, &run);
    assert!(d2h > 0, "{phase}: copy-back run moved no D2H bytes");
}

#[test]
fn ideal_gas_phase_matches() {
    check_phase(11, "ideal_gas", |ig, p, f| ig.ideal_gas(p, f, GAMMA, false));
    check_phase(12, "ideal_gas predict", |ig, p, f| ig.ideal_gas(p, f, GAMMA, true));
}

#[test]
fn viscosity_phase_matches() {
    check_phase(21, "viscosity", |ig, p, f| ig.viscosity(p, f, DX));
}

#[test]
fn calc_dt_matches() {
    for copy_back in [false, true] {
        let (mut hp, hf, mut dp, df, device) = matched_patches(31);
        let a = HostPatchIntegrator::new().calc_dt(&mut hp, &hf, DX, 0.5);
        let b = DevicePatchIntegrator { copy_back }.calc_dt(&mut dp, &df, DX, 0.5);
        assert_eq!(a, b, "dt reductions diverge (copy_back {copy_back})");
        assert!(a.is_finite() && a > 0.0);
        // Resident, only the 8-byte minimum crosses PCIe.
        let d2h = device.stats().d2h_bytes;
        assert!(if copy_back { d2h > 8 } else { d2h == 8 }, "copy_back {copy_back}: {d2h} B D2H");
    }
}

#[test]
fn pdv_phase_matches() {
    check_phase(41, "pdv predict", |ig, p, f| ig.pdv(p, f, DX, DT, true));
    check_phase(42, "pdv correct", |ig, p, f| ig.pdv(p, f, DX, DT, false));
}

#[test]
fn revert_phase_matches() {
    check_phase(51, "revert", |ig, p, f| ig.revert(p, f));
}

#[test]
fn accelerate_phase_matches() {
    check_phase(61, "accelerate", |ig, p, f| ig.accelerate(p, f, DX, DT));
}

#[test]
fn flux_calc_phase_matches() {
    check_phase(71, "flux_calc", |ig, p, f| ig.flux_calc(p, f, DX, DT));
}

#[test]
fn advec_cell_phase_matches() {
    for dir in 0..2 {
        for sweep in 1..=2 {
            check_phase(
                80 + (dir * 2 + sweep) as u64,
                &format!("advec_cell dir {dir} sweep {sweep}"),
                |ig, p, f| ig.advec_cell(p, f, DX, dir, sweep),
            );
        }
    }
}

#[test]
fn advec_mom_phase_matches() {
    for dir in 0..2 {
        check_phase(90 + dir as u64, &format!("advec_mom dir {dir}"), |ig, p, f| {
            // Momentum advection consumes the volumes and fluxes the
            // cell sweep computes; run both for a realistic state.
            ig.advec_cell(p, f, DX, dir, 1);
            ig.advec_mom(p, f, DX, dir, 1);
        });
    }
}

#[test]
fn reset_phase_matches() {
    check_phase(101, "reset", |ig, p, f| ig.reset(p, f));
}

#[test]
fn flagging_matches() {
    let (hp, hf, dp, df, _device) = matched_patches(111);
    let host = HostPatchIntegrator::new();
    let dev = DevicePatchIntegrator::new();
    let th = FlagThresholds::default();
    let a = host.flag_cells(&hp, &hf, &th);
    let b = dev.flag_cells(&dp, &df, &th);
    assert_eq!(a.tagged_cells(), b.tagged_cells(), "flagging diverges");
}

#[test]
fn field_summary_matches() {
    let (hp, hf, dp, df, _device) = matched_patches(121);
    let host = HostPatchIntegrator::new();
    let dev = DevicePatchIntegrator::new();
    let region = GBox::from_coords(0, 0, 12, 10);
    let a = host.field_summary(&hp, &hf, DX, region);
    let b = dev.field_summary(&dp, &df, DX, region);
    assert_eq!(a.mass, b.mass);
    assert_eq!(a.internal_energy, b.internal_energy);
    // Kinetic energy sums in parallel with non-deterministic order on
    // both paths; allow roundoff.
    assert!((a.kinetic_energy - b.kinetic_energy).abs() < 1e-12 * a.kinetic_energy.abs().max(1.0));
    assert_eq!(a.volume, b.volume);
}
