//! The non-resident "copy-back" patch integrator — the Related Work
//! baseline the paper argues against (Wang et al.: "the required data
//! must be copied from the CPU to the GPU" at the beginning and end of
//! every GPU-based routine).
//!
//! Canonical data notionally lives on the host; every numerical phase
//! round-trips the full arrays it touches over PCIe before and after
//! its kernels. The kernels themselves are the resident
//! [`DevicePatchIntegrator`]'s — physics is identical; only the
//! transfer discipline differs, so the measured gap between
//! [`Placement::Device`](crate::Placement::Device) and
//! [`Placement::DeviceCopyBack`](crate::Placement::DeviceCopyBack) is
//! exactly the residency benefit the paper claims.

use crate::device_integrator::DevicePatchIntegrator;
use crate::state::{Fields, FlagThresholds, PatchIntegrator, RegionInit, Staged, Summary};
use rbamr_amr::{Patch, TagBitmap};
use rbamr_gpu_amr::DeviceData;
use rbamr_perfmodel::Category;

/// Wraps the resident integrator with per-phase full-array PCIe
/// round trips.
pub struct CopyBackPatchIntegrator {
    inner: DevicePatchIntegrator,
}

impl CopyBackPatchIntegrator {
    /// Create the copy-back integrator.
    pub fn new() -> Self {
        Self { inner: DevicePatchIntegrator::new() }
    }
}

/// Round-trip the staged variables of kernel group `k` on each patch:
/// D2H of the current values (the "result copy" of the previous phase
/// in the Wang et al. scheme) followed by H2D (staging for the next
/// kernel). Both transfers are real: counted by the device and charged
/// to the clock.
pub(crate) fn roundtrip<'a>(
    patches: impl IntoIterator<Item = &'a mut Patch>,
    f: &Fields,
    k: Staged,
) {
    let vars = f.staged(k);
    for patch in patches {
        for &var in &vars {
            let data = patch
                .data_mut(var)
                .as_any_mut()
                .downcast_mut::<DeviceData<f64>>()
                .expect("copy-back staging on non-device data");
            let host = data.download_all(Category::HydroKernel);
            data.upload_all(&host, Category::HydroKernel);
        }
    }
}

impl Default for CopyBackPatchIntegrator {
    fn default() -> Self {
        Self::new()
    }
}

impl PatchIntegrator for CopyBackPatchIntegrator {
    fn name(&self) -> &'static str {
        "device-copy-back"
    }

    fn init_regions(
        &self,
        patch: &mut Patch,
        f: &Fields,
        origin: (f64, f64),
        dx: (f64, f64),
        regions: &[RegionInit],
        gamma: f64,
    ) {
        self.inner.init_regions(patch, f, origin, dx, regions, gamma);
    }

    fn ideal_gas(&self, patch: &mut Patch, f: &Fields, gamma: f64, predict: bool) {
        roundtrip([&mut *patch], f, Staged::IdealGas { predict });
        self.inner.ideal_gas(patch, f, gamma, predict);
    }

    fn viscosity(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64)) {
        roundtrip([&mut *patch], f, Staged::Viscosity);
        self.inner.viscosity(patch, f, dx);
    }

    fn calc_dt(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), cfl: f64) -> f64 {
        roundtrip([&mut *patch], f, Staged::CalcDt);
        self.inner.calc_dt(patch, f, dx, cfl)
    }

    fn pdv(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dt: f64, predict: bool) {
        roundtrip([&mut *patch], f, Staged::Pdv);
        self.inner.pdv(patch, f, dx, dt, predict);
    }

    fn revert(&self, patch: &mut Patch, f: &Fields) {
        roundtrip([&mut *patch], f, Staged::Revert);
        self.inner.revert(patch, f);
    }

    fn accelerate(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dt: f64) {
        roundtrip([&mut *patch], f, Staged::Accelerate);
        self.inner.accelerate(patch, f, dx, dt);
    }

    fn flux_calc(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dt: f64) {
        roundtrip([&mut *patch], f, Staged::FluxCalc);
        self.inner.flux_calc(patch, f, dx, dt);
    }

    fn advec_cell(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dir: usize, sweep: usize) {
        roundtrip([&mut *patch], f, Staged::AdvecCell { dir });
        self.inner.advec_cell(patch, f, dx, dir, sweep);
    }

    fn advec_mom(&self, patch: &mut Patch, f: &Fields, dx: (f64, f64), dir: usize, sweep: usize) {
        roundtrip([&mut *patch], f, Staged::AdvecMom { dir });
        self.inner.advec_mom(patch, f, dx, dir, sweep);
    }

    fn reset(&self, patch: &mut Patch, f: &Fields) {
        roundtrip([&mut *patch], f, Staged::Reset);
        self.inner.reset(patch, f);
    }

    fn flag_cells(&self, patch: &Patch, f: &Fields, thresholds: &FlagThresholds) -> TagBitmap {
        self.inner.flag_cells(patch, f, thresholds)
    }

    fn field_summary(
        &self,
        patch: &Patch,
        f: &Fields,
        dx: (f64, f64),
        region: rbamr_geometry::GBox,
    ) -> Summary {
        self.inner.field_summary(patch, f, dx, region)
    }
}
