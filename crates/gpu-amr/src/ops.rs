//! Data-parallel refine and coarsen operators — the paper's `geom`
//! package ("these are, to the best of our knowledge, the first
//! data-parallel implementations for each of these operators").
//!
//! Each operator mirrors its host reference in `rbamr_amr::ops` exactly
//! (the test suite checks bit-identical agreement on random data) but
//! executes as device kernels: one logical thread per *fine* value for
//! refinement (Figure 5) and one per *coarse* value for coarsening
//! (Figures 7 and 8), with the stream/event protocol of the Figure 5a
//! host listing around each launch.

use crate::data::DeviceData;
use rayon::prelude::*;
use rbamr_amr::ops::{CoarsenOperator, RefineOperator};
use rbamr_amr::patchdata::PatchData;
use rbamr_device::Event;
use rbamr_geometry::{BoxList, GBox, IntVector};
use rbamr_perfmodel::KernelShape;

fn device_data(d: &dyn PatchData) -> &DeviceData<f64> {
    d.as_any().downcast_ref().expect("device operator applied to non-device data")
}

fn device_data_mut(d: &mut dyn PatchData) -> &mut DeviceData<f64> {
    d.as_any_mut().downcast_mut().expect("device operator applied to non-device data")
}

#[inline]
fn clamp_to(b: GBox, p: IntVector) -> IntVector {
    IntVector::new(p.x.clamp(b.lo.x, b.hi.x - 1), p.y.clamp(b.lo.y, b.hi.y - 1))
}

#[inline]
fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

/// Run one refine-style kernel: the Figure 5a protocol (synchronise the
/// coarse stream, launch on the fine stream, record an event, make the
/// coarse stream wait), then the row-parallel body over each fill box.
///
/// `body(dst_row_slice, y, x_range, src_slice)` computes one row of
/// fine values; rows are independent, as in the one-thread-per-node
/// CUDA kernel.
fn launch_refine(
    dst: &mut DeviceData<f64>,
    src: &DeviceData<f64>,
    fine_boxes: &BoxList,
    arrays_touched: u32,
    flops_per_elem: u32,
    body: impl Fn(&mut [f64], i64, (i64, i64), &[f64]) + Sync + Send,
) {
    let device = dst.device().clone();
    let category = dst.category();
    let dst_dbox = dst.data_box();
    if fine_boxes.is_empty() {
        return;
    }
    // Figure 5a: coarse stream sync, fine-stream launch (one batched
    // launch covering every fill region), event record, coarse wait.
    let coarse_stream = src.stream().clone();
    coarse_stream.synchronize();
    let total: i64 = fine_boxes.num_cells();
    let shape = KernelShape::streaming(total, arrays_touched, flops_per_elem);
    dst.stream().submit();
    let fine_stream = dst.stream().clone();
    let dst_w = dst_dbox.size().x as usize;
    let (dst_buf, src_buf) = (dst.buffer_mut(), src.buffer());
    device.launch_named(&fine_stream, "refine-interp", category, shape, |k| {
        let src_slice = src_buf.as_slice(&k);
        let dst_slice = dst_buf.as_mut_slice(&k);
        for fill in fine_boxes.boxes() {
            debug_assert!(dst_dbox.contains_box(*fill), "refine fill escapes dst");
            let first_row = (fill.lo.y - dst_dbox.lo.y) as usize;
            let n_rows = fill.size().y as usize;
            dst_slice.par_chunks_mut(dst_w).skip(first_row).take(n_rows).enumerate().for_each(
                |(r, row)| {
                    let y = fill.lo.y + r as i64;
                    body(row, y, (fill.lo.x, fill.hi.x), src_slice);
                },
            );
        }
    });
    let event = Event::new(&device);
    event.record(&fine_stream);
    coarse_stream.wait_event(&event);
}

/// As [`launch_refine`] but indexed per *coarse* row, for coarsening
/// kernels (Figures 7/8: one thread per coarse value).
fn launch_coarsen(
    dst: &mut DeviceData<f64>,
    srcs: &[&DeviceData<f64>],
    coarse_boxes: &BoxList,
    arrays_touched: u32,
    flops_per_elem: u32,
    body: impl Fn(&mut [f64], i64, (i64, i64), &[&[f64]]) + Sync + Send,
) {
    let device = dst.device().clone();
    let category = dst.category();
    let dst_dbox = dst.data_box();
    if coarse_boxes.is_empty() {
        return;
    }
    let shape = KernelShape::streaming(coarse_boxes.num_cells(), arrays_touched, flops_per_elem);
    dst.stream().submit();
    let stream = dst.stream().clone();
    let dst_w = dst_dbox.size().x as usize;
    let dst_buf = dst.buffer_mut();
    device.launch_named(&stream, "coarsen-project", category, shape, |k| {
        let src_slices: Vec<&[f64]> = srcs.iter().map(|s| s.buffer().as_slice(&k)).collect();
        let dst_slice = dst_buf.as_mut_slice(&k);
        for fill in coarse_boxes.boxes() {
            debug_assert!(dst_dbox.contains_box(*fill), "coarsen fill escapes dst");
            let first_row = (fill.lo.y - dst_dbox.lo.y) as usize;
            let n_rows = fill.size().y as usize;
            dst_slice.par_chunks_mut(dst_w).skip(first_row).take(n_rows).enumerate().for_each(
                |(r, row)| {
                    let y = fill.lo.y + r as i64;
                    body(row, y, (fill.lo.x, fill.hi.x), &src_slices);
                },
            );
        }
    });
}

/// Device bilinear node refinement — the exact kernel of Figure 5b.
pub struct DeviceLinearNodeRefine;

impl RefineOperator for DeviceLinearNodeRefine {
    fn name(&self) -> &'static str {
        "device-linear-node-refine"
    }

    fn stencil_width(&self) -> IntVector {
        IntVector::ONE
    }

    fn refine(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        fine_boxes: &BoxList,
        ratio: IntVector,
    ) {
        let src = device_data(src);
        let dst = device_data_mut(dst);
        let sbox = src.data_box();
        let dst_dbox = dst.data_box();
        let (rx, ry) = (ratio.x, ratio.y);
        let (realrat0, realrat1) = (1.0 / rx as f64, 1.0 / ry as f64);
        let sw = sbox.size().x;
        launch_refine(dst, src, fine_boxes, 2, 10, move |row, y, (x0, x1), srcs| {
            // Figure 5b, one thread per fine node along the row.
            let ic1 = y.div_euclid(ry);
            let ir1 = y - ic1 * ry;
            let yy = ir1 as f64 * realrat1;
            for x in x0..x1 {
                let ic0 = x.div_euclid(rx);
                let ir0 = x - ic0 * rx;
                let xx = ir0 as f64 * realrat0;
                let c = |i: i64, j: i64| {
                    let q = clamp_to(sbox, IntVector::new(i, j));
                    srcs[((q.y - sbox.lo.y) * sw + (q.x - sbox.lo.x)) as usize]
                };
                let v = (c(ic0, ic1) * (1.0 - xx) + c(ic0 + 1, ic1) * xx) * (1.0 - yy)
                    + (c(ic0, ic1 + 1) * (1.0 - xx) + c(ic0 + 1, ic1 + 1) * xx) * yy;
                row[(x - dst_dbox.lo.x) as usize] = v;
            }
        });
    }
}

/// Device conservative linear cell refinement.
pub struct DeviceConservativeCellRefine;

impl RefineOperator for DeviceConservativeCellRefine {
    fn name(&self) -> &'static str {
        "device-conservative-linear-cell-refine"
    }

    fn stencil_width(&self) -> IntVector {
        IntVector::ONE
    }

    fn refine(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        fine_boxes: &BoxList,
        ratio: IntVector,
    ) {
        let src = device_data(src);
        let dst = device_data_mut(dst);
        let sbox = src.data_box();
        let dst_dbox = dst.data_box();
        let (rx, ry) = (ratio.x, ratio.y);
        let sw = sbox.size().x;
        launch_refine(dst, src, fine_boxes, 2, 14, move |row, y, (x0, x1), srcs| {
            let icy = y.div_euclid(ry);
            let eta = ((y - icy * ry) as f64 + 0.5) / ry as f64 - 0.5;
            for x in x0..x1 {
                let icx = x.div_euclid(rx);
                let c = |i: i64, j: i64| {
                    let q = clamp_to(sbox, IntVector::new(i, j));
                    srcs[((q.y - sbox.lo.y) * sw + (q.x - sbox.lo.x)) as usize]
                };
                let v0 = c(icx, icy);
                let sx = minmod(v0 - c(icx - 1, icy), c(icx + 1, icy) - v0);
                let sy = minmod(v0 - c(icx, icy - 1), c(icx, icy + 1) - v0);
                let xi = ((x - icx * rx) as f64 + 0.5) / rx as f64 - 0.5;
                row[(x - dst_dbox.lo.x) as usize] = v0 + sx * xi + sy * eta;
            }
        });
    }
}

/// Device piecewise-constant refinement.
pub struct DeviceConstantRefine;

impl RefineOperator for DeviceConstantRefine {
    fn name(&self) -> &'static str {
        "device-constant-refine"
    }

    fn stencil_width(&self) -> IntVector {
        IntVector::ZERO
    }

    fn refine(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        fine_boxes: &BoxList,
        ratio: IntVector,
    ) {
        let src = device_data(src);
        let dst = device_data_mut(dst);
        let sbox = src.data_box();
        let dst_dbox = dst.data_box();
        let sw = sbox.size().x;
        launch_refine(dst, src, fine_boxes, 2, 2, move |row, y, (x0, x1), srcs| {
            let icy = y.div_euclid(ratio.y);
            for x in x0..x1 {
                let q = clamp_to(sbox, IntVector::new(x.div_euclid(ratio.x), icy));
                row[(x - dst_dbox.lo.x) as usize] =
                    srcs[((q.y - sbox.lo.y) * sw + (q.x - sbox.lo.x)) as usize];
            }
        });
    }
}

/// Device linear side refinement (normal-axis interpolation).
pub struct DeviceLinearSideRefine {
    /// The face-normal axis of the data this operator serves.
    pub axis: usize,
}

impl RefineOperator for DeviceLinearSideRefine {
    fn name(&self) -> &'static str {
        "device-linear-side-refine"
    }

    fn stencil_width(&self) -> IntVector {
        IntVector::ONE
    }

    fn refine(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        fine_boxes: &BoxList,
        ratio: IntVector,
    ) {
        let src = device_data(src);
        let dst = device_data_mut(dst);
        let sbox = src.data_box();
        let dst_dbox = dst.data_box();
        let axis = self.axis;
        let r_n = ratio.get(axis);
        let sw = sbox.size().x;
        launch_refine(dst, src, fine_boxes, 2, 6, move |row, y, (x0, x1), srcs| {
            for x in x0..x1 {
                let p = IntVector::new(x, y);
                let ic = p.div_floor(ratio);
                let irn = p.get(axis) - ic.get(axis) * r_n;
                let t = irn as f64 / r_n as f64;
                let read = |q: IntVector| {
                    let q = clamp_to(sbox, q);
                    srcs[((q.y - sbox.lo.y) * sw + (q.x - sbox.lo.x)) as usize]
                };
                row[(x - dst_dbox.lo.x) as usize] =
                    read(ic) * (1.0 - t) + read(ic + IntVector::unit(axis)) * t;
            }
        });
    }
}

/// Device node-injection coarsening.
pub struct DeviceNodeInjectionCoarsen;

impl CoarsenOperator for DeviceNodeInjectionCoarsen {
    fn name(&self) -> &'static str {
        "device-node-injection-coarsen"
    }

    fn coarsen(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        aux: &[&dyn PatchData],
        coarse_boxes: &BoxList,
        ratio: IntVector,
    ) {
        assert!(aux.is_empty(), "injection takes no auxiliary data");
        let src = device_data(src);
        let dst = device_data_mut(dst);
        let sbox = src.data_box();
        let dst_dbox = dst.data_box();
        let sw = sbox.size().x;
        launch_coarsen(dst, &[src], coarse_boxes, 2, 1, move |row, y, (x0, x1), srcs| {
            let s = srcs[0];
            let fy = y * ratio.y;
            for x in x0..x1 {
                let fx = x * ratio.x;
                row[(x - dst_dbox.lo.x) as usize] =
                    s[((fy - sbox.lo.y) * sw + (fx - sbox.lo.x)) as usize];
            }
        });
    }
}

/// Device volume-weighted coarsening — the exact kernel of Figure 8:
/// one thread per coarse value, each summing its `r_x × r_y` fine
/// covering values weighted by cell volume.
pub struct DeviceVolumeWeightedCoarsen;

impl CoarsenOperator for DeviceVolumeWeightedCoarsen {
    fn name(&self) -> &'static str {
        "device-volume-weighted-coarsen"
    }

    fn coarsen(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        aux: &[&dyn PatchData],
        coarse_boxes: &BoxList,
        ratio: IntVector,
    ) {
        assert!(aux.is_empty(), "volume-weighted coarsen takes no auxiliary data");
        let src = device_data(src);
        let dst = device_data_mut(dst);
        let sbox = src.data_box();
        let dst_dbox = dst.data_box();
        let sw = sbox.size().x;
        let vf = 1.0;
        let vc = (ratio.x * ratio.y) as f64 * vf;
        let flops = (2 * ratio.x * ratio.y + 1) as u32;
        launch_coarsen(dst, &[src], coarse_boxes, 2, flops, move |row, y, (x0, x1), srcs| {
            // Figure 8, row-sliced: spv accumulates fine_data * Vf.
            let s = srcs[0];
            for x in x0..x1 {
                let f0 = IntVector::new(x * ratio.x, y * ratio.y);
                let mut spv = 0.0;
                for j in 0..ratio.y {
                    for i in 0..ratio.x {
                        let q = f0 + IntVector::new(i, j);
                        spv += s[((q.y - sbox.lo.y) * sw + (q.x - sbox.lo.x)) as usize] * vf;
                    }
                }
                row[(x - dst_dbox.lo.x) as usize] = spv / vc;
            }
        });
    }
}

/// Device mass-weighted coarsening: weights each fine value by its cell
/// mass (density × volume), conserving `Σ ρ e V` across levels.
pub struct DeviceMassWeightedCoarsen;

impl CoarsenOperator for DeviceMassWeightedCoarsen {
    fn name(&self) -> &'static str {
        "device-mass-weighted-coarsen"
    }

    fn num_aux(&self) -> usize {
        1
    }

    fn coarsen(
        &self,
        dst: &mut dyn PatchData,
        src: &dyn PatchData,
        aux: &[&dyn PatchData],
        coarse_boxes: &BoxList,
        ratio: IntVector,
    ) {
        assert_eq!(aux.len(), 1, "mass-weighted coarsen needs the fine density");
        let src = device_data(src);
        let rho = device_data(aux[0]);
        assert_eq!(rho.data_box(), src.data_box(), "density layout mismatch");
        let dst = device_data_mut(dst);
        let sbox = src.data_box();
        let dst_dbox = dst.data_box();
        let sw = sbox.size().x;
        let n = (ratio.x * ratio.y) as f64;
        let flops = (5 * ratio.x * ratio.y + 2) as u32;
        launch_coarsen(dst, &[src, rho], coarse_boxes, 3, flops, move |row, y, (x0, x1), srcs| {
            let (s, m) = (srcs[0], srcs[1]);
            for x in x0..x1 {
                let f0 = IntVector::new(x * ratio.x, y * ratio.y);
                let mut mass = 0.0;
                let mut weighted = 0.0;
                let mut plain = 0.0;
                for j in 0..ratio.y {
                    for i in 0..ratio.x {
                        let q = f0 + IntVector::new(i, j);
                        let idx = ((q.y - sbox.lo.y) * sw + (q.x - sbox.lo.x)) as usize;
                        mass += m[idx];
                        weighted += s[idx] * m[idx];
                        plain += s[idx];
                    }
                }
                row[(x - dst_dbox.lo.x) as usize] =
                    if mass > 0.0 { weighted / mass } else { plain / n };
            }
        });
    }
}

#[cfg(test)]
mod tests {
    //! Every device operator must agree exactly with its host reference
    //! on random data — the correctness contract of the reproduction.

    use super::*;
    use rand::{Rng, SeedableRng};
    use rbamr_amr::ops as host_ops;
    use rbamr_amr::HostData;
    use rbamr_device::Device;
    use rbamr_geometry::Centring;
    use rbamr_perfmodel::Category;

    const R2: IntVector = IntVector::uniform(2);
    const R4: IntVector = IntVector::uniform(4);

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    /// Build matching host and device data with identical random values.
    fn random_pair(
        device: &Device,
        cell_box: GBox,
        ghosts: IntVector,
        centring: Centring,
        seed: u64,
    ) -> (HostData<f64>, DeviceData<f64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut h = HostData::<f64>::new(cell_box, ghosts, centring);
        for v in h.as_mut_slice() {
            *v = rng.gen_range(-10.0..10.0);
        }
        let mut d = DeviceData::<f64>::new(device, cell_box, ghosts, centring);
        d.upload_all(h.as_slice(), Category::Other);
        (h, d)
    }

    fn assert_matches(h: &HostData<f64>, d: &DeviceData<f64>) {
        let dev_vals = d.download_all(Category::Other);
        for (i, (a, b)) in h.as_slice().iter().zip(&dev_vals).enumerate() {
            assert_eq!(a, b, "device/host mismatch at linear index {i}");
        }
    }

    fn check_refine(
        host_op: &dyn RefineOperator,
        dev_op: &dyn RefineOperator,
        centring: Centring,
        ratio: IntVector,
        seed: u64,
    ) {
        let device = Device::k20x();
        let coarse_box = b(0, 0, 10, 8);
        let fine_box = coarse_box.refine(ratio);
        let (hsrc, dsrc) = random_pair(&device, coarse_box, IntVector::ONE, centring, seed);
        let (mut hdst, mut ddst) =
            random_pair(&device, fine_box, IntVector::uniform(2), centring, seed + 1);
        // Fill region: the fine interior data box plus part of the ghosts.
        let fill = BoxList::from_box(centring.data_box(fine_box.grow(IntVector::ONE)));
        host_op.refine(&mut hdst, &hsrc, &fill, ratio);
        dev_op.refine(&mut ddst, &dsrc, &fill, ratio);
        assert_matches(&hdst, &ddst);
    }

    #[test]
    fn node_refine_matches_host() {
        check_refine(&host_ops::LinearNodeRefine, &DeviceLinearNodeRefine, Centring::Node, R2, 7);
        check_refine(&host_ops::LinearNodeRefine, &DeviceLinearNodeRefine, Centring::Node, R4, 8);
    }

    #[test]
    fn cell_refine_matches_host() {
        check_refine(
            &host_ops::ConservativeCellRefine,
            &DeviceConservativeCellRefine,
            Centring::Cell,
            R2,
            17,
        );
        check_refine(
            &host_ops::ConservativeCellRefine,
            &DeviceConservativeCellRefine,
            Centring::Cell,
            R4,
            18,
        );
    }

    #[test]
    fn constant_refine_matches_host() {
        check_refine(&host_ops::ConstantRefine, &DeviceConstantRefine, Centring::Cell, R2, 27);
    }

    #[test]
    fn side_refine_matches_host() {
        for axis in 0..2 {
            check_refine(
                &host_ops::LinearSideRefine { axis },
                &DeviceLinearSideRefine { axis },
                Centring::Side(axis),
                R2,
                37 + axis as u64,
            );
        }
    }

    fn check_coarsen(
        host_op: &dyn CoarsenOperator,
        dev_op: &dyn CoarsenOperator,
        centring: Centring,
        ratio: IntVector,
        with_density: bool,
        seed: u64,
    ) {
        let device = Device::k20x();
        let coarse_box = b(0, 0, 6, 5);
        let fine_box = coarse_box.refine(ratio);
        let (hsrc, dsrc) = random_pair(&device, fine_box, IntVector::ZERO, centring, seed);
        let (hrho, drho) = random_pair(&device, fine_box, IntVector::ZERO, centring, seed + 5);
        let (mut hdst, mut ddst) =
            random_pair(&device, coarse_box, IntVector::ZERO, centring, seed + 9);
        let fill = BoxList::from_box(centring.data_box(coarse_box));
        let haux: Vec<&dyn PatchData> = if with_density { vec![&hrho] } else { vec![] };
        let daux: Vec<&dyn PatchData> = if with_density { vec![&drho] } else { vec![] };
        host_op.coarsen(&mut hdst, &hsrc, &haux, &fill, ratio);
        dev_op.coarsen(&mut ddst, &dsrc, &daux, &fill, ratio);
        assert_matches(&hdst, &ddst);
    }

    #[test]
    fn volume_weighted_matches_host() {
        check_coarsen(
            &host_ops::VolumeWeightedCoarsen,
            &DeviceVolumeWeightedCoarsen,
            Centring::Cell,
            R2,
            false,
            47,
        );
        check_coarsen(
            &host_ops::VolumeWeightedCoarsen,
            &DeviceVolumeWeightedCoarsen,
            Centring::Cell,
            R4,
            false,
            48,
        );
    }

    #[test]
    fn mass_weighted_matches_host() {
        check_coarsen(
            &host_ops::MassWeightedCoarsen,
            &DeviceMassWeightedCoarsen,
            Centring::Cell,
            R2,
            true,
            57,
        );
    }

    #[test]
    fn node_injection_matches_host() {
        check_coarsen(
            &host_ops::NodeInjectionCoarsen,
            &DeviceNodeInjectionCoarsen,
            Centring::Node,
            R2,
            false,
            67,
        );
    }

    #[test]
    fn refine_batches_boxes_into_one_launch() {
        let device = Device::k20x();
        let (_, dsrc) = random_pair(&device, b(0, 0, 8, 8), IntVector::ONE, Centring::Cell, 1);
        let (_, mut ddst) =
            random_pair(&device, b(0, 0, 16, 16), IntVector::ONE, Centring::Cell, 2);
        device.reset_transfer_stats();
        let fill = BoxList::from_boxes([b(0, 0, 4, 4), b(8, 8, 12, 12)]);
        DeviceConservativeCellRefine.refine(&mut ddst, &dsrc, &fill, R2);
        assert_eq!(device.stats().kernel_launches, 1);
        // No PCIe traffic: refinement is device-resident.
        assert_eq!(device.stats().h2d_bytes, 0);
        assert_eq!(device.stats().d2h_bytes, 0);
    }
}
