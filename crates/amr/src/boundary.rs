//! Physical-boundary fill strategies.

use crate::patch::Patch;
use crate::patchdata::PatchData;
use crate::variable::VariableId;
use rbamr_geometry::{BoxList, GBox, IntVector};

/// Fills the parts of a patch's ghost region that lie outside the
/// physical domain — case (i) of the paper's three boundary-fill paths
/// ("filling the boundary cells with the physical boundary conditions is
/// handled by the application").
///
/// The schedule computes the out-of-domain cell boxes and hands them to
/// this strategy; the hydro crate implements reflective boundaries (the
/// CloverLeaf condition), while [`ZeroGradientBoundary`] provides a
/// physics-free default for tests.
pub trait PhysicalBoundary: Send + Sync {
    /// Fill `boxes` (cell-space, outside the domain) of `var` on
    /// `patch`. `domain_box` is the bounding box of the level domain,
    /// from which implementations derive which face each box lies on.
    fn fill(
        &self,
        patch: &mut Patch,
        var: VariableId,
        boxes: &BoxList,
        domain_box: GBox,
        time: f64,
    );
}

/// Zero-gradient (outflow) boundary: ghost cells copy the nearest
/// interior value. Physics-free default used by framework tests.
pub struct ZeroGradientBoundary;

impl PhysicalBoundary for ZeroGradientBoundary {
    fn fill(
        &self,
        patch: &mut Patch,
        var: VariableId,
        boxes: &BoxList,
        domain_box: GBox,
        _time: f64,
    ) {
        let centring = patch.data(var).centring();
        let data = patch
            .data_mut(var)
            .as_any_mut()
            .downcast_mut::<crate::hostdata::HostData<f64>>()
            .expect("ZeroGradientBoundary supports HostData<f64>");
        let domain_data_box = centring.data_box(domain_box);
        for b in boxes.boxes() {
            let db = centring.data_box(*b);
            for p in db.iter() {
                if !domain_data_box.contains(p) {
                    let clamped = IntVector::new(
                        p.x.clamp(domain_data_box.lo.x, domain_data_box.hi.x - 1),
                        p.y.clamp(domain_data_box.lo.y, domain_data_box.hi.y - 1),
                    );
                    if data.data_box().contains(clamped) {
                        let v = data.at(clamped);
                        *data.at_mut(p) = v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostdata::HostDataFactory;
    use crate::patch::PatchId;
    use crate::variable::VariableRegistry;
    use rbamr_geometry::Centring;
    use std::sync::Arc;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn zero_gradient_extends_edge_values() {
        let mut reg = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        let var = reg.register("q", Centring::Cell, IntVector::uniform(2));
        let domain = b(0, 0, 4, 4);
        let mut patch = Patch::new(PatchId { level: 0, index: 0 }, domain, 0, &reg);
        for p in domain.iter() {
            *patch.host_mut::<f64>(var).at_mut(p) = (p.x + 10 * p.y) as f64;
        }
        // Ghost region outside the low-x face.
        let ghost = BoxList::from_box(b(-2, 0, 0, 4));
        ZeroGradientBoundary.fill(&mut patch, var, &ghost, domain, 0.0);
        let d = patch.host::<f64>(var);
        assert_eq!(d.at(IntVector::new(-1, 2)), 20.0); // copies column x=0
        assert_eq!(d.at(IntVector::new(-2, 3)), 30.0);
    }
}
