//! Variables and data factories.

use crate::patchdata::PatchData;
use rbamr_geometry::{Centring, GBox, IntVector};
use std::sync::Arc;

/// Identifier of a registered variable — an index into the
/// [`VariableRegistry`] and into each patch's data vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VariableId(pub usize);

/// A named simulation quantity: its centring and ghost width.
///
/// CleverLeaf registers ~15 of these (density, energy, pressure,
/// velocities, fluxes, work arrays); the hierarchy allocates one
/// [`PatchData`] per variable per patch through a [`DataFactory`].
#[derive(Clone, Debug)]
pub struct Variable {
    /// The variable's id within its registry.
    pub id: VariableId,
    /// Human-readable unique name.
    pub name: String,
    /// Mesh centring.
    pub centring: Centring,
    /// Ghost width in cells.
    pub ghosts: IntVector,
}

/// Creates patch data for a variable on a box — the seam between the
/// mesh-management framework and data placement. The host factory
/// produces [`HostData`](crate::HostData); the `rbamr-gpu-amr` crate's
/// factory produces device-resident data. Swapping factories is the
/// entire difference between the paper's CPU and GPU builds of
/// CleverLeaf (Figure 6).
pub trait DataFactory: Send + Sync {
    /// Allocate data for `var` over `cell_box` (plus the variable's
    /// ghosts).
    fn make(&self, var: &Variable, cell_box: GBox) -> Box<dyn PatchData>;
}

/// The set of registered variables plus the factory that materialises
/// them on patches.
#[derive(Clone)]
pub struct VariableRegistry {
    vars: Vec<Variable>,
    factory: Arc<dyn DataFactory>,
}

impl VariableRegistry {
    /// An empty registry using `factory` for allocation.
    pub fn new(factory: Arc<dyn DataFactory>) -> Self {
        Self { vars: Vec::new(), factory }
    }

    /// Register a variable; names must be unique.
    ///
    /// # Panics
    /// Panics on duplicate names or negative ghost widths.
    pub fn register(&mut self, name: &str, centring: Centring, ghosts: IntVector) -> VariableId {
        assert!(self.vars.iter().all(|v| v.name != name), "variable {name:?} registered twice");
        assert!(ghosts.all_ge(IntVector::ZERO), "variable {name:?} has negative ghosts");
        let id = VariableId(self.vars.len());
        self.vars.push(Variable { id, name: name.to_owned(), centring, ghosts });
        id
    }

    /// Look up a variable by id.
    pub fn get(&self, id: VariableId) -> &Variable {
        &self.vars[id.0]
    }

    /// Look up a variable by name.
    pub fn by_name(&self, name: &str) -> Option<&Variable> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Number of registered variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True if no variables are registered.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// All variables in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Variable> {
        self.vars.iter()
    }

    /// Allocate data for every variable on `cell_box`, in id order.
    pub fn make_all(&self, cell_box: GBox) -> Vec<Box<dyn PatchData>> {
        self.vars.iter().map(|v| self.factory.make(v, cell_box)).collect()
    }

    /// Allocate data for one variable.
    pub fn make_one(&self, id: VariableId, cell_box: GBox) -> Box<dyn PatchData> {
        self.factory.make(self.get(id), cell_box)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostdata::HostDataFactory;

    fn registry() -> VariableRegistry {
        VariableRegistry::new(Arc::new(HostDataFactory::new()))
    }

    #[test]
    fn registration_assigns_sequential_ids() {
        let mut r = registry();
        let a = r.register("density", Centring::Cell, IntVector::uniform(2));
        let b = r.register("xvel", Centring::Node, IntVector::uniform(2));
        assert_eq!(a, VariableId(0));
        assert_eq!(b, VariableId(1));
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(a).name, "density");
        assert_eq!(r.by_name("xvel").unwrap().id, b);
        assert!(r.by_name("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_rejected() {
        let mut r = registry();
        r.register("density", Centring::Cell, IntVector::ZERO);
        r.register("density", Centring::Cell, IntVector::ZERO);
    }

    #[test]
    fn make_all_matches_centrings() {
        let mut r = registry();
        r.register("density", Centring::Cell, IntVector::uniform(2));
        r.register("xvel", Centring::Node, IntVector::uniform(2));
        r.register("volflux", Centring::Side(0), IntVector::uniform(2));
        let cell_box = GBox::from_coords(0, 0, 4, 4);
        let data = r.make_all(cell_box);
        assert_eq!(data.len(), 3);
        assert_eq!(data[0].centring(), Centring::Cell);
        assert_eq!(data[1].centring(), Centring::Node);
        assert_eq!(data[2].centring(), Centring::Side(0));
        for d in &data {
            assert_eq!(d.cell_box(), cell_box);
        }
    }
}
