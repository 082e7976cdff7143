//! Patch levels: all patches at one refinement resolution.

use crate::partition::LevelView;
use crate::patch::{Patch, PatchId};
use crate::variable::VariableRegistry;
use rbamr_geometry::{BoxList, GBox, IntVector};

/// One refinement level of the hierarchy: the level's `(index, box,
/// owner)` records as a [`LevelView`] — complete under replicated
/// metadata (SAMRAI-style), the owned + interest neighborhood under
/// partitioned metadata — plus the locally owned [`Patch`] objects with
/// data.
pub struct PatchLevel {
    level_no: usize,
    /// Ratio to the next coarser level (`IntVector::ONE` for level 0).
    ratio: IntVector,
    /// The level's records as held on this rank; also carries the
    /// global patch/cell counts and the structure digest.
    records: LevelView,
    /// The level's index-space domain (the refined physical domain).
    domain: BoxList,
    /// Locally owned patches, carrying data.
    local: Vec<Patch>,
}

/// Shared construction-time validation of a set of patch boxes.
fn validate_boxes(boxes: &[GBox], domain: &BoxList) {
    for (i, b) in boxes.iter().enumerate() {
        assert!(!b.is_empty(), "PatchLevel: empty patch box {i}");
        assert!(domain.contains_box(*b), "PatchLevel: patch box {b:?} escapes level domain");
        for other in &boxes[i + 1..] {
            assert!(!b.intersects(*other), "PatchLevel: overlapping patch boxes {b:?}, {other:?}");
        }
    }
}

impl PatchLevel {
    /// Build a level holding the complete view of `boxes`/`owners`:
    /// allocate data for the boxes owned by `my_rank`.
    ///
    /// # Panics
    /// Panics if `boxes` and `owners` disagree in length, any box is
    /// empty or escapes `domain`, or boxes overlap.
    pub fn new(
        level_no: usize,
        ratio: IntVector,
        boxes: Vec<GBox>,
        owners: Vec<usize>,
        domain: BoxList,
        my_rank: usize,
        registry: &VariableRegistry,
    ) -> Self {
        assert_eq!(boxes.len(), owners.len(), "PatchLevel: boxes/owners mismatch");
        validate_boxes(&boxes, &domain);
        let local = boxes
            .iter()
            .zip(&owners)
            .enumerate()
            .filter(|(_, (_, &o))| o == my_rank)
            .map(|(index, (&b, &o))| Patch::new(PatchId { level: level_no, index }, b, o, registry))
            .collect();
        let records = LevelView::complete(level_no, ratio, &domain, boxes, owners);
        Self { level_no, ratio, records, domain, local }
    }

    /// Replace the level's records with `view` (a partitioned view of
    /// the same structure), keeping the local patches (and their data)
    /// untouched.
    ///
    /// # Panics
    /// Panics if the view describes a different structure (digest
    /// mismatch) or a different owned set than the local patches.
    pub fn adopt_view(&mut self, view: LevelView, my_rank: usize) {
        assert_eq!(
            view.global_digest(),
            self.records.global_digest(),
            "adopt_view: view describes a different structure than the level"
        );
        let owned: Vec<usize> =
            view.iter().filter(|&(_, _, o)| o == my_rank).map(|(i, _, _)| i).collect();
        let local: Vec<usize> = self.local.iter().map(|p| p.id().index).collect();
        assert_eq!(owned, local, "adopt_view: view owned set differs from local patches");
        self.records = view;
    }

    /// The level number (0 = coarsest).
    pub fn level_no(&self) -> usize {
        self.level_no
    }

    /// Refinement ratio to the next coarser level.
    pub fn ratio(&self) -> IntVector {
        self.ratio
    }

    /// The level's index-space domain.
    pub fn domain(&self) -> &BoxList {
        &self.domain
    }

    /// The level's box records as seen from this rank: every record for
    /// replicated metadata, the owned + interest neighborhood for a
    /// partitioned view.
    #[must_use]
    pub fn records(&self) -> &LevelView {
        &self.records
    }

    fn expect_complete(&self, what: &str) {
        assert!(
            self.records.is_complete(),
            "PatchLevel::{what}: level {} holds a partial view ({} of {} records); use records()",
            self.level_no,
            self.records.len(),
            self.records.num_global()
        );
    }

    /// All patch boxes on the level, indexed by global patch index.
    ///
    /// # Panics
    /// Panics if the level holds only a partial view — use
    /// [`PatchLevel::records`] there.
    pub fn global_boxes(&self) -> &[GBox] {
        self.expect_complete("global_boxes");
        self.records.boxes()
    }

    /// Owner rank of the global patch `index`.
    ///
    /// # Panics
    /// Panics if the view does not hold the record.
    pub fn owner_of(&self, index: usize) -> usize {
        let pos = self.records.position_of(index).unwrap_or_else(|| {
            panic!(
                "PatchLevel::owner_of: global index {index} is outside rank's view of level {}",
                self.level_no
            )
        });
        self.records.owners()[pos]
    }

    /// Owner rank of every global patch, indexed like
    /// [`PatchLevel::global_boxes`].
    ///
    /// # Panics
    /// Panics if the level holds only a partial view — use
    /// [`PatchLevel::records`] there.
    pub fn owners(&self) -> &[usize] {
        self.expect_complete("owners");
        self.records.owners()
    }

    /// A 64-bit digest of the level's structure: boxes, owners, ratio,
    /// level number, and domain. Identical on every rank, whichever view
    /// it holds; any change to a box, an owner, or the patch ordering
    /// changes the digest. Used to key cached communication schedules
    /// and to verify partitioned exchanges.
    pub fn structure_digest(&self) -> u64 {
        self.records.global_digest()
    }

    /// Number of patches on the level (globally).
    pub fn num_patches(&self) -> usize {
        self.records.num_global()
    }

    /// Total cells on the level (globally).
    pub fn num_cells(&self) -> i64 {
        self.records.global_cells()
    }

    /// The region covered by the level's patches *as held on this
    /// rank*: every patch for a complete view, the owned + interest
    /// neighborhood for a partitioned one (sufficient for the shadow
    /// and nesting queries made against it, which only ask about the
    /// rank's own neighborhood).
    pub fn covered(&self) -> BoxList {
        BoxList::from_boxes(self.records.boxes().iter().copied())
    }

    /// Locally owned patches.
    pub fn local(&self) -> &[Patch] {
        &self.local
    }

    /// Locally owned patches, mutable.
    pub fn local_mut(&mut self) -> &mut [Patch] {
        &mut self.local
    }

    /// Locally owned patch by global index, if owned here.
    pub fn local_by_index(&self, index: usize) -> Option<&Patch> {
        self.local.iter().find(|p| p.id().index == index)
    }

    /// Locally owned patch by global index, mutable.
    pub fn local_by_index_mut(&mut self, index: usize) -> Option<&mut Patch> {
        self.local.iter_mut().find(|p| p.id().index == index)
    }

    /// Set the simulation time on all local data.
    pub fn set_time(&mut self, time: f64) {
        for p in &mut self.local {
            p.set_time(time);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostdata::HostDataFactory;
    use crate::partition::{interest_for_level, view_from_global, InterestMargins};
    use rbamr_geometry::Centring;
    use std::sync::Arc;

    fn registry() -> VariableRegistry {
        let mut r = VariableRegistry::new(Arc::new(HostDataFactory::new()));
        r.register("density", Centring::Cell, IntVector::uniform(2));
        r
    }

    fn domain() -> BoxList {
        BoxList::from_box(GBox::from_coords(0, 0, 16, 16))
    }

    #[test]
    fn only_owned_boxes_get_data() {
        let r = registry();
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(8, 0, 16, 8)];
        let level = PatchLevel::new(0, IntVector::ONE, boxes, vec![0, 1], domain(), 0, &r);
        assert_eq!(level.num_patches(), 2);
        assert_eq!(level.local().len(), 1);
        assert_eq!(level.local()[0].id().index, 0);
        assert_eq!(level.owner_of(1), 1);
        assert!(level.local_by_index(1).is_none());
        assert_eq!(level.num_cells(), 128);
    }

    #[test]
    fn covered_region_is_union_of_boxes() {
        let r = registry();
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(8, 8, 16, 16)];
        let level = PatchLevel::new(0, IntVector::ONE, boxes, vec![0, 0], domain(), 0, &r);
        let cov = level.covered();
        assert_eq!(cov.num_cells(), 128);
        assert!(!cov.contains(IntVector::new(12, 4)));
    }

    #[test]
    #[should_panic(expected = "overlapping patch boxes")]
    fn overlapping_boxes_rejected() {
        let r = registry();
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(4, 0, 12, 8)];
        PatchLevel::new(0, IntVector::ONE, boxes, vec![0, 0], domain(), 0, &r);
    }

    #[test]
    #[should_panic(expected = "escapes level domain")]
    fn out_of_domain_boxes_rejected() {
        let r = registry();
        let boxes = vec![GBox::from_coords(0, 0, 32, 8)];
        PatchLevel::new(0, IntVector::ONE, boxes, vec![0], domain(), 0, &r);
    }

    #[test]
    fn structure_digest_is_rank_independent_and_structure_sensitive() {
        let r = registry();
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(8, 0, 16, 8)];
        let mk = |boxes: Vec<GBox>, owners: Vec<usize>, rank: usize| {
            PatchLevel::new(0, IntVector::ONE, boxes, owners, domain(), rank, &r)
        };
        let base = mk(boxes.clone(), vec![0, 1], 0);
        // Same structure seen from another rank: identical digest.
        let other_rank = mk(boxes.clone(), vec![0, 1], 1);
        assert_eq!(base.structure_digest(), other_rank.structure_digest());
        // Owner change, box change, and permutation all alter it.
        let owners_changed = mk(boxes.clone(), vec![1, 0], 0);
        assert_ne!(base.structure_digest(), owners_changed.structure_digest());
        let boxes_changed =
            mk(vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(8, 0, 16, 16)], vec![0, 1], 0);
        assert_ne!(base.structure_digest(), boxes_changed.structure_digest());
        let permuted = mk(vec![boxes[1], boxes[0]], vec![1, 0], 0);
        assert_ne!(base.structure_digest(), permuted.structure_digest());
    }

    /// The level `rank` holds under partitioned metadata: built whole,
    /// then narrowed to the view its owned boxes retain.
    fn partitioned_level(
        boxes: &[GBox],
        owners: &[usize],
        domain: BoxList,
        rank: usize,
    ) -> PatchLevel {
        let r = registry();
        let owned: Vec<GBox> =
            boxes.iter().zip(owners).filter(|&(_, &o)| o == rank).map(|(&b, _)| b).collect();
        let margins = InterestMargins { ghost: 2, stencil: 1 };
        let spec = interest_for_level(&owned, None, None, margins);
        let view = view_from_global(0, IntVector::ONE, &domain, boxes, owners, rank, &spec);
        let mut level =
            PatchLevel::new(0, IntVector::ONE, boxes.to_vec(), owners.to_vec(), domain, rank, &r);
        level.adopt_view(view, rank);
        level
    }

    #[test]
    fn partitioned_level_matches_replicated_twin() {
        let r = registry();
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(8, 0, 16, 8)];
        let owners = vec![0, 1];
        let replicated =
            PatchLevel::new(0, IntVector::ONE, boxes.clone(), owners.clone(), domain(), 0, &r);
        let partitioned = partitioned_level(&boxes, &owners, domain(), 0);
        assert_eq!(partitioned.structure_digest(), replicated.structure_digest());
        assert_eq!(partitioned.num_patches(), 2);
        assert_eq!(partitioned.num_cells(), 128);
        assert_eq!(partitioned.local().len(), 1);
        assert_eq!(partitioned.local()[0].id().index, 0);
        // The neighbor is in the view (interest), so owner lookups work.
        assert_eq!(partitioned.owner_of(1), 1);
        // At one rank the partitioned view is the replicated one.
        let one_rank = vec![0, 0];
        let replicated =
            PatchLevel::new(0, IntVector::ONE, boxes.clone(), one_rank.clone(), domain(), 0, &r);
        let partitioned = partitioned_level(&boxes, &one_rank, domain(), 0);
        assert_eq!(partitioned.records(), replicated.records());
        assert_eq!(partitioned.structure_digest(), replicated.structure_digest());
    }

    #[test]
    fn records_are_uniform_across_modes() {
        let r = registry();
        let big = BoxList::from_box(GBox::from_coords(0, 0, 64, 64));
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(56, 56, 64, 64)];
        let owners = vec![0, 0];
        let replicated =
            PatchLevel::new(0, IntVector::ONE, boxes.clone(), owners.clone(), big.clone(), 0, &r);
        // The far box lies outside any interest halo; the one-rank view
        // keeps it anyway because the rank owns it.
        let partitioned = partitioned_level(&boxes, &owners, big, 0);
        assert_eq!(partitioned.records(), replicated.records());
        assert_eq!(partitioned.structure_digest(), replicated.structure_digest());
        assert!(replicated.records().is_complete());
        assert_eq!(replicated.records().position_of(1), Some(1));
        assert_eq!(replicated.records().position_of(2), None);
    }

    #[test]
    #[should_panic(expected = "holds a partial view")]
    fn partial_view_refuses_global_boxes() {
        let big = BoxList::from_box(GBox::from_coords(0, 0, 64, 64));
        let boxes = vec![GBox::from_coords(0, 0, 8, 8), GBox::from_coords(56, 56, 64, 64)];
        let level = partitioned_level(&boxes, &[0, 1], big, 0);
        assert!(!level.records().is_complete());
        let _ = level.global_boxes();
    }
}
