//! Dataset catalog mirroring the paper's evaluation datasets.
//!
//! Three families, one per evaluation section:
//!
//! * [`neuron`] — the five neuroscience detail levels of **Fig. 4**
//!   (non-convex branching arbors, two disjoint cells);
//! * [`basin`] — the two convex earthquake meshes of **Fig. 8** (SF2 and
//!   SF1; solid boxes whose surface-to-volume ratios 0.16 / 0.09 match
//!   the paper exactly);
//! * [`animation`] — the three deforming-mesh bodies of **Fig. 14**.
//!
//! Every generator takes a `scale` multiplier on the linear voxel
//! resolution. `scale = 1.0` targets laptop-size meshes (10⁴–10⁶ tets).
//! Because the mesh surface grows ~quadratically while volume grows
//! cubically, the surface-to-volume ratio of the neuron and animation
//! meshes is `S ∝ V^(-1/3)`: at laptop vertex counts it is inherently
//! ~5–10× larger than at the paper's billion-tet scale. The paper's own
//! Eq. 5 (`CostModel::speedup` in `octopus-core`) turns that into a
//! smaller speedup over the linear scan, and the paper-figure harness's
//! Fig. 11 checks the model against measured times at this scale.

use crate::masks::{ArborParams, Blob, CapsuleTree};
use crate::tet::tetrahedralize;
use crate::voxel::VoxelRegion;
use octopus_geom::{Aabb, Point3, Vec3};
use octopus_mesh::{Mesh, MeshError};

/// The five neuroscience mesh detail levels of Fig. 4, ordered by
/// increasing detail (the paper's 0.13 → 1.32 billion-tetrahedra rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NeuroLevel {
    /// Fig. 4 row 1 — 0.13 G tets, S:V 0.07 in the paper.
    L1,
    /// Fig. 4 row 2 — 0.17 G tets, S:V 0.06.
    L2,
    /// Fig. 4 row 3 — 0.26 G tets, S:V 0.05 (the sensitivity-analysis
    /// default).
    L3,
    /// Fig. 4 row 4 — 0.52 G tets, S:V 0.04.
    L4,
    /// Fig. 4 row 5 — 1.32 G tets, S:V 0.03 (the benchmark default).
    L5,
}

impl NeuroLevel {
    /// All levels in increasing detail order.
    pub const ALL: [NeuroLevel; 5] = [
        NeuroLevel::L1,
        NeuroLevel::L2,
        NeuroLevel::L3,
        NeuroLevel::L4,
        NeuroLevel::L5,
    ];

    /// Linear resolution multiplier: cube root of the paper's
    /// tetrahedra-count ratios (0.13 : 0.17 : 0.26 : 0.52 : 1.32).
    fn linear_factor(self) -> f32 {
        match self {
            NeuroLevel::L1 => 1.0,
            NeuroLevel::L2 => 1.094,
            NeuroLevel::L3 => 1.26,
            NeuroLevel::L4 => 1.587,
            NeuroLevel::L5 => 2.166,
        }
    }

    /// The paper's tetrahedra count for this level, in billions (Fig. 4).
    pub fn paper_tets_billions(self) -> f64 {
        match self {
            NeuroLevel::L1 => 0.13,
            NeuroLevel::L2 => 0.17,
            NeuroLevel::L3 => 0.26,
            NeuroLevel::L4 => 0.52,
            NeuroLevel::L5 => 1.32,
        }
    }

    /// The paper's surface-to-volume ratio for this level (Fig. 4).
    pub fn paper_surface_ratio(self) -> f64 {
        match self {
            NeuroLevel::L1 => 0.07,
            NeuroLevel::L2 => 0.06,
            NeuroLevel::L3 => 0.05,
            NeuroLevel::L4 => 0.04,
            NeuroLevel::L5 => 0.03,
        }
    }

    /// Display label matching Fig. 4's x-axis (tets in billions).
    pub fn label(self) -> &'static str {
        match self {
            NeuroLevel::L1 => "0.13",
            NeuroLevel::L2 => "0.17",
            NeuroLevel::L3 => "0.26",
            NeuroLevel::L4 => "0.52",
            NeuroLevel::L5 => "1.32",
        }
    }
}

/// Builds the two-neuron arbors used by every neuro level (the same
/// geometry at all levels; only the sampling resolution changes, exactly
/// like refining a real mesh model).
fn neuron_arbors() -> [CapsuleTree; 2] {
    // Trunk radius is deliberately thick: the surface-to-volume ratio of
    // a tube is ~4/diameter (in voxels), and the paper's regime needs
    // S ≲ 0.2 for the surface probe to pay off. Thin arbors at laptop
    // resolution would be almost all surface (S ≈ 0.5+).
    let params = ArborParams {
        depth: 4,
        branching: 2,
        segment_len: 0.23,
        radius: 0.12,
        length_decay: 0.82,
        radius_decay: 0.86,
    };
    let a = CapsuleTree::grow(
        Point3::new(0.26, 0.14, 0.5),
        Vec3::new(0.1, 1.0, 0.05),
        &params,
        NEURON_SEED_A,
    );
    let b = CapsuleTree::grow(
        Point3::new(0.74, 0.86, 0.5),
        Vec3::new(-0.1, -1.0, -0.05),
        &params,
        NEURON_SEED_B,
    );
    [a, b]
}

/// Fixed arbor seeds: the *same* two cells at every detail level.
const NEURON_SEED_A: u64 = 0xA12B_33C4;
const NEURON_SEED_B: u64 = 0xB45D_77E9;

/// Generates the two-neuron mesh for a Fig. 4 detail level.
///
/// The two arbors are confined to the `x < 0.46` / `x > 0.54` half-spaces
/// (the gap spans several voxels at every level) so the mesh always has
/// ≥ 2 connected components — the paper's "two neuron cells" — which is
/// what forces OCTOPUS to crawl from *every* surface start vertex.
pub fn neuron(level: NeuroLevel, scale: f32) -> Result<Mesh, MeshError> {
    assert!(scale > 0.0, "scale must be positive");
    let [tree_a, tree_b] = neuron_arbors();
    let base = 44.0;
    let res = ((base * level.linear_factor() * scale).round() as usize).max(8);
    let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
    let region = VoxelRegion::from_fn(&bounds, res, res, res, |p| {
        (p.x < 0.46 && tree_a.contains(p)) || (p.x > 0.54 && tree_b.contains(p))
    });
    tetrahedralize(&region)
}

/// The two convex earthquake-basin meshes of Fig. 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BasinResolution {
    /// Coarse mesh: 64 MB, S:V 0.16 in the paper.
    Sf2,
    /// Fine mesh: 371 MB, S:V 0.09 in the paper.
    Sf1,
}

impl BasinResolution {
    /// Both resolutions, coarse first (the paper's Fig. 9 order).
    pub const ALL: [BasinResolution; 2] = [BasinResolution::Sf2, BasinResolution::Sf1];

    /// Grid resolution chosen so that the surface-to-volume ratio
    /// matches the paper's Fig. 8 exactly. The basin is a `2n × n × 2n`
    /// box, whose lattice has `≈ 4n³` points of which `≈ 16n²` lie on the
    /// shell, giving `S ≈ 4/n`.
    fn grid_n(self, scale: f32) -> usize {
        let n = match self {
            BasinResolution::Sf2 => 25.0, // S ≈ 4/25 = 0.16
            BasinResolution::Sf1 => 44.0, // S ≈ 4/44 = 0.091
        };
        ((n * scale).round() as usize).max(4)
    }

    /// The paper's surface-to-volume ratio (Fig. 8).
    pub fn paper_surface_ratio(self) -> f64 {
        match self {
            BasinResolution::Sf2 => 0.16,
            BasinResolution::Sf1 => 0.09,
        }
    }

    /// Dataset label.
    pub fn label(self) -> &'static str {
        match self {
            BasinResolution::Sf2 => "SF2",
            BasinResolution::Sf1 => "SF1",
        }
    }
}

/// Generates a convex earthquake-basin mesh (a solid box, like the LA
/// basin volume of the Archimedes simulations — convexity is the property
/// OCTOPUS-CON relies on, §IV-F).
pub fn basin(res: BasinResolution, scale: f32) -> Result<Mesh, MeshError> {
    assert!(scale > 0.0, "scale must be positive");
    let n = res.grid_n(scale);
    // Flat basin: x:y:z = 2:1:2 in paper-like proportions; the lattice
    // resolution n applies along y (the depth axis).
    let bounds = Aabb::new(Point3::ORIGIN, Point3::new(2.0, 1.0, 2.0));
    let region = VoxelRegion::solid_box(&bounds, 2 * n, n, 2 * n);
    tetrahedralize(&region)
}

/// The three deforming-mesh animation sequences of Fig. 14.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AnimationKind {
    /// Galloping quadruped — 48 frames, S:V 0.023 in the paper.
    HorseGallop,
    /// Facial expression — 9 frames, S:V 0.010 (most compact shape).
    FacialExpression,
    /// Compressing quadruped — 53 frames, S:V 0.019.
    CamelCompress,
}

impl AnimationKind {
    /// All sequences in the paper's Fig. 14 order.
    pub const ALL: [AnimationKind; 3] = [
        AnimationKind::HorseGallop,
        AnimationKind::FacialExpression,
        AnimationKind::CamelCompress,
    ];

    /// Number of frames (time steps) in the sequence (Fig. 14).
    pub fn time_steps(self) -> usize {
        match self {
            AnimationKind::HorseGallop => 48,
            AnimationKind::FacialExpression => 9,
            AnimationKind::CamelCompress => 53,
        }
    }

    /// The paper's surface-to-volume ratio (Fig. 14).
    pub fn paper_surface_ratio(self) -> f64 {
        match self {
            AnimationKind::HorseGallop => 0.023,
            AnimationKind::FacialExpression => 0.010,
            AnimationKind::CamelCompress => 0.019,
        }
    }

    /// Dataset label.
    pub fn label(self) -> &'static str {
        match self {
            AnimationKind::HorseGallop => "Horse Gallop",
            AnimationKind::FacialExpression => "Facial Expression",
            AnimationKind::CamelCompress => "Camel Compress",
        }
    }

    /// Linear voxel resolution at `scale = 1.0`, ordered so the relative
    /// dataset sizes and S:V ordering of Fig. 14 are preserved
    /// (facial is biggest & most compact; horse is smallest).
    fn resolution(self, scale: f32) -> usize {
        let base = match self {
            AnimationKind::HorseGallop => 52.0,
            AnimationKind::FacialExpression => 76.0,
            AnimationKind::CamelCompress => 62.0,
        };
        ((base * scale).round() as usize).max(8)
    }
}

/// Generates the rest-pose volumetric body for an animation sequence.
/// Per-frame deformation fields live in `octopus-sim`.
pub fn animation(kind: AnimationKind, scale: f32) -> Result<Mesh, MeshError> {
    assert!(scale > 0.0, "scale must be positive");
    let res = kind.resolution(scale);
    match kind {
        AnimationKind::HorseGallop => {
            let bounds = Aabb::new(Point3::ORIGIN, Point3::new(2.0, 1.0, 1.0));
            let blob = Blob::quadruped(&bounds, 0x0905);
            let region = VoxelRegion::from_fn(&bounds, 2 * res, res, res, |p| blob.contains(p));
            tetrahedralize(&region)
        }
        AnimationKind::CamelCompress => {
            let bounds = Aabb::new(Point3::ORIGIN, Point3::new(2.0, 1.0, 1.0));
            let blob = Blob::quadruped(&bounds, 0x0c43);
            let region = VoxelRegion::from_fn(&bounds, 2 * res, res, res, |p| blob.contains(p));
            tetrahedralize(&region)
        }
        AnimationKind::FacialExpression => {
            let bounds = Aabb::new(Point3::ORIGIN, Point3::splat(1.0));
            let blob = Blob::head(&bounds, 0xFACE);
            let region = VoxelRegion::from_fn(&bounds, res, res, res, |p| blob.contains(p));
            tetrahedralize(&region)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_mesh::MeshStats;

    #[test]
    fn neuron_mesh_has_at_least_two_components_and_is_nonconvex() {
        let m = neuron(NeuroLevel::L1, 0.7).unwrap();
        let stats = MeshStats::compute(&m).unwrap();
        assert!(stats.num_cells > 1_000, "got {} cells", stats.num_cells);
        assert!(
            stats.components >= 2,
            "two neuron cells: {} components",
            stats.components
        );
        assert!(stats.surface_ratio < 1.0);
    }

    #[test]
    fn neuron_detail_increases_cells_and_decreases_surface_ratio() {
        let lo = MeshStats::compute(&neuron(NeuroLevel::L1, 0.6).unwrap()).unwrap();
        let hi = MeshStats::compute(&neuron(NeuroLevel::L5, 0.6).unwrap()).unwrap();
        assert!(
            hi.num_cells > 3 * lo.num_cells,
            "{} vs {}",
            hi.num_cells,
            lo.num_cells
        );
        assert!(
            hi.surface_ratio < lo.surface_ratio,
            "S must drop with detail: {} vs {}",
            hi.surface_ratio,
            lo.surface_ratio
        );
    }

    #[test]
    fn basin_surface_ratio_matches_paper_at_scale_one() {
        let m = basin(BasinResolution::Sf2, 1.0).unwrap();
        let stats = MeshStats::compute(&m).unwrap();
        // Paper Fig. 8: S:V = 0.16 for SF2. Box meshes reproduce it closely.
        assert!(
            (stats.surface_ratio - 0.16).abs() < 0.03,
            "S:V = {} should be ≈ 0.16",
            stats.surface_ratio
        );
        assert_eq!(stats.components, 1, "convex basin is one component");
    }

    #[test]
    fn basin_sf1_is_finer_than_sf2() {
        let sf2 = MeshStats::compute(&basin(BasinResolution::Sf2, 0.4).unwrap()).unwrap();
        let sf1 = MeshStats::compute(&basin(BasinResolution::Sf1, 0.4).unwrap()).unwrap();
        assert!(sf1.num_cells > 3 * sf2.num_cells);
        assert!(sf1.surface_ratio < sf2.surface_ratio);
    }

    #[test]
    fn animation_bodies_build_and_are_connected_enough() {
        for kind in AnimationKind::ALL {
            let m = animation(kind, 0.5).unwrap();
            let stats = MeshStats::compute(&m).unwrap();
            assert!(stats.num_cells > 500, "{kind:?}: {} cells", stats.num_cells);
            assert!(stats.surface_ratio < 1.0, "{kind:?}");
        }
    }

    #[test]
    fn facial_is_most_compact_of_the_animations() {
        let horse =
            MeshStats::compute(&animation(AnimationKind::HorseGallop, 0.5).unwrap()).unwrap();
        let face =
            MeshStats::compute(&animation(AnimationKind::FacialExpression, 0.5).unwrap()).unwrap();
        assert!(
            face.surface_ratio < horse.surface_ratio,
            "facial {} < horse {} (Fig. 14 ordering)",
            face.surface_ratio,
            horse.surface_ratio
        );
    }

    #[test]
    fn generators_are_deterministic() {
        let a = neuron(NeuroLevel::L1, 0.5).unwrap();
        let b = neuron(NeuroLevel::L1, 0.5).unwrap();
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_cells(), b.num_cells());
        assert_eq!(a.positions()[10], b.positions()[10]);
    }

    #[test]
    fn level_metadata_is_consistent() {
        assert_eq!(NeuroLevel::ALL.len(), 5);
        let mut prev = 0.0;
        for l in NeuroLevel::ALL {
            assert!(l.paper_tets_billions() > prev);
            prev = l.paper_tets_billions();
        }
        assert_eq!(AnimationKind::HorseGallop.time_steps(), 48);
        assert_eq!(AnimationKind::FacialExpression.time_steps(), 9);
        assert_eq!(AnimationKind::CamelCompress.time_steps(), 53);
    }
}
