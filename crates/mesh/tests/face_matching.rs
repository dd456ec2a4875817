//! `Surface::extract` files every face under its smallest vertex and
//! matches it there (see `octopus_mesh::surface`); a mesh in
//! restructuring mode starts from that matching's counts and then reads
//! each face's cell count off its vertex→cell incidence. This suite
//! holds both to the algorithm they replaced — one global `HashMap`
//! over canonical face keys, kept here as the oracle — on seeded
//! inputs: tet soups glued face to face, `meshgen` voxel meshes of both
//! cell kinds, each of them relabelled, with unreferenced ids, with
//! non-manifold faces injected, and under random restructuring
//! operations. CI runs it in debug and in release.

use octopus_geom::rng::SplitMix64;
use octopus_geom::{Aabb, Point3};
use octopus_mesh::{CellKind, FaceKey, Mesh, MeshError, Surface, VertexId};
use octopus_meshgen::hex::hexahedralize;
use octopus_meshgen::tet::tetrahedralize;
use octopus_meshgen::VoxelRegion;
use std::collections::HashMap;

/// Seeded cases per property.
const CASES: u64 = 64;

/// A cell list as `Surface::extract` takes it.
struct Soup {
    kind: CellKind,
    num_vertices: usize,
    flat: Vec<VertexId>,
}

impl Soup {
    fn of(mesh: &Mesh) -> Soup {
        Soup {
            kind: mesh.kind(),
            num_vertices: mesh.num_vertices(),
            flat: mesh.live_cells().flat_map(|(_, c)| c.to_vec()).collect(),
        }
    }

    fn cells(&self) -> impl Iterator<Item = &[VertexId]> + Clone {
        self.flat.chunks_exact(self.kind.arity())
    }

    fn extract(&self) -> Result<Surface, MeshError> {
        Surface::extract(self.kind, self.num_vertices, self.cells())
    }

    /// The cells as a mesh (every vertex at the origin) in
    /// restructuring mode, or the error enabling it gave.
    fn restructuring_mesh(&self) -> Result<Mesh, MeshError> {
        let positions = vec![Point3::ORIGIN; self.num_vertices];
        let mut mesh = Mesh::from_flat(self.kind, positions, self.flat.clone())?;
        mesh.enable_restructuring()?;
        Ok(mesh)
    }

    /// The same cells in another order.
    fn shuffled(&self, rng: &mut SplitMix64) -> Soup {
        let mut cells: Vec<&[VertexId]> = self.cells().collect();
        rng.shuffle(&mut cells);
        Soup {
            kind: self.kind,
            num_vertices: self.num_vertices,
            flat: cells.concat(),
        }
    }
}

/// What the global face list says about a cell list.
struct Oracle {
    is_surface: Vec<bool>,
    boundary_faces: usize,
    /// Faces shared by more than two cells with their multiplicity,
    /// ascending by key.
    offending: Vec<(FaceKey, usize)>,
}

/// The replaced algorithm: count every canonical key in one hash map.
fn oracle(soup: &Soup) -> Oracle {
    let mut counts: HashMap<FaceKey, usize> = HashMap::new();
    for key in soup.cells().flat_map(|cell| soup.kind.face_keys(cell)) {
        *counts.entry(key).or_default() += 1;
    }
    let mut is_surface = vec![false; soup.num_vertices];
    for (key, _) in counts.iter().filter(|(_, &n)| n == 1) {
        for &v in key.vertices() {
            is_surface[v as usize] = true;
        }
    }
    let mut offending: Vec<_> = counts
        .iter()
        .filter(|(_, &n)| n > 2)
        .map(|(k, n)| (*k, *n))
        .collect();
    offending.sort_unstable();
    Oracle {
        is_surface,
        boundary_faces: counts.values().filter(|&&n| n == 1).count(),
        offending,
    }
}

/// `got` is the surface of `soup` the oracle found: the same members
/// and as many boundary faces.
fn assert_surface_is_the_oracles(got: &Surface, soup: &Soup, ctx: &str) {
    let want = oracle(soup);
    assert!(
        want.offending.is_empty(),
        "{ctx}: accepted {want_off:?}",
        want_off = want.offending
    );
    let members: Vec<VertexId> = (0..soup.num_vertices as VertexId)
        .filter(|&v| want.is_surface[v as usize])
        .collect();
    assert_eq!(got.vertices(), &members[..], "{ctx}: vertices");
    assert_eq!(got.num_boundary_faces(), want.boundary_faces, "{ctx}");
    assert_eq!(got.len(), members.len(), "{ctx}");
    for v in 0..soup.num_vertices as VertexId {
        assert_eq!(got.contains(v), want.is_surface[v as usize], "{ctx}: {v}");
    }
}

/// `Surface::extract` ≡ oracle: the same surface, or the same rejection.
fn assert_extract_matches_oracle(soup: &Soup, ctx: &str) {
    match soup.extract() {
        Ok(got) => assert_surface_is_the_oracles(&got, soup, ctx),
        Err(MeshError::NonManifoldFace { face, count }) => {
            assert_eq!(
                oracle(soup).offending.first(),
                Some(&(face, count)),
                "{ctx}"
            );
        }
        Err(other) => panic!("{ctx}: {other}"),
    }
}

/// The surface `mesh` maintains in restructuring mode ≡ the oracle's
/// over its live cells.
fn assert_maintained_surface_matches_oracle(mesh: &Mesh, ctx: &str) {
    assert!(mesh.restructuring_enabled(), "{ctx}");
    assert_surface_is_the_oracles(&mesh.surface().unwrap(), &Soup::of(mesh), ctx);
}

/// Tets glued face to face from one seed tet: each step either glues a
/// new tet (and vertex) onto a free face or splits a tet around a new,
/// interior centroid. Ids no cell references are left in — a step that
/// found no free face still spends its id, and up to two trail the
/// list, so the last buckets are empty.
fn glued_tets(rng: &mut SplitMix64) -> Soup {
    let mut cells: Vec<[VertexId; 4]> = vec![[0, 1, 2, 3]];
    let mut next: VertexId = 4;
    for _ in 0..rng.index(40) {
        let at = rng.index(cells.len());
        if rng.chance(0.3) {
            let [a, b, c, d] = cells.swap_remove(at);
            cells.extend([
                [a, b, c, next],
                [a, b, d, next],
                [a, c, d, next],
                [b, c, d, next],
            ]);
        } else {
            let occurrences = |key: FaceKey| {
                cells
                    .iter()
                    .flat_map(|cell| CellKind::Tet4.face_keys(cell))
                    .filter(|k| *k == key)
                    .count()
            };
            let free: Vec<FaceKey> = CellKind::Tet4
                .face_keys(&cells[at])
                .filter(|key| occurrences(*key) == 1)
                .collect();
            if !free.is_empty() {
                let [a, b, c, _] = free[rng.index(free.len())].0;
                cells.push([a, b, c, next]);
            }
        }
        next += 1;
    }
    Soup {
        kind: CellKind::Tet4,
        num_vertices: next as usize + rng.index(3),
        flat: cells.concat(),
    }
}

/// A `meshgen` mesh over a random voxel mask (at least one voxel set).
fn voxel_mesh(rng: &mut SplitMix64, kind: CellKind) -> Mesh {
    let (nx, ny, nz) = (1 + rng.index(4), 1 + rng.index(4), 1 + rng.index(3));
    let bounds = Aabb::new(Point3::ORIGIN, Point3::new(nx as f32, ny as f32, nz as f32));
    let mut first = true;
    let region = VoxelRegion::from_fn(&bounds, nx, ny, nz, |_| {
        std::mem::take(&mut first) || rng.chance(0.6)
    });
    match kind {
        CellKind::Tet4 => tetrahedralize(&region),
        CellKind::Hex8 => hexahedralize(&region),
    }
    .unwrap()
}

fn random_permutation(n: usize, rng: &mut SplitMix64) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    rng.shuffle(&mut perm);
    perm
}

/// Adds cells on randomly chosen faces of `soup` until each of 1–3
/// faces is shared by 3–5 cells: a new cell is the face plus fresh ids.
fn inject_nonmanifold(soup: &mut Soup, rng: &mut SplitMix64) {
    let keys: Vec<FaceKey> = soup
        .cells()
        .flat_map(|cell| soup.kind.face_keys(cell))
        .collect();
    let fresh = soup.kind.arity() - soup.kind.face_arity();
    for _ in 0..1 + rng.index(3) {
        let face = keys[rng.index(keys.len())];
        for _ in 0..2 + rng.index(3) {
            soup.flat.extend_from_slice(face.vertices());
            soup.flat
                .extend((0..fresh).map(|i| (soup.num_vertices + i) as VertexId));
            soup.num_vertices += fresh;
        }
    }
}

#[test]
fn extract_matches_the_oracle_on_glued_tets() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let soup = glued_tets(&mut rng);
        assert_extract_matches_oracle(&soup, &format!("seed {seed}"));
        assert_extract_matches_oracle(&soup.shuffled(&mut rng), &format!("seed {seed} shuffled"));
        let mesh = soup.restructuring_mesh().unwrap();
        assert_maintained_surface_matches_oracle(&mesh, &format!("seed {seed}"));
    }
}

#[test]
fn extract_matches_the_oracle_on_voxel_meshes_permuted_and_not() {
    for seed in 0..CASES {
        for kind in [CellKind::Tet4, CellKind::Hex8] {
            let mut rng = SplitMix64::new(seed);
            let mut mesh = voxel_mesh(&mut rng, kind);
            let ctx = format!("seed {seed} {}", kind.name());
            assert_extract_matches_oracle(&Soup::of(&mesh), &ctx);
            mesh.enable_restructuring().unwrap();
            assert_maintained_surface_matches_oracle(&mesh, &ctx);
            let perm = random_permutation(mesh.num_vertices(), &mut rng);
            let relabelled = mesh.permute_vertices(&perm);
            let permuted = Soup::of(&relabelled);
            assert_extract_matches_oracle(&permuted, &format!("{ctx} permuted"));
            assert_maintained_surface_matches_oracle(&relabelled, &format!("{ctx} permuted"));
            // Surface membership belongs to the vertex, not to its label.
            let (before, after) = (mesh.surface().unwrap(), permuted.extract().unwrap());
            for v in 0..mesh.num_vertices() as VertexId {
                assert_eq!(
                    before.contains(v),
                    after.contains(perm[v as usize]),
                    "{ctx}"
                );
            }
        }
    }
}

#[test]
fn extract_handles_empty_inputs_and_unreferenced_ids() {
    for kind in [CellKind::Tet4, CellKind::Hex8] {
        for num_vertices in [0, 1, 9] {
            let none = Soup {
                kind,
                num_vertices,
                flat: Vec::new(),
            };
            assert_extract_matches_oracle(&none, "no cells");
            assert!(none.extract().unwrap().is_empty());
            let mesh = none.restructuring_mesh().unwrap();
            assert_maintained_surface_matches_oracle(&mesh, "no cells");
        }
    }
    // One tet in the middle of the id space: buckets 0–2 and 7–11 empty.
    let lone = Soup {
        kind: CellKind::Tet4,
        num_vertices: 12,
        flat: vec![3, 4, 5, 6],
    };
    assert_extract_matches_oracle(&lone, "lone tet");
    assert_eq!(lone.extract().unwrap().vertices(), &[3, 4, 5, 6]);
    assert_maintained_surface_matches_oracle(&lone.restructuring_mesh().unwrap(), "lone tet");
}

#[test]
fn nonmanifold_injections_are_rejected_with_the_oracles_face_and_count() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let mut soup = match seed % 3 {
            0 => glued_tets(&mut rng),
            1 => Soup::of(&voxel_mesh(&mut rng, CellKind::Tet4)),
            _ => Soup::of(&voxel_mesh(&mut rng, CellKind::Hex8)),
        };
        inject_nonmanifold(&mut soup, &mut rng);
        let want = oracle(&soup);
        let (face, count) = *want.offending.first().expect("an injected face");
        let expected = MeshError::NonManifoldFace { face, count };
        assert_eq!(soup.extract().unwrap_err(), expected, "seed {seed}");
        // Whatever order the cells come in.
        let shuffled = soup.shuffled(&mut rng);
        assert_eq!(
            shuffled.extract().unwrap_err(),
            expected,
            "seed {seed} shuffled"
        );
        // Restructuring mode starts from the same matching, so it
        // refuses alike.
        assert_eq!(
            shuffled.restructuring_mesh().unwrap_err(),
            expected,
            "seed {seed} restructuring"
        );
    }
}

#[test]
fn maintained_surface_matches_the_oracle_under_random_operations() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let mut mesh = match seed % 3 {
            0 => glued_tets(&mut rng).restructuring_mesh().unwrap(),
            1 => voxel_mesh(&mut rng, CellKind::Tet4),
            _ => voxel_mesh(&mut rng, CellKind::Hex8),
        };
        mesh.enable_restructuring().unwrap();
        // Past the last cell on the smaller meshes; relabelled halfway.
        let ops = 60;
        for op in 0..ops {
            if mesh.num_cells() == 0 {
                break;
            }
            if op == ops / 2 {
                let perm = random_permutation(mesh.num_vertices(), &mut rng);
                mesh = mesh.permute_vertices(&perm);
            }
            let live: Vec<u32> = mesh.live_cells().map(|(c, _)| c).collect();
            let c = live[rng.index(live.len())];
            if mesh.kind() == CellKind::Tet4 && rng.chance(0.3) {
                mesh.refine_tet(c).unwrap();
            } else {
                mesh.remove_cell(c).unwrap();
            }
            assert_maintained_surface_matches_oracle(&mesh, &format!("seed {seed} op {op}"));
        }
    }
}
