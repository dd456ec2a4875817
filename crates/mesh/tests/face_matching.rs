//! `Surface::extract` and `FaceTable` file every face under its
//! smallest vertex and match it there (see `octopus_mesh::surface`).
//! This suite holds both to the algorithm they replaced — one global
//! `HashMap` over canonical face keys, kept here as the oracle — on
//! seeded inputs: tet soups glued face to face, `meshgen` voxel meshes
//! of both cell kinds, each of them relabelled, with unreferenced ids,
//! with non-manifold faces injected, and under random table edits.
//! CI runs it in debug and in release.

use octopus_geom::rng::SplitMix64;
use octopus_geom::{Aabb, Point3};
use octopus_mesh::surface::FaceTable;
use octopus_mesh::{CellId, CellKind, FaceKey, Mesh, MeshError, Surface, VertexId};
use octopus_meshgen::hex::hexahedralize;
use octopus_meshgen::tet::tetrahedralize;
use octopus_meshgen::VoxelRegion;
use std::collections::{BTreeSet, HashMap};

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

    fn numbered(&self) -> impl Iterator<Item = (CellId, &[VertexId])> + Clone {
        self.cells().enumerate().map(|(i, c)| (i as CellId, c))
    }

    fn extract(&self) -> Result<Surface, MeshError> {
        Surface::extract(self.kind, self.num_vertices, self.cells())
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

/// `Surface::extract` ≡ oracle: the same surface, or the same rejection.
fn assert_extract_matches_oracle(soup: &Soup, ctx: &str) {
    let want = oracle(soup);
    match soup.extract() {
        Ok(got) => {
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
        Err(MeshError::NonManifoldFace { face, count }) => {
            assert_eq!(want.offending.first(), Some(&(face, count)), "{ctx}");
        }
        Err(other) => panic!("{ctx}: {other}"),
    }
}

/// (d): the table's boundary faces mark exactly the extraction's
/// vertices, and there are as many as it counted.
fn assert_table_marks_the_extracted_surface(soup: &Soup, ctx: &str) {
    let table = FaceTable::build(soup.kind, soup.numbered()).unwrap();
    let surface = soup.extract().unwrap();
    let marked: BTreeSet<VertexId> = table
        .boundary_faces()
        .flat_map(|key| key.vertices().to_vec())
        .collect();
    assert!(
        marked
            .iter()
            .copied()
            .eq(surface.vertices().iter().copied()),
        "{ctx}"
    );
    assert_eq!(
        table.num_boundary_faces(),
        surface.num_boundary_faces(),
        "{ctx}"
    );
    assert_eq!(
        table.boundary_faces().count(),
        surface.num_boundary_faces(),
        "{ctx}"
    );
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
        assert_table_marks_the_extracted_surface(&soup, &format!("seed {seed}"));
    }
}

#[test]
fn extract_matches_the_oracle_on_voxel_meshes_permuted_and_not() {
    for seed in 0..CASES {
        for kind in [CellKind::Tet4, CellKind::Hex8] {
            let mut rng = SplitMix64::new(seed);
            let mesh = voxel_mesh(&mut rng, kind);
            let ctx = format!("seed {seed} {}", kind.name());
            assert_extract_matches_oracle(&Soup::of(&mesh), &ctx);
            assert_table_marks_the_extracted_surface(&Soup::of(&mesh), &ctx);
            let perm = random_permutation(mesh.num_vertices(), &mut rng);
            let permuted = Soup::of(&mesh.permute_vertices(&perm));
            assert_extract_matches_oracle(&permuted, &format!("{ctx} permuted"));
            assert_table_marks_the_extracted_surface(&permuted, &format!("{ctx} permuted"));
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
            assert!(FaceTable::build(kind, none.numbered()).unwrap().is_empty());
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
        // The table stops at some third insertion, of a face the
        // oracle lists.
        match FaceTable::build(soup.kind, shuffled.numbered()) {
            Err(MeshError::NonManifoldFace { face, count: 3 }) => {
                assert!(
                    want.offending.iter().any(|(k, _)| *k == face),
                    "seed {seed}"
                );
            }
            other => panic!("seed {seed}: {other:?}"),
        }
    }
}

/// The table's model: every face with the cells referencing it.
type Model = HashMap<FaceKey, Vec<CellId>>;

/// Every observation the table offers, against the model, for each of
/// `probes` (faces present and faces long gone).
fn assert_table_matches_model(
    table: &FaceTable,
    model: &Model,
    probes: &BTreeSet<FaceKey>,
    ctx: &str,
) {
    assert_eq!(table.len(), model.len(), "{ctx}: len");
    assert_eq!(table.is_empty(), model.is_empty(), "{ctx}: is_empty");
    let boundary: BTreeSet<FaceKey> = model
        .iter()
        .filter(|(_, cells)| cells.len() == 1)
        .map(|(key, _)| *key)
        .collect();
    let listed: Vec<FaceKey> = table.boundary_faces().collect();
    assert_eq!(
        listed.len(),
        boundary.len(),
        "{ctx}: a boundary face listed twice"
    );
    assert_eq!(
        listed.into_iter().collect::<BTreeSet<_>>(),
        boundary,
        "{ctx}"
    );
    assert_eq!(table.num_boundary_faces(), boundary.len(), "{ctx}");
    let absent: &[CellId] = &[];
    for key in probes {
        let cells = model.get(key).map_or(absent, |cells| &cells[..]);
        assert_eq!(table.count(key), cells.len(), "{ctx}: count {key:?}");
        assert_eq!(table.is_boundary(key), cells.len() == 1, "{ctx}: {key:?}");
        match *cells {
            [a, b] => {
                assert_eq!(table.twin(key, a), Some(b), "{ctx}: twin {key:?}");
                assert_eq!(table.twin(key, b), Some(a), "{ctx}: twin {key:?}");
            }
            [a] => assert_eq!(table.twin(key, a), None, "{ctx}: twin of a boundary face"),
            _ => {}
        }
        assert_eq!(
            table.twin(key, CellId::MAX - 1),
            None,
            "{ctx}: a cell not on {key:?}"
        );
    }
}

#[test]
fn face_table_matches_a_model_under_random_edits() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let soup = match seed % 3 {
            0 => glued_tets(&mut rng),
            1 => Soup::of(&voxel_mesh(&mut rng, CellKind::Tet4)),
            _ => Soup::of(&voxel_mesh(&mut rng, CellKind::Hex8)),
        };
        let kind = soup.kind;
        let cells: Vec<&[VertexId]> = soup.cells().collect();
        let probes: BTreeSet<FaceKey> = cells.iter().flat_map(|c| kind.face_keys(c)).collect();
        // Starts without a bucket: every early insertion files beyond
        // the current bucket list.
        let mut table = FaceTable::default();
        let mut model = Model::new();
        let mut inserted = vec![false; cells.len()];
        let edit = |table: &mut FaceTable, model: &mut Model, inserted: &mut [bool], c: usize| {
            if inserted[c] {
                table.remove_cell(kind, c as CellId, cells[c]);
                for key in kind.face_keys(cells[c]) {
                    let sharing = model.get_mut(&key).expect("a face of an inserted cell");
                    sharing.retain(|&id| id != c as CellId);
                    if sharing.is_empty() {
                        model.remove(&key);
                    }
                }
            } else {
                table.insert_cell(kind, c as CellId, cells[c]).unwrap();
                for key in kind.face_keys(cells[c]) {
                    model.entry(key).or_default().push(c as CellId);
                }
            }
            inserted[c] = !inserted[c];
        };
        for op in 0..3 * cells.len() {
            let c = rng.index(cells.len());
            edit(&mut table, &mut model, &mut inserted, c);
            assert_table_matches_model(&table, &model, &probes, &format!("seed {seed} op {op}"));
        }
        // Down to the empty table, then every cell back in.
        for c in 0..cells.len() {
            if inserted[c] {
                edit(&mut table, &mut model, &mut inserted, c);
            }
        }
        assert!(table.is_empty() && model.is_empty(), "seed {seed}");
        assert_table_matches_model(&table, &model, &probes, &format!("seed {seed} emptied"));
        for c in 0..cells.len() {
            edit(&mut table, &mut model, &mut inserted, c);
        }
        assert_table_matches_model(&table, &model, &probes, &format!("seed {seed} refilled"));

        // `permuted` ≡ `build` of the relabelled cells ≡ the relabelled
        // model.
        let perm = random_permutation(soup.num_vertices, &mut rng);
        let relabelled = Soup {
            flat: soup.flat.iter().map(|&v| perm[v as usize]).collect(),
            ..soup
        };
        let model: Model = model
            .into_iter()
            .map(|(key, sharing)| (key.permuted(&perm), sharing))
            .collect();
        let probes: BTreeSet<FaceKey> = probes.iter().map(|key| key.permuted(&perm)).collect();
        assert_table_matches_model(
            &table.permuted(&perm),
            &model,
            &probes,
            &format!("seed {seed} permuted"),
        );
        let rebuilt = FaceTable::build(kind, relabelled.numbered()).unwrap();
        assert_table_matches_model(&rebuilt, &model, &probes, &format!("seed {seed} rebuilt"));
    }
}
