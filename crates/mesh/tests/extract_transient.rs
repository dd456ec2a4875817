//! What surface extraction and restructuring mode cost in heap beyond
//! what they keep. `Surface::extract` files cell ids, not faces (see
//! `octopus_mesh::surface`), and the vertex→cell incidence is built in
//! its final blocks, so on a `meshgen` neuron mesh neither
//! `Mesh::surface` nor `Mesh::enable_restructuring` may peak more than
//! 12 B per tet plus 8 B per vertex above the heap it leaves held.
//! Filing every face (8 B each, 32 B a tet) exceeds that bound.
//!
//! One test in its own binary: the counting allocator sees every
//! allocation of the process, so no other test may run beside it.

#![allow(unsafe_code)]

use octopus_meshgen::{neuron, NeuroLevel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// Heap bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has reached since [`transient`] last reset it.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting.
struct Counting;

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, SeqCst) + by;
    PEAK.fetch_max(now, SeqCst);
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only read
// sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, forwarded.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, forwarded.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(p, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` came from `System` with `layout`; the caller's
        // new size, forwarded.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`; returns what it returned and its transient: the peak heap
/// during the call minus the heap held after it.
fn transient<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.store(LIVE.load(SeqCst), SeqCst);
    let out = f();
    (out, PEAK.load(SeqCst) - LIVE.load(SeqCst))
}

#[test]
fn extraction_and_restructuring_mode_peak_at_most_12_b_a_tet_and_8_b_a_vertex() {
    let mesh = neuron(NeuroLevel::L1, 1.0).unwrap();
    let bound = 12 * mesh.num_cells() + 8 * mesh.num_vertices();
    let (surface, extract) = transient(|| mesh.surface().unwrap());
    assert!(!surface.is_empty());
    assert!(
        extract <= bound,
        "Surface::extract peaked {extract} B above what it keeps; the bound is {bound} B \
         ({} tets, {} vertices)",
        mesh.num_cells(),
        mesh.num_vertices()
    );
    let mut restructuring = mesh.snapshot();
    let ((), enable) = transient(|| restructuring.enable_restructuring().unwrap());
    assert!(
        enable <= bound,
        "enable_restructuring peaked {enable} B above what it keeps; the bound is {bound} B"
    );
    assert_eq!(
        restructuring.surface().unwrap().vertices(),
        surface.vertices()
    );
}
