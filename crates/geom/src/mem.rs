//! Memory-access hints for pointer-chasing hot loops.

/// Prefetches `data[i]` into cache (read intent). No-op on architectures
/// without a prefetch intrinsic and for out-of-range indices, so callers
/// can hint unconditionally.
///
/// The surface probe iterates a *known* id list but gathers positions
/// from random offsets; issuing the load ~16 iterations ahead hides most
/// of the cache-miss latency (measured ~25 % probe speedup on top of the
/// branchless containment test) — see [`gather`].
// One of the workspace's two unsafe opt-ins (the other is the service
// pool's task-lifetime erasure): the workspace denies `unsafe_code`,
// and this intrinsic call is the only exception geom needs.
#[allow(unsafe_code)]
#[inline(always)]
pub fn prefetch_read<T>(data: &[T], i: usize) {
    if i < data.len() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `i` is in range (checked above); _mm_prefetch has no
        // memory effects visible to the program — it is a pure hint.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                data.as_ptr().add(i) as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            // Other architectures: rely on the hardware prefetcher (the
            // stable aarch64 prefetch intrinsic is still nightly-only).
            let _ = data;
        }
    }
}

/// Distance (in elements) [`gather`] prefetches ahead. 16 ≈ one L2-miss
/// latency's worth of 4-byte id reads on current cores.
const PREFETCH_DISTANCE: usize = 16;

/// The surface-probe gather: calls `visit(v, data[v])` for every id of
/// `ids`, in order, with the load `PREFETCH_DISTANCE` (16) ids ahead
/// already hinted. Every probe over a known id list — the executor's
/// single and group seeders, the approximate executor, the cost-model
/// calibration, the layout ablation — is this loop with a different
/// closure, so what is calibrated and benchmarked is what runs.
///
/// Monomorphised per closure (no `dyn`): the probe is the larger half
/// of a selective query.
#[inline]
pub fn gather<T: Copy>(ids: &[u32], data: &[T], mut visit: impl FnMut(u32, T)) {
    for (i, &v) in ids.iter().enumerate() {
        if i + PREFETCH_DISTANCE < ids.len() {
            prefetch_read(data, ids[i + PREFETCH_DISTANCE] as usize);
        }
        visit(v, data[v as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_in_range_and_out_of_range_are_safe() {
        let data = vec![1u64, 2, 3];
        prefetch_read(&data, 0);
        prefetch_read(&data, 2);
        prefetch_read(&data, 3); // out of range: no-op
        prefetch_read::<u64>(&[], 0);
    }

    #[test]
    fn gather_visits_every_id_in_order_on_both_sides_of_the_look_ahead() {
        let data: Vec<u64> = (0..100).map(|i| i * 10).collect();
        for len in [0usize, 1, PREFETCH_DISTANCE, PREFETCH_DISTANCE + 1, 60] {
            let ids: Vec<u32> = (0..len as u32).map(|i| (i * 7) % 100).collect();
            let mut seen = Vec::new();
            gather(&ids, &data, |v, d| seen.push((v, d)));
            let want: Vec<(u32, u64)> = ids.iter().map(|&v| (v, u64::from(v) * 10)).collect();
            assert_eq!(seen, want, "len {len}");
        }
    }
}
