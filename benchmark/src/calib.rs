//! The reference kernel: the yardstick every timed quantity is divided
//! by.
//!
//! One *slice* is a frozen loop — written out here, it calls no code of
//! the repository, so no optimisation of the system can move it — doing
//! 65 536 point-in-box tests over a 2 048-point array that stays in L1.
//! Its duration is 1 **ref**. The harness runs one slice before every
//! request, so the machine's speed at that moment (this shared 2-core
//! box drifts between 0.7 and 1.0 of its best rate over seconds) is
//! sampled right beside the work it normalises.

use std::hint::black_box;
use std::time::{Duration, Instant};

pub const POINTS: usize = 2048;
/// Passes over the points: `POINTS * PASSES` = 65 536 tests per slice.
pub const PASSES: usize = 32;

pub struct Kernel {
    xs: [f32; POINTS],
    ys: [f32; POINTS],
    zs: [f32; POINTS],
    /// Folded hit counts of every slice, so the loop cannot be elided.
    pub sink: u64,
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel::new()
    }
}

impl Kernel {
    pub fn new() -> Kernel {
        // A fixed xorshift stream: the kernel's data never depends on
        // the workload seed.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut k = Kernel {
            xs: [0.0; POINTS],
            ys: [0.0; POINTS],
            zs: [0.0; POINTS],
            sink: 0,
        };
        for i in 0..POINTS {
            k.xs[i] = next();
            k.ys[i] = next();
            k.zs[i] = next();
        }
        k
    }

    /// Hit count of one slice's 65 536 tests (the same on every call).
    fn hits(&self) -> u64 {
        let mut hits = 0u64;
        for pass in 0..PASSES {
            // A different box per pass, so no pass can reuse another's
            // answer.
            let lo = black_box(0.10 + 0.01 * pass as f32);
            let hi = lo + 0.45;
            let mut n = 0u32;
            for i in 0..POINTS {
                let inside = (self.xs[i] >= lo)
                    & (self.xs[i] <= hi)
                    & (self.ys[i] >= lo)
                    & (self.ys[i] <= hi)
                    & (self.zs[i] >= lo)
                    & (self.zs[i] <= hi);
                n += u32::from(inside);
            }
            hits += u64::from(black_box(n));
        }
        hits
    }

    /// Runs one slice and returns how long it took.
    pub fn slice(&mut self) -> Duration {
        let start = Instant::now();
        let hits = self.hits();
        let took = start.elapsed();
        self.sink = self.sink.wrapping_add(hits);
        took
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_deterministic_and_does_the_stated_work() {
        let k = Kernel::new();
        let a = k.hits();
        assert_eq!(a, k.hits());
        // Each pass tests a 0.45-wide cube of the unit cube: roughly
        // 9 % of the points, 32 passes.
        let tests = POINTS * PASSES;
        assert_eq!(tests, 65_536);
        let expected = tests as f64 * 0.45f64.powi(3);
        assert!(
            (a as f64) > expected * 0.7 && (a as f64) < expected * 1.3,
            "{a}"
        );
    }

    #[test]
    fn slice_time_is_positive() {
        let mut k = Kernel::new();
        assert!(k.slice() > Duration::ZERO);
        assert!(k.sink > 0);
    }
}
