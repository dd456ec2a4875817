// Lint fixture (never compiled): trips `relaxed-justified` and
// `safety-comment`.
use std::sync::atomic::{AtomicU64, Ordering};

pub fn tick(c: &AtomicU64) -> u64 {
    c.fetch_add(1, Ordering::Relaxed)
}

pub fn peek(p: *const u64) -> u64 {
    unsafe { *p }
}
