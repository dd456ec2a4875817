// Lint fixture (never compiled): trips `sync-shim` — this path is one
// of the model-checked modules, which must use `octopus_sync`.
use std::sync::{Condvar, Mutex};

pub struct Fixture {
    remaining: Mutex<usize>,
    done: Condvar,
}
