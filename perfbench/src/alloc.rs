//! Allocation counters for the traced run.
//!
//! Only the `perfbench-trace` binary installs a global allocator that
//! reports here, and it counts only inside [`counting`], so the untraced
//! `perfbench` binary runs on the plain system allocator.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Relaxed throughout: the counters publish no other data, and `counting`
// reads them on the thread that switched counting off after the measured
// closure (and every thread it spawned) has finished.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Records one allocation of `size` bytes while counting is on.
#[inline]
pub fn record(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

/// Runs `f` with counting on; returns its result, the allocations it made
/// and the bytes they requested.
pub fn counting<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    COUNT.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let r = f();
    ENABLED.store(false, Ordering::Relaxed);
    (
        r,
        COUNT.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
