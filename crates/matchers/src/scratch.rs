//! A small pool of reusable scratch buffers for the batch matchers.
//!
//! The batch entry points used to keep one scratch behind a `Mutex` and
//! fall back to `T::default()` whenever `try_lock` missed — which meant
//! every *concurrent* batch (the common case under `em-pool` fan-out)
//! re-allocated its feature buffers and caches from cold. The pool keeps
//! a handful of warmed scratches instead: a contended taker pops an idle
//! one, and finished scratches return to the pool for the next caller.
//!
//! Scratches are pure allocation/memo caches cleared (or fully
//! overwritten) by their consumers, so which physical scratch a call
//! receives can never change a value — the batch ≡ batch-of-one and
//! dirty-scratch-rerun bitwise tests pin this.

use std::sync::Mutex;

/// Upper bound on idle scratches retained per matcher. Matches the small
/// worker counts `em-pool` fans out to; extras beyond the cap are simply
/// dropped rather than hoarded.
const POOL_CAP: usize = 8;

/// Lock-briefly pool of `T: Default` scratch values.
///
/// The mutex guards only the pop/push of the idle list — never the use
/// of a scratch — so takers contend for nanoseconds, not for the length
/// of a batch.
#[derive(Debug, Default)]
pub struct ScratchPool<T: Default> {
    idle: Mutex<Vec<T>>,
}

impl<T: Default> ScratchPool<T> {
    /// `const`, so a pool can also back a `static` (the perturbation
    /// engine's masked-pair buffers).
    pub const fn new() -> Self {
        ScratchPool {
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Pop a warmed scratch, or build a fresh one if the pool is empty
    /// (first calls, or more concurrent batches than `POOL_CAP`).
    pub fn take(&self) -> T {
        let popped = self.idle.lock().ok().and_then(|mut idle| idle.pop());
        popped.unwrap_or_default()
    }

    /// Return a scratch for reuse; dropped silently once the pool holds
    /// `POOL_CAP` (8) idle entries.
    pub fn put(&self, scratch: T) {
        if let Ok(mut idle) = self.idle.lock() {
            if idle.len() < POOL_CAP {
                idle.push(scratch);
            }
        }
    }

    /// Idle scratches currently pooled (test/diagnostic hook).
    pub fn idle_len(&self) -> usize {
        self.idle.lock().map(|idle| idle.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_returned_scratch() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        let mut a = pool.take();
        assert!(a.is_empty());
        a.extend_from_slice(b"warm");
        pool.put(a);
        assert_eq!(pool.idle_len(), 1);
        // The warmed buffer (capacity and contents) comes back.
        let b = pool.take();
        assert_eq!(b, b"warm");
        assert_eq!(pool.idle_len(), 0);
    }

    #[test]
    fn pool_caps_idle_entries() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        for _ in 0..POOL_CAP + 5 {
            pool.put(Vec::new());
        }
        assert_eq!(pool.idle_len(), POOL_CAP);
    }

    #[test]
    fn concurrent_takers_all_get_scratches() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let mut v = pool.take();
                        v.push(1);
                        pool.put(v);
                    }
                });
            }
        });
        assert!(pool.idle_len() <= POOL_CAP);
    }
}
