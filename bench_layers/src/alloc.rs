//! Peak heap bytes of one in-process call.
//!
//! `VmHWM` of the benchmark process counts the benchmark's own inputs and
//! whatever the allocator kept from earlier calls, even when reset
//! through `/proc/self/clear_refs` before a call. The benchmark's global
//! allocator instead counts the bytes live while [`peak_bytes`] runs a
//! call. Counting is off otherwise, so timed calls pay one relaxed load
//! per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting started (negative
/// when the call frees memory it did not allocate).
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn track(delta: isize) {
    if ON.load(Relaxed) {
        let now = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Run `f` and return its value with the most heap bytes it held at once.
/// Allocations of every thread count, so nothing else may run meanwhile.
pub fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    // One measurement at a time: the counters are global.
    static ONE: Mutex<()> = Mutex::new(());
    let _one = ONE.lock().unwrap_or_else(PoisonError::into_inner);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    (out, PEAK.load(Relaxed).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_largest_live_set() {
        const MB: usize = 1 << 20;
        let ((), peak) = peak_bytes(|| {
            let a = vec![1u8; 32 * MB];
            let b = vec![1u8; 16 * MB];
            drop(a);
            let c = vec![1u8; 8 * MB];
            std::hint::black_box((b, c));
        });
        // 48 MiB were live at once, against 56 MiB allocated in all. Tests
        // on other threads allocate meanwhile, a few MiB at most.
        assert!((47 * MB..53 * MB).contains(&peak), "{peak}");
    }
}
