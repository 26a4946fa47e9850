//! A counting global allocator. Its peak of live heap bytes above a mark
//! is the benchmark's memory metric: unlike `VmHWM`, it does not depend on
//! how the system allocator spreads threads' memory over its arenas, which
//! moves `VmHWM` of `bfs-deep-j2` between 68 and 89 MB on identical runs.
//! The mark is set after set-up, so the inputs, oracle answers and
//! calibration buffer the benchmark holds stay out of the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards every call to [`System`] and counts the live bytes.
struct Counting;

// Statistics only: the counters publish no other data, so `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method passes its arguments to the same method of
// `System` unchanged and returns its result unchanged, so `Counting`
// upholds the `GlobalAlloc` contract exactly as `System` does; the
// counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator, and so
        // `System`, returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Restarts the peak at the bytes live now and returns them: the base
/// [`peak_above_mb`] measures from. Call it while no other thread
/// allocates.
pub fn mark() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The most heap held live at once since [`mark`] returned `base`, less
/// `base`, in MiB.
pub fn peak_above_mb(base: usize) -> f64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(base) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests allocate on other threads meanwhile, so the checks
    // leave a margin.
    #[test]
    fn peak_counts_from_the_mark() {
        let held = vec![1u8; 16 << 20];
        let base = mark();
        assert!(
            peak_above_mb(base) < 8.0,
            "bytes live before the mark count"
        );
        let block = vec![1u8; 16 << 20];
        let grown = {
            let mut v = block;
            v.resize(32 << 20, 0);
            v
        };
        assert!(peak_above_mb(base) >= 24.0);
        drop((held, grown));
    }
}
