//! Resource accounting: a counting [`GlobalAlloc`] wrapper and process RSS.
//!
//! The telemetry crate installs [`CountingAllocator`] as the process-wide
//! `#[global_allocator]` (see `lib.rs`), so every binary in the workspace
//! gets heap accounting for free — **opt-in**, under the same discipline as
//! spans: when tracking is off ([`set_alloc_tracking`]) the allocator adds
//! exactly one relaxed atomic load per operation before forwarding to
//! [`System`], and `benches/merge_pipeline.rs` asserts that cost stays under
//! 2% of a full pipeline run. When tracking is on, each allocation updates
//!
//! * **global** relaxed atomics — current live bytes, the high-water mark
//!   (peak), and allocation/deallocation/byte totals — read via
//!   [`alloc_snapshot`]; and
//! * **per-thread** cumulative counters (const-initialized thread locals, so
//!   the allocator never re-enters itself) — read via [`thread_alloc_bytes`]
//!   / [`thread_dealloc_bytes`] and used by the span layer to attribute
//!   allocation deltas to the active span stack.
//!
//! Turning tracking on mid-process is safe: frees of allocations made while
//! tracking was off saturate the live-bytes counter at zero instead of
//! underflowing. [`reset_alloc_peak`] re-arms the high-water mark at the
//! current level so a measured region (e.g. the pipeline run of
//! `tests/oracle_memory.rs`) reports its own peak, not the process's
//! lifetime peak.
//!
//! Alongside the allocator's view, [`peak_rss_bytes`] / [`current_rss_bytes`]
//! read the kernel's `VmHWM` / `VmRSS` from `/proc/self/status` (Linux only;
//! `None` elsewhere), and [`reset_peak_rss`] re-arms `VmHWM` via
//! `/proc/self/clear_refs` where the kernel allows it. Reports surface both:
//! the allocator peak bounds what the *code* held live, `VmHWM` bounds what
//! the *process* cost the machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static TRACKING: AtomicBool = AtomicBool::new(false);

static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized: accessing these never allocates, which is what
    // makes them safe to touch from inside the global allocator.
    static THREAD_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_DEALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Is heap accounting currently on? One relaxed load.
#[inline]
pub fn alloc_tracking_enabled() -> bool {
    TRACKING.load(Ordering::Relaxed)
}

/// Turn heap accounting on or off. Enabling re-arms the peak at the current
/// live level so the high-water mark describes the tracked region.
pub fn set_alloc_tracking(on: bool) {
    if on {
        PEAK_BYTES.fetch_max(CURRENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    }
    TRACKING.store(on, Ordering::Relaxed);
}

/// Re-arm the allocator high-water mark at the current live level, so the
/// next [`alloc_snapshot`] reports the peak of the region that follows.
pub fn reset_alloc_peak() {
    PEAK_BYTES.store(CURRENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Cumulative bytes allocated by the *current thread* while tracking was on.
/// Monotone; the span layer diffs it around a span to attribute allocations.
#[inline]
pub fn thread_alloc_bytes() -> u64 {
    THREAD_ALLOC_BYTES.with(Cell::get)
}

/// Cumulative bytes deallocated *from the current thread* while tracking was
/// on (the thread that frees, not the one that allocated).
#[inline]
pub fn thread_dealloc_bytes() -> u64 {
    THREAD_DEALLOC_BYTES.with(Cell::get)
}

/// Point-in-time view of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Whether tracking was enabled when the snapshot was taken.
    pub tracking: bool,
    /// Live heap bytes (allocations minus frees observed while tracking).
    pub current_bytes: u64,
    /// High-water mark of `current_bytes` since the last peak reset.
    pub peak_bytes: u64,
    /// Cumulative bytes ever allocated while tracking was on.
    pub total_alloc_bytes: u64,
    /// Number of allocations observed (alloc + the alloc half of realloc).
    pub allocs: u64,
    /// Number of deallocations observed.
    pub deallocs: u64,
}

/// Read every allocator counter at once.
pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        tracking: alloc_tracking_enabled(),
        current_bytes: CURRENT_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
        total_alloc_bytes: TOTAL_ALLOC_BYTES.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
        deallocs: DEALLOCS.load(Ordering::Relaxed),
    }
}

/// Current allocator peak (high-water mark of live bytes), one load.
#[inline]
pub fn alloc_peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

#[inline]
fn record_alloc(size: u64) {
    let after = CURRENT_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(after, Ordering::Relaxed);
    TOTAL_ALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with` so a late free during TLS teardown cannot panic inside the
    // allocator; the per-thread view just misses those final events.
    let _ = THREAD_ALLOC_BYTES.try_with(|c| c.set(c.get() + size));
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

#[inline]
fn record_dealloc(size: u64) {
    // Saturate: frees of memory allocated before tracking was enabled must
    // not underflow the live counter.
    let _ = CURRENT_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(size))
    });
    DEALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_DEALLOC_BYTES.try_with(|c| c.set(c.get() + size));
}

/// The counting wrapper around [`System`]. Installed once, process-wide, in
/// `telemetry::lib` — do not install a second `#[global_allocator]`.
pub struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the accounting on the side touches only atomics and
// const-initialized thread-local cells, neither of which allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && TRACKING.load(Ordering::Relaxed) {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && TRACKING.load(Ordering::Relaxed) {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if TRACKING.load(Ordering::Relaxed) {
            record_dealloc(layout.size() as u64);
        }
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && TRACKING.load(Ordering::Relaxed) {
            // Account as free-then-allocate so current/peak stay exact.
            record_dealloc(layout.size() as u64);
            record_alloc(new_size as u64);
        }
        p
    }
}

/// Parse a `kB` line of `/proc/self/status`, e.g. `VmHWM:  123456 kB`.
#[cfg(target_os = "linux")]
fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let rest = rest.trim_start_matches(':').trim();
            let kb: u64 = rest.split_whitespace().next()?.parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Peak resident set size (`VmHWM`) of this process, in bytes. `None` off
/// Linux or when `/proc` is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_kb("VmHWM")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Current resident set size (`VmRSS`) of this process, in bytes.
pub fn current_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_kb("VmRSS")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Ask the kernel to re-arm `VmHWM` at the current RSS (write `5` to
/// `/proc/self/clear_refs`). Returns whether the reset was accepted — some
/// sandboxes deny it, in which case `VmHWM` keeps its process-lifetime value.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_os = "linux")]
    {
        std::fs::write("/proc/self/clear_refs", b"5").is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Tracking state is process-wide; serialize the tests (and keep out of
    // the way of other modules' tests, which may allocate concurrently —
    // assertions here use thread-local or monotone counters only).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn tracking_off_counts_nothing() {
        let _l = lock();
        set_alloc_tracking(false);
        let before = thread_alloc_bytes();
        let v: Vec<u8> = Vec::with_capacity(4096);
        drop(v);
        assert_eq!(thread_alloc_bytes(), before);
    }

    #[test]
    fn tracking_on_attributes_thread_allocations_and_frees() {
        let _l = lock();
        set_alloc_tracking(true);
        let a0 = thread_alloc_bytes();
        let d0 = thread_dealloc_bytes();
        {
            let v: Vec<u8> = Vec::with_capacity(64 * 1024);
            assert!(thread_alloc_bytes() >= a0 + 64 * 1024, "alloc not counted");
            drop(v);
        }
        set_alloc_tracking(false);
        let allocated = thread_alloc_bytes() - a0;
        let freed = thread_dealloc_bytes() - d0;
        assert!(allocated >= 64 * 1024);
        assert!(freed >= 64 * 1024, "free not counted: {freed}");
    }

    #[test]
    fn peak_tracks_high_water_and_resets_to_current() {
        let _l = lock();
        set_alloc_tracking(true);
        reset_alloc_peak();
        let base = alloc_peak_bytes();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let with_block = alloc_peak_bytes();
        assert!(with_block >= base + (1 << 20), "{base} -> {with_block}");
        drop(v);
        // Peak is sticky until reset...
        assert!(alloc_peak_bytes() >= with_block - 1024);
        reset_alloc_peak();
        // ...then re-arms at the (now lower) current level.
        assert!(alloc_peak_bytes() < with_block);
        set_alloc_tracking(false);
    }

    #[test]
    fn snapshot_is_coherent() {
        let _l = lock();
        set_alloc_tracking(true);
        let before = alloc_snapshot();
        let v: Vec<u64> = vec![0; 1024];
        let after = alloc_snapshot();
        drop(v);
        set_alloc_tracking(false);
        assert!(after.tracking);
        assert!(after.allocs > before.allocs);
        assert!(after.total_alloc_bytes >= before.total_alloc_bytes + 8 * 1024);
        assert!(after.peak_bytes >= after.current_bytes || after.current_bytes == 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_readers_return_plausible_values() {
        let rss = current_rss_bytes().expect("VmRSS readable on linux");
        let hwm = peak_rss_bytes().expect("VmHWM readable on linux");
        assert!(rss > 1024 * 1024, "rss {rss} implausibly small");
        assert!(hwm >= rss / 2, "hwm {hwm} vs rss {rss}");
    }
}
