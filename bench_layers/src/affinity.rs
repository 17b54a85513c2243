//! CPU placement of a daemon session: the client thread, and through it
//! the daemon it spawns, on one CPU.
//!
//! Left to the scheduler, the client, the daemon's reader and serving
//! threads share the host's CPUs in placements that change from session
//! to session, and a hand-off between CPUs waits for the other virtual
//! CPU to wake, which on a shared host takes as long as the host makes
//! it. On one CPU no hand-off waits for a sleeping CPU; `BENCHMARK.md`
//! gives the spreads measured each way. The cost: the daemon's rayon pool
//! has one thread, so the daemon workloads do not measure parallel
//! serving, and their times include the client's own CPU time.

/// `cpu_set_t`: 1024 bits.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn get() -> Option<CpuSet> {
    let mut s = CpuSet([0; 16]);
    // SAFETY: `s` is a writable `cpu_set_t`-sized buffer and the size
    // passed is its size.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut s) };
    (rc == 0).then_some(s)
}

fn set(s: &CpuSet) -> bool {
    // SAFETY: `s` is a readable `cpu_set_t`-sized buffer and the size
    // passed is its size; the call only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), s) == 0 }
}

/// The calling thread pinned to the first CPU it may run on, until
/// dropped. Threads and processes it starts meanwhile inherit the pin.
pub struct Pinned {
    before: CpuSet,
}

impl Pinned {
    pub fn first_cpu() -> Option<Pinned> {
        let before = get()?;
        let cpu = (0..1024).find(|&c| before.0[c / 64] >> (c % 64) & 1 == 1)?;
        let mut only = CpuSet([0; 16]);
        only.0[cpu / 64] = 1 << (cpu % 64);
        set(&only).then_some(Pinned { before })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set(&self.before);
    }
}
