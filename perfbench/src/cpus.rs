//! The client thread takes turns on the CPUs this process may use, one
//! block at a time. On a shared host the vCPUs run at different speeds
//! (on a 2-vCPU guest, 12-15% apart, and which one is faster changes over
//! minutes), and a thread left alone stays on one of them for a whole run,
//! so consecutive runs read two speeds. Taking turns makes every run
//! sample each CPU equally. Only the calling thread is pinned: the pool's
//! workers are started unpinned, during set-up.

/// Bits in glibc's `cpu_set_t`.
const SET_BITS: usize = 1024;
type CpuSet = [u64; SET_BITS / 64];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on.
pub struct Cpus {
    allowed: CpuSet,
    ids: Vec<usize>,
}

impl Cpus {
    /// The calling thread's affinity mask; empty if it cannot be read.
    pub fn allowed() -> Cpus {
        let mut allowed: CpuSet = [0; SET_BITS / 64];
        // SAFETY: `allowed` is a live, writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } == 0;
        let ids = if ok {
            (0..SET_BITS)
                .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Cpus { allowed, ids }
    }

    pub fn count(&self) -> usize {
        self.ids.len()
    }

    /// Pin the calling thread to the `turn`-th allowed CPU, round robin.
    /// A failure leaves the thread where it was.
    pub fn take_turn(&self, turn: u64) {
        if self.ids.is_empty() {
            return;
        }
        let cpu = self.ids[(turn % self.ids.len() as u64) as usize];
        let mut one: CpuSet = [0; SET_BITS / 64];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one);
    }

    /// Let the calling thread run on every allowed CPU again.
    pub fn release(&self) {
        if !self.ids.is_empty() {
            set(&self.allowed);
        }
    }
}

fn set(mask: &CpuSet) {
    // SAFETY: `mask` is a live buffer of exactly the size passed, only
    // read by the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
}
