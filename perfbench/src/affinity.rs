//! Processor affinity of the calling thread (Linux `sched_setaffinity`).
//!
//! The daemon windows run on one processor: the client, the daemon's
//! threads and the caller hand each request over to one another, and on
//! a shared host the wake-up of an idle second processor at every
//! hand-off varied from run to run far more than the work itself (warm
//! p99 from 0.6 to 5.8 ms over five runs; 0.46 to 0.54 ms pinned). The
//! single-threaded model and VM work may run on either processor, so the
//! kernel can move it off a processor the host is busy with.

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Bits of the kernel's `cpu_set_t`.
const CPU_SET_BITS: usize = 1024;

pub struct Affinity {
    cpu: Option<usize>,
}

impl Affinity {
    /// Chooses the processor the caller is running on; `None` inside when
    /// it cannot be known, and then pinning does nothing.
    pub fn current() -> Affinity {
        // SAFETY: a plain libc call without arguments.
        let cpu = unsafe { sched_getcpu() };
        Affinity {
            cpu: usize::try_from(cpu).ok().filter(|&c| c < CPU_SET_BITS),
        }
    }

    pub fn cpu(&self) -> Option<usize> {
        self.cpu
    }

    /// Restricts the calling thread, and the threads it starts from now
    /// on, to the chosen processor.
    pub fn pin(&self) {
        if let Some(cpu) = self.cpu {
            let mut mask = [0u64; CPU_SET_BITS / 64];
            mask[cpu / 64] |= 1 << (cpu % 64);
            set(&mask);
        }
    }

    /// Lets the calling thread run on any processor.
    pub fn unpin(&self) {
        if self.cpu.is_some() {
            set(&[u64::MAX; CPU_SET_BITS / 64]);
        }
    }
}

fn set(mask: &[u64; CPU_SET_BITS / 64]) {
    // SAFETY: the mask is valid for the size passed; pid 0 is the calling
    // thread. A failure leaves the affinity as it was, which only makes
    // timings noisier, so it is ignored.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr());
    }
}
