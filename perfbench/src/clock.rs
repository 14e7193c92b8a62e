//! The clock the end-to-end timings read: CPU time of the calling thread.
//!
//! Every timed phase runs on one busy thread, so its CPU time is its
//! service time. Unlike wall-clock it leaves out time the hypervisor gave
//! the vCPU to other guests (steal, excluded under paravirtual time
//! accounting) and time the thread waited for a CPU. On a shared 2-vCPU
//! guest, runs with ~1000 steal ticks read 30–40 % slower on wall-clock
//! than runs with none, for the same work.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the thread CPU clock of 64-bit Linux");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by the calling thread so far, in seconds.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `struct timespec` through
    // `tp`, which points to a live, exclusively borrowed `Timespec` laid
    // out as that struct on the 64-bit Linux targets the `compile_error!`
    // above restricts this file to.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on every Linux kernel");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Measures the calling thread's CPU time from its creation.
#[derive(Clone, Copy, Debug)]
pub struct CpuTimer(f64);

impl CpuTimer {
    pub fn start() -> Self {
        CpuTimer(thread_cpu_s())
    }

    /// CPU seconds since [`Self::start`].
    pub fn secs(&self) -> f64 {
        thread_cpu_s() - self.0
    }

    /// CPU milliseconds since [`Self::start`].
    pub fn ms(&self) -> f64 {
        self.secs() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_grows_with_work_and_not_with_sleep() {
        let t = CpuTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = t.ms();
        let t = CpuTimer::start();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let worked = t.ms();
        assert!(slept < 10.0, "sleeping used {slept} ms of CPU");
        assert!(worked > 1.0, "20M multiply-adds took {worked} ms of CPU");
    }
}
