//! The measuring thread's on-CPU clock.
//!
//! The reference host is a virtual machine whose cores the hypervisor
//! lends to other tenants for a fifth of the time in bad minutes. Wall
//! time counts those absences; the thread's CPU-time clock does not
//! (the guest kernel subtracts stolen time from it). Every end-to-end
//! timing the benchmark takes itself is single-threaded and never
//! sleeps, so on an undisturbed host the two clocks agree, and on a
//! disturbed one this one still reads what the program cost.

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at a live, properly aligned `Timespec` whose layout is
    // that of the C struct on 64-bit Linux (two 64-bit fields); it keeps
    // no reference to it after returning.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// Wall nanoseconds since the first call, for hosts without the CPU clock.
fn wall_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// A reading of the on-CPU clock.
#[derive(Clone, Copy, Debug)]
pub struct OnCpu(u64);

impl OnCpu {
    pub fn now() -> Self {
        OnCpu(thread_cpu_ns().unwrap_or_else(wall_ns))
    }

    pub fn elapsed_ns(self) -> u64 {
        OnCpu::now().0.saturating_sub(self.0)
    }

    pub fn elapsed_s(self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_not_sleep() {
        let t = OnCpu::now();
        let wall = std::time::Instant::now();
        let mut x = 0u64;
        while wall.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let busy = t.elapsed_ns();
        assert!(
            busy > 5_000_000,
            "spinning for 50 ms used only {busy} ns of CPU"
        );
        if thread_cpu_ns().is_some() {
            let t = OnCpu::now();
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(t.elapsed_ns() < 20_000_000, "sleep was counted as CPU time");
        }
    }
}
