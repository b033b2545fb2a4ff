//! What the operating system says about this process, plus a fixed
//! integer spin loop that calls no repo code: timed before and after a
//! workload, its drift tells a noisy machine from a slow program. Also
//! the one thing the benchmark asks of the scheduler: one CPU for the
//! workloads that can only use one at a time.

use std::time::Instant;

/// Kernel clock ticks per second behind `/proc/self/stat` (USER_HZ; 100
/// on every Linux this runs on — `getconf CLK_TCK`).
const TICKS_PER_S: f64 = 100.0;

/// Process user+sys CPU in milliseconds (all threads), or 0 off Linux.
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the ')'.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |s: Option<&str>| s.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) * 1000.0 / TICKS_PER_S
}

/// Milliseconds the hypervisor ran something else while a CPU of this
/// guest wanted to run (the `steal` column of `/proc/stat`, all CPUs), or
/// 0 where the kernel does not say. Whole seconds of it inside a window
/// explain a slow run better than anything the benchmark can measure.
pub fn steal_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let total = stat.lines().next().unwrap_or("");
    // "cpu user nice system idle iowait irq softirq steal ..."
    let ticks = total.split_whitespace().nth(8);
    ticks.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) * 1000.0 / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) in MiB, or 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds the fixed spin loop takes right now (best of five, so a
/// preemption does not read as drift).
pub fn calibrate_ms() -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..10_000_000u64 {
                x = (x ^ i).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17);
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Restricts the calling thread, and every thread spawned from it
/// afterwards, to the lowest-numbered CPU it may run on, and returns that
/// CPU. `None` where this is not Linux on x86-64 or aarch64, or the kernel
/// refuses; the run then goes ahead unpinned and says so.
///
/// A single-connection workload is a strict relay between generator,
/// reactor, worker and commit threads, so only one of them runs at a time.
/// Left alone, the guest scheduler spreads them over both vCPUs or not as
/// it pleases, and a hand-off that crosses vCPUs costs 40-50 us on this VM
/// against 7 us on one (a loopback ping-pong shows it): whole runs then
/// differ by which placement they got (README, Steadiness).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask) as u64;
    // SAFETY: sched_getaffinity(0 = this thread, size, ptr) writes at most
    // `bytes` bytes to `mask`, which is that large and lives past the call.
    let got = unsafe { sys::syscall3(sys::SCHED_GETAFFINITY, 0, bytes, mask.as_mut_ptr() as u64) };
    if got <= 0 {
        return None;
    }
    let word = mask.iter().position(|w| *w != 0)?;
    let bit = mask[word].trailing_zeros() as usize;
    let mut only = [0u64; 16];
    only[word] = 1 << bit;
    // SAFETY: sched_setaffinity(0, size, ptr) only reads `bytes` bytes from
    // `only`, which is that large and lives past the call.
    let set = unsafe { sys::syscall3(sys::SCHED_SETAFFINITY, 0, bytes, only.as_ptr() as u64) };
    (set == 0).then_some(word * 64 + bit)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    pub const SCHED_SETAFFINITY: u64 = 203;
    pub const SCHED_GETAFFINITY: u64 = 204;

    /// # Safety
    /// `n` and the arguments must form a system call whose pointer
    /// arguments are valid for what the kernel reads or writes through them.
    pub unsafe fn syscall3(n: u64, a1: u64, a2: u64, a3: u64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as i64 => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod sys {
    pub const SCHED_SETAFFINITY: u64 = 122;
    pub const SCHED_GETAFFINITY: u64 = 123;

    /// # Safety
    /// `n` and the arguments must form a system call whose pointer
    /// arguments are valid for what the kernel reads or writes through them.
    pub unsafe fn syscall3(n: u64, a1: u64, a2: u64, a3: u64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "svc 0",
            inlateout("x0") a1 as i64 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x8") n,
            options(nostack),
        );
        ret
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    pub const SCHED_SETAFFINITY: u64 = 0;
    pub const SCHED_GETAFFINITY: u64 = 0;

    /// # Safety
    /// None: makes no system call and reports failure.
    pub unsafe fn syscall3(_: u64, _: u64, _: u64, _: u64) -> i64 {
        -1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On its own thread, so the test harness's other threads stay free.
    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        let pinned = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu();
            (
                cpu,
                std::thread::available_parallelism().map(|n| n.get()).ok(),
            )
        })
        .join()
        .unwrap();
        if pinned.0.is_some() {
            assert_eq!(pinned.1, Some(1));
        }
    }

    #[test]
    fn proc_readers_return_plausible_numbers() {
        let before = cpu_ms();
        assert!(calibrate_ms() > 0.0);
        if cfg!(target_os = "linux") {
            assert!(cpu_ms() >= before);
            assert!(steal_ms() >= 0.0);
            assert!(peak_rss_mb() > 0.5);
        }
    }
}
