//! Raw `epoll` syscall shim — the reactor's only OS dependency.
//!
//! The workspace builds offline against vendored stand-ins, so there is
//! no `libc` crate to call through. This module issues the four
//! syscalls the reactor needs (`epoll_create1`, `epoll_ctl`,
//! `epoll_pwait`, `close`) directly via inline assembly on Linux
//! x86-64 and aarch64 — the same vendored-stand-in convention the rest
//! of the repo follows, scoped to the smallest possible surface.
//! Everything else (sockets, accept, nonblocking reads/writes, the
//! self-pipe waker) goes through `std`.
//!
//! On other platforms [`EPOLL_AVAILABLE`] is `false` and the epoll
//! driver is compiled out; the reactor still runs virtual connections
//! through its condvar driver, and `serve_listener` reports TCP serving
//! as unavailable.

/// Whether the epoll driver can be built on this target.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub const EPOLL_AVAILABLE: bool = true;

/// Whether the epoll driver can be built on this target.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub const EPOLL_AVAILABLE: bool = false;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use imp::*;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::io;

    /// Readable readiness (`EPOLLIN`).
    pub const EPOLLIN: u32 = 0x001;
    /// Writable readiness (`EPOLLOUT`).
    pub const EPOLLOUT: u32 = 0x004;
    /// Error condition (`EPOLLERR`, always reported).
    pub const EPOLLERR: u32 = 0x008;
    /// Hang-up (`EPOLLHUP`, always reported).
    pub const EPOLLHUP: u32 = 0x010;
    /// Peer shut down its writing half (`EPOLLRDHUP`).
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// `epoll_ctl` op: add an fd.
    pub const EPOLL_CTL_ADD: u64 = 1;
    /// `epoll_ctl` op: remove an fd.
    pub const EPOLL_CTL_DEL: u64 = 2;
    /// `epoll_ctl` op: modify an fd's interest set.
    pub const EPOLL_CTL_MOD: u64 = 3;

    /// `EPOLL_CLOEXEC` for `epoll_create1`.
    const EPOLL_CLOEXEC: u64 = 0o2000000;

    /// One readiness record as the kernel fills it. x86-64 uses the
    /// packed 12-byte layout; other architectures use natural `repr(C)`
    /// alignment (16 bytes).
    #[derive(Clone, Copy)]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    pub struct EpollEvent {
        /// Ready-event bitmask (`EPOLLIN` | `EPOLLOUT` | ...).
        pub events: u32,
        /// The caller-chosen token registered with the fd.
        pub data: u64,
    }

    impl EpollEvent {
        /// A zeroed event (buffer initialization).
        #[must_use]
        pub fn zeroed() -> EpollEvent {
            EpollEvent { events: 0, data: 0 }
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const CLOSE: u64 = 3;
        pub const EPOLL_CTL: u64 = 233;
        pub const EPOLL_PWAIT: u64 = 281;
        pub const EPOLL_CREATE1: u64 = 291;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: u64 = 20;
        pub const EPOLL_CTL: u64 = 21;
        pub const EPOLL_PWAIT: u64 = 22;
        pub const CLOSE: u64 = 57;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(n: u64, a1: u64, a2: u64, a3: u64, a4: u64, a5: u64, a6: u64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n as i64 => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(n: u64, a1: u64, a2: u64, a3: u64, a4: u64, a5: u64, a6: u64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "svc 0",
            inlateout("x0") a1 as i64 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            in("x8") n,
            options(nostack),
        );
        ret
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    /// Creates an epoll instance (`EPOLL_CLOEXEC`), returning its fd.
    ///
    /// # Errors
    ///
    /// Maps the kernel's `-errno` to [`io::Error`].
    pub fn epoll_create1() -> io::Result<i32> {
        // SAFETY: epoll_create1 takes one integer flag and touches no
        // caller memory.
        check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })
            .map(|v| v as i32)
    }

    /// Adds/modifies/removes `fd` in the epoll set with `events`
    /// interest and `token` as its readiness cookie.
    ///
    /// # Errors
    ///
    /// Maps the kernel's `-errno` to [`io::Error`].
    pub fn epoll_ctl(epfd: i32, op: u64, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let evp = if op == EPOLL_CTL_DEL {
            0u64
        } else {
            std::ptr::from_mut(&mut ev) as u64
        };
        // SAFETY: `ev` outlives the call; the kernel reads it only for
        // ADD/MOD (DEL passes NULL, allowed since Linux 2.6.9).
        check(unsafe { syscall6(nr::EPOLL_CTL, epfd as u64, op, fd as u64, evp, 0, 0) }).map(|_| ())
    }

    /// Waits for readiness, filling `events`; returns how many fired.
    /// A `timeout_ms` of `-1` blocks indefinitely. `EINTR` is reported
    /// as zero events rather than an error.
    ///
    /// # Errors
    ///
    /// Maps the kernel's `-errno` (other than `EINTR`) to [`io::Error`].
    pub fn epoll_pwait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the buffer pointer/length pair is valid for writes of
        // `events.len()` records; a NULL sigmask means "don't change".
        let ret = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                epfd as u64,
                events.as_mut_ptr() as u64,
                events.len() as u64,
                timeout_ms as i64 as u64,
                0,
                8, // sizeof(sigset_t) as the kernel checks it
            )
        };
        const EINTR: i64 = -4;
        if ret == EINTR {
            return Ok(0);
        }
        check(ret).map(|v| v as usize)
    }

    /// Closes a raw fd obtained from [`epoll_create1`].
    pub fn close(fd: i32) {
        // SAFETY: close of an owned fd; the result is advisory.
        let _ = unsafe { syscall6(nr::CLOSE, fd as u64, 0, 0, 0, 0, 0) };
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::Write;
        use std::os::unix::io::AsRawFd;

        #[test]
        fn epoll_roundtrip_on_a_socket_pair() {
            let (mut a, b) = std::os::unix::net::UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            let epfd = epoll_create1().unwrap();
            epoll_ctl(epfd, EPOLL_CTL_ADD, b.as_raw_fd(), EPOLLIN, 7).unwrap();

            let mut events = vec![EpollEvent::zeroed(); 8];
            // Nothing readable yet: a zero-timeout wait returns nothing.
            assert_eq!(epoll_pwait(epfd, &mut events, 0).unwrap(), 0);

            a.write_all(b"x").unwrap();
            let n = epoll_pwait(epfd, &mut events, 1000).unwrap();
            assert_eq!(n, 1);
            let ev = events[0];
            assert_eq!({ ev.data }, 7);
            assert_ne!({ ev.events } & EPOLLIN, 0);

            epoll_ctl(epfd, EPOLL_CTL_DEL, b.as_raw_fd(), 0, 0).unwrap();
            close(epfd);
        }
    }
}
