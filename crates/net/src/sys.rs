//! The crate's only `unsafe` code: a raw Linux syscall via inline assembly.
//!
//! One syscall is enough for the whole reactor: `ppoll(2)` for
//! level-triggered readiness over raw file descriptors. It is invoked
//! directly so the workspace stays free of `libc`; on targets without a
//! shim the constants below report the facility as unsupported, and the
//! workspace still compiles there but cannot serve.
//!
//! The assembly follows the kernel ABI exactly:
//!
//! * x86_64 — `syscall`, number in `rax`, args in `rdi rsi rdx r10 r8`,
//!   clobbers `rcx`/`r11`.
//! * aarch64 — `svc 0`, number in `x8`, args in `x0..x4`.
//!
//! Negative return values are `-errno`.

use std::io;
use std::time::Duration;

/// One entry of a `ppoll` fd set, ABI-compatible with the kernel's
/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch (negative entries are ignored by the
    /// kernel, which callers can use to mask a slot out).
    pub fd: i32,
    /// Requested events ([`POLLIN`] / [`POLLOUT`]).
    pub events: i16,
    /// Returned events (includes error conditions regardless of the
    /// request).
    pub revents: i16,
}

/// Readable (or peer closed — a subsequent read returns 0).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition on the descriptor.
pub const POLLERR: i16 = 0x008;
/// Peer hung up.
pub const POLLHUP: i16 = 0x010;
/// Descriptor is not open.
pub const POLLNVAL: i16 = 0x020;

/// Kernel `struct timespec` for the `ppoll` timeout.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    /// Whether this build carries a live syscall shim.
    pub const SUPPORTED: bool = true;

    #[cfg(target_arch = "x86_64")]
    pub const NR_PPOLL: usize = 271;

    #[cfg(target_arch = "aarch64")]
    pub const NR_PPOLL: usize = 73;

    /// Five-argument raw syscall.
    ///
    /// # Safety
    ///
    /// The caller must uphold the invariants of the specific syscall:
    /// pointers must be valid for the kernel's reads/writes and lengths
    /// must match the pointed-to buffers.
    #[cfg(target_arch = "x86_64")]
    pub unsafe fn syscall5(
        nr: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a0,
                in("rsi") a1,
                in("rdx") a2,
                in("r10") a3,
                in("r8") a4,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// Five-argument raw syscall.
    ///
    /// # Safety
    ///
    /// As the x86_64 variant: pointer/length arguments must be valid for
    /// the specific syscall being made.
    #[cfg(target_arch = "aarch64")]
    pub unsafe fn syscall5(
        nr: usize,
        a0: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") a0 => ret,
                in("x1") a1,
                in("x2") a2,
                in("x3") a3,
                in("x4") a4,
                options(nostack),
            );
        }
        ret
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    /// Whether this build carries a live syscall shim.
    pub const SUPPORTED: bool = false;
    pub const NR_PPOLL: usize = 0;

    /// Stub that reports `ENOSYS`; never actually traps.
    ///
    /// # Safety
    ///
    /// Always safe — it performs no system call.
    pub unsafe fn syscall5(
        _nr: usize,
        _a0: usize,
        _a1: usize,
        _a2: usize,
        _a3: usize,
        _a4: usize,
    ) -> isize {
        -38 // -ENOSYS
    }
}

/// Whether the raw-syscall shim is live on this target. `false` means
/// [`ppoll`] always fails.
pub const SUPPORTED: bool = imp::SUPPORTED;

const EINTR: isize = -4;

/// Level-triggered poll over `fds`, waiting at most `timeout` (`None`
/// blocks indefinitely). Returns the number of descriptors with non-zero
/// `revents`. `EINTR` is retried internally.
///
/// # Errors
///
/// The raw `-errno` as an [`io::Error`]; `ErrorKind::Unsupported` on
/// targets without the shim.
pub fn ppoll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    if !SUPPORTED {
        return Err(io::Error::from(io::ErrorKind::Unsupported));
    }
    let ts_storage;
    let ts_ptr = match timeout {
        Some(d) => {
            ts_storage = Timespec {
                sec: d.as_secs().min(i64::MAX as u64) as i64,
                nsec: i64::from(d.subsec_nanos()),
            };
            &ts_storage as *const Timespec as usize
        }
        None => 0,
    };
    loop {
        // SAFETY: `fds` is a valid mutable slice of ABI-correct pollfd
        // entries with matching length; the timespec (when present) lives
        // across the call; the signal mask is null so its size is unused.
        let r = unsafe {
            imp::syscall5(
                imp::NR_PPOLL,
                fds.as_mut_ptr() as usize,
                fds.len(),
                ts_ptr,
                0,
                8,
            )
        };
        if r >= 0 {
            return Ok(r as usize);
        }
        if r == EINTR {
            continue;
        }
        return Err(io::Error::from_raw_os_error(-r as i32));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppoll_times_out_on_silence() {
        if !SUPPORTED {
            return;
        }
        // No fds: pure timeout — must return 0 promptly, not hang.
        let start = std::time::Instant::now();
        let n = ppoll(&mut [], Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn ppoll_reports_readable_socket() {
        if !SUPPORTED {
            return;
        }
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();

        // Nothing written yet: readable must not fire, writable must.
        let mut fds = [PollFd {
            fd: rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        let n = ppoll(&mut fds, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(n, 0, "unexpected readiness: {:#x}", fds[0].revents);

        tx.write_all(b"x").unwrap();
        let mut fds = [PollFd {
            fd: rx.as_raw_fd(),
            events: POLLIN | POLLOUT,
            revents: 0,
        }];
        let n = ppoll(&mut fds, Some(Duration::from_millis(500))).unwrap();
        assert_eq!(n, 1);
        assert_ne!(
            fds[0].revents & POLLIN,
            0,
            "byte in flight must be readable"
        );
    }
}
