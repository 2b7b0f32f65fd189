//! Raw epoll/eventfd bindings for the reactor — a minimal extern-"C"
//! shim against the platform libc, so the multiplexed front-end stays
//! inside the workspace's std-only dependency policy.
//!
//! Everything here is a thin `std::io::Result` wrapper over the
//! syscall wrappers libc already exports; no allocation, no state.
//! `epoll` is Linux-only, and so is this crate.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;

/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never needs registering).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported, never needs registering).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (must be registered to be reported).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0x80000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;
const RLIMIT_NOFILE: i32 = 7;

/// One epoll readiness record. Layout matches the kernel ABI
/// (`struct epoll_event`), which is packed on x86-64 and naturally
/// aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event mask (`EPOLLIN | ...`).
    pub events: u32,
    /// Caller-chosen cookie, returned verbatim (the reactor stores the
    /// fd here).
    pub data: u64,
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// A close-on-drop epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    ///
    /// The `epoll_create1` errno.
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, data };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut event) }).map(|_| ())
    }

    /// Registers `fd` with the given interest mask; `data` comes back
    /// verbatim in every readiness record for it.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, data)
    }

    /// Replaces `fd`'s interest mask.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno.
    pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, data)
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event pointer is ignored for DEL on any kernel >= 2.6.9,
        // but a non-null one keeps ancient-ABI strictness happy.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (-1 = forever) for readiness, filling
    /// `events` from the front; returns how many records are valid.
    ///
    /// # Errors
    ///
    /// The `epoll_wait` errno. `EINTR` is retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// A close-on-drop non-blocking eventfd: an 8-byte counter the kernel
/// exposes as a pollable fd — one write from any thread makes it
/// `EPOLLIN`-ready, one read drains it.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a non-blocking, close-on-exec eventfd.
    ///
    /// # Errors
    ///
    /// The `eventfd` errno.
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
        Ok(EventFd { fd })
    }

    /// The raw fd, for epoll registration.
    #[must_use]
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Adds 1 to the counter, waking any epoll waiting on it. Never
    /// blocks: the counter saturates long before `u64::MAX`, and a
    /// full counter already guarantees the wake is pending.
    pub fn signal(&self) {
        let one = 1u64.to_ne_bytes();
        unsafe { write(self.fd, one.as_ptr(), one.len()) };
    }

    /// Drains the counter so the fd stops reading ready.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// Raises the process's soft open-file limit to at least `min`
/// (clamped to the hard limit) and returns the resulting soft limit.
/// Thousands of keep-alive connections need thousands of fds; the
/// common 1024-soft default would cap a c10k run at the first kilobyte
/// of sockets.
///
/// # Errors
///
/// The `getrlimit`/`setrlimit` errno.
pub fn raise_nofile_limit(min: u64) -> io::Result<u64> {
    let mut limit = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) })?;
    if limit.rlim_cur >= min {
        return Ok(limit.rlim_cur);
    }
    limit.rlim_cur = min.min(limit.rlim_max);
    cvt(unsafe { setrlimit(RLIMIT_NOFILE, &limit) })?;
    Ok(limit.rlim_cur)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_round_trips_through_epoll() {
        let ep = Epoll::new().expect("epoll");
        let ev = EventFd::new().expect("eventfd");
        ep.add(ev.raw(), EPOLLIN, 42).expect("register");
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];

        // Nothing signalled: an immediate wait sees nothing.
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);

        // Signalled (twice — writes coalesce into one readiness).
        ev.signal();
        ev.signal();
        let n = ep.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 42);
        assert_ne!({ events[0].events } & EPOLLIN, 0);

        // Drained: readiness clears.
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);

        // Interest can be modified and removed.
        ep.modify(ev.raw(), EPOLLIN | EPOLLOUT, 7).expect("modify");
        ep.delete(ev.raw()).expect("delete");
        ev.signal();
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);
    }

    #[test]
    fn cross_thread_signal_wakes_a_blocked_wait() {
        let ep = Epoll::new().expect("epoll");
        let ev = EventFd::new().expect("eventfd");
        ep.add(ev.raw(), EPOLLIN, 1).expect("register");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                ev.signal();
            });
            let mut events = [EpollEvent { events: 0, data: 0 }; 1];
            let n = ep.wait(&mut events, 5_000).expect("wait");
            assert_eq!(n, 1);
        });
    }

    #[test]
    fn nofile_limit_raises_monotonically() {
        let current = raise_nofile_limit(0).expect("query");
        assert!(current > 0);
        let raised = raise_nofile_limit(current).expect("no-op raise");
        assert!(raised >= current.min(raised));
    }
}
