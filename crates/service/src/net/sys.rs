//! Raw `epoll(7)` and `eventfd(2)` bindings with safe RAII wrappers,
//! plus a one-call non-blocking socket peek.
//!
//! The approved dependency list has no `libc` or async runtime, so this
//! module talks to the three epoll syscall wrappers and `eventfd`
//! directly, in the same spirit as the CLI's bare `signal(2)` FFI. It is
//! the only file in the crate allowed to use `unsafe`; everything above
//! it works with the safe [`Epoll`] / [`EventFd`] types.
//!
//! Level-triggered semantics only: the reactor re-arms interest with
//! `EPOLL_CTL_MOD` instead of juggling edge-triggered starvation cases,
//! and deliberately deregisters `EPOLLIN` while a connection is not
//! willing to read (otherwise a ready-but-unread socket would spin the
//! event loop at 100% CPU).
#![allow(unsafe_code)]

use std::ffi::{c_int, c_uint, c_void};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readable (`EPOLLIN`).
pub(crate) const EVENT_READ: u32 = 0x001;
/// Writable (`EPOLLOUT`).
pub(crate) const EVENT_WRITE: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never registered.
pub(crate) const EVENT_ERROR: u32 = 0x008;
/// Peer hangup (`EPOLLHUP`); always reported, never registered.
pub(crate) const EVENT_HANGUP: u32 = 0x010;

const EPOLL_CLOEXEC: c_int = 0o200_0000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EFD_CLOEXEC: c_int = 0o200_0000;
const EFD_NONBLOCK: c_int = 0o4000;
const MSG_PEEK: c_int = 0x02;
const MSG_DONTWAIT: c_int = 0x40;

/// One readiness record, kernel layout. x86 and x86-64 declare the
/// struct packed in the kernel UAPI headers (`EPOLL_PACKED`); other
/// architectures use natural alignment. Getting this wrong corrupts the
/// `data` word on one side or the other, so mirror the kernel exactly.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    /// Bitmask of `EVENT_*` flags.
    pub events: u32,
    /// Caller-chosen token, returned verbatim with each readiness.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
}

/// Peeks one byte of `fd` without blocking and without consuming it,
/// whatever the socket's blocking mode: `Ok(1)` when data is waiting,
/// `Ok(0)` at EOF, `WouldBlock` on a live, quiet socket.
pub(crate) fn peek_byte(fd: RawFd) -> io::Result<usize> {
    let mut byte = 0u8;
    // SAFETY: recv writes at most `len` (1) bytes into the valid u8;
    // MSG_PEEK leaves the socket's queue untouched and MSG_DONTWAIT
    // makes this one call non-blocking without touching O_NONBLOCK on
    // the (possibly shared) open file description.
    let n = unsafe { recv(fd, (&raw mut byte).cast::<c_void>(), 1, MSG_PEEK | MSG_DONTWAIT) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(n.unsigned_abs())
}

/// An owned epoll instance.
pub(crate) struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // the documented error signal.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    /// Starts watching `fd` for `events`, tagging readiness with `token`.
    pub(crate) fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Replaces the watched event set for an already-added `fd`.
    pub(crate) fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Stops watching `fd`. Closing the fd deregisters it implicitly;
    /// this exists for fds that outlive their registration.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut event = EpollEvent { events, data: token };
        // SAFETY: `event` is a valid, live EpollEvent for the duration of
        // the call (the kernel copies it; DEL ignores it entirely).
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &raw mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until readiness or `timeout`, filling `events` from the
    /// front. Returns the number of records written; an interrupted wait
    /// (`EINTR`) is reported as zero records, not an error.
    pub(crate) fn wait(
        &self,
        events: &mut [EpollEvent],
        timeout: Duration,
    ) -> io::Result<usize> {
        let millis = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
        let capacity = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
        // SAFETY: the pointer/length pair describes the caller's slice,
        // which the kernel fills with at most `capacity` records.
        let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), capacity, millis) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(usize::try_from(rc).unwrap_or(0))
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is an fd this struct owns exclusively.
        unsafe {
            close(self.fd);
        }
    }
}

/// An owned nonblocking eventfd: a one-word doorbell that worker threads
/// ring ([`signal`](EventFd::signal)) to wake the reactor's `epoll_wait`.
pub(crate) struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd.
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: eventfd takes no pointers; negative return is an error.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    /// The raw fd, for epoll registration.
    pub(crate) fn raw(&self) -> RawFd {
        self.fd
    }

    /// Rings the doorbell. Thread-safe; an `EAGAIN` (counter already
    /// saturated — the reactor is certainly awake) is deliberately
    /// ignored, any other failure is moot because the reactor also
    /// re-checks its queues on its idle tick.
    pub(crate) fn signal(&self) {
        let value: u64 = 1;
        // SAFETY: writes of exactly 8 bytes from a valid u64 are the
        // documented eventfd contract.
        unsafe {
            write(self.fd, (&raw const value).cast::<c_void>(), 8);
        }
    }

    /// Clears the doorbell so the next `epoll_wait` blocks again.
    pub(crate) fn drain(&self) {
        let mut value: u64 = 0;
        // SAFETY: reads of exactly 8 bytes into a valid u64 are the
        // documented eventfd contract; EAGAIN (already clear) is fine.
        unsafe {
            read(self.fd, (&raw mut value).cast::<c_void>(), 8);
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: `fd` is an fd this struct owns exclusively.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let epoll = Epoll::new().expect("epoll");
        let doorbell = EventFd::new().expect("eventfd");
        epoll.add(doorbell.raw(), 7, EVENT_READ).expect("add");
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];

        // Nothing rung: the wait times out empty.
        let n = epoll.wait(&mut events, Duration::from_millis(10)).expect("wait");
        assert_eq!(n, 0);

        doorbell.signal();
        let n = epoll.wait(&mut events, Duration::from_millis(1000)).expect("wait");
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 7);
        assert_ne!({ events[0].events } & EVENT_READ, 0);

        // Drained: level-triggered readiness goes away.
        doorbell.drain();
        let n = epoll.wait(&mut events, Duration::from_millis(10)).expect("wait");
        assert_eq!(n, 0);
    }

    #[test]
    fn socket_readiness_round_trip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let epoll = Epoll::new().expect("epoll");
        epoll.add(listener.as_raw_fd(), 1, EVENT_READ).expect("add listener");

        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        let n = epoll.wait(&mut events, Duration::from_millis(10)).expect("wait");
        assert_eq!(n, 0, "no pending connection yet");

        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        let n = epoll.wait(&mut events, Duration::from_millis(1000)).expect("wait");
        assert_eq!(n, 1, "pending connection must be reported");
        assert_eq!({ events[0].data }, 1);

        let (server_side, _) = listener.accept().expect("accept");
        server_side.set_nonblocking(true).expect("nonblocking");
        epoll.add(server_side.as_raw_fd(), 2, EVENT_READ).expect("add conn");
        client.write_all(b"hello").expect("write");
        let n = epoll.wait(&mut events, Duration::from_millis(1000)).expect("wait");
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 2);

        epoll.delete(server_side.as_raw_fd()).expect("delete");
        let n = epoll.wait(&mut events, Duration::from_millis(10)).expect("wait");
        assert_eq!(n, 0, "deleted fd must not report");
    }

    #[test]
    fn peek_byte_tells_quiet_from_data_and_eof() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = std::net::TcpStream::connect(listener.local_addr().expect("addr"))
            .expect("connect");
        let (mut server_side, _) = listener.accept().expect("accept");
        let fd = client.as_raw_fd();
        // A blocking socket with nothing queued must not block.
        let err = peek_byte(fd).expect_err("quiet socket");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        server_side.write_all(b"x").expect("write");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(peek_byte(fd).expect("data"), 1);
        assert_eq!(peek_byte(fd).expect("still there: peek consumes nothing"), 1);
        drop(server_side);
        let mut sink = [0u8; 1];
        std::io::Read::read_exact(&mut &client, &mut sink).expect("read the byte");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(peek_byte(fd).expect("eof"), 0);
    }
}
