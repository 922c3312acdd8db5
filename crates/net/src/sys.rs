//! Thin Linux syscall bindings: `epoll`, `eventfd`, `SO_REUSEPORT`,
//! `SO_RCVBUF`.
//!
//! Every `unsafe` block in this crate lives in this module. The rest of
//! the crate (and the workspace) stays `deny(unsafe_code)`; what is
//! exported from here is a small **safe** surface:
//!
//! * [`Epoll`] — an epoll instance: register interest in fd readability,
//!   block in `epoll_wait` until an fd is readable or a timeout passes.
//!   This is what lets the [`crate::rt`] executor sleep until a UDP
//!   datagram actually arrives instead of re-polling sockets on a
//!   100 µs–1 ms timer.
//! * [`EventFd`] — a kernel event counter registered in the epoll set so
//!   *other threads* can interrupt the executor's sleep (the cross-shard
//!   frame-injection path in [`crate::shard`] needs this).
//! * [`bind_reuseport`] — a UDP socket bound with `SO_REUSEPORT`, so N
//!   worker shards can share one daemon address.
//! * [`set_rcvbuf`] — sizes a socket's kernel receive buffer and reads
//!   back what the kernel granted.
//!
//! The bindings are declarations of the libc symbols every Rust binary
//! already links; no new dependency is introduced. On non-Linux targets
//! the same API exists but [`Epoll::new`] / [`EventFd::new`] report
//! `Unsupported` (callers fall back to the timer bridge),
//! [`bind_reuseport`] degrades to a plain bind and [`set_rcvbuf`]
//! reports `Unsupported`.

#![allow(unsafe_code)]

use std::io;
use std::net::UdpSocket;
use std::time::Duration;

#[cfg(target_os = "linux")]
mod imp {
    use super::*;
    use std::net::SocketAddr;
    use std::os::fd::{AsRawFd, FromRawFd, RawFd};

    // Linux UAPI constants (x86-64 values; identical on every Linux
    // architecture this workspace targets).
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLLIN: u32 = 0x001;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;
    const AF_INET: i32 = 2;
    const SOCK_DGRAM: i32 = 2;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEPORT: i32 = 15;
    const SO_RCVBUF: i32 = 8;
    const EINTR: i32 = 4;
    const EAGAIN: i32 = 11;

    /// `struct epoll_event`. On x86 the kernel ABI packs it to 12 bytes;
    /// elsewhere it is the natural 16-byte layout.
    #[derive(Clone, Copy)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// `struct sockaddr_in` (16 bytes).
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port_be: u16,
        addr_be: u32,
        zero: [u8; 8],
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
        fn getsockopt(fd: i32, level: i32, optname: i32, optval: *mut i32, optlen: *mut u32)
            -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, addrlen: u32) -> i32;
    }

    fn last_errno() -> i32 {
        io::Error::last_os_error().raw_os_error().unwrap_or(0)
    }

    /// An epoll instance plus its registration table capacity. Closes
    /// the fd on drop.
    #[derive(Debug)]
    pub struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        /// Creates an epoll instance (`EPOLL_CLOEXEC`).
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes a plain flag word and returns
            // a new fd or -1; no memory is passed.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        /// Registers level-triggered read interest in `fd`; `token` is
        /// returned by [`Epoll::wait`] when the fd is readable.
        pub fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events: EPOLLIN, data: token };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Removes `fd` from the interest set (ignores "not registered").
        pub fn del(&self, fd: RawFd) {
            // SAFETY: kernels >= 2.6.9 accept a null event for DEL, but
            // passing a real one is portable to older ABIs.
            let mut ev = EpollEvent { events: 0, data: 0 };
            let _ = unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) };
        }

        /// Blocks until at least one registered fd is readable or
        /// `timeout` passes (`None`: wait indefinitely). Appends the
        /// ready tokens to `out` and returns how many were added.
        /// `EINTR` reads as a zero-event wakeup.
        pub fn wait(&self, timeout: Option<Duration>, out: &mut Vec<u64>) -> io::Result<usize> {
            // Round up: waking *before* the earliest timer deadline
            // would spin (the executor would see nothing due and sleep
            // again for 0 ms).
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(d) => d.as_millis().saturating_add(1).min(i32::MAX as u128) as i32,
            };
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            // SAFETY: `events` is a valid writable buffer of 64 entries
            // and maxevents matches its length.
            let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), 64, timeout_ms) };
            if n < 0 {
                if last_errno() == EINTR {
                    return Ok(0);
                }
                return Err(io::Error::last_os_error());
            }
            for ev in events.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct by value.
                let token = ev.data;
                out.push(token);
            }
            Ok(n as usize)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `self.fd` is an fd this struct owns exclusively.
            let _ = unsafe { close(self.fd) };
        }
    }

    /// A kernel event counter (`eventfd`), nonblocking. Registered in an
    /// [`Epoll`] set it becomes a cross-thread "wake the sleeper" doorbell:
    /// [`EventFd::signal`] from any thread makes the fd readable, which
    /// pops the sleeping thread out of `epoll_wait`; the woken side
    /// [`EventFd::drain`]s the counter back to zero.
    #[derive(Debug)]
    pub struct EventFd {
        fd: RawFd,
    }

    impl EventFd {
        /// Creates a nonblocking eventfd.
        pub fn new() -> io::Result<EventFd> {
            // SAFETY: plain flag arguments; returns a new fd or -1.
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EventFd { fd })
        }

        /// The raw fd, for epoll registration.
        pub fn raw_fd(&self) -> RawFd {
            self.fd
        }

        /// Increments the counter, making the fd readable. Callable from
        /// any thread; a full counter (`EAGAIN`) already means "signaled"
        /// and is not an error.
        pub fn signal(&self) {
            let one: u64 = 1;
            // SAFETY: writes exactly 8 bytes from a live stack value,
            // the only width eventfd accepts.
            let _ = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        /// Resets the counter to zero (consumes all pending signals).
        pub fn drain(&self) {
            let mut buf: u64 = 0;
            loop {
                // SAFETY: reads exactly 8 bytes into a live stack value.
                let n = unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
                if n == 8 {
                    continue; // counter was nonzero; check for a race
                }
                if n < 0 && last_errno() == EINTR {
                    continue;
                }
                break; // EAGAIN (drained) or any other condition
            }
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            // SAFETY: `self.fd` is an fd this struct owns exclusively.
            let _ = unsafe { close(self.fd) };
        }
    }

    /// Binds a UDP socket to `addr` with `SO_REUSEPORT`, so several
    /// sockets (one per worker shard) can share the address. IPv4 only —
    /// everything this workspace binds is `127.0.0.1`/`0.0.0.0`.
    pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
        let SocketAddr::V4(v4) = addr else {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "bind_reuseport: IPv4 addresses only",
            ));
        };
        // SAFETY: plain arguments; returns a new fd or -1.
        let fd = unsafe { socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // From here on the fd must be closed on every error path; wrap
        // it immediately so drop handles that.
        // SAFETY: `fd` is a fresh, owned datagram socket.
        let sock = unsafe { UdpSocket::from_raw_fd(fd) };
        let on: i32 = 1;
        // SAFETY: passes a 4-byte option value the kernel copies.
        let rc = unsafe { setsockopt(sock.as_raw_fd(), SOL_SOCKET, SO_REUSEPORT, &on, 4) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let sa = SockAddrIn {
            family: AF_INET as u16,
            port_be: v4.port().to_be(),
            addr_be: u32::from_ne_bytes(v4.ip().octets()),
            zero: [0; 8],
        };
        // SAFETY: `sa` is a properly initialized sockaddr_in and the
        // length matches its size.
        let rc = unsafe { bind(sock.as_raw_fd(), &sa, std::mem::size_of::<SockAddrIn>() as u32) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(sock)
    }

    /// Requests a `bytes`-sized kernel receive buffer (`SO_RCVBUF`) and
    /// returns the size granted. The kernel caps the request at
    /// `net.core.rmem_max` and doubles what it keeps (the extra half
    /// covers its bookkeeping); the value returned is halved back into
    /// the units of the request, so `granted < bytes` means the cap bit.
    pub fn set_rcvbuf(sock: &UdpSocket, bytes: usize) -> io::Result<usize> {
        let want = i32::try_from(bytes).unwrap_or(i32::MAX);
        // SAFETY: passes a 4-byte option value the kernel copies.
        let rc = unsafe { setsockopt(sock.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, &want, 4) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        let mut got: i32 = 0;
        let mut len: u32 = 4;
        // SAFETY: `got` and `len` are live stack values; `len` tells the
        // kernel the buffer holds 4 bytes.
        let rc = unsafe { getsockopt(sock.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, &mut got, &mut len) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(usize::try_from(got).unwrap_or(0) / 2)
    }

    // EAGAIN is referenced for documentation symmetry with drain().
    const _: i32 = EAGAIN;
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::*;
    use std::net::SocketAddr;

    fn unsupported() -> io::Error {
        io::Error::new(io::ErrorKind::Unsupported, "epoll is Linux-only")
    }

    /// Stub: epoll is unavailable off Linux; callers fall back to the
    /// adaptive re-poll timer bridge.
    #[derive(Debug)]
    pub struct Epoll {}

    impl Epoll {
        /// Always fails off Linux.
        pub fn new() -> io::Result<Epoll> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn add(&self, _fd: i32, _token: u64) -> io::Result<()> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn del(&self, _fd: i32) {}

        /// Unreachable (no instance can exist).
        pub fn wait(&self, _timeout: Option<Duration>, _out: &mut Vec<u64>) -> io::Result<usize> {
            Err(unsupported())
        }
    }

    /// Stub eventfd; always fails to construct off Linux.
    #[derive(Debug)]
    pub struct EventFd {}

    impl EventFd {
        /// Always fails off Linux.
        pub fn new() -> io::Result<EventFd> {
            Err(unsupported())
        }

        /// Unreachable (no instance can exist).
        pub fn raw_fd(&self) -> i32 {
            -1
        }

        /// Unreachable (no instance can exist).
        pub fn signal(&self) {}

        /// Unreachable (no instance can exist).
        pub fn drain(&self) {}
    }

    /// Off Linux: a plain bind (no port sharing — multi-worker shards on
    /// one address are a Linux deployment feature).
    pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
        UdpSocket::bind(addr)
    }

    /// Off Linux the receive buffer keeps the platform default.
    pub fn set_rcvbuf(_sock: &UdpSocket, _bytes: usize) -> io::Result<usize> {
        Err(unsupported())
    }
}

pub use imp::{bind_reuseport, set_rcvbuf, Epoll, EventFd};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_udp_readability() {
        let a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
        let b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
        let ep = Epoll::new().expect("epoll");
        ep.add(b.as_raw_fd(), 7).expect("add");

        // Nothing sent yet: a zero timeout returns no events.
        let mut out = Vec::new();
        let n = ep.wait(Some(Duration::ZERO), &mut out).expect("wait");
        assert_eq!(n, 0);

        a.send_to(b"ping", b.local_addr().expect("addr")).expect("send");
        let n = ep.wait(Some(Duration::from_secs(2)), &mut out).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn eventfd_signals_through_epoll_across_threads() {
        let efd = std::sync::Arc::new(EventFd::new().expect("eventfd"));
        let ep = Epoll::new().expect("epoll");
        ep.add(efd.raw_fd(), 42).expect("add");

        let efd2 = efd.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            efd2.signal();
        });
        let mut out = Vec::new();
        let n = ep.wait(Some(Duration::from_secs(2)), &mut out).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(out, vec![42]);
        efd.drain();
        // Drained: an immediate re-wait sees nothing.
        out.clear();
        let n = ep.wait(Some(Duration::ZERO), &mut out).expect("wait");
        assert_eq!(n, 0);
        t.join().expect("signaler");
    }

    #[test]
    fn reuseport_allows_two_binds_on_one_port() {
        let first = bind_reuseport("127.0.0.1:0".parse().expect("addr")).expect("first");
        let addr = first.local_addr().expect("addr");
        let second = bind_reuseport(addr).expect("second bind on same port");
        assert_eq!(second.local_addr().expect("addr").port(), addr.port());
    }

    #[test]
    fn rcvbuf_grant_is_read_back() {
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        // The kernel floors tiny requests (SOCK_MIN_RCVBUF) and caps
        // large ones at rmem_max; either way a grant is reported.
        let small = set_rcvbuf(&sock, 64 * 1024).expect("set small");
        assert!(small > 0 && small <= 64 * 1024, "granted {small}");
        let big = set_rcvbuf(&sock, 4 << 20).expect("set big");
        assert!(big >= small, "a larger request never shrinks the grant: {small} -> {big}");
    }
}
