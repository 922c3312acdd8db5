//! Nonblocking UDP for the polling runtime.
//!
//! Every socket asks the kernel for a 4 MiB (`RCVBUF_BYTES`) receive
//! buffer at bind time. A datagram that arrives while the buffer is full is
//! dropped by the kernel, and to the protocol that drop looks exactly
//! like a channel erasure: it would be counted as a packet Eve probably
//! missed too. `kernel_drops` reads those drops back from
//! `/proc/self/net/udp` so they stay visible.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};

/// The kernel receive buffer every socket requests: room for several
/// sessions' x bursts (one is 128 × 4 KiB per daemon in the bulk
/// workload) while the serve thread is busy. The kernel caps the
/// request at `net.core.rmem_max`.
pub(crate) const RCVBUF_BYTES: usize = 4 << 20;

/// A nonblocking UDP socket usable from [`crate::rt`] tasks.
#[derive(Debug)]
pub struct AsyncUdpSocket {
    inner: UdpSocket,
    rcvbuf: usize,
}

impl AsyncUdpSocket {
    /// Binds, sizes the receive buffer and switches the socket to
    /// nonblocking mode.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::wrap(UdpSocket::bind(addr)?)
    }

    /// Binds with `SO_REUSEPORT` (see [`crate::sys::bind_reuseport`]):
    /// several sockets — one per worker shard — share one address, all
    /// sending with the same source address so roster validation on the
    /// remote side is indifferent to which shard sent a frame.
    pub fn bind_reuseport(addr: SocketAddr) -> io::Result<Self> {
        Self::wrap(crate::sys::bind_reuseport(addr)?)
    }

    fn wrap(inner: UdpSocket) -> io::Result<Self> {
        let rcvbuf = match crate::sys::set_rcvbuf(&inner, RCVBUF_BYTES) {
            Ok(granted) => {
                warn_if_capped(granted);
                granted
            }
            // Off Linux: the platform default, size unknown.
            Err(e) if e.kind() == io::ErrorKind::Unsupported => 0,
            Err(e) => return Err(e),
        };
        inner.set_nonblocking(true)?;
        Ok(AsyncUdpSocket { inner, rcvbuf })
    }

    /// The receive-buffer size the kernel granted at bind time (0 where
    /// the platform does not say).
    pub(crate) fn rcvbuf_bytes(&self) -> usize {
        self.rcvbuf
    }

    /// The socket's inode, the key of its row in `/proc/self/net/udp`
    /// (`None` where `/proc` is unavailable).
    pub(crate) fn inode(&self) -> Option<u64> {
        let link = std::fs::read_link(format!("/proc/self/fd/{}", self.raw_fd())).ok()?;
        let link = link.to_str()?;
        link.strip_prefix("socket:[")?.strip_suffix(']')?.parse().ok()
    }

    /// The raw fd, for reactor registration
    /// ([`crate::rt::register_fd_readable`]).
    #[cfg(unix)]
    pub fn raw_fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.inner.as_raw_fd()
    }

    /// Non-unix: no usable fd (`-1` makes reactor registration fail
    /// harmlessly into the timer fallback).
    #[cfg(not(unix))]
    pub fn raw_fd(&self) -> i32 {
        -1
    }

    /// The bound local address (with the OS-assigned port when bound to
    /// port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Sends one datagram. UDP sends don't meaningfully block; a full
    /// socket buffer drops the datagram (reported as `Ok(0)`), which
    /// the retransmission layer absorbs like any other loss —
    /// [`crate::transport::UdpTransport`] counts both that and outright
    /// send errors into its send-error ledger so they never vanish.
    pub fn send_to(&self, buf: &[u8], addr: SocketAddr) -> io::Result<usize> {
        match self.inner.send_to(buf, addr) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
            other => other,
        }
    }

    /// Non-blocking receive: `Ok(None)` when no datagram is queued.
    pub fn try_recv_from(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>> {
        match self.inner.recv_from(buf) {
            Ok(v) => Ok(Some(v)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            // Linux reports ICMP port-unreachable from a previous send
            // as ECONNREFUSED on the next receive; that's not fatal for
            // a broadcast protocol — treat as "nothing received".
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Warns once per process on stderr when the kernel granted less
/// receive buffer than [`RCVBUF_BYTES`].
fn warn_if_capped(granted: usize) {
    static WARNED: AtomicBool = AtomicBool::new(false);
    if granted < RCVBUF_BYTES && !WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "thinair: UDP receive buffer capped at {granted} B (requested {RCVBUF_BYTES} B); \
             bursts may overflow it and read as channel erasures. Raise the cap with \
             `sysctl -w net.core.rmem_max={RCVBUF_BYTES}`"
        );
    }
}

/// Kernel receive drops of the sockets with the given inodes, summed:
/// the `drops` column of their rows in `/proc/self/net/udp` and
/// `/proc/self/net/udp6`. Sockets without a row (closed, or no `/proc`)
/// add nothing. Reads the tables once; meant for snapshot time, never
/// per packet.
pub(crate) fn kernel_drops(inodes: &[u64]) -> u64 {
    if inodes.is_empty() {
        return 0;
    }
    let mut table = BTreeMap::new();
    for path in ["/proc/self/net/udp", "/proc/self/net/udp6"] {
        if let Ok(text) = std::fs::read_to_string(path) {
            parse_drops(&text, &mut table);
        }
    }
    inodes.iter().filter_map(|i| table.get(i)).sum()
}

/// Collects `inode -> drops` from one `/proc/net/udp`-format table.
/// The header's `tx_queue rx_queue` and `tr tm->when` each name one
/// data column, so the inode is the tenth field and drops the last.
fn parse_drops(text: &str, into: &mut BTreeMap<u64, u64>) {
    for line in text.lines().skip(1) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 13 {
            continue;
        }
        if let (Ok(inode), Ok(drops)) = (fields[9].parse(), fields[12].parse()) {
            into.insert(inode, drops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_proc_udp_table() {
        let text = "   sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops\n\
            \x20 1: 0100007F:A1B2 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 4242 2 0000000000000000 17\n\
            \x20 2: 0100007F:A1B3 00000000:0000 07 00000000:00001000 00:00000000 00000000     0        0 4243 2 0000000000000000 0\n\
            garbage\n";
        let mut table = BTreeMap::new();
        parse_drops(text, &mut table);
        assert_eq!(table.get(&4242), Some(&17));
        assert_eq!(table.get(&4243), Some(&0));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn a_live_socket_has_a_row_and_a_buffer() {
        let s = AsyncUdpSocket::bind("127.0.0.1:0").unwrap();
        if cfg!(target_os = "linux") {
            assert!(s.rcvbuf_bytes() > 0);
            let inode = s.inode().expect("socket inode via /proc");
            assert_eq!(kernel_drops(&[inode]), 0, "a fresh socket has dropped nothing");
        }
    }

    /// One session's x burst on the bulk workload — 128 datagrams of
    /// 4 KiB — sent to a socket nobody reads must all be queued, not
    /// dropped by the kernel.
    #[test]
    fn burst_of_128_4k_datagrams_is_not_dropped() {
        const N: usize = 128;
        const LEN: usize = 4096;
        let rx = AsyncUdpSocket::bind("127.0.0.1:0").unwrap();
        // Each queued datagram costs its buffer plus the kernel's
        // per-packet overhead; below this grant the burst cannot fit
        // and the check says nothing about this code.
        let need = N * (LEN + 1024);
        if rx.rcvbuf_bytes() < need {
            eprintln!(
                "skipped: kernel granted a {} B receive buffer, the burst needs {need} B \
                 (net.core.rmem_max too small)",
                rx.rcvbuf_bytes()
            );
            return;
        }
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let to = rx.local_addr().unwrap();
        let payload = vec![0xA5u8; LEN];
        for _ in 0..N {
            assert_eq!(tx.send_to(&payload, to).unwrap(), LEN);
        }
        let mut buf = vec![0u8; LEN + 1];
        let mut got = 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while got < N && std::time::Instant::now() < deadline {
            match rx.try_recv_from(&mut buf).unwrap() {
                Some((n, _)) => {
                    assert_eq!(n, LEN);
                    got += 1;
                }
                None => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        assert_eq!(got, N, "kernel dropped {} of {N} datagrams", N - got);
    }

    #[test]
    fn loopback_datagram_round_trip() {
        let a = AsyncUdpSocket::bind("127.0.0.1:0").unwrap();
        let b = AsyncUdpSocket::bind("127.0.0.1:0").unwrap();
        let b_addr = b.local_addr().unwrap();
        a.send_to(b"hello", b_addr).unwrap();
        let mut buf = [0u8; 16];
        // Poll until delivery (loopback is effectively instant).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            if let Some((n, from)) = b.try_recv_from(&mut buf).unwrap() {
                assert_eq!(&buf[..n], b"hello");
                assert_eq!(from, a.local_addr().unwrap());
                break;
            }
            assert!(std::time::Instant::now() < deadline, "datagram never arrived");
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    #[test]
    fn empty_queue_reports_none() {
        let s = AsyncUdpSocket::bind("127.0.0.1:0").unwrap();
        let mut buf = [0u8; 8];
        assert!(s.try_recv_from(&mut buf).unwrap().is_none());
    }
}
