//! The datagram codec: a versioned, checksummed frame around protocol
//! and runtime-control payloads.
//!
//! Every UDP datagram (and every simulated transmission) carries exactly
//! one frame:
//!
//! ```text
//! magic(2) version(1) flags(1) sender(1) session(8) seq(4) len(4)
//! payload(len) crc32(4)
//! ```
//!
//! Multi-byte fields are big-endian. `session` routes the frame to one
//! of the concurrently multiplexed group sessions; `seq` numbers frames
//! per sender (acked when [`FLAG_RELIABLE`] is set). The payload is
//! either a protocol [`Message`] in its existing `wire` encoding
//! ([`NetPayload::Proto`]) or one of the runtime-control messages that
//! real packet I/O needs and the omniscient simulator never did
//! (start barrier, acks, completion signals).
//!
//! Decoding is fuzz-resistant: any truncated, oversized, corrupt, or
//! unknown input yields a [`FrameError`], never a panic — the UDP port
//! is an open attack surface. The property tests in
//! `crates/net/tests/` fuzz this decoder with random and mutated bytes.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use thinair_core::wire::{Message, WireError};

/// First two bytes of every frame: "tA".
pub const MAGIC: u16 = 0x7441;

/// Current codec version.
pub const VERSION: u8 = 1;

/// Flag bit: receiver must acknowledge this frame by `(sender, seq)`.
pub const FLAG_RELIABLE: u8 = 0x01;

/// Hard cap on the payload length field (also bounds decode memory).
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// Fixed header length in bytes (before the payload).
pub const HEADER_LEN: usize = 2 + 1 + 1 + 1 + 8 + 4 + 4;

/// Trailing checksum length in bytes.
pub const TRAILER_LEN: usize = 4;

/// Runtime-level frame payloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetPayload {
    /// A protocol message in its `thinair_core::wire` encoding.
    Proto(Message),
    /// Acknowledges the sender's reliable frame `seq`.
    Ack {
        /// Sequence number being acknowledged.
        seq: u32,
    },
    /// Coordinator → terminals: the session is starting. Carries a
    /// digest of the session configuration so misconfigured nodes fail
    /// fast instead of deriving garbage.
    Start {
        /// [`crate::session::SessionConfig::digest`] of the
        /// coordinator's configuration.
        digest: u64,
    },
    /// Terminal → coordinator: this terminal has derived its secret.
    Done,
    /// Coordinator → terminals: every terminal reported `Done`; the
    /// session is complete.
    Fin,
    /// Daemon → coordinator: the `Start` was seen but admission was
    /// refused (registry at or near capacity). The coordinator should
    /// pause the start barrier for `retry_after_ms` instead of
    /// retransmitting blind — explicit backpressure replacing the old
    /// silent drop.
    Busy {
        /// Suggested re-admission delay, scaled to the daemon's load.
        retry_after_ms: u32,
    },
}

const PTAG_PROTO: u8 = 0x01;
const PTAG_ACK: u8 = 0x02;
const PTAG_START: u8 = 0x03;
const PTAG_DONE: u8 = 0x04;
const PTAG_FIN: u8 = 0x05;
const PTAG_BUSY: u8 = 0x06;

/// One framed datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// [`FLAG_RELIABLE`] et al.
    pub flags: u8,
    /// Node id of the sender (dense, `0..n`).
    pub sender: u8,
    /// Session the frame belongs to.
    pub session: u64,
    /// Per-sender sequence number.
    pub seq: u32,
    /// The payload.
    pub payload: NetPayload,
}

/// Frame decoding failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Input shorter than the declared or minimal length.
    Truncated,
    /// First two bytes are not [`MAGIC`].
    BadMagic,
    /// Unsupported codec version.
    BadVersion(u8),
    /// Payload length field exceeds [`MAX_PAYLOAD`] or the datagram.
    BadLength,
    /// Checksum mismatch (corrupt datagram).
    BadChecksum,
    /// Unknown payload tag.
    UnknownPayload(u8),
    /// The inner protocol message failed to parse.
    Wire(WireError),
    /// Trailing bytes after a structurally complete frame.
    TrailingBytes,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadLength => write!(f, "frame length field inconsistent"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::UnknownPayload(t) => write!(f, "unknown payload tag {t:#04x}"),
            FrameError::Wire(e) => write!(f, "inner message: {e}"),
            FrameError::TrailingBytes => write!(f, "trailing bytes after frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), slicing by
/// eight: each step folds eight input bytes through eight 256-entry
/// tables built at compile time, instead of one byte through one table.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][lo as u8 as usize]
            ^ t[6][(lo >> 8) as u8 as usize]
            ^ t[5][(lo >> 16) as u8 as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][(crc as u8 ^ b) as usize] ^ (crc >> 8);
    }
    !crc
}

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][b]` is
/// `CRC_TABLES[0][b]` advanced through `k` more zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

impl NetPayload {
    /// A short human label for traces and counterexample rendering:
    /// the payload kind, with `Proto` resolved to its inner message
    /// variant (`"ReceptionReport"`, `"PlanAnnounce"`, ...).
    pub fn kind_name(&self) -> &'static str {
        match self {
            NetPayload::Proto(msg) => match msg {
                Message::XPacket { .. } => "XPacket",
                Message::ReceptionReport { .. } => "ReceptionReport",
                Message::YAnnounce { .. } => "YAnnounce",
                Message::ZPacket { .. } => "ZPacket",
                Message::SAnnounce { .. } => "SAnnounce",
                Message::PadDelivery { .. } => "PadDelivery",
                Message::PlanAnnounce { .. } => "PlanAnnounce",
                Message::Authenticated { .. } => "Authenticated",
            },
            NetPayload::Ack { .. } => "Ack",
            NetPayload::Start { .. } => "Start",
            NetPayload::Done => "Done",
            NetPayload::Fin => "Fin",
            NetPayload::Busy { .. } => "Busy",
        }
    }

    fn encode_into(&self, b: &mut BytesMut) {
        match self {
            NetPayload::Proto(msg) => {
                b.put_u8(PTAG_PROTO);
                b.put_slice(&msg.encode());
            }
            NetPayload::Ack { seq } => {
                b.put_u8(PTAG_ACK);
                b.put_u32(*seq);
            }
            NetPayload::Start { digest } => {
                b.put_u8(PTAG_START);
                b.put_u64(*digest);
            }
            NetPayload::Done => b.put_u8(PTAG_DONE),
            NetPayload::Fin => b.put_u8(PTAG_FIN),
            NetPayload::Busy { retry_after_ms } => {
                b.put_u8(PTAG_BUSY);
                b.put_u32(*retry_after_ms);
            }
        }
    }

    fn decode(mut buf: &[u8]) -> Result<NetPayload, FrameError> {
        if buf.remaining() < 1 {
            return Err(FrameError::Truncated);
        }
        let tag = buf.get_u8();
        match tag {
            PTAG_PROTO => Ok(NetPayload::Proto(Message::decode(buf)?)),
            PTAG_ACK => {
                if buf.remaining() < 4 {
                    return Err(FrameError::Truncated);
                }
                Ok(NetPayload::Ack { seq: buf.get_u32() })
            }
            PTAG_START => {
                if buf.remaining() < 8 {
                    return Err(FrameError::Truncated);
                }
                Ok(NetPayload::Start { digest: buf.get_u64() })
            }
            PTAG_DONE => Ok(NetPayload::Done),
            PTAG_FIN => Ok(NetPayload::Fin),
            PTAG_BUSY => {
                if buf.remaining() < 4 {
                    return Err(FrameError::Truncated);
                }
                Ok(NetPayload::Busy { retry_after_ms: buf.get_u32() })
            }
            other => Err(FrameError::UnknownPayload(other)),
        }
    }
}

impl Frame {
    /// Serializes the frame into one datagram. Returns the buffer
    /// directly (no trailing copy): `Bytes` derefs to `&[u8]` wherever a
    /// byte slice is needed.
    pub fn encode(&self) -> Bytes {
        let mut payload = BytesMut::new();
        self.payload.encode_into(&mut payload);
        debug_assert!(payload.len() <= MAX_PAYLOAD, "payload over MAX_PAYLOAD");
        let mut b = BytesMut::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
        b.put_u16(MAGIC);
        b.put_u8(VERSION);
        b.put_u8(self.flags);
        b.put_u8(self.sender);
        b.put_u64(self.session);
        b.put_u32(self.seq);
        b.put_u32(payload.len() as u32);
        b.put_slice(&payload);
        let crc = crc32(&b);
        b.put_u32(crc);
        b.freeze()
    }

    /// Size of the encoded frame in bits (for air-time accounting in the
    /// simulated transport).
    pub fn bits(&self) -> u64 {
        (self.encode().len() * 8) as u64
    }

    /// The transmitted-bit ledger class of this frame: x-packets and
    /// z-combos are data plane, ACKs are ACKs, everything else (start
    /// barrier, reports, plan announcements, done/fin) is control.
    pub fn tx_class(&self) -> thinair_netsim::stats::TxClass {
        use thinair_netsim::stats::TxClass;
        match &self.payload {
            NetPayload::Proto(Message::XPacket { .. })
            | NetPayload::Proto(Message::ZPacket { .. }) => TxClass::Data,
            NetPayload::Ack { .. } => TxClass::Ack,
            _ => TxClass::Control,
        }
    }

    /// Parses one datagram. Never panics on any input.
    pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
        if buf.len() < HEADER_LEN + TRAILER_LEN {
            return Err(FrameError::Truncated);
        }
        let mut cur: &[u8] = buf;
        let magic = cur.get_u16();
        if magic != MAGIC {
            return Err(FrameError::BadMagic);
        }
        let version = cur.get_u8();
        if version != VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let flags = cur.get_u8();
        let sender = cur.get_u8();
        let session = cur.get_u64();
        let seq = cur.get_u32();
        let len = cur.get_u32() as usize;
        if len > MAX_PAYLOAD {
            return Err(FrameError::BadLength);
        }
        match buf.len().cmp(&(HEADER_LEN + len + TRAILER_LEN)) {
            std::cmp::Ordering::Less => return Err(FrameError::Truncated),
            std::cmp::Ordering::Greater => return Err(FrameError::TrailingBytes),
            std::cmp::Ordering::Equal => {}
        }
        let body = &buf[..HEADER_LEN + len];
        let declared = u32::from_be_bytes(
            buf[HEADER_LEN + len..HEADER_LEN + len + 4].try_into().expect("4 bytes"),
        );
        if crc32(body) != declared {
            return Err(FrameError::BadChecksum);
        }
        let payload = NetPayload::decode(&cur[..len])?;
        Ok(Frame { flags, sender, session, seq, payload })
    }

    /// Whether the receiver must acknowledge this frame.
    pub fn reliable(&self) -> bool {
        self.flags & FLAG_RELIABLE != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame {
                flags: 0,
                sender: 2,
                session: 77,
                seq: 9,
                payload: NetPayload::Proto(Message::XPacket {
                    id: 3,
                    owner: 2,
                    payload: vec![1, 2, 3],
                }),
            },
            Frame {
                flags: FLAG_RELIABLE,
                sender: 0,
                session: u64::MAX,
                seq: u32::MAX,
                payload: NetPayload::Start { digest: 0xDEAD_BEEF_CAFE_F00D },
            },
            Frame { flags: 0, sender: 1, session: 0, seq: 0, payload: NetPayload::Ack { seq: 4 } },
            Frame {
                flags: FLAG_RELIABLE,
                sender: 3,
                session: 5,
                seq: 1,
                payload: NetPayload::Done,
            },
            Frame { flags: FLAG_RELIABLE, sender: 0, session: 5, seq: 2, payload: NetPayload::Fin },
            Frame {
                flags: 0,
                sender: 1,
                session: 5,
                seq: 0,
                payload: NetPayload::Busy { retry_after_ms: 250 },
            },
        ]
    }

    #[test]
    fn round_trip_all_payload_kinds() {
        for f in sample_frames() {
            let enc = f.encode();
            assert_eq!(Frame::decode(&enc).unwrap(), f, "frame {f:?}");
            assert_eq!(f.bits(), (enc.len() * 8) as u64);
        }
    }

    #[test]
    fn truncations_never_panic() {
        for f in sample_frames() {
            let enc = f.encode();
            for cut in 0..enc.len() {
                assert!(Frame::decode(&enc[..cut]).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn single_byte_corruption_is_detected() {
        let f = &sample_frames()[0];
        let enc = f.encode();
        for i in 0..enc.len() {
            let mut bad = enc.to_vec();
            bad[i] ^= 0x40;
            // Either an error, or (impossible for CRC-protected frames)
            // the identical frame back.
            match Frame::decode(&bad) {
                Err(_) => {}
                Ok(g) => assert_eq!(&g, f, "corruption at byte {i} silently accepted"),
            }
        }
    }

    #[test]
    fn rejects_wrong_magic_version_and_trailing() {
        let f = &sample_frames()[2];
        let enc = f.encode();
        let mut wrong_magic = enc.to_vec();
        wrong_magic[0] = 0;
        assert_eq!(Frame::decode(&wrong_magic), Err(FrameError::BadMagic));
        let mut wrong_ver = enc.to_vec();
        wrong_ver[2] = 9;
        assert_eq!(Frame::decode(&wrong_ver), Err(FrameError::BadVersion(9)));
        let mut trailing = enc.to_vec();
        trailing.push(0);
        assert_eq!(Frame::decode(&trailing), Err(FrameError::TrailingBytes));
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" -> 0xCBF43926 (the standard check value).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The textbook one-bit-at-a-time CRC-32, the reference the sliced
    /// implementation must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_unaligned_offsets() {
        let buf: Vec<u8> =
            (0..4103 + 8).map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let lens = (0..=64).chain([255, 4096, 4103]);
        for len in lens {
            for off in 0..8 {
                let data = &buf[off..off + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "len {len} offset {off}");
            }
        }
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }
}
