//! Wire format: what the transfer layer actually puts on a NIC.
//!
//! Every wire packet is a container of one or more *entries*; aggregation
//! (the optimization layer coalescing several small messages into one
//! packet) is therefore free at the format level — an aggregated packet is
//! just a container with `count > 1`. Every container travels inside a
//! *frame*, in one of two formats chosen by the lane, never by a flag:
//!
//! ```text
//! sealed  := crc:u32 wseq:u32 ack:u32 flags:u8 [span:u64] packet
//! bare    := flags:u8 [span:u64] packet
//! packet  := count:u16 entry*
//! entry   := kind:u8 tag:u64 seq:u32 aux:u32 len:u32 payload[len]
//! ```
//!
//! **Sealed frames belong to the reliability layer**: within `nm-core`
//! only `reliability.rs` calls [`encode_frame`], [`decode_frame`] and
//! the one-pass sealed encoder, and only they run [`crc32`]. `crc` is a
//! CRC-32 (IEEE) over everything after itself; a
//! frame whose checksum does not match is dropped before any entry is
//! decoded ([`WireError::BadChecksum`]). `wseq`/`ack` are the per-wire
//! send sequence number and cumulative acknowledgement, live because
//! [`FRAME_RELIABLE`] is set. [`FRAME_ACK_ONLY`] marks a bare
//! acknowledgement with no packet; it is not sequenced, and its `wseq`
//! field instead reports how many frames the receiver holds out of order
//! behind the hole at `ack` (0 when the stream is in order), which lets
//! the sender resend the hole at once.
//!
//! **Bare frames belong to an unreliable lane** ([`encode_bare_frame`],
//! [`decode_bare_frame`]): one flags byte and the packet, no checksum,
//! no sequencing. Like MX or InfiniBand, the lane trusts its wire to
//! deliver bytes intact; a core without reliability refuses a driver
//! that says it may damage a frame. The only flag a bare frame carries
//! is [`FRAME_SPAN`].
//!
//! In both formats [`FRAME_SPAN`] marks an 8-byte observability span id
//! between the flags byte and the packet; frames with span 0 omit it
//! entirely, so unrecorded runs pay zero wire bytes.
//!
//! Entry kinds:
//!
//! * `EAGER` — a complete small message; `len` bytes of payload.
//! * `RTS`   — rendezvous request-to-send; `aux` = total message length.
//! * `CTS`   — clear-to-send, echoing the RTS `tag`/`seq`.
//! * `DATA`  — one rendezvous chunk; `aux` = offset into the message.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Per-entry header size in bytes.
pub const ENTRY_HEADER: usize = 1 + 8 + 4 + 4 + 4;
/// Container header size in bytes.
pub const PACKET_HEADER: usize = 2;
/// Sealed frame header size in bytes (crc + wseq + ack + flags). Packet
/// budgets reserve it on every lane, so both frame formats arrange
/// identical packets.
pub const FRAME_HEADER: usize = 4 + 4 + 4 + 1;
/// Bare frame header size in bytes (flags).
const BARE_HEADER: usize = 1;
/// Extra frame bytes when [`FRAME_SPAN`] is set (the span id).
pub const FRAME_SPAN_BYTES: usize = 8;

/// Frame flag: `wseq`/`ack` are live reliability-protocol fields.
pub const FRAME_RELIABLE: u8 = 1 << 0;
/// Frame flag: bare acknowledgement, carries no packet.
pub const FRAME_ACK_ONLY: u8 = 1 << 1;
/// Frame flag: a `u64` observability span id follows the flags byte.
pub const FRAME_SPAN: u8 = 1 << 2;
const FRAME_FLAG_MASK: u8 = FRAME_RELIABLE | FRAME_ACK_ONLY | FRAME_SPAN;

/// One logical unit inside a wire packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A complete eager message.
    Eager {
        /// Message tag.
        tag: u64,
        /// Per-gate message sequence number.
        seq: u32,
        /// Payload.
        data: Bytes,
    },
    /// Rendezvous handshake: request to send `total` bytes.
    Rts {
        /// Message tag.
        tag: u64,
        /// Rendezvous id (the sender's sequence number).
        seq: u32,
        /// Total message length.
        total: u32,
    },
    /// Rendezvous handshake: receiver is ready.
    Cts {
        /// Echoed tag.
        tag: u64,
        /// Echoed rendezvous id.
        seq: u32,
    },
    /// One chunk of a rendezvous transfer.
    Data {
        /// Message tag.
        tag: u64,
        /// Rendezvous id.
        seq: u32,
        /// Offset of this chunk in the full message.
        offset: u32,
        /// Chunk payload.
        data: Bytes,
    },
}

const KIND_EAGER: u8 = 1;
const KIND_RTS: u8 = 2;
const KIND_CTS: u8 = 3;
const KIND_DATA: u8 = 4;

impl Entry {
    /// Encoded size of this entry on the wire.
    pub fn wire_size(&self) -> usize {
        ENTRY_HEADER
            + match self {
                Entry::Eager { data, .. } | Entry::Data { data, .. } => data.len(),
                _ => 0,
            }
    }

    /// Payload length carried (0 for control entries).
    pub fn payload_len(&self) -> usize {
        match self {
            Entry::Eager { data, .. } | Entry::Data { data, .. } => data.len(),
            _ => 0,
        }
    }

    fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Entry::Eager { tag, seq, data } => {
                buf.put_u8(KIND_EAGER);
                buf.put_u64(*tag);
                buf.put_u32(*seq);
                buf.put_u32(0);
                buf.put_u32(data.len() as u32);
                buf.put_slice(data);
            }
            Entry::Rts { tag, seq, total } => {
                buf.put_u8(KIND_RTS);
                buf.put_u64(*tag);
                buf.put_u32(*seq);
                buf.put_u32(*total);
                buf.put_u32(0);
            }
            Entry::Cts { tag, seq } => {
                buf.put_u8(KIND_CTS);
                buf.put_u64(*tag);
                buf.put_u32(*seq);
                buf.put_u32(0);
                buf.put_u32(0);
            }
            Entry::Data {
                tag,
                seq,
                offset,
                data,
            } => {
                buf.put_u8(KIND_DATA);
                buf.put_u64(*tag);
                buf.put_u32(*seq);
                buf.put_u32(*offset);
                buf.put_u32(data.len() as u32);
                buf.put_slice(data);
            }
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Entry, WireError> {
        if buf.remaining() < ENTRY_HEADER {
            return Err(WireError::Truncated);
        }
        let kind = buf.get_u8();
        let tag = buf.get_u64();
        let seq = buf.get_u32();
        let aux = buf.get_u32();
        let len = buf.get_u32() as usize;
        match kind {
            KIND_EAGER | KIND_DATA => {
                if buf.remaining() < len {
                    return Err(WireError::Truncated);
                }
                let data = buf.split_to(len);
                Ok(if kind == KIND_EAGER {
                    Entry::Eager { tag, seq, data }
                } else {
                    Entry::Data {
                        tag,
                        seq,
                        offset: aux,
                        data,
                    }
                })
            }
            KIND_RTS => {
                if len != 0 {
                    return Err(WireError::Malformed("RTS with payload"));
                }
                Ok(Entry::Rts {
                    tag,
                    seq,
                    total: aux,
                })
            }
            KIND_CTS => {
                if len != 0 {
                    return Err(WireError::Malformed("CTS with payload"));
                }
                Ok(Entry::Cts { tag, seq })
            }
            k => Err(WireError::UnknownKind(k)),
        }
    }
}

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Packet shorter than its headers claim.
    Truncated,
    /// Unknown entry kind byte.
    UnknownKind(u8),
    /// Structurally invalid entry.
    Malformed(&'static str),
    /// Frame checksum mismatch (corrupted in transit).
    BadChecksum {
        /// CRC the frame header claims.
        expected: u32,
        /// CRC computed over the received body.
        got: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::UnknownKind(k) => write!(f, "unknown entry kind {k}"),
            WireError::Malformed(why) => write!(f, "malformed packet: {why}"),
            WireError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: expected {expected:#010x}, got {got:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Slicing tables for [`crc32`], built at compile time. `T[0]` is the
/// classic byte-at-a-time table; `T[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight lookups advance the register
/// over eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB88320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), slicing-by-8.
///
/// Computed in portable software so the integrity layer has no
/// dependencies and one code path on every target; eight bytes per
/// step, the tail byte by byte.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(8);
    for c in &mut blocks {
        let a = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let b = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(a & 0xFF) as usize]
            ^ t[6][((a >> 8) & 0xFF) as usize]
            ^ t[5][((a >> 16) & 0xFF) as usize]
            ^ t[4][(a >> 24) as usize]
            ^ t[3][(b & 0xFF) as usize]
            ^ t[2][((b >> 8) & 0xFF) as usize]
            ^ t[1][((b >> 16) & 0xFF) as usize]
            ^ t[0][(b >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// A decoded frame header plus its (still encoded) packet payload. A
/// bare frame decodes with `wseq` and `ack` 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Per-wire send sequence number (live iff [`FRAME_RELIABLE`]).
    ///
    /// An ack-only frame is not sequenced; there the field is the
    /// receiver's gap report: the number of frames it holds out of order
    /// behind the first missing one, `ack`. It is 0 whenever nothing is
    /// missing, so the acks of a loss-free stream are the bytes they
    /// always were, and a peer that ignores the field still
    /// interoperates — it recovers by its retransmit timer alone.
    pub wseq: u32,
    /// Cumulative ack: all wire sequence numbers `< ack` received.
    pub ack: u32,
    /// Frame flags ([`FRAME_RELIABLE`], [`FRAME_ACK_ONLY`],
    /// [`FRAME_SPAN`]).
    pub flags: u8,
    /// Observability span id of the first message aboard (0 = none).
    pub span: u64,
    /// The contained wire packet (empty for ack-only frames).
    pub payload: Bytes,
}

impl Frame {
    /// Whether `wseq`/`ack` are live reliability-protocol fields.
    pub fn reliable(&self) -> bool {
        self.flags & FRAME_RELIABLE != 0
    }

    /// Whether this is a bare acknowledgement with no packet.
    pub fn ack_only(&self) -> bool {
        self.flags & FRAME_ACK_ONLY != 0
    }
}

/// Bytes the span word of a frame carrying `span` takes (0 = none).
fn span_size(span: u64) -> usize {
    if span != 0 {
        FRAME_SPAN_BYTES
    } else {
        0
    }
}

/// Writes the flags byte and the span word, if any: `span == 0` clears
/// [`FRAME_SPAN`] whatever the caller passed, any other value sets it.
fn put_flags_and_span(buf: &mut BytesMut, flags: u8, span: u64) {
    if span != 0 {
        buf.put_u8(flags | FRAME_SPAN);
        buf.put_u64(span);
    } else {
        buf.put_u8(flags & !FRAME_SPAN);
    }
}

/// Reads the span word `flags` announces (0 when there is none).
fn take_span(frame: &mut Bytes, flags: u8) -> Result<u64, WireError> {
    if flags & FRAME_SPAN == 0 {
        return Ok(0);
    }
    if frame.remaining() < FRAME_SPAN_BYTES {
        return Err(WireError::Truncated);
    }
    Ok(frame.get_u64())
}

/// Size of a sealed frame header carrying `span`.
fn frame_header_size(span: u64) -> usize {
    FRAME_HEADER + span_size(span)
}

/// Writes a sealed frame header with a zero checksum; [`seal`] fills it
/// in once the body is complete.
fn put_frame_header(buf: &mut BytesMut, wseq: u32, ack: u32, flags: u8, span: u64) {
    buf.put_u32(0);
    buf.put_u32(wseq);
    buf.put_u32(ack);
    put_flags_and_span(buf, flags, span);
}

/// Sums everything after the checksum field (the frame's one CRC pass
/// on the send side), stores the checksum, and freezes the frame.
fn seal(mut buf: BytesMut) -> Bytes {
    let crc = crc32(&buf[4..]);
    buf[0..4].copy_from_slice(&crc.to_be_bytes());
    buf.freeze()
}

/// Wraps an encoded packet in a sealed (checksummed) frame.
///
/// `span` is the observability span id of the first message aboard;
/// `0` ("no span", the value whenever no recording is live) clears
/// [`FRAME_SPAN`] and the frame carries no span bytes at all.
pub fn encode_frame(wseq: u32, ack: u32, flags: u8, span: u64, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(frame_header_size(span) + payload.len());
    put_frame_header(&mut buf, wseq, ack, flags, span);
    buf.put_slice(payload);
    seal(buf)
}

/// Frames `entries` in one pass: frame header, packet header and entries
/// are written into one exactly-sized buffer, summed once and frozen.
/// Byte for byte what `encode_frame(.., &encode_packet(entries))`
/// produces, without the intermediate packet.
///
/// # Panics
/// As [`encode_packet`].
pub(crate) fn encode_packet_frame(
    wseq: u32,
    ack: u32,
    flags: u8,
    span: u64,
    entries: &[Entry],
) -> Bytes {
    let size = frame_header_size(span) + packet_size(entries);
    let mut buf = BytesMut::with_capacity(size);
    put_frame_header(&mut buf, wseq, ack, flags, span);
    put_packet(&mut buf, entries);
    debug_assert_eq!(buf.len(), size);
    seal(buf)
}

/// Verifies and strips a sealed frame header.
///
/// A frame that fails the checksum is reported as
/// [`WireError::BadChecksum`] *without* decoding any entry, so corrupted
/// bytes never reach protocol dispatch.
pub fn decode_frame(mut frame: Bytes) -> Result<Frame, WireError> {
    if frame.remaining() < FRAME_HEADER {
        return Err(WireError::Truncated);
    }
    let expected = frame.get_u32();
    let got = crc32(&frame);
    if expected != got {
        return Err(WireError::BadChecksum { expected, got });
    }
    let wseq = frame.get_u32();
    let ack = frame.get_u32();
    let flags = frame.get_u8();
    if flags & !FRAME_FLAG_MASK != 0 {
        return Err(WireError::Malformed("unknown frame flags"));
    }
    let span = take_span(&mut frame, flags)?;
    if flags & FRAME_ACK_ONLY != 0 && frame.has_remaining() {
        return Err(WireError::Malformed("ack-only frame with payload"));
    }
    Ok(Frame {
        wseq,
        ack,
        flags,
        span,
        payload: frame,
    })
}

/// Frames `entries` for an unreliable lane: the flags byte, the span word
/// if `span != 0`, and the packet, written into one exactly-sized buffer
/// and frozen. No checksum is computed.
///
/// # Panics
/// As [`encode_packet`].
pub fn encode_bare_frame(span: u64, entries: &[Entry]) -> Bytes {
    let size = BARE_HEADER + span_size(span) + packet_size(entries);
    let mut buf = BytesMut::with_capacity(size);
    put_flags_and_span(&mut buf, 0, span);
    put_packet(&mut buf, entries);
    debug_assert_eq!(buf.len(), size);
    buf.freeze()
}

/// Strips a bare frame's header; `wseq` and `ack` decode as 0. Nothing
/// is verified but the format: any flag other than [`FRAME_SPAN`] (a
/// sealed frame's [`FRAME_RELIABLE`] or [`FRAME_ACK_ONLY`], or an
/// unknown bit) and a span word cut short are rejected.
pub fn decode_bare_frame(mut frame: Bytes) -> Result<Frame, WireError> {
    if !frame.has_remaining() {
        return Err(WireError::Truncated);
    }
    let flags = frame.get_u8();
    if flags & !FRAME_SPAN != 0 {
        return Err(WireError::Malformed("flags a bare frame cannot carry"));
    }
    let span = take_span(&mut frame, flags)?;
    Ok(Frame {
        wseq: 0,
        ack: 0,
        flags,
        span,
        payload: frame,
    })
}

/// Encoded size of a packet holding `entries`.
fn packet_size(entries: &[Entry]) -> usize {
    PACKET_HEADER + entries.iter().map(Entry::wire_size).sum::<usize>()
}

/// Writes the packet header and every entry.
fn put_packet(buf: &mut BytesMut, entries: &[Entry]) {
    assert!(!entries.is_empty(), "cannot encode an empty packet");
    assert!(entries.len() <= u16::MAX as usize, "too many entries");
    buf.put_u16(entries.len() as u16);
    for e in entries {
        e.encode_into(buf);
    }
}

/// Encodes a container of entries into one wire packet.
///
/// # Panics
/// Panics if `entries` is empty or longer than `u16::MAX`.
pub fn encode_packet(entries: &[Entry]) -> Bytes {
    let size = packet_size(entries);
    let mut buf = BytesMut::with_capacity(size);
    put_packet(&mut buf, entries);
    debug_assert_eq!(buf.len(), size);
    buf.freeze()
}

/// Decodes one wire packet into its entries.
pub fn decode_packet(mut packet: Bytes) -> Result<Vec<Entry>, WireError> {
    if packet.remaining() < PACKET_HEADER {
        return Err(WireError::Truncated);
    }
    let count = packet.get_u16() as usize;
    if count == 0 {
        return Err(WireError::Malformed("empty container"));
    }
    // `count` is the peer's claim: reserve no more than the bytes that
    // actually arrived could hold.
    let mut entries = Vec::with_capacity(count.min(packet.remaining() / ENTRY_HEADER));
    for _ in 0..count {
        entries.push(Entry::decode_from(&mut packet)?);
    }
    if packet.has_remaining() {
        return Err(WireError::Malformed("trailing bytes"));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(entries: Vec<Entry>) {
        let encoded = encode_packet(&entries);
        let decoded = decode_packet(encoded).expect("decode");
        assert_eq!(decoded, entries);
    }

    #[test]
    fn eager_roundtrip() {
        roundtrip(vec![Entry::Eager {
            tag: 7,
            seq: 3,
            data: Bytes::from_static(b"hello"),
        }]);
    }

    #[test]
    fn control_roundtrips() {
        roundtrip(vec![Entry::Rts {
            tag: 1,
            seq: 2,
            total: 1 << 20,
        }]);
        roundtrip(vec![Entry::Cts { tag: 1, seq: 2 }]);
    }

    #[test]
    fn data_chunk_roundtrip() {
        roundtrip(vec![Entry::Data {
            tag: 9,
            seq: 4,
            offset: 4096,
            data: Bytes::from(vec![0xAB; 1000]),
        }]);
    }

    #[test]
    fn aggregated_container_roundtrip() {
        roundtrip(vec![
            Entry::Eager {
                tag: 1,
                seq: 0,
                data: Bytes::from_static(b"a"),
            },
            Entry::Rts {
                tag: 2,
                seq: 1,
                total: 99999,
            },
            Entry::Eager {
                tag: 3,
                seq: 2,
                data: Bytes::from_static(b"bc"),
            },
        ]);
    }

    #[test]
    fn empty_payload_eager_roundtrip() {
        roundtrip(vec![Entry::Eager {
            tag: 0,
            seq: 0,
            data: Bytes::new(),
        }]);
    }

    #[test]
    fn wire_size_matches_encoding() {
        let entries = vec![
            Entry::Eager {
                tag: 1,
                seq: 0,
                data: Bytes::from_static(b"xyz"),
            },
            Entry::Cts { tag: 1, seq: 0 },
        ];
        let expected = PACKET_HEADER + entries.iter().map(Entry::wire_size).sum::<usize>();
        assert_eq!(encode_packet(&entries).len(), expected);
    }

    #[test]
    fn truncated_packets_rejected() {
        let good = encode_packet(&[Entry::Eager {
            tag: 1,
            seq: 0,
            data: Bytes::from_static(b"abcdef"),
        }]);
        for cut in [0, 1, PACKET_HEADER, good.len() - 1] {
            let bad = good.slice(0..cut);
            assert!(
                decode_packet(bad).is_err(),
                "cut at {cut} should fail to decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = BytesMut::from(&encode_packet(&[Entry::Cts { tag: 0, seq: 0 }])[..]);
        bytes.put_u8(0xFF);
        assert_eq!(
            decode_packet(bytes.freeze()),
            Err(WireError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16(1);
        buf.put_u8(0xEE);
        buf.put_u64(0);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u32(0);
        assert_eq!(
            decode_packet(buf.freeze()),
            Err(WireError::UnknownKind(0xEE))
        );
    }

    #[test]
    fn zero_count_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16(0);
        assert!(decode_packet(buf.freeze()).is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414FA339
        );
    }

    /// Bit-at-a-time CRC-32: the definition the table kernel must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB88320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc32_matches_bitwise_for_every_short_length() {
        // 0..=96 covers the empty input, every tail length 0..7, and up
        // to twelve full 8-byte blocks before each of them.
        let data: Vec<u8> = (0..96u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
    }

    /// `n` entries cycling through all four kinds, payload sizes varied.
    fn mixed_entries(n: usize) -> Vec<Entry> {
        (0..n)
            .map(|i| {
                let (tag, seq) = (0x1000 + i as u64, 7 * i as u32);
                let data = Bytes::from(vec![i as u8 ^ 0x5A; 3 * i + (i % 2)]);
                match i % 4 {
                    0 => Entry::Eager { tag, seq, data },
                    1 => Entry::Rts {
                        tag,
                        seq,
                        total: 1 << 20,
                    },
                    2 => Entry::Data {
                        tag,
                        seq,
                        offset: 4096,
                        data,
                    },
                    _ => Entry::Cts { tag, seq },
                }
            })
            .collect()
    }

    #[test]
    fn one_pass_encoder_matches_packet_then_frame() {
        for n in 1..=8 {
            let entries = mixed_entries(n);
            for span in [0, 0x0123_4567_89AB_CDEF] {
                for flags in [0, FRAME_RELIABLE] {
                    let one_pass = encode_packet_frame(9, 4, flags, span, &entries);
                    let two_step = encode_frame(9, 4, flags, span, &encode_packet(&entries));
                    assert_eq!(one_pass, two_step, "{n} entries, span {span:#x}");
                    let frame = decode_frame(one_pass).expect("decode");
                    assert_eq!(decode_packet(frame.payload).expect("packet"), entries);
                }
            }
        }
    }

    #[test]
    fn golden_frame_bytes() {
        // The format, pinned byte for byte: a change here is a wire
        // break, not a refactor.
        let entries = [
            Entry::Eager {
                tag: 0x0102_0304_0506_0708,
                seq: 0x0A0B_0C0D,
                data: Bytes::from_static(b"hi"),
            },
            Entry::Rts {
                tag: 2,
                seq: 3,
                total: 0x0010_0000,
            },
        ];
        #[rustfmt::skip]
        let packet = [
            0x00, 0x02, // count
            0x01, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // EAGER, tag
            0x0A, 0x0B, 0x0C, 0x0D, 0x00, 0x00, 0x00, 0x00, // seq, aux
            0x00, 0x00, 0x00, 0x02, b'h', b'i', // len, payload
            0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, // RTS, tag
            0x00, 0x00, 0x00, 0x03, 0x00, 0x10, 0x00, 0x00, // seq, total
            0x00, 0x00, 0x00, 0x00, // len
        ];
        // Checksums from an independent implementation (zlib's crc32).
        #[rustfmt::skip]
        let plain = [
            0x20, 0x76, 0x0E, 0x2D, // crc
            0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x03, 0x01, // wseq, ack, flags
        ];
        #[rustfmt::skip]
        let spanned = [
            0xC0, 0xE1, 0x47, 0x93, // crc
            0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x03, 0x05, // wseq, ack, flags
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xBE, 0xEF, // span
        ];
        for (header, span) in [(&plain[..], 0), (&spanned[..], 0xBEEF)] {
            let want = [header, &packet[..]].concat();
            let got = encode_packet_frame(5, 3, FRAME_RELIABLE, span, &entries);
            assert_eq!(&got[..], &want[..], "span {span:#x}");
        }
    }

    #[test]
    fn golden_bare_frame_bytes() {
        // A bare frame is the flags byte, the span word if any, and the
        // packet: no checksum, no sequence numbers.
        let entries = [
            Entry::Eager {
                tag: 0x0102_0304_0506_0708,
                seq: 0x0A0B_0C0D,
                data: Bytes::from_static(b"hi"),
            },
            Entry::Cts { tag: 2, seq: 3 },
        ];
        #[rustfmt::skip]
        let packet = [
            0x00, 0x02, // count
            0x01, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // EAGER, tag
            0x0A, 0x0B, 0x0C, 0x0D, 0x00, 0x00, 0x00, 0x00, // seq, aux
            0x00, 0x00, 0x00, 0x02, b'h', b'i', // len, payload
            0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, // CTS, tag
            0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, // seq, aux
            0x00, 0x00, 0x00, 0x00, // len
        ];
        #[rustfmt::skip]
        let spanned = [
            0x04, // flags: FRAME_SPAN
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xBE, 0xEF, // span
        ];
        for (header, span) in [(&[0x00][..], 0), (&spanned[..], 0xBEEF)] {
            let want = [header, &packet[..]].concat();
            let got = encode_bare_frame(span, &entries);
            assert_eq!(&got[..], &want[..], "span {span:#x}");
            let frame = decode_bare_frame(got).expect("decode");
            assert_eq!((frame.wseq, frame.ack, frame.span), (0, 0, span));
            assert_eq!(&frame.payload[..], &packet[..]);
        }
    }

    #[test]
    fn bare_frame_roundtrip_mixed_entries() {
        for n in 1..=8 {
            let entries = mixed_entries(n);
            for span in [0, 0x0123_4567_89AB_CDEF] {
                let framed = encode_bare_frame(span, &entries);
                let packet = encode_packet(&entries);
                assert_eq!(framed.len(), 1 + span_size(span) + packet.len());
                let frame = decode_bare_frame(framed).expect("decode");
                assert_eq!(frame.span, span, "{n} entries");
                assert_eq!(frame.flags & FRAME_SPAN != 0, span != 0);
                assert!(!frame.reliable() && !frame.ack_only());
                assert_eq!(frame.payload, packet);
                assert_eq!(decode_packet(frame.payload).expect("packet"), entries);
            }
        }
    }

    #[test]
    fn bare_frame_rejects_sealed_flags_unknown_bits_and_a_short_span() {
        // A sealed frame's flags and unknown bits, with and without a span.
        for flags in [
            FRAME_RELIABLE,
            FRAME_ACK_ONLY,
            FRAME_RELIABLE | FRAME_ACK_ONLY | FRAME_SPAN,
            0x08,
            0x80 | FRAME_SPAN,
        ] {
            let mut buf = BytesMut::new();
            buf.put_u8(flags);
            buf.put_u64(1);
            buf.put_slice(&encode_packet(&[Entry::Cts { tag: 1, seq: 2 }]));
            assert_eq!(
                decode_bare_frame(buf.freeze()),
                Err(WireError::Malformed("flags a bare frame cannot carry")),
                "flags {flags:#04x}"
            );
        }
        let framed = encode_bare_frame(77, &[Entry::Cts { tag: 1, seq: 2 }]);
        for cut in 0..1 + FRAME_SPAN_BYTES {
            assert_eq!(
                decode_bare_frame(framed.slice(0..cut)),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
        assert_eq!(decode_bare_frame(framed).unwrap().span, 77);
    }

    #[test]
    fn golden_ack_only_bytes() {
        // An ack-only frame is 13 bytes; `wseq` carries the count of
        // frames held behind the hole at `ack`. With nothing held it is
        // the ack this format has always had.
        // Checksums from an independent implementation (zlib's crc32).
        #[rustfmt::skip]
        let in_order = [
            0xAE, 0xC2, 0xFE, 0x5D, // crc
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x03, // count 0, ack, flags
        ];
        #[rustfmt::skip]
        let five_behind_the_hole = [
            0xFE, 0x0F, 0x6F, 0xEE, // crc
            0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x09, 0x03, // count 5, ack, flags
        ];
        for (want, count) in [(in_order, 0), (five_behind_the_hole, 5)] {
            let got = encode_frame(count, 9, FRAME_RELIABLE | FRAME_ACK_ONLY, 0, &[]);
            assert_eq!(&got[..], &want[..], "count {count}");
            let frame = decode_frame(got).expect("decode");
            assert!(frame.ack_only());
            assert_eq!((frame.wseq, frame.ack), (count, 9));
        }
    }

    #[test]
    fn frame_roundtrip() {
        let packet = encode_packet(&[Entry::Eager {
            tag: 7,
            seq: 3,
            data: Bytes::from_static(b"hello"),
        }]);
        let framed = encode_frame(42, 17, FRAME_RELIABLE, 0, &packet);
        assert_eq!(framed.len(), FRAME_HEADER + packet.len());
        let frame = decode_frame(framed).expect("decode");
        assert_eq!(frame.wseq, 42);
        assert_eq!(frame.ack, 17);
        assert!(frame.reliable());
        assert!(!frame.ack_only());
        assert_eq!(frame.span, 0);
        assert_eq!(frame.payload, packet);
        assert!(decode_packet(frame.payload).is_ok());
    }

    #[test]
    fn span_frame_roundtrip() {
        let packet = encode_packet(&[Entry::Cts { tag: 1, seq: 2 }]);
        let framed = encode_frame(8, 3, FRAME_RELIABLE, 0xFEED_F00D, &packet);
        assert_eq!(framed.len(), FRAME_HEADER + FRAME_SPAN_BYTES + packet.len());
        let frame = decode_frame(framed).expect("decode");
        assert_eq!(frame.span, 0xFEED_F00D);
        assert!(frame.flags & FRAME_SPAN != 0);
        assert_eq!(frame.payload, packet);
    }

    #[test]
    fn zero_span_carries_no_span_bytes() {
        // Even if the caller passes FRAME_SPAN explicitly, span 0 must
        // clear it: decoders would otherwise read payload as a span.
        let framed = encode_frame(0, 0, FRAME_SPAN, 0, b"xy");
        assert_eq!(framed.len(), FRAME_HEADER + 2);
        let frame = decode_frame(framed).expect("decode");
        assert_eq!(frame.span, 0);
        assert_eq!(frame.flags & FRAME_SPAN, 0);
        assert_eq!(&frame.payload[..], b"xy");
    }

    #[test]
    fn span_frame_truncated_before_span_rejected() {
        let framed = encode_frame(1, 1, FRAME_RELIABLE, 77, b"payload");
        // Cut inside the span field: CRC fails first (covers all bytes),
        // so re-frame a short body with a valid checksum instead.
        let mut buf = BytesMut::new();
        buf.put_u32(0);
        buf.put_u32(1);
        buf.put_u32(1);
        buf.put_u8(FRAME_SPAN);
        buf.put_u32(0xDEAD); // only 4 of the 8 span bytes
        let crc = crc32(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(decode_frame(buf.freeze()), Err(WireError::Truncated));
        // And the well-formed frame still decodes.
        assert_eq!(decode_frame(framed).unwrap().span, 77);
    }

    #[test]
    fn ack_only_frame_roundtrip() {
        let framed = encode_frame(0, 9, FRAME_RELIABLE | FRAME_ACK_ONLY, 0, &[]);
        let frame = decode_frame(framed).expect("decode");
        assert!(frame.ack_only());
        assert_eq!(frame.ack, 9);
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn every_single_byte_flip_is_caught() {
        let packet = encode_packet(&[Entry::Eager {
            tag: 1,
            seq: 0,
            data: Bytes::from_static(b"integrity"),
        }]);
        let framed = encode_frame(5, 2, FRAME_RELIABLE, 0x5EED, &packet);
        for i in 0..framed.len() {
            let mut bad = BytesMut::from(&framed[..]);
            bad[i] ^= 0xFF;
            let err = decode_frame(bad.freeze()).expect_err("flip must be caught");
            assert!(
                matches!(err, WireError::BadChecksum { .. }),
                "flip at {i} gave {err:?}"
            );
        }
    }

    #[test]
    fn truncated_frame_rejected() {
        let framed = encode_frame(0, 0, 0, 0, b"xy");
        for cut in 0..FRAME_HEADER {
            assert_eq!(
                decode_frame(framed.slice(0..cut)),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_frame_flags_rejected() {
        // Re-frame with an undefined flag bit but a valid checksum.
        let mut buf = BytesMut::new();
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u8(0x80);
        let crc = crc32(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            decode_frame(buf.freeze()),
            Err(WireError::Malformed("unknown frame flags"))
        );
    }

    #[test]
    fn ack_only_with_payload_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(0);
        buf.put_u32(0);
        buf.put_u32(3);
        buf.put_u8(FRAME_RELIABLE | FRAME_ACK_ONLY);
        buf.put_slice(b"stray");
        let crc = crc32(&buf[4..]);
        buf[0..4].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(
            decode_frame(buf.freeze()),
            Err(WireError::Malformed("ack-only frame with payload"))
        );
    }
}
