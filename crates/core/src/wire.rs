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
//! CRC-32 (IEEE) over everything after itself, computed by a
//! carry-less-multiply kernel where the CPU has one and by portable
//! slicing-by-8 elsewhere, to the same bytes; a frame whose checksum
//! does not match is dropped before any entry is decoded
//! ([`WireError::BadChecksum`]). `wseq`/`ack` are the per-wire
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
//! is [`FRAME_SPAN`]. A bare frame whose packet is one `DATA` entry
//! leaves in two parts ([`nm_fabric::WireFrame`]): the head
//! ([`encode_bare_head`]) and the chunk itself, a slice of the caller's
//! buffer. Its bytes on the wire are the one-part frame's; the receiver
//! decodes the head and takes the body as the entry's payload
//! ([`decode_packet_with_body`]).
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
                put_data_header(buf, *tag, *seq, *offset, data.len());
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

/// Slicing tables of the portable [`crc32`] kernel, built at compile
/// time. `T[0]` is the classic byte-at-a-time table; `T[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight lookups advance
/// the register over eight input bytes at once.
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

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
///
/// Two kernels compute the same sum, chosen on each call. On
/// x86-64 with PCLMULQDQ and SSE4.1 (asked of std at run time; std
/// caches the answer), an input of 64 bytes or more is folded by
/// carry-less multiplication, four 128-bit lanes at a time, and reduced
/// to 32 bits by a Barrett step: the method of Intel's "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// the one zlib and Linux use. Its last 0–15 bytes, shorter inputs,
/// other targets and Miri (where std reports no CPU feature) run
/// portable slicing-by-8.
pub fn crc32(data: &[u8]) -> u32 {
    let crc = match kernel(data.len()) {
        Kernel::Sliced => crc32_sliced(!0, data),
        #[cfg(target_arch = "x86_64")]
        Kernel::Clmul => {
            let (body, tail) = data.split_at(data.len() & !15);
            // SAFETY: `kernel` picks `Clmul` only where std detected
            // both target features `clmul::fold` is compiled for.
            let crc = unsafe { clmul::fold(!0, body) };
            crc32_sliced(crc, tail)
        }
    };
    !crc
}

/// The CRC kernels ([`crc32`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Portable slicing-by-8, on every target.
    Sliced,
    /// PCLMULQDQ folding, then slicing-by-8 for the tail.
    #[cfg(target_arch = "x86_64")]
    Clmul,
}

/// The kernel [`crc32`] runs on an input of `len` bytes.
fn kernel(len: usize) -> Kernel {
    #[cfg(target_arch = "x86_64")]
    if len >= clmul::MIN_LEN
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        return Kernel::Clmul;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = len;
    Kernel::Sliced
}

/// The portable kernel: advances the (inverted) CRC register `crc` over
/// `data`, eight bytes per step, the tail byte by byte.
fn crc32_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    crc
}

/// The carry-less-multiply kernel (x86-64, PCLMULQDQ + SSE4.1).
///
/// The constants are the bit-reflected ones of the Intel paper for the
/// IEEE polynomial, as zlib and Linux's `crc32-pclmul` carry them: `k1`,
/// `k2` fold a lane across 512 bits, `k3`, `k4` across 128, `k5` takes
/// 96 bits to 64, and `P'`, `μ` are the polynomial and its Barrett
/// quotient.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input [`fold`] takes: one 64-byte block seeds its four
    /// lanes.
    pub(super) const MIN_LEN: usize = 64;

    const K1: i64 = 0x0001_5444_2bd4;
    const K2: i64 = 0x0001_c6e4_1596;
    const K3: i64 = 0x0001_7519_97d0;
    const K4: i64 = 0x0000_ccaa_009e;
    const K5: i64 = 0x0001_63cd_6124;
    const P: i64 = 0x0001_db71_0641;
    const MU: i64 = 0x0001_f701_1641;

    /// One 16-byte block as a vector.
    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `loadu` asks for no
        // alignment.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// Folds lane `x` forward by the distance the constant pair `k`
    /// encodes and adds block `y`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(x: __m128i, k: __m128i, y: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(hi, lo), y)
    }

    /// Advances the (inverted) CRC register `crc` over `data`, whose
    /// length is a multiple of 16 and at least [`MIN_LEN`].
    ///
    /// # Safety
    ///
    /// The CPU must have PCLMULQDQ and SSE4.1; any `data` is memory-safe
    /// (a short one panics on a bounds check).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= MIN_LEN && data.len().is_multiple_of(16));
        let (blocks, _) = data.as_chunks::<16>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut x = [
            load(&blocks[0]),
            load(&blocks[1]),
            load(&blocks[2]),
            load(&blocks[3]),
        ];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let mut quads = blocks[4..].chunks_exact(4);
        for q in &mut quads {
            for (lane, block) in x.iter_mut().zip(q) {
                *lane = fold_into(*lane, k1k2, load(block));
            }
        }
        // Four lanes into one, then the blocks left over one at a time.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_into(x[0], k3k4, x[1]);
        acc = fold_into(acc, k3k4, x[2]);
        acc = fold_into(acc, k3k4, x[3]);
        for block in quads.remainder() {
            acc = fold_into(acc, k3k4, load(block));
        }
        // 128 bits to 64.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        acc = _mm_xor_si128(
            _mm_srli_si128(acc, 8),
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
        );
        let k5 = _mm_set_epi64x(0, K5);
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett reduction to 32 bits.
        let poly = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly, 0x10);
        let r = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
        _mm_extract_epi32(_mm_xor_si128(acc, r), 1) as u32
    }
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

/// Writes a `DATA` entry's header: everything but the chunk.
fn put_data_header(buf: &mut BytesMut, tag: u64, seq: u32, offset: u32, len: usize) {
    buf.put_u8(KIND_DATA);
    buf.put_u64(tag);
    buf.put_u32(seq);
    buf.put_u32(offset);
    buf.put_u32(len as u32);
}

/// The head of the two-part bare frame that carries one `DATA` entry: the
/// flags byte, the span word if `span != 0`, the packet header and the
/// entry header, for a chunk of `len` bytes at `offset`. The chunk
/// follows it on the wire as the frame's body, so head and chunk
/// together are, byte for byte, the `encode_bare_frame` of that entry.
pub fn encode_bare_head(span: u64, tag: u64, seq: u32, offset: u32, len: usize) -> Bytes {
    let size = BARE_HEADER + span_size(span) + PACKET_HEADER + ENTRY_HEADER;
    let mut buf = BytesMut::with_capacity(size);
    put_flags_and_span(&mut buf, 0, span);
    buf.put_u16(1);
    put_data_header(&mut buf, tag, seq, offset, len);
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

/// Decodes the packet of a two-part frame: `packet` holds one `DATA`
/// entry's header and ends where its payload would begin, and `body` is
/// that payload. Any other shape — more entries, another kind, bytes
/// after the header, a length the body does not have — is malformed.
/// Kept out of line so that the dispatch of an eager packet carries
/// none of it.
#[inline(never)]
pub fn decode_packet_with_body(mut packet: Bytes, body: Bytes) -> Result<Vec<Entry>, WireError> {
    if packet.remaining() < PACKET_HEADER {
        return Err(WireError::Truncated);
    }
    if packet.get_u16() != 1 {
        return Err(WireError::Malformed(
            "a body on a packet that is not one entry",
        ));
    }
    if packet.remaining() < ENTRY_HEADER {
        return Err(WireError::Truncated);
    }
    if packet.get_u8() != KIND_DATA {
        return Err(WireError::Malformed("a body on an entry other than DATA"));
    }
    let tag = packet.get_u64();
    let seq = packet.get_u32();
    let offset = packet.get_u32();
    let len = packet.get_u32() as usize;
    if packet.has_remaining() || len != body.len() {
        return Err(WireError::Malformed("a body that is not the DATA payload"));
    }
    Ok(vec![Entry::Data {
        tag,
        seq,
        offset,
        data: body,
    }])
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

    /// Bit-at-a-time CRC-32: the definition both kernels must match.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        !data
            .iter()
            .fold(!0u32, |crc, &b| crc32_bitwise_step(crc, b))
    }

    /// Advances the (inverted) register `crc` over byte `b`, bit by bit.
    fn crc32_bitwise_step(mut crc: u32, b: u8) -> u32 {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                0xEDB88320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
        crc
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

    /// Lengths (`0..=SWEEP_LEN`) and start offsets (`0..SWEEP_OFFSETS`)
    /// the kernel tests sweep. Miri, which interprets every table lookup,
    /// takes a short prefix of the sweep.
    const SWEEP_LEN: usize = if cfg!(miri) { 160 } else { 4096 };
    const SWEEP_OFFSETS: usize = if cfg!(miri) { 2 } else { 16 };

    /// Checks `crc` against the bitwise definition for every length and
    /// offset of the sweep. The reference register advances one byte per
    /// length, so the sweep costs the kernel's calls, not the reference's.
    fn sweep(name: &str, crc: impl Fn(&[u8]) -> u32) {
        let buf: Vec<u8> = (0..SWEEP_LEN + SWEEP_OFFSETS)
            .map(|i| (i as u32).wrapping_mul(0x9E37_79B9).rotate_left(7) as u8)
            .collect();
        for off in 0..SWEEP_OFFSETS {
            let data = &buf[off..off + SWEEP_LEN];
            let mut reference = !0u32;
            for len in 0..=SWEEP_LEN {
                assert_eq!(
                    crc(&data[..len]),
                    !reference,
                    "{name}: len {len} at offset {off}"
                );
                if let Some(&b) = data.get(len) {
                    reference = crc32_bitwise_step(reference, b);
                }
            }
        }
    }

    #[test]
    fn portable_kernel_matches_bitwise_at_every_length_and_offset() {
        sweep("slicing-by-8", |d| !crc32_sliced(!0, d));
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn accelerated_kernel_matches_bitwise_at_every_length_and_offset() {
        if kernel(clmul::MIN_LEN) != Kernel::Clmul {
            return; // no PCLMULQDQ here; the selection test says why
        }
        sweep("pclmulqdq", |d| {
            if d.len() >= clmul::MIN_LEN {
                assert_eq!(kernel(d.len()), Kernel::Clmul);
            }
            crc32(d)
        });
    }

    #[test]
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    fn the_accelerated_kernel_is_selected_where_the_cpu_has_it() {
        let has = std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1");
        let want = if has { Kernel::Clmul } else { Kernel::Sliced };
        assert_eq!(kernel(clmul::MIN_LEN), want);
        assert_eq!(kernel(16 << 10), want);
        assert_eq!(kernel(clmul::MIN_LEN - 1), Kernel::Sliced);
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
    fn a_two_part_data_frame_is_the_one_part_frame_byte_for_byte() {
        let data = Bytes::from((0..=255u8).cycle().take(1000).collect::<Vec<u8>>());
        let entry = Entry::Data {
            tag: 0x0102_0304_0506_0708,
            seq: 0x0A0B_0C0D,
            offset: 0x0010_0000,
            data: data.clone(),
        };
        for span in [0, 0xBEEF] {
            let head =
                encode_bare_head(span, 0x0102_0304_0506_0708, 0x0A0B_0C0D, 0x0010_0000, 1000);
            assert_eq!(
                head.len(),
                1 + span_size(span) + PACKET_HEADER + ENTRY_HEADER
            );
            let one_part = encode_bare_frame(span, std::slice::from_ref(&entry));
            assert_eq!(
                [&head[..], &data[..]].concat(),
                &one_part[..],
                "span {span:#x}"
            );
            let frame = decode_bare_frame(head).expect("head decodes");
            assert_eq!(frame.span, span);
            let entries = decode_packet_with_body(frame.payload, data.clone()).expect("decode");
            assert_eq!(entries, std::slice::from_ref(&entry));
        }
    }

    #[test]
    fn a_body_fits_only_one_data_entry_that_ends_the_head() {
        let body = Bytes::from_static(b"chunk");
        let data = Entry::Data {
            tag: 1,
            seq: 2,
            offset: 0,
            data: Bytes::new(),
        };
        let cts = Entry::Cts { tag: 1, seq: 2 };
        let cases = [
            (
                encode_packet(std::slice::from_ref(&cts)),
                "a body on an entry other than DATA",
            ),
            (
                encode_packet(&[data.clone(), cts]),
                "a body on a packet that is not one entry",
            ),
            (
                encode_packet(std::slice::from_ref(&data)),
                "a body that is not the DATA payload",
            ),
            (
                encode_packet(&[data.clone(), data]),
                "a body on a packet that is not one entry",
            ),
        ];
        for (packet, why) in cases {
            assert_eq!(
                decode_packet_with_body(packet, body.clone()),
                Err(WireError::Malformed(why))
            );
        }
        let head = encode_bare_head(0, 1, 2, 0, body.len() + 1);
        let packet = decode_bare_frame(head).unwrap().payload;
        assert_eq!(
            decode_packet_with_body(packet.clone(), body.clone()),
            Err(WireError::Malformed("a body that is not the DATA payload"))
        );
        assert_eq!(
            decode_packet_with_body(packet.slice(..PACKET_HEADER + 3), body),
            Err(WireError::Truncated)
        );
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
