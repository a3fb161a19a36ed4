//! Vendored, dependency-free subset of the [`bytes`] crate.
//!
//! The build environment for this repository has no network access to
//! crates.io, so the workspace ships minimal local implementations of the
//! third-party APIs it consumes (see `crates/compat/README.md`). This crate
//! reimplements exactly the surface the nomad stack uses:
//!
//! * [`Bytes`] — cheaply clonable, sliceable immutable buffer
//!   (`Arc<Vec<u8>>` + range),
//! * [`BytesMut`] — growable write buffer that [`freeze`]s into [`Bytes`]
//!   without copying: the allocation moves, as in the real crate,
//! * [`Buf`] / [`BufMut`] — big-endian cursor read/write traits.
//!
//! Semantics (big-endian integer encoding, `split_to`, `slice`) match the
//! real crate so the wire format stays compatible if the real dependency is
//! ever restored.
//!
//! [`bytes`]: https://docs.rs/bytes
//! [`freeze`]: BytesMut::freeze

#![warn(missing_docs)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply clonable immutable contiguous slice of memory.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Bytes::from_vec(Vec::new())
    }

    /// Creates `Bytes` from a static slice (copies; the real crate borrows,
    /// which is indistinguishable to callers).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Copies `data` into a new `Bytes`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from_vec(data.to_vec())
    }

    /// Takes ownership of `v`'s allocation (`Arc<[u8]>::from(Vec)` would
    /// copy it into a new one).
    fn from_vec(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view of `self` for the given range (no copy).
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Self {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_vec(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from_vec(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

/// A unique, growable byte buffer; freeze it into [`Bytes`] when done.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// Creates an empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Sets the length to `new_len`: truncates, or appends copies of
    /// `value` to fill the buffer up to it.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(new_len, value);
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`]; the
    /// buffer is moved, not copied.
    pub fn freeze(self) -> Bytes {
        Bytes::from_vec(self.buf)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { buf: s.to_vec() }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut")
            .field("len", &self.len())
            .finish()
    }
}

/// Read cursor over a byte source; integers decode big-endian, matching the
/// real `bytes` crate.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes as a contiguous slice.
    fn chunk(&self) -> &[u8];
    /// Advances the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// `true` if any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Copies `dst.len()` bytes out, advancing past them.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "copy_to_slice underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
}

/// Write cursor; integers encode big-endian, matching the real `bytes`
/// crate.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, s: &[u8]);

    /// Writes one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Writes a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_integers_big_endian() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(7);
        m.put_u16(0x0102);
        m.put_u32(0xdeadbeef);
        m.put_u64(0x0123_4567_89ab_cdef);
        assert_eq!(m.len(), 15);
        // Big-endian on the wire.
        assert_eq!(&m[1..3], &[0x01, 0x02]);
        let mut b = m.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16(), 0x0102);
        assert_eq!(b.get_u32(), 0xdeadbeef);
        assert_eq!(b.get_u64(), 0x0123_4567_89ab_cdef);
        assert!(!b.has_remaining());
    }

    #[test]
    fn slice_and_split_share_storage() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        let mut rest = b.clone();
        let head = rest.split_to(2);
        assert_eq!(&head[..], &[0, 1]);
        assert_eq!(&rest[..], &[2, 3, 4, 5]);
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn freeze_and_from_vec_move_the_allocation() {
        let v = vec![7u8; 4096];
        let addr = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), addr);

        let mut m = BytesMut::with_capacity(4096);
        m.put_slice(&[9u8; 4096]);
        let addr = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), addr);

        // Views share the buffer instead of copying out of it.
        assert_eq!(b.clone().as_ptr(), addr);
        assert_eq!(b.slice(16..32).as_ptr(), addr.wrapping_add(16));
        let mut rest = b.clone();
        let head = rest.split_to(100);
        assert_eq!(head.as_ptr(), addr);
        assert_eq!(rest.as_ptr(), addr.wrapping_add(100));
    }

    #[test]
    fn equality_and_debug() {
        assert_eq!(Bytes::from_static(b"abc"), Bytes::from(vec![97, 98, 99]));
        assert_eq!(format!("{:?}", Bytes::from_static(b"a\x00")), "b\"a\\x00\"");
        assert!(Bytes::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "split_to out of bounds")]
    fn split_past_end_panics() {
        let mut b = Bytes::from_static(b"x");
        let _ = b.split_to(2);
    }
}
