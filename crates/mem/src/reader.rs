//! Bounds-checked little-endian reads over a byte slice.
//!
//! Every sequential binary parse in the workspace — wire frame headers and
//! payloads, the `.slsnap` header, section table and small payloads, and
//! the trainer's checkpoint — reads through [`ByteReader`]. Writers need no
//! counterpart: they append `v.to_le_bytes()`.

use std::fmt;

/// Why a [`ByteReader`] read failed. Each format maps it into its own error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The input ended inside the field `what`: it needs `need` bytes and
    /// `have` were left.
    Truncated {
        what: &'static str,
        need: usize,
        have: usize,
    },
    /// `extra` bytes were left over after the record `what`.
    Trailing { what: &'static str, extra: usize },
    /// The bytes of the text field `what` are not UTF-8.
    Utf8 { what: &'static str },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Truncated { what, need, have } => {
                write!(
                    f,
                    "payload ends inside {what}: need {need} bytes, have {have}"
                )
            }
            ReadError::Trailing { what, extra } => write!(f, "{extra} trailing bytes after {what}"),
            ReadError::Utf8 { what } => write!(f, "{what} is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A cursor over a byte slice whose every read is bounds-checked.
///
/// Each read names the field it wants. A read that needs more bytes than
/// are left returns [`ReadError::Truncated`]; a failed read consumes
/// nothing, and no input makes a read panic.
///
/// ```
/// use slide_mem::{ByteReader, ReadError};
///
/// let bytes = [7u8, 1, 0, 0, 0, b'h', b'i'];
/// let mut r = ByteReader::new(&bytes);
/// assert_eq!(r.u8("tag"), Ok(7));
/// assert_eq!(r.u32("len"), Ok(1));
/// assert_eq!(r.utf8(1, "text"), Ok("h"));
/// assert_eq!(r.finish("record"), Err(ReadError::Trailing { what: "record", extra: 1 }));
/// ```
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { rest: bytes }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ReadError> {
        if n > self.rest.len() {
            return Err(ReadError::Truncated {
                what,
                need: n,
                have: self.rest.len(),
            });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], ReadError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, ReadError> {
        self.array(what).map(u8::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, ReadError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, ReadError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// `n` little-endian 32-bit words under one bounds check, so a count the
    /// input cannot hold is refused before the caller allocates for it
    /// (`f32` fields map through [`f32::from_bits`]).
    #[inline]
    pub fn words(
        &mut self,
        n: usize,
        what: &'static str,
    ) -> Result<impl ExactSizeIterator<Item = u32> + 'a, ReadError> {
        let bytes = self.take(n.saturating_mul(4), what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])))
    }

    /// `len` bytes of UTF-8 text, or [`ReadError::Utf8`] if they are not.
    pub fn utf8(&mut self, len: usize, what: &'static str) -> Result<&'a str, ReadError> {
        let mut ahead = self.clone();
        let text =
            std::str::from_utf8(ahead.take(len, what)?).map_err(|_| ReadError::Utf8 { what })?;
        *self = ahead;
        Ok(text)
    }

    /// End the record `what`: [`ReadError::Trailing`] if bytes are left.
    #[inline]
    pub fn finish(self, what: &'static str) -> Result<(), ReadError> {
        match self.rest.len() {
            0 => Ok(()),
            extra => Err(ReadError::Trailing { what, extra }),
        }
    }
}
