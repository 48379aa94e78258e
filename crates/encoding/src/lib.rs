//! Compact binary codecs used throughout LASH.
//!
//! The LASH paper (Sec. 4.2, Sec. 6.1) represents items as integer ids assigned
//! in frequency order — frequent items get small ids — and compresses the data
//! shipped between the map and reduce phases with variable-length integer
//! encoding and run-length encoding of blank symbols. This crate provides those
//! codecs:
//!
//! * [`varint`] — LEB128-style variable-length encoding of `u32`/`u64`,
//! * [`group_varint`] — the wide, SIMD-friendly block codec: four `u32`s per
//!   control byte with a table-driven branchless decode kernel, plus an
//!   RLE-compatible blank-run escape; the payload codec of `lash-store`'s
//!   format-v4 blocks,
//! * [`rle`] — run-length compression of blank runs inside rewritten sequences,
//! * [`codec`] — the sequence codec combining the above, used as the wire format
//!   of the MapReduce shuffle so that `MAP_OUTPUT_BYTES` is measured on the same
//!   representation the paper uses,
//! * [`frame`] — length-prefixed, checksummed frames, the unit of corruption
//!   detection in `lash-store`'s on-disk block format.
//!
//! All codecs are allocation-conscious: encoders append to caller-provided
//! buffers and decoders read from slices without copying.

// `deny` rather than `forbid`: the one sanctioned exception is the tiny
// mmap FFI module inside `frame` (see `frame::mapped`), which opts in with
// a scoped `#[allow(unsafe_code)]`. Everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod frame;
pub mod group_varint;
pub mod rle;
pub mod varint;

pub use codec::{decode_sequence, decode_sequence_into, encode_sequence, SequenceCodec, BLANK};
pub use frame::{
    decode_frame, decode_frame_with, encode_frame, read_frame, read_frame_into,
    split_frame_unverified, write_frame, write_frame_with, FrameChecksum, FrameRead, MappedFrames,
};
pub use varint::{
    decode_u32, decode_u64, encode_u32, encode_u64, encoded_len_u32, encoded_len_u64,
};

/// Errors returned by decoders in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended in the middle of a value.
    UnexpectedEof,
    /// A varint used more bytes than the maximum for its type.
    Overflow,
    /// A run-length or structural invariant was violated.
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::Overflow => write!(f, "varint overflow"),
            DecodeError::Corrupt(msg) => write!(f, "corrupt encoding: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}
