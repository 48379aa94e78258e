//! Length-prefixed, checksummed frames.
//!
//! A frame wraps an opaque payload for storage or transport:
//!
//! ```text
//! +----------------+-----------+-------------------+
//! | varint payload | payload   | FNV-1a-32 of the  |
//! | length (u32)   | bytes     | payload (4 bytes, |
//! |                |           | little-endian)    |
//! +----------------+-----------+-------------------+
//! ```
//!
//! Frames are the unit of corruption detection in the on-disk corpus format
//! (`lash-store` writes every block header and block payload as one frame):
//! a truncated file ends with an incomplete frame and is reported as
//! [`DecodeError::UnexpectedEof`]; a flipped bit fails the checksum and is
//! reported as [`DecodeError::Corrupt`]. Decoders never panic on garbage.
//!
//! Two checksum flavors share the frame layout ([`FrameChecksum`]): the
//! original byte-at-a-time FNV-1a-32, and a word-at-a-time variant
//! ([`checksum_wide`]) that folds eight bytes per multiply — roughly an
//! order of magnitude faster to verify, which matters once block *decoding*
//! is no longer the scan bottleneck. A stream's flavor is fixed by its
//! container format (`lash-store` segments use the wide flavor for block
//! frames), not self-described, so the layout stays identical.

use std::io::{self, Read, Write};
use std::path::Path;

use crate::varint;
use crate::DecodeError;

/// Maximum accepted payload length (1 GiB) — guards against reading an
/// absurd length prefix from corrupt input and attempting the allocation.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// Default target payload size of one frame-wrapped block (64 KiB).
///
/// The shared buffer-cap every framed block stream in the workspace cuts
/// at: `lash-store` segment blocks, `lash-index` trie blocks, and the
/// MapReduce spill chunks all buffer records until the payload reaches
/// this budget and then seal the frame. One named constant instead of a
/// `64 * 1024` literal per crate, so the trade-off (frame overhead and
/// checksum granularity vs. corruption blast radius and decode-batch
/// size) is tuned in one place.
pub const DEFAULT_BLOCK_BYTES: usize = 64 * 1024;

/// FNV-1a 32-bit checksum of `bytes`.
#[inline]
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Word-wise FNV-1a-64 folded to 32 bits: the payload is consumed as
/// little-endian `u64` words (the tail zero-padded), the byte length is
/// mixed in last so zero-padding cannot alias, and the halves of the final
/// state are XOR-folded. One multiply per eight bytes instead of one per
/// byte — the verification-side twin of the wide decode kernel.
#[inline]
pub fn checksum_wide(bytes: &[u8]) -> u32 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    h = (h ^ bytes.len() as u64).wrapping_mul(PRIME);
    ((h >> 32) ^ h) as u32
}

/// Which checksum a frame stream uses (the layout is identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameChecksum {
    /// Byte-at-a-time FNV-1a-32 — the original flavor: store manifests and
    /// segment headers, and the serve wire.
    #[default]
    Fnv1a,
    /// Word-at-a-time [`checksum_wide`] — `lash-store` block frames.
    Fnv1aWide,
}

impl FrameChecksum {
    #[inline]
    fn compute(self, payload: &[u8]) -> u32 {
        match self {
            FrameChecksum::Fnv1a => checksum(payload),
            FrameChecksum::Fnv1aWide => checksum_wide(payload),
        }
    }
}

/// Appends a frame wrapping `payload` to `buf`.
pub fn encode_frame(payload: &[u8], buf: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_FRAME_LEN, "frame payload too large");
    varint::encode_u32(payload.len() as u32, buf);
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&checksum(payload).to_le_bytes());
}

/// Number of bytes [`encode_frame`] writes for a payload of `len` bytes.
pub fn encoded_frame_len(len: usize) -> usize {
    varint::encoded_len_u32(len as u32) + len + 4
}

/// Decodes one frame from the front of `input`.
///
/// Returns the payload slice (borrowed from `input`) and the total number of
/// bytes consumed. Truncated input yields [`DecodeError::UnexpectedEof`];
/// a checksum mismatch or over-long length yields [`DecodeError::Corrupt`].
pub fn decode_frame(input: &[u8]) -> Result<(&[u8], usize), DecodeError> {
    decode_frame_with(input, FrameChecksum::Fnv1a)
}

/// [`decode_frame`] with an explicit checksum flavor.
pub fn decode_frame_with(input: &[u8], kind: FrameChecksum) -> Result<(&[u8], usize), DecodeError> {
    let (payload, total) = split_frame_unverified(input)?;
    let stored = u32::from_le_bytes(
        input[total - 4..total]
            .try_into()
            .expect("4 checksum bytes sliced above"),
    );
    if stored != kind.compute(payload) {
        return Err(DecodeError::Corrupt("frame checksum mismatch"));
    }
    Ok((payload, total))
}

/// Splits one frame off the front of `input` **without** verifying its
/// checksum: returns the payload slice and the total bytes consumed.
///
/// This is the zero-copy window primitive behind [`MappedFrames`] scans:
/// a stream whose checksums were all verified once (at open) is walked
/// again with only the structural bounds checks, no per-frame hashing.
/// Never use it on bytes that have not been verified through
/// [`decode_frame_with`] first — a flipped bit would go undetected.
pub fn split_frame_unverified(input: &[u8]) -> Result<(&[u8], usize), DecodeError> {
    let (len, header) = varint::decode_u32(input)?;
    let len = len as usize;
    if len > MAX_FRAME_LEN {
        return Err(DecodeError::Corrupt("frame length exceeds maximum"));
    }
    let total = header + len + 4;
    if input.len() < total {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok((&input[header..header + len], total))
}

/// Writes a frame wrapping `payload` to an [`io::Write`].
pub fn write_frame(payload: &[u8], writer: &mut impl Write) -> io::Result<()> {
    write_frame_with(payload, writer, FrameChecksum::Fnv1a)
}

/// Writes a frame wrapping `payload` with the given checksum flavor.
pub fn write_frame_with(
    payload: &[u8],
    writer: &mut impl Write,
    kind: FrameChecksum,
) -> io::Result<()> {
    let mut prefix = Vec::with_capacity(varint::MAX_LEN_U32);
    varint::encode_u32(payload.len() as u32, &mut prefix);
    writer.write_all(&prefix)?;
    writer.write_all(payload)?;
    writer.write_all(&kind.compute(payload).to_le_bytes())
}

/// Reads only a frame's varint length prefix, byte by byte so nothing past
/// the frame is consumed.
///
/// Returns `Ok(Some(n))` where `n` is the number of bytes remaining in the
/// frame after the prefix (payload plus checksum trailer). A stream already
/// at end-of-stream returns `Ok(None)`; a stream ending inside the prefix or
/// an over-long length is an error.
fn read_frame_len(reader: &mut impl Read) -> io::Result<Option<u64>> {
    let mut prefix = [0u8; varint::MAX_LEN_U32];
    let mut filled = 0usize;
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ))
            }
            Ok(_) => {
                prefix[filled] = byte[0];
                filled += 1;
                if byte[0] & 0x80 == 0 {
                    break;
                }
                if filled == varint::MAX_LEN_U32 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "frame length prefix overlong",
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let (len, _) = varint::decode_u32(&prefix[..filled])
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame length: {e}")))?;
    if len as usize > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds maximum",
        ));
    }
    Ok(Some(len as u64 + 4))
}

/// Outcome of [`read_frame`]: a payload or a clean end-of-stream.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete, checksum-verified payload.
    Payload(Vec<u8>),
    /// The reader was already at end-of-stream (no partial frame).
    Eof,
}

/// Reads one frame from an [`io::Read`] into an owned buffer.
///
/// A stream that ends exactly on a frame boundary returns
/// [`FrameRead::Eof`]; a stream that ends *inside* a frame returns
/// [`DecodeError::UnexpectedEof`] mapped into `io::ErrorKind::UnexpectedEof`.
/// Corruption is reported as `io::ErrorKind::InvalidData`.
pub fn read_frame(reader: &mut impl Read) -> io::Result<FrameRead> {
    let mut payload = Vec::new();
    match read_frame_into(reader, &mut payload, FrameChecksum::Fnv1a)? {
        Some(len) => {
            payload.truncate(len);
            Ok(FrameRead::Payload(payload))
        }
        None => Ok(FrameRead::Eof),
    }
}

/// Reads one frame into a caller-owned buffer, verifying with the given
/// checksum flavor; the hot-loop twin of [`read_frame`] — the buffer only
/// grows, so a scan reading thousands of block frames allocates a handful
/// of times total.
///
/// Returns `Ok(Some(len))` with the payload in `buf[..len]` (bytes past
/// `len` are stale garbage from earlier frames), or `Ok(None)` at a clean
/// end-of-stream.
pub fn read_frame_into(
    reader: &mut impl Read,
    buf: &mut Vec<u8>,
    kind: FrameChecksum,
) -> io::Result<Option<usize>> {
    let Some(remaining) = read_frame_len(reader)? else {
        return Ok(None);
    };
    let len = (remaining - 4) as usize;
    if buf.len() < len {
        buf.resize(len, 0);
    }
    reader.read_exact(&mut buf[..len]).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(io::ErrorKind::UnexpectedEof, "stream ended inside a frame")
        } else {
            e
        }
    })?;
    let mut stored = [0u8; 4];
    reader.read_exact(&mut stored).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream ended inside a frame checksum",
            )
        } else {
            e
        }
    })?;
    if u32::from_le_bytes(stored) != kind.compute(&buf[..len]) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Some(len))
}

/// The raw `mmap(2)` FFI — the workspace's only unsafe code, kept to the
/// smallest possible surface: map a read-only private view of a file,
/// expose it as a byte slice, unmap on drop. The symbols come from libc,
/// which std already links on every unix target.
///
/// Soundness relies on the mapped file being **immutable while mapped**:
/// truncating a mapped file turns reads into `SIGBUS`. The store only maps
/// sealed segment files, which are append-once and replaced by rename —
/// deletion unlinks the name but keeps the inode alive until the map is
/// dropped — so the invariant holds by construction there. Callers mapping
/// other files must uphold it themselves.
#[cfg(all(unix, target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod mapped {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// An owned read-only mapping of one file.
    pub struct Map {
        ptr: *mut u8,
        len: usize,
    }

    // The mapping is read-only and owned: no aliasing mutation can occur
    // through it, so sharing the view across threads is sound.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        /// Maps `len` bytes of `file` read-only. `len` must be non-zero
        /// (mapping zero bytes is an `EINVAL`; callers special-case empty
        /// files) and no larger than the file.
        pub fn new(file: &File, len: usize) -> io::Result<Map> {
            debug_assert!(len > 0, "zero-length maps are the caller's case");
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Map { ptr, len })
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// How a [`MappedFrames`] holds its bytes.
enum FrameBacking {
    /// A zero-copy `mmap(2)` view (64-bit unix only).
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(mapped::Map),
    /// A plain heap read — the portable fallback, and the representation of
    /// empty files (zero-length maps are invalid).
    Heap(Vec<u8>),
}

/// A whole frame file held as one contiguous byte view — memory-mapped
/// where the platform supports it, heap-loaded otherwise — so frame
/// payloads can be consumed as zero-copy windows instead of per-frame
/// buffer reads.
///
/// `MappedFrames` itself performs no checksum verification; the intended
/// protocol (used by `lash-store` mapped segment scans) is to verify every
/// frame **once at open** with [`decode_frame_with`] and thereafter walk
/// the same bytes with [`split_frame_unverified`].
pub struct MappedFrames {
    backing: FrameBacking,
}

impl MappedFrames {
    /// Opens `path`, mapping it read-only when possible and falling back
    /// to reading it onto the heap (non-unix platforms, exotic
    /// filesystems where `mmap` fails).
    ///
    /// The mapped file must not be truncated or rewritten in place while
    /// this view is alive (see the soundness note on the FFI module);
    /// append-once, rename-replaced files — like sealed store segments —
    /// satisfy this by construction.
    pub fn open(path: &Path) -> io::Result<MappedFrames> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if len > 0 && usize::try_from(len).is_ok() {
                if let Ok(map) = mapped::Map::new(&file, len as usize) {
                    return Ok(MappedFrames {
                        backing: FrameBacking::Mapped(map),
                    });
                }
            }
        }
        Ok(MappedFrames {
            backing: FrameBacking::Heap(std::fs::read(path)?),
        })
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            FrameBacking::Mapped(map) => map.bytes(),
            FrameBacking::Heap(bytes) => bytes,
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True for an empty file.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the view is a real `mmap`, false on the heap fallback.
    pub fn is_mapped(&self) -> bool {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            matches!(self.backing, FrameBacking::Mapped(_))
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_round_trip() {
        let mut buf = Vec::new();
        encode_frame(b"hello", &mut buf);
        encode_frame(b"", &mut buf);
        encode_frame(&[0xffu8; 300], &mut buf);
        assert_eq!(
            buf.len(),
            encoded_frame_len(5) + encoded_frame_len(0) + encoded_frame_len(300)
        );
        let (p1, n1) = decode_frame(&buf).unwrap();
        assert_eq!(p1, b"hello");
        let (p2, n2) = decode_frame(&buf[n1..]).unwrap();
        assert_eq!(p2, b"");
        let (p3, n3) = decode_frame(&buf[n1 + n2..]).unwrap();
        assert_eq!(p3, &[0xffu8; 300]);
        assert_eq!(n1 + n2 + n3, buf.len());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        encode_frame(b"some payload", &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                decode_frame(&buf[..cut]),
                Err(DecodeError::UnexpectedEof),
                "cut at {cut}"
            );
        }
        assert_eq!(decode_frame(&[]), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let mut buf = Vec::new();
        encode_frame(b"sensitive bytes", &mut buf);
        for i in 1..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[i] ^= 0x01;
            assert!(
                decode_frame(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        varint::encode_u32(u32::MAX, &mut buf);
        assert_eq!(
            decode_frame(&buf),
            Err(DecodeError::Corrupt("frame length exceeds maximum"))
        );
    }

    #[test]
    fn io_round_trip() {
        let mut buf = Vec::new();
        write_frame(b"first", &mut buf).unwrap();
        write_frame(b"second", &mut buf).unwrap();
        let mut cursor = &buf[..];
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            FrameRead::Payload(b"first".to_vec())
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            FrameRead::Payload(b"second".to_vec())
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), FrameRead::Eof);
    }

    #[test]
    fn io_truncation_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(b"payload", &mut buf).unwrap();
        for cut in 1..buf.len() {
            let mut cursor = &buf[..cut];
            let err = read_frame(&mut cursor).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn io_corruption_is_invalid_data() {
        let mut buf = Vec::new();
        write_frame(b"payload", &mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        let mut cursor = &buf[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn checksum_is_stable() {
        // Pinned so the on-disk format cannot silently change.
        assert_eq!(checksum(b""), 0x811c_9dc5);
        assert_eq!(checksum(b"lash"), checksum(b"lash"));
        assert_ne!(checksum(b"lash"), checksum(b"lasi"));
    }

    #[test]
    fn wide_checksum_detects_flips_padding_and_length() {
        // Deterministic.
        assert_eq!(checksum_wide(b"lash"), checksum_wide(b"lash"));
        // Single-bit flips anywhere change the sum (bijective multiply).
        let payload: Vec<u8> = (0..37u8).collect();
        let base = checksum_wide(&payload);
        for i in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[i] ^= 0x40;
            assert_ne!(checksum_wide(&flipped), base, "flip at {i}");
        }
        // Trailing zeros are not absorbed by the tail padding.
        assert_ne!(checksum_wide(b"abc"), checksum_wide(b"abc\0"));
        assert_ne!(checksum_wide(b""), checksum_wide(b"\0\0\0\0\0\0\0\0"));
    }

    #[test]
    fn wide_frames_round_trip_and_reject_corruption() {
        let mut buf = Vec::new();
        write_frame_with(b"wide payload", &mut buf, FrameChecksum::Fnv1aWide).unwrap();
        write_frame_with(b"", &mut buf, FrameChecksum::Fnv1aWide).unwrap();
        let mut cursor = &buf[..];
        let mut scratch = Vec::new();
        let n = read_frame_into(&mut cursor, &mut scratch, FrameChecksum::Fnv1aWide)
            .unwrap()
            .unwrap();
        assert_eq!(&scratch[..n], b"wide payload");
        let n = read_frame_into(&mut cursor, &mut scratch, FrameChecksum::Fnv1aWide)
            .unwrap()
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(
            read_frame_into(&mut cursor, &mut scratch, FrameChecksum::Fnv1aWide).unwrap(),
            None
        );
        // A wide frame read with the classic flavor (or flipped) fails.
        let mut cursor = &buf[..];
        assert!(read_frame_into(&mut cursor, &mut scratch, FrameChecksum::Fnv1a).is_err());
        let mut corrupt = buf.clone();
        corrupt[3] ^= 0x10;
        let mut cursor = &corrupt[..];
        assert!(read_frame_into(&mut cursor, &mut scratch, FrameChecksum::Fnv1aWide).is_err());
    }

    #[test]
    fn split_frame_unverified_skips_the_checksum() {
        let mut buf = Vec::new();
        encode_frame(b"payload bytes", &mut buf);
        // Corrupt the checksum trailer: the unverified split still returns
        // the payload (that is its contract), the verified one rejects it.
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        let (payload, consumed) = split_frame_unverified(&buf).unwrap();
        assert_eq!(payload, b"payload bytes");
        assert_eq!(consumed, buf.len());
        assert!(decode_frame(&buf).is_err());
        // Structural errors are still caught.
        assert_eq!(
            split_frame_unverified(&buf[..3]),
            Err(DecodeError::UnexpectedEof)
        );
    }

    #[test]
    fn decode_frame_with_honors_the_flavor() {
        let mut buf = Vec::new();
        write_frame_with(b"wide", &mut buf, FrameChecksum::Fnv1aWide).unwrap();
        let (payload, n) = decode_frame_with(&buf, FrameChecksum::Fnv1aWide).unwrap();
        assert_eq!(payload, b"wide");
        assert_eq!(n, buf.len());
        assert!(decode_frame_with(&buf, FrameChecksum::Fnv1a).is_err());
    }

    #[test]
    fn mapped_frames_expose_the_file_bytes() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lash-mapped-frames-{}", std::process::id()));
        let mut bytes = Vec::new();
        encode_frame(b"first", &mut bytes);
        encode_frame(b"second", &mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MappedFrames::open(&path).unwrap();
        assert_eq!(mapped.bytes(), &bytes[..]);
        assert_eq!(mapped.len(), bytes.len());
        assert!(!mapped.is_empty());
        if cfg!(all(unix, target_pointer_width = "64")) {
            assert!(mapped.is_mapped(), "linux CI should take the mmap path");
        }
        // Walk the frames zero-copy.
        let (p1, n1) = split_frame_unverified(mapped.bytes()).unwrap();
        assert_eq!(p1, b"first");
        let (p2, n2) = split_frame_unverified(&mapped.bytes()[n1..]).unwrap();
        assert_eq!(p2, b"second");
        assert_eq!(n1 + n2, mapped.len());
        drop(mapped);
        // Empty files take the heap fallback (zero-length maps are invalid).
        std::fs::write(&path, b"").unwrap();
        let empty = MappedFrames::open(&path).unwrap();
        assert!(empty.is_empty());
        assert!(!empty.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_frame_into_reuses_a_grow_only_buffer() {
        let mut buf = Vec::new();
        write_frame(&[7u8; 100], &mut buf).unwrap();
        write_frame(&[9u8; 10], &mut buf).unwrap();
        let mut cursor = &buf[..];
        let mut scratch = Vec::new();
        assert_eq!(
            read_frame_into(&mut cursor, &mut scratch, FrameChecksum::Fnv1a).unwrap(),
            Some(100)
        );
        let cap = scratch.capacity();
        assert_eq!(
            read_frame_into(&mut cursor, &mut scratch, FrameChecksum::Fnv1a).unwrap(),
            Some(10)
        );
        assert_eq!(&scratch[..10], &[9u8; 10]);
        assert_eq!(
            scratch.capacity(),
            cap,
            "no reallocation for smaller frames"
        );
    }
}
