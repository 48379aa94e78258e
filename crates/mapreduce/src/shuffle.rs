//! Record framing, partitioning, and the map-side sort buffer.
//!
//! Map tasks serialize records as `[varint klen][key][varint vlen][value]`
//! into one [`RunBuffer`] per reduce partition. A finalized buffer is a
//! *sorted run*: its record references are stably sorted by key bytes
//! (preserving emission order within equal keys), optionally combined, and
//! either handed to the reduce phase in memory or spilled to disk (see
//! [`crate::spill`]). Partition assignment hashes the encoded key, as
//! Hadoop's default `HashPartitioner` hashes serialized keys.

use std::hash::{Hash, Hasher};

use lash_encoding::varint::{decode_u64, encode_u64, encoded_len_u64};

use crate::EngineError;

/// Writes one framed record, returning (payload bytes, materialized bytes).
pub fn write_record(buf: &mut Vec<u8>, key: &[u8], value: &[u8]) -> (u64, u64) {
    let before = buf.len();
    encode_u64(key.len() as u64, buf);
    buf.extend_from_slice(key);
    encode_u64(value.len() as u64, buf);
    buf.extend_from_slice(value);
    let payload = (key.len() + value.len()) as u64;
    (payload, (buf.len() - before) as u64)
}

/// The reduce partition of an encoded key.
pub fn partition_of(key: &[u8], num_partitions: usize) -> usize {
    // FNV-1a over key bytes: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % num_partitions as u64) as usize
}

/// A reference to one record inside a shuffle buffer.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef {
    /// Byte offset of the record's first framing byte.
    pub start: u32,
    /// Byte range of the key.
    pub key: (u32, u32),
    /// Byte range of the value. The record ends at `value.1`.
    pub value: (u32, u32),
}

impl RecordRef {
    /// The full framed byte range of the record.
    pub fn framed(&self) -> (u32, u32) {
        (self.start, self.value.1)
    }
}

/// A buffer of framed records plus their references — the unit the map side
/// accumulates, sorts, combines, and ships (in memory or as a spilled run).
#[derive(Debug, Default)]
pub struct RunBuffer {
    /// Concatenated framed records.
    pub data: Vec<u8>,
    /// One reference per record, in push order until [`RunBuffer::sort`].
    pub recs: Vec<RecordRef>,
}

impl RunBuffer {
    /// Appends one record, returning (payload bytes, materialized bytes).
    ///
    /// # Panics
    /// A single buffer addresses records with `u32` offsets; pushing past
    /// 4 GiB panics rather than silently corrupting record ranges. Set
    /// `spill_threshold_bytes` to bound buffers long before that.
    pub fn push(&mut self, key: &[u8], value: &[u8]) -> (u64, u64) {
        assert!(
            self.data.len() + key.len() + value.len() + 20 <= u32::MAX as usize,
            "shuffle buffer exceeds 4 GiB; configure spill_threshold_bytes to bound it"
        );
        let start = self.data.len() as u32;
        let sizes = write_record(&mut self.data, key, value);
        let kstart = start + encoded_len_u64(key.len() as u64) as u32;
        let vstart = kstart + key.len() as u32 + encoded_len_u64(value.len() as u64) as u32;
        self.recs.push(RecordRef {
            start,
            key: (kstart, kstart + key.len() as u32),
            value: (vstart, vstart + value.len() as u32),
        });
        sizes
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True if no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Drops all records, keeping allocations for reuse.
    pub fn clear(&mut self) {
        self.data.clear();
        self.recs.clear();
    }

    /// The key bytes of record `r`.
    pub fn key(&self, r: &RecordRef) -> &[u8] {
        &self.data[r.key.0 as usize..r.key.1 as usize]
    }

    /// The value bytes of record `r`.
    pub fn value(&self, r: &RecordRef) -> &[u8] {
        &self.data[r.value.0 as usize..r.value.1 as usize]
    }

    /// The full framed bytes of record `r` (length prefixes included).
    pub fn framed(&self, r: &RecordRef) -> &[u8] {
        let (lo, hi) = r.framed();
        &self.data[lo as usize..hi as usize]
    }

    /// Stable-sorts the record references by key bytes; records with equal
    /// keys keep their emission order. The data bytes are not moved.
    pub fn sort(&mut self) {
        let data = std::mem::take(&mut self.data);
        self.recs.sort_by(|a, b| {
            data[a.key.0 as usize..a.key.1 as usize].cmp(&data[b.key.0 as usize..b.key.1 as usize])
        });
        self.data = data;
    }

    /// Parses a raw byte buffer of framed records into a `RunBuffer` (record
    /// references in storage order). Used by the reduce side to re-validate
    /// spilled chunks; any framing inconsistency is corruption. `data` may
    /// come straight off disk, so every length prefix is range-checked
    /// before it moves the cursor.
    pub fn parse(data: Vec<u8>) -> Result<RunBuffer, EngineError> {
        let corrupt = |what: &str| EngineError::CorruptShuffle(what.into());
        let mut recs = Vec::new();
        let mut pos = 0usize;
        while pos < data.len() {
            let start = pos as u32;
            let (klen, n) = decode_u64(&data[pos..]).map_err(|_| corrupt("key length"))?;
            let kstart = pos + n;
            let kend = field_end(kstart, klen, data.len()).ok_or_else(|| corrupt("key bytes"))?;
            let (vlen, n) = decode_u64(&data[kend..]).map_err(|_| corrupt("value length"))?;
            let vstart = kend + n;
            pos = field_end(vstart, vlen, data.len()).ok_or_else(|| corrupt("value bytes"))?;
            recs.push(RecordRef {
                start,
                key: (kstart as u32, kend as u32),
                value: (vstart as u32, pos as u32),
            });
        }
        Ok(RunBuffer { data, recs })
    }
}

/// The end of a `len`-byte field starting at `start`, if it ends within
/// `limit` bytes.
fn field_end(start: usize, len: u64, limit: usize) -> Option<usize> {
    usize::try_from(len)
        .ok()?
        .checked_add(start)
        .filter(|&end| end <= limit)
}

/// A hash helper used in tests and by jobs that partition typed keys.
pub fn stable_hash<T: Hash>(value: &T) -> u64 {
    // Not DefaultHasher: its seeds are stable but unspecified across
    // versions; FNV over the Hash stream keeps partition assignment
    // reproducible.
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_parse_agree_on_ranges() {
        let mut run = RunBuffer::default();
        run.push(b"banana", b"1");
        run.push(b"apple", b"22");
        run.push(b"", b"");
        let reparsed = RunBuffer::parse(run.data.clone()).unwrap();
        assert_eq!(run.len(), reparsed.len());
        for (a, b) in run.recs.iter().zip(reparsed.recs.iter()) {
            assert_eq!(run.key(a), reparsed.key(b));
            assert_eq!(run.value(a), reparsed.value(b));
            assert_eq!(a.framed(), b.framed());
        }
    }

    #[test]
    fn sort_is_stable_by_key_bytes() {
        let mut run = RunBuffer::default();
        run.push(b"banana", b"1");
        run.push(b"apple", b"2");
        run.push(b"banana", b"3");
        run.sort();
        let keys: Vec<&[u8]> = run.recs.iter().map(|r| run.key(r)).collect();
        assert_eq!(keys, vec![b"apple".as_ref(), b"banana", b"banana"]);
        let banana_vals: Vec<&[u8]> = run
            .recs
            .iter()
            .filter(|r| run.key(r) == b"banana")
            .map(|r| run.value(r))
            .collect();
        assert_eq!(banana_vals, vec![b"1".as_ref(), b"3".as_ref()]);
    }

    #[test]
    fn framed_bytes_round_trip_through_a_fresh_buffer() {
        let mut run = RunBuffer::default();
        run.push(b"key", b"value-bytes");
        let framed = run.framed(&run.recs[0]).to_vec();
        let back = RunBuffer::parse(framed).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.key(&back.recs[0]), b"key");
        assert_eq!(back.value(&back.recs[0]), b"value-bytes");
    }

    #[test]
    fn byte_accounting() {
        let mut buf = Vec::new();
        let (payload, materialized) = write_record(&mut buf, b"abc", b"de");
        assert_eq!(payload, 5);
        assert_eq!(materialized, 7); // two 1-byte length prefixes
        assert_eq!(buf.len(), 7);
    }

    #[test]
    fn varint_len_matches_encoding() {
        // `push` derives record ranges from the prefix lengths instead of
        // re-reading them; lengths straddling varint byte boundaries must
        // land exactly where `parse` finds them.
        let mut run = RunBuffer::default();
        for len in [0usize, 1, 127, 128, 16_383, 16_384] {
            run.push(&vec![b'k'; len], &vec![b'v'; len + 1]);
        }
        let reparsed = RunBuffer::parse(run.data.clone()).unwrap();
        assert_eq!(run.len(), reparsed.len());
        for (a, b) in run.recs.iter().zip(&reparsed.recs) {
            assert_eq!((a.start, a.key, a.value), (b.start, b.key, b.value));
        }
    }

    #[test]
    fn corrupt_data_is_rejected() {
        // Truncated value.
        let mut buf = Vec::new();
        write_record(&mut buf, b"k", b"value");
        buf.truncate(buf.len() - 2);
        assert!(RunBuffer::parse(buf).is_err());
        // Length prefix pointing past the end.
        let bad = vec![0x20, b'a'];
        assert!(RunBuffer::parse(bad).is_err());
        // A length prefix so large that adding it to the cursor overflows.
        let mut huge = Vec::new();
        encode_u64(u64::MAX - 3, &mut huge);
        huge.push(b'a');
        assert!(RunBuffer::parse(huge).is_err());
    }

    #[test]
    fn partition_of_is_stable_and_in_range() {
        for n in 1..16 {
            for key in [b"a".as_ref(), b"bc", b"", b"longer-key-material"] {
                let p = partition_of(key, n);
                assert!(p < n);
                assert_eq!(p, partition_of(key, n));
            }
        }
    }

    #[test]
    fn stable_hash_differs_for_values() {
        assert_ne!(stable_hash(&1u32), stable_hash(&2u32));
        assert_eq!(stable_hash(&"x"), stable_hash(&"x"));
    }
}
