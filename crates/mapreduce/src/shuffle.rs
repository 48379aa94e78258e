//! Record framing, partitioning, and the map-side sort buffer.
//!
//! Map tasks serialize records as `[varint klen][key][varint vlen][value]`
//! into one `SortBuffer` per reduce partition, which keeps a 4-byte
//! offset per record. Finalizing a buffer builds a [`RunBuffer`], a *sorted
//! run*: its 16-byte record references are sorted by key bytes (preserving
//! emission order within equal keys), optionally combined, and either
//! handed to the reduce phase in memory or spilled to disk (see
//! [`crate::spill`]). Partition assignment hashes the encoded key, as
//! Hadoop's default `HashPartitioner` hashes serialized keys.

use std::cmp::Ordering;
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

/// A reference to one record inside a shuffle buffer: 16 bytes, so a sort
/// moves little and the buffer of references stays small. The value's range
/// is read back from its length prefix, which follows the key.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordRef {
    /// The key's first 8 bytes, big-endian, zero-padded: the sort orders
    /// most records on this word alone, without touching the data buffer.
    pub prefix: u64,
    /// Byte offset of the key.
    pub key_start: u32,
    /// Key length in bytes.
    pub key_len: u32,
}

impl RecordRef {
    /// Orders two records of one buffer by key bytes, then by position —
    /// which is push order, since every record starts after the previous
    /// one ends. Equal prefixes fall back to the data only when both keys
    /// run past 8 bytes; otherwise the shorter key is a prefix of the
    /// longer one (its padding zeros matched real bytes), so lengths
    /// decide.
    fn cmp_in(&self, other: &RecordRef, data: &[u8]) -> Ordering {
        self.prefix
            .cmp(&other.prefix)
            .then_with(|| {
                if self.key_len.min(other.key_len) > 8 {
                    let tail = |r: &RecordRef| &data[r.key_start as usize + 8..r.key_end()];
                    tail(self).cmp(tail(other))
                } else {
                    self.key_len.cmp(&other.key_len)
                }
            })
            .then(self.key_start.cmp(&other.key_start))
    }

    fn key_end(&self) -> usize {
        (self.key_start + self.key_len) as usize
    }

    /// The reference of the record framed at `offset` in `data`. Only the
    /// key's length prefix is decoded, and a one-byte prefix (keys under
    /// 128 bytes) skips the varint loop.
    fn at(data: &[u8], offset: u32) -> RecordRef {
        let at = offset as usize;
        let (key_len, n) = match data[at] {
            len if len < 0x80 => (len as usize, 1),
            _ => {
                let (len, n) = decode_u64(&data[at..]).expect("records are framed on push");
                (len as usize, n)
            }
        };
        let key_start = at + n;
        RecordRef {
            prefix: key_prefix(&data[key_start..key_start + key_len]),
            key_start: key_start as u32,
            key_len: key_len as u32,
        }
    }
}

/// The sort prefix of a key: its first 8 bytes, big-endian, zero-padded.
/// Comparing prefixes never contradicts comparing keys: a shorter key pads
/// with the smallest byte, exactly where lexicographic order ranks it.
pub(crate) fn key_prefix(key: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = key.len().min(8);
    word[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(word)
}

/// A buffer of framed records plus their references — the unit the map side
/// sorts, combines, and ships (in memory or as a spilled run), and the unit
/// the merge-pass combine and the spill reader work on.
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
        assert_addressable(&self.data, key, value);
        let start = self.data.len() as u32;
        let sizes = write_record(&mut self.data, key, value);
        self.recs.push(RecordRef {
            prefix: key_prefix(key),
            key_start: start + encoded_len_u64(key.len() as u64) as u32,
            key_len: key.len() as u32,
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
        &self.data[r.key_start as usize..r.key_end()]
    }

    /// The value bytes of record `r`.
    pub fn value(&self, r: &RecordRef) -> &[u8] {
        let (start, end) = self.value_range(r);
        &self.data[start..end]
    }

    /// The full framed bytes of record `r` (length prefixes included).
    pub fn framed(&self, r: &RecordRef) -> &[u8] {
        let start = r.key_start as usize - encoded_len_u64(r.key_len as u64);
        let (_, end) = self.value_range(r);
        &self.data[start..end]
    }

    /// The byte range of record `r`'s value, read off its length prefix.
    fn value_range(&self, r: &RecordRef) -> (usize, usize) {
        let at = r.key_end();
        let (len, n) = decode_u64(&self.data[at..]).expect("records are framed on push or parse");
        (at + n, at + n + len as usize)
    }

    /// Sorts the record references by key bytes; records with equal keys
    /// keep their push order. The data bytes are not moved.
    ///
    /// Below `RADIX_CUTOFF` (256) records this is an in-place comparison sort,
    /// whose position tie-break makes it reproduce the stable sort. From
    /// there on it is a stable LSD radix sort on `(prefix, min(key_len,
    /// 9))`, ping-ponging between the references and `scratch`: that
    /// orders every key of at most 8 bytes completely, and leaves the keys
    /// past 8 bytes that share a prefix next to each other in push order,
    /// so a comparison sort on their tails finishes them. The references
    /// are in push order whenever a sort starts (`push`, `parse`,
    /// `sort_into`), so both sorts give the same order.
    pub fn sort(&mut self, scratch: &mut Vec<RecordRef>) {
        let data = &self.data;
        let by_key = |a: &RecordRef, b: &RecordRef| a.cmp_in(b, data);
        if self.recs.len() < RADIX_CUTOFF {
            self.recs.sort_unstable_by(by_key);
            return;
        }
        radix_sort(&mut self.recs, scratch);
        let shared_long_prefix =
            |a: &RecordRef, b: &RecordRef| a.key_len > 8 && b.key_len > 8 && a.prefix == b.prefix;
        for tied in self.recs.chunk_by_mut(shared_long_prefix) {
            if tied.len() > 1 {
                tied.sort_unstable_by(by_key);
            }
        }
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
            let (klen, n) = decode_u64(&data[pos..]).map_err(|_| corrupt("key length"))?;
            let kstart = pos + n;
            let kend = field_end(kstart, klen, data.len()).ok_or_else(|| corrupt("key bytes"))?;
            let (vlen, n) = decode_u64(&data[kend..]).map_err(|_| corrupt("value length"))?;
            let vstart = kend + n;
            pos = field_end(vstart, vlen, data.len()).ok_or_else(|| corrupt("value bytes"))?;
            recs.push(RecordRef {
                prefix: key_prefix(&data[kstart..kend]),
                key_start: kstart as u32,
                key_len: klen as u32,
            });
        }
        Ok(RunBuffer { data, recs })
    }
}

/// Below this many records [`RunBuffer::sort`] sorts by comparison: a
/// radix sort's fixed cost (nine histograms) is not worth it.
const RADIX_CUTOFF: usize = 256;

/// Stable LSD radix sort of `recs` on `(prefix, min(key_len, 9))`, one byte
/// per pass, least significant first: the clamped length, then the prefix
/// from its last byte to its first. One read of `recs` builds all nine
/// histograms, and a pass whose byte is the same for every record is
/// skipped. The result ends up in `recs`, swapped with `scratch` as needed.
fn radix_sort(recs: &mut Vec<RecordRef>, scratch: &mut Vec<RecordRef>) {
    fn digit(r: &RecordRef, pass: usize) -> usize {
        match pass {
            0 => r.key_len.min(9) as usize,
            _ => (r.prefix >> (8 * (pass - 1))) as u8 as usize,
        }
    }
    let n = recs.len();
    let mut counts = [[0u32; 256]; 9];
    for r in recs.iter() {
        for (pass, count) in counts.iter_mut().enumerate() {
            count[digit(r, pass)] += 1;
        }
    }
    scratch.clear();
    scratch.resize(n, RecordRef::default());
    for (pass, count) in counts.iter().enumerate() {
        if count[digit(&recs[0], pass)] as usize == n {
            continue;
        }
        let mut next = [0u32; 256];
        let mut sum = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = sum;
            sum += c;
        }
        for r in recs.iter() {
            let bucket = &mut next[digit(r, pass)];
            scratch[*bucket as usize] = *r;
            *bucket += 1;
        }
        std::mem::swap(recs, scratch);
    }
}

/// Panics unless a record of `key` and `value` appended to `data` still
/// ends within `u32` offsets (20 bytes cover both length prefixes).
fn assert_addressable(data: &[u8], key: &[u8], value: &[u8]) {
    assert!(
        data.len() + key.len() + value.len() + 20 <= u32::MAX as usize,
        "shuffle buffer exceeds 4 GiB; configure spill_threshold_bytes to bound it"
    );
}

/// A map-side sort buffer: framed records plus one 4-byte offset per
/// record. The 16-byte [`RecordRef`]s a sort needs are built only when the
/// buffer is finalized ([`SortBuffer::sort_into`]), one partition at a
/// time, so a buffer that is being filled, or waits for its spill, costs 4
/// bytes per record on top of its data instead of 16.
#[derive(Debug, Default)]
pub(crate) struct SortBuffer {
    /// Concatenated framed records.
    data: Vec<u8>,
    /// Where each record starts in `data`, in push order.
    offsets: Vec<u32>,
}

impl SortBuffer {
    /// Appends one record, returning its framed size in bytes.
    ///
    /// # Panics
    /// Past 4 GiB, like [`RunBuffer::push`].
    pub(crate) fn push(&mut self, key: &[u8], value: &[u8]) -> usize {
        assert_addressable(&self.data, key, value);
        self.offsets.push(self.data.len() as u32);
        let (_, framed) = write_record(&mut self.data, key, value);
        framed as usize
    }

    /// True if no records are buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Moves the records into a sorted run: one reference per offset,
    /// sorted by [`RunBuffer::sort`] with `scratch`. The run takes the data
    /// bytes without a copy, and fills `recs` (cleared first) so a caller
    /// can reuse one reference vector across buffers. The buffer is left
    /// empty, keeping its offsets' capacity.
    pub(crate) fn sort_into(
        &mut self,
        mut recs: Vec<RecordRef>,
        scratch: &mut Vec<RecordRef>,
    ) -> RunBuffer {
        let data = std::mem::take(&mut self.data);
        recs.clear();
        recs.extend(self.offsets.iter().map(|&at| RecordRef::at(&data, at)));
        self.offsets.clear();
        let mut run = RunBuffer { data, recs };
        run.sort(scratch);
        run
    }

    /// Takes back the bytes [`SortBuffer::sort_into`] moved out, cleared,
    /// so the next records reuse their capacity.
    pub(crate) fn reuse(&mut self, mut data: Vec<u8>) {
        debug_assert!(self.is_empty(), "reuse on a filled buffer");
        data.clear();
        self.data = data;
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
    use proptest::prelude::*;

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
            assert_eq!(run.framed(a), reparsed.framed(b));
        }
    }

    /// Keys over `{\0, 1, 0xff}`, some behind a shared 8-byte stem and some
    /// behind a shared 128-byte one, plus a few keys drawn over and over:
    /// duplicates (long runs of them), empty keys, keys shorter than the
    /// 8-byte prefix, keys sharing it that differ only past it, keys that
    /// differ only by trailing zeros (the prefix's padding), and keys whose
    /// length prefix takes two bytes all come up often.
    fn arb_key() -> impl Strategy<Value = Vec<u8>> {
        let bytes = |len| {
            prop::collection::vec(0usize..3, len).prop_map(|k| {
                k.into_iter()
                    .map(|b| [0u8, 1, 0xff][b])
                    .collect::<Vec<u8>>()
            })
        };
        let repeated: [&[u8]; 4] = [b"dup", b"stemstem\x01", b"stemstem", b""];
        prop_oneof![
            3 => bytes(0..12),
            3 => bytes(0..4).prop_map(|tail| [b"stemstem".as_slice(), &tail].concat()),
            1 => bytes(0..4).prop_map(|tail| [[1u8; 128].as_slice(), &tail].concat()),
            2 => (0usize..4).prop_map(move |i| repeated[i].to_vec()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sort is the stable sort by key bytes: every key in the same
        /// place, equal keys in push order — whether the references were
        /// pushed with the records ([`RunBuffer`]) or built from 4-byte
        /// offsets at sort time ([`SortBuffer`]), and on either side of
        /// [`RADIX_CUTOFF`]. A `dominant` key replaces a random share of
        /// the draws, so some radix passes see one byte in most but not all
        /// records. Both sorts share one scratch array, so the second finds
        /// it holding the first one's references.
        #[test]
        fn sort_is_the_stable_sort_by_key_bytes(
            random in prop::collection::vec(arb_key(), 0..2000),
            dominant in arb_key(),
            share in 0usize..100,
        ) {
            let long = [7u8; 200];
            let edge_cases: [&[u8]; 17] = [
                b"banana",
                b"apple",
                b"banana",
                b"",
                b"\0",
                b"a",
                b"a\0",
                b"abcdefgh",
                b"abcdefghz",
                b"abcdefgh\0",
                b"abcdefghi",
                b"abcdefgh",
                b"",
                &long[..127],
                &long[..128],
                &long,
                &long[..128],
            ];
            let keys: Vec<&[u8]> = edge_cases
                .into_iter()
                .chain(random.iter().enumerate().map(|(i, key)| {
                    if i % 100 < share { dominant.as_slice() } else { key.as_slice() }
                }))
                .collect();
            let mut run = RunBuffer::default();
            let mut offsets = SortBuffer::default();
            for (i, key) in keys.iter().enumerate() {
                run.push(key, &(i as u32).to_be_bytes());
                offsets.push(key, &(i as u32).to_be_bytes());
            }
            let mut scratch = Vec::new();
            run.sort(&mut scratch);
            let from_offsets = offsets.sort_into(Vec::new(), &mut scratch);
            prop_assert!(offsets.is_empty());
            // Same bytes, and the same references as the ones pushed.
            let refs = |r: &RunBuffer| -> Vec<(u64, u32, u32)> {
                r.recs.iter().map(|r| (r.prefix, r.key_start, r.key_len)).collect()
            };
            prop_assert_eq!(&from_offsets.data, &run.data);
            prop_assert_eq!(refs(&from_offsets), refs(&run));
            let mut stable: Vec<(usize, &[u8])> = keys.iter().copied().enumerate().collect();
            stable.sort_by(|a, b| a.1.cmp(b.1));
            let want: Vec<(&[u8], [u8; 4])> = stable
                .into_iter()
                .map(|(i, key)| (key, (i as u32).to_be_bytes()))
                .collect();
            for sorted in [&run, &from_offsets] {
                let got: Vec<(&[u8], &[u8])> =
                    sorted.recs.iter().map(|r| (sorted.key(r), sorted.value(r))).collect();
                prop_assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    prop_assert_eq!(g.0, w.0);
                    prop_assert_eq!(g.1, &w.1[..]);
                }
            }
        }
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
            assert_eq!(
                (a.prefix, a.key_start, a.key_len),
                (b.prefix, b.key_start, b.key_len)
            );
            assert_eq!(run.value(a), reparsed.value(b));
            assert_eq!(run.framed(a), reparsed.framed(b));
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
