//! The distributed pipelines, expressed as jobs on [`lash_mapreduce`].
//!
//! * [`flist_job`] — the preprocessing job computing the generalized f-list
//!   (paper Sec. 3.3), one map task per shard with in-mapper combining;
//! * [`lash_job`] — the LASH partition-and-mine job (Alg. 1) and the public
//!   [`Lash`](lash_job::Lash) driver. Both LASH jobs take their input as a
//!   [`ShardedCorpus`](crate::ShardedCorpus): an on-disk corpus, or an
//!   in-memory database cut into split-sized
//!   [`shards`](crate::SequenceDatabase::shards);
//! * [`naive_job`] / [`semi_naive_job`] — the word-count-style baselines
//!   (Secs. 3.2, 3.3), two entry points into one [`count_job`];
//! * [`mgfsm`] — MG-FSM, i.e. item-based partitioning without hierarchies
//!   (Sec. 6.3, footnote 3).
//!
//! All jobs serialize their intermediate data through [`lash_encoding`]'s
//! varint/sequence codecs, so the engine's `MAP_OUTPUT_BYTES` counter measures
//! the representation the paper measures. Combiners and reducers work on
//! those encoded bytes and decode only what they keep.

pub mod count_job;
pub mod flist_job;
pub mod lash_job;
pub mod mgfsm;
pub mod naive_job;
pub mod semi_naive_job;

use lash_encoding::varint;
use lash_mapreduce::{Combined, Values};

/// Encodes a `u32` key (item rank or raw id) as a varint.
pub(crate) fn encode_u32_key(key: u32, buf: &mut Vec<u8>) {
    varint::encode_u32(key, buf);
}

/// Decodes a `u32` key.
pub(crate) fn decode_u32_key(bytes: &[u8]) -> u32 {
    varint::decode_u32(bytes).expect("valid u32 key").0
}

/// Encodes a `u64` count value as a varint.
pub(crate) fn encode_count(count: u64, buf: &mut Vec<u8>) {
    varint::encode_u64(count, buf);
}

/// Decodes a `u64` count value.
pub(crate) fn decode_count(bytes: &[u8]) -> u64 {
    varint::decode_u64(bytes).expect("valid count").0
}

/// Encodes a (sequence, weight) value: varint weight, then the sequence in
/// the blank-aware wire format.
pub(crate) fn encode_weighted_seq(seq: &[u32], weight: u64, buf: &mut Vec<u8>) {
    varint::encode_u64(weight, buf);
    lash_encoding::encode_sequence(seq, buf);
}

/// Splits a (sequence, weight) value into its weight and the encoded
/// sequence bytes.
pub(crate) fn split_weighted_seq(bytes: &[u8]) -> (u64, &[u8]) {
    let (weight, n) = varint::decode_u64(bytes).expect("valid weight");
    (weight, &bytes[n..])
}

/// Encodes a pattern key (a blank-free rank sequence).
pub(crate) fn encode_pattern_key(pattern: &[u32], buf: &mut Vec<u8>) {
    lash_encoding::encode_sequence(pattern, buf);
}

/// Decodes a pattern key.
pub(crate) fn decode_pattern_key(bytes: &[u8]) -> Vec<u32> {
    lash_encoding::decode_sequence(bytes).expect("valid pattern key")
}

/// The combiner of every count-valued job: sums the group's varint counts.
/// A one-value group passes through untouched.
pub(crate) fn combine_counts(values: &[&[u8]], out: &mut Combined<'_>) {
    if let [only] = values {
        out.push(only);
        return;
    }
    let sum: u64 = values.iter().map(|v| decode_count(v)).sum();
    out.push_with(|buf| encode_count(sum, buf));
}

/// Sums a reduce group's varint counts.
pub(crate) fn sum_counts(values: &mut Values<'_, '_>) -> u64 {
    let mut sum = 0;
    while let Some(v) = values.next() {
        sum += decode_count(v);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_and_count_round_trips() {
        let mut buf = Vec::new();
        encode_u32_key(12345, &mut buf);
        assert_eq!(decode_u32_key(&buf), 12345);
        buf.clear();
        encode_count(u64::MAX, &mut buf);
        assert_eq!(decode_count(&buf), u64::MAX);
    }

    #[test]
    fn weighted_seq_round_trips() {
        let mut buf = Vec::new();
        let seq = vec![0u32, crate::BLANK, 7];
        encode_weighted_seq(&seq, 42, &mut buf);
        let (w, s) = split_weighted_seq(&buf);
        assert_eq!(w, 42);
        assert_eq!(lash_encoding::decode_sequence(s).unwrap(), seq);
    }

    #[test]
    fn pattern_key_round_trips() {
        let mut buf = Vec::new();
        encode_pattern_key(&[3, 1, 4, 1, 5], &mut buf);
        assert_eq!(decode_pattern_key(&buf), vec![3, 1, 4, 1, 5]);
    }
}
