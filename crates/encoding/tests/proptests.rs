//! Property tests for the codec crate: every encoder/decoder pair round-trips
//! on arbitrary input, and decoders never panic on arbitrary bytes.

use lash_encoding::{
    codec, decode_sequence, decode_u32, decode_u64, encode_sequence, encode_u32, encode_u64,
    encoded_len_u32, encoded_len_u64, group_varint, DecodeError, BLANK,
};
use proptest::prelude::*;

/// An independent re-statement of the documented group-varint layout, used
/// to pin the production encoder byte for byte: groups of four values, a
/// control byte holding each value's little-endian byte length minus one in
/// two bits, the tail group zero-padded.
fn reference_group_varint(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    for chunk in values.chunks(4) {
        let mut group = [0u32; 4];
        group[..chunk.len()].copy_from_slice(chunk);
        let len = |v: u32| -> usize {
            match v {
                0..=0xff => 1,
                0x100..=0xffff => 2,
                0x1_0000..=0xff_ffff => 3,
                _ => 4,
            }
        };
        let mut ctrl = 0u8;
        for (i, &v) in group.iter().enumerate() {
            ctrl |= ((len(v) - 1) as u8) << (2 * i);
        }
        out.push(ctrl);
        for &v in &group {
            out.extend_from_slice(&v.to_le_bytes()[..len(v)]);
        }
    }
    out
}

/// A value mix shaped like store payloads: mostly small (frequent) ids,
/// some wide, some max-width, and blank-sentinel runs.
fn gv_values() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        prop_oneof![
            4 => (0u32..256).prop_map(|v| v),
            2 => (0u32..65_536).prop_map(|v| v),
            1 => any::<u32>(),
            1 => Just(u32::MAX),
            1 => Just(BLANK),
        ],
        0..257,
    )
}

proptest! {
    #[test]
    fn varint_u32_round_trips(v in any::<u32>()) {
        let mut buf = Vec::new();
        encode_u32(v, &mut buf);
        prop_assert_eq!(buf.len(), encoded_len_u32(v));
        let (decoded, n) = decode_u32(&buf).unwrap();
        prop_assert_eq!(decoded, v);
        prop_assert_eq!(n, buf.len());
    }

    #[test]
    fn varint_u64_round_trips(v in any::<u64>()) {
        let mut buf = Vec::new();
        encode_u64(v, &mut buf);
        prop_assert_eq!(buf.len(), encoded_len_u64(v));
        let (decoded, n) = decode_u64(&buf).unwrap();
        prop_assert_eq!(decoded, v);
        prop_assert_eq!(n, buf.len());
    }

    #[test]
    fn sequence_round_trips(seq in prop::collection::vec(0u32..10_000, 0..64)) {
        let mut buf = Vec::new();
        encode_sequence(&seq, &mut buf);
        prop_assert_eq!(decode_sequence(&buf).unwrap(), seq);
    }

    #[test]
    fn sequence_with_blanks_round_trips(
        seq in prop::collection::vec(prop_oneof![3 => (0u32..1000).prop_map(|v| v), 1 => Just(BLANK)], 0..64)
    ) {
        let mut buf = Vec::new();
        encode_sequence(&seq, &mut buf);
        prop_assert_eq!(buf.len(), codec::SequenceCodec::encoded_len(&seq));
        prop_assert_eq!(decode_sequence(&buf).unwrap(), seq);
    }

    #[test]
    fn decoders_never_panic_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = decode_u32(&bytes);
        let _ = decode_u64(&bytes);
        let _ = decode_sequence(&bytes);
    }

    #[test]
    fn group_varint_round_trips_byte_compatibly(values in gv_values()) {
        let mut buf = Vec::new();
        group_varint::encode(&values, &mut buf);
        // Byte-compatible with the documented layout (independent encoder).
        prop_assert_eq!(&buf, &reference_group_varint(&values));
        prop_assert_eq!(buf.len(), group_varint::encoded_len(&values));
        let mut out = vec![0u32; values.len()];
        let consumed = group_varint::decode(&buf, &mut out).unwrap();
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(out, values);
    }

    #[test]
    fn group_varint_rejects_truncation_with_typed_errors(values in gv_values(), cut_seed in 0usize..10_000) {
        if !values.is_empty() {
            let mut buf = Vec::new();
            group_varint::encode(&values, &mut buf);
            let cut = cut_seed % buf.len();
            let mut out = vec![0u32; values.len()];
            prop_assert_eq!(
                group_varint::decode(&buf[..cut], &mut out),
                Err(DecodeError::UnexpectedEof)
            );
        }
    }

    #[test]
    fn group_varint_runs_round_trip_with_blanks(values in gv_values()) {
        // BLANK == u32::MAX: both the Just(BLANK) and Just(u32::MAX) arms
        // above land in blank runs, and round-trip regardless.
        let mut buf = Vec::new();
        group_varint::encode_runs(&values, BLANK, &mut buf);
        let mut out = Vec::new();
        group_varint::decode_runs(&buf, BLANK, &mut out, values.len()).unwrap();
        prop_assert_eq!(out, values);
    }

    #[test]
    fn group_varint_run_decoding_never_panics_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..128),
        n in 0usize..64,
    ) {
        let mut out = vec![0u32; n];
        let _ = group_varint::decode(&bytes, &mut out);
        let mut runs = Vec::new();
        // Garbage either decodes to *some* values or fails with a typed
        // error — never a panic; corruption of run structure is typed too.
        match group_varint::decode_runs(&bytes, BLANK, &mut runs, 1 << 16) {
            Ok(()) => {}
            Err(DecodeError::UnexpectedEof)
            | Err(DecodeError::Overflow)
            | Err(DecodeError::Corrupt(_)) => {}
        }
    }

    #[test]
    fn consecutive_varints_round_trip(values in prop::collection::vec(any::<u32>(), 0..32)) {
        let mut buf = Vec::new();
        for &v in &values {
            encode_u32(v, &mut buf);
        }
        let mut reader = lash_encoding::varint::VarintReader::new(&buf);
        for &v in &values {
            prop_assert_eq!(reader.read_u32().unwrap(), v);
        }
        prop_assert!(reader.is_empty());
    }
}
