//! The wire format for (possibly blank-containing) item sequences.
//!
//! Layout: a varint token stream. Token `0` introduces a blank run and is
//! followed by the varint run length; token `k > 0` encodes item id `k - 1`.
//! Because LASH re-encodes items so that frequent items have small ids
//! (paper Sec. 6.1), most tokens occupy a single byte.

use crate::rle::{self, RleToken};
use crate::varint;
use crate::DecodeError;

/// The in-memory blank sentinel. Chosen as `u32::MAX` because the paper
/// requires `w < ␣` for every item `w` under the frequency-descending total
/// order (small id = frequent item).
pub const BLANK: u32 = u32::MAX;

/// Appends the encoding of `items` (which may contain [`BLANK`]) to `buf`.
///
/// Item ids must be `< u32::MAX - 1` so that `id + 1` does not collide with the
/// blank-run marker after shifting.
pub fn encode_sequence(items: &[u32], buf: &mut Vec<u8>) {
    for token in rle::to_tokens(items, BLANK) {
        match token {
            RleToken::Item(id) => {
                debug_assert!(id < u32::MAX - 1, "item id too large for codec");
                varint::encode_u32(id + 1, buf);
            }
            RleToken::Blanks(n) => {
                varint::encode_u32(0, buf);
                varint::encode_u32(n, buf);
            }
        }
    }
}

/// Decodes a sequence previously written by [`encode_sequence`], consuming the
/// entire input slice.
pub fn decode_sequence(input: &[u8]) -> Result<Vec<u32>, DecodeError> {
    // Every token takes at least one byte, so only blank runs can outgrow
    // this: one allocation per sequence instead of one per doubling.
    let mut items = Vec::with_capacity(input.len());
    decode_sequence_into(input, &mut items)?;
    Ok(items)
}

/// Decodes a sequence previously written by [`encode_sequence`], consuming
/// the entire input slice, and appends its items to `items` — so many
/// sequences can decode into one shared arena. On error, `items` may hold
/// part of the sequence.
pub fn decode_sequence_into(mut input: &[u8], items: &mut Vec<u32>) -> Result<(), DecodeError> {
    while !input.is_empty() {
        let (tok, n) = varint::decode_u32(input)?;
        input = &input[n..];
        if tok == 0 {
            let (run, n) = varint::decode_u32(input)?;
            input = &input[n..];
            if run == 0 {
                return Err(DecodeError::Corrupt("zero-length blank run"));
            }
            items.extend(std::iter::repeat_n(BLANK, run as usize));
        } else {
            items.push(tok - 1);
        }
    }
    Ok(())
}

/// Stateful sequence codec that reuses an internal buffer across calls, for use
/// in hot map-output paths.
#[derive(Debug, Default)]
pub struct SequenceCodec {
    buf: Vec<u8>,
}

impl SequenceCodec {
    /// Creates an empty codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `items` and returns the encoded bytes (valid until next call).
    pub fn encode<'a>(&'a mut self, items: &[u32]) -> &'a [u8] {
        self.buf.clear();
        encode_sequence(items, &mut self.buf);
        &self.buf
    }

    /// Number of bytes the encoding of `items` occupies, without materializing.
    pub fn encoded_len(items: &[u32]) -> usize {
        let mut len = 0usize;
        for token in rle::to_tokens(items, BLANK) {
            match token {
                RleToken::Item(id) => len += varint::encoded_len_u32(id + 1),
                RleToken::Blanks(n) => len += 1 + varint::encoded_len_u32(n),
            }
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_simple_sequence() {
        let seq = [0u32, 1, 2, 100, 4];
        let mut buf = Vec::new();
        encode_sequence(&seq, &mut buf);
        assert_eq!(decode_sequence(&buf).unwrap(), seq);
    }

    #[test]
    fn round_trips_blank_runs() {
        let seq = [0u32, BLANK, BLANK, 3, BLANK, 7, BLANK];
        let mut buf = Vec::new();
        encode_sequence(&seq, &mut buf);
        assert_eq!(decode_sequence(&buf).unwrap(), seq);
    }

    #[test]
    fn decode_into_appends_to_a_shared_arena() {
        let mut arena = vec![42u32];
        for seq in [&[1u32, BLANK, BLANK, 3][..], &[], &[200, 0]] {
            let mut buf = Vec::new();
            encode_sequence(seq, &mut buf);
            decode_sequence_into(&buf, &mut arena).unwrap();
        }
        assert_eq!(arena, [42, 1, BLANK, BLANK, 3, 200, 0]);
    }

    #[test]
    fn empty_sequence_is_empty_encoding() {
        let mut buf = Vec::new();
        encode_sequence(&[], &mut buf);
        assert!(buf.is_empty());
        assert_eq!(decode_sequence(&[]).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn frequent_items_encode_to_single_bytes() {
        // Items 0..=126 become tokens 1..=127, each a single varint byte.
        let seq: Vec<u32> = (0..=126).collect();
        let mut buf = Vec::new();
        encode_sequence(&seq, &mut buf);
        assert_eq!(buf.len(), seq.len());
    }

    #[test]
    fn blank_run_is_cheaper_than_rare_items() {
        // A run of 100 blanks costs 2 bytes; 100 distinct rare items cost far more.
        let blanks = vec![BLANK; 100];
        assert_eq!(SequenceCodec::encoded_len(&blanks), 2);
        let rare = vec![1_000_000u32; 100];
        assert!(SequenceCodec::encoded_len(&rare) >= 300);
    }

    #[test]
    fn encoded_len_matches_actual() {
        let seq = [5u32, BLANK, BLANK, BLANK, 1 << 20, 0, BLANK];
        let mut buf = Vec::new();
        encode_sequence(&seq, &mut buf);
        assert_eq!(buf.len(), SequenceCodec::encoded_len(&seq));
    }

    #[test]
    fn stateful_codec_reuses_buffer() {
        let mut codec = SequenceCodec::new();
        let a = codec.encode(&[1, 2, 3]).to_vec();
        let b = codec.encode(&[9, BLANK, 9]).to_vec();
        assert_eq!(decode_sequence(&a).unwrap(), vec![1, 2, 3]);
        assert_eq!(decode_sequence(&b).unwrap(), vec![9, BLANK, 9]);
    }

    #[test]
    fn rejects_zero_length_blank_run() {
        // token 0 (blank marker) followed by run length 0.
        let bad = [0x00, 0x00];
        assert!(matches!(
            decode_sequence(&bad),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_truncated_blank_run() {
        let bad = [0x00];
        assert_eq!(decode_sequence(&bad), Err(DecodeError::UnexpectedEof));
    }
}
