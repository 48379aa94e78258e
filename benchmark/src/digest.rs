//! A compact identity for a mined pattern set.

use lash::ItemId;

/// Count plus a hash of the patterns sorted by `(items, frequency)`, so two
/// sets compare equal whatever order their miners returned them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub hash: u64,
}

pub fn digest<'a>(patterns: impl IntoIterator<Item = (&'a [ItemId], u64)>) -> Digest {
    let mut sorted: Vec<(&[ItemId], u64)> = patterns.into_iter().collect();
    sorted.sort_unstable();
    // FNV-1a over the item ids, a length prefix (so `[1,2],[3]` and
    // `[1],[2,3]` differ) and the frequency.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (items, frequency) in &sorted {
        mix(items.len() as u64);
        for item in *items {
            mix(u64::from(item.as_u32()));
        }
        mix(*frequency);
    }
    Digest {
        count: sorted.len() as u64,
        hash: h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&i| ItemId::from_u32(i)).collect()
    }

    #[test]
    fn digest_ignores_order_and_sees_every_field() {
        let a = ids(&[1, 2]);
        let b = ids(&[3]);
        let c = ids(&[1]);
        let d = ids(&[2, 3]);
        let fwd = digest([(a.as_slice(), 5), (b.as_slice(), 7)]);
        let rev = digest([(b.as_slice(), 7), (a.as_slice(), 5)]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.count, 2);
        // A changed frequency, a moved boundary and a dropped pattern all show.
        assert_ne!(fwd, digest([(a.as_slice(), 5), (b.as_slice(), 8)]));
        assert_ne!(fwd, digest([(c.as_slice(), 5), (d.as_slice(), 7)]));
        assert_ne!(fwd, digest([(a.as_slice(), 5)]));
    }
}
