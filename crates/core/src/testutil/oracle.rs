//! The test suite's one GSM oracle: the problem statement of paper Sec. 2,
//! solved by brute force in vocabulary space.
//!
//! It shares nothing with the code it checks. There is no f-list, no total
//! order, no rank space and no `enumeration.rs`: every item is closed under
//! its ancestors and every generalized subsequence of every input sequence is
//! enumerated flat, with at most `γ` items skipped between two matches. A
//! wrong rank order or f-list in the miners therefore cannot cancel out.
//!
//! The file uses `std` alone, so the crate's unit tests and the integration
//! tests of this crate and of the facade all compile this one copy (the
//! latter through `#[path]`).

use std::collections::{BTreeMap, HashSet};

/// Every generalized sequence `S` with `2 ≤ |S| ≤ λ` that at least `σ`
/// sequences of `db` support, with its frequency `f_γ(S, db)`.
///
/// Items are vocabulary ids. `parent(i)` is the parent of item `i` in the
/// hierarchy, or `None` for a root.
pub fn gsm(
    parent: impl Fn(u32) -> Option<u32>,
    db: &[Vec<u32>],
    sigma: u64,
    gamma: usize,
    lambda: usize,
) -> BTreeMap<Vec<u32>, u64> {
    let mut support: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
    let mut supported = HashSet::new();
    let mut prefix = Vec::new();
    for seq in db {
        // Each item together with all its ancestors.
        let generalizations: Vec<Vec<u32>> = seq
            .iter()
            .map(|&t| std::iter::successors(Some(t), |&a| parent(a)).collect())
            .collect();
        for start in 0..seq.len() {
            extend(
                &generalizations,
                start,
                gamma,
                lambda,
                &mut prefix,
                &mut supported,
            );
        }
        for s in supported.drain() {
            *support.entry(s).or_default() += 1;
        }
    }
    support.retain(|_, f| *f >= sigma);
    support
}

/// Appends each generalization of position `pos` to `prefix`, records the
/// sequence once it has two items, and goes on to every later position with
/// at most `γ` items in between.
fn extend(
    generalizations: &[Vec<u32>],
    pos: usize,
    gamma: usize,
    lambda: usize,
    prefix: &mut Vec<u32>,
    supported: &mut HashSet<Vec<u32>>,
) {
    for &item in &generalizations[pos] {
        prefix.push(item);
        if prefix.len() >= 2 {
            supported.insert(prefix.clone());
        }
        if prefix.len() < lambda {
            for next in pos + 1..generalizations.len().min(pos + gamma + 2) {
                extend(generalizations, next, gamma, lambda, prefix, supported);
            }
        }
        prefix.pop();
    }
}
