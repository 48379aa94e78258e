//! Partition construction: rewriting an input sequence `T` into a compact
//! sequence `P_w(T)` that is *w-equivalent* to `T` (paper Sec. 4).
//!
//! Two sequences are w-equivalent when they generate the same set of pivot
//! sequences `G_{w,λ}` (Sec. 4.1); LASH may therefore ship any w-equivalent
//! rewrite to partition `P_w`. The rewrites implemented here, applied in
//! order:
//!
//! 1. **w-generalization** (Sec. 4.2) — replace every *w-irrelevant* item
//!    (rank > pivot) by its most specific ancestor with rank ≤ pivot, or by a
//!    blank if none exists. Irrelevant items cannot simply be dropped: they
//!    occupy gap positions and their ancestors may be relevant (possibly the
//!    pivot itself, creating new pivot occurrences);
//! 2. **unreachability reduction** (Sec. 4.3, following MG-FSM) — drop items
//!    farther than λ pivot-chain steps from every pivot occurrence. The left
//!    (right) distance of an index is the length of the shortest chain of
//!    indexes from a pivot index on its left (right) to it, where consecutive
//!    chain indexes satisfy the gap constraint and intermediate indexes are
//!    non-blank; unreachable indexes are removed outright, not blanked;
//! 3. **isolated pivot removal** — blank out pivots with no non-blank item
//!    within γ+1 positions;
//! 4. **blank cleanup** — strip leading/trailing blanks and cap interior
//!    blank runs at γ+1 (a run of γ+1 blanks already breaks every
//!    gap-constrained match).
//!
//! The map phase attempts one rewrite per (sequence, frequent pivot) pair —
//! some thirty per sentence — so the rewriter works per *sequence*: it
//! indexes every (chain element, position) pair of `T` once, sorted by
//! element, and then visits the pivots in ascending order. Moving from one
//! pivot to the next only touches the positions whose generalization
//! changes, the reachable indexes come out as one interval around each pivot
//! occurrence, and everything lives in the buffers of a reusable
//! [`RewriteScratch`]: no pass allocates. The
//! pass-by-pass formulation — one function and one paper example per rewrite
//! — is kept beside it as the test-only reference it is checked against.

#[cfg(test)]
mod blanks;
#[cfg(test)]
mod generalize;
#[cfg(test)]
mod reachability;

use crate::hierarchy::ItemSpace;
use crate::params::GsmParams;
use crate::BLANK;

/// How much rewriting to perform — the ablation knob for the "optimized
/// partition construction" claims of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RewriteLevel {
    /// Ship `P_w(T) = T` unmodified (the paper's strawman in Sec. 4).
    None,
    /// Apply w-generalization only.
    GeneralizeOnly,
    /// All rewrites (the full LASH construction).
    #[default]
    Full,
}

/// Reusable buffers of a [`Rewriter`]: the chain index and running
/// generalization of the sequence being rewritten, pivot distances, and the
/// rewritten sequence. One per map task; sequences of any length may follow
/// each other.
#[derive(Debug, Default)]
pub struct RewriteScratch {
    /// `(element << 32) | position` for every element of the ancestor chain
    /// of every non-blank position, ascending.
    events: Vec<u64>,
    /// `events[..applied]` are reflected in `generalized`.
    applied: usize,
    /// The w-generalization of the indexed sequence for the largest element
    /// applied so far.
    generalized: Vec<u32>,
    /// Non-blank items of `generalized`.
    relevant: usize,
    /// Pivot distances; only the part a scan wrote itself is ever read.
    dist: Vec<u32>,
    out: Vec<u32>,
}

/// The chain element of an index event.
fn element(event: u64) -> u32 {
    (event >> 32) as u32
}

/// The sequence position of an index event.
fn position(event: &u64) -> usize {
    *event as u32 as usize
}

/// Rewrites sequences for a fixed parameter set.
#[derive(Debug, Clone, Copy)]
pub struct Rewriter<'a> {
    space: &'a ItemSpace,
    gamma: usize,
    lambda: usize,
    level: RewriteLevel,
}

impl<'a> Rewriter<'a> {
    /// Creates a full rewriter.
    pub fn new(space: &'a ItemSpace, params: &GsmParams) -> Self {
        Self::with_level(space, params, RewriteLevel::Full)
    }

    /// Creates a rewriter with an explicit [`RewriteLevel`].
    pub fn with_level(space: &'a ItemSpace, params: &GsmParams, level: RewriteLevel) -> Self {
        Rewriter {
            space,
            gamma: params.gamma,
            lambda: params.lambda,
            level,
        }
    }

    /// Produces `P_w(T)` for `pivot` in `scratch`, or `None` when the rewrite
    /// proves that `T` contributes no pivot sequence (e.g. every pivot
    /// occurrence is isolated): a pivot sequence needs the pivot and one
    /// more non-blank item, and the rewrite stops as soon as either is gone.
    ///
    /// `seq` is a rank-space sequence (it may already contain blanks).
    pub fn rewrite_into<'s>(
        &self,
        seq: &[u32],
        pivot: u32,
        scratch: &'s mut RewriteScratch,
    ) -> Option<&'s [u32]> {
        self.index(seq, scratch);
        self.rewrite_indexed(seq, pivot, scratch)
    }

    /// Routes one sequence (the map side of Alg. 1): calls `emit(w, P_w(T))`
    /// for every frequent pivot `w ∈ G1(T)` whose rewrite is not empty, in
    /// ascending pivot order.
    pub fn rewrite_all(
        &self,
        seq: &[u32],
        scratch: &mut RewriteScratch,
        mut emit: impl FnMut(u32, &[u32]),
    ) {
        self.index(seq, scratch);
        while let Some(&event) = scratch.events.get(scratch.applied) {
            let pivot = element(event);
            if !self.space.is_frequent(pivot) {
                // Events ascend; everything after is infrequent too.
                break;
            }
            if let Some(rewritten) = self.rewrite_indexed(seq, pivot, scratch) {
                emit(pivot, rewritten);
            }
        }
    }

    /// Indexes the ancestor chains of `seq` and resets the running
    /// generalization to "nothing relevant yet".
    fn index(&self, seq: &[u32], scratch: &mut RewriteScratch) {
        assert!(
            u32::try_from(seq.len()).is_ok(),
            "sequence positions are u32"
        );
        scratch.events.clear();
        for (pos, &t) in seq.iter().enumerate() {
            if t != BLANK {
                let chain = self.space.chain(t);
                scratch
                    .events
                    .extend(chain.iter().map(|&anc| (anc as u64) << 32 | pos as u64));
            }
        }
        scratch.events.sort_unstable();
        scratch.applied = 0;
        scratch.generalized.clear();
        scratch.generalized.resize(seq.len(), BLANK);
        scratch.relevant = 0;
    }

    /// `P_w(T)` of the indexed sequence `seq`. Pivots must not descend from
    /// one call to the next.
    fn rewrite_indexed<'s>(
        &self,
        seq: &[u32],
        pivot: u32,
        scratch: &'s mut RewriteScratch,
    ) -> Option<&'s [u32]> {
        let RewriteScratch {
            events,
            applied,
            generalized,
            relevant,
            dist,
            out,
        } = scratch;

        // 1. w-generalization. Chains descend towards the root, so the most
        // specific ancestor with rank ≤ pivot of a position is the largest
        // element of its chain seen so far: applying the events up to the
        // pivot in ascending order leaves exactly that. The pivot's own
        // events are last, and their positions are the pivot indexes.
        debug_assert!(
            *applied == 0 || element(events[*applied - 1]) <= pivot,
            "pivots must ascend"
        );
        let mut first_occurrence = *applied;
        while let Some(&event) = events.get(*applied) {
            let (anc, pos) = (element(event), position(&event));
            if anc > pivot {
                break;
            }
            if anc < pivot {
                first_occurrence = *applied + 1;
            }
            *relevant += usize::from(generalized[pos] == BLANK);
            generalized[pos] = anc;
            *applied += 1;
        }
        let occurrences = &events[first_occurrence..*applied];
        if occurrences.is_empty() {
            return None;
        }
        out.clear();
        match self.level {
            // Even the strawman must only emit sequences that can produce a
            // pivot sequence: the pivot (or a descendant) must occur, with
            // some other potential pattern item nearby.
            RewriteLevel::None => {
                if seq.len() < 2 {
                    return None;
                }
                out.extend_from_slice(seq);
                return Some(out);
            }
            _ if *relevant < 2 => return None,
            RewriteLevel::GeneralizeOnly => {
                out.extend_from_slice(generalized);
                return Some(out);
            }
            RewriteLevel::Full => {}
        }

        // 2. Unreachability reduction. Pivot indexes have distance 1 and an
        // index is kept iff a chain of at most λ indexes reaches it. Walking
        // away from a pivot index the distance never decreases, and a chain
        // that crosses another pivot index is no shorter than one starting
        // there: the kept indexes are one interval around each occurrence,
        // found by scanning outwards until the distance exceeds λ or the
        // neighbouring occurrence begins.
        let n = generalized.len();
        let reach = self.gamma + 1;
        let lambda = u32::try_from(self.lambda).unwrap_or(u32::MAX);
        if dist.len() < n {
            dist.resize(n, 0);
        }
        // The best chain to `i` through a non-blank index of `hops` (all
        // within the gap window of `i`, scanned before it).
        let hop = |generalized: &[u32], dist: &[u32], hops: std::ops::Range<usize>| {
            hops.filter(|&j| generalized[j] != BLANK)
                .map(|j| dist[j])
                .min()
                .filter(|&d| d < lambda)
        };
        let mut pivots = 0usize;
        let mut copied = 0usize;
        for (k, occurrence) in occurrences.iter().enumerate() {
            let p = position(occurrence);
            let floor = k
                .checked_sub(1)
                .map_or(0, |k| position(&occurrences[k]) + 1);
            let ceiling = occurrences.get(k + 1).map_or(n, position);
            dist[p] = 1;
            let mut lo = p;
            while lo > floor {
                let i = lo - 1;
                let Some(d) = hop(generalized, dist, i + 1..(i + reach).min(p) + 1) else {
                    break;
                };
                dist[i] = d + 1;
                lo = i;
            }
            let mut hi = p;
            while hi + 1 < ceiling {
                let i = hi + 1;
                let Some(d) = hop(generalized, dist, i.saturating_sub(reach).max(p)..i) else {
                    break;
                };
                dist[i] = d + 1;
                hi = i;
            }
            // 3. Isolated pivot removal: a pivot with no non-blank item within
            // γ+1 positions is blanked. Those positions have distance 2 and
            // are all kept, so the window is the same before and after the
            // reduction.
            let window = p.saturating_sub(reach)..(p + reach + 1).min(n);
            let isolated = !window
                .into_iter()
                .any(|j| j != p && generalized[j] != BLANK);
            let from = lo.max(copied);
            out.extend_from_slice(&generalized[from..hi + 1]);
            copied = hi + 1;
            if isolated {
                let at = out.len() - (hi + 1 - p);
                out[at] = BLANK;
            } else {
                pivots += 1;
            }
        }
        if pivots == 0 {
            return None;
        }

        // 4. Blank cleanup: leading blanks and blanks beyond a run of γ+1
        // are dropped in place, trailing ones popped.
        let (mut kept, mut run, mut items) = (0, 0, 0usize);
        for i in 0..out.len() {
            if out[i] == BLANK {
                run += 1;
                if kept == 0 || run > reach {
                    continue;
                }
            } else {
                run = 0;
                items += 1;
            }
            out[kept] = out[i];
            kept += 1;
        }
        out.truncate(kept);
        while out.last() == Some(&BLANK) {
            out.pop();
        }
        (items >= 2).then_some(out)
    }

    /// The gap constraint this rewriter was built with.
    pub fn gamma(&self) -> usize {
        self.gamma
    }

    /// The length constraint this rewriter was built with.
    pub fn lambda(&self) -> usize {
        self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumeration::enumerate_pivot;
    use crate::testutil::{fig2_context, ranks, Fig2Context};
    use proptest::prelude::*;

    /// The pass-by-pass rewrite: one allocating function per paper section.
    fn reference_rewrite(rw: &Rewriter<'_>, seq: &[u32], pivot: u32) -> Option<Vec<u32>> {
        let mut out = match rw.level {
            RewriteLevel::None => {
                let has_pivot = seq
                    .iter()
                    .any(|&t| t != BLANK && rw.space.generalizes_to(t, pivot));
                return (has_pivot && seq.len() >= 2).then(|| seq.to_vec());
            }
            _ => generalize::w_generalize(seq, pivot, rw.space),
        };
        if rw.level == RewriteLevel::Full {
            reachability::prune_unreachable(&mut out, pivot, rw.gamma, rw.lambda);
            blanks::remove_isolated_pivots(&mut out, pivot, rw.gamma);
            blanks::cleanup(&mut out, rw.gamma);
        }
        // The rewritten sequence must still contain a pivot and at least two
        // non-blank items (a pivot sequence has length ≥ 2).
        let has_pivot = out.contains(&pivot);
        let non_blank = out.iter().filter(|&&t| t != BLANK).count();
        (has_pivot && non_blank >= 2).then_some(out)
    }

    /// `rewrite_into` through `scratch`, checked against the reference.
    fn rewrite_checked(
        rw: &Rewriter<'_>,
        seq: &[u32],
        pivot: u32,
        scratch: &mut RewriteScratch,
    ) -> Option<Vec<u32>> {
        let got = rw.rewrite_into(seq, pivot, scratch).map(<[u32]>::to_vec);
        assert_eq!(
            got,
            reference_rewrite(rw, seq, pivot),
            "{seq:?} pivot {pivot}"
        );
        got
    }

    fn rewrite(rw: &Rewriter<'_>, seq: &[u32], pivot: u32) -> Option<Vec<u32>> {
        rewrite_checked(rw, seq, pivot, &mut RewriteScratch::default())
    }

    fn rewrite_named(
        ctx: &Fig2Context,
        seq: &[&str],
        pivot: &str,
        gamma: usize,
        lambda: usize,
    ) -> Option<Vec<u32>> {
        let params = GsmParams::new(2, gamma, lambda).unwrap();
        let rw = Rewriter::new(ctx.space(), &params);
        rewrite(&rw, &ranks(ctx, seq), ctx.rank(pivot))
    }

    fn blanks_as_names(ctx: &Fig2Context, seq: &[u32]) -> Vec<String> {
        seq.iter()
            .map(|&r| {
                if r == BLANK {
                    "_".to_owned()
                } else {
                    ctx.vocab.name(ctx.ctx.order().item(r)).to_owned()
                }
            })
            .collect()
    }

    #[test]
    fn t2_pivot_b_becomes_ab() {
        // Paper Sec. 4.2/4.3: T2 = a b3 c c b2 with pivot B generalizes to
        // aB␣␣B; the trailing B is an isolated pivot (γ=1) and is removed,
        // leaving "aB".
        let ctx = fig2_context();
        let got = rewrite_named(&ctx, &["a", "b3", "c", "c", "b2"], "B", 1, 3).unwrap();
        assert_eq!(blanks_as_names(&ctx, &got), ["a", "B"]);
    }

    #[test]
    fn fig2_partition_pb_rewrites() {
        // Fig. 2: P_B = { aB aB (T1), aB (T2), B a ␣ a (T4), aB (T5) }; T3 and
        // T6 contribute nothing.
        let ctx = fig2_context();
        let t = |seq: &[&str]| rewrite_named(&ctx, seq, "B", 1, 3);
        assert_eq!(
            blanks_as_names(&ctx, &t(&["a", "b1", "a", "b1"]).unwrap()),
            ["a", "B", "a", "B"]
        );
        assert_eq!(
            blanks_as_names(&ctx, &t(&["a", "b3", "c", "c", "b2"]).unwrap()),
            ["a", "B"]
        );
        assert_eq!(
            blanks_as_names(&ctx, &t(&["b11", "a", "e", "a"]).unwrap()),
            ["B", "a", "_", "a"]
        );
        assert_eq!(
            blanks_as_names(&ctx, &t(&["a", "b12", "d1", "c"]).unwrap()),
            ["a", "B"]
        );
        // T6 = b13 f d2 → B ␣ ␣ → isolated pivot → nothing.
        assert_eq!(t(&["b13", "f", "d2"]), None);
        // T3 = a c contains no B at all.
        assert_eq!(t(&["a", "c"]), None);
    }

    #[test]
    fn fig2_partition_pb1_rewrites() {
        // Fig. 2: P_b1 = { a b1 a b1 (T1), b1 a ␣ a (T4), a b1 (T5) }.
        let ctx = fig2_context();
        let t = |seq: &[&str]| rewrite_named(&ctx, seq, "b1", 1, 3);
        assert_eq!(
            blanks_as_names(&ctx, &t(&["a", "b1", "a", "b1"]).unwrap()),
            ["a", "b1", "a", "b1"]
        );
        assert_eq!(
            blanks_as_names(&ctx, &t(&["b11", "a", "e", "a"]).unwrap()),
            ["b1", "a", "_", "a"]
        );
        assert_eq!(
            blanks_as_names(&ctx, &t(&["a", "b12", "d1", "c"]).unwrap()),
            ["a", "b1"]
        );
        assert_eq!(t(&["b13", "f", "d2"]), None);
    }

    #[test]
    fn fig2_partition_pd_rewrites() {
        // Fig. 2: P_D = { a b1 D c (T5), b1 ␣ D (T6) }.
        let ctx = fig2_context();
        let t = |seq: &[&str]| rewrite_named(&ctx, seq, "D", 1, 3);
        assert_eq!(
            blanks_as_names(&ctx, &t(&["a", "b12", "d1", "c"]).unwrap()),
            ["a", "b1", "D", "c"]
        );
        assert_eq!(
            blanks_as_names(&ctx, &t(&["b13", "f", "d2"]).unwrap()),
            ["b1", "_", "D"]
        );
    }

    #[test]
    fn fig2_partition_pa_and_pc_rewrites() {
        let ctx = fig2_context();
        // P_a: only T1 (a...a) and T4 (a ␣ a after isolated-pivot handling?).
        // T1 = a b1 a b1 with pivot a: b1 is irrelevant (rank 2 > 0), B also
        // irrelevant (rank 1 > 0), no relevant ancestor → blanks: a ␣ a ␣ →
        // cleanup → a ␣ a.
        let got = rewrite_named(&ctx, &["a", "b1", "a", "b1"], "a", 1, 3).unwrap();
        assert_eq!(blanks_as_names(&ctx, &got), ["a", "_", "a"]);
        // T4 = b11 a e a → ␣ a ␣ a → a ␣ a.
        let got = rewrite_named(&ctx, &["b11", "a", "e", "a"], "a", 1, 3).unwrap();
        assert_eq!(blanks_as_names(&ctx, &got), ["a", "_", "a"]);
        // T3 = a c → a ␣ → single isolated pivot → nothing.
        assert_eq!(rewrite_named(&ctx, &["a", "c"], "a", 1, 3), None);
        // P_c from T2: a b3 c c b2 → a B c c B.
        let got = rewrite_named(&ctx, &["a", "b3", "c", "c", "b2"], "c", 1, 3).unwrap();
        assert_eq!(blanks_as_names(&ctx, &got), ["a", "B", "c", "c", "B"]);
        // P_c from T5: a b12 d1 c → a b1 ␣ c.
        let got = rewrite_named(&ctx, &["a", "b12", "d1", "c"], "c", 1, 3).unwrap();
        assert_eq!(blanks_as_names(&ctx, &got), ["a", "b1", "_", "c"]);
    }

    #[test]
    fn unreachability_example_lambda2_and_lambda3() {
        // Paper Sec. 4.3: T = a b1 a c d1 a d2 c f b2 c, pivot D, γ = 1.
        // λ=2 → a c D a D c (after blank cleanup); λ=3 → a b1 a c D a D c ␣ B.
        let ctx = fig2_context();
        let seq = ["a", "b1", "a", "c", "d1", "a", "d2", "c", "f", "b2", "c"];
        let got = rewrite_named(&ctx, &seq, "D", 1, 2).unwrap();
        assert_eq!(blanks_as_names(&ctx, &got), ["a", "c", "D", "a", "D", "c"]);
        let got = rewrite_named(&ctx, &seq, "D", 1, 3).unwrap();
        assert_eq!(
            blanks_as_names(&ctx, &got),
            ["a", "b1", "a", "c", "D", "a", "D", "c", "_", "B"]
        );
    }

    #[test]
    fn rewrite_preserves_pivot_sequences_on_paper_database() {
        // w-equivalency (Lemma 3 + Sec. 4.3): G_{w,λ}(T) = G_{w,λ}(P_w(T))
        // for every sequence of the running example, every frequent pivot,
        // and a range of (γ, λ).
        let ctx = fig2_context();
        let space = ctx.space();
        for gamma in 0..3 {
            for lambda in 2..5 {
                let params = GsmParams::new(2, gamma, lambda).unwrap();
                let rw = Rewriter::new(space, &params);
                for idx in 0..6 {
                    let seq = ctx.ranked_seq(idx);
                    for pivot in 0..space.num_frequent() {
                        let original = enumerate_pivot(seq, space, gamma, lambda, pivot);
                        let rewritten = match rewrite(&rw, seq, pivot) {
                            Some(r) => enumerate_pivot(&r, space, gamma, lambda, pivot),
                            None => Default::default(),
                        };
                        assert_eq!(
                            original,
                            rewritten,
                            "T{} pivot {pivot} γ={gamma} λ={lambda}",
                            idx + 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn generalize_only_level_also_preserves_pivot_sequences() {
        let ctx = fig2_context();
        let space = ctx.space();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let rw = Rewriter::with_level(space, &params, RewriteLevel::GeneralizeOnly);
        for idx in 0..6 {
            let seq = ctx.ranked_seq(idx);
            for pivot in 0..space.num_frequent() {
                let original = enumerate_pivot(seq, space, 1, 3, pivot);
                let rewritten = match rewrite(&rw, seq, pivot) {
                    Some(r) => enumerate_pivot(&r, space, 1, 3, pivot),
                    None => Default::default(),
                };
                assert_eq!(original, rewritten, "T{} pivot {pivot}", idx + 1);
            }
        }
    }

    #[test]
    fn level_none_ships_sequences_containing_pivot_descendants() {
        let ctx = fig2_context();
        let params = GsmParams::new(2, 1, 3).unwrap();
        let rw = Rewriter::with_level(ctx.space(), &params, RewriteLevel::None);
        // T2 contains b3 which generalizes to B → shipped unmodified.
        let t2 = ctx.ranked_seq(1);
        assert_eq!(rewrite(&rw, t2, ctx.rank("B")).unwrap(), t2.to_vec());
        // T3 = a c has nothing generalizing to B.
        assert_eq!(rewrite(&rw, ctx.ranked_seq(2), ctx.rank("B")), None);
    }

    /// A random rank-space hierarchy of depth ≤ 4 (parents have smaller
    /// ranks), with the lower half of the ranks frequent.
    fn arb_space() -> impl Strategy<Value = ItemSpace> {
        prop::collection::vec(prop::option::weighted(0.6, 0..100usize), 2..12).prop_map(|parents| {
            let mut depth = vec![0u32; parents.len()];
            let parent: Vec<Option<u32>> = parents
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let p = p.filter(|_| i > 0).map(|v| v % i)?;
                    (depth[p] < 3).then(|| {
                        depth[i] = depth[p] + 1;
                        p as u32
                    })
                })
                .collect();
            let n = parent.len();
            let frequency = (0..n as u64).map(|i| 1000 - i).collect();
            ItemSpace::new(parent, frequency, (n as u32).div_ceil(2))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The rewrite equals the pass-by-pass reference at every level, for
        /// every pivot — one at a time and when routing a whole sequence —
        /// through one scratch that sees sequences of different lengths one
        /// after the other.
        #[test]
        fn rewrite_into_equals_pass_by_pass_reference(
            space in arb_space(),
            seqs in prop::collection::vec(
                prop::collection::vec(prop_oneof![8 => 0..12u32, 2 => Just(BLANK)], 0..24),
                1..5,
            ),
            gamma in 0usize..4,
            lambda in 2usize..7,
        ) {
            let n = space.len() as u32;
            let params = GsmParams::new(1, gamma, lambda).unwrap();
            let mut scratch = RewriteScratch::default();
            for level in [RewriteLevel::Full, RewriteLevel::GeneralizeOnly, RewriteLevel::None] {
                let rw = Rewriter::with_level(&space, &params, level);
                for seq in &seqs {
                    let seq: Vec<u32> =
                        seq.iter().map(|&t| if t == BLANK { BLANK } else { t % n }).collect();
                    let mut one_by_one = Vec::new();
                    for pivot in 0..n {
                        let rewritten = rewrite_checked(&rw, &seq, pivot, &mut scratch);
                        if let Some(r) = rewritten.filter(|_| space.is_frequent(pivot)) {
                            one_by_one.push((pivot, r));
                        }
                    }
                    // Routing the sequence visits the frequent pivots in
                    // ascending order on one chain index.
                    let mut routed = Vec::new();
                    rw.rewrite_all(&seq, &mut scratch, |w, r| routed.push((w, r.to_vec())));
                    prop_assert_eq!(routed, one_by_one, "{:?}", seq);
                }
            }
        }
    }
}
