//! Shared pattern-growth machinery: the projected database as a stack of
//! levels over flat arrays, extension counting, and projection.
//!
//! A pattern's *projected database* holds, per supporting partition sequence,
//! the set of embedding windows `(start, end)`. Right (left) expansion looks
//! at the γ+1 positions after `end` (before `start`), proposing the items
//! found there together with all their generalizations.
//!
//! The projected databases of one depth-first search live on a **level
//! stack**: a level is a range of [`Entry`]s in one shared array, an entry's
//! windows a range in a second one. Expanding a node takes two scans of its
//! level. The first counts, per candidate item, the supporting weight — and
//! the entries and windows its projection would hold — in a dense
//! `rank → Slot` table with a touched list (after w-generalization every
//! non-blank item of `P_w` is `≤ w`, so `pivot + 1` slots do); the stamps in
//! the slots only ever grow, which makes clearing the table unnecessary. The
//! second carves one region per *frequent* item off the end of both arrays,
//! sized by those counts, and deals every embedding into the region of the
//! item it extends to: all children of the node at the cost of one scan,
//! however many there are. Returning from the recursion truncates the arrays.
//! All of it is per-thread scratch reused across partitions
//! ([`with_scratch`]): a mining run allocates nothing per sequence, per
//! embedding or per candidate.

use std::cell::RefCell;
use std::ops::Range;

use crate::hierarchy::ItemSpace;
use crate::sequence::Partition;
use crate::BLANK;

/// Expansion direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    /// Extend the pattern on the right (after `end`).
    Right,
    /// Extend the pattern on the left (before `start`).
    Left,
}

/// One supporting sequence of a level: `windows[wins]` are its distinct
/// `(start, end)` embedding windows, sorted.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    seq: u32,
    wins: (u32, u32),
}

/// A projected database: a range of the entry array.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Level {
    entries: (usize, usize),
}

impl Level {
    /// True if no sequence supports the pattern.
    pub fn is_empty(&self) -> bool {
        self.entries.0 == self.entries.1
    }
}

/// A frequent extension of a node: the item, the frequency of the extended
/// pattern and, once dealt, its projected database.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Child {
    pub item: u32,
    pub frequency: u64,
    pub level: Level,
    /// While dealing: where the next window goes, and where the windows of
    /// the entry being dealt began (`usize::MAX`: it has none yet).
    next_window: usize,
    open_entry: usize,
}

/// The frequent extensions of one node: a range of the child stack plus the
/// heights of the level stack under their projected databases.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    pub children: Range<usize>,
    entries: usize,
    windows: usize,
}

/// What the latest scan saw of one item. `stamp` names the last (scan,
/// sequence) that touched the slot: it keeps a sequence from counting twice
/// and tells a slot left over from an earlier scan from a live one.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Total weight of the supporting sequences.
    count: u64,
    stamp: u64,
    /// Embeddings that extend to the item, before duplicates are merged.
    windows: u64,
    /// Supporting sequences.
    entries: u32,
    /// Index in the child stack if frequent, `u32::MAX` if not.
    child: u32,
}

/// The buffers behind [`Engine`]; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct Buffers {
    entries: Vec<Entry>,
    windows: Vec<(u32, u32)>,
    slots: Vec<Slot>,
    /// The last stamp handed out; never reset, so stale slots never match.
    stamp: u64,
    /// The stamp the latest scan started after: slots stamped at or below it
    /// were last written by an earlier scan.
    scan_start: u64,
    /// Items counted by the latest scan, in first-touch order.
    touched: Vec<u32>,
    /// The [`Block`]s of the nodes on the current search path, each sorted
    /// by item.
    children: Vec<Child>,
    /// Children the entry being dealt has windows for.
    open: Vec<u32>,
}

/// Per-thread mining scratch.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub buffers: Buffers,
    /// PSM's right-expansion index (one [`ItemSet`] per context and depth).
    pub index: Vec<ItemSet>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with this thread's mining scratch. Reduce workers mine many
/// partitions each; the buffers keep their capacity from one to the next.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// A set of items with O(1) membership that empties in time proportional to
/// its size: a bitset over ranks plus the list of set bits.
#[derive(Debug, Default)]
pub(crate) struct ItemSet {
    bits: Vec<u64>,
    items: Vec<u32>,
}

impl ItemSet {
    pub fn insert(&mut self, item: u32) {
        let word = item as usize / 64;
        if self.bits.len() <= word {
            self.bits.resize(word + 1, 0);
        }
        let bit = 1u64 << (item % 64);
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.items.push(item);
        }
    }

    #[inline]
    pub fn contains(&self, item: u32) -> bool {
        self.bits
            .get(item as usize / 64)
            .is_some_and(|w| w & (1u64 << (item % 64)) != 0)
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn clear(&mut self) {
        for item in self.items.drain(..) {
            self.bits[item as usize / 64] = 0;
        }
    }
}

/// The projection engine of one mining run: the partition, the hierarchy and
/// the level stack.
pub(crate) struct Engine<'a> {
    partition: &'a Partition,
    space: &'a ItemSpace,
    gamma: usize,
    max_item: u32,
    buf: &'a mut Buffers,
}

impl<'a> Engine<'a> {
    /// Starts a run over `partition` on an empty level stack. Only items
    /// with rank ≤ `max_item` are ever proposed as extensions (a pivot
    /// sequence cannot contain an item larger than its pivot).
    pub fn new(
        buf: &'a mut Buffers,
        partition: &'a Partition,
        space: &'a ItemSpace,
        gamma: usize,
        max_item: u32,
    ) -> Engine<'a> {
        buf.entries.clear();
        buf.windows.clear();
        buf.children.clear();
        buf.open.clear();
        // Chains only hold ranks of the space, whatever cap the caller names.
        let slots = (max_item as usize).saturating_add(1).min(space.len());
        if buf.slots.len() < slots {
            buf.slots.resize(slots, Slot::default());
        }
        Engine {
            partition,
            space,
            gamma,
            max_item,
            buf,
        }
    }

    /// Pushes the projected database of the single-item pattern `[item]`:
    /// every position whose item generalizes to `item`.
    pub fn push_item_level(&mut self, item: u32) -> Level {
        let entries = self.buf.entries.len();
        for (i, (seq, _)) in self.partition.iter().enumerate() {
            let from = self.buf.windows.len();
            for (p, &t) in seq.iter().enumerate() {
                if self.space.generalizes_to(t, item) {
                    self.buf.windows.push((p as u32, p as u32));
                }
            }
            let to = self.buf.windows.len();
            if to > from {
                self.buf.entries.push(Entry {
                    seq: i as u32,
                    wins: (offset(from), offset(to)),
                });
            }
        }
        Level {
            entries: (entries, self.buf.entries.len()),
        }
    }

    /// Total weight of the sequences supporting `level` (the pattern's
    /// frequency).
    #[cfg(test)]
    pub fn support(&self, level: Level) -> u64 {
        self.buf.entries[level.entries.0..level.entries.1]
            .iter()
            .map(|e| self.partition.weight(e.seq as usize))
            .sum()
    }

    /// Expands the pattern of `level` in direction `dir`: counts, per
    /// candidate extension item, the total weight of supporting sequences,
    /// and pushes the projected database of every item counted at least
    /// `sigma` times, in ascending item order. `exclude` skips a single item
    /// (PSM never right-expands with the pivot); when `allowed` is set, only
    /// items in it are counted at all (PSM's right-expansion index: "neither
    /// counting nor support set computation is performed" for pruned items).
    ///
    /// Returns the number of distinct candidate items evaluated and the
    /// frequent ones. With `project` off — the children are as long as
    /// patterns get — they come without projected databases.
    pub fn expand(
        &mut self,
        level: Level,
        dir: Dir,
        exclude: Option<u32>,
        allowed: Option<&ItemSet>,
        sigma: u64,
        project: bool,
    ) -> (u64, Block) {
        let (partition, space, gamma) = (self.partition, self.space, self.gamma);
        let walk = (partition, space, gamma, level, dir);
        let mut counter = Counter::start(self.buf, self.max_item, exclude, allowed);
        walk_extensions(counter.entries, counter.windows, walk, &mut counter);
        let (candidates, block) = self.push_frequent(sigma, project);
        if project && !block.children.is_empty() {
            let mut dealer = Dealer::start(self.buf, &block);
            walk_extensions(dealer.entries, dealer.windows, walk, &mut dealer);
        }
        (candidates, block)
    }

    /// Expands the empty pattern (the level-1 step of a miner that starts
    /// from all frequent items): counts every item of the partition together
    /// with its generalizations and pushes the projected database of every
    /// one counted at least `sigma` times, in ascending item order. Returns
    /// the number of distinct items seen and the frequent ones.
    pub fn expand_items(&mut self, sigma: u64) -> (u64, Block) {
        let (partition, space) = (self.partition, self.space);
        walk_items(
            partition,
            space,
            &mut Counter::start(self.buf, self.max_item, None, None),
        );
        let (candidates, block) = self.push_frequent(sigma, true);
        if !block.children.is_empty() {
            walk_items(partition, space, &mut Dealer::start(self.buf, &block));
        }
        (candidates, block)
    }

    /// Pushes a child for every item the latest count saw at least `sigma`
    /// times, with room for the projected database the count sized if
    /// `project` is on. Returns the number of items counted and the block of
    /// children.
    fn push_frequent(&mut self, sigma: u64, project: bool) -> (u64, Block) {
        let buf = &mut *self.buf;
        let start = buf.children.len();
        let (mut entries, mut windows) = (buf.entries.len(), buf.windows.len());
        let block = Block {
            children: start..start,
            entries,
            windows,
        };
        for &item in &buf.touched {
            let slot = &mut buf.slots[item as usize];
            slot.child = u32::MAX;
            if slot.count >= sigma {
                buf.children.push(Child {
                    item,
                    frequency: slot.count,
                    level: Level { entries: (0, 0) },
                    next_window: 0,
                    open_entry: usize::MAX,
                });
            }
        }
        buf.children[start..].sort_unstable_by_key(|c| c.item);
        if project {
            for (i, child) in buf.children.iter_mut().enumerate().skip(start) {
                let slot = &mut buf.slots[child.item as usize];
                slot.child = u32::try_from(i).expect("child stack exceeds u32 offsets");
                child.level = Level {
                    entries: (entries, entries),
                };
                child.next_window = windows;
                entries += slot.entries as usize;
                windows = usize::try_from(slot.windows)
                    .ok()
                    .and_then(|n| windows.checked_add(n))
                    .expect("window stack exceeds the address space");
            }
            buf.entries.resize(entries, Entry::default());
            buf.windows.resize(windows, (0, 0));
        }
        let children = start..buf.children.len();
        (buf.touched.len() as u64, Block { children, ..block })
    }

    /// Child `i` of the child stack.
    pub fn child(&self, i: usize) -> Child {
        self.buf.children[i]
    }

    /// Pops `block` with the projected databases of its children; it must be
    /// the top of the stack.
    pub fn pop_block(&mut self, block: Block) {
        debug_assert_eq!(self.buf.children.len(), block.children.end, "not the top");
        self.buf.children.truncate(block.children.start);
        self.buf.entries.truncate(block.entries);
        self.buf.windows.truncate(block.windows);
    }
}

/// Entries address their windows with `u32`s; a level stack that outgrows
/// them panics instead of corrupting window ranges.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("window stack exceeds u32 offsets")
}

/// What a scan does with what it walks over. Both scans of an expansion walk
/// the same positions: the first sizes exactly what the second fills.
trait Visit {
    /// The next sequence, of weight `weight`, begins.
    fn begin_sequence(&mut self, _weight: u64) {}
    /// A window of the current sequence extends, by `item`, to `window`.
    fn extension(&mut self, item: u32, window: (u32, u32));
    /// Sequence `seq` is over.
    fn end_sequence(&mut self, _seq: u32) {}
}

/// Walks every extension of the embeddings of `level` in direction `dir`:
/// the items within reach of a window, with all their generalizations.
fn walk_extensions(
    entries: &[Entry],
    windows: &[(u32, u32)],
    (partition, space, gamma, level, dir): (&Partition, &ItemSpace, usize, Level, Dir),
    visit: &mut impl Visit,
) {
    for entry in &entries[level.entries.0..level.entries.1] {
        let seq = partition.seq(entry.seq as usize);
        visit.begin_sequence(partition.weight(entry.seq as usize));
        for &(start, end) in &windows[entry.wins.0 as usize..entry.wins.1 as usize] {
            for q in reach(seq.len(), start, end, gamma, dir) {
                if seq[q] == BLANK {
                    continue;
                }
                let window = match dir {
                    Dir::Right => (start, q as u32),
                    Dir::Left => (q as u32, end),
                };
                for &anc in space.chain(seq[q]) {
                    visit.extension(anc, window);
                }
            }
        }
        visit.end_sequence(entry.seq);
    }
}

/// Walks every item of the partition, with all its generalizations, as an
/// extension of the empty pattern.
fn walk_items(partition: &Partition, space: &ItemSpace, visit: &mut impl Visit) {
    for (i, (seq, weight)) in partition.iter().enumerate() {
        visit.begin_sequence(weight);
        for (p, &t) in seq.iter().enumerate() {
            if t != BLANK {
                for &anc in space.chain(t) {
                    visit.extension(anc, (p as u32, p as u32));
                }
            }
        }
        visit.end_sequence(i as u32);
    }
}

/// The first scan of an expansion: counts over the slot table, beside a
/// read-only view of the level stack.
struct Counter<'s> {
    entries: &'s [Entry],
    windows: &'s [(u32, u32)],
    slots: &'s mut [Slot],
    stamp: &'s mut u64,
    touched: &'s mut Vec<u32>,
    max_item: u32,
    exclude: u32,
    allowed: Option<&'s ItemSet>,
    scan_start: u64,
    weight: u64,
}

impl<'s> Counter<'s> {
    fn start(
        buf: &'s mut Buffers,
        max_item: u32,
        exclude: Option<u32>,
        allowed: Option<&'s ItemSet>,
    ) -> Self {
        buf.touched.clear();
        buf.scan_start = buf.stamp;
        Counter {
            entries: &buf.entries,
            windows: &buf.windows,
            slots: &mut buf.slots,
            scan_start: buf.scan_start,
            stamp: &mut buf.stamp,
            touched: &mut buf.touched,
            max_item,
            // No chain holds a blank, so it stands for "nothing excluded".
            exclude: exclude.unwrap_or(BLANK),
            allowed,
            weight: 0,
        }
    }
}

impl Visit for Counter<'_> {
    fn begin_sequence(&mut self, weight: u64) {
        *self.stamp += 1;
        self.weight = weight;
    }

    /// Counts one occurrence of `item` in the current sequence.
    #[inline]
    fn extension(&mut self, item: u32, _window: (u32, u32)) {
        // The head of a chain may exceed `max_item` while its ancestors do
        // not, so the walk goes on up the chain.
        if item > self.max_item
            || item == self.exclude
            || self.allowed.is_some_and(|set| !set.contains(item))
        {
            return;
        }
        let slot = &mut self.slots[item as usize];
        if slot.stamp <= self.scan_start {
            *slot = Slot::default();
            self.touched.push(item);
        }
        slot.windows += 1;
        if slot.stamp != *self.stamp {
            slot.stamp = *self.stamp;
            slot.count += self.weight;
            slot.entries += 1;
        }
    }
}

/// The second scan of an expansion: deals embeddings into the projected
/// databases of a [`Block`]'s children, which lie above everything the scan
/// reads.
struct Dealer<'s> {
    /// The level stack below the block.
    entries: &'s [Entry],
    windows: &'s [(u32, u32)],
    /// The block's share of the level stack, and where it begins.
    dealt_entries: &'s mut [Entry],
    dealt_windows: &'s mut [(u32, u32)],
    base: (usize, usize),
    slots: &'s [Slot],
    scan_start: u64,
    children: &'s mut [Child],
    /// Children the current entry has windows for.
    open: &'s mut Vec<u32>,
}

impl<'s> Dealer<'s> {
    fn start(buf: &'s mut Buffers, block: &Block) -> Self {
        let (entries, dealt_entries) = buf.entries.split_at_mut(block.entries);
        let (windows, dealt_windows) = buf.windows.split_at_mut(block.windows);
        Dealer {
            entries,
            windows,
            dealt_entries,
            dealt_windows,
            base: (block.entries, block.windows),
            slots: &buf.slots,
            scan_start: buf.scan_start,
            children: &mut buf.children,
            open: &mut buf.open,
        }
    }
}

impl Visit for Dealer<'_> {
    /// Appends `window` to the current entry of `item`'s projected database,
    /// if `item` is frequent.
    #[inline]
    fn extension(&mut self, item: u32, window: (u32, u32)) {
        // A slot the count did not stamp is left over from another node.
        let c = match self.slots.get(item as usize) {
            Some(slot) if slot.stamp > self.scan_start && slot.child != u32::MAX => slot.child,
            _ => return,
        };
        let child = &mut self.children[c as usize];
        if child.open_entry == usize::MAX {
            child.open_entry = child.next_window;
            self.open.push(c);
        }
        self.dealt_windows[child.next_window - self.base.1] = window;
        child.next_window += 1;
    }

    /// Ends the entry of sequence `seq` in every child it has windows for.
    fn end_sequence(&mut self, seq: u32) {
        for c in self.open.drain(..) {
            let child = &mut self.children[c as usize];
            let (from, to) = (child.open_entry, child.next_window);
            // Neighbouring windows reach overlapping positions.
            let fresh = &mut self.dealt_windows[from - self.base.1..to - self.base.1];
            if !fresh.windows(2).all(|w| w[0] < w[1]) {
                fresh.sort_unstable();
                let mut kept = 1;
                for r in 1..fresh.len() {
                    if fresh[r] != fresh[kept - 1] {
                        fresh[kept] = fresh[r];
                        kept += 1;
                    }
                }
                child.next_window = from + kept;
            }
            self.dealt_entries[child.level.entries.1 - self.base.0] = Entry {
                seq,
                wins: (offset(from), offset(child.next_window)),
            };
            child.level.entries.1 += 1;
            child.open_entry = usize::MAX;
        }
    }
}

/// The sequence positions reachable from an embedding window in the given
/// direction under the gap constraint.
#[inline]
fn reach(len: usize, start: u32, end: u32, gamma: usize, dir: Dir) -> Range<usize> {
    match dir {
        Dir::Right => {
            let from = end as usize + 1;
            from.min(len)..(from + gamma + 1).min(len)
        }
        Dir::Left => {
            let to = start as usize;
            to.saturating_sub(gamma + 1)..to
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig2_context, ranks};

    fn part(seqs: &[(&[u32], u64)]) -> Partition {
        let mut p = Partition::new();
        for (s, w) in seqs {
            p.push(s, *w);
        }
        p
    }

    /// The windows of every entry of `level`.
    fn windows_of(engine: &Engine<'_>, level: Level) -> Vec<Vec<(u32, u32)>> {
        engine.buf.entries[level.entries.0..level.entries.1]
            .iter()
            .map(|e| engine.buf.windows[e.wins.0 as usize..e.wins.1 as usize].to_vec())
            .collect()
    }

    /// The (item, frequency) pairs of `block`, which is popped.
    fn frequent(engine: &mut Engine<'_>, block: Block) -> Vec<(u32, u64)> {
        let pairs = block
            .children
            .clone()
            .map(|i| (engine.child(i).item, engine.child(i).frequency))
            .collect();
        engine.pop_block(block);
        pairs
    }

    /// The projected database of the child for `item` in `block`.
    fn level_of(engine: &Engine<'_>, block: &Block, item: u32) -> Level {
        block
            .children
            .clone()
            .map(|i| engine.child(i))
            .find(|c| c.item == item)
            .expect("item is frequent")
            .level
    }

    /// A cap above every rank.
    const ANY: u32 = BLANK - 1;

    #[test]
    fn item_level_finds_generalized_occurrences() {
        let ctx = fig2_context();
        let [a, b12] = ranks(&ctx, &["a", "b12"])[..] else {
            panic!()
        };
        let b_cap = ctx.rank("B");
        let p = part(&[(&[a, b12], 1), (&[a], 2)]);
        let mut scratch = Buffers::default();
        let mut engine = Engine::new(&mut scratch, &p, ctx.space(), 0, ANY);
        // B occurs (via b12) in sequence 0 only.
        let level = engine.push_item_level(b_cap);
        assert_eq!(windows_of(&engine, level), vec![vec![(1, 1)]]);
        assert_eq!(engine.support(level), 1);
        // a occurs in both; weighted support 3.
        let level = engine.push_item_level(a);
        assert_eq!(engine.support(level), 3);
        assert!(engine.push_item_level(ctx.rank("D")).is_empty());
    }

    #[test]
    fn expand_right_includes_generalizations() {
        let ctx = fig2_context();
        let [a, b12, c] = ranks(&ctx, &["a", "b12", "c"])[..] else {
            panic!()
        };
        let [b_cap, b1] = ranks(&ctx, &["B", "b1"])[..] else {
            panic!()
        };
        let p = part(&[(&[a, b12, c], 1)]);
        let mut scratch = Buffers::default();
        let mut engine = Engine::new(&mut scratch, &p, ctx.space(), 0, ANY);
        let level = engine.push_item_level(a);
        // γ=0: only position 1 (b12) is reachable → candidates b12, b1, B.
        let (evaluated, block) = engine.expand(level, Dir::Right, None, None, 1, true);
        assert_eq!(evaluated, 3);
        assert_eq!(
            frequent(&mut engine, block),
            [(b_cap, 1), (b1, 1), (b12, 1)]
        );
        // An allowed set restricts what is counted at all.
        let mut only_b1 = ItemSet::default();
        only_b1.insert(b1);
        let (evaluated, block) = engine.expand(level, Dir::Right, None, Some(&only_b1), 1, true);
        assert_eq!(evaluated, 1);
        assert_eq!(frequent(&mut engine, block), [(b1, 1)]);
        // With max_item = b1 the raw item b12 is filtered but ancestors stay.
        let mut engine = Engine::new(&mut scratch, &p, ctx.space(), 0, b1);
        let level = engine.push_item_level(a);
        let (_, block) = engine.expand(level, Dir::Right, None, None, 1, true);
        assert_eq!(frequent(&mut engine, block), [(b_cap, 1), (b1, 1)]);
        // Excluding b1 removes exactly it.
        let (_, block) = engine.expand(level, Dir::Right, Some(b1), None, 1, true);
        assert_eq!(frequent(&mut engine, block), [(b_cap, 1)]);
    }

    #[test]
    fn expand_left_and_blank_gaps() {
        let ctx = fig2_context();
        let [a, c] = ranks(&ctx, &["a", "c"])[..] else {
            panic!()
        };
        let p = part(&[(&[a, BLANK, c], 1)]);
        // γ=0 window covers only the blank → nothing.
        let mut scratch = Buffers::default();
        let mut engine = Engine::new(&mut scratch, &p, ctx.space(), 0, ANY);
        let level = engine.push_item_level(c);
        let (evaluated, block) = engine.expand(level, Dir::Left, None, None, 1, true);
        assert_eq!(evaluated, 0);
        assert!(block.children.is_empty());
        // γ=1 reaches `a`.
        let mut engine = Engine::new(&mut scratch, &p, ctx.space(), 1, ANY);
        let level = engine.push_item_level(c);
        let (_, block) = engine.expand(level, Dir::Left, None, None, 1, true);
        assert_eq!(
            windows_of(&engine, level_of(&engine, &block, a)),
            [[(0, 2)]]
        );
        assert_eq!(frequent(&mut engine, block), [(a, 1)]);
    }

    #[test]
    fn projection_right_tracks_windows() {
        let ctx = fig2_context();
        let [a, b1] = ranks(&ctx, &["a", "b1"])[..] else {
            panic!()
        };
        let b_cap = ctx.rank("B");
        // a b1 a b1 — project [a] by b1 (γ=1).
        let p = part(&[(&[a, b1, a, b1], 1)]);
        let mut scratch = Buffers::default();
        let mut engine = Engine::new(&mut scratch, &p, ctx.space(), 1, ANY);
        let level = engine.push_item_level(a);
        assert_eq!(windows_of(&engine, level), vec![vec![(0, 0), (2, 2)]]);
        // Window (0,0) reaches b1@1 and a@2; (2,2) reaches b1@3.
        let (_, by) = engine.expand(level, Dir::Right, None, None, 1, true);
        let a_b1 = level_of(&engine, &by, b1);
        assert_eq!(windows_of(&engine, a_b1), vec![vec![(0, 1), (2, 3)]]);
        // The generalization B gets the same embeddings, a its own.
        let a_b = level_of(&engine, &by, b_cap);
        assert_eq!(windows_of(&engine, a_b), vec![vec![(0, 1), (2, 3)]]);
        assert_eq!(windows_of(&engine, level_of(&engine, &by, a)), [[(0, 2)]]);
        // Further projecting [a b1] by `a`: only window (0,1) can reach a@2.
        let (_, by2) = engine.expand(a_b1, Dir::Right, None, None, 1, true);
        assert_eq!(windows_of(&engine, level_of(&engine, &by2, a)), [[(0, 2)]]);
        // Popping in stack order restores the levels below untouched.
        engine.pop_block(by2);
        assert_eq!(windows_of(&engine, a_b1), vec![vec![(0, 1), (2, 3)]]);
        engine.pop_block(by);
        assert_eq!(windows_of(&engine, level), vec![vec![(0, 0), (2, 2)]]);
    }

    #[test]
    fn projection_merges_windows_reached_twice() {
        let ctx = fig2_context();
        let [a, c] = ranks(&ctx, &["a", "c"])[..] else {
            panic!()
        };
        // a a c with γ=1: `c` is reached from both (0,0) and (1,1), as (0,2)
        // and (1,2).
        let p = part(&[(&[a, a, c], 1)]);
        let mut scratch = Buffers::default();
        let mut engine = Engine::new(&mut scratch, &p, ctx.space(), 1, ANY);
        let level = engine.push_item_level(a);
        let (_, by) = engine.expand(level, Dir::Right, None, None, 1, true);
        assert_eq!(
            windows_of(&engine, level_of(&engine, &by, c)),
            [[(0, 2), (1, 2)]]
        );
        // Left from c@2: both a's are within γ+1 = 2 positions…
        let mut engine = Engine::new(&mut scratch, &p, ctx.space(), 1, ANY);
        let level = engine.push_item_level(c);
        let (_, by) = engine.expand(level, Dir::Left, None, None, 1, true);
        let a_c = level_of(&engine, &by, a);
        assert_eq!(windows_of(&engine, a_c), [[(0, 2), (1, 2)]]);
        // …and a second `a` on the left is reached from (1,2) only.
        let (_, by2) = engine.expand(a_c, Dir::Left, None, None, 1, true);
        assert_eq!(windows_of(&engine, level_of(&engine, &by2, a)), [[(0, 2)]]);
        // [a] by `a` then by `c`: (0,1) reaches c once although both (0,0)
        // and (1,1) can see it.
        let mut engine = Engine::new(&mut scratch, &p, ctx.space(), 1, ANY);
        let level = engine.push_item_level(a);
        let (_, by) = engine.expand(level, Dir::Right, None, None, 1, true);
        let a_a = level_of(&engine, &by, a);
        assert_eq!(windows_of(&engine, a_a), [[(0, 1)]]);
        let (_, by2) = engine.expand(a_a, Dir::Right, None, None, 1, true);
        assert_eq!(windows_of(&engine, level_of(&engine, &by2, c)), [[(0, 2)]]);
    }

    #[test]
    fn unprojected_children_carry_no_database() {
        let ctx = fig2_context();
        let [a, b1] = ranks(&ctx, &["a", "b1"])[..] else {
            panic!()
        };
        let p = part(&[(&[a, b1], 1)]);
        let mut scratch = Buffers::default();
        let mut engine = Engine::new(&mut scratch, &p, ctx.space(), 3, ANY);
        let level = engine.push_item_level(b1);
        let (evaluated, block) = engine.expand(level, Dir::Left, None, None, 1, false);
        assert_eq!(evaluated, 1);
        assert!(level_of(&engine, &block, a).is_empty());
        assert_eq!(frequent(&mut engine, block), [(a, 1)]);
        // Projected, there is nothing further to the left of [a b1].
        let (_, block) = engine.expand(level, Dir::Left, None, None, 1, true);
        let a_b1 = level_of(&engine, &block, a);
        assert_eq!(windows_of(&engine, a_b1), vec![vec![(0, 1)]]);
        let (evaluated, none) = engine.expand(a_b1, Dir::Left, None, None, 1, true);
        assert_eq!(evaluated, 0);
        assert!(none.children.is_empty());
    }

    #[test]
    fn per_sequence_counting_uses_weights_once() {
        let ctx = fig2_context();
        let a = ctx.rank("a");
        // Two embeddings of `a` in the same sequence must count its weight once.
        let p = part(&[(&[a, a, a], 7), (&[a, a], 2)]);
        let mut scratch = Buffers::default();
        let mut engine = Engine::new(&mut scratch, &p, ctx.space(), 2, ANY);
        let level = engine.push_item_level(a);
        let (_, block) = engine.expand(level, Dir::Right, None, None, 1, true);
        assert_eq!(
            windows_of(&engine, level_of(&engine, &block, a)),
            [vec![(0, 1), (0, 2), (1, 2)], vec![(0, 1)]]
        );
        assert_eq!(frequent(&mut engine, block), [(a, 9)]);
        // A later scan starts from zero although the slots are never cleared.
        let (_, block) = engine.expand(level, Dir::Left, None, None, 1, true);
        assert_eq!(frequent(&mut engine, block), [(a, 9)]);
    }

    #[test]
    fn expand_items_filters_by_sigma_and_projects_every_occurrence() {
        let ctx = fig2_context();
        let [a, c, b12] = ranks(&ctx, &["a", "c", "b12"])[..] else {
            panic!()
        };
        let [b_cap, b1] = ranks(&ctx, &["B", "b1"])[..] else {
            panic!()
        };
        let p = part(&[(&[c, a, BLANK, b12], 3), (&[c, c], 1)]);
        let mut scratch = Buffers::default();
        let mut engine = Engine::new(&mut scratch, &p, ctx.space(), 0, ANY);
        let (seen, block) = engine.expand_items(4);
        assert_eq!(seen, 5);
        assert_eq!(frequent(&mut engine, block), [(c, 4)]);
        let (_, block) = engine.expand_items(1);
        assert_eq!(
            windows_of(&engine, level_of(&engine, &block, c)),
            [vec![(0, 0)], vec![(0, 0), (1, 1)]]
        );
        assert_eq!(
            windows_of(&engine, level_of(&engine, &block, b1)),
            [[(3, 3)]]
        );
        assert_eq!(
            frequent(&mut engine, block),
            [(a, 3), (b_cap, 3), (b1, 3), (c, 4), (b12, 3)]
        );
    }

    #[test]
    fn item_set_clears_in_place() {
        let mut set = ItemSet::default();
        assert!(set.is_empty() && !set.contains(70));
        set.insert(70);
        set.insert(3);
        set.insert(70);
        assert!(set.contains(70) && set.contains(3) && !set.contains(4));
        set.clear();
        assert!(set.is_empty() && !set.contains(70) && !set.contains(3));
    }
}
