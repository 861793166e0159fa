//! A FIFO stored in fixed-size blocks that never move.
//!
//! The engine's timeout lane holds one entry per root emitted within the
//! last tuple timeout: over a hundred thousand on the busiest paper
//! topology. A `VecDeque` reaches that size by doubling, and every
//! doubling copies the live entries into a buffer twice the size while
//! the old one is still held. Where the allocator finds the new buffer
//! (fresh pages, or memory an earlier run freed) depends on the layout
//! of every smaller allocation made before it. That layout follows the
//! iteration and drop order of the randomly seeded `HashMap`s in the
//! spec, scheduler and build layers, so the process's peak resident set
//! moved by several MB between identical runs.
//!
//! [`BlockFifo`] grows one block at a time instead. Nothing is ever
//! copied, a block emptied at the front is recycled at the back, and the
//! memory held is the live entries rounded up to a block, plus one spare.

use std::collections::VecDeque;

/// Entries per block: 24 KiB of the engine's `(u64, u64, u64)` entries.
/// Small blocks also keep the memory a finished run frees in pieces that
/// later allocations reuse; with 4096-entry blocks the `scale` workload's
/// peak resident set still moved by ~1 MB between identical runs.
const BLOCK: usize = 1024;

/// A FIFO queue of `Copy` values in fixed-size blocks. See the module
/// docs.
///
/// Every block in `blocks` is non-empty and the front block has an entry
/// at `head`, so the queue is empty exactly when `blocks` is.
#[derive(Debug)]
pub(crate) struct BlockFifo<T> {
    blocks: VecDeque<Vec<T>>,
    /// Entries of the front block already popped.
    head: usize,
    /// The last block emptied, kept for the next push that needs a block.
    spare: Option<Vec<T>>,
}

impl<T: Copy> BlockFifo<T> {
    /// An empty queue; allocates nothing until the first push.
    pub fn new() -> Self {
        Self {
            blocks: VecDeque::new(),
            head: 0,
            spare: None,
        }
    }

    /// Appends `value` at the back.
    pub fn push_back(&mut self, value: T) {
        match self.blocks.back_mut() {
            Some(block) if block.len() < BLOCK => block.push(value),
            _ => {
                let mut block = self
                    .spare
                    .take()
                    .unwrap_or_else(|| Vec::with_capacity(BLOCK));
                block.push(value);
                self.blocks.push_back(block);
            }
        }
    }

    /// The oldest entry.
    pub fn front(&self) -> Option<&T> {
        self.blocks.front().map(|block| &block[self.head])
    }

    /// The newest entry.
    pub fn back(&self) -> Option<&T> {
        self.blocks.back().and_then(|block| block.last())
    }

    /// Removes and returns the oldest entry.
    pub fn pop_front(&mut self) -> Option<T> {
        let front = self.blocks.front()?;
        let value = front[self.head];
        self.head += 1;
        if self.head == front.len() {
            let mut block = self.blocks.pop_front().expect("front checked");
            block.clear();
            self.spare = Some(block);
            self.head = 0;
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Replays interleaved pushes and pops on a `BlockFifo` and on a
    /// `VecDeque`, checking `front`, `back` and every popped value.
    fn matches_vecdeque(ops: impl IntoIterator<Item = (usize, usize)>) {
        let mut fifo = BlockFifo::new();
        let mut model = VecDeque::new();
        let mut next = 0u64;
        for (pushes, pops) in ops {
            for _ in 0..pushes {
                fifo.push_back(next);
                model.push_back(next);
                next += 1;
            }
            for _ in 0..pops {
                assert_eq!(fifo.pop_front(), model.pop_front());
            }
            assert_eq!(fifo.front(), model.front());
            assert_eq!(fifo.back(), model.back());
            assert!(fifo.blocks.len() <= model.len().div_ceil(BLOCK) + 1);
        }
        while let Some(v) = model.pop_front() {
            assert_eq!(fifo.pop_front(), Some(v));
        }
        assert_eq!(fifo.pop_front(), None);
        assert_eq!(fifo.front(), None);
        assert_eq!(fifo.back(), None);
    }

    #[test]
    fn order_survives_block_boundaries() {
        // Fill past several blocks, drain across them, and refill a
        // drained queue, at and around the block size.
        matches_vecdeque([(3 * BLOCK + 7, 0), (0, 2 * BLOCK), (BLOCK, BLOCK + 7)]);
        matches_vecdeque([(BLOCK, BLOCK), (1, 0), (BLOCK - 1, 1), (0, BLOCK - 1)]);
    }

    #[test]
    fn steady_turnover_recycles_blocks() {
        // A lane that pushes and pops at the same rate, as the timeout
        // lane does once the first deadlines pass, keeps its block count.
        let mut fifo = BlockFifo::new();
        for v in 0..BLOCK as u64 * 2 {
            fifo.push_back(v);
        }
        for v in BLOCK as u64 * 2..BLOCK as u64 * 20 {
            fifo.push_back(v);
            assert_eq!(fifo.pop_front(), Some(v - BLOCK as u64 * 2));
            assert!(fifo.blocks.len() <= 3);
        }
    }

    #[test]
    fn mixed_rates_match_vecdeque() {
        matches_vecdeque((0..200).map(|k| ((k * 37) % 101 * 60, (k * 53) % 97 * 60)));
    }
}
