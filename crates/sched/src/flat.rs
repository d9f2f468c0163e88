//! Per-item lists stored flat, shared by the compiled schedulers.

/// Per-owner lists stored flat: owner `i`'s entries are
/// `items[start[i]..start[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlatLists<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> FlatLists<T> {
    /// Groups `(owner, item)` pairs by owner, keeping each owner's items in
    /// input order.
    pub(crate) fn new(n: usize, mut pairs: Vec<(u32, T)>) -> Self {
        pairs.sort_by_key(|&(owner, _)| owner);
        let mut start = vec![0u32; n + 1];
        for &(owner, _) in &pairs {
            start[owner as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        Self { start, items: pairs.into_iter().map(|(_, item)| item).collect() }
    }

    pub(crate) fn of(&self, owner: usize) -> &[T] {
        &self.items[self.start[owner] as usize..self.start[owner + 1] as usize]
    }
}
