//! Arena-allocated rooted forests.
//!
//! Nodes are stored in two parallel `Vec`s (labels and parent links) and
//! addressed by dense `u32` indices — no `Rc`, no pointer chasing, and the
//! whole structure drops iteratively regardless of tree depth.

/// Sentinel parent index meaning "this node is a root".
pub(crate) const NONE: u32 = u32::MAX;

/// Identifier of a node inside a [`Forest`].
///
/// A `NodeId` is a dense `u32` index; it is only meaningful for the forest
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Dense index of the node, suitable for indexing side tables.
    ///
    /// ```
    /// use dtc_core::Forest;
    /// let mut f = Forest::new();
    /// let r = f.add_root(7i64);
    /// assert_eq!(r.index(), 0);
    /// ```
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `NodeId` from a dense index.
    ///
    /// The index is not validated here; using an id that is out of range
    /// for a given forest panics at the point of use.
    ///
    /// ```
    /// use dtc_core::NodeId;
    /// assert_eq!(NodeId::from_index(3).index(), 3);
    /// ```
    #[inline]
    pub fn from_index(i: usize) -> NodeId {
        assert!(i < u32::MAX as usize, "index exceeds u32 node capacity");
        NodeId(i as u32)
    }

    #[inline]
    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A rooted forest over arena-allocated nodes with labels of type `L`.
///
/// The forest only stores parent pointers, and no child list is kept
/// beside it: a dynamic forest's structure phase reads a node's children
/// back from its trace. Nodes are append-only: build the shape with
/// [`Forest::add_root`] and [`Forest::add_child`], then contract it or wrap
/// it in a `DynForest` for batch-dynamic edits.
///
/// ```
/// use dtc_core::{Forest, SubtreeSum};
///
/// let mut f = Forest::new();
/// let root = f.add_root(1i64);
/// let a = f.add_child(root, 2);
/// let b = f.add_child(root, 3);
/// let _leaf = f.add_child(a, 4);
///
/// let c = f.contraction().run(&SubtreeSum);
/// assert_eq!(*c.subtree_value(root), 10);
/// assert_eq!(*c.subtree_value(a), 6);
/// assert_eq!(*c.subtree_value(b), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Forest<L> {
    labels: Vec<L>,
    parent: Vec<u32>,
}

impl<L> Forest<L> {
    /// Creates an empty forest.
    ///
    /// ```
    /// let f = dtc_core::Forest::<i64>::new();
    /// assert!(f.is_empty());
    /// ```
    pub fn new() -> Self {
        Forest {
            labels: Vec::new(),
            parent: Vec::new(),
        }
    }

    /// Creates an empty forest with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Forest {
            labels: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
        }
    }

    /// Number of nodes in the forest.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when the forest has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    fn push(&mut self, label: L, parent: u32) -> NodeId {
        let id = self.labels.len();
        assert!(id < NONE as usize, "forest exceeds u32 node capacity");
        self.labels.push(label);
        self.parent.push(parent);
        NodeId(id as u32)
    }

    /// Adds a new root (a node with no parent) and returns its id.
    ///
    /// # Panics
    /// Panics if the forest already holds `u32::MAX` nodes: ids are `u32`,
    /// and `u32::MAX` is reserved to mean "no parent".
    pub fn add_root(&mut self, label: L) -> NodeId {
        self.push(label, NONE)
    }

    /// Adds a new child of `parent` and returns its id.
    ///
    /// # Panics
    /// Panics if `parent` is not a node of this forest, or if the forest
    /// already holds `u32::MAX` nodes (ids are `u32`, and `u32::MAX` is
    /// reserved to mean "no parent").
    pub fn add_child(&mut self, parent: NodeId, label: L) -> NodeId {
        assert!(
            parent.index() < self.labels.len(),
            "add_child: unknown parent {parent}"
        );
        self.push(label, parent.raw())
    }

    /// Parent of `v`, or `None` when `v` is a root.
    ///
    /// ```
    /// use dtc_core::Forest;
    /// let mut f = Forest::new();
    /// let r = f.add_root(0i64);
    /// let c = f.add_child(r, 1);
    /// assert_eq!(f.parent(c), Some(r));
    /// assert_eq!(f.parent(r), None);
    /// ```
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v.index()];
        (p != NONE).then_some(NodeId(p))
    }

    #[inline]
    pub(crate) fn parent_raw(&self, v: u32) -> u32 {
        self.parent[v as usize]
    }

    pub(crate) fn set_parent_raw(&mut self, v: u32, p: u32) {
        self.parent[v as usize] = p;
    }

    /// Label of `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> &L {
        &self.labels[v.index()]
    }

    /// Replaces the label of `v`.
    ///
    /// Note: when the forest is wrapped in a [`DynForest`](crate::DynForest),
    /// use [`DynForest::batch_update_weights`](crate::DynForest::batch_update_weights)
    /// instead so the change is propagated.
    pub fn set_label(&mut self, v: NodeId, label: L) {
        self.labels[v.index()] = label;
    }

    /// `true` when `v` has no parent.
    #[inline]
    pub fn is_root(&self, v: NodeId) -> bool {
        self.parent[v.index()] == NONE
    }

    /// Iterator over all node ids, in insertion order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// Iterator over the current roots of the forest.
    ///
    /// ```
    /// use dtc_core::Forest;
    /// let mut f = Forest::new();
    /// let a = f.add_root(0i64);
    /// let b = f.add_root(1);
    /// f.add_child(a, 2);
    /// let roots: Vec<_> = f.roots().collect();
    /// assert_eq!(roots, vec![a, b]);
    /// ```
    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == NONE)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Root of the component containing `v`, found by walking parent links.
    pub fn root_of(&self, v: NodeId) -> NodeId {
        let mut u = v.raw();
        while self.parent[u as usize] != NONE {
            u = self.parent[u as usize];
        }
        NodeId(u)
    }

    /// Verifies the structural invariants of the arena (`check` feature):
    /// parallel label/parent arrays of equal length, every parent pointer
    /// in range or `NONE`, and the parent graph acyclic — i.e. every node
    /// is reachable from a root. The arena is append-only (there is no
    /// free list), so these three properties are the whole contract.
    ///
    /// Returns a descriptive [`InvariantError`](crate::check::InvariantError)
    /// for the first violation found. `O(n)`.
    #[cfg(feature = "check")]
    pub fn validate(&self) -> Result<(), crate::check::InvariantError> {
        crate::check::ensure!(
            self.labels.len() == self.parent.len(),
            "label/parent arrays disagree: {} labels vs {} parents",
            self.labels.len(),
            self.parent.len()
        );
        // `Euler::of` re-checks parent ranges, then proves acyclicity by
        // counting the nodes its root-down traversal reaches.
        crate::check::Euler::of(self).map(|_| ())
    }

    /// Builds child adjacency lists (index = parent, values = children).
    pub(crate) fn build_children(&self) -> Vec<Vec<u32>> {
        let mut children = vec![Vec::new(); self.len()];
        for (i, &p) in self.parent.iter().enumerate() {
            if p != NONE {
                children[p as usize].push(i as u32);
            }
        }
        children
    }
}

/// Items grouped by node: group `k` is `items[lo..hi]` for its span
/// `[lo, hi)`. A trace holds one, its hop lists, built once per run by
/// [`engine::record`](crate::engine::record). A dynamic forest also keeps
/// each node's raked children
/// ([`raked_lists`](crate::engine::raked_lists)) and, under a
/// non-invertible algebra, its sibling tree (`propagate.rs`).
/// A run lays the groups out packed, in group order;
/// a structure phase resizes single groups ([`Csr::resize`]): a group that
/// fits is rewritten in place, and a longer one moves to the end of
/// `items`, into capacity reserved when the groups were laid out. So a
/// batch touches only the groups it changes; only when the reserve runs
/// out are the groups packed again. Packing costs `O(groups + items)`, so
/// the reserve is a quarter of that: a pack is paid for by the moved items
/// that filled the reserve, even when the groups are mostly empty (hop
/// lists). A clone keeps the reserve. Offsets are `u32`, checked by
/// [`offset`].
#[derive(Debug)]
pub(crate) struct Csr<T = u32> {
    /// `[lo, hi)` of every group in `items`.
    span: Vec<[u32; 2]>,
    /// Every grouped item, plus dead items left behind by [`Csr::resize`].
    pub items: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr {
            span: Vec::new(),
            items: Vec::new(),
        }
    }
}

impl Csr {
    /// Regroups the `(group, id)` pairs `pairs()` yields into `groups`
    /// packed groups, each in yield order. `pairs` is called twice: once to
    /// count and once to fill. `O(groups + pairs)`, no allocation once the
    /// buffers have grown.
    pub fn regroup<I>(&mut self, groups: usize, pairs: impl Fn() -> I)
    where
        I: Iterator<Item = (u32, u32)>,
    {
        let span = &mut self.span;
        span.clear();
        span.resize(groups, [0, 0]);
        for (g, _) in pairs() {
            span[g as usize][1] += 1;
        }
        // Each group's end starts out as its cursor, at its start.
        let mut end = 0;
        for s in span.iter_mut() {
            let lo = end;
            end = offset(lo as usize + s[1] as usize);
            *s = [lo, lo];
        }
        lay_items(&mut self.items, end as usize, groups, 0);
        for (g, id) in pairs() {
            let cursor = &mut span[g as usize][1];
            self.items[*cursor as usize] = id;
            *cursor += 1;
        }
    }

    /// Replaces group `k` by `ids` ([`Csr::resize`]).
    pub fn set(&mut self, k: u32, ids: &[u32]) {
        self.resize(k, ids.len(), 0).copy_from_slice(ids);
    }
}

impl<T: Clone> Csr<T> {
    /// Number of groups.
    #[cfg(feature = "check")]
    pub fn groups(&self) -> usize {
        self.span.len()
    }

    /// Lays out packed groups of the given lengths, every item `fill`, for
    /// the caller to fill through [`Csr::range`] or [`Csr::of_mut`].
    pub fn lay_out(&mut self, lens: impl Iterator<Item = usize>, fill: T) {
        self.span.clear();
        let mut end = 0;
        for len in lens {
            let lo = end;
            end = offset(lo as usize + len);
            self.span.push([lo, end]);
        }
        lay_items(&mut self.items, end as usize, self.span.len(), fill);
    }

    /// The `[lo, hi)` range of group `k` in `items`.
    #[inline]
    pub fn range(&self, k: u32) -> (usize, usize) {
        let [lo, hi] = self.span[k as usize];
        (lo as usize, hi as usize)
    }

    /// Group `k`.
    #[inline]
    pub fn of(&self, k: u32) -> &[T] {
        let (lo, hi) = self.range(k);
        &self.items[lo..hi]
    }

    /// Group `k`, mutably.
    #[inline]
    pub fn of_mut(&mut self, k: u32) -> &mut [T] {
        let (lo, hi) = self.range(k);
        &mut self.items[lo..hi]
    }

    /// Group `k` resized to `len` items, for the caller to overwrite: in
    /// place when they fit in its span, else `len` copies of `fill` at the
    /// end of `items`, packing the groups first if that would outgrow the
    /// reserve. `O(len)` amortized.
    pub fn resize(&mut self, k: u32, len: usize, fill: T) -> &mut [T] {
        let (mut lo, hi) = self.range(k);
        if len > hi - lo {
            if self.items.len() + len > self.items.capacity() {
                self.pack();
            }
            lo = self.items.len();
            self.items.resize(lo + len, fill);
        }
        self.span[k as usize] = [offset(lo), offset(lo + len)];
        &mut self.items[lo..lo + len]
    }

    /// Packs the groups again, in group order, with a fresh reserve: one
    /// sequential pass, once per reserve's worth of moved items.
    fn pack(&mut self) {
        let live: usize = self.span.iter().map(|s| (s[1] - s[0]) as usize).sum();
        let mut packed = Vec::with_capacity(live + reserve(live, self.span.len()));
        for s in &mut self.span {
            let lo = offset(packed.len());
            packed.extend_from_slice(&self.items[s[0] as usize..s[1] as usize]);
            *s = [lo, offset(packed.len())];
        }
        self.items = packed;
    }
}

/// `i` as an offset into a table's items.
///
/// # Panics
/// Panics when `i` does not fit in a `u32` (ARCHITECTURE.md lists the
/// forest sizes at which each table reaches that).
#[inline]
fn offset(i: usize) -> u32 {
    assert!(
        i <= u32::MAX as usize,
        "list table exceeds u32 offset capacity: offset {i}"
    );
    i as u32
}

/// Spare items kept behind `len` items in `groups` groups.
fn reserve(len: usize, groups: usize) -> usize {
    (len + groups) / 4
}

/// Refills `items` with `len` copies of `fill` and [`reserve`]s room
/// behind them.
fn lay_items<T: Clone>(items: &mut Vec<T>, len: usize, groups: usize, fill: T) {
    items.clear();
    items.reserve_exact(len + reserve(len, groups));
    items.resize(len, fill);
}

impl<T: Clone> Clone for Csr<T> {
    /// A copy with the same capacity. A derived clone allocates just the
    /// length, so the first relocation into the reserve would pack the
    /// whole table instead.
    fn clone(&self) -> Self {
        let mut items = Vec::with_capacity(self.items.capacity());
        items.extend_from_slice(&self.items);
        Csr {
            span: self.span.clone(),
            items,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{offset, Csr};

    /// 1000 groups holding ten items between them, like a tree's hop lists.
    fn sparse() -> Csr {
        let mut t = Csr::default();
        t.regroup(1000, || (0..10u32).map(|i| (i * 100, i)));
        t
    }

    #[test]
    fn a_clone_moves_lists_into_the_reserve_without_packing() {
        let t = sparse();
        let mut c = t.clone();
        assert_eq!(c.items.capacity(), t.items.capacity());
        // A pack walks all 1000 groups, so the reserve has room for a
        // quarter of them even though they hold only ten items.
        let buffer = c.items.as_ptr();
        for k in 0..100 {
            c.set(k, &[k, k + 1]);
        }
        assert_eq!(c.items.as_ptr(), buffer, "a relocation packed the table");
        for k in 0..1000 {
            let want: Vec<u32> = match k {
                0..=99 => vec![k, k + 1],
                _ if k % 100 == 0 => vec![k / 100],
                _ => vec![],
            };
            assert_eq!(c.of(k), want, "group {k}");
        }
        // Outgrowing the reserve packs the table; every list survives.
        for k in 0..1000 {
            c.set(k, &[k, k, k]);
        }
        for k in 0..1000 {
            assert_eq!(c.of(k), [k, k, k], "group {k}");
        }
    }

    #[test]
    fn offsets_up_to_u32_max_convert() {
        assert_eq!(offset(0), 0);
        assert_eq!(offset(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "list table exceeds u32 offset capacity")]
    fn an_offset_past_u32_max_panics() {
        offset(u32::MAX as usize + 1);
    }
}
