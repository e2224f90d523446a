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
/// The forest only stores parent pointers; the contraction engine derives
/// the child lists once per run, into the trace it records. Nodes are
/// append-only: build the shape with [`Forest::add_root`] and
/// [`Forest::add_child`], then contract it or wrap it in a `DynForest` for
/// batch-dynamic edits.
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

/// Node ids grouped by node in flat CSR form: group `k` is
/// `items[off[k]..off[k + 1]]`. A trace holds two: the loaded forest's child
/// lists, built once per load by
/// [`Scratch::load`](crate::engine::Scratch::load) in id order (the order
/// the contraction engine numbers sibling slots in), and its hop lists,
/// built once per run. Rebuilds re-derive in place, reusing both buffers.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Csr {
    /// Offsets into `items`, length `groups + 1`.
    pub off: Vec<u32>,
    /// Every grouped id, group after group.
    pub items: Vec<u32>,
}

impl Csr {
    /// Regroups the `(group, id)` pairs `pairs()` yields into `groups`
    /// groups, each in yield order. `pairs` is called twice: once to count
    /// and once to fill. `O(groups + pairs)`, no allocation once the
    /// buffers have grown.
    pub fn regroup<I>(&mut self, groups: usize, pairs: impl Fn() -> I)
    where
        I: Iterator<Item = (u32, u32)>,
    {
        let off = &mut self.off;
        off.clear();
        off.resize(groups + 1, 0);
        for (g, _) in pairs() {
            off[g as usize + 1] += 1;
        }
        for i in 0..groups {
            off[i + 1] += off[i];
        }
        self.items.clear();
        self.items.resize(off[groups] as usize, 0);
        // Fill using `off[g]` as `g`'s cursor. Afterwards `off[g]` holds
        // where `g` ends, which is where `g + 1` begins, so one shift right
        // restores the offsets.
        for (g, id) in pairs() {
            let cursor = &mut off[g as usize];
            self.items[*cursor as usize] = id;
            *cursor += 1;
        }
        off.copy_within(0..groups, 1);
        off[0] = 0;
    }

    /// The `[lo, hi)` range of group `k` in `items`.
    #[inline]
    pub fn range(&self, k: u32) -> (usize, usize) {
        (
            self.off[k as usize] as usize,
            self.off[k as usize + 1] as usize,
        )
    }

    /// Group `k`.
    #[inline]
    pub fn of(&self, k: u32) -> &[u32] {
        let (lo, hi) = self.range(k);
        &self.items[lo..hi]
    }
}
