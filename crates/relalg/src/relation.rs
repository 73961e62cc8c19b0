//! Relations: finite sets of same-arity tuples, stored flat.
//!
//! A relation is a single arity-strided `Vec<Value>` held behind an `Arc`,
//! kept **canonical** at every public boundary: rows sorted ascending in
//! value order and deduplicated. Canonical storage gives set semantics,
//! deterministic iteration order (important for reproducible experiment
//! output), O(log n) membership, O(n) merge-based union/difference, and
//! O(1) clone — while eliminating the per-row `Box` allocation and
//! pointer-chasing comparisons of the previous `BTreeSet<Box<[Value]>>`
//! representation. `Value` is 16 bytes and `Copy`, so a million-row binary
//! relation is one 32 MB buffer instead of a million small heap objects.
//!
//! Row order is lexicographic in [`Value`]'s order (integers before
//! strings, strings in string order). String comparisons go through a
//! [`rc_formula::SymbolOrder`] rank snapshot fetched once per bulk
//! operation, so sorting never touches the symbol interner lock per
//! element.
//!
//! Nullary relations are first-class: over zero columns there are exactly
//! two relations, `{}` ("false") and `{()}` ("true"), which is how closed
//! formulas come back from the algebra evaluator. The flat buffer cannot
//! distinguish them (both are zero values), so the row count is stored
//! explicitly.
//!
//! **Canonical invariant.** Every constructed `Relation` satisfies
//! [`Relation::debug_assert_canonical`]: the buffer is exactly
//! `arity × n_rows` values, rows strictly ascending (sorted *and*
//! deduplicated). The invariant is what makes `PartialEq` a buffer compare,
//! membership a binary search, union/difference linear merges — and it is
//! debug-checked at builder finish, at every trusted `from_canonical`
//! construction, and at partition merges.
//!
//! For partition-parallel evaluation, the crate-internal
//! `Relation::partition_by` splits a relation into disjoint hash
//! partitions that are each canonical by construction (a subsequence of a
//! sorted sequence), so per-partition kernel outputs merge back into
//! canonical form without a global re-sort.

use crate::govern::{Budget, BudgetExceeded, Governor, Stage};
use rc_formula::fxhash::FxHasher;
use rc_formula::{symbol_order, SymbolOrder, Value};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// A database tuple.
pub type Tuple = Box<[Value]>;

/// Build a tuple from anything value-like.
pub fn tuple(vals: impl IntoIterator<Item = impl Into<Value>>) -> Tuple {
    vals.into_iter().map(Into::into).collect()
}

/// Compare two rows lexicographically under one order snapshot.
#[inline]
pub(crate) fn cmp_rows(a: &[Value], b: &[Value], order: &SymbolOrder) -> Ordering {
    for (&x, &y) in a.iter().zip(b.iter()) {
        match x.cmp_with(y, order) {
            Ordering::Equal => continue,
            non_eq => return non_eq,
        }
    }
    a.len().cmp(&b.len())
}

/// Hash the listed columns of a row (order-sensitive). This is the shared
/// key hash for the join kernels *and* for [`Relation::partition_by`]: two
/// rows agreeing on their key columns hash identically, so co-partitioning
/// both join inputs on the shared columns sends every matching pair to the
/// same partition.
#[inline]
pub(crate) fn hash_cols(row: &[Value], cols: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    for &c in cols {
        row[c].hash(&mut h);
    }
    h.finish()
}

/// Fewest input rows that justify giving a partition a worker thread of its
/// own; below this the spawn/merge overhead exceeds the kernel work.
pub const MIN_PARTITION_ROWS: usize = 4096;

/// Deterministic partition count for an operator over `rows` input rows on
/// this machine: one partition per [`MIN_PARTITION_ROWS`] rows, capped at
/// the available cores, never zero. Depends only on the cardinality and the
/// host's core count, so repeated runs on one machine always pick the same
/// layout (the golden-trace suite pins partition cardinalities under an
/// explicit [`crate::govern::Budget::with_partitions`] override instead, so
/// its snapshots stay machine-independent).
pub fn partition_count(rows: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    cores.min(rows / MIN_PARTITION_ROWS).max(1)
}

/// Side-size ceiling for the binary-search-and-stitch fast path in
/// [`Relation::union_governed`] and [`Relation::minus_governed`]: a side
/// at most this big (and at least 8× smaller than the other) is located
/// by per-row binary search and the output assembled from whole-segment
/// copies, instead of walking the big side row by row.
const SMALL_MERGE: usize = 64;

/// A finite relation: a set of tuples sharing one arity.
///
/// Always canonical: rows sorted ascending, no duplicates. Cloning is O(1)
/// (the row buffer is shared copy-on-write via `Arc`).
#[derive(Clone)]
pub struct Relation {
    arity: usize,
    n_rows: usize,
    data: Arc<Vec<Value>>,
}

impl Relation {
    /// The empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            n_rows: 0,
            data: Arc::new(Vec::new()),
        }
    }

    /// The nullary relation `{()}` — the algebra's "true".
    pub fn unit() -> Relation {
        Relation {
            arity: 0,
            n_rows: 1,
            data: Arc::new(Vec::new()),
        }
    }

    /// The nullary empty relation — the algebra's "false".
    pub fn empty_nullary() -> Relation {
        Relation::new(0)
    }

    /// A one-tuple relation.
    pub fn singleton(t: Tuple) -> Relation {
        Relation {
            arity: t.len(),
            n_rows: 1,
            data: Arc::new(t.into_vec()),
        }
    }

    /// Build from rows; panics if arities disagree.
    pub fn from_rows(arity: usize, rows: impl IntoIterator<Item = Tuple>) -> Relation {
        let mut b = RelationBuilder::new(arity);
        for row in rows {
            b.push_row(&row);
        }
        b.finish()
    }

    /// Wrap a buffer that is already canonical (sorted, deduplicated).
    /// Kernel internal: callers must guarantee the invariant.
    pub(crate) fn from_canonical(arity: usize, n_rows: usize, data: Vec<Value>) -> Relation {
        let rel = Relation {
            arity,
            n_rows,
            data: Arc::new(data),
        };
        rel.debug_assert_canonical();
        rel
    }

    /// Debug-assert the canonical-storage invariant every construction path
    /// must uphold: the buffer holds exactly `n_rows` arity-strided rows,
    /// sorted strictly ascending under the current symbol order (sorted
    /// *and* duplicate-free), and a nullary relation has at most one row.
    /// Called at builder finish, at every trusted `from_canonical`
    /// construction, and at partition merges; a no-op in release builds.
    #[inline]
    pub fn debug_assert_canonical(&self) {
        #[cfg(debug_assertions)]
        {
            assert_eq!(
                self.data.len(),
                self.arity * self.n_rows,
                "relation buffer length {} disagrees with arity {} × rows {}",
                self.data.len(),
                self.arity,
                self.n_rows
            );
            if self.arity == 0 {
                assert!(
                    self.n_rows <= 1,
                    "nullary relation claims {} rows",
                    self.n_rows
                );
            } else {
                let order = symbol_order();
                for i in 1..self.n_rows {
                    assert!(
                        cmp_rows(self.row(i - 1), self.row(i), &order) == Ordering::Less,
                        "rows {} and {} are out of order or duplicated",
                        i - 1,
                        i
                    );
                }
            }
        }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// The `i`-th row in sorted order.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// The whole row buffer, arity-strided, canonical order.
    #[inline]
    pub fn flat(&self) -> &[Value] {
        &self.data
    }

    /// Binary-search for a row, returning its index or the insertion point.
    pub(crate) fn search(&self, t: &[Value], order: &SymbolOrder) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0usize, self.n_rows);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp_rows(self.row(mid), t, order) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Index of the first row `>= probe` in canonical order (the insertion
    /// point of `probe`) — used by the range-parallel union/difference
    /// kernels to align a split of one relation with the other.
    pub(crate) fn lower_bound(&self, probe: &[Value], order: &SymbolOrder) -> usize {
        let (mut lo, mut hi) = (0usize, self.n_rows);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if cmp_rows(self.row(mid), probe, order) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Split the relation into `n` hash partitions on `key_cols`: each row
    /// goes to partition `hash(key columns) mod n`. Rows are taken in
    /// canonical order, so every partition is a strictly ascending
    /// subsequence — itself a canonical [`Relation`] — and merging the
    /// parts restores exactly the source relation. Rows agreeing on the
    /// key columns always share a partition, which is what makes
    /// partition-wise joins on those columns sound.
    ///
    /// Panics if `n == 0` or a key column is out of range. `n` may exceed
    /// the row count (the surplus partitions are empty); nullary relations
    /// put their at-most-one row in partition 0.
    pub(crate) fn partition_by(&self, key_cols: &[usize], n: usize) -> Vec<Relation> {
        assert!(n > 0, "partition count must be positive");
        for &c in key_cols {
            assert!(
                c < self.arity,
                "partition key column {c} out of range for arity {}",
                self.arity
            );
        }
        if n == 1 || self.arity == 0 {
            let mut parts = vec![self.clone()];
            parts.resize(n, Relation::new(self.arity));
            return parts;
        }
        let mut bufs: Vec<Vec<Value>> = vec![Vec::new(); n];
        let mut counts = vec![0usize; n];
        for row in self.iter() {
            let b = (hash_cols(row, key_cols) % n as u64) as usize;
            bufs[b].extend_from_slice(row);
            counts[b] += 1;
        }
        bufs.into_iter()
            .zip(counts)
            .map(|(buf, rows)| Relation::from_canonical(self.arity, rows, buf))
            .collect()
    }

    /// Insert a tuple; returns whether it was new. Panics on arity mismatch
    /// (a programming error, not a data error — loaders validate before
    /// inserting).
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.len(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            t.len(),
            self.arity
        );
        let order = symbol_order();
        match self.search(&t, &order) {
            Ok(_) => false,
            Err(pos) => {
                let data = Arc::make_mut(&mut self.data);
                let at = pos * self.arity;
                data.splice(at..at, t.iter().copied());
                self.n_rows += 1;
                true
            }
        }
    }

    /// Do `self` and `other` share the same underlying row buffer?
    /// Exact (pointer) identity, not value equality: a no-op
    /// `Relation::apply_delta` and plain clones propagate the same
    /// `Arc`'d buffer, so the IVM refresh path uses this to decide a
    /// cached hash index is still valid for a node's unchanged value.
    pub fn shares_data(&self, other: &Relation) -> bool {
        self.arity == other.arity
            && self.n_rows == other.n_rows
            && Arc::ptr_eq(&self.data, &other.data)
    }

    /// Membership test.
    pub fn contains(&self, t: &[Value]) -> bool {
        if t.len() != self.arity {
            return false;
        }
        let order = symbol_order();
        self.search(t, &order).is_ok()
    }

    /// Iterate over rows in sorted order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + Clone + '_ {
        self.rows(0..self.n_rows)
    }

    /// Iterate over the rows with indices in `range`, in sorted order.
    pub(crate) fn rows(
        &self,
        range: Range<usize>,
    ) -> impl ExactSizeIterator<Item = &[Value]> + Clone + '_ {
        let arity = self.arity;
        let data: &[Value] = &self.data;
        range.map(move |i| &data[i * arity..(i + 1) * arity])
    }

    /// For a nullary relation: is it "true" (`{()}`)?
    pub fn as_bool(&self) -> Option<bool> {
        if self.arity == 0 {
            Some(self.n_rows > 0)
        } else {
            None
        }
    }

    /// Every value appearing in any tuple, deduplicated, sorted.
    pub fn values(&self) -> BTreeSet<Value> {
        self.data.iter().copied().collect()
    }

    /// Set union with another relation of the same arity (linear merge).
    pub fn union(&self, other: &Relation) -> Relation {
        let mut gov = Governor::new(Budget::unlimited(), Stage::Eval);
        self.union_governed(other, &mut gov)
            .expect("unlimited budget cannot trip")
    }

    /// [`Relation::union`] under a [`Governor`]: checkpoints every
    /// [`crate::govern::CHECK_INTERVAL`] merged rows so huge merges stay
    /// cancellable. Either the exact union or a budget error — never a
    /// partial relation.
    pub fn union_governed(
        &self,
        other: &Relation,
        gov: &mut Governor<'_>,
    ) -> Result<Relation, BudgetExceeded> {
        assert_eq!(self.arity, other.arity, "union arity mismatch");
        if self.is_empty() || Arc::ptr_eq(&self.data, &other.data) {
            return Ok(other.clone());
        }
        if other.is_empty() {
            return Ok(self.clone());
        }
        if self.arity == 0 {
            return Ok(Relation::unit());
        }
        let order = symbol_order();
        let arity = self.arity;
        // Tiny right side into a big left side: binary-search each row's
        // slot and stitch the output from whole-segment copies instead of
        // a per-row comparison merge. This is the IVM trickle path — a
        // handful of delta rows applied to a buffer of hundreds of
        // thousands — where memcpy beats row-at-a-time by an order of
        // magnitude.
        if other.n_rows <= SMALL_MERGE && other.n_rows * 8 <= self.n_rows {
            let mut inserts: Vec<(usize, usize)> = Vec::with_capacity(other.n_rows);
            for j in 0..other.n_rows {
                gov.tick(j)?;
                if let Err(pos) = self.search(other.row(j), &order) {
                    inserts.push((pos, j));
                }
            }
            if inserts.is_empty() {
                return Ok(self.clone());
            }
            let mut out = Vec::with_capacity(self.data.len() + inserts.len() * arity);
            let mut prev = 0usize;
            // `other` is sorted, so the slot positions are nondecreasing.
            for &(pos, j) in &inserts {
                out.extend_from_slice(&self.data[prev * arity..pos * arity]);
                out.extend_from_slice(other.row(j));
                prev = pos;
            }
            out.extend_from_slice(&self.data[prev * arity..]);
            return Ok(Relation::from_canonical(
                arity,
                self.n_rows + inserts.len(),
                out,
            ));
        }
        let (out, n) = union_rows(self, 0..self.n_rows, other, 0..other.n_rows, gov)?;
        Ok(Relation::from_canonical(arity, n, out))
    }

    /// Plain set difference with another relation of the same arity
    /// (linear merge).
    pub fn minus(&self, other: &Relation) -> Relation {
        let mut gov = Governor::new(Budget::unlimited(), Stage::Eval);
        self.minus_governed(other, &mut gov)
            .expect("unlimited budget cannot trip")
    }

    /// [`Relation::minus`] under a [`Governor`]: checkpoints every
    /// [`crate::govern::CHECK_INTERVAL`] scanned rows. Either the exact
    /// difference or a budget error — never a partial relation.
    pub fn minus_governed(
        &self,
        other: &Relation,
        gov: &mut Governor<'_>,
    ) -> Result<Relation, BudgetExceeded> {
        assert_eq!(self.arity, other.arity, "difference arity mismatch");
        if self.is_empty() || Arc::ptr_eq(&self.data, &other.data) && self.n_rows == other.n_rows {
            return Ok(Relation::new(self.arity));
        }
        if other.is_empty() {
            return Ok(self.clone());
        }
        if self.arity == 0 {
            // other is non-empty {()}, so the difference is empty.
            return Ok(Relation::empty_nullary());
        }
        let order = symbol_order();
        let arity = self.arity;
        // Tiny subtrahend from a big relation: locate the doomed rows by
        // binary search and stitch the survivors from whole-segment
        // copies (see the twin fast path in [`Relation::union_governed`]).
        if other.n_rows <= SMALL_MERGE && other.n_rows * 8 <= self.n_rows {
            let mut hits: Vec<usize> = Vec::with_capacity(other.n_rows);
            for j in 0..other.n_rows {
                gov.tick(j)?;
                if let Ok(pos) = self.search(other.row(j), &order) {
                    hits.push(pos);
                }
            }
            if hits.is_empty() {
                return Ok(self.clone());
            }
            let mut out = Vec::with_capacity((self.n_rows - hits.len()) * arity);
            let mut prev = 0usize;
            // Distinct sorted rows give strictly increasing positions.
            for &pos in &hits {
                out.extend_from_slice(&self.data[prev * arity..pos * arity]);
                prev = pos + 1;
            }
            out.extend_from_slice(&self.data[prev * arity..]);
            return Ok(Relation::from_canonical(
                arity,
                self.n_rows - hits.len(),
                out,
            ));
        }
        let (out, n) = minus_rows(self, 0..self.n_rows, other, 0..other.n_rows, gov)?;
        Ok(Relation::from_canonical(arity, n, out))
    }

    /// Apply a delta pair to a canonical relation: `(self \ minus) ∪
    /// plus`, in exactly that order. The minus-then-plus schedule is what
    /// makes composed delta chains exact: a row deleted by one link and
    /// reinserted by a later one sits in *both* sides of the composed
    /// delta, and subtracting first guarantees the reinsert survives.
    /// Empty deltas are O(1) (a clone of the shared buffer).
    pub(crate) fn apply_delta(
        &self,
        plus: &Relation,
        minus: &Relation,
        gov: &mut Governor<'_>,
    ) -> Result<Relation, BudgetExceeded> {
        if minus.is_empty() && plus.is_empty() {
            return Ok(self.clone());
        }
        self.minus_governed(minus, gov)?.union_governed(plus, gov)
    }
}

/// The sorted-merge union loop: rows `lr` of `l` merged with rows `rr` of
/// `r` (same arity, both canonical), a row on both sides kept once. The
/// general path of [`Relation::union_governed`], and the loop each lane of
/// the evaluator's range-parallel union runs.
pub(crate) fn union_rows(
    l: &Relation,
    lr: Range<usize>,
    r: &Relation,
    rr: Range<usize>,
    gov: &mut Governor<'_>,
) -> Result<(Vec<Value>, usize), BudgetExceeded> {
    let order = symbol_order();
    let arity = l.arity;
    let mut out = Vec::with_capacity((lr.len() + rr.len()) * arity);
    let (mut i, mut j) = (lr.start, rr.start);
    let mut n = 0usize;
    while i < lr.end && j < rr.end {
        gov.tick(n)?;
        match cmp_rows(l.row(i), r.row(j), &order) {
            Ordering::Less => {
                out.extend_from_slice(l.row(i));
                i += 1;
            }
            Ordering::Greater => {
                out.extend_from_slice(r.row(j));
                j += 1;
            }
            Ordering::Equal => {
                out.extend_from_slice(l.row(i));
                i += 1;
                j += 1;
            }
        }
        n += 1;
    }
    out.extend_from_slice(&l.data[i * arity..lr.end * arity]);
    out.extend_from_slice(&r.data[j * arity..rr.end * arity]);
    n += (lr.end - i) + (rr.end - j);
    Ok((out, n))
}

/// The sorted-merge difference loop: the rows `lr` of `l` that are not
/// among the rows `rr` of `r` (same arity, both canonical). The general
/// path of [`Relation::minus_governed`], and the loop each lane of the
/// evaluator's range-parallel difference runs.
pub(crate) fn minus_rows(
    l: &Relation,
    lr: Range<usize>,
    r: &Relation,
    rr: Range<usize>,
    gov: &mut Governor<'_>,
) -> Result<(Vec<Value>, usize), BudgetExceeded> {
    let order = symbol_order();
    let mut out = Vec::new();
    let mut n = 0usize;
    let mut j = rr.start;
    for i in lr.clone() {
        gov.tick(i - lr.start)?;
        let row = l.row(i);
        let mut keep = true;
        while j < rr.end {
            match cmp_rows(r.row(j), row, &order) {
                Ordering::Less => j += 1,
                Ordering::Equal => {
                    keep = false;
                    break;
                }
                Ordering::Greater => break,
            }
        }
        if keep {
            out.extend_from_slice(row);
            n += 1;
        }
    }
    Ok((out, n))
}

/// Merge already-canonical relations pairwise (a balanced binary union
/// tree) under one governor: how split kernels (the partition-wise join,
/// projection) merge their per-lane outputs.
pub(crate) fn merge_sorted(
    mut layer: Vec<Relation>,
    arity: usize,
    gov: &mut Governor<'_>,
) -> Result<Relation, BudgetExceeded> {
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            next.push(match pair {
                [a, b] => a.union_governed(b, gov)?,
                [a] => a.clone(),
                _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
            });
        }
        layer = next;
    }
    let out = layer.pop().unwrap_or_else(|| Relation::new(arity));
    out.debug_assert_canonical();
    Ok(out)
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.arity == other.arity
            && self.n_rows == other.n_rows
            && (Arc::ptr_eq(&self.data, &other.data) || self.data == other.data)
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation(arity={}, {})", self.arity, self)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, v) in t.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ")")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Tuple> for Relation {
    /// Collect tuples into a relation; arity is taken from the first tuple
    /// (empty iterators produce a nullary relation).
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Relation {
        let mut it = iter.into_iter().peekable();
        let arity = it.peek().map(|t| t.len()).unwrap_or(0);
        Relation::from_rows(arity, it)
    }
}

/// Accumulates rows into a flat buffer, canonicalizing once at the end.
///
/// This is the bulk-construction path: `push_row` is an `extend` into one
/// growing `Vec`, and `finish` sorts + dedups only if the rows are not
/// already in order (one linear scan detects that, so merge-shaped
/// producers pay nothing).
pub struct RelationBuilder {
    arity: usize,
    n_rows: usize,
    data: Vec<Value>,
}

impl RelationBuilder {
    /// A builder for rows of the given arity.
    pub fn new(arity: usize) -> RelationBuilder {
        RelationBuilder {
            arity,
            n_rows: 0,
            data: Vec::new(),
        }
    }

    /// A builder pre-sized for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> RelationBuilder {
        RelationBuilder {
            arity,
            n_rows: 0,
            data: Vec::with_capacity(arity * rows),
        }
    }

    /// A builder holding `rows` rows already laid out flat in `data`.
    pub(crate) fn from_flat(arity: usize, rows: usize, data: Vec<Value>) -> RelationBuilder {
        debug_assert_eq!(data.len(), arity * rows);
        RelationBuilder {
            arity,
            n_rows: rows,
            data,
        }
    }

    /// Append one row. Panics on arity mismatch.
    #[inline]
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(
            row.len(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            row.len(),
            self.arity
        );
        self.data.extend_from_slice(row);
        self.n_rows += 1;
    }

    /// Append one row given as exactly `arity` values.
    #[inline]
    pub fn push_row_from(&mut self, row: impl IntoIterator<Item = Value>) {
        let before = self.data.len();
        self.data.extend(row);
        assert_eq!(
            self.data.len() - before,
            self.arity,
            "pushed row does not match relation arity {}",
            self.arity
        );
        self.n_rows += 1;
    }

    /// The arity rows must have.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// Any rows yet?
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Sort, deduplicate, and seal the relation.
    pub fn finish(self) -> Relation {
        let RelationBuilder {
            arity,
            mut n_rows,
            mut data,
        } = self;
        if arity == 0 {
            return if n_rows == 0 {
                Relation::empty_nullary()
            } else {
                Relation::unit()
            };
        }
        if n_rows > 1 {
            let order = symbol_order();
            let row = |i: usize| &data[i * arity..(i + 1) * arity];
            // One linear scan classifies the buffer: already canonical
            // (sorted, strictly increasing), sorted-but-with-dups, or
            // unsorted.
            let mut sorted = true;
            let mut has_dups = false;
            for i in 1..n_rows {
                match cmp_rows(row(i - 1), row(i), &order) {
                    Ordering::Less => {}
                    Ordering::Equal => has_dups = true,
                    Ordering::Greater => {
                        sorted = false;
                        break;
                    }
                }
            }
            if !sorted {
                let mut idx: Vec<u32> = (0..n_rows as u32).collect();
                idx.sort_unstable_by(|&a, &b| cmp_rows(row(a as usize), row(b as usize), &order));
                let mut rebuilt = Vec::with_capacity(data.len());
                let mut kept = 0usize;
                for &i in &idx {
                    let r = row(i as usize);
                    if kept > 0 {
                        let last = &rebuilt[(kept - 1) * arity..kept * arity];
                        if cmp_rows(last, r, &order) == Ordering::Equal {
                            continue;
                        }
                    }
                    rebuilt.extend_from_slice(r);
                    kept += 1;
                }
                data = rebuilt;
                n_rows = kept;
            } else if has_dups {
                let mut kept = 1usize;
                for i in 1..n_rows {
                    let prev = &data[(kept - 1) * arity..kept * arity];
                    let cur = &data[i * arity..(i + 1) * arity];
                    if cmp_rows(prev, cur, &order) == Ordering::Equal {
                        continue;
                    }
                    data.copy_within(i * arity..(i + 1) * arity, kept * arity);
                    kept += 1;
                }
                data.truncate(kept * arity);
                n_rows = kept;
            }
        }
        data.shrink_to_fit();
        let rel = Relation {
            arity,
            n_rows,
            data: Arc::new(data),
        };
        rel.debug_assert_canonical();
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_semantics() {
        let mut r = Relation::new(2);
        assert!(r.insert(tuple([1i64, 2])));
        assert!(!r.insert(tuple([1i64, 2])));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[Value::int(1), Value::int(2)]));
        assert!(!r.contains(&[Value::int(2), Value::int(1)]));
    }

    #[test]
    fn nullary_booleans() {
        assert_eq!(Relation::unit().as_bool(), Some(true));
        assert_eq!(Relation::empty_nullary().as_bool(), Some(false));
        assert_eq!(Relation::new(1).as_bool(), None);
    }

    #[test]
    fn nullary_insert_roundtrip() {
        let mut r = Relation::empty_nullary();
        assert!(!r.contains(&[]));
        assert!(r.insert(Vec::new().into_boxed_slice()));
        assert!(!r.insert(Vec::new().into_boxed_slice()));
        assert_eq!(r.as_bool(), Some(true));
        assert!(r.contains(&[]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(1);
        r.insert(tuple([1i64, 2]));
    }

    #[test]
    fn union_and_minus() {
        let a = Relation::from_rows(1, [tuple([1i64]), tuple([2i64])]);
        let b = Relation::from_rows(1, [tuple([2i64]), tuple([3i64])]);
        assert_eq!(a.union(&b).len(), 3);
        let d = a.minus(&b);
        assert_eq!(d.len(), 1);
        assert!(d.contains(&[Value::int(1)]));
    }

    #[test]
    fn deterministic_display() {
        let r = Relation::from_rows(1, [tuple([3i64]), tuple([1i64]), tuple([2i64])]);
        assert_eq!(r.to_string(), "{(1), (2), (3)}");
    }

    #[test]
    fn values_flatten() {
        let r = Relation::from_rows(2, [tuple([1i64, 2]), tuple([2i64, 3])]);
        let vals: Vec<Value> = r.values().into_iter().collect();
        assert_eq!(vals, vec![Value::int(1), Value::int(2), Value::int(3)]);
    }

    #[test]
    fn builder_matches_insert_loop() {
        // Random-ish interleavings, duplicates included.
        let rows = [[5i64, 1], [2, 2], [5, 1], [0, 9], [2, 2], [2, 1], [9, 0]];
        let mut by_insert = Relation::new(2);
        let mut b = RelationBuilder::new(2);
        for r in rows {
            by_insert.insert(tuple(r));
            b.push_row(&[Value::int(r[0]), Value::int(r[1])]);
        }
        let built = b.finish();
        assert_eq!(built, by_insert);
        assert_eq!(built.to_string(), by_insert.to_string());
        assert_eq!(built.len(), 5);
    }

    #[test]
    fn builder_sorted_input_is_preserved() {
        let mut b = RelationBuilder::new(1);
        for i in 0..10i64 {
            b.push_row(&[Value::int(i)]);
        }
        let r = b.finish();
        assert_eq!(r.len(), 10);
        let got: Vec<i64> = r
            .iter()
            .map(|t| match t[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clone_is_shared_and_copy_on_write() {
        let a = Relation::from_rows(1, [tuple([1i64]), tuple([2i64])]);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.insert(tuple([3i64]));
        assert_eq!(a.len(), 2, "insert into clone must not affect original");
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn string_rows_sort_by_string_order() {
        let r = Relation::from_rows(
            1,
            [
                tuple(["zeta"]),
                tuple(["alpha"]),
                tuple([Value::int(10)]),
                tuple(["miguel"]),
            ],
        );
        assert_eq!(r.to_string(), "{(10), ('alpha'), ('miguel'), ('zeta')}");
    }

    #[test]
    fn mixed_arity_contains_is_false() {
        let r = Relation::from_rows(2, [tuple([1i64, 2])]);
        assert!(!r.contains(&[Value::int(1)]));
        assert!(!r.contains(&[]));
    }

    /// `rows` rows `(i, i mod modulus)`.
    fn numbered(rows: i64, modulus: i64) -> Relation {
        let mut b = RelationBuilder::new(2);
        for i in 0..rows {
            b.push_row(&[Value::int(i), Value::int(i % modulus)]);
        }
        b.finish()
    }

    /// The parts merged back into one relation.
    fn merged(parts: Vec<Relation>, arity: usize) -> Relation {
        let mut gov = Governor::new(Budget::unlimited(), Stage::Eval);
        merge_sorted(parts, arity, &mut gov).expect("unlimited budget cannot trip")
    }

    fn rows(parts: &[Relation]) -> usize {
        parts.iter().map(Relation::len).sum()
    }

    #[test]
    fn partition_by_is_a_disjoint_canonical_cover() {
        for rel in [numbered(500, 13), numbered(100, 7)] {
            for n in [1usize, 2, 3, 4, 7, 16] {
                let parts = rel.partition_by(&[1], n);
                assert_eq!(parts.len(), n);
                assert_eq!(rows(&parts), rel.len());
                for p in &parts {
                    p.debug_assert_canonical();
                    // Disjointness: every row of a part is in the source.
                    for row in p.iter() {
                        assert!(rel.contains(row));
                    }
                }
                assert_eq!(
                    merged(parts, 2),
                    rel,
                    "merge must restore the source (n={n})"
                );
            }
        }
    }

    #[test]
    fn partition_by_more_parts_than_rows() {
        let rel = numbered(3, 13);
        let parts = rel.partition_by(&[0], 64);
        assert_eq!(parts.len(), 64);
        assert_eq!(rows(&parts), 3);
        assert_eq!(merged(parts, 2), rel);
    }

    #[test]
    fn partition_by_groups_equal_keys_together() {
        let rel = numbered(500, 13);
        let parts = rel.partition_by(&[1], 5);
        // Each distinct key value must land in exactly one partition.
        for key in 0..13i64 {
            let holders = parts
                .iter()
                .filter(|p| p.iter().any(|row| row[1] == Value::int(key)))
                .count();
            assert_eq!(holders, 1, "key {key} split across partitions");
        }
    }

    #[test]
    fn partition_by_empty_and_nullary() {
        let empty = Relation::new(2);
        let parts = empty.partition_by(&[0], 4);
        assert_eq!(rows(&parts), 0);
        assert_eq!(merged(parts, 2), empty);

        let unit = Relation::unit();
        let parts = unit.partition_by(&[], 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(merged(parts, 0), unit);
    }

    #[test]
    fn partition_count_is_monotone_and_floored() {
        assert_eq!(partition_count(0), 1);
        assert_eq!(partition_count(MIN_PARTITION_ROWS - 1), 1);
        let big = partition_count(1 << 24);
        assert!(big >= 1);
        assert!(big >= partition_count(MIN_PARTITION_ROWS));
    }

    #[test]
    #[should_panic(expected = "partition count")]
    fn partition_by_zero_parts_panics() {
        numbered(4, 13).partition_by(&[0], 0);
    }
}
