//! Databases: named relations plus loading helpers.

use crate::ivm::{Delta, DeltaLog, TableDelta};
use crate::relation::{Relation, RelationBuilder, Tuple};
use crate::stats::{StatsStore, TableStats};
use rand::seq::SliceRandom;
use rand::Rng;
use rc_formula::fxhash::FxHashMap;
use rc_formula::{Formula, Schema, Symbol, Term, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Process-wide version stamp allocator. Starting at 1 reserves version 0
/// for pristine empty databases (`Database::default()`), which are all
/// interchangeable anyway.
static VERSION_COUNTER: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    VERSION_COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// An in-memory database: a map from predicate symbols to relations.
///
/// The active domain (Sec. 3's `Dom`, restricted to the database part) is
/// computed lazily and cached; every mutating method invalidates the
/// cache, so repeated `active_domain()` calls — the Dom-translation
/// baseline asks for it per query — cost one scan total, not one per call.
/// The cached set sits behind an [`Arc`], so cloning a database copies a
/// pointer to it, not the set.
///
/// Every mutation also stamps the database with a fresh [`version`] drawn
/// from a process-wide monotonic counter. Because stamps are globally
/// unique (never reused by any database in the process), equal versions
/// imply equal contents: a clone keeps its original's stamp (it *is* the
/// same contents) until either side mutates, and two databases that
/// evolved independently can never collide on a stamp. This is the
/// invalidation signal for [`crate::cache::PlanCache`]'s result entries.
///
/// [`version`]: Database::version
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: FxHashMap<Symbol, Relation>,
    domain_cache: OnceLock<Arc<BTreeSet<Value>>>,
    /// Per-relation statistics, the harvested-cardinality feedback map,
    /// and the stats epoch (see [`crate::stats`]). Clones share the store
    /// until either side mutates; mutation drops only the statistics of
    /// the tables it touched: the rest, the feedback map and the epoch
    /// are carried over, so
    /// cached plans survive data mutations exactly like plan-cache entries
    /// do, and the epoch moves only when an *observation* changes.
    stats_cache: Arc<Mutex<StatsStore>>,
    /// The journal of deltas applied via [`Database::apply_delta`], shared
    /// by *all* clones (unlike the derived-state caches it is never
    /// swapped out by a mutation): the copy-on-write serving path clones,
    /// mutates, and swaps databases, and the maintenance layer must still
    /// be able to chain from the version a cached view was built against
    /// to the version currently served. Mutations that bypass
    /// `apply_delta` simply leave a gap in the journal, which chain
    /// resolution reports as "unknown" — forcing full re-evaluation.
    delta_log: Arc<Mutex<DeltaLog>>,
    version: u64,
}

impl PartialEq for Database {
    fn eq(&self, other: &Database) -> bool {
        // The cache is derived state; equality is over the relations only.
        self.relations == other.relations
    }
}

/// Error raised while loading facts into a database.
#[derive(Clone, Debug, PartialEq)]
pub enum LoadError {
    /// The fact line did not parse as an atom.
    NotAnAtom(String),
    /// The atom contained a variable.
    NonGroundFact(String),
    /// An arity clash with previously loaded facts.
    ArityMismatch {
        /// The predicate.
        pred: Symbol,
        /// Previously seen arity.
        expected: usize,
        /// Arity in the offending fact.
        found: usize,
    },
    /// Underlying parse error.
    Parse(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::NotAnAtom(s) => write!(f, "fact is not an atom: {s}"),
            LoadError::NonGroundFact(s) => write!(f, "fact contains variables: {s}"),
            LoadError::ArityMismatch {
                pred,
                expected,
                found,
            } => write!(f, "predicate {pred}: arity {found} clashes with {expected}"),
            LoadError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The monotonic version stamp: bumped (to a process-globally fresh
    /// value) by every mutating method. Equal stamps imply equal contents;
    /// a changed database always changes its stamp.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Invalidate derived state after a mutation of the `touched`
    /// relations: drop the active-domain cache and the touched tables'
    /// statistics (their row counts and distincts are stale the moment
    /// their data changes), and take a fresh version stamp. Every other
    /// table's statistics, the statistics *epoch* and the
    /// harvested-cardinality feedback map survive: the epoch keys
    /// plan-cache entries, and plans are data-independent (a mutation
    /// invalidates cached *results* through the version stamp, never
    /// compiled plans).
    fn bump(&mut self, touched: impl IntoIterator<Item = Symbol>) {
        self.domain_cache.take();
        let carried = {
            let store = self.stats_cache.lock().expect("stats cache lock poisoned");
            let mut tables = store.tables.clone();
            for pred in touched {
                tables.remove(&pred);
            }
            StatsStore {
                epoch: store.epoch,
                tables,
                observed: Arc::clone(&store.observed),
            }
        };
        self.stats_cache = Arc::new(Mutex::new(carried));
        self.version = next_version();
    }

    /// The relation stored for `pred`, if any.
    pub fn relation(&self, pred: Symbol) -> Option<&Relation> {
        self.relations.get(&pred)
    }

    /// Declare an empty relation. Declaring an existing relation leaves
    /// the database exactly as it was: same contents, same version stamp,
    /// same derived state.
    pub fn declare(&mut self, pred: impl Into<Symbol>, arity: usize) -> &mut Self {
        let pred = pred.into();
        if let std::collections::hash_map::Entry::Vacant(slot) = self.relations.entry(pred) {
            slot.insert(Relation::new(arity));
            self.bump([pred]);
        }
        self
    }

    /// Insert a whole relation, replacing any existing one.
    pub fn insert_relation(&mut self, pred: impl Into<Symbol>, rel: Relation) -> &mut Self {
        let pred = pred.into();
        self.relations.insert(pred, rel);
        self.bump([pred]);
        self
    }

    /// Insert one fact; creates the relation on first use.
    pub fn insert_fact(&mut self, pred: impl Into<Symbol>, t: Tuple) -> Result<(), LoadError> {
        let pred = pred.into();
        let rel = self
            .relations
            .entry(pred)
            .or_insert_with(|| Relation::new(t.len()));
        if rel.arity() != t.len() {
            return Err(LoadError::ArityMismatch {
                pred,
                expected: rel.arity(),
                found: t.len(),
            });
        }
        rel.insert(t);
        self.bump([pred]);
        Ok(())
    }

    /// Load newline-separated ground atoms, e.g.:
    ///
    /// ```text
    /// Part('bolt')
    /// Supplies('acme', 'bolt')
    /// Count(1, 2)
    /// ```
    ///
    /// Blank lines and `%` comments are skipped. Trailing `.` is allowed.
    /// Rows are batched per predicate and canonicalized once, so loading is
    /// O(n log n) rather than insert-at-a-time.
    pub fn load_facts(&mut self, text: &str) -> Result<(), LoadError> {
        let mut pending: FxHashMap<Symbol, RelationBuilder> = FxHashMap::default();
        for line in text.lines() {
            let line = line.trim().trim_end_matches('.');
            if line.is_empty() || line.starts_with('%') {
                continue;
            }
            let parsed = rc_formula::parse(line).map_err(|e| LoadError::Parse(e.to_string()))?;
            let atom = match parsed {
                Formula::Atom(a) => a,
                _ => return Err(LoadError::NotAnAtom(line.to_string())),
            };
            let mut vals = Vec::with_capacity(atom.terms.len());
            for t in &atom.terms {
                match t {
                    Term::Const(v) => vals.push(*v),
                    Term::Var(_) => return Err(LoadError::NonGroundFact(line.to_string())),
                }
            }
            let known_arity = self.relations.get(&atom.pred).map(|r| r.arity());
            let b = pending
                .entry(atom.pred)
                .or_insert_with(|| RelationBuilder::new(known_arity.unwrap_or(vals.len())));
            if b.arity() != vals.len() {
                return Err(LoadError::ArityMismatch {
                    pred: atom.pred,
                    expected: b.arity(),
                    found: vals.len(),
                });
            }
            b.push_row(&vals);
        }
        let touched: Vec<Symbol> = pending.keys().copied().collect();
        for (pred, b) in pending {
            let built = b.finish();
            let merged = match self.relations.get(&pred) {
                Some(existing) => existing.union(&built),
                None => built,
            };
            self.relations.insert(pred, merged);
        }
        self.bump(touched);
        Ok(())
    }

    /// Parse a database from fact text.
    pub fn from_facts(text: &str) -> Result<Database, LoadError> {
        let mut db = Database::new();
        db.load_facts(text)?;
        Ok(db)
    }

    /// Apply a mutation expressed as newline-separated ground atoms,
    /// where a leading `-` marks a deletion:
    ///
    /// ```text
    /// Supplies('acme', 'bolt')
    /// -Part('nut').
    /// ```
    ///
    /// Inserts win over deletes of the same fact within one batch (the
    /// final contents are `(current \ deletes) ∪ inserts`). Returns the
    /// **net** [`Delta`] actually applied — inserting a present fact or
    /// deleting an absent one contributes nothing. An all-empty net delta
    /// is a no-op: the version stamp is *not* bumped, so cached results
    /// stay warm. Otherwise the version advances and the net delta is
    /// recorded in the shared delta journal, from which
    /// [`Database::delta_chain`] lets the maintenance layer refresh
    /// cached views instead of discarding them.
    pub fn apply_delta(&mut self, text: &str) -> Result<Delta, LoadError> {
        let mut inserts: FxHashMap<Symbol, RelationBuilder> = FxHashMap::default();
        let mut deletes: FxHashMap<Symbol, RelationBuilder> = FxHashMap::default();
        let mut preds: Vec<Symbol> = Vec::new();
        for line in text.lines() {
            let line = line.trim().trim_end_matches('.');
            if line.is_empty() || line.starts_with('%') {
                continue;
            }
            let (negated, line) = match line.strip_prefix('-') {
                Some(rest) => (true, rest.trim_start()),
                None => (false, line),
            };
            let parsed = rc_formula::parse(line).map_err(|e| LoadError::Parse(e.to_string()))?;
            let atom = match parsed {
                Formula::Atom(a) => a,
                _ => return Err(LoadError::NotAnAtom(line.to_string())),
            };
            let mut vals = Vec::with_capacity(atom.terms.len());
            for t in &atom.terms {
                match t {
                    Term::Const(v) => vals.push(*v),
                    Term::Var(_) => return Err(LoadError::NonGroundFact(line.to_string())),
                }
            }
            let known_arity = self
                .relations
                .get(&atom.pred)
                .map(|r| r.arity())
                .or_else(|| inserts.get(&atom.pred).map(|b| b.arity()))
                .or_else(|| deletes.get(&atom.pred).map(|b| b.arity()));
            let side = if negated { &mut deletes } else { &mut inserts };
            let b = side
                .entry(atom.pred)
                .or_insert_with(|| RelationBuilder::new(known_arity.unwrap_or(vals.len())));
            if b.arity() != vals.len() {
                return Err(LoadError::ArityMismatch {
                    pred: atom.pred,
                    expected: b.arity(),
                    found: vals.len(),
                });
            }
            if !preds.contains(&atom.pred) {
                preds.push(atom.pred);
            }
            b.push_row(&vals);
        }
        let mut delta = Delta::default();
        let mut updates: Vec<(Symbol, Relation)> = Vec::new();
        for pred in preds {
            let ins_b = inserts.remove(&pred);
            let del_b = deletes.remove(&pred);
            let arity = ins_b
                .as_ref()
                .or(del_b.as_ref())
                .map(RelationBuilder::arity)
                .expect("recorded predicates have a builder");
            let ins = ins_b
                .map(RelationBuilder::finish)
                .unwrap_or_else(|| Relation::new(arity));
            let del = del_b
                .map(RelationBuilder::finish)
                .unwrap_or_else(|| Relation::new(arity));
            let empty = Relation::new(arity);
            let current = self.relations.get(&pred).unwrap_or(&empty);
            // Net inserts: requested inserts not already present.
            let net_plus = ins.minus(current);
            // Net deletes: requested deletes that are present and not
            // re-inserted by the same batch (inserts win).
            let candidates = del.minus(&ins);
            let net_minus = candidates.minus(&candidates.minus(current));
            if net_plus.is_empty() && net_minus.is_empty() {
                continue;
            }
            updates.push((pred, current.minus(&net_minus).union(&net_plus)));
            delta.insert_table(
                pred,
                TableDelta {
                    plus: net_plus,
                    minus: net_minus,
                },
            );
        }
        if delta.is_empty() {
            // Net no-op: contents unchanged, so the version stamp (and
            // every cached result keyed by it) stays valid.
            return Ok(delta);
        }
        let touched: Vec<Symbol> = updates.iter().map(|(pred, _)| *pred).collect();
        for (pred, rel) in updates {
            self.relations.insert(pred, rel);
        }
        let from = self.version;
        self.bump(touched);
        self.delta_log
            .lock()
            .expect("delta log lock poisoned")
            .record(from, self.version, Arc::new(delta.clone()));
        Ok(delta)
    }

    /// Compose the journal's chain of deltas carrying version `from` to
    /// version `to`, or `None` when the chain is broken (a link was
    /// evicted, or the versions are bridged by a mutation that bypassed
    /// [`Database::apply_delta`]). The journal is shared by all clones of
    /// a database, so the chain resolves across the copy-on-write
    /// serving path's clone-mutate-swap cycle.
    pub fn delta_chain(&self, from: u64, to: u64) -> Option<Delta> {
        self.delta_log
            .lock()
            .expect("delta log lock poisoned")
            .chain(from, to)
    }

    /// Number of links currently retained in the delta journal
    /// (observability for tests).
    pub fn delta_log_len(&self) -> usize {
        self.delta_log
            .lock()
            .expect("delta log lock poisoned")
            .len()
    }

    /// The schema induced by the stored relations.
    pub fn schema(&self) -> Schema {
        let mut s = Schema::new();
        for (&p, r) in &self.relations {
            s.declare(p, r.arity());
        }
        s
    }

    /// All predicates, sorted by name.
    pub fn predicates(&self) -> Vec<Symbol> {
        let mut out: Vec<Symbol> = self.relations.keys().copied().collect();
        out.sort();
        out
    }

    /// Every constant appearing in any relation — the database part of the
    /// paper's `Dom` relation (Sec. 3). Cached until the next mutation.
    pub fn active_domain(&self) -> &BTreeSet<Value> {
        self.domain_cache.get_or_init(|| {
            let mut out = BTreeSet::new();
            for r in self.relations.values() {
                out.extend(r.flat().iter().copied());
            }
            Arc::new(out)
        })
    }

    /// Statistics (row count, per-column distinct counts) of the stored
    /// relation for `pred`, computed on first use and cached until the
    /// next mutation (`None` if the predicate is absent). This feeds the
    /// cost-based optimizer's cardinality estimates (see
    /// [`crate::stats::Estimator`]).
    pub fn table_stats(&self, pred: Symbol) -> Option<Arc<TableStats>> {
        let rel = self.relations.get(&pred)?;
        let mut store = self.stats_cache.lock().expect("stats cache lock poisoned");
        let entry = store
            .tables
            .entry(pred)
            .or_insert_with(|| Arc::new(TableStats::of(rel)));
        Some(Arc::clone(entry))
    }

    /// The stats epoch: a process-globally fresh stamp assigned lazily and
    /// re-stamped whenever a harvested observation *changes* (see
    /// [`Database::record_observed`]) or the feedback is cleared. The
    /// cached serving path mixes this into its plan key so a query
    /// compiled under stale statistics is recompiled, never served.
    pub fn stats_epoch(&self) -> u64 {
        let mut store = self.stats_cache.lock().expect("stats cache lock poisoned");
        if store.epoch == 0 {
            store.epoch = next_version();
        }
        store.epoch
    }

    /// Record an observed cardinality for the subplan with the given
    /// structural [`plan_hash`](crate::plan::plan_hash). Returns whether
    /// the observation *changed* (first sighting or a different value);
    /// only a change bumps the stats epoch, so repeated identical runs
    /// leave cached plans valid.
    pub fn record_observed(&self, plan_hash: u64, rows: u64) -> bool {
        let mut store = self.stats_cache.lock().expect("stats cache lock poisoned");
        let changed = store.observed.get(&plan_hash) != Some(&rows);
        if changed {
            // Copy-on-write: an estimator's snapshot keeps the old map.
            Arc::make_mut(&mut store.observed).insert(plan_hash, rows);
            store.epoch = next_version();
        }
        changed
    }

    /// The observed cardinality recorded for a subplan hash, if any.
    pub fn observed_rows(&self, plan_hash: u64) -> Option<u64> {
        self.stats_cache
            .lock()
            .expect("stats cache lock poisoned")
            .observed
            .get(&plan_hash)
            .copied()
    }

    /// The feedback store as it is now, shared rather than copied (`None`
    /// when it is empty). Later observations do not reach the snapshot.
    pub(crate) fn observed_snapshot(&self) -> Option<Arc<FxHashMap<u64, u64>>> {
        let store = self.stats_cache.lock().expect("stats cache lock poisoned");
        (!store.observed.is_empty()).then(|| Arc::clone(&store.observed))
    }

    /// Number of harvested cardinality observations currently stored.
    pub fn observed_count(&self) -> usize {
        self.stats_cache
            .lock()
            .expect("stats cache lock poisoned")
            .observed
            .len()
    }

    /// Drop all harvested observations and cached table statistics, and
    /// take a fresh stats epoch (the REPL's `stats clear`).
    pub fn clear_stats(&self) {
        let mut store = self.stats_cache.lock().expect("stats cache lock poisoned");
        store.observed = Arc::default();
        store.tables.clear();
        store.epoch = next_version();
    }

    /// Generate a random database over `schema`: each relation receives
    /// `rows_per_relation` tuples drawn uniformly from `domain`.
    pub fn random(
        schema: &Schema,
        domain: &[Value],
        rows_per_relation: usize,
        rng: &mut impl Rng,
    ) -> Database {
        assert!(
            !domain.is_empty(),
            "random database needs a nonempty domain"
        );
        let mut db = Database::new();
        for (pred, arity) in schema.predicates() {
            // For nullary predicates, flip a coin for {()} vs {}.
            let rel = if arity == 0 {
                if rng.gen_bool(0.5) {
                    Relation::unit()
                } else {
                    Relation::empty_nullary()
                }
            } else {
                let mut b = RelationBuilder::with_capacity(arity, rows_per_relation);
                for _ in 0..rows_per_relation {
                    b.push_row_from(
                        (0..arity).map(|_| *domain.choose(rng).expect("domain nonempty")),
                    );
                }
                b.finish()
            };
            db.insert_relation(pred, rel);
        }
        db
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in self.predicates() {
            writeln!(
                f,
                "{p}/{} = {}",
                self.relations[&p].arity(),
                self.relations[&p]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::tuple;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn load_facts_roundtrip() {
        let db = Database::from_facts(
            "% suppliers\nSupplies('acme', 'bolt').\nSupplies('acme', 'nut')\nPart('bolt')\n\n",
        )
        .unwrap();
        let s = db.relation(Symbol::intern("Supplies")).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.arity(), 2);
        assert!(db.relation(Symbol::intern("Part")).unwrap().len() == 1);
    }

    #[test]
    fn reject_non_ground_and_non_atom() {
        assert!(matches!(
            Database::from_facts("P(x)"),
            Err(LoadError::NonGroundFact(_))
        ));
        assert!(matches!(
            Database::from_facts("P(1) & Q(2)"),
            Err(LoadError::NotAnAtom(_))
        ));
    }

    #[test]
    fn arity_clash_rejected() {
        assert!(matches!(
            Database::from_facts("P(1)\nP(1, 2)"),
            Err(LoadError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn active_domain_collects_all_values() {
        let mut db = Database::new();
        db.insert_fact("P", tuple([1i64])).unwrap();
        db.insert_fact("Q", tuple([2i64, 3])).unwrap();
        let dom: Vec<Value> = db.active_domain().iter().copied().collect();
        assert_eq!(dom, vec![Value::int(1), Value::int(2), Value::int(3)]);
    }

    #[test]
    fn active_domain_cache_invalidates_on_mutation() {
        let mut db = Database::new();
        db.insert_fact("P", tuple([1i64])).unwrap();
        assert_eq!(db.active_domain().len(), 1);
        // A second call must hit the cache (same answer, observable only as
        // correctness here); a mutation must invalidate it.
        assert_eq!(db.active_domain().len(), 1);
        db.insert_fact("P", tuple([7i64])).unwrap();
        assert_eq!(db.active_domain().len(), 2);
        db.insert_relation("Q", Relation::from_rows(1, [tuple([9i64])]));
        assert_eq!(db.active_domain().len(), 3);
        db.load_facts("R(11, 12)").unwrap();
        assert_eq!(db.active_domain().len(), 5);
    }

    #[test]
    fn declaring_an_existing_relation_is_a_noop() {
        let mut db = Database::from_facts("P(1)").unwrap();
        let (version, store) = (db.version(), Arc::clone(&db.stats_cache));
        db.active_domain();
        db.declare("P", 1);
        assert_eq!(db.version(), version);
        assert!(Arc::ptr_eq(&db.stats_cache, &store), "no fresh stats store");
        assert!(db.domain_cache.get().is_some(), "domain cache kept");
        // A new relation is a mutation.
        db.declare("Q", 2);
        assert_ne!(db.version(), version);
        assert_eq!(db.relation(Symbol::intern("Q")).unwrap().arity(), 2);
    }

    #[test]
    fn mutations_keep_untouched_table_stats() {
        let mut db = Database::from_facts("P(1)\nQ(1, 2)").unwrap();
        let (p, q) = (Symbol::intern("P"), Symbol::intern("Q"));
        let (p_stats, q_stats) = (db.table_stats(p).unwrap(), db.table_stats(q).unwrap());
        db.insert_fact("Q", tuple([3i64, 4])).unwrap();
        assert!(Arc::ptr_eq(&db.table_stats(p).unwrap(), &p_stats));
        assert_eq!(
            db.table_stats(q).unwrap().rows,
            2,
            "touched table recounted"
        );
        assert_eq!(q_stats.rows, 1);
        db.apply_delta("P(2)").unwrap();
        assert_eq!(db.table_stats(p).unwrap().rows, 2);
        let q_stats = db.table_stats(q).unwrap();
        db.load_facts("P(3)").unwrap();
        assert!(Arc::ptr_eq(&db.table_stats(q).unwrap(), &q_stats));
    }

    #[test]
    fn clones_share_the_active_domain() {
        let db = Database::from_facts("P(1)\nQ(2, 3)").unwrap();
        let clone = db.clone();
        assert!(std::ptr::eq(db.active_domain(), db.clone().active_domain()));
        // A clone taken before the domain was computed computes its own.
        assert_eq!(clone.active_domain(), db.active_domain());
        let mut mutated = db.clone();
        mutated.insert_fact("P", tuple([9i64])).unwrap();
        assert_eq!(mutated.active_domain().len(), 4);
        assert_eq!(db.active_domain().len(), 3);
    }

    #[test]
    fn load_facts_merges_into_existing_relations() {
        let mut db = Database::from_facts("P(1)\nP(2)").unwrap();
        db.load_facts("P(2)\nP(3)").unwrap();
        let p = db.relation(Symbol::intern("P")).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.to_string(), "{(1), (2), (3)}");
    }

    #[test]
    fn random_db_matches_schema() {
        let schema = Schema::new().with("P", 1).with("Q", 2);
        let domain: Vec<Value> = (0..10).map(Value::int).collect();
        let db = Database::random(&schema, &domain, 20, &mut StdRng::seed_from_u64(1));
        assert_eq!(db.relation(Symbol::intern("P")).unwrap().arity(), 1);
        assert_eq!(db.relation(Symbol::intern("Q")).unwrap().arity(), 2);
        // Set semantics may deduplicate, but some rows must exist.
        assert!(!db.relation(Symbol::intern("Q")).unwrap().is_empty());
    }

    #[test]
    fn apply_delta_nets_out_noops() {
        let mut db = Database::from_facts("P(1, 2)\nP(2, 3)").unwrap();
        let v0 = db.version();
        // Inserting a present fact and deleting an absent one are both
        // net no-ops: no version bump, empty delta, caches stay warm.
        let d = db.apply_delta("P(1, 2)\n-P(9, 9)").unwrap();
        assert!(d.is_empty());
        assert_eq!(db.version(), v0);
        assert_eq!(db.delta_log_len(), 0);
        // A real mutation records a link.
        let d = db.apply_delta("P(4, 4)\n-P(1, 2)").unwrap();
        assert_eq!(d.summary(), vec![("P".to_string(), 1, 1)]);
        assert_ne!(db.version(), v0);
        assert_eq!(db.delta_log_len(), 1);
        assert_eq!(
            db.relation(Symbol::intern("P")).unwrap().to_string(),
            "{(2, 3), (4, 4)}"
        );
        assert!(db.delta_chain(v0, db.version()).is_some());
    }

    #[test]
    fn apply_delta_insert_wins_over_delete_in_one_batch() {
        let mut db = Database::from_facts("P(1)").unwrap();
        let d = db.apply_delta("-P(2)\nP(2)").unwrap();
        // The fact was absent, got both deleted and inserted: net insert.
        let td = d.table(Symbol::intern("P")).unwrap();
        assert_eq!((td.plus.len(), td.minus.len()), (1, 0));
        assert!(db
            .relation(Symbol::intern("P"))
            .unwrap()
            .contains(&[Value::int(2)]));
        // Present fact deleted and re-inserted in one batch: net no-op.
        let d = db.apply_delta("-P(1)\nP(1)").unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn apply_delta_creates_and_checks_arity() {
        let mut db = Database::new();
        let d = db.apply_delta("Fresh(1, 2)").unwrap();
        assert_eq!(d.summary(), vec![("Fresh".to_string(), 1, 0)]);
        assert!(matches!(
            db.apply_delta("Fresh(1)"),
            Err(LoadError::ArityMismatch { .. })
        ));
        assert!(matches!(
            db.apply_delta("-Fresh(x, y)"),
            Err(LoadError::NonGroundFact(_))
        ));
    }

    #[test]
    fn delta_log_is_shared_by_clones() {
        let mut db = Database::from_facts("P(1)").unwrap();
        let v0 = db.version();
        let mut clone = db.clone();
        clone.apply_delta("P(2)").unwrap();
        // The original still resolves the chain the clone recorded — the
        // copy-on-write serving path depends on this.
        assert!(db.delta_chain(v0, clone.version()).is_some());
        // But a non-delta mutation on the original leaves a gap.
        db.insert_fact("P", tuple([5i64])).unwrap();
        assert!(clone.delta_chain(v0, db.version()).is_none());
    }

    #[test]
    fn schema_roundtrip() {
        let db = Database::from_facts("P(1)\nQ(1, 2)").unwrap();
        let s = db.schema();
        assert_eq!(s.arity_of(Symbol::intern("P")), Some(1));
        assert_eq!(s.arity_of(Symbol::intern("Q")), Some(2));
    }
}
