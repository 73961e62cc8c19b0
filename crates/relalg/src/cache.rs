//! Cross-run plan and result caching for repeated-query serving.
//!
//! A REPL or server loop re-serving the same formula should not pay for
//! parse → classify → genify → RANF → translate → optimize on every
//! request, and — until the database changes — should not pay for
//! evaluation either. [`PlanCache`] provides both layers:
//!
//! * **Plan entries** map the query *text* (plus a caller-supplied options
//!   fingerprint and the database's *statistics epoch*) to an arbitrary
//!   compiled payload `P` and its structural
//!   [`plan_hash`](crate::plan::plan_hash). Compilation is a pure function
//!   of the text, options, and the statistics the cost-based planner read,
//!   so plan entries never need in-place invalidation — when trace feedback
//!   changes the statistics store, the epoch
//!   ([`Database::stats_epoch`](crate::database::Database::stats_epoch))
//!   moves and re-plans land under a fresh key instead of overwriting a
//!   plan another caller may still hold. Callers compiling without the
//!   cost-based planner pass epoch `0`.
//! * **Result entries** map a plan hash to the materialized [`Relation`]
//!   *stamped with the database version it was computed against*
//!   ([`Database::version`](crate::database::Database::version)). A lookup
//!   with any other version misses: version stamps are globally unique and
//!   bumped by every mutation, so a stale entry can never be served. Each
//!   plan keeps at most one result (the latest), so a mutate–reserve loop
//!   self-evicts instead of accumulating garbage; [`purge_stale`] drops
//!   leftovers eagerly.
//! * **Encoded bodies** ride on result entries. A server answering the
//!   same hit many times asks [`PlanCache::result_body`] for the answer's
//!   wire body: the first ask encodes it, every later one shares it. The
//!   body belongs to its entry and goes when the entry is overwritten,
//!   refreshed or purged; there is no separate map or eviction for it.
//!
//! The payload type is generic because this crate only knows about algebra
//! expressions — `rc-core` instantiates `PlanCache` with its full compiled
//! pipeline artifact. [`PlanStore`] is the surface the serving path runs
//! over: a shared [`PlanCache`] or the retain-nothing [`NoCache`].
//!
//! Governance interaction: the cache stores only *completed* results.
//! Serving a hit still passes through the caller's budget accounting (see
//! `serve` in `rc-core`), charging the materialized cardinality, so a
//! cached answer cannot bypass tuple limits.
//!
//! [`purge_stale`]: PlanCache::purge_stale

use crate::ivm::MaintainedView;
use crate::relation::Relation;
use rc_formula::fxhash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

/// Hit/miss counters for a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Plan lookups served from the cache.
    pub plan_hits: u64,
    /// Plan lookups that had to compile.
    pub plan_misses: u64,
    /// Result lookups served from the cache (same plan, same db version).
    pub result_hits: u64,
    /// Result lookups that had to evaluate.
    pub result_misses: u64,
    /// Result lookups that found an entry for a *different* database
    /// version — evidence of invalidation working (also counted in
    /// `result_misses`).
    pub stale_results: u64,
    /// Stale results that were *refreshed* in place by delta propagation
    /// (see [`crate::ivm`]) rather than discarded and recomputed. Always
    /// ≤ `stale_results` over any window where only the maintenance layer
    /// writes refreshed entries.
    pub refreshed_results: u64,
    /// Result entries dropped by [`PlanCache::purge_stale`] — stale
    /// entries that were *evicted* rather than refreshed.
    pub evicted_results: u64,
}

impl CacheStats {
    /// Fraction of plan lookups served from the cache (0.0 when none).
    pub fn plan_hit_rate(&self) -> f64 {
        rate(self.plan_hits, self.plan_misses)
    }

    /// Fraction of result lookups served from the cache (0.0 when none).
    pub fn result_hit_rate(&self) -> f64 {
        rate(self.result_hits, self.result_misses)
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// One result entry: a plan's answer at one database version, and the
/// answer's encoded body once a caller asked for it
/// ([`PlanCache::result_body`]). The body lives exactly as long as the
/// entry: replacing, refreshing or purging the entry drops it.
struct ResultEntry {
    version: u64,
    relation: Relation,
    body: Option<Arc<[u8]>>,
}

impl ResultEntry {
    fn new(version: u64, relation: Relation) -> ResultEntry {
        ResultEntry {
            version,
            relation,
            body: None,
        }
    }
}

/// One lock's worth of cache state; see [`PlanCache`].
struct Shard<P> {
    plans: FxHashMap<(String, u64, u64), (Arc<P>, u64)>,
    results: FxHashMap<u64, ResultEntry>,
    /// Materialized standing queries keyed by plan hash — the substrate
    /// the maintenance layer refreshes when a result entry goes stale by
    /// a known delta chain. At most one view per plan (latest wins), and
    /// views deliberately survive [`PlanCache::purge_stale`]: a purged
    /// result is gone, but the view can still be delta-advanced to the
    /// current version, which is the whole point.
    views: FxHashMap<u64, MaintainedView>,
    stats: CacheStats,
}

impl<P> Shard<P> {
    /// The body memo of `plan_hash`'s result entry, if that entry holds
    /// `relation`'s buffer.
    fn body_slot(&mut self, plan_hash: u64, relation: &Relation) -> Option<&mut Option<Arc<[u8]>>> {
        self.results
            .get_mut(&plan_hash)
            .filter(|e| e.relation.shares_data(relation))
            .map(|e| &mut e.body)
    }

    /// Store a view and its root result, stamped with the view's version.
    fn install(&mut self, plan_hash: u64, view: MaintainedView, rel: Relation) {
        self.results
            .insert(plan_hash, ResultEntry::new(view.base_version(), rel));
        self.views.insert(plan_hash, view);
    }
}

impl<P> Default for Shard<P> {
    fn default() -> Self {
        Shard {
            plans: FxHashMap::default(),
            results: FxHashMap::default(),
            views: FxHashMap::default(),
            stats: CacheStats::default(),
        }
    }
}

/// How many independently locked shards a [`PlanCache`] spreads its
/// entries over. A power of two so the shard pick is a mask; 16 keeps lock
/// contention negligible for any worker count this process can host while
/// costing only 16 small maps.
pub const CACHE_SHARDS: usize = 16;

/// A versioned plan/result cache; see the [module docs](self) for the key
/// and invalidation contract. It is callable from any number of threads
/// through `&self`.
///
/// Internally the cache is *lock-sharded*: [`CACHE_SHARDS`] independent
/// mutex-guarded shards, with plan entries routed by a hash of the query
/// text and result entries (and views) routed by the plan hash. Two
/// requests for different queries almost never touch the same lock, and no
/// lock is ever held across compilation or evaluation — only across the
/// map probe itself. This is the wasmtime engine/store discipline applied
/// to plans: the compiled artifact is immutable and `Arc`-shared, so
/// concurrent sessions hand out the same plan without copying or blocking
/// each other.
///
/// A poisoned shard (a panic while holding the lock) is recovered rather
/// than propagated: cache contents are derived state, so serving from a
/// shard some earlier panicking thread touched is always safe — worst case
/// the entry is stale-free but cold.
pub struct PlanCache<P> {
    shards: Vec<Mutex<Shard<P>>>,
}

/// The name concurrent callers use for [`PlanCache`], which is shareable
/// as it is.
pub type SharedPlanCache<P> = PlanCache<P>;

impl<P> Default for PlanCache<P> {
    fn default() -> Self {
        PlanCache {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }
}

fn shard_of_text(text: &str, opts_key: u64, stats_epoch: u64) -> usize {
    let mut h = FxHasher::default();
    text.hash(&mut h);
    opts_key.hash(&mut h);
    stats_epoch.hash(&mut h);
    (h.finish() as usize) & (CACHE_SHARDS - 1)
}

fn lock<P>(shard: &Mutex<Shard<P>>) -> MutexGuard<'_, Shard<P>> {
    shard.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl<P> PlanCache<P> {
    /// An empty cache.
    pub fn new() -> PlanCache<P> {
        PlanCache::default()
    }

    fn plan_shard(&self, text: &str, opts_key: u64, epoch: u64) -> MutexGuard<'_, Shard<P>> {
        lock(&self.shards[shard_of_text(text, opts_key, epoch)])
    }

    fn result_shard(&self, plan_hash: u64) -> MutexGuard<'_, Shard<P>> {
        // The low bits of an FxHash-derived plan hash are well mixed.
        lock(&self.shards[(plan_hash as usize) & (CACHE_SHARDS - 1)])
    }

    fn sum(&self, f: impl Fn(&Shard<P>) -> usize) -> usize {
        self.shards.iter().map(|s| f(&lock(s))).sum()
    }

    /// Look up a compiled plan by query text, options fingerprint, and the
    /// statistics epoch it was planned under (`0` when the cost-based
    /// planner was off). Returns the payload and its plan hash.
    pub fn lookup_plan(
        &self,
        text: &str,
        opts_key: u64,
        stats_epoch: u64,
    ) -> Option<(Arc<P>, u64)> {
        let mut shard = self.plan_shard(text, opts_key, stats_epoch);
        // Keying by (text, opts, epoch) without allocating would need a
        // borrowed tuple key; one short String per lookup is noise next to
        // the compile it saves.
        let hit = shard
            .plans
            .get(&(text.to_string(), opts_key, stats_epoch))
            .map(|(p, h)| (Arc::clone(p), *h));
        match hit {
            Some(_) => shard.stats.plan_hits += 1,
            None => shard.stats.plan_misses += 1,
        }
        hit
    }

    /// Store a compiled plan under its query text, options fingerprint,
    /// and statistics epoch; returns the shared payload for immediate use.
    /// When another thread raced the same compile and inserted first,
    /// *its* payload wins and is returned, so every caller converges on one
    /// shared `Arc` per key.
    pub fn insert_plan(
        &self,
        text: &str,
        opts_key: u64,
        stats_epoch: u64,
        payload: P,
        plan_hash: u64,
    ) -> Arc<P> {
        let mut shard = self.plan_shard(text, opts_key, stats_epoch);
        let (p, _) = shard
            .plans
            .entry((text.to_string(), opts_key, stats_epoch))
            .or_insert_with(|| (Arc::new(payload), plan_hash));
        Arc::clone(p)
    }

    /// Look up a materialized result for a plan, valid only against the
    /// exact database version it was computed for.
    pub fn lookup_result(&self, plan_hash: u64, db_version: u64) -> Option<Relation> {
        let mut shard = self.result_shard(plan_hash);
        let (hit, stale) = match shard.results.get(&plan_hash) {
            Some(e) if e.version == db_version => (Some(e.relation.clone()), false),
            Some(_) => (None, true),
            None => (None, false),
        };
        let stats = &mut shard.stats;
        match hit {
            Some(_) => stats.result_hits += 1,
            None => stats.result_misses += 1,
        }
        stats.stale_results += u64::from(stale);
        hit
    }

    /// Store a materialized result, replacing any entry for the same plan
    /// (including stale ones from earlier database versions).
    pub fn insert_result(&self, plan_hash: u64, db_version: u64, rel: Relation) {
        self.result_shard(plan_hash)
            .results
            .insert(plan_hash, ResultEntry::new(db_version, rel));
    }

    /// The encoded body of `relation`, memoised on `plan_hash`'s result
    /// entry when that entry holds this very relation (the same shared
    /// buffer, as [`lookup_result`](PlanCache::lookup_result) hands out).
    /// The first call encodes it with `encode`, outside the lock; later
    /// calls share that body. The flag is `true` when the body was already
    /// memoised. When the entry has been replaced or purged meanwhile, the
    /// fresh body is returned but not kept: a body never outlives the
    /// answer it encodes, and no entry gains one it did not encode.
    pub fn result_body(
        &self,
        plan_hash: u64,
        relation: &Relation,
        encode: impl FnOnce() -> Vec<u8>,
    ) -> (Arc<[u8]>, bool) {
        if let Some(Some(body)) = self.result_shard(plan_hash).body_slot(plan_hash, relation) {
            return (Arc::clone(body), true);
        }
        let body: Arc<[u8]> = encode().into();
        match self.result_shard(plan_hash).body_slot(plan_hash, relation) {
            // Another caller raced this one to the first encode: keep and
            // hand out the body that landed first.
            Some(slot) => (Arc::clone(slot.get_or_insert(body)), false),
            None => (body, false),
        }
    }

    /// Drop every result entry not computed against `db_version`. Returns
    /// the number evicted (also accumulated into
    /// [`CacheStats::evicted_results`]). Plan entries are untouched (they
    /// are version-independent), and so are maintained views — a view is
    /// exactly the state that lets a *future* lookup skip recomputation,
    /// stale or not.
    pub fn purge_stale(&self, db_version: u64) -> usize {
        let mut evicted = 0;
        for shard in &self.shards {
            let mut shard = lock(shard);
            let before = shard.results.len();
            shard.results.retain(|_, e| e.version == db_version);
            let n = before - shard.results.len();
            shard.stats.evicted_results += n as u64;
            evicted += n;
        }
        evicted
    }

    /// Register (or replace) the materialized standing query backing a
    /// result entry, so later mutations can refresh instead of evict.
    pub fn register_view(&self, plan_hash: u64, view: MaintainedView) {
        self.result_shard(plan_hash).views.insert(plan_hash, view);
    }

    /// A clone of the maintained view registered for a plan, if any. The
    /// clone is cheap in spirit (canonical buffers are contiguous) and
    /// deliberate in letter: refresh happens *outside* any cache lock,
    /// against a snapshot, and only a fully successful refresh is
    /// installed back — a failed or abandoned refresh leaves the cache
    /// holding exactly the old state.
    pub fn view_snapshot(&self, plan_hash: u64) -> Option<MaintainedView> {
        self.result_shard(plan_hash).views.get(&plan_hash).cloned()
    }

    /// Install a successfully refreshed view and its root result, bumping
    /// [`CacheStats::refreshed_results`]. The result entry is stamped
    /// with the view's new base version. Racing refreshers for the same
    /// plan both install; last writer wins with a complete (view, result)
    /// pair either way — both are self-consistent states.
    pub fn install_refreshed(&self, plan_hash: u64, view: MaintainedView, rel: Relation) {
        let mut shard = self.result_shard(plan_hash);
        shard.install(plan_hash, view, rel);
        shard.stats.refreshed_results += 1;
    }

    /// Number of maintained views currently registered.
    pub fn view_count(&self) -> usize {
        self.sum(|s| s.views.len())
    }

    /// Number of cached plans.
    pub fn plan_count(&self) -> usize {
        self.sum(|s| s.plans.len())
    }

    /// Number of cached results.
    pub fn result_count(&self) -> usize {
        self.sum(|s| s.results.len())
    }

    /// Hit/miss counters so far, summed over the shards. A snapshot taken
    /// while other threads are serving is a consistent-enough lower bound
    /// (shards are read one at a time), which is all cache statistics can
    /// promise under concurrency.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = lock(shard).stats;
            total.plan_hits += s.plan_hits;
            total.plan_misses += s.plan_misses;
            total.result_hits += s.result_hits;
            total.result_misses += s.result_misses;
            total.stale_results += s.stale_results;
            total.refreshed_results += s.refreshed_results;
            total.evicted_results += s.evicted_results;
        }
        total
    }

    /// Drop all entries (including maintained views) and reset the
    /// counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            *lock(shard) = Shard::default();
        }
    }
}

/// The cache surface the serving path needs, abstracted so a
/// [`PlanCache`] and the retain-nothing [`NoCache`] serve through *one*
/// code path — the byte-identical guarantee between in-process and
/// server-side serving holds by construction.
pub trait PlanStore<P> {
    /// Does this store keep what it is given? A store that retains nothing
    /// gets plain (non-memoizing, parallel) evaluation: recording subplan
    /// values for a view nobody keeps would be wasted work.
    fn retains(&self) -> bool {
        true
    }
    /// See [`PlanCache::lookup_plan`].
    fn lookup_plan(&mut self, text: &str, opts_key: u64, stats_epoch: u64)
        -> Option<(Arc<P>, u64)>;
    /// See [`PlanCache::insert_plan`].
    fn insert_plan(
        &mut self,
        text: &str,
        opts_key: u64,
        stats_epoch: u64,
        payload: P,
        plan_hash: u64,
    ) -> Arc<P>;
    /// See [`PlanCache::lookup_result`].
    fn lookup_result(&mut self, plan_hash: u64, db_version: u64) -> Option<Relation>;
    /// See [`PlanCache::view_snapshot`].
    fn view_snapshot(&self, plan_hash: u64) -> Option<MaintainedView>;
    /// Store a view and its root result, stamped with the view's base
    /// version: a fresh materialization, or (`refreshed`) a delta-advanced
    /// view — [`PlanCache::install_refreshed`].
    fn install_view(
        &mut self,
        plan_hash: u64,
        view: MaintainedView,
        rel: Relation,
        refreshed: bool,
    );
}

impl<P> PlanStore<P> for &PlanCache<P> {
    fn lookup_plan(&mut self, text: &str, opts_key: u64, epoch: u64) -> Option<(Arc<P>, u64)> {
        PlanCache::lookup_plan(self, text, opts_key, epoch)
    }

    fn insert_plan(&mut self, text: &str, key: u64, epoch: u64, p: P, hash: u64) -> Arc<P> {
        PlanCache::insert_plan(self, text, key, epoch, p, hash)
    }

    fn lookup_result(&mut self, plan_hash: u64, db_version: u64) -> Option<Relation> {
        PlanCache::lookup_result(self, plan_hash, db_version)
    }

    fn view_snapshot(&self, plan_hash: u64) -> Option<MaintainedView> {
        PlanCache::view_snapshot(self, plan_hash)
    }

    fn install_view(
        &mut self,
        plan_hash: u64,
        view: MaintainedView,
        rel: Relation,
        refreshed: bool,
    ) {
        if refreshed {
            self.install_refreshed(plan_hash, view, rel);
        } else {
            self.result_shard(plan_hash).install(plan_hash, view, rel);
        }
    }
}

/// The store that retains nothing: every lookup misses, every insert is
/// dropped. Serving through it is plain uncached compile-and-evaluate.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoCache;

impl<P> PlanStore<P> for NoCache {
    fn retains(&self) -> bool {
        false
    }

    fn lookup_plan(&mut self, _: &str, _: u64, _: u64) -> Option<(Arc<P>, u64)> {
        None
    }

    fn insert_plan(&mut self, _: &str, _: u64, _: u64, payload: P, _: u64) -> Arc<P> {
        Arc::new(payload)
    }

    fn lookup_result(&mut self, _: u64, _: u64) -> Option<Relation> {
        None
    }

    fn view_snapshot(&self, _: u64) -> Option<MaintainedView> {
        None
    }

    fn install_view(&mut self, _: u64, _: MaintainedView, _: Relation, _: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::tuple;

    fn rel(vals: [i64; 2]) -> Relation {
        Relation::from_rows(1, vals.map(|v| tuple([v])))
    }

    #[test]
    fn plan_entries_key_on_text_options_and_epoch() {
        let c: PlanCache<&'static str> = PlanCache::new();
        assert!(c.lookup_plan("E x: P(x)", 0, 0).is_none());
        c.insert_plan("E x: P(x)", 0, 0, "payload", 42);
        let (p, h) = c.lookup_plan("E x: P(x)", 0, 0).expect("hit");
        assert_eq!((*p, h), ("payload", 42));
        // Same text under different options is a different plan.
        assert!(c.lookup_plan("E x: P(x)", 1, 0).is_none());
        assert!(c.lookup_plan("E x: Q(x)", 0, 0).is_none());
        // A moved statistics epoch forces a re-plan rather than serving the
        // plan built against stale statistics.
        assert!(c.lookup_plan("E x: P(x)", 0, 7).is_none());
        c.insert_plan("E x: P(x)", 0, 7, "replanned", 43);
        let (p, h) = c.lookup_plan("E x: P(x)", 0, 7).expect("hit");
        assert_eq!((*p, h), ("replanned", 43));
        let s = c.stats();
        assert_eq!((s.plan_hits, s.plan_misses), (2, 4));
    }

    #[test]
    fn results_hit_only_on_exact_version() {
        let c: PlanCache<()> = PlanCache::new();
        c.insert_result(7, 100, rel([1, 2]));
        assert_eq!(c.lookup_result(7, 100), Some(rel([1, 2])));
        assert_eq!(c.lookup_result(7, 101), None, "stale version must miss");
        assert_eq!(c.lookup_result(8, 100), None, "unknown plan must miss");
        let s = c.stats();
        assert_eq!((s.result_hits, s.result_misses, s.stale_results), (1, 2, 1));
        assert!(s.result_hit_rate() > 0.3 && s.result_hit_rate() < 0.34);
    }

    #[test]
    fn insert_replaces_stale_entry_for_same_plan() {
        let c: PlanCache<()> = PlanCache::new();
        c.insert_result(7, 100, rel([1, 2]));
        c.insert_result(7, 101, rel([3, 4]));
        assert_eq!(c.result_count(), 1);
        assert_eq!(c.lookup_result(7, 100), None);
        assert_eq!(c.lookup_result(7, 101), Some(rel([3, 4])));
    }

    #[test]
    fn purge_stale_drops_only_other_versions() {
        let c: PlanCache<()> = PlanCache::new();
        c.insert_result(1, 100, rel([1, 2]));
        c.insert_result(2, 101, rel([3, 4]));
        c.insert_result(3, 101, rel([5, 6]));
        assert_eq!(c.purge_stale(101), 1);
        assert_eq!(c.result_count(), 2);
        assert_eq!(c.lookup_result(2, 101), Some(rel([3, 4])));
    }

    #[test]
    fn racing_plan_inserts_converge_on_the_first_payload() {
        let c: PlanCache<&'static str> = PlanCache::new();
        let first = c.insert_plan("q", 0, 0, "mine", 7);
        let second = c.insert_plan("q", 0, 0, "theirs", 7);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*c.lookup_plan("q", 0, 0).expect("hit").0, "mine");
    }

    #[test]
    fn cache_is_coherent_under_contention() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let c: Arc<PlanCache<u64>> = Arc::new(PlanCache::new());
        let built = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = Arc::clone(&c);
                let built = Arc::clone(&built);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let key = i % 10;
                        let text = format!("q{key}");
                        let payload = match c.lookup_plan(&text, 0, 0) {
                            Some((p, h)) => {
                                assert_eq!(h, key);
                                p
                            }
                            None => {
                                built.fetch_add(1, Ordering::Relaxed);
                                c.insert_plan(&text, 0, 0, key * 1000, key)
                            }
                        };
                        // Every thread must observe the converged payload,
                        // never a torn or thread-local one.
                        assert_eq!(*payload % 1000, 0);
                        assert_eq!(*payload / 1000, key);
                        c.insert_result(key, t, rel([key as i64, i as i64 % 7]));
                        let _ = c.lookup_result(key, t);
                    }
                });
            }
        });
        assert_eq!(c.plan_count(), 10);
        let s = c.stats();
        assert_eq!(s.plan_hits + s.plan_misses, 800);
    }

    fn tiny_view() -> (crate::Database, Relation, MaintainedView) {
        let db = crate::Database::from_facts("P(1)").unwrap();
        let e = crate::expr::RaExpr::scan("P", vec![rc_formula::Term::var("x")]);
        let mut cx = crate::EvalCtx::default().memoized();
        let out = crate::eval(&e, &db, &mut cx).unwrap();
        let view = MaintainedView::recorded(&mut cx, db.version()).unwrap();
        (db, out, view)
    }

    #[test]
    fn stale_refreshed_and_evicted_counters_are_split() {
        use crate::eval::EvalStats;
        use crate::govern::Budget;
        use crate::ivm::refresh;
        use crate::trace::Tracer;
        let (mut db, out, view) = tiny_view();
        let v0 = db.version();
        let c: PlanCache<()> = PlanCache::new();
        c.insert_result(7, v0, out.clone());
        c.register_view(7, view);
        assert_eq!(c.view_count(), 1);
        let delta = db.apply_delta("P(2)").unwrap();
        // The result entry is now stale: counted as stale + miss, but the
        // view snapshot can still be delta-advanced.
        assert!(c.lookup_result(7, db.version()).is_none());
        let snap = c.view_snapshot(7).expect("view registered");
        assert_eq!(snap.base_version(), v0);
        let (nv, rel) = refresh(
            &snap,
            &delta,
            db.version(),
            &mut EvalStats::default(),
            Budget::unlimited(),
            &mut Tracer::off(),
        )
        .unwrap();
        c.install_refreshed(7, nv, rel.clone());
        assert_eq!(c.lookup_result(7, db.version()), Some(rel));
        // A different plan's stale entry gets purged: evicted, not
        // refreshed — the three counters move independently.
        c.insert_result(8, v0, out);
        assert_eq!(c.purge_stale(db.version()), 1);
        let s = c.stats();
        assert_eq!(
            (s.stale_results, s.refreshed_results, s.evicted_results),
            (1, 1, 1)
        );
        assert_eq!(c.view_count(), 1, "views survive purge_stale");
        c.clear();
        assert_eq!(c.view_count(), 0);
        assert_eq!(c.stats(), CacheStats::default());
    }

    /// `result_body` for the entry's answer, reporting whether it was
    /// memoised and how often `encode` ran.
    fn body(c: &PlanCache<()>, hash: u64, rel: &Relation, calls: &mut u32) -> (Vec<u8>, bool) {
        let (body, reused) = c.result_body(hash, rel, || {
            *calls += 1;
            format!("{rel}").into_bytes()
        });
        (body.to_vec(), reused)
    }

    #[test]
    fn result_bodies_live_exactly_as_long_as_their_entry() {
        let c: PlanCache<()> = PlanCache::new();
        let mut calls = 0;
        c.insert_result(7, 100, rel([1, 2]));
        let hit = c.lookup_result(7, 100).expect("hit");
        let first = body(&c, 7, &hit, &mut calls);
        assert_eq!(first, (format!("{hit}").into_bytes(), false));
        assert_eq!(body(&c, 7, &hit, &mut calls), (first.0.clone(), true));
        assert_eq!(calls, 1, "the second ask shares the first body");
        // Overwritten: the new answer's body is encoded afresh, and the old
        // answer (still held by a slow reader) no longer finds a memo.
        c.insert_result(7, 101, rel([3, 4]));
        let new = c.lookup_result(7, 101).expect("hit");
        assert_eq!(
            body(&c, 7, &new, &mut calls),
            (format!("{new}").into_bytes(), false)
        );
        assert!(!body(&c, 7, &hit, &mut calls).1);
        assert!(body(&c, 7, &new, &mut calls).1);
        // The same version stored again (a racing evaluation) is a new
        // entry with no body.
        c.insert_result(7, 101, rel([3, 4]));
        let again = c.lookup_result(7, 101).expect("hit");
        assert!(!body(&c, 7, &again, &mut calls).1);
        // Purged: the entry and its body are gone.
        assert_eq!(c.purge_stale(102), 1);
        assert!(!body(&c, 7, &again, &mut calls).1);
        assert!(!body(&c, 7, &again, &mut calls).1, "no entry, no memo");
        assert_eq!(c.result_count(), 0);
    }

    #[test]
    fn a_refreshed_entry_drops_its_body() {
        use crate::eval::EvalStats;
        use crate::govern::Budget;
        use crate::ivm::refresh;
        use crate::trace::Tracer;
        let (mut db, out, view) = tiny_view();
        let c: PlanCache<()> = PlanCache::new();
        let mut calls = 0;
        c.insert_result(7, db.version(), out);
        c.register_view(7, view);
        let hit = c.lookup_result(7, db.version()).expect("hit");
        body(&c, 7, &hit, &mut calls);
        assert!(body(&c, 7, &hit, &mut calls).1);
        let delta = db.apply_delta("P(2)").unwrap();
        let snap = c.view_snapshot(7).expect("view registered");
        let (nv, fresh) = refresh(
            &snap,
            &delta,
            db.version(),
            &mut EvalStats::default(),
            Budget::unlimited(),
            &mut Tracer::off(),
        )
        .unwrap();
        c.install_refreshed(7, nv, fresh.clone());
        let hit = c.lookup_result(7, db.version()).expect("refreshed hit");
        assert_eq!(hit, fresh);
        assert_eq!(
            body(&c, 7, &hit, &mut calls),
            (format!("{fresh}").into_bytes(), false)
        );
    }

    #[test]
    fn clear_resets_everything() {
        let c: PlanCache<u8> = PlanCache::new();
        c.insert_plan("q", 0, 0, 1, 9);
        c.insert_result(9, 100, rel([1, 2]));
        c.lookup_plan("q", 0, 0);
        c.clear();
        assert_eq!(c.plan_count(), 0);
        assert_eq!(c.result_count(), 0);
        assert_eq!(c.stats(), CacheStats::default());
    }
}
