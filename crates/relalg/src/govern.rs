//! Pipeline-wide resource governance: budgets, cooperative cancellation,
//! and fault injection.
//!
//! The paper's central promise is that unsafety is *reported, not papered
//! over* (Sec. 3, Thm. 9.5). This module extends that discipline from
//! logical safety to *resource* safety: a [`Budget`] carries a wall-clock
//! deadline, a cap on intermediate tuples, a cap on formula/expression
//! blowup, and a cooperative cancellation flag through every pipeline
//! stage (genify → ranf → translate → eval). Exceeding a bound never
//! yields a wrong or truncated relation — the stage that trips returns a
//! structured [`BudgetExceeded`] reporting *which* stage, *which* bound,
//! and *how much* was consumed, and all partial state is discarded.
//!
//! Checks are designed to be cheap enough to leave in production paths
//! (<2% overhead on the kernel benchmarks, measured by `bench_eval`):
//!
//! * an unlimited budget's checkpoint is two relaxed atomic loads;
//! * `Instant::now()` is only consulted when a deadline is actually set;
//! * kernels check every [`CHECK_INTERVAL`] rows, not per row.
//!
//! The [`FaultInjector`] is a test hook threaded through the same budget:
//! it can deny thread spawns (forcing the partition-parallel kernels onto
//! one lane) and flip the cancellation flag after a chosen
//! number of checkpoints (forcing mid-kernel unwinding), so the cleanup
//! paths are provable rather than hopeful.
//!
//! The budget also carries the evaluator's execution *policy* knobs that
//! must reach every worker thread: [`Budget::with_partitions`] pins the
//! partition-parallel kernels to a fixed partition count (or, at 1, to the
//! sequential kernels). Policy knobs never change results — the invariant
//! the differential suites enforce is that any budget clone of any policy
//! computes bit-identical relations or the same structured error.
//!
//! **Accounting invariants.** `Governor::ticks` totals are deterministic
//! for a given expression, database, and partition layout (each kernel
//! ticks once per loop iteration, and partition workers split exactly the
//! sequential iteration space for the order-preserving kernels).
//! `budget_checks` depends on the checkpoint *cadence*, which changes with
//! the worker count — so cross-policy comparisons should pin the partition
//! count, while same-policy runs are exactly reproducible.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How many kernel iterations pass between cooperative budget checks.
/// A power of two so the test compiles to a mask.
pub const CHECK_INTERVAL: usize = 4096;

/// The pipeline stage a resource bound was attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Query-text parsing.
    Parse,
    /// Safety classification (Defs. 5.2/5.3/A.1).
    Classify,
    /// Evaluable → allowed (Alg. 8.1).
    Genify,
    /// Allowed → RANF (Alg. 9.1).
    Ranf,
    /// RANF → relational algebra (Sec. 9.3).
    Translate,
    /// Algebraic simplification of the translated expression.
    Optimize,
    /// Algebra evaluation.
    Eval,
    /// Incremental view maintenance (delta propagation and merge).
    Maintain,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Parse => "parse",
            Stage::Classify => "classify",
            Stage::Genify => "genify",
            Stage::Ranf => "ranf",
            Stage::Translate => "translate",
            Stage::Optimize => "optimize",
            Stage::Eval => "eval",
            Stage::Maintain => "maintain",
        };
        write!(f, "{s}")
    }
}

/// The resource bound that tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock deadline passed (limits/used in milliseconds).
    WallClock,
    /// Too many intermediate tuples were produced.
    Tuples,
    /// A formula or expression grew past the node cap.
    Nodes,
    /// The evaluation was cooperatively cancelled.
    Cancelled,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resource::WallClock => "wall-clock deadline",
            Resource::Tuples => "intermediate-tuple budget",
            Resource::Nodes => "node budget",
            Resource::Cancelled => "cancellation",
        };
        write!(f, "{s}")
    }
}

/// A structured report of a tripped resource bound: which stage, which
/// bound, and how much was consumed when it tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BudgetExceeded {
    /// The stage that was running when the bound tripped.
    pub stage: Stage,
    /// The bound that tripped.
    pub resource: Resource,
    /// The configured limit (ms for [`Resource::WallClock`], counts
    /// otherwise; 0 for cancellation).
    pub limit: u64,
    /// Consumption observed at the trip point, same unit as `limit`.
    pub used: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::Cancelled => write!(f, "{} stage was cancelled", self.stage),
            Resource::WallClock => write!(
                f,
                "{} stage exceeded the {}: {} ms elapsed of {} ms allowed",
                self.stage, self.resource, self.used, self.limit
            ),
            _ => write!(
                f,
                "{} stage exceeded the {}: used {} of {} allowed",
                self.stage, self.resource, self.used, self.limit
            ),
        }
    }
}

impl std::error::Error for BudgetExceeded {}

/// Shared mutable budget state; one allocation per budget, shared by
/// every clone (and therefore every worker thread).
#[derive(Debug, Default)]
struct Shared {
    /// Cumulative intermediate tuples charged by the evaluator.
    tuples: AtomicU64,
    /// Cooperative cancellation flag.
    cancelled: AtomicBool,
}

/// A resource budget threaded through the whole pipeline.
///
/// Cloning is cheap and shares the consumption counters and the
/// cancellation flag, so one budget can govern parallel workers. All
/// limits are optional; [`Budget::default`] is unlimited (checkpoints
/// still honor cancellation).
#[derive(Clone, Debug, Default)]
pub struct Budget {
    start: Option<Instant>,
    wall_limit: Option<Duration>,
    max_tuples: Option<u64>,
    max_nodes: Option<u64>,
    partitions: Option<usize>,
    shared: Arc<Shared>,
    fault: Option<FaultInjector>,
}

impl Budget {
    /// A budget with no limits. Prefer [`Budget::unlimited`] in hot paths —
    /// it returns a shared static and allocates nothing.
    pub fn new() -> Budget {
        Budget::default()
    }

    /// A shared, allocation-free unlimited budget for callers that do not
    /// govern resources.
    pub fn unlimited() -> &'static Budget {
        static UNLIMITED: OnceLock<Budget> = OnceLock::new();
        UNLIMITED.get_or_init(Budget::default)
    }

    /// Arm a wall-clock deadline, measured from this call.
    pub fn with_deadline(mut self, limit: Duration) -> Budget {
        self.start = Some(Instant::now());
        self.wall_limit = Some(limit);
        self
    }

    /// Cap the cumulative intermediate tuples the evaluator may produce.
    pub fn with_max_tuples(mut self, max: u64) -> Budget {
        self.max_tuples = Some(max);
        self
    }

    /// Cap formula/expression size during rewriting and translation.
    pub fn with_max_nodes(mut self, max: u64) -> Budget {
        self.max_nodes = Some(max);
        self
    }

    /// Attach a fault injector (test hook).
    pub fn with_fault_injector(mut self, fault: FaultInjector) -> Budget {
        self.fault = Some(fault);
        self
    }

    /// Override the evaluator's partition count: every partitionable
    /// operator kernel uses exactly `n` partitions instead of the
    /// cardinality/core heuristic
    /// ([`crate::relation::partition_count`]). `1` forces the sequential
    /// kernels (useful for differential tests and machine-independent
    /// accounting); larger values force partitioning even on small inputs
    /// or single-core hosts. Like the fault injector, this is an execution
    /// *policy* riding on the budget — it never changes results, only how
    /// they are computed. Spawn denial still wins: a denied budget runs
    /// sequentially whatever the override says.
    pub fn with_partitions(mut self, n: usize) -> Budget {
        self.partitions = Some(n.max(1));
        self
    }

    /// The configured partition-count override, if any.
    pub fn partition_override(&self) -> Option<usize> {
        self.partitions
    }

    /// The configured node cap, if any.
    pub fn max_nodes(&self) -> Option<u64> {
        self.max_nodes
    }

    /// The configured tuple cap, if any.
    pub fn max_tuples(&self) -> Option<u64> {
        self.max_tuples
    }

    /// Tuples charged so far across all clones of this budget.
    pub fn tuples_used(&self) -> u64 {
        self.shared.tuples.load(Ordering::Relaxed)
    }

    /// A handle that cancels every computation governed by this budget
    /// (or a clone of it). Safe to trigger from another thread.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Has the budget been cancelled?
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancelled.load(Ordering::Relaxed)
    }

    /// May the evaluator spawn worker threads? `false` only when a fault
    /// injector denies it (the engine then takes its sequential path).
    pub fn spawn_allowed(&self) -> bool {
        self.fault
            .as_ref()
            .is_none_or(|f| !f.state.deny_thread_spawn.load(Ordering::Relaxed))
    }

    /// Cooperative checkpoint: ticks the fault injector, then honors
    /// cancellation and the deadline. Call this at every operator boundary
    /// and every [`CHECK_INTERVAL`] rows inside kernels.
    pub fn checkpoint(&self, stage: Stage) -> Result<(), BudgetExceeded> {
        if let Some(fault) = &self.fault {
            if fault.tick() {
                self.shared.cancelled.store(true, Ordering::Relaxed);
            }
        }
        if self.shared.cancelled.load(Ordering::Relaxed) {
            return Err(BudgetExceeded {
                stage,
                resource: Resource::Cancelled,
                limit: 0,
                used: 0,
            });
        }
        if let (Some(start), Some(limit)) = (self.start, self.wall_limit) {
            let elapsed = start.elapsed();
            if elapsed > limit {
                return Err(BudgetExceeded {
                    stage,
                    resource: Resource::WallClock,
                    limit: limit.as_millis() as u64,
                    used: elapsed.as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Charge `n` produced tuples against the tuple cap. Consumption is
    /// cumulative across the whole evaluation and across worker threads.
    pub fn charge_tuples(&self, stage: Stage, n: u64) -> Result<(), BudgetExceeded> {
        let Some(max) = self.max_tuples else {
            return Ok(());
        };
        let used = self.shared.tuples.fetch_add(n, Ordering::Relaxed) + n;
        if used > max {
            Err(BudgetExceeded {
                stage,
                resource: Resource::Tuples,
                limit: max,
                used,
            })
        } else {
            Ok(())
        }
    }

    /// Like [`Budget::charge_tuples`] for `extra` tuples a kernel has
    /// built but not yet charged — trips mid-kernel without double-charging
    /// the counter (the operator boundary performs the real charge).
    pub fn probe_tuples(&self, stage: Stage, extra: u64) -> Result<(), BudgetExceeded> {
        let Some(max) = self.max_tuples else {
            return Ok(());
        };
        let used = self.shared.tuples.load(Ordering::Relaxed) + extra;
        if used > max {
            Err(BudgetExceeded {
                stage,
                resource: Resource::Tuples,
                limit: max,
                used,
            })
        } else {
            Ok(())
        }
    }

    /// Check a formula/expression size against the node cap (not
    /// cumulative: rewriting replaces formulas rather than appending).
    pub fn check_nodes(&self, stage: Stage, nodes: u64) -> Result<(), BudgetExceeded> {
        let Some(max) = self.max_nodes else {
            return Ok(());
        };
        if nodes > max {
            Err(BudgetExceeded {
                stage,
                resource: Resource::Nodes,
                limit: max,
                used: nodes,
            })
        } else {
            Ok(())
        }
    }
}

/// In-kernel cooperative governor: every [`CHECK_INTERVAL`] `tick`s, runs
/// a budget checkpoint and probes the rows built so far against the tuple
/// cap. Kernels thread one of these through their loops so a single huge
/// operator trips mid-build instead of after materializing everything.
pub struct Governor<'a> {
    budget: &'a Budget,
    stage: Stage,
    checks: u64,
    ticks: usize,
}

impl<'a> Governor<'a> {
    /// A governor charging against `budget`, attributing trips to `stage`.
    pub fn new(budget: &'a Budget, stage: Stage) -> Governor<'a> {
        Governor {
            budget,
            stage,
            checks: 0,
            ticks: 0,
        }
    }

    /// One loop iteration passed with `built_rows` output rows so far;
    /// every [`CHECK_INTERVAL`] calls this runs a checkpoint + tuple probe.
    #[inline]
    pub fn tick(&mut self, built_rows: usize) -> Result<(), BudgetExceeded> {
        self.ticks += 1;
        if self.ticks & (CHECK_INTERVAL - 1) == 0 {
            self.checks += 1;
            self.budget.checkpoint(self.stage)?;
            self.budget.probe_tuples(self.stage, built_rows as u64)?;
        }
        Ok(())
    }

    /// A fresh governor on the same budget and stage, for a partition
    /// worker.
    pub(crate) fn worker(&self) -> Governor<'a> {
        Governor::new(self.budget, self.stage)
    }

    /// How many full checkpoints this governor has run (deterministic for
    /// a given loop shape; folded into evaluation stats).
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// How many loop iterations this governor has observed — the kernel
    /// row count the tracing layer reports per operator. The governor is
    /// the shared operator-boundary hook: budgets consume its checkpoints,
    /// traces consume its tick count, and both stay deterministic for a
    /// given expression and database.
    pub fn ticks(&self) -> usize {
        self.ticks
    }
}

/// Cancels the computations governed by a [`Budget`]; obtained from
/// [`Budget::cancel_handle`] and safe to use from any thread.
#[derive(Clone, Debug)]
pub struct CancelHandle {
    shared: Arc<Shared>,
}

impl CancelHandle {
    /// Flip the cancellation flag: every governed loop unwinds at its next
    /// checkpoint with [`Resource::Cancelled`].
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct FaultState {
    deny_thread_spawn: AtomicBool,
    /// Checkpoints remaining until a forced cancellation; armed while
    /// `cancel_armed` is true.
    cancel_after: AtomicU64,
    cancel_armed: AtomicBool,
}

impl Default for FaultState {
    fn default() -> Self {
        FaultState {
            deny_thread_spawn: AtomicBool::new(false),
            cancel_after: AtomicU64::new(u64::MAX),
            cancel_armed: AtomicBool::new(false),
        }
    }
}

/// Test hook for forcing the engine's degraded paths: thread-spawn denial
/// (sequential fallback) and mid-kernel cancellation. Attach with
/// [`Budget::with_fault_injector`]; clones share state.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    state: Arc<FaultState>,
}

impl FaultInjector {
    /// A fresh injector with no faults armed.
    pub fn new() -> FaultInjector {
        FaultInjector::default()
    }

    /// Deny (or re-allow) evaluator thread spawns; partitioned kernels
    /// must fall back to one lane and produce identical output.
    pub fn deny_thread_spawn(&self, deny: bool) {
        self.state.deny_thread_spawn.store(deny, Ordering::Relaxed);
    }

    /// Arm a forced cancellation that fires after `n` further budget
    /// checkpoints (0 = at the very next checkpoint).
    pub fn cancel_after_checkpoints(&self, n: u64) {
        self.state.cancel_after.store(n, Ordering::Relaxed);
        self.state.cancel_armed.store(true, Ordering::Relaxed);
    }

    /// One checkpoint passed; returns `true` when the armed cancellation
    /// should fire now (and disarms itself).
    fn tick(&self) -> bool {
        if !self.state.cancel_armed.load(Ordering::Relaxed) {
            return false;
        }
        let prev = self.state.cancel_after.fetch_sub(1, Ordering::Relaxed);
        if prev == 0 {
            // `n` checkpoints have already passed: fire now and disarm.
            self.state.cancel_armed.store(false, Ordering::Relaxed);
            self.state.cancel_after.store(u64::MAX, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert!(b.checkpoint(Stage::Eval).is_ok());
        assert!(b.charge_tuples(Stage::Eval, u64::MAX / 2).is_ok());
        assert!(b.check_nodes(Stage::Ranf, u64::MAX).is_ok());
        assert!(b.spawn_allowed());
    }

    #[test]
    fn tuple_budget_trips_with_attribution() {
        let b = Budget::new().with_max_tuples(10);
        assert!(b.charge_tuples(Stage::Eval, 10).is_ok());
        let err = b.charge_tuples(Stage::Eval, 1).unwrap_err();
        assert_eq!(err.stage, Stage::Eval);
        assert_eq!(err.resource, Resource::Tuples);
        assert_eq!(err.limit, 10);
        assert_eq!(err.used, 11);
        assert_eq!(b.tuples_used(), 11);
    }

    #[test]
    fn probe_does_not_charge() {
        let b = Budget::new().with_max_tuples(10);
        b.charge_tuples(Stage::Eval, 6).unwrap();
        assert!(b.probe_tuples(Stage::Eval, 4).is_ok());
        assert!(b.probe_tuples(Stage::Eval, 5).is_err());
        assert_eq!(b.tuples_used(), 6, "probe must not consume");
    }

    #[test]
    fn node_budget_is_not_cumulative() {
        let b = Budget::new().with_max_nodes(100);
        assert!(b.check_nodes(Stage::Genify, 100).is_ok());
        assert!(b.check_nodes(Stage::Genify, 100).is_ok());
        let err = b.check_nodes(Stage::Ranf, 101).unwrap_err();
        assert_eq!(err.stage, Stage::Ranf);
        assert_eq!(err.resource, Resource::Nodes);
    }

    #[test]
    fn expired_deadline_trips_wall_clock() {
        let b = Budget::new().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let err = b.checkpoint(Stage::Translate).unwrap_err();
        assert_eq!(err.stage, Stage::Translate);
        assert_eq!(err.resource, Resource::WallClock);
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let b = Budget::new();
        let clone = b.clone();
        assert!(clone.checkpoint(Stage::Eval).is_ok());
        b.cancel_handle().cancel();
        let err = clone.checkpoint(Stage::Eval).unwrap_err();
        assert_eq!(err.resource, Resource::Cancelled);
        assert!(b.is_cancelled());
    }

    #[test]
    fn fault_injector_denies_spawn_and_cancels_after_n_checkpoints() {
        let fault = FaultInjector::new();
        let b = Budget::new().with_fault_injector(fault.clone());
        assert!(b.spawn_allowed());
        fault.deny_thread_spawn(true);
        assert!(!b.spawn_allowed());
        fault.deny_thread_spawn(false);
        assert!(b.spawn_allowed());

        fault.cancel_after_checkpoints(2);
        assert!(b.checkpoint(Stage::Eval).is_ok());
        assert!(b.checkpoint(Stage::Eval).is_ok());
        let err = b.checkpoint(Stage::Eval).unwrap_err();
        assert_eq!(err.resource, Resource::Cancelled);
    }

    #[test]
    fn partition_override_is_clamped_and_shared_by_clones() {
        assert_eq!(Budget::new().partition_override(), None);
        let b = Budget::new().with_partitions(4);
        assert_eq!(b.partition_override(), Some(4));
        assert_eq!(b.clone().partition_override(), Some(4));
        // 0 would mean "no partitions at all"; clamp to the sequential 1.
        assert_eq!(
            Budget::new().with_partitions(0).partition_override(),
            Some(1)
        );
    }

    #[test]
    fn budget_exceeded_displays_stage_bound_and_consumption() {
        let e = BudgetExceeded {
            stage: Stage::Eval,
            resource: Resource::Tuples,
            limit: 100,
            used: 105,
        };
        assert_eq!(
            e.to_string(),
            "eval stage exceeded the intermediate-tuple budget: used 105 of 100 allowed"
        );
    }
}
