//! Pipeline observability: per-stage and per-operator span tracing.
//!
//! The pipeline is a sequence of meaning-preserving stages (classify →
//! genify → ranf → translate → optimize → eval), and when a query is slow,
//! trips a budget, or disagrees with a baseline the question is always
//! *where*: which transformation blew up the formula, or which algebra
//! operator produced the cardinality spike. This module records exactly
//! that as a span tree:
//!
//! * **stage spans** ([`StageSpan`], collected by [`StageTracer`]) carry
//!   formula/plan node counts and wall time per pipeline stage;
//! * **operator spans** ([`OpSpan`], collected by [`Tracer`]) carry input
//!   and output cardinalities, kernel row counts, pre-dedup row counts,
//!   per-partition output cardinalities when a kernel ran
//!   partition-parallel, and whether the memo served the subplan.
//!
//! Tracing is opt-in ([`Tracer::on`], [`StageTracer::on`]) and near-zero
//! cost when off: a disabled tracer's hooks are a branch on one bool, no
//! allocation, and `Instant::now` is never consulted. The instrumentation
//! points are the same operator boundaries the
//! [`crate::govern::Governor`] checkpoints at, so governance and tracing
//! share one hook.
//!
//! **Determinism contract:** span structure, labels, cardinalities,
//! raw row counts and stage node counts are deterministic for a given
//! expression and database — identical under partitioned and one-lane
//! kernels. Wall times, per-partition cardinalities
//! ([`OpSpan::partitions`] — the auto partition count is host-dependent,
//! and so is [`OpSpan::parallel`], which reads it), and kernel loop counts
//! (a partitioned join may pick different per-partition probe sides than
//! the global kernel would) are *not* part of the contract;
//! [`PipelineTrace::deterministic`] projects them away, and that
//! projection is what the golden-trace snapshot suite pins. Partition
//! cardinalities get their own snapshot through
//! [`OpSpan::partitioned_projection`] under a forced partition count.

use crate::database::Database;
use crate::expr::RaExpr;
use crate::govern::Stage;
use crate::relation::Relation;
use std::fmt::Write as _;
use std::time::Instant;

// ---------------------------------------------------------------- spans --

/// IVM annotation on an operator span: how the operator's cached value
/// was brought up to date, plus the delta cardinalities that flowed
/// through it (see [`crate::ivm`]). Absent on ordinary evaluation spans,
/// so pre-IVM trace renders and JSON exports are byte-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IvmNote {
    /// Always `"refresh"` (delta-maintained in place). Notes appear only
    /// when the caller passes a collecting tracer to
    /// [`crate::ivm::refresh`]; the serving path refreshes untraced, and a
    /// full re-evaluation after a skipped or abandoned refresh carries no
    /// note.
    pub mode: &'static str,
    /// Rows in this operator's Δ⁺ (insert delta).
    pub plus: u64,
    /// Rows in this operator's Δ⁻ (delete delta).
    pub minus: u64,
}

/// One evaluated algebra operator.
#[derive(Clone, Debug, PartialEq)]
pub struct OpSpan {
    /// Operator label, e.g. `scan P`, `join`, `select x=y`.
    pub op: String,
    /// Input cardinalities, in child order (base-relation size for scans).
    pub rows_in: Vec<usize>,
    /// Output cardinality (0 when the operator did not complete).
    pub rows_out: usize,
    /// Rows materialized before canonicalization/dedup; equals `rows_out`
    /// for order-preserving kernels.
    pub raw_rows: u64,
    /// Kernel loop iterations observed by the governor for this operator.
    pub kernel_rows: u64,
    /// Per-partition output cardinalities when the operator's kernel ran
    /// partition-parallel; empty for sequential kernels. Excluded from the
    /// deterministic projection (the auto partition count depends on the
    /// host's cores, and spawn denial empties it); the partition-pinning
    /// golden snapshot uses [`OpSpan::partitioned_projection`] under a
    /// forced partition count instead.
    pub partitions: Vec<u64>,
    /// Was this subplan served from the per-run memo table (see
    /// [`crate::eval::EvalCtx`])? Such spans are leaves — the subtree was
    /// traced at its first evaluation.
    pub cache_hit: bool,
    /// Did the operator run to completion? `false` when a budget trip or
    /// cancellation unwound it — the deepest incomplete span is the hot
    /// operator a `BudgetExceeded` is attributed to.
    pub completed: bool,
    /// Wall time (not deterministic; excluded from the projection).
    pub elapsed_ns: u64,
    /// Incremental-maintenance annotation (`None` on ordinary evaluation
    /// spans; set by traced [`crate::ivm::refresh`] walks).
    pub ivm: Option<IvmNote>,
    /// Sub-operator spans, in evaluation order (left child first).
    pub children: Vec<OpSpan>,
}

impl OpSpan {
    fn new(op: String) -> OpSpan {
        OpSpan {
            op,
            rows_in: Vec::new(),
            rows_out: 0,
            raw_rows: 0,
            kernel_rows: 0,
            partitions: Vec::new(),
            cache_hit: false,
            completed: false,
            elapsed_ns: 0,
            ivm: None,
            children: Vec::new(),
        }
    }

    /// Did the operator's kernel run partition-parallel? Exactly when it
    /// recorded per-partition cardinalities. (Excluded from the
    /// deterministic projection: spawn denial clears it, cardinalities
    /// not.)
    pub fn parallel(&self) -> bool {
        !self.partitions.is_empty()
    }

    /// Number of spans in this subtree.
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(OpSpan::span_count).sum::<usize>()
    }

    /// Total output rows the subtree's operators produced — memo-served
    /// spans produced none, so this equals `EvalStats::tuples_produced`
    /// for a completed evaluation.
    pub fn total_rows_out(&self) -> u64 {
        let own = if self.cache_hit { 0 } else { self.rows_out };
        own as u64
            + self
                .children
                .iter()
                .map(OpSpan::total_rows_out)
                .sum::<u64>()
    }

    /// The deepest, last-opened span that did not complete — the operator
    /// that was running when a budget tripped or a cancellation fired.
    pub fn last_incomplete(&self) -> Option<&OpSpan> {
        if self.completed {
            return None;
        }
        for c in self.children.iter().rev() {
            if let Some(deep) = c.last_incomplete() {
                return Some(deep);
            }
        }
        Some(self)
    }

    /// Any partition-parallel kernel in the subtree?
    pub fn any_parallel(&self) -> bool {
        self.parallel() || self.children.iter().any(OpSpan::any_parallel)
    }

    /// The deterministic projection *plus* per-partition cardinalities
    /// (`parts=[..]` on partitioned spans). Only machine-independent when
    /// the partition count is forced via
    /// [`crate::govern::Budget::with_partitions`] — which is exactly how
    /// the partitioned golden-trace snapshot pins it.
    pub fn partitioned_projection(&self) -> String {
        let mut out = String::new();
        self.projection_into(0, true, &mut out);
        out
    }

    /// The line-per-span projection renderer: the deterministic projection,
    /// plus `parts=[..]` on partitioned spans when `parts` is set.
    fn projection_into(&self, depth: usize, parts: bool, out: &mut String) {
        let pad = "  ".repeat(depth);
        let ins: Vec<String> = self.rows_in.iter().map(|n| n.to_string()).collect();
        let _ = write!(
            out,
            "{pad}op {}: in=[{}] out={} raw={}",
            self.op,
            ins.join(","),
            self.rows_out,
            self.raw_rows
        );
        if parts && !self.partitions.is_empty() {
            let ps: Vec<String> = self.partitions.iter().map(|n| n.to_string()).collect();
            let _ = write!(out, " parts=[{}]", ps.join(","));
        }
        if let Some(note) = &self.ivm {
            let _ = write!(out, " ivm={} d+={} d-={}", note.mode, note.plus, note.minus);
        }
        if self.cache_hit {
            out.push_str(" MEMO");
        }
        if !self.completed {
            out.push_str(" INCOMPLETE");
        }
        out.push('\n');
        for c in &self.children {
            c.projection_into(depth + 1, parts, out);
        }
    }

    fn json_deterministic_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"op\":{},\"rows_in\":[{}],\"rows_out\":{},\"raw_rows\":{},\
             \"cache_hit\":{},\"completed\":{}",
            json_str(&self.op),
            self.rows_in
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.rows_out,
            self.raw_rows,
            self.cache_hit,
            self.completed,
        );
        if let Some(note) = &self.ivm {
            let _ = write!(
                out,
                ",\"ivm\":{{\"mode\":{},\"plus\":{},\"minus\":{}}}",
                json_str(note.mode),
                note.plus,
                note.minus
            );
        }
        out.push_str(",\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.json_deterministic_into(out);
        }
        out.push_str("]}");
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let ins: Vec<String> = self.rows_in.iter().map(|n| n.to_string()).collect();
        let _ = write!(
            out,
            "{pad}{}  in=[{}] out={} raw={} kernel={}  {:.3} ms{}{}{}",
            self.op,
            ins.join(","),
            self.rows_out,
            self.raw_rows,
            self.kernel_rows,
            self.elapsed_ns as f64 / 1e6,
            if self.parallel() { "  [parallel]" } else { "" },
            if self.cache_hit { "  [cached]" } else { "" },
            if self.completed { "" } else { "  [INCOMPLETE]" },
        );
        if let Some(note) = &self.ivm {
            let _ = write!(
                out,
                "  [ivm={} d+={} d-={}]",
                note.mode, note.plus, note.minus
            );
        }
        if !self.partitions.is_empty() {
            let _ = write!(out, "  [parts={}]", self.partitions.len());
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }

    fn json_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"op\":{},\"rows_in\":[{}],\"rows_out\":{},\"raw_rows\":{},\
             \"kernel_rows\":{},\"parallel\":{},\"partitions\":[{}],\
             \"cache_hit\":{},\"completed\":{},\
             \"elapsed_ns\":{}",
            json_str(&self.op),
            self.rows_in
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.rows_out,
            self.raw_rows,
            self.kernel_rows,
            self.parallel(),
            self.partitions
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.cache_hit,
            self.completed,
            self.elapsed_ns,
        );
        if let Some(note) = &self.ivm {
            let _ = write!(
                out,
                ",\"ivm\":{{\"mode\":{},\"plus\":{},\"minus\":{}}}",
                json_str(note.mode),
                note.plus,
                note.minus
            );
        }
        out.push_str(",\"children\":[");
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.json_into(out);
        }
        out.push_str("]}");
    }
}

/// One pipeline stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// The stage.
    pub stage: Stage,
    /// Formula/plan node count entering the stage (query length for parse).
    pub nodes_in: u64,
    /// Node count leaving the stage (answer rows for eval).
    pub nodes_out: u64,
    /// Deterministic stage detail, e.g. `class=allowed` or `repairs=1`.
    pub detail: String,
    /// Wall time (not deterministic; excluded from the projection).
    pub elapsed_ns: u64,
    /// Did the stage run to completion?
    pub completed: bool,
}

// --------------------------------------------------------- stage tracer --

/// Collector for [`StageSpan`]s; the pipeline opens one span per stage.
/// Disabled tracers ([`StageTracer::off`]) make every call a no-op.
#[derive(Debug, Default)]
pub struct StageTracer {
    on: bool,
    stages: Vec<StageSpan>,
    current: Option<(StageSpan, Instant)>,
}

impl StageTracer {
    /// A disabled tracer (all hooks are no-ops).
    pub fn off() -> StageTracer {
        StageTracer::default()
    }

    /// A collecting tracer.
    pub fn on() -> StageTracer {
        StageTracer {
            on: true,
            ..StageTracer::default()
        }
    }

    /// Is this tracer collecting?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a stage span. An unclosed previous span is closed as complete
    /// (defensive; the pipeline pairs begin/end).
    pub fn begin(&mut self, stage: Stage, nodes_in: u64) {
        if !self.on {
            return;
        }
        self.seal(true, None, None);
        let span = StageSpan {
            stage,
            nodes_in,
            nodes_out: 0,
            detail: String::new(),
            elapsed_ns: 0,
            completed: false,
        };
        self.current = Some((span, Instant::now()));
    }

    /// Close the open stage span as completed.
    pub fn end(&mut self, nodes_out: u64, detail: impl Into<String>) {
        if !self.on {
            return;
        }
        self.seal(true, Some(nodes_out), Some(detail.into()));
    }

    /// Close the open stage span as failed: the last stage span of the
    /// trace then names the stage a `BudgetExceeded` (or any other error)
    /// unwound from.
    pub fn fail(&mut self) {
        if !self.on {
            return;
        }
        self.seal(false, None, None);
    }

    fn seal(&mut self, completed: bool, nodes_out: Option<u64>, detail: Option<String>) {
        if let Some((mut span, start)) = self.current.take() {
            span.completed = completed;
            span.elapsed_ns = start.elapsed().as_nanos() as u64;
            if let Some(n) = nodes_out {
                span.nodes_out = n;
            }
            if let Some(d) = detail {
                span.detail = d;
            }
            self.stages.push(span);
        }
    }

    /// The stage spans recorded so far (an open span is not included).
    pub fn stages(&self) -> &[StageSpan] {
        &self.stages
    }

    /// Append `tag` to the detail of every span recorded since the first
    /// `from` (an open span is not included).
    pub fn tag_since(&mut self, from: usize, tag: &str) {
        for span in self.stages.iter_mut().skip(from) {
            if !span.detail.is_empty() {
                span.detail.push(' ');
            }
            span.detail.push_str(tag);
        }
    }

    /// Finish: close any open span as failed and package the stage spans
    /// with an operator span tree into a [`PipelineTrace`].
    pub fn into_trace(mut self, root: Option<OpSpan>) -> PipelineTrace {
        self.seal(false, None, None);
        PipelineTrace {
            stages: self.stages,
            root,
        }
    }
}

// ------------------------------------------------------ operator tracer --

/// Collector for the operator span tree, threaded through the evaluator
/// alongside `EvalStats`.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    stack: Vec<(OpSpan, Instant)>,
    done: Vec<OpSpan>,
}

impl Tracer {
    /// A disabled tracer: every hook is a branch on one bool, nothing is
    /// allocated, and `Instant::now` is never called.
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// A collecting tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::default()
        }
    }

    /// Is this tracer collecting?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span for an operator about to be evaluated.
    pub(crate) fn open(&mut self, expr: &RaExpr) {
        if !self.on {
            return;
        }
        self.stack
            .push((OpSpan::new(op_label(expr)), Instant::now()));
    }

    /// Record one input cardinality on the open span.
    pub(crate) fn note_input(&mut self, rows: usize) {
        if let Some((span, _)) = self.stack.last_mut() {
            span.rows_in.push(rows);
        }
    }

    /// Record the pre-dedup row count on the open span.
    pub(crate) fn note_raw(&mut self, raw: u64) {
        if let Some((span, _)) = self.stack.last_mut() {
            span.raw_rows = raw;
        }
    }

    /// Record the kernel loop iteration count on the open span.
    pub(crate) fn note_kernel_rows(&mut self, n: u64) {
        if let Some((span, _)) = self.stack.last_mut() {
            span.kernel_rows = n;
        }
    }

    /// Record per-partition output cardinalities on the open span (the
    /// kernel ran partition-parallel).
    pub(crate) fn note_partitions(&mut self, sizes: &[u64]) {
        if let Some((span, _)) = self.stack.last_mut() {
            span.partitions = sizes.to_vec();
        }
    }

    /// Mark the open span as served from the evaluation memo table.
    pub(crate) fn note_cache_hit(&mut self) {
        if let Some((span, _)) = self.stack.last_mut() {
            span.cache_hit = true;
        }
    }

    /// Annotate the open span with an IVM note: refresh mode and the Δ
    /// cardinalities that flowed through this operator.
    pub(crate) fn note_ivm(&mut self, mode: &'static str, plus: u64, minus: u64) {
        if let Some((span, _)) = self.stack.last_mut() {
            span.ivm = Some(IvmNote { mode, plus, minus });
        }
    }

    /// Close the innermost open span: `Some(rel)` on success (records the
    /// output cardinality and, if no kernel reported one, the raw row
    /// count), `None` on error (the span stays marked incomplete).
    pub(crate) fn close(&mut self, out: Option<&Relation>) {
        if !self.on {
            return;
        }
        let Some((mut span, start)) = self.stack.pop() else {
            return;
        };
        span.elapsed_ns = start.elapsed().as_nanos() as u64;
        if let Some(rel) = out {
            span.completed = true;
            span.rows_out = rel.len();
            if span.raw_rows == 0 {
                span.raw_rows = rel.len() as u64;
            }
        }
        self.attach(span);
    }

    fn attach(&mut self, span: OpSpan) {
        match self.stack.last_mut() {
            Some((parent, _)) => parent.children.push(span),
            None => self.done.push(span),
        }
    }

    fn into_spans(mut self) -> Vec<OpSpan> {
        // Unwind anything still open (error paths close their own spans,
        // so this only fires on panics survived by a caller).
        while let Some((mut span, start)) = self.stack.pop() {
            span.elapsed_ns = start.elapsed().as_nanos() as u64;
            match self.stack.last_mut() {
                Some((parent, _)) => parent.children.push(span),
                None => self.done.push(span),
            }
        }
        self.done
    }

    /// Finish tracing and return the root operator span (None when the
    /// sink is off or nothing was evaluated). Partial trees from failed
    /// evaluations are returned too — that is the point.
    pub fn finish(self) -> Option<OpSpan> {
        self.into_spans().into_iter().next()
    }
}

/// The operator label of an expression node (deterministic).
fn op_label(expr: &RaExpr) -> String {
    match expr {
        RaExpr::Scan { pred, .. } => format!("scan {pred}"),
        RaExpr::Single { var, value } => format!("single {var}={value}"),
        RaExpr::Unit => "unit".into(),
        RaExpr::Empty { .. } => "empty".into(),
        RaExpr::Join(..) => "join".into(),
        RaExpr::Union(..) => "union".into(),
        RaExpr::Diff(..) => "diff".into(),
        RaExpr::Divide(..) => "÷".into(),
        RaExpr::Project { cols, .. } => {
            let cs: Vec<String> = cols.iter().map(|v| v.to_string()).collect();
            format!("project [{}]", cs.join(","))
        }
        RaExpr::Select { pred, .. } => format!("select {pred}"),
        RaExpr::Duplicate { src, dst, .. } => format!("duplicate {src}->{dst}"),
    }
}

// ------------------------------------------------------- pipeline trace --

/// The complete observability record of one pipeline run: stage spans plus
/// the operator span tree of the evaluation. Populated on both success and
/// failure — a partial trace names the stage and operator that tripped.
#[derive(Clone, Debug, Default)]
pub struct PipelineTrace {
    /// Per-stage spans, in execution order.
    pub stages: Vec<StageSpan>,
    /// The evaluation's operator span tree, when eval ran.
    pub root: Option<OpSpan>,
}

impl PipelineTrace {
    /// The stage that failed, if any (the last incomplete stage span).
    pub fn failed_stage(&self) -> Option<Stage> {
        self.stages
            .iter()
            .rev()
            .find(|s| !s.completed)
            .map(|s| s.stage)
    }

    /// The operator running when evaluation tripped, if any.
    pub fn hot_operator(&self) -> Option<&OpSpan> {
        self.root.as_ref().and_then(OpSpan::last_incomplete)
    }

    /// The deterministic projection: span tree shape, labels, per-operator
    /// in/out/raw cardinalities and stage node counts — everything except
    /// wall times and the partition split. Identical across partitioned
    /// and one-lane kernels; this is what the golden-trace snapshots pin.
    pub fn deterministic(&self) -> String {
        let mut out = String::new();
        for s in &self.stages {
            let _ = write!(
                out,
                "stage {}: nodes {} -> {}",
                s.stage, s.nodes_in, s.nodes_out
            );
            if !s.detail.is_empty() {
                let _ = write!(out, " [{}]", s.detail);
            }
            if !s.completed {
                out.push_str(" FAILED");
            }
            out.push('\n');
        }
        if let Some(root) = &self.root {
            root.projection_into(0, false, &mut out);
        }
        out
    }

    /// Human-readable rendering with wall times (what `explain analyze`
    /// prints above the annotated plan).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.stages {
            let _ = writeln!(
                out,
                "stage {:<10} {:>8.3} ms  nodes {} -> {}{}{}",
                s.stage,
                s.elapsed_ns as f64 / 1e6,
                s.nodes_in,
                s.nodes_out,
                if s.detail.is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", s.detail)
                },
                if s.completed { "" } else { "  [FAILED]" },
            );
        }
        if let Some(root) = &self.root {
            out.push_str("operators:\n");
            root.render_into(1, &mut out);
        }
        out
    }

    /// Machine-readable JSON export (hand-rolled; the workspace is
    /// dependency-free). Includes wall times — consumers wanting the
    /// deterministic projection should use [`PipelineTrace::deterministic`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"nodes_in\":{},\"nodes_out\":{},\"detail\":{},\
                 \"elapsed_ns\":{},\"completed\":{}}}",
                json_str(&s.stage.to_string()),
                s.nodes_in,
                s.nodes_out,
                json_str(&s.detail),
                s.elapsed_ns,
                s.completed,
            );
        }
        out.push_str("],\"eval\":");
        match &self.root {
            Some(root) => root.json_into(&mut out),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// The JSON form of the deterministic projection: the same span tree as
    /// [`PipelineTrace::to_json`] but without wall times, kernel tick
    /// counts, the parallel flag, or per-partition splits — exactly the
    /// fields that are reproducible for a given expression and database
    /// whatever the execution policy. This is what a query *server* sends
    /// on the wire, so a response can be compared byte-for-byte against an
    /// in-process evaluation (see `tests/serve_differential.rs`).
    pub fn to_json_deterministic(&self) -> String {
        let mut out = String::from("{\"stages\":[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"nodes_in\":{},\"nodes_out\":{},\"detail\":{},\
                 \"completed\":{}}}",
                json_str(&s.stage.to_string()),
                s.nodes_in,
                s.nodes_out,
                json_str(&s.detail),
                s.completed,
            );
        }
        out.push_str("],\"eval\":");
        match &self.root {
            Some(root) => root.json_deterministic_into(&mut out),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// Encode `s` as a JSON string literal (quotes included): `"`, `\\`, and
/// all control characters are escaped, so the output is valid under a
/// strict parser whatever bytes a [`Symbol`](rc_formula::Symbol) or stage
/// detail carried. Public because every hand-rolled JSON emitter in the
/// workspace must share one escaper rather than interpolate raw strings.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ------------------------------------------------- cardinality estimates --

/// The deterministic cardinality estimate for a plan node — what `explain`
/// prints next to (and `explain analyze` against) the actual cardinalities.
/// Since the statistics module landed this simply delegates to
/// [`crate::stats::Estimator`], so the numbers shown by `explain` are
/// exactly the ones the cost-based planner optimized against (including any
/// feedback recorded for the subplan).
pub fn estimate_rows(expr: &RaExpr, db: &Database) -> u64 {
    crate::stats::Estimator::new(db).rows(expr)
}

/// The estimated evaluation cost (abstract ns units) the planner assigned
/// to `expr` — shown by `explain` next to the root cardinality.
pub fn estimate_cost(expr: &RaExpr, db: &Database) -> u64 {
    crate::stats::Estimator::new(db).cost(expr).round() as u64
}

/// Render a plan tree annotated with estimated cardinalities — the
/// `explain` view (no evaluation required).
///
/// Estimates are recomputed on the tree passed in, with one
/// [`Estimator`](crate::stats::Estimator) shared across every node: each
/// node's `(est, cost)` pair comes from one
/// [`cost_and_estimate`](crate::stats::Estimator::cost_and_estimate) walk,
/// so the printed cost is always the cost of the printed estimate — the
/// two can never come from different rewrite rounds of the plan.
pub fn render_plan(expr: &RaExpr, db: &Database) -> String {
    let est = crate::stats::Estimator::new(db);
    let mut out = String::new();
    plan_into(expr, &est, 0, &mut out);
    out
}

fn plan_into(expr: &RaExpr, est: &crate::stats::Estimator, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let (cost, card) = est.cost_and_estimate(expr);
    let _ = writeln!(
        out,
        "{pad}{}  (est {}, cost {})",
        op_label(expr),
        card.rows.round() as u64,
        cost.round() as u64
    );
    for c in expr.children() {
        plan_into(c, est, depth + 1, out);
    }
}

/// Render the plan tree annotated with estimated *and* actual
/// cardinalities (plus raw rows and per-operator wall time) by zipping the
/// expression with its operator span tree — the `explain analyze` view.
/// Span-less nodes (unreached after a mid-plan trip) render with `actual=-`;
/// a memo-served subplan renders as one `[cached]` line.
pub fn render_analyze(expr: &RaExpr, db: &Database, span: Option<&OpSpan>) -> String {
    let estimator = crate::stats::Estimator::new(db);
    let mut out = String::new();
    analyze_into(expr, &estimator, span, 0, &mut out);
    out
}

fn analyze_into(
    expr: &RaExpr,
    estimator: &crate::stats::Estimator,
    span: Option<&OpSpan>,
    depth: usize,
    out: &mut String,
) {
    let pad = "  ".repeat(depth);
    let est = estimator.rows(expr);
    match span {
        Some(s) => {
            let _ = writeln!(
                out,
                "{pad}{}  est={} actual={} raw={}  {:.3} ms{}{}{}",
                s.op,
                est,
                if s.completed {
                    s.rows_out.to_string()
                } else {
                    "-".into()
                },
                s.raw_rows,
                s.elapsed_ns as f64 / 1e6,
                if s.parallel() { "  [parallel]" } else { "" },
                if s.cache_hit { "  [cached]" } else { "" },
                if s.completed { "" } else { "  [INCOMPLETE]" },
            );
            if s.cache_hit {
                // The subtree was rendered where it was first evaluated.
                return;
            }
        }
        None => {
            let _ = writeln!(out, "{pad}{}  est={} actual=-", op_label(expr), est);
        }
    }
    let spans = span.map(|s| s.children.as_slice()).unwrap_or(&[]);
    for (i, c) in expr.children().into_iter().enumerate() {
        analyze_into(c, estimator, spans.get(i), depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_formula::Term;

    #[test]
    fn off_tracer_records_nothing_and_allocates_nothing() {
        let mut t = Tracer::off();
        let e = RaExpr::Unit;
        t.open(&e);
        t.note_input(5);
        t.note_partitions(&[2, 3]);
        t.close(Some(&Relation::unit()));
        assert!(t.finish().is_none());
    }

    #[test]
    fn span_tree_mirrors_open_close_nesting() {
        let mut t = Tracer::on();
        let join = RaExpr::join(
            RaExpr::scan("P", vec![Term::var("x")]),
            RaExpr::scan("Q", vec![Term::var("x")]),
        );
        t.open(&join);
        t.open(join.children()[0]);
        t.close(Some(&Relation::new(1)));
        t.open(join.children()[1]);
        t.close(Some(&Relation::new(1)));
        t.close(Some(&Relation::new(1)));
        let root = t.finish().expect("one root span");
        assert_eq!(root.op, "join");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].op, "scan P");
        assert_eq!(root.children[1].op, "scan Q");
        assert!(root.completed);
        assert_eq!(root.span_count(), 3);
    }

    #[test]
    fn error_close_leaves_incomplete_partial_tree() {
        let mut t = Tracer::on();
        let join = RaExpr::join(
            RaExpr::scan("P", vec![Term::var("x")]),
            RaExpr::scan("Q", vec![Term::var("x")]),
        );
        t.open(&join);
        t.open(join.children()[0]);
        t.close(None); // the scan tripped
        t.close(None); // so the join unwinds too
        let root = t.finish().expect("partial root");
        assert!(!root.completed);
        let hot = root.last_incomplete().unwrap();
        assert_eq!(hot.op, "scan P");
    }

    #[test]
    fn stage_tracer_round_trip_and_failure_attribution() {
        let mut st = StageTracer::on();
        st.begin(Stage::Classify, 7);
        st.end(7, "class=allowed");
        st.begin(Stage::Ranf, 7);
        st.fail();
        let trace = st.into_trace(None);
        assert_eq!(trace.stages.len(), 2);
        assert_eq!(trace.failed_stage(), Some(Stage::Ranf));
        let det = trace.deterministic();
        assert!(det.contains("stage classify: nodes 7 -> 7 [class=allowed]"));
        assert!(det.contains("stage ranf: nodes 7 -> 0 FAILED"));
    }

    #[test]
    fn json_export_is_well_formed_enough() {
        let mut st = StageTracer::on();
        st.begin(Stage::Eval, 3);
        st.end(1, "tuples=\"quoted\"");
        let mut t = Tracer::on();
        t.open(&RaExpr::Unit);
        t.close(Some(&Relation::unit()));
        let json = st.into_trace(t.finish()).to_json();
        assert!(json.starts_with("{\"stages\":["));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"eval\":{\"op\":\"unit\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
    }

    #[test]
    fn estimates_are_deterministic_and_ordered() {
        let db = Database::from_facts("P(1, 2)\nP(2, 3)\nP(3, 3)\nQ(2)\nQ(3)").unwrap();
        let scan = RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]);
        assert_eq!(estimate_rows(&scan, &db), 3);
        let constrained = RaExpr::scan("P", vec![Term::var("x"), Term::val(3)]);
        assert!(estimate_rows(&constrained, &db) <= 3);
        let join = RaExpr::join(scan.clone(), RaExpr::scan("Q", vec![Term::var("y")]));
        // Containment assumption: 3*2 / max(d_y(P)=2, d_y(Q)=2) = 3.
        assert_eq!(estimate_rows(&join, &db), 3);
        assert_eq!(estimate_rows(&RaExpr::scan("Zzz", vec![]), &db), 0);
        let plan = render_plan(&join, &db);
        assert!(plan.contains("join  (est 3, cost "), "{plan}");
        assert!(plan.contains("  scan P  (est 3, cost "), "{plan}");
        assert!(
            estimate_cost(&join, &db) > estimate_cost(&scan, &db),
            "a join must cost more than one of its scans"
        );
    }
}
