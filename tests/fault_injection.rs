//! Fault-injected degradation of the partition-parallel kernels and the
//! query server: thread-spawn denial must fall back to one-lane kernels
//! (engine) or inline accept-thread serving (server) with *identical*
//! output, and forced mid-evaluation cancellation must unwind cleanly,
//! releasing the admission slot and leaving engine and server usable.
//!
//! Partitioned kernels run one governor per worker, whose checkpoint
//! *cadence* (every 4096 ticks per worker) depends on the partition
//! count, so tests comparing [`EvalStats`] across paths force the count
//! rather than take the host-dependent automatic one.

mod common;

use rcsafe::relalg::govern::{Resource, Stage};
use rcsafe::relalg::{EvalCtx, EvalStats, OpSpan, RelationBuilder};
use rcsafe::safety::pipeline::{compile_with, CompileOptions, Compiled};
use rcsafe::{parse, Budget, Database, FaultInjector, Tracer, Value};

/// A join of two 9000-row relations.
fn big_join() -> (Compiled, Database) {
    let mut db = Database::new();
    let mut a = RelationBuilder::new(2);
    let mut b = RelationBuilder::new(2);
    for i in 0..9_000i64 {
        a.push_row(&[Value::int(i), Value::int(i % 97)]);
        b.push_row(&[Value::int(i % 97), Value::int(i % 13)]);
    }
    db.insert_relation("A", a.finish());
    db.insert_relation("B", b.finish());
    let c = compile_with(
        &parse("A(x, y) & B(y, z)").unwrap(),
        CompileOptions::default(),
    )
    .unwrap();
    (c, db)
}

#[test]
fn spawn_denial_degrades_to_identical_sequential_results() {
    let (c, db) = big_join();

    let pinned = Budget::new().with_partitions(1);
    let mut par = EvalCtx::new(&pinned);
    let parallel = c.run(&db, &mut par).unwrap();
    assert!(!parallel.is_empty());

    let fault = FaultInjector::new();
    fault.deny_thread_spawn(true);
    let budget = Budget::new().with_fault_injector(fault);
    let mut seq = EvalCtx::new(&budget);
    let sequential = c.run(&db, &mut seq).unwrap();

    assert_eq!(
        parallel, sequential,
        "sequential fallback changed the answer"
    );
    assert_eq!(
        parallel.to_string(),
        sequential.to_string(),
        "even the rendering must be identical"
    );
    assert_eq!(
        par.stats, seq.stats,
        "a forced single partition and spawn denial must count alike"
    );
}

#[test]
fn stats_are_reproducible_across_repeated_parallel_runs() {
    let (c, db) = big_join();
    let (mut first, mut second) = (EvalCtx::default(), EvalCtx::default());
    let a = c.run(&db, &mut first).unwrap();
    let b = c.run(&db, &mut second).unwrap();
    assert_eq!(a, b);
    assert_eq!(
        first.stats, second.stats,
        "repeated runs must count identically"
    );
    assert!(
        first.stats.budget_checks > 0,
        "governance checks are surfaced"
    );
}

#[test]
fn mid_kernel_cancellation_unwinds_and_engine_stays_usable() {
    let (c, db) = big_join();
    let reference = c.run(&db, &mut EvalCtx::default()).unwrap();

    // Let a few checkpoints pass so the cancellation lands *inside* the
    // evaluation (operator boundaries plus in-kernel ticks), not at entry.
    let fault = FaultInjector::new();
    fault.cancel_after_checkpoints(2);
    let budget = Budget::new().with_fault_injector(fault);
    let err = c
        .run(&db, &mut EvalCtx::new(&budget))
        .expect_err("forced mid-evaluation cancellation must surface");
    match err {
        rcsafe::relalg::EvalError::Budget(b) => {
            assert_eq!(b.stage, Stage::Eval);
            assert_eq!(b.resource, Resource::Cancelled);
        }
        other => panic!("expected a cancellation report, got {other:?}"),
    }

    // The trip poisoned nothing: the same compiled query over the same
    // database still produces the full answer.
    let after = c
        .run(&db, &mut EvalCtx::default())
        .expect("engine must stay usable");
    assert_eq!(after, reference);
}

#[test]
fn cancellation_under_denied_spawns_also_unwinds_cleanly() {
    let (c, db) = big_join();
    let reference = c.run(&db, &mut EvalCtx::default()).unwrap();

    let fault = FaultInjector::new();
    fault.deny_thread_spawn(true);
    fault.cancel_after_checkpoints(3);
    let budget = Budget::new().with_fault_injector(fault);
    let err = c
        .run(&db, &mut EvalCtx::new(&budget))
        .expect_err("cancellation must fire on the sequential path too");
    match err {
        rcsafe::relalg::EvalError::Budget(b) => {
            assert_eq!(b.resource, Resource::Cancelled)
        }
        other => panic!("expected a cancellation report, got {other:?}"),
    }
    assert_eq!(c.run(&db, &mut EvalCtx::default()).unwrap(), reference);
}

/// The deterministic cardinality projection of an operator span tree —
/// everything the trace pins except times and the parallel flag.
fn span_projection(root: &OpSpan) -> String {
    fn go(s: &OpSpan, depth: usize, out: &mut String) {
        let ins: Vec<String> = s.rows_in.iter().map(|n| n.to_string()).collect();
        out.push_str(&format!(
            "{}{} in=[{}] out={} raw={} {}\n",
            "  ".repeat(depth),
            s.op,
            ins.join(","),
            s.rows_out,
            s.raw_rows,
            if s.completed { "done" } else { "open" }
        ));
        for c in &s.children {
            go(c, depth + 1, out);
        }
    }
    let mut out = String::new();
    go(root, 0, &mut out);
    out
}

/// A database whose `A` and `B` keep 9000 rows each *after* builder
/// dedup (the `big_join` fixture's `B` collapses to 97×13 rows).
fn big_parallel_db() -> Database {
    let mut db = Database::new();
    let mut a = RelationBuilder::new(2);
    let mut b = RelationBuilder::new(2);
    for i in 0..9_000i64 {
        a.push_row(&[Value::int(i), Value::int(i % 97)]);
        b.push_row(&[Value::int(i % 97), Value::int(i)]);
    }
    db.insert_relation("A", a.finish());
    db.insert_relation("B", b.finish());
    db
}

#[test]
fn spawn_denial_leaves_the_trace_projection_unchanged() {
    let db = big_parallel_db();
    let c = compile_with(
        &parse("A(x, y) | B(x, y)").unwrap(),
        CompileOptions::default(),
    )
    .unwrap();

    let split = Budget::new().with_partitions(4);
    let mut par = EvalCtx::new(&split).with_tracer(Tracer::on());
    let parallel = c.run(&db, &mut par).unwrap();
    let par_root = std::mem::take(&mut par.tracer)
        .finish()
        .expect("parallel run leaves a root span");
    assert!(
        par_root.any_parallel(),
        "four forced partitions over 9000 rows — the parallel path must fire"
    );

    let fault = FaultInjector::new();
    fault.deny_thread_spawn(true);
    let budget = Budget::new().with_fault_injector(fault);
    let mut seq = EvalCtx::new(&budget).with_tracer(Tracer::on());
    let sequential = c.run(&db, &mut seq).unwrap();
    let seq_root = std::mem::take(&mut seq.tracer)
        .finish()
        .expect("sequential run leaves a root span");
    assert!(!seq_root.any_parallel(), "spawn denial must stick");

    assert_eq!(parallel, sequential);
    assert_eq!(
        par.stats, seq.stats,
        "every EvalStats field — operators, tuples_produced, \
         max_intermediate, budget_checks — must agree across paths"
    );
    assert_eq!(
        span_projection(&par_root),
        span_projection(&seq_root),
        "spawn denial may flip the parallel flag, never the projection"
    );
}

/// The differential pin the spawn-denial tests rely on, widened to every
/// binary operator shape: join, union, and difference over 9000-row
/// inputs. Under spawn denial they must report the same `EvalStats` (all
/// fields) as a forced single partition, and on four forced partitions
/// every field but `budget_checks` (`max_intermediate` included) — the
/// split kernels checkpoint once per worker and once in the merge, so
/// that count follows the partition layout, reproducibly.
#[test]
fn parallel_and_sequential_stats_agree_for_all_operator_shapes() {
    let db = big_parallel_db();
    for text in [
        "A(x, y) & B(y, z)",
        "A(x, y) | B(x, y)",
        "A(x, y) & ~B(x, y)",
        "(A(x, y) & B(y, z)) | (A(z, y) & B(y, x))",
    ] {
        let c = compile_with(&parse(text).unwrap(), CompileOptions::default()).unwrap();

        let split = Budget::new().with_partitions(4);
        let mut par = EvalCtx::new(&split).with_tracer(Tracer::on());
        let parallel = c.run(&db, &mut par).unwrap();
        assert!(
            std::mem::take(&mut par.tracer)
                .finish()
                .unwrap()
                .any_parallel(),
            "{text}: fixture must actually exercise the parallel path"
        );
        let mut again = EvalCtx::new(&split);
        c.run(&db, &mut again).unwrap();
        assert_eq!(par.stats, again.stats, "{text}: split runs must reproduce");

        let pinned = Budget::new().with_partitions(1);
        let mut one = EvalCtx::new(&pinned);
        c.run(&db, &mut one).unwrap();

        let fault = FaultInjector::new();
        fault.deny_thread_spawn(true);
        let budget = Budget::new().with_fault_injector(fault);
        let mut seq = EvalCtx::new(&budget);
        let sequential = c.run(&db, &mut seq).unwrap();

        assert_eq!(parallel, sequential, "{text}: answers diverged");
        assert_eq!(
            one.stats, seq.stats,
            "{text}: spawn denial and a single partition must count alike"
        );
        assert_eq!(
            EvalStats {
                budget_checks: seq.stats.budget_checks,
                ..par.stats
            },
            seq.stats,
            "{text}: an EvalStats field diverges between the parallel and \
             sequential paths"
        );
    }
}

/// Mid-join cancellation with the join kernel *forced* into partitioned
/// workers: the trip must drain every worker, surface as a cancellation,
/// and leave no poisoned state — the same compiled query over the same
/// database still yields the full answer, partitioned or sequential.
#[test]
fn mid_join_cancellation_under_forced_partitions_unwinds_cleanly() {
    let (c, db) = big_join();
    let reference = c.run(&db, &mut EvalCtx::default()).unwrap();

    for checkpoints in [2u64, 5, 9] {
        let fault = FaultInjector::new();
        fault.cancel_after_checkpoints(checkpoints);
        let budget = Budget::new().with_partitions(4).with_fault_injector(fault);
        let err = c
            .run(&db, &mut EvalCtx::new(&budget))
            .expect_err("cancellation must fire inside the partitioned evaluation");
        match err {
            rcsafe::relalg::EvalError::Budget(b) => {
                assert_eq!(b.stage, Stage::Eval);
                assert_eq!(b.resource, Resource::Cancelled);
            }
            other => panic!("expected a cancellation report, got {other:?}"),
        }

        let partitioned_again = c
            .run(&db, &mut EvalCtx::new(&Budget::new().with_partitions(4)))
            .expect("partitioned re-run after a cancelled partitioned run");
        assert_eq!(partitioned_again, reference);
        assert_eq!(c.run(&db, &mut EvalCtx::default()).unwrap(), reference);
    }
}

#[test]
fn mid_kernel_cancellation_yields_a_partial_trace_naming_the_culprit() {
    let (c, db) = big_join();

    let fault = FaultInjector::new();
    fault.cancel_after_checkpoints(2);
    let budget = Budget::new().with_fault_injector(fault);
    let mut cx = EvalCtx::new(&budget).with_tracer(Tracer::on());
    c.run(&db, &mut cx)
        .expect_err("forced cancellation must surface");

    // Every span the unwind crossed is closed but marked incomplete, so
    // the trace is well-formed and names where the cancellation landed.
    let root = cx
        .tracer
        .finish()
        .expect("partial trace must still have a root");
    assert!(!root.completed, "the root span cannot have completed");
    let culprit = root
        .last_incomplete()
        .expect("an incomplete span marks the cancelled operator");
    assert!(
        culprit.children.iter().all(|ch| ch.completed),
        "the deepest incomplete span is the operator the cancellation hit"
    );
}

/// Wherever in the pipeline a cancellation lands — compile-time stages
/// checkpoint too, so small counts trip inside `ranf` or `translate` — the
/// exported trace's failed stage must agree with the error's own stage
/// attribution. Once the count is large enough to reach evaluation, the
/// partial operator tree is exported and names the hot operator.
#[test]
fn cancelled_pipeline_trace_attributes_the_tripped_stage() {
    let (_, db) = big_join();
    let mut saw_eval_cancellation = false;

    for checkpoints in [1, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
        let fault = FaultInjector::new();
        fault.cancel_after_checkpoints(checkpoints);
        let opts = CompileOptions {
            budget: Budget::new().with_fault_injector(fault),
            ..CompileOptions::default()
        };
        let (result, trace) = common::serve_traced("A(x, y) & B(y, z)", &db, opts);
        let b = match result {
            Err(rcsafe::PipelineError::Budget(b)) => b,
            Ok(_) => break, // count exceeds every checkpoint: nothing trips
            Err(other) => panic!("expected a budget trip, got {other}"),
        };
        assert_eq!(b.resource, Resource::Cancelled);
        assert_eq!(
            trace.failed_stage(),
            Some(b.stage),
            "trace and error disagree on the cancelled stage \
             (after {checkpoints} checkpoints)"
        );
        if b.stage == Stage::Eval {
            saw_eval_cancellation = true;
            let root = trace.root.as_ref().expect("partial operator tree exported");
            assert!(!root.completed, "root span cannot have completed");
            let hot = trace
                .hot_operator()
                .expect("the hot operator is named even on a cancelled run");
            assert!(!hot.op.is_empty());
        }
    }
    assert!(
        saw_eval_cancellation,
        "no checkpoint count landed the cancellation inside evaluation"
    );
}

// ------------------------------------------ incremental maintenance --

use rcsafe::relalg::{eval, plan_hash, refresh, MaintainedView};
use rcsafe::safety::pipeline::compile_and_eval_cached;
use rcsafe::PlanCache;

/// Cancellation landing inside a delta refresh must leave the cached
/// entry *atomic*: wholly at the old version or wholly at the new one,
/// never a torn mix. The refresh walk builds the new view on the side
/// and installs it only after the final budget charge, so whichever
/// checkpoint the cancellation hits, the registered view's stored answer
/// must be exactly its own version's full answer.
#[test]
fn cancellation_mid_refresh_never_tears_the_cached_entry() {
    let mut db = Database::from_facts("P(1, 2)\nP(2, 3)\nP(3, 1)\nQ(1)\nQ(2)").unwrap();
    let text = "P(x, y) & Q(y)";
    let mut cache: PlanCache<Compiled> = PlanCache::new();
    let cold = compile_and_eval_cached(text, &db, CompileOptions::default(), &mut cache).unwrap();
    let hash = plan_hash(&cold.compiled.expr);
    let mut old_version = db.version();
    let mut old_answer = cold.relation.clone();

    for (i, checkpoints) in [1u64, 2, 3, 4, 6].into_iter().enumerate() {
        let fresh = 10 + i as i64;
        db.apply_delta(&format!("P({fresh}, 1)\nQ({fresh})"))
            .unwrap();
        let full =
            compile_and_eval_cached(text, &db, CompileOptions::default(), &mut PlanCache::new())
                .unwrap()
                .relation;

        let fault = FaultInjector::new();
        fault.cancel_after_checkpoints(checkpoints);
        let opts = CompileOptions {
            budget: Budget::new().with_fault_injector(fault),
            ..CompileOptions::default()
        };
        match compile_and_eval_cached(text, &db, opts, &mut cache) {
            Err(rcsafe::PipelineError::Budget(b)) => {
                assert_eq!(b.resource, Resource::Cancelled);
            }
            // A large enough count lands past the last checkpoint.
            Ok(out) => assert_eq!(out.relation, full),
            Err(other) => panic!("expected a cancellation, got {other}"),
        }

        // Atomicity: the registered view sits wholly at one version, and
        // its stored root answer is exactly that version's full answer.
        let view = cache.view_snapshot(hash).expect("view stays registered");
        if view.base_version() == db.version() {
            assert_eq!(view.result(), &full, "torn view at the new version");
        } else {
            assert_eq!(
                view.base_version(),
                old_version,
                "view at a version that was never current"
            );
            assert_eq!(view.result(), &old_answer, "torn view at the old version");
        }
        // Any result entry still present agrees with its own version too.
        if let Some(rel) = cache.lookup_result(hash, db.version()) {
            assert_eq!(rel, full, "torn result entry at the new version");
        }
        if let Some(rel) = cache.lookup_result(hash, old_version) {
            assert_eq!(rel, old_answer, "torn result entry at the old version");
        }

        // A clean serve recovers, whatever the trip left behind.
        let ok = compile_and_eval_cached(text, &db, CompileOptions::default(), &mut cache).unwrap();
        assert_eq!(ok.relation, full);
        old_version = db.version();
        old_answer = full;
    }
}

/// Spawn denial during a partitioned delta refresh: with the kernels
/// forced to 4 partitions, denying every thread spawn must degrade the
/// refresh to the sequential merge path with *byte-identical* output and
/// identical statistics — at the `refresh` level and through the cached
/// serving path alike.
#[test]
fn spawn_denial_during_partitioned_refresh_is_byte_identical() {
    let (c, mut db) = big_join();
    let budget_par = Budget::new().with_partitions(4);
    let mut cx = EvalCtx::new(&budget_par);
    eval(&c.expr, &db, &mut cx).unwrap();
    let view = MaintainedView::recorded(&mut cx, db.version()).unwrap();

    // A delta wide enough that the refresh's join re-probes do real work:
    // 400 fresh `A` rows and 40 deleted `B` rows.
    let mut lines = Vec::new();
    for i in 0..400i64 {
        lines.push(format!("A({}, {})", 20_000 + i, i % 97));
    }
    for i in 0..40i64 {
        lines.push(format!("-B({}, {})", i, i % 13));
    }
    let delta = db.apply_delta(&lines.join("\n")).unwrap();

    let mut st_par = EvalStats::default();
    let (view_par, with_spawns) = refresh(
        &view,
        &delta,
        db.version(),
        &mut st_par,
        &budget_par,
        &mut Tracer::off(),
    )
    .unwrap();

    let fault = FaultInjector::new();
    fault.deny_thread_spawn(true);
    let denied_budget = Budget::new().with_partitions(4).with_fault_injector(fault);
    let mut st_seq = EvalStats::default();
    let (view_seq, denied) = refresh(
        &view,
        &delta,
        db.version(),
        &mut st_seq,
        &denied_budget,
        &mut Tracer::off(),
    )
    .unwrap();

    assert_eq!(
        with_spawns, denied,
        "spawn denial changed the refreshed answer"
    );
    assert_eq!(
        with_spawns.to_string(),
        denied.to_string(),
        "even the rendering must be identical"
    );
    assert_eq!(
        st_par, st_seq,
        "refresh statistics must not depend on spawning"
    );
    assert_eq!(view_par.result(), view_seq.result());
    assert_eq!(
        denied,
        c.run(&db, &mut EvalCtx::default()).unwrap(),
        "refresh diverged from full eval"
    );

    // The serving path agrees: two identically primed caches, the same
    // delta, one serve with spawns denied — identical refreshed answers.
    let (_c2, mut db2) = big_join();
    let text = "A(x, y) & B(y, z)";
    let opts_par = || CompileOptions {
        budget: Budget::new().with_partitions(4),
        ..CompileOptions::default()
    };
    let mut cache_a: PlanCache<Compiled> = PlanCache::new();
    let mut cache_b: PlanCache<Compiled> = PlanCache::new();
    compile_and_eval_cached(text, &db2, opts_par(), &mut cache_a).unwrap();
    compile_and_eval_cached(text, &db2, opts_par(), &mut cache_b).unwrap();
    db2.apply_delta(&lines.join("\n")).unwrap();

    let allowed = compile_and_eval_cached(text, &db2, opts_par(), &mut cache_a).unwrap();
    let fault = FaultInjector::new();
    fault.deny_thread_spawn(true);
    let opts_denied = CompileOptions {
        budget: Budget::new().with_partitions(4).with_fault_injector(fault),
        ..CompileOptions::default()
    };
    let denied_serve = compile_and_eval_cached(text, &db2, opts_denied, &mut cache_b).unwrap();
    assert!(
        allowed.result_refreshed && denied_serve.result_refreshed,
        "both serves must take the refresh path (allowed: {}, denied: {})",
        allowed.result_refreshed,
        denied_serve.result_refreshed
    );
    assert_eq!(allowed.relation, denied_serve.relation);
    assert_eq!(
        allowed.relation.to_string(),
        denied_serve.relation.to_string()
    );
}

// --------------------------------------------------- the query server --

use rc_serve::{Client, Request, Response, Server, ServerConfig};
use std::time::{Duration, Instant};

/// The `big_join` fixture behind a server, with an optional injector
/// wired into every request budget and the accept loop.
fn serve_big_join(fault: Option<FaultInjector>) -> (Server, Database, Compiled) {
    let (c, db) = big_join();
    let server = Server::start(
        db.clone(),
        ServerConfig {
            fault,
            ..ServerConfig::default()
        },
    )
    .expect("bind server");
    (server, db, c)
}

fn query_relation(client: &mut Client, text: &str) -> rcsafe::Relation {
    match client.query(text).expect("transport") {
        Response::Query(ok) => ok.relation,
        other => panic!("expected a query response, got {other:?}"),
    }
}

/// A cancellation that fires mid-serve comes back as a structured budget
/// error, releases the admission slot, and poisons nothing: the very
/// same connection then gets the full answer.
#[test]
fn served_cancellation_releases_the_slot_and_poisons_nothing() {
    let fault = FaultInjector::new();
    let (server, db, c) = serve_big_join(Some(fault.clone()));
    let reference = c.run(&db, &mut EvalCtx::default()).unwrap();
    let text = "A(x, y) & B(y, z)";

    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Arm after connecting: the accept loop's spawn-denial probe does not
    // tick checkpoints, so the cancellation lands inside this request.
    fault.cancel_after_checkpoints(2);
    match client.query(text).expect("transport") {
        Response::Error(e) => {
            assert_eq!(e.kind, "budget");
            let b = e.to_budget().expect("cancellations are reconstructible");
            assert_eq!(b.resource, Resource::Cancelled);
        }
        other => panic!("expected a cancellation error, got {other:?}"),
    }
    // The injector disarmed itself; the slot was released on the error
    // path; the shared cache was not poisoned with a partial result.
    assert_eq!(query_relation(&mut client, text), reference);
    let stats: std::collections::HashMap<String, String> =
        client.stats().expect("stats").into_iter().collect();
    assert_eq!(stats["active"], "0", "the cancelled query leaked its slot");
    assert_eq!(stats["rejected"], "0");
}

/// Clients that vanish mid-conversation — after sending a query, before
/// reading its answer — must not wedge or poison the server.
#[test]
fn client_disconnect_mid_query_leaves_the_server_healthy() {
    let (server, db, c) = serve_big_join(None);
    let reference = c.run(&db, &mut EvalCtx::default()).unwrap();
    let text = "A(x, y) & B(y, z)";

    for _ in 0..8 {
        let mut ghost = Client::connect(server.local_addr()).expect("connect");
        ghost
            .send_raw_frame(&Request::query(text).encode())
            .unwrap();
        drop(ghost); // connection torn down with the response in flight
    }
    // The survivors: a fresh client gets the full, correct answer and the
    // admission ledger drains back to zero.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(query_relation(&mut client, text), reference);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats: std::collections::HashMap<String, String> =
            client.stats().expect("stats").into_iter().collect();
        if stats["active"] == "0" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "ghost connections leaked admission slots: active={}",
            stats["active"]
        );
        std::thread::yield_now();
    }
}

/// Thread-spawn denial at the server layer: connections are served
/// inline on the accept thread — sequentially, later clients waiting
/// rather than being dropped — with answers identical to threaded serving.
#[test]
fn spawn_denial_degrades_to_inline_sequential_serving() {
    let fault = FaultInjector::new();
    fault.deny_thread_spawn(true);
    let (server, db, c) = serve_big_join(Some(fault));
    let reference = c.run(&db, &mut EvalCtx::default()).unwrap();
    let text = "A(x, y) & B(y, z)";

    // Inline serving occupies the accept thread until the connection
    // closes, so exercise clients strictly one after another.
    for i in 0..3 {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        assert_eq!(
            query_relation(&mut client, text),
            reference,
            "inline-served answer diverged (client {i})"
        );
    }
    assert_eq!(
        server.inline_served(),
        3,
        "every connection must have been served on the accept thread"
    );
}
