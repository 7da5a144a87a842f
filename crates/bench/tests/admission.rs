//! Admission-control suite over the serving engine: oversubscription must
//! queue (never reject) within the queue depth, queue waits must surface
//! as typed timeouts, cancelling a queued query must release its claim,
//! and a concurrent Table IX mix under a *tiny global budget* — where the
//! controller hands out reduced, spill-forcing grants — must stay
//! byte-identical to sequential single-session execution.

use std::sync::Arc;
use std::time::{Duration, Instant};

use xqjg_bench::{queries, DataSet, Workload};
use xqjg_core::Mode;
use xqjg_serve::{Engine, Response};
use xqjg_store::{AdmissionConfig, CancelToken, ExecConfig};
use xqjg_xml::Pre;

fn engines(scale: f64, admission: AdmissionConfig) -> (Arc<Engine>, Arc<Engine>) {
    let Workload { xmark, dblp, .. } = Workload::new(scale);
    (
        Engine::new(xmark, ExecConfig::from_env(), admission.clone()),
        Engine::new(dblp, ExecConfig::from_env(), admission),
    )
}

/// Single-session reference items for a query (no admission in the way).
fn reference(engine: &Engine, query: &str) -> Vec<Pre> {
    let prepared = engine.processor().prepare(query).expect("prepare");
    engine
        .processor()
        .execute_prepared_shared(
            &prepared,
            Mode::JoinGraph,
            &ExecConfig::from_env(),
            &CancelToken::new(),
        )
        .expect("reference execution")
        .items
}

/// Wait (bounded) until the controller reports `n` queued waiters.
fn await_waiting(engine: &Engine, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.admission().stats().waiting < n {
        assert!(
            Instant::now() < deadline,
            "waiters never queued: {:?}",
            engine.admission().stats()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn concurrent_mix_at_tiny_global_budget_byte_identical_to_sequential() {
    // A global budget so small that every concurrent grant forces the
    // executor down the spill path (the spill-parity suite proves 1 KiB
    // per query works); four sessions churn the whole Table IX mix and
    // every result must equal the unconstrained sequential reference.
    let admission = AdmissionConfig::default()
        .with_max_sessions(4)
        .with_queue_timeout(Duration::from_secs(120));
    let (xmark, dblp) = engines(0.02, admission.with_global_budget(Some(4 * 1024)));
    let mix: Vec<_> = queries()
        .into_iter()
        .map(|q| {
            let engine = match q.dataset {
                DataSet::Xmark => &xmark,
                DataSet::Dblp => &dblp,
            };
            let expected = reference(engine, q.text);
            (q, expected)
        })
        .collect();
    let mix = Arc::new(mix);

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let mix = Arc::clone(&mix);
            let xmark = Arc::clone(&xmark);
            let dblp = Arc::clone(&dblp);
            std::thread::spawn(move || {
                for _ in 0..3 {
                    for (q, expected) in mix.iter() {
                        let engine = match q.dataset {
                            DataSet::Xmark => &xmark,
                            DataSet::Dblp => &dblp,
                        };
                        let session = engine.open_session();
                        match engine.execute(&session, q.text) {
                            Response::Result(r) => {
                                // Under a 4 KiB global budget every grant
                                // is a thin slice, never the unlimited
                                // default.
                                assert!(r.granted.is_some(), "{}: granted a slice", q.id);
                                assert!(
                                    r.granted.unwrap() <= 4 * 1024,
                                    "{}: grant within global budget",
                                    q.id
                                );
                                assert_eq!(r.items, *expected, "{}: rows diverged", q.id);
                            }
                            other => panic!("{}: unexpected response {other:?}", q.id),
                        }
                        engine.close_session(session.id());
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    for engine in [&xmark, &dblp] {
        let stats = engine.stats();
        assert_eq!(stats.queries_err, 0, "{stats:?}");
        assert_eq!(
            stats.admission.rejected, 0,
            "queueing, not rejection: {stats:?}"
        );
        assert!(
            stats.admission.peak_in_use <= 4 * 1024,
            "grants never oversubscribed the budget: {stats:?}"
        );
        assert!(engine.admission().drained(), "{stats:?}");
    }
}

#[test]
fn oversubscription_queues_within_depth_and_rejects_past_it() {
    let (xmark, _) = engines(
        0.01,
        AdmissionConfig::default()
            .with_max_sessions(1)
            .with_queue_depth(2)
            .with_queue_timeout(Duration::from_secs(60)),
    );
    // Occupy the only slot, then fill the queue.
    let gate = xmark.admission().admit(None, None).expect("gate");
    let waiters: Vec<_> = (0..2)
        .map(|_| {
            let xmark = Arc::clone(&xmark);
            std::thread::spawn(move || {
                let session = xmark.open_session();
                let r = xmark.execute(&session, r#"doc("auction.xml")//item"#);
                xmark.close_session(session.id());
                r
            })
        })
        .collect();
    await_waiting(&xmark, 2);

    // Third arrival: queue full -> typed Overloaded, immediately.
    let session = xmark.open_session();
    match xmark.execute(&session, r#"doc("auction.xml")//item"#) {
        Response::Error(e) => {
            assert_eq!(e.kind, "overloaded", "{e:?}");
            assert!(e.message.contains("admission queue full"), "{e:?}");
        }
        other => panic!("expected overloaded, got {other:?}"),
    }
    xmark.close_session(session.id());

    // Opening the gate drains the queue; both waiters complete.
    drop(gate);
    for w in waiters {
        match w.join().expect("waiter") {
            Response::Result(_) => {}
            other => panic!("queued query failed: {other:?}"),
        }
    }
    let stats = xmark.stats();
    assert_eq!(stats.admission.queued, 2, "{stats:?}");
    assert_eq!(stats.admission.rejected, 1, "{stats:?}");
    assert!(xmark.admission().drained());
}

#[test]
fn queue_wait_beyond_timeout_is_a_typed_timeout() {
    let (xmark, _) = engines(
        0.01,
        AdmissionConfig::default()
            .with_max_sessions(1)
            .with_queue_timeout(Duration::from_millis(50)),
    );
    let gate = xmark.admission().admit(None, None).expect("gate");
    let session = xmark.open_session();
    let t0 = Instant::now();
    match xmark.execute(&session, r#"doc("auction.xml")//item"#) {
        Response::Error(e) => assert_eq!(e.kind, "timeout", "{e:?}"),
        other => panic!("expected timeout, got {other:?}"),
    }
    assert!(
        t0.elapsed() >= Duration::from_millis(50),
        "waited out the queue"
    );
    xmark.close_session(session.id());
    drop(gate);
    let stats = xmark.stats();
    assert_eq!(stats.admission.timeouts, 1, "{stats:?}");
    // The timed-out waiter left no residue: a fresh query admits at once.
    let session = xmark.open_session();
    assert!(matches!(
        xmark.execute(&session, r#"doc("auction.xml")//item"#),
        Response::Result(_)
    ));
    xmark.close_session(session.id());
    assert!(xmark.admission().drained());
}

#[test]
fn cancel_while_queued_releases_the_claim() {
    let (xmark, _) = engines(
        0.01,
        AdmissionConfig::default()
            .with_max_sessions(1)
            .with_queue_timeout(Duration::from_secs(60)),
    );
    let gate = xmark.admission().admit(None, None).expect("gate");

    let session = xmark.open_session();
    let id = session.id();
    let waiter = {
        let xmark = Arc::clone(&xmark);
        std::thread::spawn(move || {
            let r = xmark.execute(&session, r#"doc("auction.xml")//item"#);
            xmark.close_session(session.id());
            r
        })
    };
    await_waiting(&xmark, 1);
    assert!(xmark.cancel(id), "registry resolves the session");
    match waiter.join().expect("waiter") {
        Response::Error(e) => assert_eq!(e.kind, "cancelled", "{e:?}"),
        other => panic!("expected cancelled, got {other:?}"),
    }

    // The cancelled waiter released its queue claim: with the gate still
    // held the queue is empty, and once dropped a new query admits.
    let stats = xmark.stats();
    assert_eq!(stats.admission.cancelled, 1, "{stats:?}");
    assert_eq!(stats.admission.waiting, 0, "{stats:?}");
    drop(gate);
    let session = xmark.open_session();
    assert!(matches!(
        xmark.execute(&session, r#"doc("auction.xml")//item"#),
        Response::Result(_)
    ));
    xmark.close_session(session.id());
    assert!(xmark.admission().drained());
}
