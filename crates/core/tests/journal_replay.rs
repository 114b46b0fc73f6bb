//! The recovery journal's contract: a `RecoveryLog` built from
//! `take_journal_delta` records rebuilds, by copy (`restore`) or by
//! consuming the log (`into_transducer`), a replacement transducer whose
//! observable state — tables, scalars, mailbox queues, counters — is
//! bit-identical to the instance the deltas were drained from, and the
//! replacement behaves identically from that point on.

use hydro_core::ast::ColumnKind;
use hydro_core::builder::dsl::*;
use hydro_core::builder::ProgramBuilder;
use hydro_core::interp::{ProgramCore, RecoveryLog, Transducer};
use hydro_core::value::Value;
use std::sync::Arc;

/// A little KV store plus a counter and an outbound relay — covers all
/// three journaled surfaces (tables, scalars, mailbox queues).
fn program() -> hydro_core::ast::Program {
    ProgramBuilder::new()
        .table(
            "kv",
            vec![("k", ColumnKind::Atom), ("val", ColumnKind::Atom)],
            &["k"],
            Some("k"),
        )
        .var("count", Value::Int(0))
        .mailbox("audit", 2)
        .on(
            "put",
            &["k", "v"],
            vec![
                insert("kv", vec![v("k"), v("v")]),
                assign_scalar("count", add(scalar("count"), i(1))),
                send_row("audit", vec![v("k"), v("v")]),
                ret(s("ok")),
            ],
        )
        .on("del", &["k"], vec![delete("kv", v("k")), ret(s("gone"))])
        .on("get", &["k"], vec![ret(field("kv", v("k"), "val"))])
        .build()
}

fn put(t: &mut Transducer, k: i64, val: i64) {
    t.enqueue_ok("put", vec![Value::Int(k), Value::Int(val)]);
}

/// Drive `ticks` rounds of a deterministic mixed workload (puts,
/// overwrites, deletes) against `t`, appending each drained delta to
/// `log` when one is given.
fn drive(t: &mut Transducer, ticks: u64, log: Option<&mut RecoveryLog>) {
    let mut log = log;
    for round in 0..ticks {
        put(t, round as i64 % 7, round as i64);
        put(t, 100 + round as i64, round as i64);
        if round % 3 == 2 {
            t.enqueue_ok("del", vec![Value::Int(100 + round as i64 - 1)]);
        }
        t.tick().unwrap();
        if let Some(log) = log.as_deref_mut() {
            let delta = t.take_journal_delta().expect("a tick always drains");
            log.append(delta);
        }
    }
}

#[test]
fn restored_instance_is_bit_identical_and_behaves_identically() {
    let core = ProgramCore::new(program()).unwrap();

    // Reference: never killed, never journaled.
    let mut reference = Transducer::from_core(Arc::clone(&core));
    drive(&mut reference, 10, None);

    // Primary: journaled, killed after the same 10 ticks.
    let mut primary = Transducer::from_core(Arc::clone(&core));
    primary.set_journaling(true);
    let mut log = RecoveryLog::new(primary.checkpoint(), 4);
    drive(&mut primary, 10, Some(&mut log));
    drop(primary); // the kill

    let mut restored = log.restore(Arc::clone(&core));
    assert_eq!(
        restored.checkpoint(),
        reference.checkpoint(),
        "replayed state must be bit-identical to the never-killed run"
    );

    // And the replacement keeps behaving like the reference: same further
    // workload, same replies/sends/state.
    for (k, val) in [(3, 99), (200, 1), (3, 100)] {
        put(&mut restored, k, val);
        put(&mut reference, k, val);
        let a = restored.tick().unwrap();
        let b = reference.tick().unwrap();
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.sends, b.sends);
    }
    assert_eq!(restored.checkpoint(), reference.checkpoint());
}

#[test]
fn compaction_cadence_does_not_change_the_image() {
    let core = ProgramCore::new(program()).unwrap();

    let run = |checkpoint_every: usize| {
        let mut t = Transducer::from_core(Arc::clone(&core));
        t.set_journaling(true);
        let mut log = RecoveryLog::new(t.checkpoint(), checkpoint_every);
        drive(&mut t, 9, Some(&mut log));
        (log.image(), t.checkpoint())
    };

    let (eager, live_a) = run(1); // compact on every append
    let (lazy, live_b) = run(1000); // never compact within the run
    assert_eq!(eager, lazy, "image is independent of checkpoint cadence");
    assert_eq!(eager, live_a);
    assert_eq!(lazy, live_b);
}

#[test]
fn in_flight_messages_survive_replay() {
    let core = ProgramCore::new(program()).unwrap();

    let mut reference = Transducer::from_core(Arc::clone(&core));
    let mut primary = Transducer::from_core(Arc::clone(&core));
    primary.set_journaling(true);
    let mut log = RecoveryLog::new(primary.checkpoint(), 8);

    // Enqueue without ticking: the messages sit in the queue, ids
    // assigned. The journal must carry them (queues replicate with ids).
    put(&mut primary, 1, 10);
    put(&mut primary, 2, 20);
    put(&mut reference, 1, 10);
    put(&mut reference, 2, 20);
    log.append(primary.take_journal_delta().expect("queued messages"));
    drop(primary);

    let mut restored = log.restore(Arc::clone(&core));
    assert_eq!(restored.pending("put"), 2, "in-flight messages restored");
    let a = restored.tick().unwrap();
    let b = reference.tick().unwrap();
    assert_eq!(a.responses, b.responses, "same ids, same correlation");
    assert_eq!(restored.checkpoint(), reference.checkpoint());
}

#[test]
fn consuming_the_log_rebuilds_what_restore_and_the_reference_hold() {
    let core = ProgramCore::new(program()).unwrap();

    // Cadence 1 folds every record into the base as it lands; 1000 keeps
    // all of them as deltas, so consuming the log must fold them first.
    for checkpoint_every in [1, 1000] {
        let mut reference = Transducer::from_core(Arc::clone(&core));
        drive(&mut reference, 9, None);
        put(&mut reference, 42, 7);

        let mut primary = Transducer::from_core(Arc::clone(&core));
        primary.set_journaling(true);
        let mut log = RecoveryLog::new(primary.checkpoint(), checkpoint_every);
        drive(&mut primary, 9, Some(&mut log));
        // Queued, not ticked: the message is in flight at the kill.
        put(&mut primary, 42, 7);
        log.append(primary.take_journal_delta().expect("queued message"));
        drop(primary);

        let copied = log.restore(Arc::clone(&core));
        let mut moved = log.into_transducer(Arc::clone(&core));
        assert_eq!(moved.pending("put"), 1, "cadence {checkpoint_every}");
        assert_eq!(copied.checkpoint(), reference.checkpoint());
        assert_eq!(
            moved.checkpoint(),
            reference.checkpoint(),
            "cadence {checkpoint_every}: the moved image must be the reference's"
        );
        let a = moved.tick().unwrap();
        let b = reference.tick().unwrap();
        assert_eq!(a.responses, b.responses, "same ids, same correlation");
        assert_eq!(moved.checkpoint(), reference.checkpoint());
    }
}

#[test]
fn drain_is_none_only_when_literally_nothing_happened() {
    let core = ProgramCore::new(program()).unwrap();
    let mut t = Transducer::from_core(core);
    t.set_journaling(true);

    assert!(t.take_journal_delta().is_none(), "nothing happened yet");

    put(&mut t, 1, 1);
    t.tick().unwrap();
    let d = t.take_journal_delta().expect("state changed");
    assert!(!d.is_empty());
    assert!(t.take_journal_delta().is_none(), "drained clean");

    // An empty tick still advances tick_no, so it drains a (state-empty)
    // record — the delta stream doubles as a liveness signal.
    t.tick().unwrap();
    let d = t.take_journal_delta().expect("tick counter advanced");
    assert!(d.is_empty(), "no state change in an empty tick");
    assert_eq!(d.tick_no, t.tick_no());
}

#[test]
fn values_written_back_to_their_original_fold_away() {
    let core = ProgramCore::new(program()).unwrap();
    let mut t = Transducer::from_core(core);

    // Establish a baseline and drain it away.
    put(&mut t, 5, 50);
    t.tick().unwrap();
    t.set_journaling(true);

    // Overwrite, then restore the original value across two ticks within
    // one drain window: first-touch-vs-final comparison folds the pair to
    // "no change" for the table row (the counter and audit queue did
    // change, and must still appear).
    put(&mut t, 5, 99);
    t.tick().unwrap();
    put(&mut t, 5, 50);
    t.tick().unwrap();
    let d = t.take_journal_delta().expect("counter moved");
    assert!(
        !d.tables.iter().any(|(table, key, _)| table == "kv" && key == &vec![Value::Int(5)]),
        "kv[5] ended where it started — not in the delta"
    );
    assert!(
        d.scalars.iter().any(|(name, _)| name == "count"),
        "the counter genuinely changed"
    );
}
