//! Tier-1 smoke for the evaluator. `cargo test -q` at the root runs only
//! this package's tests, and none of the others reaches
//! `hydro_core::eval`'s maintenance paths, so a broken counting, aggregate,
//! DRed or recompute strategy used to pass tier-1. This drives a
//! contact-tracing program — one view per maintenance strategy, one
//! reader per view — through cluster churn, long enough that every probed
//! relation is compacted (renumbered under its live indexes) several times,
//! and checks, every tick, that the incremental engine, the naive fresh
//! engine and a two-shard driver give the same replies and hold the same
//! state.

use hydro::analysis::partition::partition;
use hydro::lang::parse_program;
use hydro::logic::interp::{EvalMode, Transducer};
use hydro::logic::shard::ShardedTransducer;
use hydro::logic::value::Value;

/// The shape of the benchmark's `contacts.hydro` (kept inline: the
/// benchmark's files are not this test's to read), plus `clear`, whose
/// negation makes its unit re-derive whenever `exposed` changes, and two
/// views that read `clear`'s pre-tick state while it changes.
///   contact_pairs  flatten of a set column            (counting)
///   transitive     recursive closure                  (insert-only rounds, DRed on delete)
///   exposed        join of the closure on a flag      (counting over a recursive input)
///   reach          count aggregate over the closure   (delta-keyed groups)
///   clear          closure minus exposed              (recompute)
///   clear_n        count aggregate over `clear`       (delta-keyed groups over a recomputed input)
///   clear_next     join of `clear` and contact_pairs  (counting over two changing inputs)
const PROGRAM: &str = r#"
table people(pid, contacts: set, covid: flag, key=pid)

query contact_pairs(p, p1):
  for people(p, cs, _)
  for p1 in cs

query transitive(p, p1):
  for contact_pairs(p, p1)

query transitive(p, p2):
  for transitive(p, p1)
  for contact_pairs(p1, p2)

query exposed(p, p2):
  for transitive(p, p2)
  for people(p2, _, sick)
  if sick

query reach(p) = count(p2):
  for transitive(p, p2)

query clear(p, p2):
  for transitive(p, p2)
  not exposed(p, p2)

query clear_n(p) = count(p2):
  for clear(p, p2)

query clear_next(p, p3):
  for clear(p, p2)
  for contact_pairs(p2, p3)

on add_person(pid):
  insert people(pid, {}, false)
  return "OK"

on add_contact(a, b):
  people[a].contacts.merge(b)
  people[b].contacts.merge(a)
  return "OK"

on remove_person(pid):
  delete people[pid]
  return "OK"

on diagnosed(pid):
  people[pid].covid.merge(true)
  return "OK"

on trace(pid):
  return {p2 for transitive(pid, p2)}

on exposed_q(pid):
  return {p2 for exposed(pid, p2)}

on reach_q(pid):
  return {n for reach(pid, n)}

on clear_q(pid):
  return {p2 for clear(pid, p2)}

on clear_n_q(pid):
  return {n for clear_n(pid, n)}

on clear_next_q(pid):
  return {p3 for clear_next(pid, p3)}
"#;

/// People per cluster, linked in a chain the tick after they arrive.
const CLUSTER: i64 = 4;

/// First person of the cluster that arrives in tick `t`.
fn base(t: i64) -> i64 {
    1 + t * CLUSTER
}

/// The messages of tick `t`: one cluster arrives, the previous one is
/// linked, an older one is diagnosed now and then, a settled one is read
/// through every view, one loses a single member (its neighbours keep
/// their rows, so DRed has survivors to re-derive) and later the rest.
fn script(t: i64) -> Vec<(&'static str, Vec<i64>)> {
    let mut msgs: Vec<(&'static str, Vec<i64>)> = Vec::new();
    if t % 5 == 4 {
        return msgs; // a tick with nothing to do
    }
    if t >= 6 {
        msgs.extend((0..CLUSTER - 1).map(|i| ("remove_person", vec![base(t - 6) + i])));
    }
    if t >= 4 {
        msgs.push(("remove_person", vec![base(t - 4) + CLUSTER - 1]));
    }
    msgs.extend((0..CLUSTER).map(|i| ("add_person", vec![base(t) + i])));
    if t >= 1 {
        let b = base(t - 1);
        msgs.extend((0..CLUSTER - 1).map(|i| ("add_contact", vec![b + i, b + i + 1])));
    }
    if t >= 2 && t % 3 == 0 {
        msgs.push(("diagnosed", vec![base(t - 2) + t % CLUSTER]));
    }
    for age in [3, 5, 7] {
        if t >= age {
            let p = base(t - age) + (t + age) % CLUSTER;
            let readers = [
                "trace",
                "exposed_q",
                "reach_q",
                "clear_q",
                "clear_n_q",
                "clear_next_q",
            ];
            msgs.extend(readers.map(|h| (h, vec![p])));
        }
    }
    msgs
}

#[test]
fn engines_and_shards_agree_under_cluster_churn() {
    let program = parse_program(PROGRAM).expect("program parses");
    let routing = partition(&program).routing();
    let mut incremental = Transducer::new(program.clone()).expect("program validates");
    let mut naive = Transducer::new(program.clone()).expect("program validates");
    naive.set_eval_mode(EvalMode::FreshNaive);
    let mut sharded =
        ShardedTransducer::new(program.clone(), routing, 2).expect("program validates");

    // How long. `Relation::should_compact` fires once a relation holds more
    // than 64 tombstones and they are at least a quarter of its live rows;
    // every relation here stays under ~65 live rows, so the floor of 65
    // tombstones decides. A relation's tombstones are the rows it lost,
    // committed once a tick — maintenance reads a changed input's pre-tick
    // state, it does not remove and re-append its rows. In 5 ticks (one
    // idle, and some leavers never arrived) `transitive` loses ≈ 63 rows,
    // `people` ≈ 29 (leavers and rewritten contact sets), `contact_pairs`
    // ≈ 23 (a leaving cluster's 5 pairs and a lone leaver's 1 a busy tick)
    // and `reach` ≈ 16. So `transitive` compacts every 5–6 ticks from tick
    // 11, `people` every 11–13 from tick 14 and `contact_pairs` every 15
    // from tick 21; `reach`, the slowest, compacts in ticks 26 and 47, which
    // sets the length. Every one of those compactions is followed, in the
    // same tick, by reads through the renumbered indexes — the handlers
    // borrow the engine's own.
    let mut nonempty_reads = 0;
    for t in 0..48 {
        for (mailbox, args) in script(t) {
            let row: Vec<Value> = args.into_iter().map(Value::Int).collect();
            let id = incremental
                .enqueue(mailbox, row.clone())
                .expect("known handler");
            assert_eq!(naive.enqueue(mailbox, row.clone()), Ok(id), "tick {t}");
            assert_eq!(sharded.enqueue(mailbox, row), Ok(id), "tick {t}");
        }
        let a = incremental.tick().expect("incremental tick");
        let b = naive.tick().expect("naive tick");
        let c = sharded.tick().expect("sharded tick");
        assert_eq!(
            a, b,
            "tick {t}: incremental and fresh-naive outputs diverge"
        );
        assert_eq!(
            a.responses, c.responses,
            "tick {t}: sharded replies diverge"
        );
        assert_eq!(a.messages_processed, c.messages_processed, "tick {t}");
        assert_eq!(
            incremental.state(),
            naive.state(),
            "tick {t}: state diverges"
        );
        assert_eq!(
            incremental.state(),
            &sharded.merged_state(),
            "tick {t}: sharded state diverges"
        );
        nonempty_reads += a
            .responses
            .iter()
            .filter(|r| matches!(&r.value, Value::Set(s) if !s.is_empty()))
            .count();
    }
    // The agreement above is about something: most reads found rows, and
    // the four relations above compacted at least twice each.
    assert!(
        nonempty_reads > 100,
        "only {nonempty_reads} non-empty reads"
    );
    assert!(
        incremental.compactions() >= 8,
        "only {} compactions",
        incremental.compactions()
    );
}
