//! Golden runs: what the system *does*, pinned as numbers.
//!
//! Two programs — a contact tracer with one view per maintenance strategy
//! and a serialized account store with a counting view — each run a fixed
//! seeded script through seven engines: the incremental transducer, both
//! fresh-per-tick modes, the serial shard driver at one and two shards,
//! the worker-thread shard driver at two shards, and an incremental
//! instance that is replaced halfway through the script by the one
//! [`RecoveryLog::restore`] rebuilds from its drained journal. Every tick's
//! output (replies, sends, warnings) is folded into a 64-bit FNV-1a digest
//! over a small canonical byte encoding written out below, so the digests
//! do not depend on a hasher the toolchain may change.
//!
//! Two digests are kept per tick:
//! * *canonical*: sends sorted. The engines derive view rows in different
//!   orders, so only this one is compared across engines, tick by tick.
//! * *exact*: sends in emission order, the order a `send` of a
//!   comprehension exposes to its receiver.
//!
//! The single-instance engines also record their recovery journal: each
//! tick's [`JournalDelta`] (tables, scalars, mailboxes, counters) folds
//! into a third digest, which every one of them must produce alike.
//!
//! All three fold into run digests that must equal the committed constants. A
//! change that moves a constant has changed observable behaviour —
//! usually the order in which some engine enumerates a view — and must
//! say which constant moved and why.

mod digest;

use digest::{Fnv, Rng};
use hydro::analysis::partition::partition;
use hydro::lang::parse_program;
use hydro::logic::interp::{EvalMode, JournalDelta, RecoveryLog, TickOutput, Transducer};
use hydro::logic::shard::{ParallelShardedTransducer, ShardedTransducer};
use hydro::logic::value::Value;
use std::sync::Arc;

/// The benchmark's contact tracer, plus `clear` (re-derived whenever
/// `exposed` changes, because of its negation), aggregates and a join over
/// it, and `notify`, which sends the closure of a person row by row.
const CONTACTS: &str = r#"
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
  return {n for clear_n(pid, n)}

on next_q(pid):
  return {p3 for clear_next(pid, p3)}

on notify(pid):
  send alert {p2 for transitive(pid, p2)}
  send cleared {p2 for clear(pid, p2)}
  return "OK"
"#;

/// The benchmark's account store: one serialized multiplexer over a
/// key-partitioned table with a counting view, plus a reader that sends
/// the view row by row.
const ACCOUNTS: &str = r#"
table accounts(id, bal, key=id, partition=id)

query overdrawn(x):
  for accounts(x, b)
  if b < 0

on req(op, k, v) with serializable:
  if op == 0:
    insert accounts(k, v)
    return "OK"
  else:
    if op == 1:
      delete accounts[k]
      return "OK"
    else:
      if accounts.has_key(k):
        return accounts[k].bal
      else:
        return "miss"

on set_bal(k, v):
  accounts[k].bal := v
  return "OK"

on audit(k):
  send flagged {x for overdrawn(x)}
  return {x for overdrawn(x)}
"#;

type Batch = Vec<(&'static str, Vec<Value>)>;

fn ints(xs: &[i64]) -> Vec<Value> {
    xs.iter().copied().map(Value::Int).collect()
}

/// People arrive in twos and threes and link to the recent arrivals; some
/// leave, some fall ill, and every tick reads a few of them through every
/// view. A link to someone who already left brings them back as a bare
/// row: a merge into a missing key creates it.
fn contacts_script(seed: u64) -> Vec<Batch> {
    let mut rng = Rng(seed);
    let mut alive: Vec<i64> = Vec::new();
    let mut next = 1;
    let mut ticks = Vec::new();
    for _ in 0..90 {
        let mut batch: Batch = Vec::new();
        if rng.below(8) == 0 {
            ticks.push(batch);
            continue;
        }
        for _ in 0..2 + rng.below(2) {
            batch.push(("add_person", ints(&[next])));
            alive.push(next);
            next += 1;
        }
        let recent = &alive[alive.len().saturating_sub(6)..];
        for _ in 0..1 + rng.below(3) {
            let a = rng.pick(recent).expect("someone arrived");
            let b = if rng.below(8) == 0 {
                rng.below(next as u64) as i64 + 1
            } else {
                rng.pick(recent).expect("someone arrived")
            };
            if a != b {
                batch.push(("add_contact", ints(&[a, b])));
            }
        }
        if alive.len() > 10 {
            for _ in 0..1 + rng.below(2) {
                let at = rng.below(alive.len() as u64 - 6) as usize;
                batch.push(("remove_person", ints(&[alive.remove(at)])));
            }
        }
        if rng.below(3) == 0 {
            let who = rng.pick(&alive).expect("someone is left");
            batch.push(("diagnosed", ints(&[who])));
        }
        for _ in 0..3 {
            let who = rng.below(next as u64) as i64 + 1;
            let reader =
                ["trace", "exposed_q", "reach_q", "clear_q", "next_q"][rng.below(5) as usize];
            batch.push((reader, ints(&[who])));
        }
        let who = rng.pick(&alive).expect("someone is left");
        batch.push(("notify", ints(&[who])));
        ticks.push(batch);
    }
    ticks
}

/// Upserts (a fifth of them negative balances), closes and reads over a
/// small key space, with an audit of the overdrawn view most ticks.
/// Some balances are assigned to keys that do not exist: those warn.
fn accounts_script(seed: u64) -> Vec<Batch> {
    let mut rng = Rng(seed);
    let mut ticks = Vec::new();
    for _ in 0..150 {
        let mut batch: Batch = Vec::new();
        for _ in 0..6 + rng.below(6) {
            let k = rng.below(40) as i64;
            let row = match rng.below(10) {
                0..=4 => {
                    let bal = rng.below(100) as i64 - if rng.below(5) == 0 { 150 } else { 0 };
                    ints(&[0, k, bal])
                }
                5 | 6 => ints(&[1, k, 0]),
                _ => ints(&[2, k, 0]),
            };
            batch.push(("req", row));
            if rng.below(8) == 0 {
                batch.push(("set_bal", ints(&[k, -7])));
            }
        }
        if rng.below(4) != 0 {
            batch.push(("audit", ints(&[0])));
        }
        ticks.push(batch);
    }
    ticks
}

/// The `(exact, canonical)` digests of one tick's output.
fn tick_digests(out: &TickOutput) -> (u64, u64) {
    let mut head = Fnv::new();
    head.u64(out.messages_processed as u64);
    head.u64(out.responses.len() as u64);
    for r in &out.responses {
        head.str(&r.handler);
        head.u64(r.message_id);
        head.value(&r.value);
    }
    head.u64(out.warnings.len() as u64);
    for w in &out.warnings {
        head.str(w);
    }
    let sends: Vec<Vec<u8>> = out
        .sends
        .iter()
        .map(|s| {
            let mut enc = Fnv::new();
            enc.str(&s.mailbox);
            enc.str(&s.handler);
            enc.u64(s.source_msg);
            enc.row(&s.row);
            enc.0.to_le_bytes().to_vec()
        })
        .collect();
    let fold = |mut h: Fnv, sends: &[Vec<u8>]| {
        h.u64(sends.len() as u64);
        sends.iter().for_each(|s| h.bytes(s));
        h.0
    };
    let mut sorted = sends.clone();
    sorted.sort();
    (fold(head, &sends), fold(head, &sorted))
}

/// The digest of one tick's recovery-journal record (`None` when the
/// drain had nothing to report).
fn journal_digest(delta: Option<&JournalDelta>) -> u64 {
    let mut h = Fnv::new();
    let Some(d) = delta else {
        h.bytes(&[0]);
        return h.0;
    };
    h.bytes(&[1]);
    h.u64(d.tables.len() as u64);
    for (table, key, row) in &d.tables {
        h.str(table);
        h.row(key);
        match row {
            Some(r) => {
                h.bytes(&[1]);
                h.row(r);
            }
            None => h.bytes(&[0]),
        }
    }
    h.u64(d.scalars.len() as u64);
    for (name, v) in &d.scalars {
        h.str(name);
        h.value(v);
    }
    h.u64(d.mailboxes.len() as u64);
    for (name, queue) in &d.mailboxes {
        h.str(name);
        h.u64(queue.len() as u64);
        for m in queue {
            h.u64(m.id);
            h.row(&m.row);
        }
    }
    h.u64(d.next_msg_id);
    h.u64(d.tick_no);
    h.0
}

/// One engine under test.
enum Engine {
    /// A single transducer with its recovery journal on.
    Single(Box<Transducer>),
    Sharded(ShardedTransducer),
    Parallel(ParallelShardedTransducer),
}

impl Engine {
    fn enqueue(&mut self, mailbox: &str, row: Vec<Value>) -> u64 {
        match self {
            Engine::Single(t) => t.enqueue(mailbox, row),
            Engine::Sharded(s) => s.enqueue(mailbox, row),
            Engine::Parallel(p) => p.enqueue(mailbox, row),
        }
        .expect("known mailbox")
    }

    fn tick(&mut self) -> TickOutput {
        match self {
            Engine::Single(t) => t.tick(),
            Engine::Sharded(s) => s.tick(),
            Engine::Parallel(p) => p.tick(),
        }
        .expect("tick")
    }
}

const ENGINES: [&str; 7] = [
    "incremental",
    "fresh_seminaive",
    "fresh_naive",
    "sharded_2",
    "sharded_1",
    "parallel_2",
    "restored",
];

fn engine(name: &str, text: &str) -> Engine {
    let program = parse_program(text).expect("program parses");
    let single = |mode: EvalMode| {
        let mut t = Transducer::new(program.clone()).expect("program validates");
        t.set_eval_mode(mode);
        t.set_journaling(true);
        Engine::Single(Box::new(t))
    };
    let routing = || partition(&program).routing();
    match name {
        "incremental" | "restored" => single(EvalMode::Incremental),
        "fresh_seminaive" => single(EvalMode::FreshSemiNaive),
        "fresh_naive" => single(EvalMode::FreshNaive),
        "sharded_1" | "sharded_2" => Engine::Sharded(
            ShardedTransducer::new(
                program.clone(),
                routing(),
                usize::from(name == "sharded_2") + 1,
            )
            .expect("program validates"),
        ),
        "parallel_2" => Engine::Parallel(
            ParallelShardedTransducer::new(program.clone(), routing(), 2)
                .expect("program validates"),
        ),
        other => unreachable!("no engine {other}"),
    }
}

/// One engine's run: per tick, the `(exact, canonical)` output digests and
/// the journal digest (`None` for the shard drivers, which keep no single
/// journal).
type Run = Vec<((u64, u64), Option<u64>)>;

/// Run `script` through one engine. The `restored` engine appends every
/// journal record to a [`RecoveryLog`] and, halfway through, continues on
/// the replacement the log restores.
fn run_one(name: &str, text: &str, script: &[Batch]) -> Run {
    let mut e = engine(name, text);
    let mut log = match &e {
        Engine::Single(t) if name == "restored" => Some(RecoveryLog::new(t.checkpoint(), 8)),
        _ => None,
    };
    let mut ticks = Vec::with_capacity(script.len());
    for (i, batch) in script.iter().enumerate() {
        if let (Engine::Single(t), Some(log)) = (&mut e, &log) {
            if i == script.len() / 2 {
                let mut replacement = log.restore(Arc::clone(t.core()));
                replacement.set_journaling(true);
                **t = replacement;
            }
        }
        for (mailbox, row) in batch {
            e.enqueue(mailbox, row.clone());
        }
        let out = tick_digests(&e.tick());
        let journal = match &mut e {
            Engine::Single(t) => {
                let delta = t.take_journal_delta();
                let digest = journal_digest(delta.as_ref());
                if let (Some(log), Some(d)) = (&mut log, delta) {
                    log.append(d);
                }
                Some(digest)
            }
            Engine::Sharded(_) | Engine::Parallel(_) => None,
        };
        ticks.push((out, journal));
    }
    ticks
}

/// Every engine's run digests: `(name, exact, canonical, journal)`.
type Digests = Vec<(&'static str, u64, u64, Option<u64>)>;

/// Run `script` through every engine; check they agree tick by tick on
/// the canonical digest (and, where kept, the journal digest) and return
/// each engine's run digests.
fn run_all(text: &str, script: &[Batch]) -> Digests {
    let per_engine: Vec<Run> = ENGINES
        .iter()
        .map(|name| run_one(name, text, script))
        .collect();
    for (i, ticks) in per_engine.iter().enumerate().skip(1) {
        for (t, (ours, theirs)) in ticks.iter().zip(&per_engine[0]).enumerate() {
            assert_eq!(
                ours.0 .1, theirs.0 .1,
                "tick {t}: {} disagrees with {}",
                ENGINES[i], ENGINES[0]
            );
            if ours.1.is_some() {
                assert_eq!(
                    ours.1, theirs.1,
                    "tick {t}: {}'s journal disagrees with {}'s",
                    ENGINES[i], ENGINES[0]
                );
            }
        }
    }
    ENGINES
        .iter()
        .zip(&per_engine)
        .map(|(&name, ticks)| {
            let mut exact = Fnv::new();
            let mut canonical = Fnv::new();
            let mut journal = Fnv::new();
            for ((e, c), j) in ticks {
                exact.u64(*e);
                canonical.u64(*c);
                if let Some(j) = j {
                    journal.u64(*j);
                }
            }
            let journaled = ticks.iter().all(|(_, j)| j.is_some());
            (name, exact.0, canonical.0, journaled.then_some(journal.0))
        })
        .collect()
}

/// Compare against the pinned digests, printing every engine's actual
/// values first so a deliberate change can be re-pinned from the output.
fn assert_pinned(program: &str, got: &Digests, exact: [u64; 7], canonical: u64, journal: u64) {
    for (name, e, c, j) in got {
        let j = j.map_or("-".to_string(), |j| format!("{j:#018x}"));
        println!("{program} {name}: exact {e:#018x}, canonical {c:#018x}, journal {j}");
    }
    for ((name, e, c, j), want) in got.iter().zip(exact) {
        assert_eq!(
            *c, canonical,
            "{program}: {name}'s canonical run digest moved"
        );
        assert_eq!(*e, want, "{program}: {name}'s exact run digest moved");
        if let Some(j) = j {
            assert_eq!(*j, journal, "{program}: {name}'s journal run digest moved");
        }
    }
}

#[test]
fn contacts_runs_match_their_golden_digests() {
    let got = run_all(CONTACTS, &contacts_script(7));
    assert_pinned(
        "contacts",
        &got,
        // incremental, fresh semi-naive, fresh naive, two shards, one
        // shard, two worker-thread shards, restored halfway
        [
            0x2540_bb29_931a_3bc6,
            0x7bd6_6719_8bd3_8472,
            0x7bd6_6719_8bd3_8472,
            0x2540_bb29_931a_3bc6,
            0x2540_bb29_931a_3bc6,
            0x2540_bb29_931a_3bc6,
            0x906b_7be7_eb9f_d7db,
        ],
        0xfd88_84cb_aba6_d4dd,
        0x0905_e582_f5f7_e4ab,
    );
}

#[test]
fn accounts_runs_match_their_golden_digests() {
    let got = run_all(ACCOUNTS, &accounts_script(11));
    assert_pinned(
        "accounts",
        &got,
        // incremental, fresh semi-naive, fresh naive, two shards, one
        // shard, two worker-thread shards, restored halfway
        [
            0x7043_bd70_3556_9951,
            0xe1de_ba0d_11ff_9a17,
            0xe1de_ba0d_11ff_9a17,
            0x7043_bd70_3556_9951,
            0x7043_bd70_3556_9951,
            0x7043_bd70_3556_9951,
            0x81f3_f5c0_a17a_12b2,
        ],
        0xe8c7_57e3_6bf5_0bf7,
        0xa573_cf39_06ee_338c,
    );
}
