//! The sharded driver over both executors — inline shards and one worker
//! thread per shard — where the differential suites do not reach:
//!
//! * a UDF that panics on shard 1 fails a tick the same way on both
//!   executors (the panic reaches the caller with the UDF's message), and
//!   dropping the driver afterwards returns;
//! * `run_to_quiescence` replays a cross-shard message cascade exactly as
//!   a single transducer does: same responses under the same message ids,
//!   same external sends in the same order, equal merged state.
//!
//! The panic test runs each driver on a helper thread and waits on it
//! with a timeout, so a driver that hangs fails the test instead of
//! stalling the suite.

use hydro::lang::parse_program;
use hydro::logic::ast::Program;
use hydro::logic::interp::{TickOutput, Transducer};
use hydro::logic::serve::ServeDriver;
use hydro::logic::shard::{
    partition_hash, ParallelShardedTransducer, Route, RoutingSpec, ShardedTransducer,
};
use hydro::logic::value::Value;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// How long the parent waits for the helper thread at each step.
const WATCHDOG: Duration = Duration::from_secs(10);

const UDF_PANIC: &str = "boom: the UDF failed on shard 1";

/// `probe(k)` calls the UDF `boom` on the shard that owns `k`.
const PROBE: &str = r#"
import boom

on probe(k):
  return boom(k)
"#;

/// `ping` is routed by its first parameter and sends `pong`, which is
/// routed by its second: each hop lands on the shard of the other key,
/// until the count runs out and `landed` leaves the program.
const RELAY: &str = r#"
table hops(k, low: min, key=k)

on ping(k, peer, n):
  insert hops(k, n)
  if n > 0:
    send pong(k, peer, n - 1)
  else:
    send landed(k, peer)
  return n

on pong(from, k, n):
  insert hops(k, n)
  send ping(k, from, n)
  return from
"#;

fn program(src: &str) -> Program {
    parse_program(src).expect("test program parses")
}

fn probe_routing() -> RoutingSpec {
    RoutingSpec::all_global().with_route("probe", Route::ByParam(0))
}

fn relay_routing() -> RoutingSpec {
    RoutingSpec::all_global()
        .with_route("ping", Route::ByParam(0))
        .with_route("pong", Route::ByParam(1))
}

/// The smallest key at or after `from` that a route by that key sends to
/// `shard` of 2.
fn key_on(shard: u64, from: i64) -> i64 {
    (from..)
        .find(|&k| partition_hash(&Value::Int(k)) % 2 == shard)
        .expect("some key lands on every shard")
}

fn install_boom(t: &mut Transducer) {
    t.register_udf("boom", |_: &[Value]| -> Value { panic!("{UDF_PANIC}") });
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or_else(|| "<non-string panic>".to_string(), |s| s.to_string()),
    }
}

/// Build a driver on a helper thread, send one `probe` to a key on
/// shard 1 and tick. Returns the message the tick panicked with, after
/// checking that dropping the driver then returned.
fn panic_of_tick<D: ServeDriver>(build: impl FnOnce() -> D + Send + 'static) -> String {
    let (ticked_tx, ticked) = mpsc::channel();
    let (dropped_tx, dropped) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let mut driver = build();
        driver.enqueue("probe", vec![Value::Int(key_on(1, 0))]).expect("probe admitted");
        let tick = panic::catch_unwind(AssertUnwindSafe(|| driver.tick().map(|_| ())));
        let _ = ticked_tx.send(tick.map_err(panic_message));
        drop(driver);
        let _ = dropped_tx.send(());
    });
    let tick = ticked
        .recv_timeout(WATCHDOG)
        .expect("the tick neither returned nor panicked within the watchdog");
    dropped
        .recv_timeout(WATCHDOG)
        .expect("dropping the driver did not return within the watchdog");
    helper.join().expect("the helper thread caught the tick's panic");
    match tick {
        Ok(result) => panic!("the tick did not panic; it returned {result:?}"),
        Err(message) => message,
    }
}

#[test]
fn a_panicking_udf_fails_the_tick_alike_on_both_executors() {
    let inline = panic_of_tick(|| {
        let mut d = ShardedTransducer::new(program(PROBE), probe_routing(), 2).unwrap();
        d.register_udfs(install_boom);
        d
    });
    assert_eq!(inline, UDF_PANIC, "inline shards");
    let threads = panic_of_tick(|| {
        let mut d = ParallelShardedTransducer::new(program(PROBE), probe_routing(), 2).unwrap();
        d.register_udfs(install_boom);
        d
    });
    assert_eq!(threads, UDF_PANIC, "worker-thread shards");
}

/// Start two relays whose keys sit on different shards.
fn start_relays(enqueue: &mut dyn FnMut(&str, Vec<Value>) -> u64) -> Vec<u64> {
    let (a, b) = (key_on(0, 1), key_on(1, 1));
    let (c, d) = (key_on(1, b + 1), key_on(0, a + 1));
    vec![
        enqueue("ping", [a, b, 3].map(Value::Int).to_vec()),
        enqueue("ping", [c, d, 2].map(Value::Int).to_vec()),
    ]
}

fn assert_same_run(single: &TickOutput, sharded: &TickOutput, driver: &str) {
    assert_eq!(single.responses, sharded.responses, "{driver}: responses and their ids");
    assert_eq!(single.sends, sharded.sends, "{driver}: external sends in order");
    assert_eq!(single.warnings, sharded.warnings, "{driver}: warnings");
    assert_eq!(
        single.messages_processed, sharded.messages_processed,
        "{driver}: messages processed"
    );
}

#[test]
fn run_to_quiescence_replays_a_cross_shard_cascade_like_one_node() {
    let mut single = Transducer::new(program(RELAY)).unwrap();
    let mut inline = ShardedTransducer::new(program(RELAY), relay_routing(), 2).unwrap();
    let mut threads = ParallelShardedTransducer::new(program(RELAY), relay_routing(), 2).unwrap();

    let ids = start_relays(&mut |m, row| single.enqueue(m, row).unwrap());
    assert_eq!(ids, start_relays(&mut |m, row| inline.enqueue_ok(m, row)));
    assert_eq!(ids, start_relays(&mut |m, row| threads.enqueue_ok(m, row)));

    let expected = single.run_to_quiescence(64).unwrap();
    let by_inline = inline.run_to_quiescence(64).unwrap();
    let by_threads = threads.run_to_quiescence(64).unwrap();

    assert!(single.tick_no() >= 3, "the cascade spans several ticks");
    assert_eq!(single.pending_total(), 0, "the cascade ran out within the tick budget");
    assert_eq!(
        expected.sends.iter().filter(|s| s.mailbox == "landed").count(),
        2,
        "both relays leave the program once"
    );
    assert!(
        inline.shard(0).table_len("hops") > 0 && inline.shard(1).table_len("hops") > 0,
        "the cascade crossed shards"
    );

    assert_same_run(&expected, &by_inline, "inline");
    assert_same_run(&expected, &by_threads, "threads");
    assert_eq!(inline.tick_no(), single.tick_no());
    assert_eq!(threads.tick_no(), single.tick_no());
    assert_eq!(inline.pending_total(), 0);
    assert_eq!(threads.pending_total(), 0);
    assert_eq!(single.state(), &inline.merged_state(), "inline merged state");
    assert_eq!(single.state(), &threads.merged_state(), "threads merged state");
}
