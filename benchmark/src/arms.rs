//! Differential arms of the kv traced run: the same stream of requests
//! through the bare transducer, the serial sharded driver and the
//! parallel sharded driver, at one message per tick and at 256, so that a
//! layer's cost is the difference between two stacks. Every number is a
//! median over ticks, which a compaction stall in one tick does not move.

use crate::common::{Compiled, Outcome};
use crate::gen::KvOp;
use crate::kv::{preload, preloaded_model, Kv, MAILBOX, SHARDS};
use crate::model::{line_up, KvModel, Reply, Tally};
use crate::stats::median;
use crate::sut::{Bare, Parallel, Routing, Serial, TickDriver};
use crate::trace::Tracer;
use std::time::Instant;

/// Single-message ticks per arm.
const B1_TICKS: usize = 4000;
/// 256-message ticks per arm.
const B256_TICKS: usize = 100;
const BATCH: usize = 256;
const NOOP_TICKS: usize = 200;

/// The requests every arm replays.
struct Script {
    b1: Vec<KvOp>,
    b256: Vec<KvOp>,
}

/// Medians of one stack.
struct ArmResult {
    tick_us_b1: f64,
    us_per_msg_b256: f64,
    enqueue_ns_per_op: f64,
    noop_tick_us: f64,
}

/// Replay `script` through `driver`, checking every reply against
/// `model`. `after_tick(driver, messages)` runs after each tick, outside
/// the tick's timing (the journal arm drains the journal there).
fn replay<D: TickDriver>(
    driver: &mut D,
    script: &Script,
    model: &mut KvModel,
    next_req: &mut i64,
    tally: &mut Tally,
    mut after_tick: impl FnMut(&mut D, usize),
) -> ArmResult {
    let mut replies = Vec::with_capacity(BATCH);
    let mut check = |ops: &[KvOp], base: i64, replies: &mut Vec<(u64, Reply)>, first_id: u64| {
        tally.attempted += ops.len() as u64;
        let got = line_up(replies.drain(..), first_id, ops.len());
        for (i, op) in ops.iter().enumerate() {
            let want = model.apply(*op, base + i as i64);
            tally.check("arm reply", got[i].as_ref(), &want);
        }
    };

    let mut b1 = Vec::with_capacity(script.b1.len());
    for op in &script.b1 {
        let t = Instant::now();
        let id = driver.send(MAILBOX, &[i64::from(op.op), op.key, *next_req]);
        driver.step(&mut replies);
        b1.push(t.elapsed().as_nanos() as f64 / 1e3);
        after_tick(driver, 1);
        check(std::slice::from_ref(op), *next_req, &mut replies, id);
        *next_req += 1;
    }

    let mut b256 = Vec::new();
    let mut enqueue = Vec::new();
    for batch in script.b256.chunks(BATCH) {
        let t = Instant::now();
        let mut first_id = 0;
        for (i, op) in batch.iter().enumerate() {
            let id = driver.send(MAILBOX, &[i64::from(op.op), op.key, *next_req + i as i64]);
            if i == 0 {
                first_id = id;
            }
        }
        let sent = t.elapsed();
        driver.step(&mut replies);
        b256.push(t.elapsed().as_nanos() as f64 / 1e3 / batch.len() as f64);
        enqueue.push(sent.as_nanos() as f64 / batch.len() as f64);
        after_tick(driver, batch.len());
        check(batch, *next_req, &mut replies, first_id);
        *next_req += batch.len() as i64;
    }

    let mut noop = Vec::with_capacity(NOOP_TICKS);
    for _ in 0..NOOP_TICKS {
        let t = Instant::now();
        driver.step(&mut replies);
        noop.push(t.elapsed().as_nanos() as f64 / 1e3);
    }

    ArmResult {
        tick_us_b1: median(&b1),
        us_per_msg_b256: median(&b256),
        enqueue_ns_per_op: median(&enqueue),
        noop_tick_us: median(&noop),
    }
}

pub fn kv_arms(
    compiled: &Compiled,
    routing: &Routing,
    mut warm: Serial,
    kv: &mut Kv<'_>,
    out: &mut Outcome,
) {
    // One script, drawn once from the run's stream.
    let script = Script {
        b1: (0..B1_TICKS).map(|_| kv.mix.draw(&mut kv.rng)).collect(),
        b256: (0..B256_TICKS * BATCH)
            .map(|_| kv.mix.draw(&mut kv.rng))
            .collect(),
    };
    let mut off = Tracer::new(false);
    let t_arms = Instant::now();
    let root = kv.tracer.open("arms", None);

    // Serial sharded driver: the run's own warm instance.
    let serial = replay(
        &mut warm,
        &script,
        &mut kv.model,
        &mut kv.next_req,
        &mut kv.tally,
        |_, _| {},
    );
    drop(warm);

    // Bare transducer, freshly preloaded; then the same again with the
    // journal on, drained after every tick as a replicating primary does.
    let mut bare = Bare::new(&compiled.core);
    let mut model = preloaded_model();
    let mut next_req = kv.next_req;
    preload(&mut bare, &mut kv.tally, &mut off, None);
    let plain = replay(
        &mut bare,
        &script,
        &mut model,
        &mut next_req,
        &mut kv.tally,
        |_, _| {},
    );

    bare.set_journaling(true);
    let mut drain_us = Vec::new();
    let mut rows = 0usize;
    let tracer = &mut *kv.tracer;
    let journaled = replay(
        &mut bare,
        &script,
        &mut model,
        &mut next_req,
        &mut kv.tally,
        |b, n| {
            let t = Instant::now();
            let drained = b.take_journal_rows();
            if n == BATCH {
                let dt = t.elapsed();
                tracer.leaf("take_journal_delta", root, t, dt, (0, n as u64));
                drain_us.push(dt.as_nanos() as f64 / 1e3);
                rows += drained;
            }
        },
    );
    out.put(
        "interp.journal_tick_share",
        1.0 - plain.us_per_msg_b256 / journaled.us_per_msg_b256,
    );
    out.put("interp.journal_delta_us", median(&drain_us));
    out.put(
        "interp.journal_rows_per_tick",
        rows as f64 / drain_us.len().max(1) as f64,
    );

    let mut checkpoint_us = Vec::new();
    let mut restore_us = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let image = bare.checkpoint();
        let dt = t.elapsed();
        kv.tracer.leaf("checkpoint", root, t, dt, (0, 0));
        checkpoint_us.push(dt.as_nanos() as f64 / 1e3);
        let t = Instant::now();
        let restored = Bare::restore(&compiled.core, &image);
        let dt = t.elapsed();
        kv.tracer.leaf("Transducer::restore", root, t, dt, (0, 0));
        restore_us.push(dt.as_nanos() as f64 / 1e3);
        if restored.table_len(crate::kv::TABLE) != model.len() {
            out.violations.push("restored instance lost rows".into());
        }
    }
    out.put("interp.checkpoint_us", median(&checkpoint_us));
    out.put("interp.restore_us", median(&restore_us));
    drop(bare);

    // Parallel sharded driver, freshly preloaded. With fewer cores than
    // shards the workers share a core and the ratio says nothing about
    // scaling; `nproc` is printed next to it.
    let mut parallel = Parallel::new(&compiled.core, routing, SHARDS);
    let mut model = preloaded_model();
    let mut next_req = kv.next_req;
    preload(&mut parallel, &mut kv.tally, &mut off, None);
    let par = replay(
        &mut parallel,
        &script,
        &mut model,
        &mut next_req,
        &mut kv.tally,
        |_, _| {},
    );
    drop(parallel);

    out.put("interp.enqueue_ns_per_op", plain.enqueue_ns_per_op);
    out.put("interp.tick_us_b1", plain.tick_us_b1);
    out.put("interp.us_per_msg_b256", plain.us_per_msg_b256);
    out.put("interp.noop_tick_us", plain.noop_tick_us);
    out.put("shard.serial_tick_us_b1", serial.tick_us_b1);
    out.put("shard.serial_us_per_msg_b256", serial.us_per_msg_b256);
    out.put(
        "shard.serial_overhead_share",
        1.0 - plain.us_per_msg_b256 / serial.us_per_msg_b256,
    );
    out.put("shard.parallel_tick_us_b1", par.tick_us_b1);
    out.put("shard.parallel_us_per_msg_b256", par.us_per_msg_b256);
    out.put(
        "shard.parallel_speedup_b256",
        serial.us_per_msg_b256 / par.us_per_msg_b256,
    );
    kv.tracer.close(root, t_arms, t_arms.elapsed(), (0, 0));
}
