//! Golden deployments: what the simulated cluster *does*, pinned as
//! numbers.
//!
//! Two seeded runs on `hydro_net::Sim`:
//! * `deploy` of the Fig. 3 program (`examples/covid.hydro`): three
//!   AZ-independent replicas behind the fan-out proxy, with `vaccinate`
//!   ordered through the sequencer;
//! * `deploy_sharded` of an account store over two replicated shards. The
//!   primary of shard 1 is killed halfway through the script, so the
//!   router retries, promotes the backup, and the backup replays its
//!   recovery log and serves.
//!
//! Each run folds into three FNV-1a digests (encoding in `digest/mod.rs`):
//! * *replies*: each request's id, submit time, reply and virtual reply
//!   time, in request-id order;
//! * *network*: the simulator's `NetStats` counters;
//! * *router*: the router's fault-handling counters (the proxy of `deploy`
//!   keeps none, so that run pins two digests).
//!
//! The simulator is single-threaded and seeded, so the digests are exact.
//! A change that moves one has changed which events the cluster runs or
//! when; it must say which digest moved and why.

mod digest;

use digest::{Fnv, Rng};
use hydro::deploy::node::ProxyLedger;
use hydro::deploy::{deploy, deploy_sharded, DeployConfig, RouterStatus};
use hydro::lang::parse_program;
use hydro::logic::interp::Transducer;
use hydro::logic::value::Value;
use hydro::net::NetStats;

/// An account store in the shape of a serialized multiplexer over one
/// key-partitioned table: `op` 0 upserts, 1 closes, anything else reads.
const ACCOUNTS: &str = r#"
table accounts(id, bal, key=id, partition=id)

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
"#;

fn ints(xs: &[i64]) -> Vec<Value> {
    xs.iter().copied().map(Value::Int).collect()
}

/// Each request in id order: id, submit time, and the reply with its
/// virtual time (or its absence).
fn replies_digest(ledger: &ProxyLedger, submitted: u64) -> u64 {
    let ledger = ledger.borrow();
    let mut h = Fnv::new();
    for id in 0..submitted {
        h.u64(id);
        match ledger.get(&id) {
            None => h.bytes(&[0]),
            Some((t0, None)) => {
                h.bytes(&[1]);
                h.u64(*t0);
            }
            Some((t0, Some((t1, v)))) => {
                h.bytes(&[2]);
                h.u64(*t0);
                h.u64(*t1);
                h.value(v);
            }
        }
    }
    h.0
}

fn network_digest(s: NetStats) -> u64 {
    let mut h = Fnv::new();
    for n in [
        s.sent,
        s.delivered,
        s.dropped,
        s.dropped_by_loss,
        s.dropped_by_partition,
        s.dropped_by_dead,
        s.timers_fired,
    ] {
        h.u64(n);
    }
    h.0
}

fn router_digest(status: &RouterStatus) -> u64 {
    let s = status.borrow();
    let mut h = Fnv::new();
    h.u64(s.promoted_at.len() as u64);
    for at in &s.promoted_at {
        match at {
            Some(t) => {
                h.bytes(&[1]);
                h.u64(*t);
            }
            None => h.bytes(&[0]),
        }
    }
    for n in [s.shed, s.shed_queue_full, s.retries, s.gave_up] {
        h.u64(n);
    }
    h.0
}

/// Print the digests first, so a deliberate change can be re-pinned from
/// the output, then compare.
fn assert_pinned(run: &str, got: &[(&str, u64)], want: &[u64]) {
    for (part, d) in got {
        println!("{run} {part}: {d:#018x}");
    }
    for ((part, d), w) in got.iter().zip(want) {
        assert_eq!(d, w, "{run}: the {part} digest moved");
    }
}

#[test]
fn covid_deployment_matches_its_golden_digests() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/covid.hydro"
    ))
    .expect("examples/covid.hydro readable");
    let program = parse_program(&text).expect("Fig. 3 parses");
    let config = DeployConfig {
        seed: 5,
        ..DeployConfig::default()
    };
    let mut d = deploy(&program, config, |t: &mut Transducer| {
        t.register_udf("covid_predict", |args| Value::Int(args.len() as i64));
    });

    // People arrive three at a time and link to recent arrivals; some
    // fall ill, some are traced, scored or vaccinated. Each batch gets
    // 8 ms of virtual time, so requests overlap the replicas' ticks.
    let mut rng = Rng(17);
    let mut next = 1i64;
    for _ in 0..24 {
        for _ in 0..3 {
            d.client_request("add_person", ints(&[next]));
            next += 1;
        }
        let recent: Vec<i64> = ((next - 6).max(1)..next).collect();
        for _ in 0..2 {
            let a = rng.pick(&recent).expect("someone arrived");
            let b = rng.pick(&recent).expect("someone arrived");
            d.client_request("add_contact", ints(&[a, b]));
        }
        let who = rng.below(next as u64 - 1) as i64 + 1;
        let op = ["trace", "diagnosed", "likelihood", "vaccinate"][rng.below(4) as usize];
        d.client_request(op, ints(&[who]));
        d.run_for(8_000);
    }
    d.run_for(300_000);

    assert_eq!(d.answered(), d.submitted(), "every request answered");
    assert!(d.replicas_converged());
    assert_pinned(
        "covid",
        &[
            ("replies", replies_digest(&d.ledger, d.submitted() as u64)),
            ("network", network_digest(d.sim.stats())),
        ],
        &[0x0c2e_bd1f_652c_8a10, 0x2e55_3bcc_24b2_27a2],
    );
}

#[test]
fn failover_deployment_matches_its_golden_digests() {
    let program = parse_program(ACCOUNTS).expect("accounts parses");
    let config = DeployConfig {
        seed: 3,
        replicate_shards: true,
        ..DeployConfig::default()
    };
    let mut d = deploy_sharded(&program, config, 2, |_| {});

    // 300 requests, one every virtual millisecond over 40 keys: half
    // upserts, a fifth closes, the rest reads. The primary of shard 1
    // dies at the middle request; the run then drains.
    let mut rng = Rng(29);
    let count = 300u64;
    for i in 0..count {
        let k = rng.below(40) as i64;
        let row = match rng.below(10) {
            0..=4 => ints(&[0, k, rng.below(1_000) as i64]),
            5 | 6 => ints(&[1, k, 0]),
            _ => ints(&[2, k, 0]),
        };
        d.client_request_at("req", row, 1_000 * (i + 1));
    }
    d.sim.run_until(1_000 * (count / 2));
    d.sim.kill(d.shards[1]);
    d.sim.run_until(1_000 * count + 1_000_000);

    assert!(d.promoted_at(1).is_some(), "the backup took shard 1 over");
    assert_eq!(d.answered(), count as usize, "every request answered");
    assert_pinned(
        "failover",
        &[
            ("replies", replies_digest(&d.ledger, count)),
            ("network", network_digest(d.sim.stats())),
            ("router", router_digest(&d.status)),
        ],
        &[
            0x46d5_2611_25cb_0d2d,
            0x0766_92ca_5487_33ea,
            0x7a93_c62e_ea53_65dc,
        ],
    );
}
