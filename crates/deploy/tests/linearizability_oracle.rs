//! The Wing–Gong linearizability checker vs. a brute-force oracle.
//!
//! A differential test: on every random tiny history
//! the memoized search in `hydro_deploy::consistency::linearizable` must
//! agree with a permutation-enumerating oracle. Also checks the two
//! session guarantees against hand-derivable facts on the same histories.

use hydro_deploy::consistency::{linearizable, monotonic_reads, read_your_writes, Op, OpKind};
use proptest::prelude::*;

/// Oracle: try every permutation of the history; accept when one respects
/// real-time precedence (op A completing before op B is invoked must come
/// first) and register semantics.
fn linearizable_oracle(history: &[Op]) -> bool {
    let n = history.len();
    let mut order: Vec<usize> = (0..n).collect();
    permute(&mut order, 0, history)
}

fn permute(order: &mut Vec<usize>, k: usize, history: &[Op]) -> bool {
    if k == order.len() {
        return check_order(order, history);
    }
    for i in k..order.len() {
        order.swap(k, i);
        if permute(order, k + 1, history) {
            order.swap(k, i);
            return true;
        }
        order.swap(k, i);
    }
    false
}

fn check_order(order: &[usize], history: &[Op]) -> bool {
    // Real-time: if a completes before b is invoked, a must precede b.
    for (pos_b, &b) in order.iter().enumerate() {
        for &a in &order[pos_b + 1..] {
            // a is ordered after b here; violation if a completed before b
            // was invoked.
            if history[a].complete < history[b].invoke {
                return false;
            }
        }
    }
    // Register semantics.
    let mut reg: Option<i64> = None;
    for &i in order {
        match history[i].kind {
            OpKind::Put(v) => reg = Some(v),
            OpKind::Get(observed) => {
                if observed != reg {
                    return false;
                }
            }
        }
    }
    true
}

/// Random history: ≤ 6 operations over ≤ 3 clients with values in a tiny
/// domain, intervals in a small time range so overlap is common.
fn arb_history() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            0u64..3,
            0u64..20,
            1u64..10,
            prop_oneof![
                (1i64..4).prop_map(OpKind::Put),
                prop_oneof![
                    Just(None),
                    (1i64..4).prop_map(Some)
                ]
                .prop_map(OpKind::Get),
            ],
        )
            .prop_map(|(client, invoke, dur, kind)| Op {
                client,
                invoke,
                complete: invoke + dur,
                kind,
            }),
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn checker_agrees_with_the_brute_force_oracle(history in arb_history()) {
        prop_assert_eq!(
            linearizable(&history),
            linearizable_oracle(&history),
            "history: {:?}",
            history
        );
    }

    #[test]
    fn single_client_sequential_histories_linearize(
        values in prop::collection::vec(1i64..100, 1..5)
    ) {
        // One client, non-overlapping put-then-get pairs with consistent
        // reads: always linearizable and session-clean.
        let mut history = Vec::new();
        let mut t = 0;
        for &v in &values {
            history.push(Op { client: 1, invoke: t, complete: t + 1, kind: OpKind::Put(v) });
            history.push(Op { client: 1, invoke: t + 2, complete: t + 3, kind: OpKind::Get(Some(v)) });
            t += 4;
        }
        prop_assert!(linearizable(&history));
        prop_assert!(read_your_writes(&history));
    }

    #[test]
    fn monotonic_reads_accepts_nondecreasing_observations(
        mut versions in prop::collection::vec(1i64..50, 1..6)
    ) {
        versions.sort_unstable();
        let history: Vec<Op> = versions
            .iter()
            .enumerate()
            .map(|(i, &v)| Op {
                client: 1,
                invoke: i as u64 * 10,
                complete: i as u64 * 10 + 1,
                kind: OpKind::Get(Some(v)),
            })
            .collect();
        prop_assert!(monotonic_reads(&history));
    }
}

#[test]
fn oracle_and_checker_agree_on_the_paper_style_anomaly() {
    // Stale read after a completed overwrite — the anomaly coordination
    // exists to prevent.
    let history = vec![
        Op { client: 1, invoke: 0, complete: 10, kind: OpKind::Put(1) },
        Op { client: 1, invoke: 40, complete: 50, kind: OpKind::Put(2) },
        Op { client: 2, invoke: 60, complete: 70, kind: OpKind::Get(Some(1)) },
    ];
    assert!(!linearizable(&history));
    assert!(!linearizable_oracle(&history));
}
