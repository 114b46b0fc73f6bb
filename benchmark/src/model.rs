//! In-process oracles: what each reply must be.

use crate::gen::{KvOp, OP_CLOSE, OP_UPSERT};
use std::collections::HashMap;

/// A handler reply, in the benchmark's own terms (the adapter converts
/// the repository's value type into this).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    Ok,
    Miss,
    Int(i64),
    /// A set of whole numbers, ascending.
    Set(Vec<i64>),
    /// Anything else (an error or overload reply), rendered for the log.
    Other(String),
}

/// Replies to `n` messages whose ids run on from `first_id`, by message.
pub fn line_up(
    replies: impl Iterator<Item = (u64, Reply)>,
    first_id: u64,
    n: usize,
) -> Vec<Option<Reply>> {
    let mut got = vec![None; n];
    for (id, reply) in replies {
        if let Some(slot) = got.get_mut(id.wrapping_sub(first_id) as usize) {
            *slot = Some(reply);
        }
    }
    got
}

/// The account store as a map, applied in arrival order. Valid for any
/// batching because `req` is a single serialized entry handler: within a
/// tick, execution order equals arrival order per key.
#[derive(Clone, Debug, Default)]
pub struct KvModel {
    map: HashMap<i64, i64>,
}

impl KvModel {
    /// Apply one operation and return the reply the program must give.
    pub fn apply(&mut self, op: KvOp, val: i64) -> Reply {
        match op.op {
            OP_UPSERT => {
                self.map.insert(op.key, val);
                Reply::Ok
            }
            OP_CLOSE => {
                self.map.remove(&op.key);
                Reply::Ok
            }
            _ => self
                .map
                .get(&op.key)
                .map_or(Reply::Miss, |v| Reply::Int(*v)),
        }
    }

    pub fn get(&self, key: i64) -> Option<i64> {
        self.map.get(&key).copied()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }
}

/// Failure accounting over all phases of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub replied: u64,
    pub rejected: u64,
    pub wrong: u64,
    pub unanswered: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.rejected + self.wrong + self.unanswered
    }

    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// Compare one reply with its expectation, logging the first few
    /// mismatches.
    pub fn check(&mut self, what: &str, got: Option<&Reply>, want: &Reply) {
        match got {
            Some(r) if r == want => self.replied += 1,
            Some(r) => {
                self.replied += 1;
                self.wrong += 1;
                if self.wrong <= 5 {
                    eprintln!("WRONG {what}: got {r:?}, want {want:?}");
                }
            }
            None => {
                self.unanswered += 1;
                if self.unanswered <= 5 {
                    eprintln!("UNANSWERED {what}: want {want:?}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::OP_READ;

    #[test]
    fn twenty_op_script() {
        let u = |key| KvOp { op: OP_UPSERT, key };
        let c = |key| KvOp { op: OP_CLOSE, key };
        let r = |key| KvOp { op: OP_READ, key };
        let script: Vec<(KvOp, i64, Reply)> = vec![
            (r(1), 0, Reply::Miss),
            (u(1), 10, Reply::Ok),
            (r(1), 0, Reply::Int(10)),
            (u(2), 20, Reply::Ok),
            (u(1), 11, Reply::Ok),
            (r(1), 0, Reply::Int(11)),
            (r(2), 0, Reply::Int(20)),
            (c(1), 0, Reply::Ok),
            (r(1), 0, Reply::Miss),
            (c(1), 0, Reply::Ok),
            (c(3), 0, Reply::Ok),
            (r(3), 0, Reply::Miss),
            (u(3), -5, Reply::Ok),
            (r(3), 0, Reply::Int(-5)),
            (u(1), 12, Reply::Ok),
            (r(1), 0, Reply::Int(12)),
            (c(2), 0, Reply::Ok),
            (r(2), 0, Reply::Miss),
            (u(2), 21, Reply::Ok),
            (r(2), 0, Reply::Int(21)),
        ];
        assert_eq!(script.len(), 20);
        let mut m = KvModel::default();
        for (i, (op, val, want)) in script.into_iter().enumerate() {
            assert_eq!(m.apply(op, val), want, "op {i}");
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(3), Some(-5));
    }

    #[test]
    fn tally_counts_each_kind_of_failure() {
        let mut t = Tally {
            attempted: 4,
            rejected: 1,
            ..Tally::default()
        };
        t.check("a", Some(&Reply::Ok), &Reply::Ok);
        t.check("b", Some(&Reply::Miss), &Reply::Ok);
        t.check("c", None, &Reply::Ok);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                replied: 2,
                rejected: 1,
                wrong: 1,
                unanswered: 1
            }
        );
        assert_eq!(t.failed(), 3);
        assert_eq!(t.failed_share(), 0.75);
    }
}
