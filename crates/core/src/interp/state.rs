//! What an instance holds and what its instances share: [`State`] (tables
//! and scalars), the serialized handlers' persistent [`TickMirror`], and
//! the immutable [`ProgramCore`].

use super::handler::CompiledHandler;
use super::TransducerError;
use crate::ast::{Handler, Program};
use crate::eval::{ProgramPlan, Row};
use crate::value::Value;
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Mutable program state: keyed tables and scalars.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct State {
    /// Table name → key → row. `BTreeMap` gives deterministic iteration.
    pub tables: BTreeMap<String, BTreeMap<Row, Row>>,
    /// Scalar name → value.
    pub scalars: BTreeMap<String, Value>,
}

/// Hash-map mirrors of the parts of [`State`] that *serialized* handlers
/// read mid-tick (table key indexes and scalars). Built at most once per
/// **transducer** — on the first serialized message, by cloning the
/// tick-start snapshot — then kept on [`Transducer::serial_mirror`] and
/// maintained incrementally as each effect commits (serialized *and*
/// deferred), instead of re-snapshotting the whole state per tick. The
/// one-time clone costs O(resident state); every subsequent tick pays
/// only O(effects), which is what lets serialized handlers serve
/// million-key tables at micro-batch granularity.
#[derive(Clone, Default)]
pub(super) struct TickMirror {
    pub(super) key_index: FxHashMap<String, FxHashMap<Row, Row>>,
    pub(super) scalars: FxHashMap<String, Value>,
}

impl TickMirror {
    /// Re-mirror one table row (or its absence) after an effect landed.
    pub(super) fn refresh_row(&mut self, state: &State, table: &str, key: &Row) {
        let slot = self.key_index.entry(table.to_string()).or_default();
        match state.tables.get(table).and_then(|t| t.get(key)) {
            Some(row) => {
                slot.insert(key.clone(), row.clone());
            }
            None => {
                slot.remove(key);
            }
        }
    }
}

/// The immutable, plan-time half of a transducer: the validated program,
/// its slot-compiled handlers, and the compiled evaluation plan. Built
/// once, shared behind an `Arc` by every instance that interprets the
/// same program — replicas, shards, differential twins (see the module
/// docs). Contains no mutable state, so sharing is free and thread-safe.
pub struct ProgramCore {
    pub(super) program: Program,
    /// Handler bodies paired with their resolved consistency facets and
    /// their slot-compiled form (a tick borrows these off the `Arc`
    /// while holding `&mut` to the instance state).
    pub(super) handlers: Vec<(Handler, crate::facets::ConsistencyReq, CompiledHandler)>,
    /// The compiled evaluation plan every instance's [`EvalState`] runs
    /// against.
    pub(super) plan: Arc<ProgramPlan>,
}

impl ProgramCore {
    /// Validate and compile a program: stratification, SCC evaluation
    /// units, handler slot compilation. Unstratifiable programs are
    /// rejected here, so instantiation is infallible.
    pub fn new(program: Program) -> Result<Arc<Self>, TransducerError> {
        let plan = Arc::new(ProgramPlan::compile(&program)?);
        let handlers = program
            .handlers
            .iter()
            .map(|h| {
                let consistency = program.consistency_of(&h.name).clone();
                let compiled = CompiledHandler::compile(h, &consistency.invariants);
                (h.clone(), consistency, compiled)
            })
            .collect();
        Ok(Arc::new(ProgramCore {
            program,
            handlers,
            plan,
        }))
    }

    /// The program this core was compiled from.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Whether `name` is a mailbox of this program (a handler's implicit
    /// mailbox or a declared handler-less one).
    pub fn has_mailbox(&self, name: &str) -> bool {
        self.program.handler(name).is_some()
            || self.program.mailboxes.iter().any(|m| m.name == name)
    }

    /// Admit a message at the boundary: the mailbox must exist and the row
    /// must have its arity. Every scan of a mailbox relation assumes rows
    /// of one length (it checks the first row only), so a wrong-length row
    /// must never reach a queue.
    pub(crate) fn admit(&self, mailbox: &str, row: &Row) -> Result<(), TransducerError> {
        let expected = match self.program.handler(mailbox) {
            Some(h) => h.params.len(),
            None => {
                let decl = self.program.mailboxes.iter().find(|m| m.name == mailbox);
                decl.ok_or_else(|| TransducerError::NoSuchMailbox(mailbox.to_string()))?
                    .arity
            }
        };
        if row.len() != expected {
            return Err(TransducerError::MessageArity {
                mailbox: mailbox.to_string(),
                given: row.len(),
                expected,
            });
        }
        Ok(())
    }

    /// The static reorder-safety report computed when this core's plan
    /// was compiled (see [`crate::reorder`]).
    pub fn reorder(&self) -> &crate::reorder::ReorderReport {
        self.plan.reorder()
    }

    /// Whether plain rule `index` (into `Program::rules`) is proven
    /// reorder-safe — the per-rule license for join reordering, sideways
    /// information passing, and counting maintenance (see the module docs
    /// of [`crate::eval`]).
    pub fn rule_reorder_safe(&self, index: usize) -> bool {
        self.plan.rule_reorder_safe(index)
    }

    /// Whether aggregation rule `index` (into `Program::agg_rules`) is
    /// proven reorder-safe.
    pub fn agg_reorder_safe(&self, index: usize) -> bool {
        self.plan.agg_reorder_safe(index)
    }
}
