//! Handler bodies: compiled once per program into slot-resolved
//! statements, and executed per message against the tick's [`Snapshot`],
//! recording effects and sends instead of writing state.

use super::txn::{Effect, EffectGroup};
use super::{Response, SendOut, TickOutput, Transducer, TransducerError};
use crate::ast::{response_mailbox, AssignTarget, Handler, MergeTarget, Stmt, Trigger};
use crate::eval::{
    eval_cexpr, eval_cselect, CExpr, CSelect, Database, Frame, Row, ScanCache, SlotCompiler,
};
use crate::facets::Invariant;
use crate::value::Value;
use rustc_hash::FxHashMap;

/// Slot-compiled mirror of [`MergeTarget`].
pub(super) enum CMergeTarget {
    /// Merge into a lattice scalar.
    Scalar(String),
    /// Merge into a lattice column of the row keyed by `key`.
    TableField {
        /// Table name.
        table: String,
        /// Key expression.
        key: CExpr,
        /// Column name (resolved per execution, like the reference — an
        /// unknown column only errors if the statement runs).
        field: String,
    },
}

/// Slot-compiled mirror of [`AssignTarget`].
pub(super) enum CAssignTarget {
    /// Assign a bare scalar.
    Scalar(String),
    /// Overwrite a column of the row keyed by `key`.
    TableField {
        /// Table name.
        table: String,
        /// Key expression.
        key: CExpr,
        /// Column name.
        field: String,
    },
}

/// Slot-compiled mirror of [`Stmt`]: every variable reference resolves
/// through the handler's frame; names survive only where resolution is
/// deliberately dynamic (tables, columns, scalars, mailboxes, UDFs).
pub(super) enum CStmt {
    /// Deferred lattice merge.
    Merge(CMergeTarget, CExpr),
    /// Deferred assignment.
    Assign(CAssignTarget, CExpr),
    /// Deferred row insert.
    Insert {
        /// Table name.
        table: String,
        /// Row expressions.
        values: Vec<CExpr>,
    },
    /// Deferred row delete.
    Delete {
        /// Table name.
        table: String,
        /// Key expression.
        key: CExpr,
    },
    /// Asynchronous send of each projected row.
    Send {
        /// Destination mailbox.
        mailbox: String,
        /// Rows to send.
        select: CSelect,
    },
    /// Respond to the message being handled.
    Return(CExpr),
    /// Conditional execution.
    If {
        /// Condition.
        cond: CExpr,
        /// Statements when true.
        then: Vec<CStmt>,
        /// Statements when false.
        els: Vec<CStmt>,
    },
    /// Execute statements once per comprehension match. The select's
    /// projection is the comprehension's bindable variables (matching the
    /// reference's `collect_bound_vars` projection exactly); each match
    /// row is spread into `vars` slots — saving priors, restoring after —
    /// instead of cloning a bindings map per match.
    ForEach {
        /// Comprehension whose projection is `vars`.
        select: CSelect,
        /// Slots the projection binds, positionally.
        vars: Vec<u32>,
        /// Statements run under each binding.
        stmts: Vec<CStmt>,
    },
    /// Clear a declared mailbox at end-of-tick.
    ClearMailbox(String),
}

/// A handler compiled once at [`Transducer::new`]: body statements with
/// every variable resolved to a dense slot of one per-invocation frame.
/// Executing a message costs indexed slot stores (params, `__msg_id`) and
/// zero string hashing on the statement/select hot path.
pub(super) struct CompiledHandler {
    /// Slot → variable name (for `UnboundVar` rendering; its length is the
    /// frame size).
    pub(super) names: Vec<String>,
    /// One slot per handler parameter, positionally.
    pub(super) param_slots: Vec<u32>,
    /// Slot of the implicit `__msg_id` binding.
    pub(super) msg_id_slot: u32,
    /// Compiled condition (condition-triggered handlers only).
    pub(super) cond: Option<CExpr>,
    /// Compiled body.
    pub(super) body: Vec<CStmt>,
    /// Per invariant: the slot of its key parameter, if the name resolves
    /// (`HasKey` invariants; `None` reads as `Null`, like the reference's
    /// missing-binding lookup).
    inv_key_slots: Vec<Option<u32>>,
}

impl CompiledHandler {
    pub(super) fn compile(handler: &Handler, invariants: &[Invariant]) -> Self {
        let mut sc = SlotCompiler::new();
        let param_slots: Vec<u32> = handler.params.iter().map(|p| sc.slot(p)).collect();
        let msg_id_slot = sc.slot("__msg_id");
        // Message handlers enter their body with params + `__msg_id`
        // bound; condition handlers enter with nothing bound (their
        // condition and body read only the snapshot), exactly like the
        // reference's empty bindings map.
        let cond = match &handler.trigger {
            Trigger::OnMessage => {
                for &s in &param_slots {
                    sc.mark_bound(s);
                }
                sc.mark_bound(msg_id_slot);
                None
            }
            Trigger::OnCondition(c) => Some(sc.compile_expr(c)),
        };
        let body = compile_stmts(&handler.body, &mut sc);
        let inv_key_slots = invariants
            .iter()
            .map(|inv| match inv {
                Invariant::HasKey { key_param, .. } => sc.lookup(key_param),
                _ => None,
            })
            .collect();
        CompiledHandler {
            param_slots,
            msg_id_slot,
            cond,
            body,
            inv_key_slots,
            names: sc.into_names(),
        }
    }

    /// Capture the invariant parameter values for a new effect group.
    pub(super) fn capture_inv_keys(&self, frame: &Frame) -> Vec<Value> {
        self.inv_key_slots
            .iter()
            .map(|s| match s {
                Some(s) => frame.get(*s).cloned().unwrap_or(Value::Null),
                None => Value::Null,
            })
            .collect()
    }
}

/// Compile a statement list against the current boundness scope.
fn compile_stmts(stmts: &[Stmt], sc: &mut SlotCompiler) -> Vec<CStmt> {
    stmts
        .iter()
        .map(|stmt| match stmt {
            Stmt::Merge(target, expr) => {
                let value = sc.compile_expr(expr);
                let target = match target {
                    MergeTarget::Scalar(name) => CMergeTarget::Scalar(name.clone()),
                    MergeTarget::TableField { table, key, field } => CMergeTarget::TableField {
                        table: table.clone(),
                        key: sc.compile_expr(key),
                        field: field.clone(),
                    },
                };
                CStmt::Merge(target, value)
            }
            Stmt::Assign(target, expr) => {
                let value = sc.compile_expr(expr);
                let target = match target {
                    AssignTarget::Scalar(name) => CAssignTarget::Scalar(name.clone()),
                    AssignTarget::TableField { table, key, field } => CAssignTarget::TableField {
                        table: table.clone(),
                        key: sc.compile_expr(key),
                        field: field.clone(),
                    },
                };
                CStmt::Assign(target, value)
            }
            Stmt::Insert { table, values } => CStmt::Insert {
                table: table.clone(),
                values: values.iter().map(|e| sc.compile_expr(e)).collect(),
            },
            Stmt::Delete { table, key } => CStmt::Delete {
                table: table.clone(),
                key: sc.compile_expr(key),
            },
            Stmt::Send { mailbox, select } => {
                let (cselect, introduced) = sc.compile_select(select);
                sc.unmark(&introduced);
                CStmt::Send {
                    mailbox: mailbox.clone(),
                    select: cselect,
                }
            }
            Stmt::Return(expr) => CStmt::Return(sc.compile_expr(expr)),
            Stmt::If { cond, then, els } => CStmt::If {
                cond: sc.compile_expr(cond),
                then: compile_stmts(then, sc),
                els: compile_stmts(els, sc),
            },
            Stmt::ForEach { select, stmts } => {
                // Compile the body first (allocating/binding its slots),
                // then project every bindable variable of the body — the
                // same set, in the same order, as the reference's
                // `collect_bound_vars` projection.
                let (cbody, introduced) = sc.compile_body(&select.body);
                let mut vars: Vec<String> = Vec::new();
                collect_bound_vars(&select.body, &mut vars);
                let var_slots: Vec<u32> = vars.iter().map(|v| sc.slot(v)).collect();
                let projection: Vec<CExpr> =
                    var_slots.iter().map(|&s| CExpr::Var(s)).collect();
                // Nested statements run under the select's scope (base
                // bindings plus everything the body introduced); the
                // scope closes after them.
                let stmts = compile_stmts(stmts, sc);
                sc.unmark(&introduced);
                CStmt::ForEach {
                    select: CSelect {
                        body: cbody,
                        projection,
                    },
                    vars: var_slots,
                    stmts,
                }
            }
            Stmt::ClearMailbox(name) => CStmt::ClearMailbox(name.clone()),
        })
        .collect()
}

/// What a tick's handlers read: the tick-start database with every view,
/// the scalar and table-key snapshots (a serialized message substitutes
/// the [`TickMirror`]'s), and the scan indexes over `db`. `db` is borrowed
/// immutably for the whole handler phase — commits go to [`State`] and the
/// mirror, never to `db` — so `cache` cannot go stale while it is lent.
pub(super) struct Snapshot<'a> {
    pub(super) db: &'a Database,
    pub(super) scalars: &'a FxHashMap<String, Value>,
    pub(super) key_index: &'a FxHashMap<String, FxHashMap<Row, Row>>,
    pub(super) cache: &'a mut ScanCache,
}

impl Transducer {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn exec_stmts(
        &mut self,
        stmts: &[CStmt],
        names: &[String],
        frame: &mut Frame,
        snap: &mut Snapshot<'_>,
        group: &mut EffectGroup<'_>,
        out: &mut TickOutput,
        handler: &Handler,
        msg_id: Option<u64>,
    ) -> Result<(), TransducerError> {
        for stmt in stmts {
            match stmt {
                CStmt::Merge(target, expr) => {
                    let value = self.eval(expr, names, frame, snap)?;
                    match target {
                        CMergeTarget::Scalar(name) => {
                            group.effects.push(Effect::MergeScalar(name.clone(), value));
                        }
                        CMergeTarget::TableField { table, key, field } => {
                            let (key, col) =
                                self.resolve_field(table, key, field, names, frame, snap)?;
                            group.effects.push(Effect::MergeField {
                                table: table.clone(),
                                key,
                                col,
                                value,
                            });
                        }
                    }
                }
                CStmt::Assign(target, expr) => {
                    let value = self.eval(expr, names, frame, snap)?;
                    match target {
                        CAssignTarget::Scalar(name) => {
                            group
                                .effects
                                .push(Effect::AssignScalar(name.clone(), value));
                        }
                        CAssignTarget::TableField { table, key, field } => {
                            let (key, col) =
                                self.resolve_field(table, key, field, names, frame, snap)?;
                            group.effects.push(Effect::AssignField {
                                table: table.clone(),
                                key,
                                col,
                                value,
                            });
                        }
                    }
                }
                CStmt::Insert { table, values } => {
                    let expected = self
                        .core
                        .program
                        .table(table)
                        .ok_or_else(|| TransducerError::Unknown(table.clone()))?
                        .arity();
                    if values.len() != expected {
                        return Err(TransducerError::InsertArity {
                            table: table.clone(),
                            given: values.len(),
                            expected,
                        });
                    }
                    let row: Row = values
                        .iter()
                        .map(|e| self.eval(e, names, frame, snap))
                        .collect::<Result<_, _>>()?;
                    group.effects.push(Effect::InsertRow {
                        table: table.clone(),
                        row,
                    });
                }
                CStmt::Delete { table, key } => {
                    let k = self.eval(key, names, frame, snap)?;
                    let key_row = key_row_of(k);
                    group.effects.push(Effect::DeleteRow {
                        table: table.clone(),
                        key: key_row,
                    });
                }
                CStmt::Send { mailbox, select } => {
                    let rows = self.eval_select_rows(select, names, frame, snap)?;
                    for row in rows {
                        out.sends.push(SendOut {
                            mailbox: mailbox.clone(),
                            row,
                            handler: handler.name.clone(),
                            source_msg: msg_id.unwrap_or(0),
                        });
                    }
                }
                CStmt::Return(expr) => {
                    let value = self.eval(expr, names, frame, snap)?;
                    if let Some(id) = msg_id {
                        out.responses.push(Response {
                            handler: handler.name.clone(),
                            message_id: id,
                            value: value.clone(),
                        });
                        out.sends.push(SendOut {
                            mailbox: response_mailbox(&handler.name),
                            row: vec![Value::Int(id as i64), value],
                            handler: handler.name.clone(),
                            source_msg: id,
                        });
                    }
                }
                CStmt::If { cond, then, els } => {
                    let c = self
                        .eval(cond, names, frame, snap)?
                        .as_bool()
                        .unwrap_or(false);
                    let branch = if c { then } else { els };
                    self.exec_stmts(branch, names, frame, snap, group, out, handler, msg_id)?;
                }
                CStmt::ForEach { select, vars, stmts } => {
                    // Evaluate the comprehension (its projection is the
                    // bindable variables), then run the nested statements
                    // once per match, spreading each row into the slots via
                    // the frame's value-preserving save stack — priors are
                    // restored by mark/truncate, so the enclosing scope
                    // (and the next match) is undisturbed and no per-match
                    // `Vec` is allocated. The matches are fully
                    // materialized *before* any nested statement runs,
                    // preserving the reference's effect and UDF ordering.
                    let rows = self.eval_select_rows(select, names, frame, snap)?;
                    for row in rows {
                        let mark = frame.save_mark();
                        for (&s, v) in vars.iter().zip(row) {
                            frame.save_replace(s, Some(v));
                        }
                        let run =
                            self.exec_stmts(stmts, names, frame, snap, group, out, handler, msg_id);
                        frame.restore_saved(mark);
                        run?;
                    }
                }
                CStmt::ClearMailbox(name) => {
                    group.effects.push(Effect::ClearMailbox(name.clone()));
                }
            }
        }
        Ok(())
    }

    /// The evaluation context of one handler expression: the snapshot with
    /// its scan indexes, and this instance's program and UDFs.
    fn ctx<'a>(&'a mut self, snap: &'a mut Snapshot<'_>) -> crate::eval::EvalCtx<'a> {
        crate::eval::EvalCtx {
            program: &self.core.program,
            db: snap.db,
            scalars: snap.scalars,
            key_index: snap.key_index,
            udfs: &mut self.udfs,
            scan_cache: snap.cache,
        }
    }

    pub(super) fn eval(
        &mut self,
        expr: &CExpr,
        names: &[String],
        frame: &mut Frame,
        snap: &mut Snapshot<'_>,
    ) -> Result<Value, TransducerError> {
        Ok(eval_cexpr(expr, frame, names, &mut self.ctx(snap))?)
    }

    fn eval_select_rows(
        &mut self,
        select: &CSelect,
        names: &[String],
        frame: &mut Frame,
        snap: &mut Snapshot<'_>,
    ) -> Result<Vec<Row>, TransducerError> {
        Ok(eval_cselect(select, frame, names, &mut self.ctx(snap))?)
    }

    /// Resolve a `table[key].field` target to (key row, column index).
    fn resolve_field(
        &mut self,
        table: &str,
        key: &CExpr,
        field: &str,
        names: &[String],
        frame: &mut Frame,
        snap: &mut Snapshot<'_>,
    ) -> Result<(Row, usize), TransducerError> {
        let decl = self.core.program
            .table(table)
            .ok_or_else(|| TransducerError::Unknown(table.to_string()))?;
        let col = decl
            .column_index(field)
            .ok_or_else(|| TransducerError::Unknown(format!("{table}.{field}")))?;
        // Key columns are the row's identity: rewriting one in place would
        // detach the stored row from its key, making every keyed read
        // ambiguous. Enforced here so the invariant "storage key ==
        // key_of(row)" holds for all evaluation engines.
        if decl.key.contains(&col) {
            return Err(TransducerError::KeyColumn {
                table: table.to_string(),
                column: field.to_string(),
            });
        }
        let k = self.eval(key, names, frame, snap)?;
        Ok((key_row_of(k), col))
    }
}

/// Normalize a key expression value into a key row: tuples spread into
/// multi-column keys, anything else is a single-column key.
pub(super) fn key_row_of(v: Value) -> Row {
    match v {
        Value::Tuple(parts) => parts,
        single => vec![single],
    }
}

fn collect_bound_vars(body: &[crate::ast::BodyAtom], vars: &mut Vec<String>) {
    use crate::ast::{BodyAtom, Term};
    for atom in body {
        match atom {
            BodyAtom::Scan { terms, .. } => {
                for t in terms {
                    if let Term::Var(v) = t {
                        if !vars.contains(v) {
                            vars.push(v.clone());
                        }
                    }
                }
            }
            BodyAtom::Let { var, .. } | BodyAtom::Flatten { var, .. } => {
                if !vars.contains(var) {
                    vars.push(var.clone());
                }
            }
            BodyAtom::Neg { .. } | BodyAtom::Guard(_) => {}
        }
    }
}
