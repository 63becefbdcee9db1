//! The schedule state: a program plus primitives that rewrite it.
//!
//! Unlike schedule-tree compilers, every primitive here is an independent
//! TensorIR → TensorIR transformation (§3.2 "Separation of Scheduling and
//! TensorIR"): the [`Schedule`] merely holds the current `PrimFunc`, a
//! trace of applied primitives, and lookup helpers. Blocks are addressed by
//! name and loops by the identity of their loop variable, both of which are
//! stable across rewrites that do not touch them.

use std::fmt;

use tir::{BlockRealize, For, ForKind, PrimFunc, Stmt, Var};

use crate::trace::{Trace, TraceStep};

/// A reference to a block, by (unique) name.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct BlockRef(pub(crate) String);

impl BlockRef {
    /// The referenced block's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

/// A reference to a loop, by loop-variable identity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LoopRef(pub(crate) Var);

impl LoopRef {
    /// The loop variable identifying this loop.
    pub fn var(&self) -> &Var {
        &self.0
    }
}

/// Information about one loop in a block's surrounding nest.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// The loop variable.
    pub var: Var,
    /// Constant extent.
    pub extent: i64,
    /// Loop kind.
    pub kind: ForKind,
}

/// A scheduling failure.
#[derive(Clone, Debug)]
pub enum ScheduleError {
    /// No block with the given name exists.
    BlockNotFound(String),
    /// No loop with the given variable exists.
    LoopNotFound(String),
    /// The primitive's preconditions were not met.
    Precondition(String),
    /// The transformed program failed validation.
    Invalid(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::BlockNotFound(b) => write!(f, "block not found: {b}"),
            ScheduleError::LoopNotFound(l) => write!(f, "loop not found: {l}"),
            ScheduleError::Precondition(m) => write!(f, "precondition violated: {m}"),
            ScheduleError::Invalid(m) => write!(f, "transformed program is invalid: {m}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Schedule result type.
pub type Result<T> = std::result::Result<T, ScheduleError>;

/// A schedulable program with its transformation trace.
///
/// # Rollback contract
///
/// A primitive either succeeds, rewriting the program and appending one
/// step to the trace, or fails and leaves both exactly as they were. Every
/// primitive makes its checks before its first edit, so a failure needs no
/// backup, and an edit touches only the subtree it rewrites: the target is
/// found by `&mut` navigation, not by rebuilding the tree around it. The
/// one whole-program copy is the auto-verify snapshot (see
/// [`Schedule::set_auto_verify`]), which exists only while that gate is on.
///
/// # Examples
///
/// ```
/// use tir::builder::matmul_func;
/// use tir::DataType;
/// use tir_schedule::Schedule;
///
/// let mut sch = Schedule::new(matmul_func("mm", 64, 64, 64, DataType::float32()));
/// let block = sch.get_block("C")?;
/// let loops = sch.get_loops(&block)?;
/// let new_loops = sch.split(&loops[0], &[16, 4])?;
/// assert_eq!(new_loops.len(), 2);
/// # Ok::<(), tir_schedule::ScheduleError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Schedule {
    pub(crate) func: PrimFunc,
    pub(crate) trace: Trace,
    /// When set, every primitive re-runs the whole-program analyzer
    /// ([`tir_analysis::analyze`]) after applying itself, rolls back, and
    /// returns [`ScheduleError::Invalid`] if the transformed program fails.
    /// Defaults to on in debug builds (so the test suite exercises it) and
    /// off in release builds (opt in with [`Schedule::set_auto_verify`]).
    auto_verify: bool,
    /// The body as it was before the in-flight primitive's first edit,
    /// kept only under auto-verify: the analyzer runs after the rewrite,
    /// so a rejection has nothing else to roll back to. Cleared when a
    /// primitive commits. A primitive that fails leaves the body as it
    /// was, so a snapshot it leaves behind still matches the body.
    undo: Option<Stmt>,
}

impl Schedule {
    /// Starts scheduling a function.
    pub fn new(func: PrimFunc) -> Self {
        Schedule {
            func,
            trace: Trace::default(),
            auto_verify: cfg!(debug_assertions),
            undo: None,
        }
    }

    /// Re-runs the static analyzer (structural validation, bounds, race and
    /// memory-scope checks) on the current program.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Invalid`] carrying every diagnostic the
    /// analyzer produced, joined with `"; "`.
    pub fn verify(&self) -> Result<()> {
        match tir_analysis::verify_scheduled(&self.func) {
            Ok(()) => Ok(()),
            Err(errors) => {
                let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
                Err(ScheduleError::Invalid(msgs.join("; ")))
            }
        }
    }

    /// Whether primitives automatically re-verify the program (see
    /// [`Schedule::verify`]).
    pub fn auto_verify(&self) -> bool {
        self.auto_verify
    }

    /// Turns the after-every-primitive analyzer gate on or off. Tests that
    /// deliberately build illegal schedules (to exercise downstream
    /// validation) turn it off; release users can turn it on to debug a
    /// schedule pipeline. While it is on, each primitive copies the whole
    /// body before its first edit so that a rejected rewrite can be undone.
    pub fn set_auto_verify(&mut self, on: bool) {
        self.auto_verify = on;
    }

    /// The current program.
    pub fn func(&self) -> &PrimFunc {
        &self.func
    }

    /// Consumes the schedule, returning the final program.
    pub fn into_func(self) -> PrimFunc {
        self.func
    }

    /// The trace of primitives applied so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Commits a successful primitive: pushes its trace step and, when
    /// auto-verify is on, re-runs the analyzer on the transformed program.
    /// A rejection pops the step, restores the pre-primitive body, and
    /// surfaces as [`ScheduleError::Invalid`].
    pub(crate) fn record(&mut self, step: TraceStep) -> Result<()> {
        self.trace.push(step);
        if self.auto_verify {
            if let Err(e) = self.verify() {
                let len = self.trace.len();
                self.trace.truncate(len - 1);
                if let Some(body) = self.undo.take() {
                    self.func.body = body;
                }
                return Err(e);
            }
        }
        self.undo = None;
        Ok(())
    }

    /// The body, for a primitive about to edit it. Every edit goes through
    /// here; under auto-verify the first one since the last commit takes
    /// the rollback snapshot.
    pub(crate) fn body_mut(&mut self) -> &mut Stmt {
        if self.auto_verify && self.undo.is_none() {
            self.undo = Some(self.func.body.clone());
        }
        &mut self.func.body
    }

    /// Replaces the body with `f(body)`: the path for whole-program passes
    /// that cannot fail (signature refresh, inlining, pruning), which
    /// therefore need no backup.
    pub(crate) fn map_body(&mut self, f: impl FnOnce(Stmt) -> Stmt) {
        let body = self.body_mut();
        *body = f(std::mem::take(body));
    }

    /// The root block, for a primitive about to edit it.
    ///
    /// # Errors
    ///
    /// Fails when the function body does not follow the root-block
    /// convention.
    pub(crate) fn root_mut(&mut self) -> Result<&mut tir::Block> {
        match self.body_mut() {
            Stmt::BlockRealize(root) => Ok(&mut root.block),
            other => Err(ScheduleError::Precondition(format!(
                "function body is not a root block: {other:?}"
            ))),
        }
    }

    /// Looks up a block by name.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BlockNotFound`] if absent.
    pub fn get_block(&self, name: &str) -> Result<BlockRef> {
        if tir::visit::find_block(&self.func.body, name).is_some() {
            Ok(BlockRef(name.to_string()))
        } else {
            Err(ScheduleError::BlockNotFound(name.to_string()))
        }
    }

    /// Names of all blocks in the program, outer-first.
    pub fn block_names(&self) -> Vec<String> {
        tir::visit::block_names(&self.func.body)
    }

    /// The loops enclosing `block`, outermost first, up to (not including)
    /// the nearest enclosing block.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BlockNotFound`] if the block is absent.
    pub fn get_loops(&self, block: &BlockRef) -> Result<Vec<LoopRef>> {
        Ok(self
            .loop_infos(block)?
            .into_iter()
            .map(|li| LoopRef(li.var))
            .collect())
    }

    /// Like [`Schedule::get_loops`] but with extents and kinds.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::BlockNotFound`] if the block is absent.
    pub fn loop_infos(&self, block: &BlockRef) -> Result<Vec<LoopInfo>> {
        let mut path = Vec::new();
        if !path_to(&self.func.body, &|s| is_block(s, block.name()), &mut path) {
            return Err(ScheduleError::BlockNotFound(block.name().to_string()));
        }
        let mut infos = Vec::new();
        let mut s = &self.func.body;
        for &i in &path {
            match s {
                Stmt::For(f) => infos.push(LoopInfo {
                    var: f.var.clone(),
                    extent: f.extent.as_int().unwrap_or(-1),
                    kind: f.kind,
                }),
                Stmt::BlockRealize(_) => infos.clear(),
                _ => {}
            }
            s = child(s, i).expect("path_to yields existing children");
        }
        Ok(infos)
    }

    /// Extent of a loop.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::LoopNotFound`] if absent or non-constant.
    pub fn loop_extent(&self, loop_ref: &LoopRef) -> Result<i64> {
        find_loop(&self.func.body, loop_ref.var())
            .and_then(|f| f.extent.as_int())
            .ok_or_else(|| ScheduleError::LoopNotFound(loop_ref.var().name().to_string()))
    }

    /// Rewrites, in place, the loop identified by `loop_ref`. `f` gets the
    /// statement holding the loop (see [`loop_mut`]) and may edit or
    /// replace it; it must make every check before its first edit, so that
    /// an `Err` leaves the program untouched. Sequences on the way down are
    /// re-flattened afterwards, as [`Stmt::seq`] would build them.
    pub(crate) fn rewrite_loop(
        &mut self,
        loop_ref: &LoopRef,
        f: impl FnOnce(&mut Stmt) -> Result<()>,
    ) -> Result<()> {
        let var = loop_ref.var();
        self.rewrite_first(&|s| is_loop(s, var), f)
            .unwrap_or_else(|| Err(ScheduleError::LoopNotFound(var.name().to_string())))
    }

    /// Rewrites, in place, the realize of `block` (see [`realize_mut`]),
    /// under the same contract as [`Schedule::rewrite_loop`].
    pub(crate) fn rewrite_block(
        &mut self,
        block: &BlockRef,
        f: impl FnOnce(&mut Stmt) -> Result<()>,
    ) -> Result<()> {
        self.rewrite_first(&|s| is_block(s, block.name()), f)
            .unwrap_or_else(|| Err(ScheduleError::BlockNotFound(block.name().to_string())))
    }

    /// Runs `f` on the first statement, in pre-order, that `hit` accepts;
    /// `None` when there is none.
    fn rewrite_first(
        &mut self,
        hit: &dyn Fn(&Stmt) -> bool,
        f: impl FnOnce(&mut Stmt) -> Result<()>,
    ) -> Option<Result<()>> {
        let mut path = Vec::new();
        if !path_to(&self.func.body, hit, &mut path) {
            return None;
        }
        Some(rewrite_at(self.body_mut(), &path, f))
    }

    /// Cuts the realize of `block` out of the program and runs `check` on
    /// the realize and the program that remains. When `check` fails, the
    /// realize goes back into the slot it left (an empty statement held
    /// it), so the program is untouched. When it passes, the loops the cut
    /// left empty are pruned and `check`'s value is returned.
    pub(crate) fn remove_block<T>(
        &mut self,
        block: &BlockRef,
        check: impl FnOnce(&Self, &BlockRealize) -> Result<T>,
    ) -> Result<T> {
        let mut path = Vec::new();
        if !path_to(&self.func.body, &|s| is_block(s, block.name()), &mut path) {
            return Err(ScheduleError::BlockNotFound(block.name().to_string()));
        }
        let slot = at_path(self.body_mut(), &path);
        let br = match std::mem::take(slot) {
            Stmt::BlockRealize(br) => br,
            _ => unreachable!("path_to stopped at the block"),
        };
        match check(self, &br) {
            Ok(value) => {
                self.map_body(crate::compute_location::prune_empty);
                Ok(value)
            }
            Err(e) => {
                *at_path(&mut self.func.body, &path) = Stmt::BlockRealize(br);
                Err(e)
            }
        }
    }

    /// Replaces the subtree rooted at `loop_ref` with an arbitrary
    /// statement. Used by whole-nest rewrites such as tensorization
    /// candidate generation.
    ///
    /// # Errors
    ///
    /// Fails when the loop is missing.
    pub fn replace_loop_subtree(&mut self, loop_ref: &LoopRef, stmt: Stmt) -> Result<()> {
        self.rewrite_loop(loop_ref, |s| {
            *s = stmt;
            Ok(())
        })
    }

    /// Block names contained in the subtree rooted at `loop_ref`.
    ///
    /// # Errors
    ///
    /// Fails when the loop is missing.
    pub fn blocks_under_loop(&self, loop_ref: &LoopRef) -> Result<Vec<String>> {
        find_loop(&self.func.body, loop_ref.var())
            .map(|f| tir::visit::block_names(&f.body))
            .ok_or_else(|| ScheduleError::LoopNotFound(loop_ref.var().name().to_string()))
    }

    /// Finds a buffer by name among parameters, allocations and accessed
    /// buffers.
    pub fn find_buffer(&self, name: &str) -> Option<tir::Buffer> {
        if let Some(b) = self.func.params.iter().find(|b| b.name() == name) {
            return Some(b.clone());
        }
        let mut found = None;
        tir::visit::for_each_block_realize(&self.func.body, &mut |br| {
            if found.is_some() {
                return;
            }
            found = br
                .block
                .alloc_buffers
                .iter()
                .find(|b| b.name() == name)
                .cloned();
        });
        found.or_else(|| {
            tir::visit::collect_accessed_buffers(&self.func.body)
                .into_iter()
                .find(|b| b.name() == name)
        })
    }

    /// Registers a buffer in the root block's allocation list.
    ///
    /// # Errors
    ///
    /// Fails when the function body does not follow the root-block
    /// convention.
    pub fn alloc_buffer_at_root(&mut self, buffer: tir::Buffer) -> Result<()> {
        self.root_mut()?.alloc_buffers.push(buffer);
        Ok(())
    }

    /// Attaches an annotation to a block.
    ///
    /// # Errors
    ///
    /// Fails when the block is missing.
    pub fn annotate_block(
        &mut self,
        block: &BlockRef,
        key: &str,
        value: tir::AnnValue,
    ) -> Result<()> {
        let arg = crate::loop_transform::ann_to_arg(&value);
        self.rewrite_block(block, |s| {
            realize_mut(s)
                .block
                .annotations
                .insert(key.to_string(), value);
            Ok(())
        })?;
        self.record(TraceStep::new(
            "annotate_block",
            vec![block.name().into(), key.into(), arg],
        ))
    }

    /// Finds a loop reference by its variable's *name* (first match in a
    /// pre-order walk). Loop-variable names are deterministic (split and
    /// fuse derive them from their inputs), which makes recorded traces
    /// replayable on freshly built programs.
    pub fn find_loop_by_name(&self, name: &str) -> Option<LoopRef> {
        match find_first(
            &self.func.body,
            &|s| matches!(s, Stmt::For(f) if f.var.name() == name),
        ) {
            Some(Stmt::For(f)) => Some(LoopRef(f.var.clone())),
            _ => None,
        }
    }
}

/// The loop in the statement [`Schedule::rewrite_loop`] hands its closure.
pub(crate) fn loop_mut(s: &mut Stmt) -> &mut For {
    match s {
        Stmt::For(f) => f,
        _ => unreachable!("rewrite_loop targets a loop"),
    }
}

/// The realize in the statement [`Schedule::rewrite_block`] hands its
/// closure.
pub(crate) fn realize_mut(s: &mut Stmt) -> &mut BlockRealize {
    match s {
        Stmt::BlockRealize(br) => br,
        _ => unreachable!("rewrite_block targets a block realize"),
    }
}

fn is_loop(s: &Stmt, var: &Var) -> bool {
    matches!(s, Stmt::For(f) if &f.var == var)
}

fn is_block(s: &Stmt, name: &str) -> bool {
    matches!(s, Stmt::BlockRealize(br) if br.block.name == name)
}

/// How many child slots `s` has (see [`child`]).
fn arity(s: &Stmt) -> usize {
    match s {
        Stmt::For(_) => 1,
        Stmt::Seq(v) => v.len(),
        Stmt::IfThenElse { .. } | Stmt::BlockRealize(_) => 2,
        _ => 0,
    }
}

/// The statement in child slot `i` of `s`, in pre-order: a loop's body, a
/// sequence's items, a branch's then/else, a block's init/body. `None` for
/// an absent else or init.
fn child(s: &Stmt, i: usize) -> Option<&Stmt> {
    match (s, i) {
        (Stmt::For(f), 0) => Some(&f.body),
        (Stmt::Seq(v), i) => v.get(i),
        (Stmt::IfThenElse { then_branch, .. }, 0) => Some(then_branch),
        (Stmt::IfThenElse { else_branch, .. }, 1) => else_branch.as_deref(),
        (Stmt::BlockRealize(br), 0) => br.block.init.as_deref(),
        (Stmt::BlockRealize(br), 1) => Some(&br.block.body),
        _ => None,
    }
}

/// [`child`], mutably.
fn child_mut(s: &mut Stmt, i: usize) -> Option<&mut Stmt> {
    match (s, i) {
        (Stmt::For(f), 0) => Some(&mut f.body),
        (Stmt::Seq(v), i) => v.get_mut(i),
        (Stmt::IfThenElse { then_branch, .. }, 0) => Some(then_branch),
        (Stmt::IfThenElse { else_branch, .. }, 1) => else_branch.as_deref_mut(),
        (Stmt::BlockRealize(br), 0) => br.block.init.as_deref_mut(),
        (Stmt::BlockRealize(br), 1) => Some(&mut br.block.body),
        _ => None,
    }
}

/// Appends to `path` the child slots leading from `s` to the first
/// statement, in pre-order, that `hit` accepts. Returns whether there is
/// one (`path` is left as it was when there is not).
fn path_to(s: &Stmt, hit: &dyn Fn(&Stmt) -> bool, path: &mut Vec<usize>) -> bool {
    if hit(s) {
        return true;
    }
    for i in 0..arity(s) {
        if let Some(c) = child(s, i) {
            path.push(i);
            if path_to(c, hit, path) {
                return true;
            }
            path.pop();
        }
    }
    false
}

/// The first statement, in pre-order, that `hit` accepts.
pub(crate) fn find_first<'a>(s: &'a Stmt, hit: &dyn Fn(&Stmt) -> bool) -> Option<&'a Stmt> {
    if hit(s) {
        return Some(s);
    }
    (0..arity(s))
        .filter_map(|i| child(s, i))
        .find_map(|c| find_first(c, hit))
}

/// The loop with the given variable, if present.
pub(crate) fn find_loop<'a>(s: &'a Stmt, var: &Var) -> Option<&'a For> {
    find_first(s, &|s| is_loop(s, var)).and_then(Stmt::as_for)
}

/// The statement at `path` below `s`.
fn at_path<'a>(s: &'a mut Stmt, path: &[usize]) -> &'a mut Stmt {
    path.iter().fold(s, |s, &i| {
        child_mut(s, i).expect("path_to yields existing children")
    })
}

/// Runs `f` on the statement at `path` below `s`. After a rewrite, every
/// sequence on the path is re-flattened (a sequence the rewrite produced
/// merges into its parent, a one-item sequence becomes its item), so the
/// tree has the shape building it anew with [`Stmt::seq`] would give.
fn rewrite_at(s: &mut Stmt, path: &[usize], f: impl FnOnce(&mut Stmt) -> Result<()>) -> Result<()> {
    let Some((&i, rest)) = path.split_first() else {
        return f(s);
    };
    rewrite_at(
        child_mut(s, i).expect("path_to yields existing children"),
        rest,
        f,
    )?;
    if let Stmt::Seq(v) = s {
        *s = Stmt::seq(std::mem::take(v));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::DataType;

    #[test]
    fn block_and_loop_lookup() {
        let sch = Schedule::new(matmul_func("mm", 8, 8, 8, DataType::float32()));
        let block = sch.get_block("C").expect("block C");
        assert!(sch.get_block("missing").is_err());
        let loops = sch.get_loops(&block).expect("loops");
        assert_eq!(loops.len(), 3);
        assert_eq!(sch.loop_extent(&loops[0]).expect("extent"), 8);
        let infos = sch.loop_infos(&block).expect("infos");
        assert!(infos.iter().all(|li| li.kind == ForKind::Serial));
    }

    #[test]
    fn loops_do_not_cross_block_boundaries() {
        // The root block isolates: loops of C must not include anything
        // outside the root block's body (there is nothing outside here).
        let sch = Schedule::new(matmul_func("mm", 4, 4, 4, DataType::float32()));
        let root = sch.get_block("root").expect("root");
        assert!(sch.get_loops(&root).expect("root loops").is_empty());
    }

    #[test]
    fn rewrite_loop_replaces_subtree() {
        let mut sch = Schedule::new(matmul_func("mm", 4, 4, 4, DataType::float32()));
        let block = sch.get_block("C").expect("block");
        let loops = sch.get_loops(&block).expect("loops");
        // Replace the innermost loop with an empty sequence (nonsense, but
        // exercises the rewriter).
        sch.rewrite_loop(&loops[2], |s| {
            *s = Stmt::Seq(vec![]);
            Ok(())
        })
        .expect("rewrite");
        assert!(sch.get_loops(&block).is_err(), "block C should be gone");
    }
}

#[cfg(test)]
mod lookup_tests {
    use super::*;
    use tir::builder::matmul_func;
    use tir::DataType;

    #[test]
    fn blocks_under_loop_and_find_buffer() {
        let sch = Schedule::new(matmul_func("mm", 8, 8, 8, DataType::float32()));
        let block = sch.get_block("C").unwrap();
        let loops = sch.get_loops(&block).unwrap();
        assert_eq!(
            sch.blocks_under_loop(&loops[0]).unwrap(),
            vec!["C".to_string()]
        );
        assert!(sch.find_buffer("A").is_some());
        assert!(sch.find_buffer("C").is_some());
        assert!(sch.find_buffer("nope").is_none());
        assert!(sch.find_loop_by_name(loops[1].var().name()).is_some());
        assert!(sch.find_loop_by_name("ghost_loop").is_none());
    }

    #[test]
    fn find_buffer_sees_allocations() {
        let mut sch = Schedule::new(matmul_func("mm", 8, 8, 8, DataType::float32()));
        let block = sch.get_block("C").unwrap();
        sch.cache_write(&block, tir::MemScope::Local, None).unwrap();
        assert!(sch.find_buffer("C_local").is_some());
    }
}
