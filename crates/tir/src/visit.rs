//! Visitor and mutator infrastructure plus common traversal utilities.
//!
//! Transformations in this codebase are *functional*: a mutator consumes a
//! statement tree and rebuilds it. The traits provide default `walk_*`
//! methods that recurse into children, so implementations override only the
//! cases they care about.

use std::collections::HashMap;

use crate::buffer::{Buffer, BufferRegion, RangeExpr};
use crate::expr::{Expr, Var};
use crate::stmt::{Block, BlockRealize, For, Stmt};

/// Read-only traversal over expressions.
pub trait ExprVisitor {
    /// Visits one expression; the default recurses into children.
    fn visit_expr(&mut self, e: &Expr) {
        self.walk_expr(e);
    }

    /// Recurses into the children of `e`.
    fn walk_expr(&mut self, e: &Expr) {
        match e {
            Expr::Int(..) | Expr::Float(..) | Expr::Str(_) | Expr::Var(_) => {}
            Expr::Cast(_, v) | Expr::Not(v) => self.visit_expr(v),
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                self.visit_expr(a);
                self.visit_expr(b);
            }
            Expr::Select { cond, then, other } => {
                self.visit_expr(cond);
                self.visit_expr(then);
                self.visit_expr(other);
            }
            Expr::Load { indices, .. } => {
                for i in indices {
                    self.visit_expr(i);
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.visit_expr(a);
                }
            }
        }
    }
}

/// Read-only traversal over statements (and the expressions inside them).
pub trait StmtVisitor: ExprVisitor {
    /// Visits one statement; the default recurses.
    fn visit_stmt(&mut self, s: &Stmt) {
        self.walk_stmt(s);
    }

    /// Visits a block (signature regions are *not* visited by default — they
    /// mirror the body and most analyses want one or the other).
    fn visit_block(&mut self, b: &Block) {
        if let Some(init) = &b.init {
            self.visit_stmt(init);
        }
        self.visit_stmt(&b.body);
    }

    /// Recurses into the children of `s`.
    fn walk_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Store { indices, value, .. } => {
                for i in indices {
                    self.visit_expr(i);
                }
                self.visit_expr(value);
            }
            Stmt::Eval(e) => self.visit_expr(e),
            Stmt::Seq(v) => {
                for st in v {
                    self.visit_stmt(st);
                }
            }
            Stmt::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => {
                self.visit_expr(cond);
                self.visit_stmt(then_branch);
                if let Some(e) = else_branch {
                    self.visit_stmt(e);
                }
            }
            Stmt::For(f) => {
                self.visit_expr(&f.extent);
                self.visit_stmt(&f.body);
            }
            Stmt::BlockRealize(br) => {
                for v in &br.iter_values {
                    self.visit_expr(v);
                }
                self.visit_expr(&br.predicate);
                self.visit_block(&br.block);
            }
        }
    }
}

/// Rebuilding traversal over expressions.
pub trait ExprMutator {
    /// Transforms one expression; the default rebuilds children.
    fn mutate_expr(&mut self, e: Expr) -> Expr {
        self.walk_expr(e)
    }

    /// Rebuilds the children of `e` through `mutate_expr`.
    fn walk_expr(&mut self, e: Expr) -> Expr {
        match e {
            Expr::Int(..) | Expr::Float(..) | Expr::Str(_) | Expr::Var(_) => e,
            Expr::Cast(dt, v) => Expr::Cast(dt, Box::new(self.mutate_expr(*v))),
            Expr::Not(v) => Expr::Not(Box::new(self.mutate_expr(*v))),
            Expr::Bin(op, a, b) => Expr::Bin(
                op,
                Box::new(self.mutate_expr(*a)),
                Box::new(self.mutate_expr(*b)),
            ),
            Expr::Cmp(op, a, b) => Expr::Cmp(
                op,
                Box::new(self.mutate_expr(*a)),
                Box::new(self.mutate_expr(*b)),
            ),
            Expr::Select { cond, then, other } => Expr::Select {
                cond: Box::new(self.mutate_expr(*cond)),
                then: Box::new(self.mutate_expr(*then)),
                other: Box::new(self.mutate_expr(*other)),
            },
            Expr::Load { buffer, indices } => Expr::Load {
                buffer: self.mutate_buffer(buffer),
                indices: indices.into_iter().map(|i| self.mutate_expr(i)).collect(),
            },
            Expr::Call { name, args, dtype } => Expr::Call {
                name,
                args: Vec::from(args)
                    .into_iter()
                    .map(|a| self.mutate_expr(a))
                    .collect(),
                dtype,
            },
        }
    }

    /// Hook for replacing buffer handles; the default keeps them.
    fn mutate_buffer(&mut self, b: Buffer) -> Buffer {
        b
    }
}

/// Rebuilding traversal over statements.
pub trait StmtMutator: ExprMutator {
    /// Transforms one statement; the default rebuilds children.
    fn mutate_stmt(&mut self, s: Stmt) -> Stmt {
        self.walk_stmt(s)
    }

    /// Transforms a block, rebuilding signature regions, init and body.
    fn mutate_block(&mut self, mut b: Block) -> Block {
        b.reads = b.reads.into_iter().map(|r| self.mutate_region(r)).collect();
        b.writes = b
            .writes
            .into_iter()
            .map(|r| self.mutate_region(r))
            .collect();
        b.alloc_buffers = b
            .alloc_buffers
            .into_iter()
            .map(|buf| self.mutate_buffer(buf))
            .collect();
        b.init = b.init.map(|i| Box::new(self.mutate_stmt(*i)));
        b.body = Box::new(self.mutate_stmt(*b.body));
        b
    }

    /// Rebuilds a buffer region.
    fn mutate_region(&mut self, r: BufferRegion) -> BufferRegion {
        BufferRegion {
            buffer: self.mutate_buffer(r.buffer),
            region: r
                .region
                .into_iter()
                .map(|rng| RangeExpr {
                    min: self.mutate_expr(rng.min),
                    extent: self.mutate_expr(rng.extent),
                })
                .collect(),
        }
    }

    /// Rebuilds the children of `s` through `mutate_stmt` / `mutate_expr`.
    fn walk_stmt(&mut self, s: Stmt) -> Stmt {
        match s {
            Stmt::Store {
                buffer,
                indices,
                value,
            } => Stmt::Store {
                buffer: self.mutate_buffer(buffer),
                indices: indices.into_iter().map(|i| self.mutate_expr(i)).collect(),
                value: self.mutate_expr(value),
            },
            Stmt::Eval(e) => Stmt::Eval(self.mutate_expr(e)),
            Stmt::Seq(v) => Stmt::seq(v.into_iter().map(|st| self.mutate_stmt(st)).collect()),
            Stmt::IfThenElse {
                cond,
                then_branch,
                else_branch,
            } => Stmt::IfThenElse {
                cond: self.mutate_expr(cond),
                then_branch: Box::new(self.mutate_stmt(*then_branch)),
                else_branch: else_branch.map(|e| Box::new(self.mutate_stmt(*e))),
            },
            Stmt::For(f) => {
                let f = *f;
                Stmt::For(Box::new(For {
                    var: f.var,
                    extent: self.mutate_expr(f.extent),
                    kind: f.kind,
                    body: self.mutate_stmt(f.body),
                    annotations: f.annotations,
                }))
            }
            Stmt::BlockRealize(br) => {
                let br = *br;
                Stmt::BlockRealize(Box::new(BlockRealize {
                    iter_values: br
                        .iter_values
                        .into_iter()
                        .map(|v| self.mutate_expr(v))
                        .collect(),
                    predicate: self.mutate_expr(br.predicate),
                    block: self.mutate_block(br.block),
                }))
            }
        }
    }
}

struct Substituter<'a> {
    map: &'a HashMap<Var, Expr>,
}
impl ExprMutator for Substituter<'_> {
    fn mutate_expr(&mut self, e: Expr) -> Expr {
        if let Expr::Var(v) = &e {
            if let Some(r) = self.map.get(v) {
                return r.clone();
            }
        }
        self.walk_expr(e)
    }
}
impl StmtMutator for Substituter<'_> {}

/// Substitutes variables inside an expression.
pub fn subst_expr(e: &Expr, map: &HashMap<Var, Expr>) -> Expr {
    Substituter { map }.mutate_expr(e.clone())
}

/// Substitutes variables inside a statement (including block signatures of
/// nested blocks; the substituted variables are assumed free in the tree).
pub fn subst_stmt(s: &Stmt, map: &HashMap<Var, Expr>) -> Stmt {
    Substituter { map }.mutate_stmt(s.clone())
}

struct BufferReplacer<'a> {
    map: &'a HashMap<Buffer, Buffer>,
}
impl ExprMutator for BufferReplacer<'_> {
    fn mutate_buffer(&mut self, b: Buffer) -> Buffer {
        self.map.get(&b).cloned().unwrap_or(b)
    }
}
impl StmtMutator for BufferReplacer<'_> {}

/// Replaces buffer handles throughout a statement (loads, stores, regions,
/// and allocations).
pub fn replace_buffers(s: &Stmt, map: &HashMap<Buffer, Buffer>) -> Stmt {
    BufferReplacer { map }.mutate_stmt(s.clone())
}

struct VarCollector {
    vars: Vec<Var>,
    seen: std::collections::HashSet<usize>,
}
impl ExprVisitor for VarCollector {
    fn visit_expr(&mut self, e: &Expr) {
        if let Expr::Var(v) = e {
            if self.seen.insert(v.id()) {
                self.vars.push(v.clone());
            }
        }
        self.walk_expr(e);
    }
}
impl StmtVisitor for VarCollector {}

/// Collects the distinct variables appearing in an expression, in first-use
/// order.
pub fn collect_vars_expr(e: &Expr) -> Vec<Var> {
    let mut c = VarCollector {
        vars: Vec::new(),
        seen: Default::default(),
    };
    c.visit_expr(e);
    c.vars
}

/// Collects the distinct variables appearing in a statement.
pub fn collect_vars_stmt(s: &Stmt) -> Vec<Var> {
    let mut c = VarCollector {
        vars: Vec::new(),
        seen: Default::default(),
    };
    c.visit_stmt(s);
    c.vars
}

/// Whether the variable occurs in the expression.
pub fn expr_uses_var(e: &Expr, var: &Var) -> bool {
    collect_vars_expr(e).contains(var)
}

/// Whether the variable occurs in the statement.
pub fn stmt_uses_var(s: &Stmt, var: &Var) -> bool {
    collect_vars_stmt(s).contains(var)
}

struct BufferCollector {
    bufs: Vec<Buffer>,
    seen: std::collections::HashSet<usize>,
}
impl BufferCollector {
    fn add(&mut self, b: &Buffer) {
        if self.seen.insert(b.id()) {
            self.bufs.push(b.clone());
        }
    }
}
impl ExprVisitor for BufferCollector {
    fn visit_expr(&mut self, e: &Expr) {
        if let Expr::Load { buffer, .. } = e {
            self.add(buffer);
        }
        self.walk_expr(e);
    }
}
impl StmtVisitor for BufferCollector {
    fn visit_stmt(&mut self, s: &Stmt) {
        if let Stmt::Store { buffer, .. } = s {
            self.add(buffer);
        }
        self.walk_stmt(s);
    }
}

/// Collects the distinct buffers accessed (loaded or stored) in a statement
/// body, ignoring block signature regions.
pub fn collect_accessed_buffers(s: &Stmt) -> Vec<Buffer> {
    let mut c = BufferCollector {
        bufs: Vec::new(),
        seen: Default::default(),
    };
    c.visit_stmt(s);
    c.bufs
}

/// Calls `f` on every block (realize) in the statement, outer blocks first.
pub fn for_each_block_realize<'a>(s: &'a Stmt, f: &mut impl FnMut(&'a BlockRealize)) {
    match s {
        Stmt::Seq(v) => {
            for st in v {
                for_each_block_realize(st, f);
            }
        }
        Stmt::IfThenElse {
            then_branch,
            else_branch,
            ..
        } => {
            for_each_block_realize(then_branch, f);
            if let Some(e) = else_branch {
                for_each_block_realize(e, f);
            }
        }
        Stmt::For(fr) => for_each_block_realize(&fr.body, f),
        Stmt::BlockRealize(br) => {
            f(br);
            if let Some(init) = &br.block.init {
                for_each_block_realize(init, f);
            }
            for_each_block_realize(&br.block.body, f);
        }
        Stmt::Store { .. } | Stmt::Eval(_) => {}
    }
}

/// Finds the (unique) block with the given name, if present.
pub fn find_block<'a>(s: &'a Stmt, name: &str) -> Option<&'a BlockRealize> {
    let mut found = None;
    for_each_block_realize(s, &mut |br| {
        if br.block.name == name && found.is_none() {
            found = Some(br);
        }
    });
    found
}

/// Collects the names of all blocks in the statement, outer-first.
pub fn block_names(s: &Stmt) -> Vec<String> {
    let mut names = Vec::new();
    for_each_block_realize(s, &mut |br| names.push(br.block.name.clone()));
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DataType;
    use crate::stmt::{Block, IterVar};

    fn sample() -> (Buffer, Buffer, Var, Var, Stmt) {
        let a = Buffer::new("A", DataType::float32(), vec![4, 4]);
        let b = Buffer::new("B", DataType::float32(), vec![4, 4]);
        let (i, j) = (Var::int("i"), Var::int("j"));
        let (vi, vj) = (Var::int("vi"), Var::int("vj"));
        let body = Stmt::store(
            b.clone(),
            vec![Expr::from(&vi), Expr::from(&vj)],
            a.load(vec![Expr::from(&vi), Expr::from(&vj)]) + Expr::f32(1.0),
        );
        let block = Block::new(
            "B",
            vec![IterVar::spatial(vi, 4), IterVar::spatial(vj, 4)],
            vec![a.full_region()],
            vec![b.full_region()],
            body,
        );
        let stmt = Stmt::BlockRealize(Box::new(BlockRealize::new(
            vec![Expr::from(&i), Expr::from(&j)],
            block,
        )))
        .in_loops(vec![(i.clone(), 4), (j.clone(), 4)]);
        (a, b, i, j, stmt)
    }

    #[test]
    fn collects_vars_and_buffers() {
        let (a, b, i, j, stmt) = sample();
        let vars = collect_vars_stmt(&stmt);
        assert!(vars.contains(&i) && vars.contains(&j));
        let bufs = collect_accessed_buffers(&stmt);
        assert!(bufs.contains(&a) && bufs.contains(&b));
    }

    #[test]
    fn substitution_replaces_free_vars() {
        let (_, _, i, _, stmt) = sample();
        let mut map = HashMap::new();
        map.insert(i.clone(), Expr::int(3));
        let out = subst_stmt(&stmt, &map);
        assert!(!stmt_uses_var(&out, &i));
    }

    #[test]
    fn buffer_replacement_updates_regions() {
        let (a, _, _, _, stmt) = sample();
        let a2 = a.derive("A_shared", crate::MemScope::Shared);
        let mut map = HashMap::new();
        map.insert(a.clone(), a2.clone());
        let out = replace_buffers(&stmt, &map);
        let bufs = collect_accessed_buffers(&out);
        assert!(bufs.contains(&a2) && !bufs.contains(&a));
        let br = find_block(&out, "B").expect("block B");
        assert_eq!(br.block.reads[0].buffer, a2);
    }

    #[test]
    fn finds_blocks_by_name() {
        let (.., stmt) = sample();
        assert!(find_block(&stmt, "B").is_some());
        assert!(find_block(&stmt, "nope").is_none());
        assert_eq!(block_names(&stmt), vec!["B".to_string()]);
    }
}
