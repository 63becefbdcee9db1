//! Producer-consumer dependency analysis from block signatures.
//!
//! As in the paper (§3.1), dependencies are tracked *through buffers*, not
//! between statements: block P produces for block C when P writes a buffer
//! that C reads. The indirection is what makes layout transformations and
//! re-computation legal schedule moves.

use std::collections::{HashMap, HashSet};

use tir::visit::for_each_block_realize;
use tir::{Buffer, Stmt};

/// The producer/consumer structure of the blocks under one scope.
#[derive(Debug, Default)]
pub struct BlockScope {
    /// Block names in program order (outer-first walk).
    pub order: Vec<String>,
    /// For each buffer, the names of blocks writing it.
    pub writers: HashMap<Buffer, Vec<String>>,
    /// For each buffer, the names of blocks reading it.
    pub readers: HashMap<Buffer, Vec<String>>,
    /// Edges `producer -> consumers`.
    pub consumers: HashMap<String, Vec<String>>,
    /// Edges `consumer -> producers`.
    pub producers: HashMap<String, Vec<String>>,
}

impl BlockScope {
    /// Builds the dependency structure of all blocks inside `stmt`
    /// (including nested ones), using only block signatures.
    pub fn build(stmt: &Stmt) -> BlockScope {
        let mut scope = BlockScope::default();
        for_each_block_realize(stmt, &mut |br| {
            let name = br.block.name.clone();
            scope.order.push(name.clone());
            for r in &br.block.reads {
                scope
                    .readers
                    .entry(r.buffer.clone())
                    .or_default()
                    .push(name.clone());
            }
            for w in &br.block.writes {
                scope
                    .writers
                    .entry(w.buffer.clone())
                    .or_default()
                    .push(name.clone());
            }
        });
        for (buffer, writers) in &scope.writers {
            if let Some(readers) = scope.readers.get(buffer) {
                for w in writers {
                    for r in readers {
                        if w == r {
                            continue;
                        }
                        push_unique(scope.consumers.entry(w.clone()).or_default(), r);
                        push_unique(scope.producers.entry(r.clone()).or_default(), w);
                    }
                }
            }
        }
        scope
    }

    /// Names of blocks consuming the output of `block`.
    pub fn consumers_of(&self, block: &str) -> &[String] {
        self.consumers.get(block).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Names of blocks producing inputs of `block`.
    pub fn producers_of(&self, block: &str) -> &[String] {
        self.producers.get(block).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `block` is the sole writer of each buffer it writes.
    pub fn is_sole_writer(&self, block: &str) -> bool {
        self.writers
            .values()
            .all(|ws| !ws.contains(&block.to_string()) || ws.len() == 1)
    }

    /// Buffers written by exactly one block and read only by blocks in the
    /// scope (candidates for inlining / scope-local staging).
    pub fn single_producer_buffers(&self) -> Vec<Buffer> {
        self.writers
            .iter()
            .filter(|(_, ws)| ws.len() == 1)
            .map(|(b, _)| b.clone())
            .collect()
    }

    /// Topological order check: every producer appears before each of its
    /// consumers in program order. Returns the first violation.
    pub fn check_program_order(&self) -> Result<(), (String, String)> {
        let pos: HashMap<&String, usize> =
            self.order.iter().enumerate().map(|(i, n)| (n, i)).collect();
        for (p, cs) in &self.consumers {
            for c in cs {
                if let (Some(&pi), Some(&ci)) = (pos.get(p), pos.get(c)) {
                    if pi > ci {
                        return Err((p.clone(), c.clone()));
                    }
                }
            }
        }
        Ok(())
    }
}

fn push_unique(v: &mut Vec<String>, item: &str) {
    if !v.iter().any(|x| x == item) {
        v.push(item.to_string());
    }
}

/// Returns the set of buffer names that are intermediates: written and read
/// inside the statement (excluding function parameters the caller filters).
pub fn intermediate_buffers(stmt: &Stmt) -> Vec<Buffer> {
    let scope = BlockScope::build(stmt);
    let read_set: HashSet<&Buffer> = scope.readers.keys().collect();
    scope
        .writers
        .keys()
        .filter(|b| read_set.contains(b))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::builder::compute;
    use tir::{Buffer, DataType, Expr};

    /// B = A + 1; C = exp(B) — the paper's Fig. 4 pipeline.
    fn fused_add_exp() -> (Buffer, Buffer, Buffer, Stmt) {
        let a = Buffer::new("A", DataType::float32(), vec![64, 64]);
        let b = Buffer::new("B", DataType::float32(), vec![64, 64]);
        let c = Buffer::new("C", DataType::float32(), vec![64, 64]);
        let s1 = compute("B", &b, |iv| {
            a.load(iv.iter().map(Expr::from).collect()) + Expr::f32(1.0)
        });
        let s2 = compute("C", &c, |iv| Expr::Call {
            name: "exp".into(),
            args: vec![b.load(iv.iter().map(Expr::from).collect())].into(),
            dtype: DataType::float32(),
        });
        (a, b, c, Stmt::seq(vec![s1, s2]))
    }

    #[test]
    fn builds_producer_consumer_edges() {
        let (_, b, _, stmt) = fused_add_exp();
        let scope = BlockScope::build(&stmt);
        assert_eq!(scope.consumers_of("B"), &["C".to_string()]);
        assert_eq!(scope.producers_of("C"), &["B".to_string()]);
        assert!(scope.producers_of("B").is_empty());
        assert_eq!(scope.writers[&b], vec!["B".to_string()]);
    }

    #[test]
    fn program_order_is_valid() {
        let (.., stmt) = fused_add_exp();
        let scope = BlockScope::build(&stmt);
        assert_eq!(scope.order, vec!["B".to_string(), "C".to_string()]);
        scope.check_program_order().expect("order ok");
    }

    #[test]
    fn reversed_order_detected() {
        let (_, _, _, stmt) = fused_add_exp();
        let reversed = match stmt {
            Stmt::Seq(mut v) => {
                v.reverse();
                Stmt::Seq(v)
            }
            other => other,
        };
        let scope = BlockScope::build(&reversed);
        let (p, c) = scope.check_program_order().unwrap_err();
        assert_eq!((p.as_str(), c.as_str()), ("B", "C"));
    }

    #[test]
    fn intermediates_found() {
        let (_, b, _, stmt) = fused_add_exp();
        let mids = intermediate_buffers(&stmt);
        assert_eq!(mids, vec![b]);
    }
}
