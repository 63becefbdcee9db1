//! The rollback contract of schedule primitives: a primitive that fails
//! leaves the program and the trace exactly as they were.
//!
//! Release builds run with the auto-verify gate off, so no primitive keeps
//! a copy of the program to restore: each must check before it edits, and
//! a primitive that cuts a block out to inspect the rest of the program
//! must put it back. These cases therefore run with the gate off in every
//! profile. One case turns the gate on and checks that a rewrite the
//! analyzer rejects is undone from its snapshot.

use tir::builder::matmul_func;
use tir::structural::func_structural_eq;
use tir::{Buffer, DataType, MemScope, ThreadTag};
use tir_schedule::{Schedule, ScheduleError};

fn mm() -> Schedule {
    let mut sch = Schedule::new(matmul_func("mm", 16, 16, 16, DataType::float32()));
    sch.set_auto_verify(false);
    sch
}

/// Runs `op`, which must fail, and checks it changed nothing.
fn assert_rolls_back<T: std::fmt::Debug>(
    sch: &mut Schedule,
    what: &str,
    op: impl FnOnce(&mut Schedule) -> Result<T, ScheduleError>,
) {
    let before = sch.func().clone();
    let text = before.to_string();
    let steps = sch.trace().len();
    let err = op(sch).expect_err(what);
    assert!(
        func_structural_eq(&before, sch.func()),
        "{what} ({err}) changed the program"
    );
    assert_eq!(sch.func().to_string(), text, "{what} renamed something");
    assert_eq!(sch.trace().len(), steps, "{what} left a trace step");
}

#[test]
fn fuse_of_a_non_perfect_nest_changes_nothing() {
    let mut sch = mm();
    let c = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&c).unwrap();
    let a = sch.func().param("A").unwrap().clone();
    // Staging A under i puts the copy nest beside j: i no longer holds a
    // perfect nest.
    sch.cache_read(&c, &a, MemScope::Shared, Some(&loops[0]))
        .unwrap();
    assert_rolls_back(&mut sch, "fuse(i, j)", |s| {
        s.fuse(&[loops[0].clone(), loops[1].clone()])
    });
}

#[test]
fn split_with_a_bad_factor_product_changes_nothing() {
    let mut sch = mm();
    let c = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&c).unwrap();
    sch.split(&loops[1], &[4, 4]).unwrap();
    assert_rolls_back(&mut sch, "split 16 by 3x2", |s| s.split(&loops[0], &[3, 2]));
}

#[test]
fn compute_inline_of_a_reducing_block_changes_nothing() {
    let mut sch = mm();
    let c = sch.get_block("C").unwrap();
    // The block is cut out to be inspected; the rejection must put it back
    // and must not prune the loops the cut emptied.
    assert_rolls_back(&mut sch, "compute_inline(C)", |s| s.compute_inline(&c));
}

#[test]
fn cache_read_of_an_absent_buffer_changes_nothing() {
    let mut sch = mm();
    let c = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&c).unwrap();
    let absent = Buffer::new("Z", DataType::float32(), vec![16, 16]);
    assert_rolls_back(&mut sch, "cache_read(Z)", |s| {
        s.cache_read(&c, &absent, MemScope::Shared, Some(&loops[0]))
    });
}

#[test]
fn bind_of_a_non_serial_loop_changes_nothing() {
    let mut sch = mm();
    let c = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&c).unwrap();
    sch.parallel(&loops[0]).unwrap();
    assert_rolls_back(&mut sch, "bind(parallel i)", |s| {
        s.bind(&loops[0], ThreadTag::BlockIdxX)
    });
}

#[test]
fn block_moves_that_fail_after_the_cut_change_nothing() {
    let mut sch = mm();
    let c = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&c).unwrap();
    // k lies inside C's own nest: with C cut out nothing under k reads C.
    assert_rolls_back(&mut sch, "compute_at(C, k)", |s| {
        s.compute_at(&c, &loops[2])
    });
    assert_rolls_back(&mut sch, "reverse_compute_at(C, k)", |s| {
        s.reverse_compute_at(&c, &loops[2])
    });
    let init = sch.decompose_reduction(&c, &loops[2]).unwrap();
    // The update block cannot serve as an init block.
    assert_rolls_back(&mut sch, "merge_reduction(C, C_init)", |s| {
        s.merge_reduction(&c, &init)
    });
}

#[test]
fn auto_verify_rolls_back_a_rejected_rewrite() {
    let mut sch = Schedule::new(matmul_func("mm", 16, 16, 16, DataType::float32()));
    sch.set_auto_verify(true);
    let c = sch.get_block("C").unwrap();
    let loops = sch.get_loops(&c).unwrap();
    let i = sch.split(&loops[0], &[4, 4]).unwrap();
    // A fuse that finds i_1 between i_0 and j fails after the snapshot was
    // taken and leaves it behind; it must still match the program.
    assert!(sch.fuse(&[i[0].clone(), loops[1].clone()]).is_err());
    let before = sch.func().to_string();
    let steps = sch.trace().len();
    // Binding the reduction loop to threads is a race the analyzer rejects
    // only after the rewrite.
    let k = sch.get_loops(&c).unwrap().pop().unwrap();
    let err = sch.bind(&k, ThreadTag::ThreadIdxX).unwrap_err();
    assert!(matches!(err, ScheduleError::Invalid(_)), "{err:?}");
    assert_eq!(sch.func().to_string(), before, "rejected bind not undone");
    assert_eq!(sch.trace().len(), steps, "rejected bind left a trace step");
}
