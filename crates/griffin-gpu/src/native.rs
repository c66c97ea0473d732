//! The host scratch the kernels' native twins compute a block's stores in.
//!
//! A twin ([`griffin_gpu_sim::Kernel::run_block_native`]) exists for every
//! kernel that takes at least 1 % of a `trec-hybrid` pass's simulator host
//! time (DESIGN.md, "How a launch executes on the host"); each kernel's
//! tests hold it, its barrier images and its replay to the lane-by-lane
//! body with `griffin_sim_conformance::check`.

use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<[Vec<u32>; 4]> = const { RefCell::new([const { Vec::new() }; 4]) };
}

/// Runs `f` on this host thread's four scratch vectors, emptied. Their
/// capacity lives as long as the thread, which is the launch's caller: a
/// twin allocates only while it first grows them.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut [Vec<u32>; 4]) -> R) -> R {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.iter_mut().for_each(Vec::clear);
        f(scratch)
    })
}
