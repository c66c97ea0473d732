//! The device's caching allocator: what a hit and a miss cost, what a hit
//! leaves alone (the driver's call count, the fault plan's position), what
//! is recycled and what never is, and that the books balance.
//!
//! Mutations that fail it: handing a hit the block without the new
//! generation (`Pool::alloc`'s `generation + 1`) lets the previous owner's
//! handle through in `a_recycled_block_is_zeroed_and_its_old_handle_is_dead`;
//! keeping a cached block's words fails the same test's all-zero read;
//! putting an upload's buffer on a free list (`Pool::free` ignoring
//! `pooled`) fails `uploads_never_enter_the_pool` and the books.

use std::panic::{catch_unwind, AssertUnwindSafe};

use griffin_gpu_sim::{
    DeviceBuffer, DeviceConfig, DeviceError, FaultKind, FaultPlan, Gpu, Kernel, LaunchConfig,
    ThreadCtx,
};

fn tiny() -> Gpu {
    Gpu::new(DeviceConfig::test_tiny())
}

/// Bytes of the block that serves `len` words.
fn block(len: usize) -> u64 {
    len.max(1).next_power_of_two() as u64 * 4
}

fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 29)
}

#[test]
fn a_miss_costs_a_cudamalloc_and_a_hit_costs_the_bookkeeping() {
    for cfg in [DeviceConfig::test_tiny(), DeviceConfig::tesla_k20()] {
        assert!(cfg.pool_hit_overhead_ns < cfg.malloc_overhead_ns);
        let gpu = Gpu::new(cfg.clone());
        let spent = |f: &dyn Fn()| {
            let t0 = gpu.now();
            f();
            (gpu.now() - t0).as_nanos()
        };
        let first = gpu.alloc::<u32>(1000).unwrap();
        assert_eq!(gpu.now().as_nanos(), cfg.malloc_overhead_ns, "cold: a miss");
        assert_eq!((gpu.mem_in_use(), gpu.mem_cached()), (4000, 96));
        assert_eq!(spent(&|| gpu.free(first.clone())), 0, "no cudaFree");
        assert_eq!((gpu.mem_in_use(), gpu.mem_cached()), (0, 4096));

        // Another size of the same class is served by that block.
        let t0 = gpu.now();
        let again = gpu.alloc::<f32>(600).unwrap();
        assert_eq!((gpu.now() - t0).as_nanos(), cfg.pool_hit_overhead_ns);
        // The next class up is not.
        let t0 = gpu.now();
        let bigger = gpu.alloc::<u32>(1025).unwrap();
        assert_eq!((gpu.now() - t0).as_nanos(), cfg.malloc_overhead_ns);

        let s = gpu.stats();
        assert_eq!((s.allocs, s.frees), (2, 0), "driver calls");
        assert_eq!((s.pool.hits, s.pool.misses, s.pool.trimmed), (1, 2, 0));
        assert_eq!(s.peak_bytes, 4096 + 8192, "held from the driver");

        gpu.free(again);
        gpu.free(bigger);
        assert_eq!(gpu.stats().pool.cached_bytes, 4096 + 8192);
        assert_eq!(
            spent(&|| gpu.trim_pool()),
            2 * cfg.free_overhead_ns,
            "a trimmed block is a cudaFree"
        );
        let s = gpu.stats();
        assert_eq!((s.frees, s.pool.trimmed, s.pool.cached_bytes), (2, 2, 0));
        assert_eq!(spent(&|| gpu.trim_pool()), 0, "nothing left to trim");
    }
}

/// Stores `value` to every word.
struct Fill {
    dst: DeviceBuffer<u32>,
    value: u32,
}

impl Kernel for Fill {
    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if t.branch(i < self.dst.len()) {
            t.st(&self.dst, i, self.value);
        }
    }
}

#[test]
fn a_recycled_block_is_zeroed_and_its_old_handle_is_dead() {
    let gpu = tiny();
    let old = gpu.alloc::<u32>(300).unwrap();
    let fill = Fill {
        dst: old.clone(),
        value: 0xDEAD_BEEF,
    };
    gpu.launch(&fill, LaunchConfig::cover(300, 128)).unwrap();
    assert_eq!(gpu.peek(&old, 299), 0xDEAD_BEEF);
    gpu.free(old.clone());

    let new = gpu.alloc::<u32>(300).unwrap();
    assert_eq!(gpu.stats().pool.hits, 1, "served by the block `old` had");
    assert_eq!(gpu.dtoh(&new).unwrap(), vec![0; 300], "handed out zeroed");
    let stale = |f: &dyn Fn()| {
        let err = catch_unwind(AssertUnwindSafe(f)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("stale device buffer handle"), "{msg}");
    };
    stale(&|| {
        let _ = gpu.dtoh(&old);
    });
    stale(&|| {
        let _ = gpu.peek(&old, 0);
    });
    stale(&|| gpu.free(old.clone()));
    // The new owner is untouched by all of it.
    assert_eq!(gpu.peek(&new, 0), 0);
    gpu.free(new);
    assert_eq!(gpu.mem_in_use(), 0);
}

#[test]
fn uploads_never_enter_the_pool() {
    let gpu = tiny();
    let cfg = gpu.config().clone();
    let up = gpu.htod(&[7u32; 1000]).unwrap();
    let [a, b] = gpu.htod_packed([vec![1u32; 1000], vec![2u32; 24]]).unwrap();
    let [c] = gpu.htod_packed([vec![3u32; 1000]]).unwrap();
    assert_eq!(gpu.mem_cached(), 0, "uploads are exact-size");
    for buf in [up, a, b, c] {
        let t0 = gpu.now();
        gpu.free(buf);
        assert_eq!((gpu.now() - t0).as_nanos(), cfg.free_overhead_ns);
        assert_eq!(gpu.mem_cached(), 0);
    }
    let s = gpu.stats();
    assert_eq!((s.allocs, s.frees), (3, 4), "one cudaMalloc per DMA");
    // Nothing of those sizes is waiting for scratch.
    let scratch = gpu.alloc::<u32>(1000).unwrap();
    assert_eq!(gpu.stats().pool.hits, 0);
    gpu.free(scratch);
    // And a freed scratch block is not what an upload gets.
    let t0 = gpu.now();
    let up = gpu.htod(&[7u32; 1000]).unwrap();
    assert!((gpu.now() - t0).as_nanos() >= cfg.malloc_overhead_ns);
    assert_eq!(gpu.stats().allocs, 5);
    assert_eq!((gpu.mem_in_use(), gpu.mem_cached()), (4000, 4096));
    gpu.free(up);
}

/// The driver calls of one sequence: an upload, three scratch buffers of
/// different classes, a read-back. `warm` first leaves a block of each
/// listed size on the free lists.
fn run_against_plan(plan: Option<FaultPlan>, warm: &[usize]) -> (Vec<Result<(), u64>>, u64) {
    let gpu = tiny();
    let blocks: Vec<_> = warm.iter().map(|&n| gpu.alloc::<u32>(n).unwrap()).collect();
    blocks.into_iter().for_each(|b| gpu.free(b));
    gpu.set_fault_plan(plan);
    let allocs = gpu.stats().allocs;
    let op_of = |r: Result<(), DeviceError>| {
        r.map_err(|e| match e {
            DeviceError::DeviceOom { .. } => u64::MAX,
            DeviceError::KernelLaunchFailed { op_index }
            | DeviceError::TransferError { op_index, .. }
            | DeviceError::DeviceLost { op_index } => op_index,
        })
    };
    let mut held = Vec::new();
    let mut outcomes = Vec::new();
    let up = gpu.htod(&[1u32; 64]);
    outcomes.push(op_of(up.as_ref().map(|_| ()).map_err(Clone::clone)));
    for n in [100, 5_000, 20] {
        let buf = gpu.alloc::<u32>(n);
        outcomes.push(op_of(buf.as_ref().map(|_| ()).map_err(Clone::clone)));
        held.extend(buf);
    }
    if let Ok(up) = &up {
        outcomes.push(op_of(gpu.dtoh(up).map(|_| ())));
    }
    held.extend(up);
    held.into_iter().for_each(|b| gpu.free(b));
    (outcomes, gpu.stats().allocs - allocs)
}

#[test]
fn a_hit_draws_no_fault_and_counts_no_driver_call() {
    // Cold: five fallible operations, four of them cudaMallocs.
    let (clean, mallocs) = run_against_plan(Some(FaultPlan::seeded(0)), &[]);
    assert_eq!((clean.len(), mallocs), (5, 4));
    // Warm for 5 000 words: that request is a hit, so the plan sees four
    // operations and the driver three allocations.
    let (warm, mallocs) = run_against_plan(Some(FaultPlan::seeded(0)), &[5_000]);
    assert_eq!((warm, mallocs), (vec![Ok(()); 5], 3));

    // Operation 2 is the 5 000-word cudaMalloc on a cold pool...
    let oom = |k| Some(FaultPlan::seeded(0).fail_at(k, FaultKind::DeviceOom));
    let (cold, _) = run_against_plan(oom(2), &[]);
    assert_eq!(cold, [Ok(()), Ok(()), Err(u64::MAX), Ok(()), Ok(())]);
    // ...and stays it when other classes are warm or not: 64 words serve
    // neither the 100- nor the 20-word request.
    let (other, _) = run_against_plan(oom(2), &[64, 3_000_000]);
    assert_eq!(other, cold);
    // With that class warm the request is no driver call, and index 2 is
    // the next one: the 20-word cudaMalloc.
    let (warm, _) = run_against_plan(oom(2), &[5_000]);
    assert_eq!(warm, [Ok(()), Ok(()), Ok(()), Err(u64::MAX), Ok(())]);
    // A transfer fault pinned behind the allocations moves up with them.
    let dtoh = FaultKind::TransferError {
        dir: griffin_gpu_sim::TransferDir::DtoH,
    };
    let at = |k| Some(FaultPlan::seeded(0).fail_at(k, dtoh));
    assert_eq!(run_against_plan(at(4), &[]).0[4], Err(4));
    assert_eq!(run_against_plan(at(3), &[5_000]).0[4], Err(3));
}

#[test]
fn the_pool_is_trimmed_before_the_device_is_reported_full() {
    let cfg = DeviceConfig::test_tiny(); // 64 MiB
    let gpu = Gpu::new(cfg.clone());
    let mib = |n: usize| n * (1 << 20) / 4; // words
    let live = gpu.alloc::<u32>(mib(16)).unwrap();
    for _ in 0..2 {
        let scratch = [gpu.alloc::<u32>(mib(16)), gpu.alloc::<u32>(mib(8))];
        scratch.into_iter().for_each(|b| gpu.free(b.unwrap()));
    }
    assert_eq!((gpu.mem_in_use(), gpu.mem_cached()), (16 << 20, 24 << 20));
    assert_eq!(gpu.stats().pool.hits, 2);

    // 32 MiB more fit only once the 24 cached MiB are given back: two
    // cudaFrees, then the cudaMalloc.
    let t0 = gpu.now();
    let big = gpu.alloc::<u32>(mib(32)).unwrap();
    assert_eq!(
        (gpu.now() - t0).as_nanos(),
        2 * cfg.free_overhead_ns + cfg.malloc_overhead_ns
    );
    let s = gpu.stats();
    assert_eq!((s.frees, s.pool.trimmed, s.pool.cached_bytes), (2, 2, 0));
    assert_eq!(s.peak_bytes, 48 << 20);

    // An upload makes room the same way.
    gpu.free(big);
    assert_eq!(gpu.mem_cached(), 32 << 20);
    let up = gpu.htod(&vec![0u32; mib(40)]).unwrap();
    assert_eq!((gpu.mem_in_use(), gpu.mem_cached()), (56 << 20, 0));
    assert_eq!(gpu.stats().pool.trimmed, 3);
    gpu.free(up);

    // What does not fit even then fails as before, with the pool empty.
    let small = gpu.alloc::<u32>(100).unwrap();
    gpu.free(small);
    let t0 = gpu.now();
    let err = gpu.alloc::<u32>(mib(33)).unwrap_err(); // a 64 MiB block
    assert_eq!(
        err,
        DeviceError::DeviceOom {
            requested_bytes: 64 << 20,
            in_use_bytes: 16 << 20,
            capacity_bytes: 64 << 20,
        }
    );
    assert_eq!(
        (gpu.now() - t0).as_nanos(),
        cfg.free_overhead_ns + cfg.malloc_overhead_ns,
        "the trimmed block's cudaFree and the failed cudaMalloc"
    );
    assert_eq!((gpu.mem_in_use(), gpu.mem_cached()), (16 << 20, 0));
    gpu.free(live);
    gpu.trim_pool();
    assert_eq!(gpu.mem_in_use() + gpu.mem_cached(), 0);
}

/// Seeded alloc / upload / free / trim sequences, checked after every
/// operation against books kept here, and in total against the price of
/// the same sequence with no recycling.
#[test]
fn the_books_balance_and_recycling_never_costs_time() {
    let cfg = DeviceConfig::test_tiny();
    for seed in 0..24u64 {
        let gpu = Gpu::new(cfg.clone());
        // Handle, block bytes, and whether the block returns to the pool.
        let mut held: Vec<(DeviceBuffer<u32>, u64, bool)> = Vec::new();
        let (mut live, mut from_driver, mut returned) = (0u64, 0u64, 0u64);
        let mut cached: Vec<u64> = Vec::new();
        // Every request a cudaMalloc, every free a cudaFree.
        let mut unpooled_ns = 0u64;
        let (mut hits, mut misses) = (0u64, 0u64);
        for i in 0..400u64 {
            let r = mix(seed, i);
            // Few distinct sizes, so classes are revisited.
            let len = [0, 1, 3, 64, 100, 128, 1_000, 1_500, 40_000][(r >> 8) as usize % 9];
            match r % 8 {
                0..=2 => {
                    let bytes = block(len);
                    match cached.iter().position(|&b| b == bytes) {
                        Some(at) => {
                            cached.swap_remove(at);
                            hits += 1;
                        }
                        None => {
                            from_driver += bytes;
                            misses += 1;
                        }
                    }
                    held.push((gpu.alloc(len).unwrap(), bytes, true));
                    live += len as u64 * 4;
                    unpooled_ns += cfg.malloc_overhead_ns;
                }
                3 => {
                    let t0 = gpu.now();
                    held.push((gpu.htod(&vec![9u32; len]).unwrap(), len as u64 * 4, false));
                    live += len as u64 * 4;
                    from_driver += len as u64 * 4;
                    unpooled_ns += (gpu.now() - t0).as_nanos();
                }
                4..=6 if !held.is_empty() => {
                    let (buf, bytes, pooled) = held.swap_remove((r >> 20) as usize % held.len());
                    live -= buf.size_bytes();
                    gpu.free(buf);
                    if pooled {
                        cached.push(bytes);
                    } else {
                        returned += bytes;
                    }
                    unpooled_ns += cfg.free_overhead_ns;
                }
                7 if r >> 40 & 3 == 0 => {
                    gpu.trim_pool();
                    returned += cached.drain(..).sum::<u64>();
                }
                _ => {}
            }
            assert_eq!(gpu.mem_in_use(), live, "seed {seed} op {i}");
            assert_eq!(
                gpu.mem_in_use() + gpu.mem_cached(),
                from_driver - returned,
                "seed {seed} op {i}: live + cached is what the driver is owed"
            );
        }
        let pool = gpu.stats().pool;
        assert_eq!((pool.hits, pool.misses), (hits, misses), "seed {seed}");
        assert!(hits > 40, "seed {seed}: the sequence must recycle ({hits})");
        unpooled_ns += held.len() as u64 * cfg.free_overhead_ns;
        held.into_iter().for_each(|(buf, ..)| gpu.free(buf));
        gpu.trim_pool();
        assert_eq!(gpu.mem_in_use() + gpu.mem_cached(), 0, "seed {seed}");
        // A hit is cheaper than the cudaMalloc it replaces, and a trimmed
        // block pays no more than the cudaFree it was spared when cached.
        let pooled_ns = gpu.now().as_nanos();
        assert!(
            pooled_ns < unpooled_ns,
            "seed {seed}: {pooled_ns} ns recycling, {unpooled_ns} ns without"
        );
    }
}
