//! Contract tests of the simulator's programming model: phases persist
//! per-thread state across barriers, shared memory is block-coherent,
//! block-local atomics count correctly, sampled tracing extrapolates, and
//! the timing model responds to divergence and coalescing the way real
//! hardware would.

use griffin_gpu_sim::{DeviceBuffer, DeviceConfig, Gpu, Kernel, LaunchConfig, Op, ThreadCtx};

fn tiny() -> Gpu {
    Gpu::new(DeviceConfig::test_tiny())
}

/// Phase 0 writes shared memory; phase 1 reads a *different* thread's slot
/// (rotation) — only correct if the inter-phase barrier works.
struct RotateKernel {
    out: DeviceBuffer<u32>,
}

impl Kernel for RotateKernel {
    type State = ();
    fn phases(&self) -> usize {
        2
    }
    fn shared_mem_words(&self, bd: u32) -> usize {
        bd as usize
    }
    fn run_phase(&self, phase: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let tid = t.thread_idx as usize;
        if phase == 0 {
            t.st_shared(tid, tid as u32 * 10);
        } else {
            let neighbour = (tid + 1) % t.block_dim as usize;
            let v = t.ld_shared(neighbour);
            t.st(&self.out, t.global_thread_idx(), v);
        }
    }
}

#[test]
fn barrier_separated_shared_memory_rotation() {
    let gpu = tiny();
    let out = gpu.alloc::<u32>(64).unwrap();
    gpu.launch(&RotateKernel { out: out.clone() }, LaunchConfig::new(1, 64))
        .unwrap();
    let host = gpu.dtoh(&out).unwrap();
    for (tid, &v) in host.iter().enumerate() {
        assert_eq!(v, (((tid + 1) % 64) as u32) * 10);
    }
}

/// State persists across phases: accumulate in phase 0..2, emit in 3.
struct AccumKernel {
    out: DeviceBuffer<u32>,
}

#[derive(Default)]
struct Acc {
    sum: u32,
}

impl Kernel for AccumKernel {
    type State = Acc;
    fn phases(&self) -> usize {
        4
    }
    fn run_phase(&self, phase: usize, t: &mut ThreadCtx<'_>, s: &mut Acc) {
        if phase < 3 {
            s.sum += phase as u32 + 1; // 1 + 2 + 3
        } else {
            t.st(&self.out, t.global_thread_idx(), s.sum);
        }
    }
}

#[test]
fn per_thread_state_survives_barriers() {
    let gpu = tiny();
    let out = gpu.alloc::<u32>(128).unwrap();
    gpu.launch(&AccumKernel { out: out.clone() }, LaunchConfig::new(2, 64))
        .unwrap();
    assert!(gpu.dtoh(&out).unwrap().iter().all(|&v| v == 6));
}

/// Every thread atomically increments one shared counter; the total must
/// be exact and the returned "old" values must be a permutation of 0..n.
struct AtomicKernel {
    ranks: DeviceBuffer<u32>,
    total: DeviceBuffer<u32>,
}

impl Kernel for AtomicKernel {
    type State = ();
    fn phases(&self) -> usize {
        2
    }
    fn shared_mem_words(&self, _bd: u32) -> usize {
        1
    }
    fn run_phase(&self, phase: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        if phase == 0 {
            let rank = t.atomic_add_shared(0, 1);
            t.st(&self.ranks, t.global_thread_idx(), rank);
        } else if t.branch(t.thread_idx == 0) {
            let v = t.ld_shared(0);
            t.st(&self.total, t.block_idx as usize, v);
        }
    }
}

#[test]
fn block_local_atomics_are_exact() {
    let gpu = tiny();
    let ranks = gpu.alloc::<u32>(256).unwrap();
    let total = gpu.alloc::<u32>(2).unwrap();
    gpu.launch(
        &AtomicKernel {
            ranks: ranks.clone(),
            total: total.clone(),
        },
        LaunchConfig::new(2, 128),
    )
    .unwrap();
    assert_eq!(gpu.dtoh(&total).unwrap(), vec![128, 128]);
    let mut r = gpu.dtoh(&ranks).unwrap()[..128].to_vec();
    r.sort_unstable();
    assert_eq!(r, (0..128).collect::<Vec<u32>>());
}

/// Same functional kernel, divergent vs uniform branches: the divergent
/// variant must cost more virtual time.
struct BranchyKernel {
    out: DeviceBuffer<u32>,
    divergent: bool,
    n: usize,
}

impl Kernel for BranchyKernel {
    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if !t.branch(i < self.n) {
            return;
        }
        let cond = if self.divergent {
            i.is_multiple_of(2) // alternates within every warp
        } else {
            t.block_idx.is_multiple_of(2) // uniform within every warp
        };
        let mut acc = 0u32;
        for k in 0..64u32 {
            if t.branch(cond) {
                acc = acc.wrapping_add(k);
            } else {
                acc = acc.wrapping_mul(3).wrapping_add(1);
            }
            t.alu(1);
        }
        t.st(&self.out, i, acc);
    }
}

#[test]
fn divergence_costs_virtual_time() {
    let gpu = tiny();
    let n = 32 * 1024;
    let out = gpu.alloc::<u32>(n).unwrap();
    let t_uniform = gpu
        .launch(
            &BranchyKernel {
                out: out.clone(),
                divergent: false,
                n,
            },
            LaunchConfig::cover(n, 256),
        )
        .unwrap()
        .time;
    let t_divergent = gpu
        .launch(
            &BranchyKernel {
                out: out.clone(),
                divergent: true,
                n,
            },
            LaunchConfig::cover(n, 256),
        )
        .unwrap()
        .time;
    assert!(
        t_divergent.as_nanos() > t_uniform.as_nanos() * 3 / 2,
        "divergent {} vs uniform {}",
        t_divergent,
        t_uniform
    );
}

/// Coalesced vs strided global loads: strided must cost more.
struct LoadKernel {
    src: DeviceBuffer<u32>,
    out: DeviceBuffer<u32>,
    stride: usize,
    n: usize,
}

impl Kernel for LoadKernel {
    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if t.branch(i < self.n) {
            let idx = (i * self.stride) % self.src.len();
            let v = t.ld(&self.src, idx);
            t.st(&self.out, i, v);
        }
    }
}

#[test]
fn uncoalesced_access_costs_bandwidth() {
    let gpu = tiny();
    let n = 64 * 1024;
    let src = gpu.htod(&vec![7u32; n * 64]).unwrap();
    let out = gpu.alloc::<u32>(n).unwrap();
    let coalesced = gpu
        .launch(
            &LoadKernel {
                src: src.clone(),
                out: out.clone(),
                stride: 1,
                n,
            },
            LaunchConfig::cover(n, 256),
        )
        .unwrap()
        .time;
    let strided = gpu
        .launch(
            &LoadKernel {
                src: src.clone(),
                out: out.clone(),
                stride: 64, // one transaction per lane
                n,
            },
            LaunchConfig::cover(n, 256),
        )
        .unwrap()
        .time;
    assert!(
        strided.as_nanos() > coalesced.as_nanos() * 2,
        "strided {} vs coalesced {}",
        strided,
        coalesced
    );
}

/// Sampled tracing must agree (within tolerance) with full tracing on a
/// homogeneous workload.
struct CountKernel {
    out: DeviceBuffer<u32>,
    n: usize,
}

impl Kernel for CountKernel {
    type State = ();
    fn run_phase(&self, _p: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if t.branch(i < self.n) {
            t.op(Op::Alu, 10);
            t.op(Op::Mul, 3);
            t.st(&self.out, i, i as u32);
        }
    }
}

#[test]
fn trace_sampling_extrapolates_accurately() {
    let n = 200_000;
    let full_cfg = DeviceConfig::test_tiny();
    let sampled_cfg = DeviceConfig {
        trace_sample_stride: 32,
        ..DeviceConfig::test_tiny()
    };
    let mut times = Vec::new();
    let mut instr = Vec::new();
    for cfg in [full_cfg, sampled_cfg] {
        let gpu = Gpu::new(cfg);
        let out = gpu.alloc::<u32>(n).unwrap();
        let report = gpu
            .launch(&CountKernel { out, n }, LaunchConfig::cover(n, 256))
            .unwrap();
        times.push(report.time.as_nanos() as f64);
        instr.push(report.counters.ops[0] as f64);
    }
    let time_err = (times[0] - times[1]).abs() / times[0];
    let instr_err = (instr[0] - instr[1]).abs() / instr[0];
    assert!(time_err < 0.05, "time error {time_err}");
    assert!(instr_err < 0.05, "instruction-count error {instr_err}");
}

#[test]
fn packed_transfer_charges_one_latency() {
    let gpu = tiny();
    let parts: [Vec<u32>; 8] = std::array::from_fn(|i| vec![i as u32; 64]);
    let (t0, before) = (gpu.now(), gpu.stats());
    let bufs = gpu.htod_packed(parts.clone()).unwrap();
    let t_packed = gpu.now() - t0;
    // One driver allocation and one DMA carry every part's words.
    let after = gpu.stats();
    assert_eq!(after.allocs - before.allocs, 1);
    assert_eq!(after.htod_bytes - before.htod_bytes, 8 * 64 * 4);
    for (buf, part) in bufs.iter().zip(&parts) {
        assert_eq!(&gpu.dtoh(buf).unwrap(), part);
    }
    // Eight separate transfers would pay eight PCIe latencies.
    let t1 = gpu.now();
    for part in &parts {
        let b = gpu.htod(part).unwrap();
        gpu.free(b);
    }
    let t_individual = gpu.now() - t1;
    assert!(
        t_individual.as_nanos() > t_packed.as_nanos() * 3,
        "packed {} vs individual {}",
        t_packed,
        t_individual
    );
    for buf in bufs {
        gpu.free(buf);
    }
    assert_eq!(gpu.mem_in_use(), 0);
}

#[test]
fn launch_report_exposes_breakdown() {
    let gpu = tiny();
    let n = 10_000;
    let out = gpu.alloc::<u32>(n).unwrap();
    let report = gpu
        .launch(&CountKernel { out, n }, LaunchConfig::cover(n, 256))
        .unwrap();
    assert!(report.breakdown.total_ns >= report.breakdown.launch_overhead_ns);
    assert!(["compute", "memory", "latency"].contains(&report.breakdown.bound_by()));
    assert_eq!(
        report.config.total_threads() as usize,
        n.div_ceil(256) * 256
    );
    assert_eq!(report.counters.stores_applied, n as u64);
}
