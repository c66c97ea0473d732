//! A launch the device has run before under an equal key
//! ([`Kernel::memo_key`]) is replayed: no lane runs through the tracer,
//! every block goes to the native twin (or, declined, runs lane by lane
//! untraced), and the counters, the time and the clock come from the
//! first run. Checked on a kernel whose counters follow its input's
//! contents and whose two outputs may be one buffer.

use std::cell::Cell;

use crate::{
    BlockMem, DeviceBuffer, DeviceConfig, DeviceError, FaultKind, FaultPlan, Gpu, Kernel,
    LaunchConfig, LaunchKey, LaunchReport, ThreadCtx,
};

const GRID: u32 = 5;
const BLOCK: u32 = 64;
const N: usize = (GRID * BLOCK) as usize;

/// Thread `i` loops `(src[i] + bias[0]) % 7` times, then stores the count
/// to `out[i % 2][i]`: divergence follows the contents, and coalescing
/// whether the two outputs are one buffer. `bias` is uploaded after
/// `src`, so the replay entry lives with `bias` and a write to `src` is
/// seen through its stamp alone.
struct Steps {
    src: DeviceBuffer<u32>,
    bias: DeviceBuffer<u32>,
    out: [DeviceBuffer<u32>; 2],
    /// Whether the key declares `src` (a kernel that loads what it did not
    /// declare is caught in debug builds).
    declare_src: bool,
    /// Blocks the twin ran.
    native: Cell<u64>,
}

impl Steps {
    fn new([src, bias]: &[DeviceBuffer<u32>; 2], out: [DeviceBuffer<u32>; 2]) -> Steps {
        Steps {
            src: src.clone(),
            bias: bias.clone(),
            out,
            declare_src: true,
            native: Cell::new(0),
        }
    }
}

impl Kernel for Steps {
    type State = ();

    fn run_phase(&self, _phase: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        let v = t.ld(&self.src, i).wrapping_add(t.ld(&self.bias, 0));
        let mut k = 0;
        while t.branch(k < v % 7) {
            t.alu(1);
            k += 1;
        }
        t.st(&self.out[i % 2], i, k);
    }

    fn run_block_native(&self, block: u32, mem: &mut BlockMem<'_>) -> bool {
        self.native.set(self.native.get() + 1);
        let (src, bias) = (mem.words(&self.src), mem.words(&self.bias)[0]);
        let first = (block * BLOCK) as usize;
        let block = src.iter().enumerate().skip(first).take(BLOCK as usize);
        for (i, &v) in block {
            mem.st_run(&self.out[i % 2], i, &[v.wrapping_add(bias) % 7]);
        }
        true
    }

    fn memo_key(&self, key: &mut LaunchKey) -> bool {
        if self.declare_src {
            key.read(&self.src);
        }
        key.read(&self.bias);
        for out in &self.out {
            key.write(out);
        }
        true
    }
}

/// Writes `value + i` to `dst[i]`.
struct Fill {
    dst: DeviceBuffer<u32>,
    value: u32,
}

impl Kernel for Fill {
    type State = ();

    fn run_phase(&self, _phase: usize, t: &mut ThreadCtx<'_>, _s: &mut ()) {
        let i = t.global_thread_idx();
        if t.branch(i < self.dst.len()) {
            t.st(&self.dst, i, self.value + i as u32);
        }
    }
}

fn fill(gpu: &Gpu, dst: &DeviceBuffer<u32>, value: u32) {
    let fill = Fill {
        dst: dst.clone(),
        value,
    };
    gpu.launch(&fill, LaunchConfig::cover(dst.len(), 64))
        .unwrap();
}

fn device(stride: u32) -> Gpu {
    Gpu::new(DeviceConfig {
        trace_sample_stride: stride,
        ..DeviceConfig::test_tiny()
    })
}

/// `src`, then `bias` (zero).
fn inputs(gpu: &Gpu, src: &[u32]) -> [DeviceBuffer<u32>; 2] {
    [gpu.htod(src).unwrap(), gpu.htod(&[0u32]).unwrap()]
}

fn drawn(salt: u32) -> Vec<u32> {
    (0..N as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) ^ salt)
        .collect()
}

fn outputs(gpu: &Gpu) -> [DeviceBuffer<u32>; 2] {
    [(); 2].map(|()| gpu.alloc::<u32>(N).unwrap())
}

/// Launches `kernel` and returns its report, the virtual time the launch
/// took and how many blocks its twin ran.
fn launch(gpu: &Gpu, kernel: &Steps) -> (Result<LaunchReport, DeviceError>, u64, u64) {
    let (start, native) = (gpu.now(), kernel.native.get());
    let report = gpu.launch(kernel, LaunchConfig::new(GRID, BLOCK));
    let took = (gpu.now() - start).as_nanos();
    (report, took, kernel.native.get() - native)
}

/// The report of a launch over `src` on a fresh device.
fn fresh_report(stride: u32, src: &[u32], aliased: bool) -> LaunchReport {
    let gpu = device(stride);
    let inputs = inputs(&gpu, src);
    let out = outputs(&gpu);
    let out = if aliased {
        [out[0].clone(), out[0].clone()]
    } else {
        out
    };
    launch(&gpu, &Steps::new(&inputs, out)).0.unwrap()
}

#[test]
fn a_launch_seen_before_is_replayed_with_the_same_report_and_stores() {
    for stride in [1, 16, u32::MAX] {
        let gpu = device(stride);
        let inputs = inputs(&gpu, &drawn(7));
        let first = Steps::new(&inputs, outputs(&gpu));
        let (report, took, native) = launch(&gpu, &first);
        let report = report.unwrap();
        if stride == 1 {
            assert_eq!(native, 0, "a first run at stride 1 traces every block");
        }
        let second = Steps::new(&inputs, outputs(&gpu));
        let (replayed, replay_took, replay_native) = launch(&gpu, &second);
        let replayed = replayed.unwrap();
        assert_eq!(
            replay_native,
            u64::from(GRID),
            "stride {stride}: every block replays"
        );
        assert_eq!(replayed.counters, report.counters, "stride {stride}");
        assert_eq!(replayed.time, report.time, "stride {stride}");
        assert_eq!(replay_took, took, "stride {stride}");
        for (a, b) in first.out.iter().zip(&second.out) {
            assert_eq!(
                gpu.dtoh(a).unwrap(),
                gpu.dtoh(b).unwrap(),
                "stride {stride}"
            );
        }
    }
}

/// `src` is rewritten between two launches; the entry lives with `bias`,
/// which is not. Mutation that fails it: `WriteLog::apply` not renewing
/// the stamp of the buffer a run lands in (the third launch replays the
/// first's counters).
#[test]
fn a_launch_whose_input_was_written_since_is_not_replayed() {
    for stride in [1, 16] {
        let gpu = device(stride);
        let inputs = inputs(&gpu, &drawn(7));
        launch(&gpu, &Steps::new(&inputs, outputs(&gpu))).0.unwrap();
        fill(&gpu, &inputs[0], 3);
        let again = Steps::new(&inputs, outputs(&gpu));
        let (report, _, native) = launch(&gpu, &again);
        let filled: Vec<u32> = (0..N as u32).map(|i| 3 + i).collect();
        let want = fresh_report(stride, &filled, false);
        if stride == 1 {
            assert_eq!(native, 0, "not replayed");
        }
        assert_eq!(report.unwrap().counters, want.counters, "stride {stride}");
        let out = [0, 1].map(|b| gpu.dtoh(&again.out[b]).unwrap());
        assert!(
            (0..N).all(|i| out[i % 2][i] == filled[i] % 7),
            "stride {stride}"
        );
    }
}

/// Mutation that fails it: the key leaving out which declared handles
/// name one buffer (the aliased launch replays the unaliased one's
/// transactions).
#[test]
fn which_declared_handles_name_one_buffer_is_part_of_the_key() {
    let words: Vec<u32> = (0..N as u32).collect();
    let apart = fresh_report(1, &words, false);
    let aliased = fresh_report(1, &words, true);
    assert_ne!(
        apart.counters.gmem_transactions, aliased.counters.gmem_transactions,
        "one buffer or two coalesce differently"
    );
    let gpu = device(1);
    let inputs = inputs(&gpu, &words);
    launch(&gpu, &Steps::new(&inputs, outputs(&gpu))).0.unwrap();
    let out = gpu.alloc::<u32>(N).unwrap();
    let (report, _, _) = launch(&gpu, &Steps::new(&inputs, [out.clone(), out]));
    assert_eq!(report.unwrap().counters, aliased.counters);
}

#[test]
fn a_replayed_launch_that_faults_stores_nothing_and_charges_its_time() {
    let gpu = device(16);
    let inputs = inputs(&gpu, &drawn(1));
    let (report, took, _) = launch(&gpu, &Steps::new(&inputs, outputs(&gpu)));
    let report = report.unwrap();
    let doomed = Steps::new(&inputs, outputs(&gpu));
    gpu.set_fault_plan(Some(
        FaultPlan::seeded(0).fail_at(0, FaultKind::KernelLaunchFailed),
    ));
    let (err, charged, native) = launch(&gpu, &doomed);
    gpu.set_fault_plan(None);
    assert_eq!(
        err.unwrap_err(),
        DeviceError::KernelLaunchFailed { op_index: 0 }
    );
    assert_eq!(native, u64::from(GRID), "it replayed");
    assert_eq!(charged, took);
    assert_eq!(charged, report.time.as_nanos());
    for out in &doomed.out {
        assert!(gpu.dtoh(out).unwrap().iter().all(|&w| w == 0));
    }
}

#[test]
fn an_entry_lives_in_the_slot_of_the_youngest_buffer_it_reads() {
    let gpu = device(16);
    let inputs = inputs(&gpu, &drawn(2));
    let [src, bias] = &inputs;
    let entries = |buf: &DeviceBuffer<u32>| gpu.lock_pool().bufs[buf.id.0 as usize].memo.len();
    launch(&gpu, &Steps::new(&inputs, outputs(&gpu))).0.unwrap();
    launch(&gpu, &Steps::new(&inputs, outputs(&gpu))).0.unwrap();
    assert_eq!((entries(src), entries(bias)), (0, 1), "one key, one entry");
    fill(&gpu, bias, 0);
    assert_eq!(entries(bias), 0, "a write drops the entries kept with it");
    launch(&gpu, &Steps::new(&inputs, outputs(&gpu))).0.unwrap();
    assert_eq!(entries(bias), 1);
    let id = bias.id;
    gpu.free(bias.clone());
    assert!(gpu.lock_pool().bufs[id.0 as usize].memo.is_empty());
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "did not declare")]
fn a_declaring_kernel_that_loads_what_it_did_not_declare_panics_in_debug_builds() {
    let gpu = device(16);
    let mut kernel = Steps::new(&inputs(&gpu, &drawn(3)), outputs(&gpu));
    kernel.declare_src = false;
    let _ = gpu.launch(&kernel, LaunchConfig::new(GRID, BLOCK));
}
