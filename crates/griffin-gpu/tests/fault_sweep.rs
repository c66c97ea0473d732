//! Exhaustive fault-position sweep over the device drivers.
//!
//! For each driver: count the fallible device operations (driver
//! allocations, uploads, launches, read-backs) of a clean run on a cold
//! allocator pool, then fail each of them in turn, with each transient
//! fault kind, and require that
//!
//! * the call reports the fault,
//! * the live device memory is back at its pre-call value,
//! * the inputs the driver only borrowed still read back intact,
//! * a retry, on the warm pool the faulted call left behind, returns the
//!   clean run's bits, and
//! * once the pool is trimmed the device holds what it held before the
//!   call (a zero-length buffer has no live bytes, but it does hold a
//!   block).
//!
//! The second and last bullets are what `griffin_gpu_sim::Scope` buys. A
//! mutation that fails them: in `GpuEngine::intersect_step`, `keep` the
//! scores buffer right after allocating it instead of at the return — a
//! fault in the accumulate launch then leaves it allocated
//! (`intersect_step/merge_path` at its last index,
//! `intersect_step/binary_search` at its last two). One in the allocator
//! that fails the last: `Pool::free` putting an upload's buffer on a free
//! list as if it were scratch — the list image a faulted upload rolls back
//! is then trimmed at a size it was never obtained at.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use griffin_codec::Codec;
use griffin_gpu::mergepath::MergePathConfig;
use griffin_gpu::{
    bucket_select, mergepath, para_ef, radix_sort, DeviceIntermediate, DevicePostings, GpuEngine,
    GpuError,
};
use griffin_gpu_sim::{
    DeviceBuffer, DeviceConfig, DeviceEvent, FaultKind, FaultPlan, Gpu, TransferDir,
};
use griffin_index::{CompressedPostingList, CorpusMeta, Posting};

const BLOCK_LEN: usize = 128;

const TRANSIENT: [FaultKind; 4] = [
    FaultKind::KernelLaunchFailed,
    FaultKind::TransferError {
        dir: TransferDir::HtoD,
    },
    FaultKind::TransferError {
        dir: TransferDir::DtoH,
    },
    FaultKind::DeviceOom,
];

/// Fallible operations `f` issues on a clean device: every driver
/// allocation and upload bumps `stats().allocs` once (a request the pool
/// serves is not one), every launch and every read-back is one observer
/// event.
fn count_ops<T>(gpu: &Gpu, f: impl FnOnce() -> T) -> (T, u64) {
    let events = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&events);
    gpu.set_observer(Some(Arc::new(move |e: &DeviceEvent<'_>| {
        let counted = match e {
            DeviceEvent::KernelLaunch { .. } => true,
            DeviceEvent::Transfer { direction, .. } => *direction == TransferDir::DtoH,
        };
        seen.fetch_add(u64::from(counted), Ordering::Relaxed);
    })));
    let allocs = gpu.stats().allocs;
    let out = f();
    gpu.set_observer(None);
    let ops = gpu.stats().allocs - allocs + events.load(Ordering::Relaxed);
    (out, ops)
}

/// The kernels `f` launches on a clean device, in order.
fn launched<T>(gpu: &Gpu, f: impl FnOnce() -> T) -> Vec<&'static str> {
    let names = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&names);
    gpu.set_observer(Some(Arc::new(move |e: &DeviceEvent<'_>| {
        if let DeviceEvent::KernelLaunch { name, .. } = e {
            seen.lock().unwrap().push(*name);
        }
    })));
    f();
    gpu.set_observer(None);
    let names = names.lock().unwrap().clone();
    names
}

fn read(gpu: &Gpu, bufs: &[&DeviceBuffer<u32>]) -> Vec<Vec<u32>> {
    bufs.iter()
        .map(|b| gpu.dtoh(b).expect("no plan installed"))
        .collect()
}

/// The sweep. `call` is the driver under test; `finish` turns its device
/// result into host bits and frees it (run with no plan installed, so its
/// transfers are not part of the count).
fn sweep<R, O: PartialEq + std::fmt::Debug>(
    name: &str,
    gpu: &Gpu,
    inputs: &[&DeviceBuffer<u32>],
    call: impl Fn() -> Result<R, GpuError>,
    finish: impl Fn(R) -> O,
) {
    // A cold pool: every scratch request of the counted run is a driver
    // call, so every one of them can be faulted.
    gpu.trim_pool();
    let before = gpu.mem_in_use();
    let held = before + gpu.mem_cached();
    let intact = read(gpu, inputs);
    let timed = |tag: &str| {
        let t0 = gpu.now();
        let out = call().expect(tag);
        gpu.sync();
        (out, gpu.now() - t0)
    };
    let ((clean, cold_time), ops) = count_ops(gpu, || timed("clean run"));
    let clean = finish(clean);
    assert_eq!(gpu.mem_in_use(), before, "{name}: the clean run's result");
    assert!(ops > 0, "{name}: nothing to fault");
    println!("{name}: {ops} fallible operations");
    // The same call on the pool that run left warm: the same bits, and no
    // later (sooner, if the call uses any scratch).
    let (warm, warm_time) = timed("warm run");
    assert_eq!(finish(warm), clean, "{name}: warm pool");
    assert!(
        warm_time <= cold_time,
        "{name}: {warm_time:?} warm, {cold_time:?} cold"
    );

    for k in 0..ops {
        for kind in TRANSIENT {
            gpu.trim_pool();
            gpu.set_fault_plan(Some(FaultPlan::seeded(0).fail_at(k, kind)));
            let faulted = call();
            gpu.set_fault_plan(None);
            assert!(faulted.is_err(), "{name}: op {k} of {ops} never ran");
            assert_eq!(
                gpu.mem_in_use(),
                before,
                "{name}: {kind:?} at op {k} of {ops} left a live buffer behind"
            );
            assert_eq!(read(gpu, inputs), intact, "{name}: inputs after op {k}");
            // The retry finds the blocks the faulted call gave back.
            let retried = finish(call().expect("retry"));
            assert_eq!(retried, clean, "{name}: retry after {kind:?} at op {k}");
            gpu.trim_pool();
            assert_eq!(
                gpu.mem_in_use() + gpu.mem_cached(),
                held,
                "{name}: {kind:?} at op {k} of {ops} left device memory behind"
            );
        }
    }
    // One past the last operation nothing fires: the count is exact.
    gpu.trim_pool();
    gpu.set_fault_plan(Some(
        FaultPlan::seeded(0).fail_at(ops, FaultKind::KernelLaunchFailed),
    ));
    let past = call();
    gpu.set_fault_plan(None);
    assert_eq!(finish(past.expect("no op at the count")), clean, "{name}");
}

fn list(n: u32, stride: u32, offset: u32) -> CompressedPostingList {
    let ps: Vec<Posting> = (0..n)
        .map(|i| Posting {
            docid: i * stride + offset,
            tf: 1 + i % 300,
        })
        .collect();
    CompressedPostingList::compress(&ps, Codec::EliasFano, BLOCK_LEN)
}

fn postings(gpu: &Gpu, n: u32, stride: u32, offset: u32) -> DevicePostings {
    DevicePostings::upload(gpu, &list(n, stride, offset), n).expect("upload")
}

fn buffers(p: &DevicePostings) -> [&DeviceBuffer<u32>; 8] {
    let d = &p.docs;
    [
        &d.words,
        &d.block_word_start,
        &d.block_elem_start,
        &d.block_base,
        &d.skip_first,
        &d.skip_last,
        &p.tf_words,
        &p.tf_offsets,
    ]
}

fn engine(gpu: &Gpu) -> GpuEngine<'_> {
    // Per-document lengths, so the scoring kernels read the table too.
    let doc_lens = (0..60_000u32).map(|d| 80 + d % 40).collect();
    GpuEngine::new(gpu, &CorpusMeta::from_doc_lens(doc_lens))
}

/// (docids, score bits), freeing the intermediate.
fn drain(gpu: &Gpu, inter: DeviceIntermediate) -> (Vec<u32>, Vec<u32>) {
    let out = (
        gpu.dtoh_prefix(&inter.docids, inter.len).unwrap(),
        gpu.dtoh_prefix(&inter.scores.cast::<u32>(), inter.len)
            .unwrap(),
    );
    inter.free(gpu);
    out
}

/// The two DMAs of a list upload: a fault in the second rolls the first
/// back, and what it rolls back never was the pool's.
#[test]
fn upload_at_every_fault_position() {
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let list = list(1_000, 7, 3);
    sweep(
        "DevicePostings::upload",
        &gpu,
        &[],
        || DevicePostings::upload(&gpu, &list, 1_000),
        |dev| {
            let image = read(&gpu, &buffers(&dev));
            dev.free(&gpu);
            image
        },
    );
    assert_eq!(gpu.mem_in_use(), 0);
}

#[test]
fn init_intermediate_at_every_fault_position() {
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let engine = engine(&gpu);
    let first = postings(&gpu, 1_000, 7, 3);
    sweep(
        "init_intermediate",
        &gpu,
        &buffers(&first),
        || engine.init_intermediate(&first),
        |inter| drain(&gpu, inter),
    );
    first.free(&gpu);
    engine.shutdown();
    assert_eq!(gpu.mem_in_use(), 0);
}

#[test]
fn intersect_step_at_every_fault_position_under_both_strategies() {
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let engine = engine(&gpu);
    let long = postings(&gpu, 9_000, 3, 0);
    // 400 against 9 000 is 22×, under the step's 128× switch to binary
    // search; 60 against it is 150×.
    let near = postings(&gpu, 400, 21, 0);
    let far = postings(&gpu, 60, 441, 0);
    let near_inter = engine.init_intermediate(&near).unwrap();
    let far_inter = engine.init_intermediate(&far).unwrap();
    for (name, inter, kernel) in [
        ("intersect_step/merge_path", &near_inter, "mergepath.merge"),
        (
            "intersect_step/binary_search",
            &far_inter,
            "gpu_binary.skip_search",
        ),
    ] {
        let mut inputs = buffers(&long).to_vec();
        let scores = inter.scores.cast::<u32>();
        inputs.extend([&inter.docids, &scores]);
        let kernels = launched(&gpu, || {
            let next = engine.intersect_step(inter, &long, BLOCK_LEN).unwrap();
            next.free(&gpu);
        });
        assert!(kernels.contains(&kernel), "{name}: {kernels:?}");
        sweep(
            name,
            &gpu,
            &inputs,
            || engine.intersect_step(inter, &long, BLOCK_LEN),
            |next| {
                let out = drain(&gpu, next);
                assert!(!out.0.is_empty(), "{name}: the sweep needs matches");
                out
            },
        );
    }
    // A side with nothing in it takes the two-allocation early exit.
    let nothing = postings(&gpu, 0, 1, 0);
    let mut inputs = buffers(&long).to_vec();
    let scores = near_inter.scores.cast::<u32>();
    inputs.extend([&near_inter.docids, &scores]);
    sweep(
        "intersect_step/empty",
        &gpu,
        &inputs,
        || engine.intersect_step(&near_inter, &nothing, BLOCK_LEN),
        |next| drain(&gpu, next),
    );
    nothing.free(&gpu);
    near_inter.free(&gpu);
    far_inter.free(&gpu);
    near.free(&gpu);
    far.free(&gpu);
    long.free(&gpu);
    engine.shutdown();
    assert_eq!(gpu.mem_in_use(), 0);
}

#[test]
fn decode_postings_at_every_fault_position() {
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let list = postings(&gpu, 3_000, 5, 1);
    sweep(
        "para_ef::decode_postings",
        &gpu,
        &buffers(&list),
        || Ok(para_ef::decode_postings(&gpu, &list)?),
        |(docids, tfs)| {
            let out = read(&gpu, &[&docids, &tfs]);
            gpu.free(docids);
            gpu.free(tfs);
            out
        },
    );
    list.free(&gpu);
    assert_eq!(gpu.mem_in_use(), 0);
}

#[test]
fn mergepath_with_an_empty_side_at_every_fault_position() {
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let a = gpu.htod(&[1u32, 2, 3]).unwrap();
    let b = gpu.alloc::<u32>(0).unwrap();
    let cfg = MergePathConfig::for_device(gpu.config());
    sweep(
        "mergepath::intersect/empty",
        &gpu,
        &[&a, &b],
        || Ok(mergepath::intersect(&gpu, &a, 3, &b, 0, &cfg)?),
        |m| {
            let len = m.len;
            m.free(&gpu);
            len
        },
    );
    gpu.free(a);
    gpu.free(b);
    assert_eq!(gpu.mem_in_use(), 0);
}

#[test]
fn rankers_at_every_fault_position() {
    let gpu = Gpu::new(DeviceConfig::test_tiny());
    let n = 700usize;
    let docids = gpu.htod(&(0..n as u32).collect::<Vec<_>>()).unwrap();
    // Ties at every level, so bucket select descends and takes its tie pass.
    let score_of = |i: usize| ((i * 37) % 101) as f32 * 0.25;
    let scores = gpu.htod(&(0..n).map(score_of).collect::<Vec<_>>()).unwrap();
    let inputs = [&docids, &scores.cast::<u32>()];
    let bits = |top: Vec<(u32, f32)>| -> Vec<(u32, u32)> {
        top.into_iter().map(|(d, s)| (d, s.to_bits())).collect()
    };
    sweep(
        "radix_sort::top_k_by_sort",
        &gpu,
        &inputs,
        || Ok(radix_sort::top_k_by_sort(&gpu, &docids, &scores, n, 40)?),
        bits,
    );
    sweep(
        "bucket_select::top_k_by_bucket_select",
        &gpu,
        &inputs,
        || {
            Ok(bucket_select::top_k_by_bucket_select(
                &gpu, &docids, &scores, n, 40,
            )?)
        },
        bits,
    );
    gpu.free(docids);
    gpu.free(scores);
    assert_eq!(gpu.mem_in_use(), 0);
}
