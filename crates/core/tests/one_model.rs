//! One cost model per scheduler. On a fresh engine — the paper's device
//! and the tiny test device, each with no copy engine and with its own
//! count — the work floor, the split solver and the residency override
//! all read `scheduler.model`, and that model is the device's own.
//!
//! Restoring the hand-set 8 192 floor on a serial device fails the floor
//! assertion; solving splits or pricing residency with a second model
//! built for the other overlap mode fails the sweep.

use griffin::{CostModel, Decision, Griffin, Proc, Residency};
use griffin_codec::Codec;
use griffin_gpu_sim::{DeviceConfig, Gpu};
use griffin_index::InvertedIndex;

/// What the residency override must do to `baseline`, priced with
/// `model` alone: `None` when the baseline stands.
fn expected_override(
    model: &CostModel,
    baseline: Decision,
    short: usize,
    long: usize,
    residency: Residency,
) -> Option<Decision> {
    match baseline {
        Decision::Gpu if residency.host_cached && !residency.device_cached => {
            let cpu = model.cpu_intersect_host_resident_ns(short, long);
            (cpu < model.gpu_step_ns(long)).then_some(Decision::Cpu)
        }
        Decision::Cpu if residency.device_cached && !residency.host_cached => {
            let gpu = model.gpu_step_device_resident_ns(long);
            (gpu < model.cpu_intersect_ns(short, long)).then_some(Decision::Gpu)
        }
        Decision::Split { gpu_fraction } if residency.host_cached => {
            let f = model.split_fraction_host_resident(short, long);
            if f <= 0.01 {
                Some(Decision::Cpu)
            } else if f >= 0.99 {
                Some(Decision::Gpu)
            } else {
                ((f - gpu_fraction).abs() > 1e-9).then_some(Decision::Split { gpu_fraction: f })
            }
        }
        _ => None,
    }
}

#[test]
fn the_floor_the_split_and_the_residency_flip_read_one_model() {
    let index = InvertedIndex::from_docid_lists(&[vec![1, 2, 3]], 8, Codec::EliasFano, 128);
    let host = Residency {
        host_cached: true,
        device_cached: false,
    };
    let device = Residency {
        host_cached: false,
        device_cached: true,
    };
    for base in [DeviceConfig::tesla_k20(), DeviceConfig::test_tiny()] {
        for copy_engines in [base.copy_engines, 0] {
            let cfg = DeviceConfig {
                copy_engines,
                ..base.clone()
            };
            let ctx = format!("{} copy_engines={copy_engines}", cfg.name);
            let gpu = Gpu::new(cfg.clone());
            let engine = Griffin::new(&gpu, index.meta(), index.block_len());
            let s = &engine.scheduler;
            let model = s.model.expect("an engine's scheduler has a model");
            assert_eq!(model, CostModel::from_device(&cfg), "{ctx}");
            assert_eq!(model.overlap, copy_engines > 0, "{ctx}");
            assert_eq!(s.min_gpu_work, model.min_profitable_long_len(), "{ctx}");

            let (mut splits, mut flips) = (0, 0);
            for long in (8..=22).map(|lg| 1usize << lg) {
                for short in (0..=12).map(|r| (long >> r).max(1)) {
                    let blind = s.decide_traced(short, long, Proc::Cpu);
                    if let Decision::Split { gpu_fraction } = blind.chosen {
                        assert_eq!(
                            gpu_fraction.to_bits(),
                            model.split_fraction(short, long).to_bits(),
                            "{ctx}: split fraction at ({short}, {long})"
                        );
                        splits += 1;
                    }
                    for residency in [host, device] {
                        let r = s.decide_traced_resident(short, long, Proc::Cpu, residency);
                        let expect =
                            expected_override(&model, blind.chosen, short, long, residency);
                        assert_eq!(
                            (r.chosen, r.cache_flip),
                            (expect.unwrap_or(blind.chosen), expect.is_some()),
                            "{ctx}: residency {residency:?} at ({short}, {long})"
                        );
                        flips += usize::from(r.cache_flip);
                    }
                }
            }
            assert!(splits > 0, "{ctx}: the sweep emitted no split");
            assert!(flips > 0, "{ctx}: the sweep emitted no residency flip");
            engine.gpu.shutdown();
        }
    }
}
