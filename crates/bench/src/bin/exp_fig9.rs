//! **Fig. 9** — the block-skipping argument behind the ratio-128 rule,
//! measured empirically.
//!
//! Paper §3.2: when λ = |S|/|R| exceeds the block size, the short list has
//! fewer elements than the long list has blocks, so skippable blocks are
//! *guaranteed*. This binary counts the blocks the CPU's skip search
//! actually decoded per ratio band — the fraction skipped should rise
//! through ~0 at λ ≈ block size toward ~1.

use griffin_bench::report::Table;
use griffin_bench::setup::scaled;
use griffin_bench::Artifacts;
use griffin_codec::{BlockedList, Codec, DEFAULT_BLOCK_LEN};
use griffin_cpu::intersect::skip_intersect;
use griffin_cpu::WorkCounters;
use griffin_workload::{gen_ratio_pair, RATIO_GROUPS};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let artifacts = Artifacts::from_args();
    let telemetry = artifacts.telemetry();
    let mut rng = StdRng::seed_from_u64(9);
    let pairs = scaled(4);
    let mut t = Table::new(
        "Fig. 9: Skippable Blocks by Ratio (skip search, 128-elt blocks)",
        &[
            "ratio group",
            "blocks total",
            "blocks decoded",
            "skipped %",
            "guaranteed?",
        ],
    );
    for group in RATIO_GROUPS {
        let mut total_blocks = 0u64;
        let mut decoded = 0u64;
        let mut short_len_sum = 0usize;
        for _ in 0..pairs {
            let (short, long) = gen_ratio_pair(&mut rng, group, 400_000, 0.3, 20_000_000);
            let compressed = BlockedList::compress(&long, Codec::PforDelta, DEFAULT_BLOCK_LEN);
            let mut w = WorkCounters::default();
            skip_intersect(
                &short,
                &compressed,
                0..compressed.num_blocks(),
                None,
                &mut w,
            );
            for (name, v) in w.named() {
                telemetry.counter_add(&format!("griffin_cpu_work_total{{counter=\"{name}\"}}"), v);
            }
            total_blocks += compressed.num_blocks() as u64;
            decoded += w.blocks_decoded;
            short_len_sum += short.len();
        }
        // The paper's guarantee: |R| < #blocks(S) forces skippable blocks.
        let guaranteed = (short_len_sum / pairs) < (total_blocks / pairs as u64) as usize;
        // Latest wins: the snapshot keeps the highest-ratio group.
        artifacts.snapshot_metric(
            "blocks_skipped_pct",
            100.0 * (1.0 - decoded as f64 / total_blocks as f64),
        );
        t.row(&[
            group.label(),
            (total_blocks / pairs as u64).to_string(),
            (decoded / pairs as u64).to_string(),
            format!(
                "{:.1}",
                100.0 * (1.0 - decoded as f64 / total_blocks as f64)
            ),
            if guaranteed {
                "yes (|R| < #blocks)"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    t.print();
    artifacts.write_table(&t);
    artifacts.write_snapshot("exp_fig9");
    artifacts.write_metrics(&telemetry);
    artifacts.write_trace(&telemetry);
    println!("\n(§3.2: above λ = 128 skipping is guaranteed; below it, skipping");
    println!(" still happens on clustered data but is not guaranteed)");
}
