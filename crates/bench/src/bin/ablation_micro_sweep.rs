//! Ablation — micro-batch count sweep (pipeline bubble amortization).
//!
//! §5.1 trains M6-10B with 35 micro batches. This sweep shows why: bubbles
//! shrink as `(S−1)/(S−1+M)` while activation memory grows with the warm-up
//! depth, so throughput saturates.

use whale::{models, strategies, Session};
use whale_bench::{fmt_secs, header};

fn main() {
    header(
        "Ablation",
        "micro-batch sweep for an 8-stage BERT-Large pipeline",
    );
    println!(
        "\n  {:>7} {:>12} {:>14} {:>10} {:>14}",
        "micros", "step", "throughput", "bubble", "peak memory"
    );
    for micros in [1usize, 2, 4, 8, 16, 35, 64] {
        let session = Session::on_cluster("1x(8xV100)").unwrap();
        let batch = 128;
        let ir = strategies::pipeline_only(models::bert_large(batch, 128).unwrap(), batch, micros)
            .unwrap();
        let plan = session.plan(&ir).unwrap();
        let out = session.step_plan(&plan).unwrap();
        let peak = out
            .stats
            .per_gpu
            .iter()
            .map(|g| g.mem_bytes)
            .max()
            .unwrap_or(0);
        println!(
            "  {:>7} {:>12} {:>11.1}/s {:>9.1}% {:>11.1} GiB",
            micros,
            fmt_secs(out.stats.step_time),
            out.stats.throughput,
            out.stats.bubble_ratio() * 100.0,
            peak as f64 / (1u64 << 30) as f64
        );
    }
    println!("\n  expected shape: bubble falls roughly as (S-1)/(S-1+M); throughput");
    println!("  saturates past M ≈ 4·S, which is why the paper settles at 35.");
}
