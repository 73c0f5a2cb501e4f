//! Ablation — backward-first (1F1B) vs GPipe-flush scheduling (§4,
//! "TaskGraph Schedule", Fig. 12).
//!
//! Backward-first is a *memory* optimization: makespans are nearly equal,
//! but GPipe must hold all M micro-batch activations on every stage while
//! backward-first holds at most `min(S−s, M)`.

use whale::{models, strategies, ScheduleKind, Session};
use whale_bench::{fmt_secs, header};

fn main() {
    header(
        "Ablation",
        "backward-first (1F1B) vs GPipe flush: time and memory",
    );
    println!(
        "\n  {:>7} {:>14} {:>14} {:>16} {:>16}",
        "micros", "1F1B step", "GPipe step", "1F1B peak mem", "GPipe peak mem"
    );
    for micros in [4usize, 8, 16, 32] {
        let mut row = Vec::new();
        for schedule in [ScheduleKind::BackwardFirst, ScheduleKind::GPipe] {
            let session = Session::on_cluster("1x(8xV100)")
                .unwrap()
                .schedule(schedule);
            let ir = strategies::pipeline_only(models::bert_large(128, 128).unwrap(), 128, micros)
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
            row.push((out.stats.step_time, peak));
        }
        println!(
            "  {:>7} {:>14} {:>14} {:>13.1} GiB {:>13.1} GiB",
            micros,
            fmt_secs(row[0].0),
            fmt_secs(row[1].0),
            row[0].1 as f64 / (1u64 << 30) as f64,
            row[1].1 as f64 / (1u64 << 30) as f64,
        );
    }
    println!("\n  expected shape: step times stay within a few percent; GPipe peak");
    println!("  memory grows linearly with the micro-batch count while 1F1B's is");
    println!("  bounded by the pipeline depth — exactly why Whale defaults to 1F1B.");
}
