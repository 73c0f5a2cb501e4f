//! Breaking the memory wall: recompute + AMP + ZeRO + offload (§4).
//!
//! Run with: `cargo run --example memory_wall`
//!
//! Shows the per-GPU memory bars for BERT-Large data parallelism as each of
//! Whale's integrated memory optimizations is switched on, ending with a
//! 10-billion-parameter dense replica fitting a single 32 GB V100.

use whale::{models, strategies, Optimizer, Session, TrainingConfig, ZeroStage};
use whale_sim::memory_profile;

fn show(label: &str, training: TrainingConfig) -> whale::Result<()> {
    let session = Session::on_cluster("1x(4xV100)")?.training(training);
    let batch = 128;
    let ir = strategies::data_parallel(models::bert_large(batch, 128).unwrap(), batch)?;
    let plan = session.plan(&ir)?;
    println!("{label}:");
    print!("{}", memory_profile(&plan, session.cluster(), 48)?);
    println!();
    Ok(())
}

fn main() -> whale::Result<()> {
    let base = TrainingConfig {
        optimizer: Optimizer::Adam,
        ..TrainingConfig::default()
    };
    show("baseline (Adam, fp32, full activations)", base)?;
    show(
        "recompute + AMP",
        TrainingConfig {
            recompute: true,
            amp: true,
            ..base
        },
    )?;
    show(
        "recompute + AMP + ZeRO-2",
        TrainingConfig {
            recompute: true,
            amp: true,
            zero: ZeroStage::Gradients,
            ..base
        },
    )?;
    show(
        "recompute + AMP + ZeRO-3 + offload",
        TrainingConfig {
            recompute: true,
            amp: true,
            zero: ZeroStage::Parameters,
            offload: true,
            ..base
        },
    )?;

    // The finale: M6-10B data-parallel on plain V100s.
    let stack = TrainingConfig {
        optimizer: Optimizer::Adafactor,
        recompute: true,
        amp: true,
        zero: ZeroStage::Parameters,
        offload: true,
        ..TrainingConfig::default()
    };
    let session = Session::on_cluster("1x(8xV100)")?.training(stack);
    let ir = strategies::data_parallel(models::m6_10b(32).unwrap(), 32)?;
    let plan = session.plan(&ir)?;
    println!("M6-10B (9.9B params) data-parallel with the full stack:");
    print!("{}", memory_profile(&plan, session.cluster(), 48)?);
    session.check_memory(&plan)?;
    println!("\n→ a dense 10B replica fits a 32 GiB V100. Without the stack it");
    println!("  needs ~150 GiB and only pipelines can host it (see m6_pipeline).");
    Ok(())
}
