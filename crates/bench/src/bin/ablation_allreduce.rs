//! Ablation — hierarchical vs flat AllReduce (§4, "Gradient Aggregation").
//!
//! Whale first AllReduces inside each worker, then across workers. This
//! ablation quantifies the win of that two-level scheme over a flat ring for
//! gradient tensors of realistic sizes on multi-node clusters.

use whale_bench::{fmt_secs, header};
use whale_hardware::{AllReduceSelector, Cluster, GpuModel};

fn main() {
    header(
        "Ablation",
        "hierarchical vs flat ring AllReduce across cluster sizes",
    );
    println!(
        "\n  {:>6} {:>10} {:>12} {:>14} {:>9}",
        "nodes", "bytes", "flat ring", "hierarchical", "speedup"
    );
    for nodes in [2usize, 4, 8, 16, 32] {
        let cluster = Cluster::homogeneous(GpuModel::V100_32GB, nodes, 8);
        let group: Vec<usize> = (0..cluster.num_gpus()).collect();
        let selector = AllReduceSelector::new(&cluster, &group).unwrap();
        for mb in [100u64, 1340] {
            let bytes = mb << 20;
            let flat = selector.ring(bytes);
            let hier = selector.hierarchical(bytes);
            println!(
                "  {:>6} {:>8}MB {:>12} {:>14} {:>8.2}x",
                nodes,
                mb,
                fmt_secs(flat),
                fmt_secs(hier),
                flat / hier
            );
        }
    }
    println!("\n  expected shape: hierarchical wins on every multi-node group because");
    println!("  only 1/8 of the tensor crosses the 50Gb/s fabric; the win grows with");
    println!("  tensor size and stays roughly constant in node count.");
}
