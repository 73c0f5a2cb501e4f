//! ResNet-50 (He et al. \[16\]) — the DP heterogeneity workload of Fig. 17 and
//! the feature extractor of the paper's motivating hybrid example (Fig. 4).

use crate::builder::GraphBuilder;
use crate::graph::{Graph, GraphError, OpId};
use crate::op::OpKind;
use crate::tensor::TensorMeta;

/// Bottleneck-block counts and channel plan of ResNet-50.
const STAGES: [(usize, usize, usize, usize); 4] = [
    // (blocks, mid_channels, out_channels, spatial)
    (3, 64, 256, 56),
    (4, 128, 512, 28),
    (6, 256, 1024, 14),
    (3, 512, 2048, 7),
];

/// Build the ResNet-50 feature extractor (everything up to global pooling),
/// returning the builder, the final feature op, and the feature dimension.
fn features(batch: usize) -> Result<(GraphBuilder, OpId, usize), GraphError> {
    let mut b = GraphBuilder::new("resnet50");
    let x = b.input("image", &[batch, 3, 224, 224])?;
    let mut h = b.conv2d("conv1", x, batch, 3, 64, (7, 7), (112, 112))?;
    h = b.op(
        "pool1",
        OpKind::Pool {
            elems: (batch * 64 * 112 * 112) as u64,
        },
        [h],
        TensorMeta::f32(&[batch, 64, 56, 56]),
    )?;
    b.next_layer();

    let mut in_c = 64;
    for (stage_idx, &(blocks, mid, out_c, hw)) in STAGES.iter().enumerate() {
        for blk in 0..blocks {
            let prefix = format!("stage{}/block{}", stage_idx + 1, blk);
            let identity = h;
            let c1 = b.conv2d(
                [prefix.as_str(), "/conv1"].concat(),
                h,
                batch,
                in_c,
                mid,
                (1, 1),
                (hw, hw),
            )?;
            let c2 = b.conv2d(
                [prefix.as_str(), "/conv2"].concat(),
                c1,
                batch,
                mid,
                mid,
                (3, 3),
                (hw, hw),
            )?;
            let c3 = b.conv2d(
                [prefix.as_str(), "/conv3"].concat(),
                c2,
                batch,
                mid,
                out_c,
                (1, 1),
                (hw, hw),
            )?;
            // Projection shortcut on the first block of each stage.
            let skip = if blk == 0 {
                b.conv2d(
                    [prefix.as_str(), "/proj"].concat(),
                    identity,
                    batch,
                    in_c,
                    out_c,
                    (1, 1),
                    (hw, hw),
                )?
            } else {
                identity
            };
            h = b.elementwise([prefix.as_str(), "/add_relu"].concat(), [c3, skip], 2)?;
            in_c = out_c;
            b.next_layer();
        }
    }
    // Global average pooling to [batch, 2048].
    let pooled = b.op(
        "gap",
        OpKind::Pool {
            elems: (batch * 2048 * 7 * 7) as u64,
        },
        [h],
        TensorMeta::f32(&[batch, 2048]),
    )?;
    Ok((b, pooled, 2048))
}

/// ResNet-50 with the standard 1000-class ImageNet head.
///
/// # Examples
///
/// ```
/// let g = whale_graph::models::resnet50(32).unwrap();
/// // ~25.5 M parameters.
/// assert!((24e6..28e6).contains(&(g.total_params() as f64)));
/// ```
pub fn resnet50(batch: usize) -> Result<Graph, GraphError> {
    let (mut b, feat, dim) = features(batch)?;
    let logits = b.dense("fc", feat, batch, dim, 1000)?;
    b.cross_entropy("loss", logits, batch, 1000)?;
    Ok(b.finish())
}

/// The paper's §1 motivating model: ResNet-50 features + a 100,000-class
/// fully-connected classifier (~782 MB of FC weights vs ~90 MB of features).
pub fn imagenet_100k(batch: usize) -> Result<Graph, GraphError> {
    imagenet_big_fc(batch, 100_000)
}

/// Large-classification variant with a configurable class count.
pub fn imagenet_big_fc(batch: usize, classes: usize) -> Result<Graph, GraphError> {
    let (mut b, feat, dim) = features(batch)?;
    b.next_layer();
    let logits = b.dense("fc_big", feat, batch, dim, classes)?;
    let probs = b.softmax("softmax", logits)?;
    b.cross_entropy("loss", probs, batch, classes)?;
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CostProfile;

    #[test]
    fn resnet50_parameter_count() {
        let g = resnet50(1).unwrap();
        let p = g.total_params() as f64;
        // Published ResNet-50: 25.56 M (we fold BN into conv biases, so we
        // land slightly under).
        assert!((24e6..27e6).contains(&p), "params = {p}");
    }

    #[test]
    fn resnet50_flops_per_image() {
        let g = resnet50(1).unwrap();
        let f = g.total_forward_flops();
        // Published: ~4.1 GFLOPs per 224×224 image (multiply-accumulate
        // counted as 2 FLOPs → ~8.2; conventions vary, accept 6–10 G).
        assert!((6e9..10e9).contains(&f), "flops = {f}");
    }

    #[test]
    fn hundred_k_fc_dominates_parameters() {
        let g = imagenet_100k(1).unwrap();
        let fc = g
            .ops()
            .iter()
            .find(|op| op.name == "fc_big")
            .unwrap()
            .param_count();
        // §1: FC ≈ 782 MB = ~196 M params ≥ 85% of total.
        assert!(fc as f64 * 4.0 > 750e6, "fc bytes = {}", fc * 4);
        assert!(fc as f64 / g.total_params() as f64 > 0.85);
    }

    #[test]
    fn flops_scale_with_batch() {
        let p1 = CostProfile::from_graph(&resnet50(1).unwrap(), 1);
        let p8 = CostProfile::from_graph(&resnet50(8).unwrap(), 8);
        let ratio = p8.forward_flops_per_sample / p1.forward_flops_per_sample;
        assert!((ratio - 1.0).abs() < 1e-6, "per-sample flops invariant");
    }

    #[test]
    fn layer_annotation_covers_blocks() {
        let g = resnet50(1).unwrap();
        // conv1 + 16 bottlenecks + head ⇒ ≥ 17 annotated layers.
        assert!(g.per_layer_costs().len() >= 17);
    }
}
