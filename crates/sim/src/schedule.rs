//! Pipeline task DAG construction (§4, "TaskGraph Schedule").
//!
//! Whale groups operations into forward/backward/optimizer phases and
//! controls their order by adding control dependencies between entrance and
//! exit tensors — e.g. making `B₀,₀` execute before `F₀,₄` under the
//! backward-first policy (Fig. 12). We reproduce that as an explicit task
//! DAG: one forward and one backward task per (stage, micro batch), data
//! dependencies along the pipeline, and per-device control edges encoding
//! the chosen schedule.

use whale_planner::ScheduleKind;

/// A schedulable unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Forward pass of one micro batch on one stage (`F_{s,m}`).
    Forward {
        /// Stage index.
        stage: usize,
        /// Micro-batch index.
        micro: usize,
    },
    /// Backward pass of one micro batch on one stage (`B_{s,m}`).
    Backward {
        /// Stage index.
        stage: usize,
        /// Micro-batch index.
        micro: usize,
    },
}

impl TaskKind {
    /// Stage this task runs on.
    pub fn stage(&self) -> usize {
        match *self {
            TaskKind::Forward { stage, .. } | TaskKind::Backward { stage, .. } => stage,
        }
    }

    /// Micro-batch index.
    pub fn micro(&self) -> usize {
        match *self {
            TaskKind::Forward { micro, .. } | TaskKind::Backward { micro, .. } => micro,
        }
    }

    /// Whether this is a backward task.
    pub fn is_backward(&self) -> bool {
        matches!(self, TaskKind::Backward { .. })
    }
}

/// The control order of tasks on one stage's device(s).
///
/// * Backward-first (1F1B/DAPPLE, Whale's default): stage `s` of `S` admits
///   `min(S−s, M)` warm-up forwards, then strictly alternates backward and
///   forward so activations drain as early as possible.
/// * GPipe: all forwards, then all backwards.
pub fn stage_order(
    stage: usize,
    num_stages: usize,
    num_micro: usize,
    schedule: ScheduleKind,
) -> Vec<TaskKind> {
    let mut order = Vec::with_capacity(2 * num_micro);
    fill_stage_order(&mut order, stage, num_stages, num_micro, schedule);
    order
}

/// Replace `order`'s contents with [`stage_order`]'s, so one buffer serves
/// every stage of a step.
pub(crate) fn fill_stage_order(
    order: &mut Vec<TaskKind>,
    stage: usize,
    num_stages: usize,
    num_micro: usize,
    schedule: ScheduleKind,
) {
    order.clear();
    match schedule {
        ScheduleKind::GPipe => {
            for m in 0..num_micro {
                order.push(TaskKind::Forward { stage, micro: m });
            }
            for m in 0..num_micro {
                order.push(TaskKind::Backward { stage, micro: m });
            }
        }
        // The async schedule's steady state interleaves exactly like 1F1B;
        // the absent flush is modelled by the engine's makespan formula.
        ScheduleKind::BackwardFirst | ScheduleKind::AsyncNoFlush => {
            let warmup = (num_stages - stage).min(num_micro);
            for m in 0..warmup {
                order.push(TaskKind::Forward { stage, micro: m });
            }
            let mut bw = 0;
            let mut fw = warmup;
            while bw < num_micro {
                order.push(TaskKind::Backward { stage, micro: bw });
                bw += 1;
                if fw < num_micro {
                    order.push(TaskKind::Forward { stage, micro: fw });
                    fw += 1;
                }
            }
        }
    }
}

/// Data dependencies of a task (cross-stage tensor edges).
pub fn data_deps(task: TaskKind, num_stages: usize) -> Vec<TaskKind> {
    match task {
        TaskKind::Forward { stage, micro } => {
            if stage == 0 {
                vec![]
            } else {
                vec![TaskKind::Forward {
                    stage: stage - 1,
                    micro,
                }]
            }
        }
        TaskKind::Backward { stage, micro } => {
            let mut deps = vec![TaskKind::Forward { stage, micro }];
            if stage + 1 < num_stages {
                deps.push(TaskKind::Backward {
                    stage: stage + 1,
                    micro,
                });
            }
            deps
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpipe_order_is_flush() {
        let order = stage_order(0, 2, 3, ScheduleKind::GPipe);
        assert_eq!(
            order,
            vec![
                TaskKind::Forward { stage: 0, micro: 0 },
                TaskKind::Forward { stage: 0, micro: 1 },
                TaskKind::Forward { stage: 0, micro: 2 },
                TaskKind::Backward { stage: 0, micro: 0 },
                TaskKind::Backward { stage: 0, micro: 1 },
                TaskKind::Backward { stage: 0, micro: 2 },
            ]
        );
    }

    #[test]
    fn backward_first_fig12_shape() {
        // Fig. 12: with 2 stages and many micro batches, stage 0 admits two
        // warm-up forwards then alternates B/F — so B₀,₀ runs before F₀,₂.
        let order = stage_order(0, 2, 6, ScheduleKind::BackwardFirst);
        let pos = |t: TaskKind| order.iter().position(|&x| x == t).unwrap();
        assert!(
            pos(TaskKind::Backward { stage: 0, micro: 0 })
                < pos(TaskKind::Forward { stage: 0, micro: 2 })
        );
        // Warm-up depth is min(S−s, M) = 2.
        assert_eq!(order[0], TaskKind::Forward { stage: 0, micro: 0 });
        assert_eq!(order[1], TaskKind::Forward { stage: 0, micro: 1 });
        assert_eq!(order[2], TaskKind::Backward { stage: 0, micro: 0 });
    }

    #[test]
    fn last_stage_strictly_alternates() {
        // Stage S−1 has warm-up 1: F,B,F,B,...
        let order = stage_order(3, 4, 4, ScheduleKind::BackwardFirst);
        assert_eq!(order[0], TaskKind::Forward { stage: 3, micro: 0 });
        assert_eq!(order[1], TaskKind::Backward { stage: 3, micro: 0 });
        assert_eq!(order[2], TaskKind::Forward { stage: 3, micro: 1 });
    }

    #[test]
    fn every_task_appears_exactly_once() {
        for schedule in [ScheduleKind::BackwardFirst, ScheduleKind::GPipe] {
            for stage in 0..4 {
                let order = stage_order(stage, 4, 7, schedule);
                assert_eq!(order.len(), 14);
                let fw = order.iter().filter(|t| !t.is_backward()).count();
                assert_eq!(fw, 7);
                let mut seen = std::collections::HashSet::new();
                for t in &order {
                    assert!(seen.insert(*t));
                }
            }
        }
    }

    #[test]
    fn data_dependency_structure() {
        // F_{s,m} waits on F_{s−1,m}; B_{s,m} on B_{s+1,m} and F_{s,m}.
        assert!(data_deps(TaskKind::Forward { stage: 0, micro: 2 }, 3).is_empty());
        assert_eq!(
            data_deps(TaskKind::Forward { stage: 2, micro: 1 }, 3),
            vec![TaskKind::Forward { stage: 1, micro: 1 }]
        );
        let d = data_deps(TaskKind::Backward { stage: 1, micro: 0 }, 3);
        assert!(d.contains(&TaskKind::Backward { stage: 2, micro: 0 }));
        assert!(d.contains(&TaskKind::Forward { stage: 1, micro: 0 }));
        // The last stage's backward only needs its own forward.
        assert_eq!(
            data_deps(TaskKind::Backward { stage: 2, micro: 0 }, 3),
            vec![TaskKind::Forward { stage: 2, micro: 0 }]
        );
    }
}
