//! The plan executor: one frame's feature path against a frozen plan.
//!
//! [`run_steps`] runs every op's numerics against its [`StepPlan`]. It sees
//! the configuration and the stream's [`Runtime`] — the pool, deadline,
//! fault injector, degradation report and activation buffers — and nothing
//! of planning or the cost model: no map cache, no grouping table, no
//! ledger. The caller logs the frame's charge once the steps have run.

use crate::config::{OptimizationConfig, Precision};
use crate::dataflow::Epilogue;
use crate::plan::{ExecutionPlan, LayerOp, StepPlan};
use crate::runtime::Runtime;
use crate::sparse_tensor::concat_channels;
use crate::{CoreError, SparseTensor};
use std::mem::take;
use torchsparse_tensor::Matrix;

/// Runs the feature-path numerics of every op against its frozen step
/// plan. Returns the output and the indices of the steps whose convolution
/// overflowed its quantized storage and ran a second time in FP32 (the only
/// way a frame's simulated cost can differ from the plan's).
///
/// Only feature matrices flow: coordinates are the plan's, borrowed step by
/// step and copied once, into the output. A plan built for rows that were
/// not ascending runs on its sorted input level: the input's features are
/// scattered into that order first, and an output on the input level is
/// gathered back into the caller's order, with the caller's coordinates.
/// Every matrix a
/// step writes lives in the buffer slot the plan assigned it, among the
/// runtime's activation buffers, so a frame on a geometry seen before
/// allocates no feature buffer but its output's. `Push` shares the current
/// matrix with the value stack. An INT8 configuration fails with
/// [`CoreError::InvalidConfig`] before the first step ([`check_runnable`]).
pub(crate) fn run_steps(
    ops: &[LayerOp<'_>],
    plan: &ExecutionPlan,
    input: &SparseTensor,
    config: &OptimizationConfig,
    rt: &mut Runtime,
) -> Result<(SparseTensor, Vec<usize>), CoreError> {
    check_runnable(config)?;
    if ops.len() != plan.steps.len() || ops.len() != plan.buffers.len() {
        return Err(CoreError::PlanMismatch { reason: "op/step count differs" });
    }
    let mut slots = take(&mut rt.activations);
    // Each buffer is allocated once, at its slot's full length: growing it
    // value by value would leave the shorter allocations behind as holes.
    slots.resize_with(slots.len().max(plan.slot_lens.len()), Matrix::default);
    for (m, &len) in slots.iter_mut().zip(&plan.slot_lens) {
        if m.capacity() < len {
            *m = Matrix::zeros(len, 1);
        }
    }
    let sorted = plan.rank.as_ref().map(|rank| reorder(input.feats(), rank, true));
    let mut acts = Activations { input: sorted.as_ref().unwrap_or(input.feats()), slots };
    let out = run_steps_on(ops, plan, input, &mut acts, config, rt);
    rt.activations = acts.slots;
    out
}

/// Fails for a configuration the host does not execute: INT8 features are
/// priced by `Engine::price`, never run (§4.3.1 rejects them on cost
/// alone). Checked before a compile plans and before a frame's first step,
/// so no convolution of a rejected frame runs: it draws no `Fp16Overflow`
/// and leaves the runtime's activation buffers as they were. (A dynamic
/// run has built its plan by then, with that walk's own fault probes.)
pub(crate) fn check_runnable(config: &OptimizationConfig) -> Result<(), CoreError> {
    if config.precision == Precision::Int8 {
        return Err(CoreError::InvalidConfig {
            reason: "INT8 features are priced, not run: use Engine::price".to_owned(),
        });
    }
    Ok(())
}

/// [`run_steps`] with the activation buffers taken out of the runtime.
fn run_steps_on(
    ops: &[LayerOp<'_>],
    plan: &ExecutionPlan,
    input: &SparseTensor,
    acts: &mut Activations<'_>,
    config: &OptimizationConfig,
    rt: &mut Runtime,
) -> Result<(SparseTensor, Vec<usize>), CoreError> {
    let (mut coords, mut stride) = (&plan.input[..], input.stride());
    // The slot of the flowing matrix; `None` while it is the input's.
    let mut cur: Option<usize> = None;
    let mut stack: Vec<Option<usize>> = Vec::new();
    let mut reruns = Vec::new();
    // Steps ahead whose work a convolution's fused epilogue already did.
    let mut fused_ahead = 0;
    for (i, ((op, step), written)) in ops.iter().zip(&plan.steps).zip(&plan.buffers).enumerate() {
        // Deadline boundary: the gather-GEMM-scatter stage covers
        // convolution steps (including residual projections); everything
        // else — pointwise sweeps, pooling, concat/residual joins — is
        // epilogue work. A fused step still checks its boundary, in order;
        // a cost-only step is identity, with no boundary.
        let stage = match op {
            LayerOp::Conv(_) | LayerOp::ResidualAdd { projection: Some(_) } => {
                "gather-gemm-scatter"
            }
            LayerOp::CostSurcharge { .. } => continue,
            _ => "epilogue",
        };
        rt.check_deadline(stage)?;
        if fused_ahead > 0 {
            fused_ahead -= 1;
            if let LayerOp::ResidualAdd { .. } = op {
                pop(&mut stack)?;
            }
            continue;
        }
        let out = written.out.ok_or(CoreError::PlanMismatch { reason: "step writes no buffer" });
        match (op, step) {
            (LayerOp::Conv(conv), StepPlan::Conv(p)) => {
                let slot = out?;
                let batch_norm = match ops.get(i + 1) {
                    Some(LayerOp::BatchNorm(bn)) if p.epilogue.batch_norm => Some(bn.scale_shift()),
                    _ => None,
                };
                let shortcut = stack.last().filter(|_| p.epilogue.residual);
                let reran = acts.write(slot, |m, acts| {
                    let epilogue = Epilogue {
                        batch_norm,
                        shortcut: shortcut.map(|&v| acts.get(v)),
                        relu: p.epilogue.relu,
                        ..Epilogue::default()
                    };
                    conv.compute(acts.get(cur), p, epilogue, m, config, rt)
                })?;
                if reran {
                    reruns.push(i);
                }
                fused_ahead = p.epilogue.len();
                (cur, coords, stride) = (Some(slot), &p.out_coords, p.out_stride);
            }
            (LayerOp::Pool(pool), StepPlan::Pool(p)) => {
                let slot = out?;
                acts.write(slot, |m, acts| pool.compute(acts.get(cur), p, m))?;
                (cur, coords, stride) = (Some(slot), &p.out_coords, p.out_stride);
            }
            (LayerOp::GlobalPool(gp), StepPlan::GlobalPool { origins }) => {
                let slot = out?;
                acts.write(slot, |m, acts| gp.compute(coords, acts.get(cur), origins, m))?;
                (cur, coords) = (Some(slot), origins);
            }
            (LayerOp::BatchNorm(bn), StepPlan::Pointwise) => {
                let pool = rt.pool();
                acts.rewrite(&mut cur, written.copy, |m, _| bn.apply(m, config.precision, &pool))?;
            }
            (LayerOp::Relu(relu), StepPlan::Pointwise) => {
                let pool = rt.pool();
                acts.rewrite(&mut cur, written.copy, |m, _| {
                    relu.apply(m, &pool);
                    Ok(())
                })?;
            }
            (LayerOp::Push, StepPlan::Push) => stack.push(cur),
            (LayerOp::PopConcat, StepPlan::PopConcat) => {
                let (saved, slot) = (pop(&mut stack)?, out?);
                acts.write(slot, |m, acts| {
                    *m = concat_channels(acts.get(cur), acts.get(saved), take(m).into_vec())?;
                    Ok::<_, CoreError>(())
                })?;
                cur = Some(slot);
            }
            (LayerOp::ResidualAdd { projection }, StepPlan::Residual { projection: proj }) => {
                let saved = pop(&mut stack)?;
                let shortcut = match (projection, proj) {
                    (Some(conv), Some(p)) => {
                        let slot = out?;
                        let reran = acts.write(slot, |m, acts| {
                            conv.compute(acts.get(saved), p, Epilogue::default(), m, config, rt)
                        })?;
                        if reran {
                            reruns.push(i);
                        }
                        Some(slot)
                    }
                    (None, None) => saved,
                    _ => {
                        return Err(CoreError::PlanMismatch {
                            reason: "residual projection presence differs",
                        })
                    }
                };
                acts.rewrite(&mut cur, written.copy, |m, acts| {
                    *m += acts.get(shortcut);
                    Ok(())
                })?;
            }
            _ => return Err(CoreError::PlanMismatch { reason: "op/step kind differs" }),
        }
    }
    // The output is copied out, so its slot keeps its buffer for the next
    // frame.
    let feats = acts.get(cur);
    let out = match plan.rank.as_ref().filter(|_| *coords == *plan.input) {
        Some(rank) => (input.coords().to_vec(), reorder(feats, rank, false)),
        None => (coords.to_vec(), feats.clone()),
    };
    Ok((SparseTensor::with_stride(out.0, out.1, stride)?, reruns))
}

/// `m`'s rows moved to their `rank` positions (`scatter`), or gathered from them.
fn reorder(m: &Matrix, rank: &[u32], scatter: bool) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols());
    for (i, &r) in rank.iter().enumerate() {
        let (to, from) = if scatter { (r as usize, i) } else { (i, r as usize) };
        out.row_mut(to).copy_from_slice(m.row(from));
    }
    out
}

/// Pops the executor's value stack.
fn pop(stack: &mut Vec<Option<usize>>) -> Result<Option<usize>, CoreError> {
    stack.pop().ok_or(CoreError::PlanMismatch { reason: "join pops an empty stack" })
}

/// The executor's feature matrices: the input's, borrowed, and the buffer
/// slots the plan assigns to everything the steps write.
struct Activations<'i> {
    input: &'i Matrix,
    slots: Vec<Matrix>,
}

impl Activations<'_> {
    /// The matrix of `value` (`None`: the input's features).
    fn get(&self, value: Option<usize>) -> &Matrix {
        value.map_or(self.input, |slot| &self.slots[slot])
    }

    /// Writes `slot`'s matrix with `f` (it finds the buffer in any shape;
    /// writers reshape it), which also reads the other matrices.
    fn write<R>(&mut self, slot: usize, f: impl FnOnce(&mut Matrix, &Self) -> R) -> R {
        let mut m = take(&mut self.slots[slot]);
        let result = f(&mut m, self);
        self.slots[slot] = m;
        result
    }

    /// Rewrites the flowing matrix in place with `f` — after copying it
    /// into the plan's `copy` slot when it is the input's features or the
    /// value stack still holds it.
    fn rewrite(
        &mut self,
        cur: &mut Option<usize>,
        copy: Option<usize>,
        f: impl FnOnce(&mut Matrix, &Self) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        if let Some(slot) = copy {
            let from = *cur;
            self.write(slot, |m, acts| {
                let src = acts.get(from);
                m.reshape_zeroed(src.rows(), src.cols());
                m.as_mut_slice().copy_from_slice(src.as_slice());
            });
            *cur = Some(slot);
        }
        let slot = cur.ok_or(CoreError::PlanMismatch { reason: "in-place step on the input" })?;
        self.write(slot, f)
    }
}
