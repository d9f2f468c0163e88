//! Unrolling of inner loops with determinate iteration counts.
//!
//! CHOP requires the behavioral specification to be free of inner loops;
//! "inner loops with determinate iteration counts can be unrolled so that
//! the resulting data flow graph is acyclic" (paper §2.3, citing Park and
//! Paulin/Knight). [`LoopSpec`] captures a loop body with its loop-carried
//! values and [`LoopSpec::unroll`] produces the acyclic unrolled DFG.

use std::fmt;

use crate::graph::{Dfg, DfgBuilder, NodeId};
use crate::op::Operation;

/// Error building or unrolling a [`LoopSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnrollError {
    /// The trip count was zero.
    ZeroTripCount,
    /// A carried pair referenced a node that is not an output (source side)
    /// or not an input (destination side) of the body.
    BadCarriedPair {
        /// The offending source node.
        output: NodeId,
        /// The offending destination node.
        input: NodeId,
    },
    /// The same body input was listed as the destination of two carried
    /// pairs.
    DuplicateCarriedInput(NodeId),
}

impl fmt::Display for UnrollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnrollError::ZeroTripCount => write!(f, "loop trip count must be at least 1"),
            UnrollError::BadCarriedPair { output, input } => {
                write!(f, "carried pair ({output} -> {input}) must map an output to an input")
            }
            UnrollError::DuplicateCarriedInput(n) => {
                write!(f, "body input {n} is the destination of two carried pairs")
            }
        }
    }
}

impl std::error::Error for UnrollError {}

/// An inner loop: an acyclic body plus loop-carried value pairs.
///
/// Each carried pair `(output, input)` means "the value this body output
/// produces in iteration *i* is what this body input consumes in iteration
/// *i + 1*".
///
/// # Examples
///
/// A one-operation accumulator loop `acc = acc + x[i]`, unrolled 4 times,
/// becomes a 4-addition chain:
///
/// ```
/// use chop_dfg::{DfgBuilder, Operation, unroll::LoopSpec};
/// use chop_stat::units::Bits;
///
/// let mut b = DfgBuilder::new();
/// let w = Bits::new(16);
/// let acc_in = b.node(Operation::Input, w);
/// let x = b.node(Operation::Input, w);
/// let sum = b.node(Operation::Add, w);
/// let acc_out = b.node(Operation::Output, w);
/// b.connect(acc_in, sum)?;
/// b.connect(x, sum)?;
/// b.connect(sum, acc_out)?;
/// let body = b.build()?;
///
/// let spec = LoopSpec::new(body, 4, vec![(acc_out, acc_in)])?;
/// let unrolled = spec.unroll();
/// let h = unrolled.op_histogram();
/// assert_eq!(h.count(Operation::Add), 4);
/// // 1 initial accumulator + 4 streaming inputs.
/// assert_eq!(unrolled.inputs().count(), 5);
/// // Only the final accumulator leaves the loop.
/// assert_eq!(unrolled.outputs().count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSpec {
    body: Dfg,
    trip_count: u32,
    carried: Vec<(NodeId, NodeId)>,
}

impl LoopSpec {
    /// Creates a loop specification.
    ///
    /// # Errors
    ///
    /// Returns an [`UnrollError`] if `trip_count` is zero, a carried pair
    /// does not map a body output to a body input, or an input appears as
    /// the destination of two pairs.
    pub fn new(
        body: Dfg,
        trip_count: u32,
        carried: Vec<(NodeId, NodeId)>,
    ) -> Result<Self, UnrollError> {
        if trip_count == 0 {
            return Err(UnrollError::ZeroTripCount);
        }
        let mut seen_inputs = Vec::new();
        for &(out, inp) in &carried {
            let out_ok = out.index() < body.len() && body.node(out).op() == Operation::Output;
            let in_ok = inp.index() < body.len() && body.node(inp).op() == Operation::Input;
            if !out_ok || !in_ok {
                return Err(UnrollError::BadCarriedPair { output: out, input: inp });
            }
            if seen_inputs.contains(&inp) {
                return Err(UnrollError::DuplicateCarriedInput(inp));
            }
            seen_inputs.push(inp);
        }
        Ok(Self { body, trip_count, carried })
    }

    /// The loop body.
    #[must_use]
    pub fn body(&self) -> &Dfg {
        &self.body
    }

    /// The iteration count.
    #[must_use]
    pub fn trip_count(&self) -> u32 {
        self.trip_count
    }

    /// Unrolls the loop into a flat acyclic DFG.
    ///
    /// * Carried inputs of iteration 0 stay primary inputs (initial state);
    /// * carried outputs of the final iteration stay primary outputs;
    /// * intermediate carried values become direct edges — the Input/Output
    ///   node pair of the body disappears;
    /// * non-carried inputs/outputs are replicated once per iteration.
    #[must_use]
    pub fn unroll(&self) -> Dfg {
        let mut b = DfgBuilder::new();
        // For each iteration, the producer node feeding each carried output.
        let carried_src: Vec<NodeId> = self
            .carried
            .iter()
            .map(|&(out, _)| {
                self.body.pred_nodes(out).next().expect("a carried output must be driven")
            })
            .collect();
        // Previous iteration's mapped producer for each carried pair.
        let mut prev_carried: Vec<Option<NodeId>> = vec![None; self.carried.len()];
        for iter in 0..self.trip_count {
            let first = iter == 0;
            let last = iter + 1 == self.trip_count;
            let mut map: Vec<Option<NodeId>> = vec![None; self.body.len()];
            for &id in self.body.topo_order() {
                let n = self.body.node(id);
                let carried_in = self.carried.iter().position(|&(_, inp)| inp == id);
                let carried_out = self.carried.iter().position(|&(out, _)| out == id);
                if let Some(pair) = carried_in {
                    if first {
                        let new = b.node(Operation::Input, n.width());
                        map[id.index()] = Some(new);
                    } else {
                        // Consumers will be wired straight to the previous
                        // iteration's producer.
                        map[id.index()] = prev_carried[pair];
                    }
                } else if carried_out.is_some() && !last {
                    // Intermediate carried output disappears.
                    map[id.index()] = None;
                } else {
                    let new = match n.label() {
                        Some(l) => b.labeled_node(n.op(), n.width(), format!("{l}@{iter}")),
                        None => b.node(n.op(), n.width()),
                    };
                    map[id.index()] = Some(new);
                }
            }
            for (_, e) in self.body.edges() {
                let (Some(s), Some(d)) = (map[e.src().index()], map[e.dst().index()]) else {
                    continue;
                };
                b.connect_with_width(s, d, e.width()).expect("ids valid");
            }
            for (pair, src) in carried_src.iter().enumerate() {
                prev_carried[pair] = map[src.index()];
            }
        }
        b.build().expect("unrolled acyclic body stays acyclic")
    }
}

#[cfg(test)]
mod tests {
    use chop_stat::units::Bits;

    use super::*;

    fn accumulator_body() -> (Dfg, NodeId, NodeId) {
        let mut b = DfgBuilder::new();
        let w = Bits::new(16);
        let acc_in = b.node(Operation::Input, w);
        let x = b.node(Operation::Input, w);
        let sum = b.node(Operation::Add, w);
        let acc_out = b.node(Operation::Output, w);
        b.connect(acc_in, sum).unwrap();
        b.connect(x, sum).unwrap();
        b.connect(sum, acc_out).unwrap();
        (b.build().unwrap(), acc_in, acc_out)
    }

    #[test]
    fn zero_trip_count_rejected() {
        let (body, acc_in, acc_out) = accumulator_body();
        assert_eq!(
            LoopSpec::new(body, 0, vec![(acc_out, acc_in)]).unwrap_err(),
            UnrollError::ZeroTripCount
        );
    }

    #[test]
    fn bad_pair_rejected() {
        let (body, acc_in, acc_out) = accumulator_body();
        // Swapped: input as source, output as destination.
        assert!(matches!(
            LoopSpec::new(body, 2, vec![(acc_in, acc_out)]),
            Err(UnrollError::BadCarriedPair { .. })
        ));
    }

    #[test]
    fn duplicate_carried_input_rejected() {
        let (body, acc_in, acc_out) = accumulator_body();
        assert!(matches!(
            LoopSpec::new(body, 2, vec![(acc_out, acc_in), (acc_out, acc_in)]),
            Err(UnrollError::DuplicateCarriedInput(_))
        ));
    }

    #[test]
    fn single_iteration_is_body_shaped() {
        let (body, acc_in, acc_out) = accumulator_body();
        let spec = LoopSpec::new(body.clone(), 1, vec![(acc_out, acc_in)]).unwrap();
        let u = spec.unroll();
        assert_eq!(u.len(), body.len());
        assert_eq!(u.op_histogram().count(Operation::Add), 1);
    }

    #[test]
    fn unroll_chains_adds() {
        let (body, acc_in, acc_out) = accumulator_body();
        let spec = LoopSpec::new(body, 5, vec![(acc_out, acc_in)]).unwrap();
        let u = spec.unroll();
        assert_eq!(u.op_histogram().count(Operation::Add), 5);
        assert_eq!(u.inputs().count(), 6); // initial acc + 5 stream inputs
        assert_eq!(u.outputs().count(), 1);
        // Depth of the additive chain = 5.
        let depth =
            crate::analysis::critical_path(&u, |_, n| u64::from(n.op().class().is_some()));
        assert_eq!(depth, 5);
        assert!(u.validate().is_ok());
    }

    #[test]
    fn nested_loops_unroll_by_composition() {
        // Inner: acc += x, 3 iterations → a 3-add chain with one carried
        // output. Outer: run that chain 2 times, carrying the accumulator
        // through → a 6-add chain. Nesting is plain composition of
        // LoopSpec::unroll.
        let (inner_body, acc_in, acc_out) = accumulator_body();
        let inner = LoopSpec::new(inner_body, 3, vec![(acc_out, acc_in)]).unwrap();
        let inner_unrolled = inner.unroll();
        assert_eq!(inner_unrolled.op_histogram().count(Operation::Add), 3);

        // Identify the inner result's carried ports in the unrolled graph:
        // the single output, and the accumulator input (the one feeding
        // the first add, distinguishable as the input whose consumer has
        // the smallest topo position — here simply the first input).
        let outer_acc_out = inner_unrolled.outputs().next().unwrap();
        let outer_acc_in = inner_unrolled.inputs().next().unwrap();
        let outer =
            LoopSpec::new(inner_unrolled, 2, vec![(outer_acc_out, outer_acc_in)]).unwrap();
        let full = outer.unroll();
        assert_eq!(full.op_histogram().count(Operation::Add), 6);
        assert_eq!(full.outputs().count(), 1);
        assert!(full.validate().is_ok());
        let depth =
            crate::analysis::critical_path(&full, |_, n| u64::from(n.op().class().is_some()));
        assert_eq!(depth, 6, "the nested recurrence is fully serial");
    }

    #[test]
    fn non_carried_outputs_replicated() {
        // Body: out2 observes the sum every iteration.
        let mut b = DfgBuilder::new();
        let w = Bits::new(8);
        let acc_in = b.node(Operation::Input, w);
        let x = b.node(Operation::Input, w);
        let sum = b.node(Operation::Add, w);
        let acc_out = b.node(Operation::Output, w);
        let probe = b.node(Operation::Output, w);
        b.connect(acc_in, sum).unwrap();
        b.connect(x, sum).unwrap();
        b.connect(sum, acc_out).unwrap();
        b.connect(sum, probe).unwrap();
        let body = b.build().unwrap();
        let spec = LoopSpec::new(body, 3, vec![(acc_out, acc_in)]).unwrap();
        let u = spec.unroll();
        // 3 probes + 1 final carried output.
        assert_eq!(u.outputs().count(), 4);
    }
}
