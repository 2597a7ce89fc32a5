//! Model construction and validation errors.

use std::fmt;

use crate::flow::FlowId;
use crate::network::NodeId;

/// Errors raised while building or validating the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A path must visit at least one node.
    EmptyPath,
    /// A path visits the same node twice; routes are loop-free sequences.
    DuplicateNode { node: NodeId },
    /// A flow references a node that is not part of the network.
    UnknownNode { flow: FlowId, node: NodeId },
    /// A non-positive period, cost, or delay bound.
    NonPositive { what: &'static str, value: i64 },
    /// A negative jitter or deadline.
    Negative { what: &'static str, value: i64 },
    /// Link delay bounds with `lmin > lmax`.
    InvertedLinkDelay { lmin: i64, lmax: i64 },
    /// Per-node cost vector length does not match the path length.
    CostLengthMismatch {
        flow: FlowId,
        costs: usize,
        path: usize,
    },
    /// Two flows share a flow identifier.
    DuplicateFlowId { id: FlowId },
    /// A change names a flow identifier the set does not hold.
    UnknownFlowId { id: FlowId },
    /// Assumption 1 is violated and automatic splitting was disabled.
    Assumption1Violated { flow: FlowId, against: FlowId },
    /// The flow set is empty.
    EmptyFlowSet,
    /// A fault scenario left no live flow to analyse.
    AllFlowsDropped,
    /// An internal structural invariant did not hold; carries a short
    /// description of the violated expectation. Surfacing this instead of
    /// panicking keeps the analysis pipeline total.
    Internal { what: &'static str },
    /// An i64 time computation overflowed.
    ArithmeticOverflow { what: &'static str },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyPath => write!(f, "path must visit at least one node"),
            ModelError::DuplicateNode { node } => {
                write!(f, "path visits node {node} twice; routes must be loop-free")
            }
            ModelError::UnknownNode { flow, node } => {
                write!(
                    f,
                    "flow {flow} visits node {node} which is not in the network"
                )
            }
            ModelError::NonPositive { what, value } => {
                write!(f, "{what} must be positive, got {value}")
            }
            ModelError::Negative { what, value } => {
                write!(f, "{what} must be non-negative, got {value}")
            }
            ModelError::InvertedLinkDelay { lmin, lmax } => {
                write!(f, "link delay bounds inverted: lmin={lmin} > lmax={lmax}")
            }
            ModelError::CostLengthMismatch { flow, costs, path } => write!(
                f,
                "flow {flow}: {costs} per-node costs given for a {path}-node path"
            ),
            ModelError::DuplicateFlowId { id } => write!(f, "duplicate flow id {id}"),
            ModelError::UnknownFlowId { id } => write!(f, "no flow with id {id}"),
            ModelError::Assumption1Violated { flow, against } => write!(
                f,
                "flow {flow} re-enters the path of flow {against} after leaving it \
                 (Assumption 1); enable splitting or reroute"
            ),
            ModelError::EmptyFlowSet => write!(f, "flow set must contain at least one flow"),
            ModelError::AllFlowsDropped => {
                write!(f, "fault scenario disconnects every flow in the set")
            }
            ModelError::Internal { what } => {
                write!(f, "internal invariant violated: {what}")
            }
            ModelError::ArithmeticOverflow { what } => {
                write!(f, "i64 overflow while computing {what}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::InvertedLinkDelay { lmin: 5, lmax: 2 };
        assert!(e.to_string().contains("lmin=5"));
        let e = ModelError::CostLengthMismatch {
            flow: FlowId(3),
            costs: 2,
            path: 4,
        };
        assert!(e.to_string().contains("flow 3"));
    }
}
