//! Model validation errors.

use crate::TaskId;
use std::error::Error;
use std::fmt;

/// Errors raised while building or validating application and
/// architecture models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A name was empty.
    EmptyName,
    /// A task id referenced a task that does not exist.
    UnknownTask(TaskId),
    /// An edge would connect a task to itself.
    SelfEdge(TaskId),
    /// The precedence graph contains a cycle.
    CyclicPrecedence {
        /// A task known to lie on the cycle.
        on_cycle: TaskId,
    },
    /// A time estimate was negative, NaN or infinite.
    InvalidTime {
        /// The offending task.
        task: TaskId,
        /// Human-readable description of which estimate is broken.
        what: &'static str,
    },
    /// A hardware implementation has zero CLBs.
    EmptyImplementation(TaskId),
    /// An architecture was declared with no computing resource at all.
    NoResources,
    /// A DRLC was declared with zero capacity.
    ZeroCapacityDrlc {
        /// Name of the offending device.
        name: String,
    },
    /// A DRLC's reconfiguration time per CLB was negative, NaN or
    /// infinite.
    InvalidReconfigTime {
        /// Name of the offending device.
        name: String,
    },
    /// The bus rate was non-positive or not finite.
    InvalidBusRate(f64),
    /// A duplicate edge between the same pair of tasks.
    DuplicateEdge(TaskId, TaskId),
    /// Serialization or file I/O failed.
    Io(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyName => write!(f, "name must not be empty"),
            ModelError::UnknownTask(t) => write!(f, "unknown task {t}"),
            ModelError::SelfEdge(t) => write!(f, "task {t} cannot depend on itself"),
            ModelError::CyclicPrecedence { on_cycle } => {
                write!(f, "precedence graph has a cycle through task {on_cycle}")
            }
            ModelError::InvalidTime { task, what } => {
                write!(f, "task {task} has an invalid {what} estimate")
            }
            ModelError::EmptyImplementation(t) => {
                write!(f, "task {t} has a hardware implementation with zero CLBs")
            }
            ModelError::NoResources => write!(f, "architecture has no computing resources"),
            ModelError::ZeroCapacityDrlc { name } => {
                write!(f, "reconfigurable device '{name}' has zero CLB capacity")
            }
            ModelError::InvalidReconfigTime { name } => write!(
                f,
                "reconfigurable device '{name}' has an invalid reconfiguration time per CLB"
            ),
            ModelError::InvalidBusRate(r) => {
                write!(f, "bus rate {r} is not a positive finite number")
            }
            ModelError::DuplicateEdge(a, b) => {
                write!(f, "duplicate data edge between {a} and {b}")
            }
            ModelError::Io(msg) => write!(f, "model i/o failed: {msg}"),
        }
    }
}

impl Error for ModelError {}
