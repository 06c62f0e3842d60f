//! Mapping and evaluation errors.

use rdse_model::TaskId;
use std::error::Error;
use std::fmt;

/// Errors raised while constructing or evaluating mappings.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MappingError {
    /// The combined search graph (precedence ∪ sequentialization edges)
    /// contains a cycle: the schedule is infeasible.
    CyclicSchedule,
    /// A context exceeds the CLB capacity of its device.
    CapacityExceeded {
        /// DRLC index within the architecture.
        drlc: usize,
        /// Context index within the device's context list.
        context: usize,
    },
    /// A task was placed on hardware but has no hardware implementation.
    NotHwCapable(TaskId),
    /// A placement referenced a resource that does not exist.
    UnknownResource(String),
    /// Structural invariant violated (task missing from its resource's
    /// order, duplicated, empty context, out-of-range implementation...).
    Inconsistent(String),
    /// The architecture has no processor: a search cannot start, since
    /// every initial solution runs its software tasks on processor 0.
    NoProcessor,
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::CyclicSchedule => {
                write!(f, "search graph has a cycle: schedule infeasible")
            }
            MappingError::CapacityExceeded { drlc, context } => {
                write!(f, "context {context} on drlc {drlc} exceeds CLB capacity")
            }
            MappingError::NotHwCapable(t) => {
                write!(f, "task {t} has no hardware implementation")
            }
            MappingError::UnknownResource(r) => write!(f, "unknown resource {r}"),
            MappingError::Inconsistent(msg) => write!(f, "inconsistent mapping: {msg}"),
            MappingError::NoProcessor => write!(
                f,
                "the architecture has no processor, so no search can start \
                 (initial solutions run software tasks on processor 0)"
            ),
        }
    }
}

impl Error for MappingError {}
