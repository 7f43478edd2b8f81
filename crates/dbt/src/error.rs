//! Translator errors.

use std::error::Error;
use std::fmt;

use tpdbt_isa::Pc;
use tpdbt_vm::VmError;

/// Errors from a translated run.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DbtError {
    /// The guest program trapped.
    Guest(VmError),
    /// The block at `pc` left through a successor its decoded
    /// terminator does not have, or a region's members could not be
    /// compiled: a translator defect, never a guest trap.
    Translation {
        /// Start address of the offending block or region entry.
        pc: Pc,
    },
}

impl DbtError {
    /// The guest trap behind this error, if that's what it is. Sweep
    /// harnesses use this to classify a failed cell (deterministic
    /// guest defect vs. fuel/watchdog exhaustion) without matching on
    /// the error's display text.
    #[must_use]
    pub fn as_guest_trap(&self) -> Option<&VmError> {
        match self {
            DbtError::Guest(e) => Some(e),
            DbtError::Translation { .. } => None,
        }
    }
}

impl fmt::Display for DbtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbtError::Guest(e) => write!(f, "guest trap: {e}"),
            DbtError::Translation { pc } => {
                write!(
                    f,
                    "translator defect at block {pc}: flow and terminator disagree"
                )
            }
        }
    }
}

impl Error for DbtError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DbtError::Guest(e) => Some(e),
            DbtError::Translation { .. } => None,
        }
    }
}

impl From<VmError> for DbtError {
    fn from(e: VmError) -> Self {
        DbtError::Guest(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_guest_traps_with_source() {
        let e = DbtError::from(VmError::DivideByZero { pc: 3 });
        assert!(e.to_string().contains("division by zero"));
        assert!(e.source().is_some());
    }
}
