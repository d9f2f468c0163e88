//! Architecture and design styles.

use std::fmt;

/// How operations relate to the datapath clock.
///
/// Experiment 1 of the paper uses single-cycle operations (each operation
/// completes within one datapath cycle); experiment 2 allows multi-cycle
/// operations so that a faster clock can be used efficiently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperationTiming {
    /// Every operation completes in exactly one datapath cycle; modules
    /// slower than the cycle are unusable.
    SingleCycle,
    /// Operations may span several datapath cycles
    /// (`ceil(module delay / cycle)`).
    MultiCycle,
}

impl fmt::Display for OperationTiming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperationTiming::SingleCycle => write!(f, "single-cycle"),
            OperationTiming::MultiCycle => write!(f, "multi-cycle"),
        }
    }
}

/// The design style of one predicted implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignStyle {
    /// Overlapped initiations; the initiation interval may be shorter than
    /// the latency.
    Pipelined,
    /// One data set at a time; initiation interval equals latency.
    NonPipelined,
}

impl fmt::Display for DesignStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignStyle::Pipelined => write!(f, "pipelined"),
            DesignStyle::NonPipelined => write!(f, "non-pipelined"),
        }
    }
}

/// The architecture style handed to BAD: operation timing plus which design
/// styles the downstream synthesis flow supports.
///
/// # Examples
///
/// ```
/// use chop_bad::{ArchitectureStyle, DesignStyle, OperationTiming};
///
/// let style = ArchitectureStyle::single_cycle();
/// assert_eq!(style.timing(), OperationTiming::SingleCycle);
/// assert!(style.styles().contains(&DesignStyle::Pipelined));
///
/// let np_only = ArchitectureStyle::new(OperationTiming::MultiCycle, false, true);
/// assert_eq!(np_only.styles(), vec![DesignStyle::NonPipelined]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchitectureStyle {
    timing: OperationTiming,
    allow_pipelined: bool,
    allow_nonpipelined: bool,
}

impl ArchitectureStyle {
    /// Creates an architecture style.
    ///
    /// # Panics
    ///
    /// Panics if both design styles are disallowed.
    #[must_use]
    pub fn new(
        timing: OperationTiming,
        allow_pipelined: bool,
        allow_nonpipelined: bool,
    ) -> Self {
        assert!(
            allow_pipelined || allow_nonpipelined,
            "at least one design style must be allowed"
        );
        Self { timing, allow_pipelined, allow_nonpipelined }
    }

    /// The single-cycle style of experiment 1, both design styles allowed.
    #[must_use]
    pub fn single_cycle() -> Self {
        Self::new(OperationTiming::SingleCycle, true, true)
    }

    /// The multi-cycle style of experiment 2, both design styles allowed.
    #[must_use]
    pub fn multi_cycle() -> Self {
        Self::new(OperationTiming::MultiCycle, true, true)
    }

    /// The operation timing model.
    #[must_use]
    pub fn timing(&self) -> OperationTiming {
        self.timing
    }

    /// The design styles BAD should sweep.
    #[must_use]
    pub fn styles(&self) -> Vec<DesignStyle> {
        let mut v = Vec::with_capacity(2);
        if self.allow_pipelined {
            v.push(DesignStyle::Pipelined);
        }
        if self.allow_nonpipelined {
            v.push(DesignStyle::NonPipelined);
        }
        v
    }
}

impl fmt::Display for ArchitectureStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let styles: Vec<String> = self.styles().iter().map(ToString::to_string).collect();
        write!(f, "{} operations ({})", self.timing, styles.join("/"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn styles_reflect_flags() {
        assert_eq!(ArchitectureStyle::single_cycle().styles().len(), 2);
        let p = ArchitectureStyle::new(OperationTiming::MultiCycle, true, false);
        assert_eq!(p.styles(), vec![DesignStyle::Pipelined]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn no_styles_panics() {
        let _ = ArchitectureStyle::new(OperationTiming::SingleCycle, false, false);
    }

    #[test]
    fn displays() {
        assert!(ArchitectureStyle::multi_cycle().to_string().contains("multi-cycle"));
        assert_eq!(DesignStyle::Pipelined.to_string(), "pipelined");
    }
}
