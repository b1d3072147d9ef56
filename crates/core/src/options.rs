//! Configuration of the SalSSA merger.

use ssa_passes::Target;

/// Default banding slack: the corridor half-width the aligner grants a pair
/// before any fingerprint-distance hint widens it. Chosen so typical ranked
/// candidates (small shape drift) certify on the first pass while dissimilar
/// pairs saturate quickly and fall back to the exact tier.
pub const DEFAULT_BAND_SLACK: u32 = 8;

/// Options controlling the merge code generator and its optimizations.
///
/// The defaults correspond to the full SalSSA configuration evaluated in the
/// paper; individual optimizations can be disabled for the ablation studies
/// (Figure 20 disables phi-node coalescing, for example).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeOptions {
    /// Enable phi-node coalescing (Section 4.4). Disabling this yields the
    /// "SalSSA-NoPC" configuration of Figure 20.
    pub phi_coalescing: bool,
    /// Enable operand reordering for commutative instructions (Figure 9).
    pub operand_reordering: bool,
    /// Enable the xor trick for conditional branches with swapped targets
    /// (Figure 11).
    pub xor_branch: bool,
    /// Code-size target used by the profitability cost model.
    pub target: Target,
    /// Banded-alignment slack. `Some(w)` lets the aligner try a diagonal
    /// corridor of half-width `w` (widened by any fingerprint-distance hint)
    /// before the exact tier; `None` disables banding. Results are
    /// byte-identical either way — saturated bands fall back to the exact DP.
    pub band: Option<u32>,
}

impl Default for MergeOptions {
    fn default() -> Self {
        MergeOptions {
            phi_coalescing: true,
            operand_reordering: true,
            xor_branch: true,
            target: Target::X86Like,
            band: Some(DEFAULT_BAND_SLACK),
        }
    }
}

impl MergeOptions {
    /// The SalSSA-NoPC configuration (phi-node coalescing disabled).
    pub fn without_phi_coalescing() -> MergeOptions {
        MergeOptions {
            phi_coalescing: false,
            ..MergeOptions::default()
        }
    }

    /// Configuration targeting the Thumb-like embedded code-size model.
    pub fn for_thumb() -> MergeOptions {
        MergeOptions {
            target: Target::ThumbLike,
            ..MergeOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_optimizations() {
        let o = MergeOptions::default();
        assert!(o.phi_coalescing && o.operand_reordering && o.xor_branch);
        assert_eq!(o.target, Target::X86Like);
    }

    #[test]
    fn ablation_constructors() {
        assert!(!MergeOptions::without_phi_coalescing().phi_coalescing);
        assert_eq!(MergeOptions::for_thumb().target, Target::ThumbLike);
    }

    #[test]
    fn banding_defaults_on_and_can_be_disabled() {
        assert_eq!(MergeOptions::default().band, Some(DEFAULT_BAND_SLACK));
        let off = MergeOptions {
            band: None,
            ..MergeOptions::default()
        };
        assert_eq!(off.band, None);
    }
}
