//! Lane-budget analysis: does the physical swizzle geometry carry
//! enough arbitration lanes for the configured thermometer width and
//! traffic classes (§4.4)?

use ssq_types::Geometry;

use crate::diag::{codes, Diagnostic, Report, Severity};

/// Hard ceiling of the bit-level `ThermometerRegister` implementation:
/// thermometer codes are kept in a `u64` with one guard bit.
pub const THERMOMETER_LANE_CEILING: usize = 63;

/// The lane analyzer's view of the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneInput {
    /// The physical swizzle geometry.
    pub geometry: Geometry,
    /// Significant `auxVC` bits the SSVC arbiter compares (each code
    /// addresses `2^sig_bits` lanes). `None` when the switch runs a
    /// non-SSVC policy.
    pub sig_bits: Option<u32>,
    /// Whether any GL bandwidth is reserved.
    pub any_gl: bool,
}

/// Checks the thermometer/lane budget against the geometry.
///
/// Emits [`codes::LANE_BUDGET_EXCEEDED`] as an error when the
/// thermometer code physically cannot exist (`2^sig_bits` above the
/// geometry's total lanes, or above the bit-level register ceiling of
/// [`THERMOMETER_LANE_CEILING`]), and as a warning when it fits the
/// wires but exceeds the GB lane share — extra codes then alias onto
/// the same priority levels. Emits [`codes::NO_GL_LANE`] (error) when
/// GL traffic is reserved on a geometry without the dedicated
/// highest-priority GL lane (needs at least 3 lanes: GL + GB + BE).
pub fn analyze_lanes(input: &LaneInput) -> Report {
    let mut report = Report::new();
    let geometry = input.geometry;

    if let Some(sig_bits) = input.sig_bits {
        let code_lanes = 1usize << sig_bits;
        if code_lanes > THERMOMETER_LANE_CEILING {
            report.push(Diagnostic::new(
                codes::LANE_BUDGET_EXCEEDED,
                Severity::Error,
                format!("sig_bits {sig_bits}"),
                format!(
                    "a {sig_bits}-bit thermometer code needs {code_lanes} lanes, above the \
                     bit-level register ceiling of {THERMOMETER_LANE_CEILING}"
                ),
            ));
        } else if code_lanes > geometry.num_lanes() {
            report.push(Diagnostic::new(
                codes::LANE_BUDGET_EXCEEDED,
                Severity::Error,
                format!("sig_bits {sig_bits}"),
                format!(
                    "a {sig_bits}-bit thermometer code needs {code_lanes} lanes but the \
                     {}x{} geometry only routes {}",
                    geometry.radix(),
                    geometry.bus_width_bits(),
                    geometry.num_lanes()
                ),
            ));
        } else if code_lanes > geometry.gb_lanes() {
            report.push(Diagnostic::new(
                codes::LANE_BUDGET_EXCEEDED,
                Severity::Warning,
                format!("sig_bits {sig_bits}"),
                format!(
                    "a {sig_bits}-bit thermometer code spans {code_lanes} priority levels but \
                     only {} GB lanes are available after the GL lane is carved out; distinct \
                     codes alias onto shared lanes and resolve through LRG",
                    geometry.gb_lanes()
                ),
            ));
        }
    }

    if input.any_gl && input.sig_bits.is_some() && geometry.num_lanes() < 3 {
        report.push(Diagnostic::new(
            codes::NO_GL_LANE,
            Severity::Error,
            "geometry",
            format!(
                "GL bandwidth is reserved but the {}x{} geometry routes only {} lane(s); the \
                 dedicated highest-priority GL lane needs at least 3 (GL + GB + BE)",
                geometry.radix(),
                geometry.bus_width_bits(),
                geometry.num_lanes()
            ),
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(radix: usize, width: usize) -> Geometry {
        Geometry::new(radix, width).expect("valid geometry")
    }

    #[test]
    fn paper_configuration_is_clean() {
        // 64x1024: 16 lanes, 8 GB lanes, 3 significant bits.
        let report = analyze_lanes(&LaneInput {
            geometry: geom(64, 1024),
            sig_bits: Some(3),
            any_gl: true,
        });
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn figure4_sig_bits_warn_but_run() {
        // The Fig. 4 benchmark rig: sig_bits 4 (16 codes) on an 8x128
        // geometry with 16 lanes but only 8 GB lanes. Must be a warning,
        // never an error — shipped experiments use it.
        let report = analyze_lanes(&LaneInput {
            geometry: geom(8, 128),
            sig_bits: Some(4),
            any_gl: false,
        });
        assert!(!report.has_errors(), "{report}");
        assert_eq!(report.with_code(codes::LANE_BUDGET_EXCEEDED).count(), 1);
    }

    #[test]
    fn code_wider_than_the_wires_is_an_error() {
        // 8x128 routes 16 lanes; sig_bits 5 needs 32.
        let report = analyze_lanes(&LaneInput {
            geometry: geom(8, 128),
            sig_bits: Some(5),
            any_gl: false,
        });
        assert!(report.has_errors());
    }

    #[test]
    fn code_above_register_ceiling_is_an_error() {
        let report = analyze_lanes(&LaneInput {
            geometry: geom(8, 4096),
            sig_bits: Some(9),
            any_gl: false,
        });
        assert!(report.has_errors());
    }

    #[test]
    fn gl_without_a_lane_is_an_error() {
        // 64x128: 2 lanes only.
        let report = analyze_lanes(&LaneInput {
            geometry: geom(64, 128),
            sig_bits: Some(1),
            any_gl: true,
        });
        assert_eq!(report.with_code(codes::NO_GL_LANE).count(), 1);
        // Same geometry without GL reservations is acceptable.
        let report = analyze_lanes(&LaneInput {
            geometry: geom(64, 128),
            sig_bits: Some(1),
            any_gl: false,
        });
        assert!(report.with_code(codes::NO_GL_LANE).next().is_none());
    }

    #[test]
    fn non_ssvc_switch_skips_lane_checks() {
        let report = analyze_lanes(&LaneInput {
            geometry: geom(64, 128),
            sig_bits: None,
            any_gl: true,
        });
        assert!(report.is_empty(), "{report}");
    }
}
