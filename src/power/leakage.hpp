// Temperature-dependent leakage model (Eq. 4.2 of the paper):
//
//     I_leak = c1 * T^2 * exp(c2 / T) + I_gate          (T in Kelvin, c2 < 0)
//     P_leak = Vdd * I_leak
//
// The plant ("true physics") additionally scales the subthreshold term with
// supply voltage (a DIBL-like effect), which the paper's fitted model does
// not capture -- this is a deliberate, realistic structural mismatch between
// what the hardware does and what the modeling methodology of Chapter 4 can
// recover from furnace measurements at a single fixed voltage.
#pragma once

#include <cmath>

namespace dtpm::power {

/// Celsius/Kelvin helpers used across the power stack.
constexpr double kKelvinOffset = 273.15;
constexpr double celsius_to_kelvin(double c) { return c + kKelvinOffset; }

/// Parameters of the leakage current model.
struct LeakageParams {
  double c1 = 0.0;      ///< A/K^2 prefactor of the subthreshold term
  double c2_k = 0.0;    ///< exponent scale in Kelvin (negative)
  double i_gate_a = 0.0;  ///< temperature-independent gate leakage, A
  double v_ref = 1.0;   ///< voltage at which c1/i_gate were characterized
  /// Exponent of the (Vdd/v_ref) scaling on the subthreshold term. The
  /// fitted model uses 0 (no scaling beyond the explicit Vdd factor of
  /// P = V*I); the plant uses ~1.5.
  double dibl_exponent = 0.0;
};

inline bool operator==(const LeakageParams& a, const LeakageParams& b) {
  return a.c1 == b.c1 && a.c2_k == b.c2_k && a.i_gate_a == b.i_gate_a &&
         a.v_ref == b.v_ref && a.dibl_exponent == b.dibl_exponent;
}

/// The leakage model collapsed to coefficients at a fixed supply voltage:
///
///     power_w(T, vdd) == t2_scale_w * Tk^2 * exp(c2_k / Tk) + gate_w,
///     Tk = celsius_to_kelvin(T).
///
/// This is the form the structure-of-arrays batch power kernel evaluates
/// across lanes (sim/batch_lane.cpp): the voltage factors (including the
/// DIBL term) fold into the two scale coefficients, leaving temperature as
/// the only per-substep input. Equal to LeakageModel::power_w up to
/// floating-point reassociation.
struct LeakageCoeffs {
  double t2_scale_w = 0.0;  ///< vdd * c1 * dibl(vdd), W/K^2
  double c2_k = 0.0;        ///< exponent scale, Kelvin
  double gate_w = 0.0;      ///< vdd * i_gate, W
};

/// Evaluates leakage current and power from the parameters.
///
/// The DIBL factor pow(Vdd/v_ref, e) depends only on the supply voltage,
/// which changes at DVFS decisions (at most once per control interval) while
/// current_a runs every plant substep for every rail and coeffs_at every
/// interval -- so both read one factor memoized per voltage. The cache
/// returns the exact pow() result, so evaluation stays bit-identical to the
/// uncached model.
class LeakageModel {
 public:
  explicit LeakageModel(const LeakageParams& params = {}) : params_(params) {}

  /// Leakage current in A at the given temperature (Celsius) and supply.
  /// Inline: this runs for every rail on every plant substep.
  double current_a(double temp_c, double vdd_v) const {
    const double t_k = celsius_to_kelvin(temp_c);
    double subthreshold = params_.c1 * t_k * t_k * std::exp(params_.c2_k / t_k);
    if (scales_with_vdd()) subthreshold *= dibl_factor(vdd_v);
    return subthreshold + params_.i_gate_a;
  }

  /// Leakage power in W: Vdd * I_leak.
  double power_w(double temp_c, double vdd_v) const {
    return vdd_v * current_a(temp_c, vdd_v);
  }

  /// Coefficient form of this model at a fixed supply (see LeakageCoeffs).
  LeakageCoeffs coeffs_at(double vdd_v) const {
    const double dibl = scales_with_vdd() ? dibl_factor(vdd_v) : 1.0;
    return {vdd_v * params_.c1 * dibl, params_.c2_k,
            vdd_v * params_.i_gate_a};
  }

  const LeakageParams& params() const { return params_; }

 private:
  bool scales_with_vdd() const {
    return params_.dibl_exponent != 0.0 && params_.v_ref > 0.0;
  }

  double dibl_factor(double vdd_v) const {
    if (vdd_v != cached_vdd_v_) {
      cached_vdd_v_ = vdd_v;
      cached_dibl_factor_ =
          std::pow(vdd_v / params_.v_ref, params_.dibl_exponent);
    }
    return cached_dibl_factor_;
  }

  LeakageParams params_;
  /// Memoized pow(vdd/v_ref, dibl_exponent) for the last-seen vdd.
  mutable double cached_vdd_v_ = -1.0;
  mutable double cached_dibl_factor_ = 1.0;
};

}  // namespace dtpm::power
