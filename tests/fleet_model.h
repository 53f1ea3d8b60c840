// The fleet fixture's classifier: the quick model trained on the fleet
// generator's own template traffic, then int8-calibrated on those
// training features. Shared by the fleet soak (perf_gate_test) and the
// fleet int8 parity case (fleet_test).
#pragma once

#include <cstdint>

#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "serving/fleet.h"

namespace deepcsi::tests {

// 24 epochs on 1,280 fleet-template features. The int8 parity check
// demands bit-equal verdicts between the fp32 and avx2_int8 backends;
// that contract only means something when the classifier has decisive
// margins on the evaluated templates. An untrained model's near-tied
// logits make the argmax a coin toss that any rounding difference
// flips. Fixed seeds and the deterministic trainer give every template
// a margin well clear of the int8 quantization error. Calibration is
// inert under the fp32 backends.
inline core::Authenticator train_fleet_template_authenticator() {
  const dataset::InputSpec spec;
  serving::FleetConfig tfc;
  tfc.stations = 1280;
  tfc.reports_per_station = 1;
  const serving::FleetGenerator tgen(tfc);
  const std::size_t c =
      static_cast<std::size_t>(dataset::num_input_channels(spec));
  const std::size_t w = dataset::num_input_columns(spec);
  nn::LabeledSet train;
  train.x = nn::Tensor({tfc.stations, c, 1, w});
  train.num_classes = phy::kNumModules;
  for (std::uint64_t s = 0; s < tfc.stations; ++s) {
    dataset::fill_features(tgen.report(s, 0).report, spec,
                           train.x.data() + s * c * w);
    train.y.push_back(tgen.expected_module(s));
  }
  const dataset::SplitSets split{train, train};
  core::ExperimentConfig cfg = core::quick_experiment_config();
  cfg.train.epochs = 24;
  core::Authenticator auth = core::train_authenticator(split, spec, cfg);
  auth.calibrate_int8(train.x);
  return auth;
}

}  // namespace deepcsi::tests
