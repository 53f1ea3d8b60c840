// Assembly of the DNN input from an observed feedback report (Sec. III-C):
// the I/Q components of selected Vtilde entries are stacked into an
// N_row x N_col x N_ch tensor. Here N_row = 1 (one spatial stream per
// model, as in all of the paper's experiments), N_col <= K sub-carriers
// and the channel axis carries I/Q per selected TX antenna — the last TX
// antenna contributes only I because the last Vtilde row is real by
// construction.
#pragma once

#include <functional>
#include <vector>

#include "dataset/scale.h"
#include "dataset/traces.h"
#include "feedback/angle_codes.h"
#include "linalg/cmat.h"
#include "nn/trainer.h"
#include "phy/ofdm.h"

namespace deepcsi::dataset {

struct InputSpec {
  phy::Band band = phy::Band::k80MHz;  // N_col: 234 / 110 / 54
  int stream = 0;                      // Vtilde column fed to the DNN
  int num_antennas = kNumTxAntennas;   // leading rows of Vtilde used
  int subcarrier_stride = 1;           // quick-scale feature sub-sampling
  // Fig. 16 baseline: remove per-antenna linear phase (CFO/SFO/PDD-style
  // offsets, algorithm of [36]) before stacking I/Q.
  bool offset_correction = false;
};

// Number of input channels: 2 per antenna, minus one if the last TX
// antenna (real-valued row) is included.
int num_input_channels(const InputSpec& spec);

// Number of sub-carriers after band selection and striding.
std::size_t num_input_columns(const InputSpec& spec);

// Reusable working state for fill_features. Holding one of these per
// thread makes steady-state feature assembly allocation-free: the
// reconstructed Vtilde matrix, the per-antenna row staging and the
// selected-position cache all reach their high-water capacity on the
// first report and are reused verbatim afterwards. The position list is
// keyed on (band, stride) and recomputed only when the spec changes.
struct FeatureScratch {
  phy::Band band = phy::Band::k80MHz;
  int subcarrier_stride = -1;  // -1: positions not yet computed
  std::vector<std::size_t> positions;

  std::vector<linalg::cplx> rows;  // [num_antennas x W], row-major
  std::vector<int> ks;             // selected sub-carrier indices
  linalg::CMat v;                  // reconstruct_v_codes target
  std::vector<double> phase;       // clean_linear_phase working buffer
};

// Reconstructs Vtilde from the quantized report and writes the feature
// plane [C, 1, W] at `out` (contiguous, C*W floats). The scratch-less
// overloads use a thread-local FeatureScratch, so per-report ingest is
// allocation-free in steady state from any pool thread. Both report forms
// run the same table-lookup kernel (feedback::reconstruct_v_codes) and
// give bit-identical features.
void fill_features(const feedback::CompressedFeedbackReport& report,
                   const InputSpec& spec, float* out);
void fill_features(const feedback::CompressedFeedbackReport& report,
                   const InputSpec& spec, float* out, FeatureScratch& scratch);
void fill_features(const feedback::AngleCodes& codes, const InputSpec& spec,
                   float* out);
void fill_features(const feedback::AngleCodes& codes, const InputSpec& spec,
                   float* out, FeatureScratch& scratch);

// Stack selected snapshots of many traces into a labeled set
// (label = module_id). Snapshot selection: indices [lo_frac, hi_frac) of
// each trace, e.g. (0, 0.8) for the paper's "first 80% trains" rule.
nn::LabeledSet make_labeled_set(const std::vector<Trace>& traces,
                                const InputSpec& spec, double lo_frac = 0.0,
                                double hi_frac = 1.0);

// Variant with an arbitrary per-snapshot predicate on t_frac (used for the
// Fig. 17b sub-path experiment).
nn::LabeledSet make_labeled_set_where(
    const std::vector<Trace>& traces, const InputSpec& spec,
    const std::function<bool(const Snapshot&)>& keep);

// Deterministic row permutation. Trace assembly orders rows by
// (module, position); the trainer's validation tail would then hold out
// whole classes, so training sets are shuffled before use (the paper's
// time-ordered captures are naturally interleaved).
void shuffle_labeled_set(nn::LabeledSet& set, std::uint64_t seed);

}  // namespace deepcsi::dataset
