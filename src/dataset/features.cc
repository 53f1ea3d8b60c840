#include "dataset/features.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>

#include "common/check.h"
#include "common/parallel.h"
#include "feedback/angle_codes.h"

namespace deepcsi::dataset {
namespace {

// Selected positions (into the report's sub-carrier list) for a spec.
std::vector<std::size_t> selected_positions(const InputSpec& spec) {
  DEEPCSI_CHECK(spec.subcarrier_stride >= 1);
  const std::vector<std::size_t> band = phy::subband_positions(spec.band);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < band.size();
       i += static_cast<std::size_t>(spec.subcarrier_stride))
    out.push_back(band[i]);
  return out;
}

// Remove a + b*k fitted to the unwrapped phase of one antenna row
// (the offset-cleaning step of [36]; see Fig. 16). `row` must hold
// ks.size() entries; `phase` is caller scratch so repeated calls stay
// allocation-free.
void clean_linear_phase(linalg::cplx* row, const std::vector<int>& ks,
                        std::vector<double>& phase) {
  const std::size_t n = ks.size();
  if (n < 2) return;
  phase.resize(n);
  double prev = std::arg(row[0]);
  phase[0] = prev;
  for (std::size_t i = 1; i < n; ++i) {
    double p = std::arg(row[i]);
    while (p - prev > std::numbers::pi) p -= 2.0 * std::numbers::pi;
    while (p - prev < -std::numbers::pi) p += 2.0 * std::numbers::pi;
    phase[i] = p;
    prev = p;
  }
  // Least-squares line fit phase ~ a + b*k.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = ks[i];
    sx += x;
    sy += phase[i];
    sxx += x * x;
    sxy += x * phase[i];
  }
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) return;
  const double b = (static_cast<double>(n) * sxy - sx * sy) / denom;
  const double a = (sy - b * sx) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i)
    row[i] *= std::polar(1.0, -(a + b * ks[i]));
}

// One report position: its sub-carrier index and phi/psi codes.
struct CodesAt {
  int subcarrier;
  const std::uint16_t* phi;
  const std::uint16_t* psi;
};

// The one feature kernel behind both report forms; `at(pos)` reads a
// position out of either. Vtilde is rebuilt with table cos/sin
// (feedback::reconstruct_v_codes), so no trigonometry runs per report.
template <typename At>
void fill_from_codes(int m, int nss, const feedback::QuantConfig& quant,
                     std::size_t num_subcarriers, At&& at,
                     const InputSpec& spec, float* out,
                     FeatureScratch& scratch) {
  DEEPCSI_CHECK_MSG(spec.stream >= 0 && spec.stream < nss,
                    "requested spatial stream not in this feedback");
  DEEPCSI_CHECK(spec.num_antennas <= m);
  // Validate up front: an invalid stride must fail loudly even when it
  // happens to equal the scratch's not-yet-computed sentinel.
  DEEPCSI_CHECK(spec.subcarrier_stride >= 1);

  if (scratch.subcarrier_stride != spec.subcarrier_stride ||
      scratch.band != spec.band) {
    scratch.positions = selected_positions(spec);
    scratch.band = spec.band;
    scratch.subcarrier_stride = spec.subcarrier_stride;
  }
  const std::vector<std::size_t>& positions = scratch.positions;
  const std::size_t w = positions.size();
  const std::size_t a = static_cast<std::size_t>(spec.num_antennas);
  const feedback::AngleTables& tables = feedback::angle_tables(quant);

  // Reconstruct the selected Vtilde column for each selected sub-carrier
  // into the reused scratch matrix.
  scratch.rows.resize(a * w);
  scratch.ks.resize(w);
  for (std::size_t i = 0; i < w; ++i) {
    const std::size_t pos = positions[i];
    DEEPCSI_CHECK(pos < num_subcarriers);
    const CodesAt codes = at(pos);
    feedback::reconstruct_v_codes(codes.phi, codes.psi, m, nss, tables,
                                  &scratch.v);
    for (std::size_t r = 0; r < a; ++r)
      scratch.rows[r * w + i] =
          scratch.v(r, static_cast<std::size_t>(spec.stream));
    scratch.ks[i] = codes.subcarrier;
  }

  if (spec.offset_correction)
    for (std::size_t r = 0; r < a; ++r)
      clean_linear_phase(scratch.rows.data() + r * w, scratch.ks,
                         scratch.phase);

  // Channel layout: I_0, Q_0, I_1, Q_1, ..., with Q omitted for the last
  // TX antenna row (real non-negative by construction).
  std::size_t ch = 0;
  for (std::size_t r = 0; r < a; ++r) {
    const bool is_last_tx_row = (static_cast<int>(r) == m - 1);
    const linalg::cplx* row = scratch.rows.data() + r * w;
    float* i_plane = out + ch * w;
    ++ch;
    float* q_plane = nullptr;
    if (!is_last_tx_row) {
      q_plane = out + ch * w;
      ++ch;
    }
    for (std::size_t i = 0; i < w; ++i) {
      i_plane[i] = static_cast<float>(row[i].real());
      if (q_plane != nullptr) q_plane[i] = static_cast<float>(row[i].imag());
    }
  }
  DEEPCSI_CHECK(ch == static_cast<std::size_t>(num_input_channels(spec)));
}

}  // namespace

int num_input_channels(const InputSpec& spec) {
  DEEPCSI_CHECK(spec.num_antennas >= 1 && spec.num_antennas <= kNumTxAntennas);
  const bool includes_last = spec.num_antennas == kNumTxAntennas;
  return 2 * spec.num_antennas - (includes_last ? 1 : 0);
}

std::size_t num_input_columns(const InputSpec& spec) {
  return selected_positions(spec).size();
}

void fill_features(const feedback::CompressedFeedbackReport& report,
                   const InputSpec& spec, float* out) {
  thread_local FeatureScratch scratch;
  fill_features(report, spec, out, scratch);
}

void fill_features(const feedback::CompressedFeedbackReport& report,
                   const InputSpec& spec, float* out, FeatureScratch& scratch) {
  const std::size_t angles = feedback::num_angles(report.m, report.nss);
  fill_from_codes(
      report.m, report.nss, report.quant, report.per_subcarrier.size(),
      [&](std::size_t pos) {
        const feedback::QuantizedAngles& qa = report.per_subcarrier[pos];
        DEEPCSI_CHECK(qa.m == report.m && qa.nss == report.nss);
        DEEPCSI_CHECK(qa.q_phi.size() == angles && qa.q_psi.size() == angles);
        return CodesAt{report.subcarriers[pos], qa.q_phi.data(),
                       qa.q_psi.data()};
      },
      spec, out, scratch);
}

void fill_features(const feedback::AngleCodes& codes, const InputSpec& spec,
                   float* out) {
  thread_local FeatureScratch scratch;
  fill_features(codes, spec, out, scratch);
}

void fill_features(const feedback::AngleCodes& codes, const InputSpec& spec,
                   float* out, FeatureScratch& scratch) {
  fill_from_codes(
      codes.m(), codes.nss(), codes.quant(), codes.num_subcarriers(),
      [&](std::size_t pos) {
        return CodesAt{codes.subcarrier(pos), codes.phi(pos), codes.psi(pos)};
      },
      spec, out, scratch);
}

nn::LabeledSet make_labeled_set(const std::vector<Trace>& traces,
                                const InputSpec& spec, double lo_frac,
                                double hi_frac) {
  DEEPCSI_CHECK(lo_frac >= 0.0 && hi_frac <= 1.0 && lo_frac <= hi_frac);
  return make_labeled_set_where(
      traces, spec, [&](const Snapshot& snap) {
        return snap.t_frac >= lo_frac &&
               (snap.t_frac < hi_frac || (hi_frac == 1.0 && snap.t_frac <= 1.0));
      });
}

void shuffle_labeled_set(nn::LabeledSet& set, std::uint64_t seed) {
  DEEPCSI_CHECK(!set.empty());
  const std::size_t n = set.size();
  const std::size_t row_elems = set.x.numel() / set.x.dim(0);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);

  // Destination rows are disjoint per index, so the gather fans out over
  // the pool with the usual deterministic chunking; the permutation is
  // fixed by the seed, so the result is thread-count independent.
  nn::Tensor x(set.x.shape());
  std::vector<int> y(n);
  common::parallel_for(
      0, n, common::grain_for(row_elems), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          std::copy(set.x.data() + order[i] * row_elems,
                    set.x.data() + (order[i] + 1) * row_elems,
                    x.data() + i * row_elems);
          y[i] = set.y[order[i]];
        }
      });
  set.x = std::move(x);
  set.y = std::move(y);
}

nn::LabeledSet make_labeled_set_where(
    const std::vector<Trace>& traces, const InputSpec& spec,
    const std::function<bool(const Snapshot&)>& keep) {
  DEEPCSI_CHECK(!traces.empty());
  const std::size_t c = static_cast<std::size_t>(num_input_channels(spec));
  const std::size_t w = num_input_columns(spec);

  std::size_t count = 0;
  for (const Trace& t : traces)
    for (const Snapshot& s : t.snapshots)
      if (keep(s)) ++count;
  DEEPCSI_CHECK_MSG(count > 0, "snapshot filter selected nothing");

  nn::LabeledSet set;
  set.num_classes = phy::kNumModules;
  set.x = nn::Tensor({count, c, 1, w});
  set.y.resize(count);

  // Snapshot selection order is fixed; each row's dequantize + Vtilde
  // reconstruction is independent, so extraction fans out over the pool.
  std::vector<const Snapshot*> selected;
  selected.reserve(count);
  std::size_t row = 0;
  for (const Trace& t : traces) {
    for (const Snapshot& s : t.snapshots) {
      if (!keep(s)) continue;
      selected.push_back(&s);
      set.y[row] = t.module_id;
      ++row;
    }
  }
  common::parallel_for(
      0, count, common::grain_for(c * w * 64),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          fill_features(selected[i]->report, spec, set.x.data() + i * c * w);
      });
  return set;
}

}  // namespace deepcsi::dataset
