// Empirical flow-size distributions and inverse-transform sampling.
//
// The standard datacenter-networking methodology draws flow sizes from a
// measured CDF (web search, Hadoop, storage traces) and offers them to the
// fabric open-loop. A FlowSizeCdf is a piecewise-linear CDF over flow size
// in bytes: `points` are (bytes, cumulative probability) knees, sampling
// inverts the CDF with linear interpolation between knees, and the mean is
// the exact integral of the interpolant (used to convert a target load
// fraction into a Poisson arrival rate).
//
// Three bundled distributions approximate the shapes used throughout the
// literature (DCTCP web search, Facebook Hadoop, Alibaba storage); user
// CDFs load from the text format specified in examples/cdfs/README.md:
// one "<bytes> <cumulative_probability>" pair per line, '#' comments,
// sizes in [0, kMaxFlowBytes], probabilities in [0, 1], both columns
// non-decreasing, last probability 1.0.

#ifndef THEMIS_SRC_WORKLOAD_FLOW_SIZE_CDF_H_
#define THEMIS_SRC_WORKLOAD_FLOW_SIZE_CDF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/random.h"

namespace themis {

class FlowSizeCdf {
 public:
  // An empty CDF (no points); only useful as the out-param of Parse or
  // LoadFile — sampling an empty CDF is invalid.
  FlowSizeCdf() = default;

  struct Point {
    uint64_t bytes;
    double cum_prob;
  };

  // Largest flow size Parse accepts: 1 TB. A flow that size lasts 20 s at
  // 400 Gb/s, far past any simulated run, and every size up to it is an
  // exact double, so the sampler's interpolation stays exact.
  static constexpr uint64_t kMaxFlowBytes = 1'000'000'000'000;

  // Validates monotonicity and the final probability; aborts via assert on
  // programmer-supplied (builtin) tables, so user input goes through Parse.
  static FlowSizeCdf FromPoints(std::string name, std::vector<Point> points);

  // Parses the text format described above. Returns false (and fills
  // `error`) on malformed input; `out` is untouched on failure.
  static bool Parse(const std::string& name, const std::string& text, FlowSizeCdf* out,
                    std::string* error);
  // Reads `path` and parses it; the CDF is named after the file.
  static bool LoadFile(const std::string& path, FlowSizeCdf* out, std::string* error);

  // Bundled distributions (singletons; immutable after construction, safe
  // to share across sweep threads).
  static const FlowSizeCdf& WebSearch();   // DCTCP-style: KBs to tens of MB
  static const FlowSizeCdf& Hadoop();      // mostly tiny RPCs, heavy tail
  static const FlowSizeCdf& AliStorage();  // bimodal small-IO / large-object

  // Inverse-transform sample: size in bytes (>= 1).
  uint64_t Sample(Rng& rng) const;

  // P(size <= bytes) under the piecewise-linear interpolant (KS tests).
  double CdfAt(uint64_t bytes) const;

  // Exact mean of the interpolant, in bytes.
  double MeanBytes() const { return mean_bytes_; }

  const std::string& name() const { return name_; }
  const std::vector<Point>& points() const { return points_; }

 private:
  std::string name_;
  std::vector<Point> points_;
  double mean_bytes_ = 0.0;
};

}  // namespace themis

#endif  // THEMIS_SRC_WORKLOAD_FLOW_SIZE_CDF_H_
