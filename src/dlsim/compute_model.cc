#include "dlsim/compute_model.h"

namespace monarch::dlsim {

// Calibration notes (targets from the paper's Figures 1/3/4 and the §II
// resource-usage numbers; the bench README maps these to measured output):
//   - the scaled dataset is ~112 MiB / ~7k samples per epoch;
//   - a PFS-served epoch costs ~1.5-2.0s of I/O, a local-served epoch
//     ~0.35s (device profiles in storage/device_model.cc);
//   - epoch time ~= max(input-pipeline time, compute time).
// LeNet: tiny GPU step, visible CPU preprocess -> local runs are
// preprocess-bound (~0.8s), PFS runs I/O-bound (~1.9s): the 46% gap of
// Fig. 1. AlexNet: heavier step (~1.2s/epoch GPU) -> smaller 18% gap.
// ResNet-50: step time above the worst PFS epoch -> flat across setups.

ModelProfile ModelProfile::LeNet() {
  ModelProfile p;
  p.name = "lenet";
  p.step_time = Millis(8);
  p.preprocess_per_sample = Micros(600);
  return p;
}

ModelProfile ModelProfile::AlexNet() {
  ModelProfile p;
  p.name = "alexnet";
  p.step_time = Millis(35);
  p.preprocess_per_sample = Micros(380);
  return p;
}

ModelProfile ModelProfile::ResNet50() {
  ModelProfile p;
  p.name = "resnet50";
  p.step_time = Millis(62);
  p.preprocess_per_sample = Micros(300);
  return p;
}

void ComputeEngine::Step(std::uint64_t batch_size) {
  // Step time is per global batch; partial final batches scale down.
  const double fraction =
      batch_size == 0 ? 0.0 : 1.0;  // frameworks pad the last batch
  const Duration duration = std::chrono::duration_cast<Duration>(
      profile_.step_time * fraction);
  ProcessClock().SleepFor(duration);
  busy_ += duration;
  ++steps_;
}

}  // namespace monarch::dlsim
