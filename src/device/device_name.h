// Device-name parsing for names like "/job:training/task:2/device:GPU:0".
//
// The paper (§4.5) identifies remote devices by application-level names of
// exactly this form; local devices use job "localhost", task 0. Short forms
// such as "/gpu:0", "GPU:0", "cpu" are accepted anywhere a device name is,
// as in TensorFlow.
#ifndef TFE_DEVICE_DEVICE_NAME_H_
#define TFE_DEVICE_DEVICE_NAME_H_

#include <string>

#include "support/status.h"

namespace tfe {

enum class DeviceKind { kCpu, kGpu, kTpu };
constexpr int kNumDeviceKinds = 3;

const char* DeviceKindName(DeviceKind kind);  // "CPU" / "GPU" / "TPU"
StatusOr<DeviceKind> DeviceKindFromName(const std::string& name);

struct DeviceNameParts {
  std::string job = "localhost";
  int task = 0;
  DeviceKind kind = DeviceKind::kCpu;
  int index = 0;

  // "/job:localhost/task:0/device:CPU:0"
  std::string ToString() const;

  bool operator==(const DeviceNameParts& other) const {
    return job == other.job && task == other.task && kind == other.kind &&
           index == other.index;
  }
};

// Parses full names ("/job:j/task:2/device:GPU:1") and short forms
// ("/gpu:0", "gpu:1", "TPU", "/device:CPU:0"). Unspecified fields default to
// job=localhost, task=0, index=0.
StatusOr<DeviceNameParts> ParseDeviceName(const std::string& name);

}  // namespace tfe

#endif  // TFE_DEVICE_DEVICE_NAME_H_
