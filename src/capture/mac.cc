#include "capture/mac.h"

#include <cstdio>

#include "common/check.h"

namespace deepcsi::capture {

std::string MacAddress::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x", octets[0],
                octets[1], octets[2], octets[3], octets[4], octets[5]);
  return buf;
}

std::uint64_t MacAddress::to_u64() const {
  std::uint64_t v = 0;
  for (const std::uint8_t o : octets) v = (v << 8) | o;
  return v;
}

MacAddress MacAddress::for_module(int module_id) {
  DEEPCSI_CHECK(module_id >= 0 && module_id < 256);
  // Compex-style OUI with the module index in the last octet.
  return MacAddress{{0x04, 0xF0, 0x21, 0xDE, 0xEF, static_cast<std::uint8_t>(module_id)}};
}

MacAddress MacAddress::for_station(int station_id) {
  DEEPCSI_CHECK(station_id >= 0 && station_id < 256);
  // Netgear-style OUI.
  return MacAddress{{0x9C, 0x3D, 0xCF, 0x5A, 0x00, static_cast<std::uint8_t>(station_id)}};
}

MacAddress MacAddress::for_fleet_station(std::uint64_t station_id) {
  DEEPCSI_CHECK(station_id <= 0xFFFFFFFFull);
  // 0xDA has the locally-administered bit set: synthetic, never a vendor.
  return MacAddress{{0xDA, 0x7A,
                     static_cast<std::uint8_t>(station_id >> 24),
                     static_cast<std::uint8_t>(station_id >> 16),
                     static_cast<std::uint8_t>(station_id >> 8),
                     static_cast<std::uint8_t>(station_id)}};
}

}  // namespace deepcsi::capture
