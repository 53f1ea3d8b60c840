// IEEE 802 MAC addresses. (The 802.11 FCS uses common::crc32.)
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace deepcsi::capture {

struct MacAddress {
  std::array<std::uint8_t, 6> octets{};

  std::string to_string() const;  // "aa:bb:cc:dd:ee:ff"
  bool operator==(const MacAddress&) const = default;
  // Lexicographic octet order — lets tables of stations sort and print
  // deterministically.
  auto operator<=>(const MacAddress&) const = default;

  // The 48 address bits as one integer (big-endian octet order): the
  // session-table key and the input to shard hashing.
  std::uint64_t to_u64() const;

  // Deterministic testbed addressing: the AP keeps one BSSID while only the
  // Wi-Fi module changes; stations get their own OUI.
  static MacAddress for_module(int module_id);
  static MacAddress for_station(int station_id);
  // Fleet-scale addressing for the synthetic million-station driver: a
  // third OUI (locally administered) with the 32-bit station index in the
  // low four octets, so fleet traffic can never collide with the 256
  // testbed stations above — and the byte layout those captures bake in
  // stays untouched.
  static MacAddress for_fleet_station(std::uint64_t station_id);
};

}  // namespace deepcsi::capture
