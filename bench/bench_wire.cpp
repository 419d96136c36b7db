// Wire-format throughput: serialize/deserialize MB/s per blob kind
// (ciphertext, public key, relin key, Galois keys) at serving-scale
// parameters, with every measured round trip verified bit-identical.
// Serialization sits on the serving request path (one ciphertext in, one
// out, keys once per session), so regressions here are latency regressions.
// Writes JSON to bench_out/wire.json.
//
// Usage: bench_wire [quick]   ("quick" restricts to N = 2048, fewer repeats)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "io/serialize.h"
#include "smartpaf/fhe_deploy.h"

namespace {

using namespace sp;
using namespace sp::fhe;

struct Row {
  std::string kind;
  std::size_t bytes = 0;
  double ser_ms = 0.0;    // best serialize time
  double deser_ms = 0.0;  // best deserialize time
  double ser_mbs = 0.0;
  double deser_mbs = 0.0;
};

double mbs(std::size_t bytes, double ms) {
  return ms <= 0.0 ? 0.0 : (static_cast<double>(bytes) / (1024.0 * 1024.0)) / (ms / 1e3);
}

bool polys_equal(const RnsPoly& a, const RnsPoly& b) {
  if (a.q_count() != b.q_count() || a.row_count() != b.row_count() || a.n() != b.n())
    return false;
  for (int i = 0; i < a.row_count(); ++i)
    if (std::memcmp(a.row(i), b.row(i), a.n() * sizeof(u64)) != 0) return false;
  return true;
}

bool kswitch_equal(const KSwitchKey& a, const KSwitchKey& b) {
  if (a.digits.size() != b.digits.size()) return false;
  for (std::size_t i = 0; i < a.digits.size(); ++i)
    if (!polys_equal(a.digits[i][0], b.digits[i][0]) ||
        !polys_equal(a.digits[i][1], b.digits[i][1]))
      return false;
  return true;
}

/// Times `serialize` / `deserialize` over `repeats`, verifying every decoded
/// copy with `verify` off the clock.
template <typename Ser, typename Deser, typename Verify>
Row measure(const std::string& kind, int repeats, Ser&& serialize, Deser&& deserialize,
            Verify&& verify, bool& ok) {
  Row row;
  row.kind = kind;
  std::vector<std::uint8_t> blob;
  for (int r = 0; r < repeats; ++r) {
    sp::Timer t;
    blob = serialize();
    const double ms = t.ms();
    row.ser_ms = r == 0 ? ms : std::min(row.ser_ms, ms);
  }
  row.bytes = blob.size();
  for (int r = 0; r < repeats; ++r) {
    sp::Timer t;
    const auto got = deserialize(blob);
    const double ms = t.ms();
    row.deser_ms = r == 0 ? ms : std::min(row.deser_ms, ms);
    if (!verify(got)) {
      std::printf("[bench] FAIL: %s round trip not bit-identical\n", kind.c_str());
      ok = false;
    }
  }
  row.ser_mbs = mbs(row.bytes, row.ser_ms);
  row.deser_mbs = mbs(row.bytes, row.deser_ms);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "quick") == 0;
  const std::size_t n = quick ? 2048 : 8192;
  const int depth = quick ? 6 : 12;
  const int repeats = quick ? 3 : 7;

  smartpaf::FheRuntime rt(CkksParams::for_depth(n, depth, 40), /*seed=*/2028);
  sp::Rng rng(9);
  std::vector<double> slots(rt.ctx().slot_count());
  for (auto& x : slots) x = rng.uniform(-1.0, 1.0);
  const Ciphertext ct = rt.encrypt(slots);
  const auto gk_snapshot = rt.rotation_keys({1, 2, 4, 8});
  const GaloisKeys& gk = *gk_snapshot;

  bool ok = true;
  std::vector<Row> rows;
  rows.push_back(measure(
      "ciphertext", repeats, [&] { return io::serialize(ct); },
      [&](const std::vector<std::uint8_t>& b) {
        return io::deserialize_ciphertext(b, rt.ctx());
      },
      [&](const Ciphertext& got) {
        return got.scale == ct.scale && got.size() == ct.size() &&
               polys_equal(got.parts[0], ct.parts[0]) &&
               polys_equal(got.parts[1], ct.parts[1]);
      },
      ok));
  rows.push_back(measure(
      "public_key", repeats, [&] { return io::serialize(rt.public_key()); },
      [&](const std::vector<std::uint8_t>& b) {
        return io::deserialize_public_key(b, rt.ctx());
      },
      [&](const PublicKey& got) {
        return polys_equal(got.p0, rt.public_key().p0) &&
               polys_equal(got.p1, rt.public_key().p1);
      },
      ok));
  rows.push_back(measure(
      "relin_key", repeats, [&] { return io::serialize(rt.relin_key()); },
      [&](const std::vector<std::uint8_t>& b) {
        return io::deserialize_kswitch_key(b, rt.ctx());
      },
      [&](const KSwitchKey& got) { return kswitch_equal(got, rt.relin_key()); },
      ok));
  rows.push_back(measure(
      "galois_keys", repeats, [&] { return io::serialize(gk); },
      [&](const std::vector<std::uint8_t>& b) {
        return io::deserialize_galois_keys(b, rt.ctx());
      },
      [&](const GaloisKeys& got) {
        if (got.keys.size() != gk.keys.size()) return false;
        for (const auto& [elt, key] : gk.keys) {
          const auto it = got.keys.find(elt);
          if (it == got.keys.end() || !kswitch_equal(it->second, key)) return false;
        }
        return true;
      },
      ok));

  Table table({"kind", "bytes", "ser_ms", "deser_ms", "ser_MB/s", "deser_MB/s"});
  for (const Row& r : rows)
    table.add_row({r.kind, std::to_string(r.bytes), Table::num(r.ser_ms, 3),
                   Table::num(r.deser_ms, 3), Table::num(r.ser_mbs, 1),
                   Table::num(r.deser_mbs, 1)});
  table.print(std::cout);

  const std::string json_path = bench::out_dir() + "/wire.json";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "  {\"n\": %zu, \"depth\": %d, \"kind\": \"%s\", \"bytes\": %zu, "
                   "\"ser_ms\": %.4f, \"deser_ms\": %.4f, \"ser_mbs\": %.1f, "
                   "\"deser_mbs\": %.1f}%s\n",
                   n, depth, r.kind.c_str(), r.bytes, r.ser_ms, r.deser_ms, r.ser_mbs,
                   r.deser_mbs, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("[bench] wrote %s\n", json_path.c_str());
  }

  std::printf("[bench] all round trips bit-identical: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
