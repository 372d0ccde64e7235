// Vectorization-parity probe: runs every batch kernel that carries a
// bit-identity contract (plane-fit stats, the level-major point-in-region
// sieve, marching squares, Gaussian field evaluation) on seeded
// inputs and prints the raw IEEE-754 bit patterns of the outputs as hex.
// CI builds this tool twice — once with -ftree-vectorize, once with
// -fno-tree-vectorize — and diffs the two stdouts: any difference means
// the "vectorize across independent chains, never reassociate within one"
// rule was broken by a compiler transform the flags toggle.
//
// The tool also checks each batch kernel against its scalar oracle (from
// the test-only isomap_oracles library, tests/oracles/) in-process and exits 1 on any mismatch, so a single build already
// catches batch-vs-scalar divergence; the double-build diff adds the
// flag-sensitivity axis.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "field/bathymetry.hpp"
#include "field/blended_field.hpp"
#include "geometry/marching_squares.hpp"
#include "isomap/regression.hpp"
#include "oracles/gaussian_field_reference.hpp"
#include "oracles/marching_squares_reference.hpp"
#include "oracles/regression_aos.hpp"
#include "sim/runners.hpp"
#include "sim/scenario.hpp"

namespace isomap {
namespace {

/// splitmix64 — deterministic, seed-only input generator (no
/// std::random_device, no time).
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// FNV-1a over a stream of 64-bit words — a compact fingerprint of a
/// kernel's full output bit pattern.
struct Fnv {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  void add(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

bool g_ok = true;

void report(const char* kernel, const char* what, bool match) {
  if (!match) {
    std::fprintf(stderr, "[FAIL] %s: %s mismatch vs scalar oracle\n", kernel,
                 what);
    g_ok = false;
  }
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void fit_parity() {
  std::uint64_t rng = 0x15041A5ULL;
  Fnv fp;
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t n = 3 + static_cast<std::size_t>(splitmix64(rng) % 61);
    std::vector<double> xs(n), ys(n), vs(n);
    std::vector<oracle::FieldSample> aos(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = uniform01(rng) * 40.0 - 20.0;
      ys[i] = uniform01(rng) * 40.0 - 20.0;
      vs[i] = uniform01(rng) * 10.0 + 0.01 * xs[i] - 0.03 * ys[i];
      aos[i] = {{xs[i], ys[i]}, vs[i]};
    }
    // Oracle: the array-of-structs fit. The span kernels behind
    // fit_plane_soa must reproduce it bit for bit.
    const auto want = oracle::fit_plane(aos);
    const auto fit = fit_plane_soa(xs, ys, vs);
    report("fit_plane_soa", "has_value", want.has_value() == fit.has_value());
    if (want && fit) {
      report("fit_plane_soa", "coefficients",
             bits(want->c0) == bits(fit->c0) &&
                 bits(want->c1) == bits(fit->c1) &&
                 bits(want->c2) == bits(fit->c2));
      fp.add(fit->c0);
      fp.add(fit->c1);
      fp.add(fit->c2);
    }
  }
  std::printf("fit_plane_soa       %016llx\n",
              static_cast<unsigned long long>(fp.h));
}

void region_parity() {
  // A real sink map from a small deterministic round — exercises the
  // rules-path AABB pre-reject and the per-level sieve on the same
  // geometry the protocol produces.
  ScenarioConfig config;
  config.num_nodes = 400;
  config.field_side = 20.0;
  config.seed = 9;
  const Scenario s = make_scenario(config);
  const ContourMap& map = run_isomap(s, 4).result.map;

  std::uint64_t rng = 0xC0FFEEULL;
  std::vector<Vec2> pts(4096);
  for (Vec2& p : pts)
    p = {uniform01(rng) * 22.0 - 1.0, uniform01(rng) * 22.0 - 1.0};
  std::vector<int> batch(pts.size(), -1);
  map.level_index_batch(pts, batch);

  Fnv fp;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    report("level_index_batch", "level index",
           batch[i] == map.level_index(pts[i]));
    fp.add(static_cast<std::uint64_t>(batch[i]));
  }
  std::printf("level_index_batch   %016llx\n",
              static_cast<unsigned long long>(fp.h));
}

void marching_parity() {
  std::uint64_t rng = 0x5EED5ULL;
  const int res = 96;
  std::vector<double> values(static_cast<std::size_t>(res) * res);
  for (double& v : values) v = uniform01(rng);
  SampleGrid grid;
  grid.nx = res;
  grid.ny = res;
  grid.dx = 0.25;
  grid.dy = 0.25;
  grid.value = [&](int ix, int iy) {
    return values[static_cast<std::size_t>(iy) * res + ix];
  };

  Fnv fp;
  for (const double isolevel : {0.25, 0.5, 0.75}) {
    const auto fast = marching_squares(grid, isolevel);
    const auto ref = oracle::marching_squares_reference(grid, isolevel);
    bool match = fast.size() == ref.size();
    for (std::size_t p = 0; match && p < fast.size(); ++p) {
      match = fast[p].points().size() == ref[p].points().size() &&
              fast[p].closed() == ref[p].closed();
      for (std::size_t i = 0; match && i < fast[p].points().size(); ++i)
        match = bits(fast[p].points()[i].x) == bits(ref[p].points()[i].x) &&
                bits(fast[p].points()[i].y) == bits(ref[p].points()[i].y);
    }
    report("marching_squares", "polylines", match);
    for (const Polyline& poly : fast)
      for (const Vec2& p : poly.points()) {
        fp.add(p.x);
        fp.add(p.y);
      }
  }
  std::printf("marching_squares    %016llx\n",
              static_cast<unsigned long long>(fp.h));
}

/// Prints a digest of `field`'s value and gradient bits at `pts`, each
/// point checked against `want(p)`, the oracle's {value, gradient}.
template <typename Want>
void field_probe(const char* name, const ScalarField& field,
                 const std::vector<Vec2>& pts, Want want) {
  Fnv fp;
  for (const Vec2 p : pts) {
    const double v = field.value(p);
    const Vec2 g = field.gradient(p);
    const auto [want_v, want_g] = want(p);
    report(name, "value", bits(v) == bits(want_v));
    report(name, "gradient",
           bits(g.x) == bits(want_g.x) && bits(g.y) == bits(want_g.y));
    fp.add(v);
    fp.add(g.x);
    fp.add(g.y);
  }
  std::printf("%-19s %016llx\n", name, static_cast<unsigned long long>(fp.h));
}

void field_parity() {
  // The field's value and gradient bits feed every reading, so every
  // golden capsule.
  const FieldBounds fb{0.0, 0.0, 200.0, 200.0};
  const GaussianField harbor = harbor_bathymetry(fb);
  const GaussianField silted = silted_harbor_bathymetry(fb);
  const GaussianField sloped = sloped_seabed_bathymetry(fb);
  const double alpha = 0.375;
  const BlendedField blended(harbor, silted, alpha);

  std::uint64_t rng = 0xF1E1DULL;
  std::vector<Vec2> pts(2048);
  for (Vec2& p : pts) p = {uniform01(rng) * 200.0, uniform01(rng) * 200.0};

  const auto per_call = [](const GaussianField& f) {
    return [&f](Vec2 p) {
      return std::pair{oracle::gaussian_field_value(f, p),
                       oracle::gaussian_field_gradient(f, p)};
    };
  };
  field_probe("field_harbor", harbor, pts, per_call(harbor));
  field_probe("field_silted", silted, pts, per_call(silted));
  field_probe("field_sloped", sloped, pts, per_call(sloped));
  field_probe("field_blended", blended, pts, [&](Vec2 p) {
    return std::pair{
        oracle::blended_field_value(harbor, silted, alpha, p),
        oracle::blended_field_gradient(harbor, silted, alpha, p)};
  });
}

}  // namespace
}  // namespace isomap

int main() {
  isomap::fit_parity();
  isomap::region_parity();
  isomap::marching_parity();
  isomap::field_parity();
  if (!isomap::g_ok) return 1;
  std::printf("kernel_parity: all kernels match their oracles\n");
  return 0;
}
