// Harris corner detection end to end: builds a synthetic test image
// (rotated rectangles on a gradient background), autotunes the Harris
// kernel, runs it functionally on the simulated device, thresholds the
// response, and writes both the input and an overlay with detected corners.
//
//   ./harris_corners [--size 512] [--budget 50] [--algo bogp]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "harness/context.hpp"
#include "imagecl/image.hpp"
#include "imagecl/kernels/harris.hpp"
#include "tuner/registry.hpp"

namespace {

/// Synthetic scene with known corners: bright axis-aligned and rotated
/// rectangles over a smooth gradient.
repro::imagecl::Image<float> make_scene(std::size_t size) {
  using repro::imagecl::Image;
  Image<float> image(size, size);
  for (std::size_t y = 0; y < size; ++y) {
    for (std::size_t x = 0; x < size; ++x) {
      image.at(x, y) = 20.0f + 20.0f * static_cast<float>(x + y) / (2.0f * size);
    }
  }
  auto fill_rect = [&](std::size_t x0, std::size_t y0, std::size_t w, std::size_t h,
                       float value) {
    for (std::size_t y = y0; y < std::min(y0 + h, size); ++y) {
      for (std::size_t x = x0; x < std::min(x0 + w, size); ++x) {
        image.at(x, y) = value;
      }
    }
  };
  fill_rect(size / 8, size / 8, size / 4, size / 5, 200.0f);
  fill_rect(size / 2, size / 3, size / 3, size / 4, 140.0f);
  fill_rect(size / 4, 5 * size / 8, size / 5, size / 4, 230.0f);
  return image;
}

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("harris_corners", "autotune + run Harris corner detection");
  cli.add_option("size", "test image side length", "512");
  cli.add_option("budget", "tuning sample budget", "50");
  cli.add_option("algo", "search algorithm", "bogp");
  cli.add_option("corners", "number of corners to mark", "24");
  if (!cli.parse(argc, argv)) return 0;
  const auto size = static_cast<std::size_t>(cli.get_int("size"));

  // 1. Autotune the Harris kernel at the paper's problem size.
  harness::BenchmarkContext context(imagecl::benchmark_by_name("harris"),
                                    simgpu::arch_by_name("rtxtitan"), 0, 5);
  Rng rng(17);
  tuner::Evaluator evaluator(context.space(), context.make_objective(rng),
                             static_cast<std::size_t>(cli.get_int("budget")));
  const auto algorithm = tuner::make_algorithm(cli.get("algo"));
  const tuner::TuneResult tuned = algorithm->minimize(context.space(), evaluator, rng);
  if (!tuned.found_valid) {
    std::fprintf(stderr, "tuning found no valid configuration\n");
    return 1;
  }
  const simgpu::KernelConfig config = harness::to_kernel_config(tuned.best_config);
  std::printf("%s chose %s (model %.1f us, optimum %.1f us)\n",
              algorithm->name().c_str(), config.to_string().c_str(),
              context.true_time_us(tuned.best_config), context.optimum_us());

  // 2. Run the kernel functionally on the simulated device.
  const imagecl::Image<float> scene = make_scene(size);
  const simgpu::Device device(simgpu::arch_by_name("rtxtitan"));
  simgpu::TracedBuffer<float> in_buffer(0, size * size);
  simgpu::TracedBuffer<float> out_buffer(1, size * size);
  in_buffer.data() = scene.data();
  imagecl::run_harris(device, config, scene, in_buffer, out_buffer);

  // 3. Non-maximum suppression: keep the strongest local maxima.
  struct Corner {
    std::size_t x, y;
    float response;
  };
  std::vector<Corner> corners;
  imagecl::Image<float> response(size, size);
  response.data() = out_buffer.data();
  for (std::size_t y = 2; y + 2 < size; ++y) {
    for (std::size_t x = 2; x + 2 < size; ++x) {
      const float r = response.at(x, y);
      if (r <= 0.0f) continue;
      bool is_max = true;
      for (int dy = -2; dy <= 2 && is_max; ++dy) {
        for (int dx = -2; dx <= 2; ++dx) {
          if (response.at_clamped(static_cast<std::int64_t>(x) + dx,
                                  static_cast<std::int64_t>(y) + dy) > r) {
            is_max = false;
            break;
          }
        }
      }
      if (is_max) corners.push_back({x, y, r});
    }
  }
  const std::size_t keep = std::min<std::size_t>(corners.size(),
                                                 static_cast<std::size_t>(cli.get_int("corners")));
  std::partial_sort(corners.begin(), corners.begin() + keep, corners.end(),
                    [](const Corner& a, const Corner& b) { return a.response > b.response; });
  corners.resize(keep);
  std::printf("detected %zu corners; strongest at:\n", corners.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(corners.size(), 8); ++i) {
    std::printf("  (%4zu, %4zu)  response %.3g\n", corners[i].x, corners[i].y,
                corners[i].response);
  }

  // 4. Write input and overlay images.
  imagecl::Image<float> overlay = scene;
  for (const Corner& corner : corners) {
    for (int d = -4; d <= 4; ++d) {
      const auto mark = [&](std::int64_t px, std::int64_t py) {
        if (px >= 0 && py >= 0 && px < static_cast<std::int64_t>(size) &&
            py < static_cast<std::int64_t>(size)) {
          overlay.at(px, py) = 255.0f;
        }
      };
      mark(static_cast<std::int64_t>(corner.x) + d, corner.y);
      mark(corner.x, static_cast<std::int64_t>(corner.y) + d);
    }
  }
  if (!imagecl::write_pgm(scene, "harris_input.pgm") ||
      !imagecl::write_pgm(overlay, "harris_corners.pgm")) {
    std::fprintf(stderr, "failed to write output images\n");
    return 1;
  }
  std::printf("wrote harris_input.pgm and harris_corners.pgm\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
