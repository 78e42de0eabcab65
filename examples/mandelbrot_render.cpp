// Tune, then actually run: autotunes the Mandelbrot kernel, executes it
// functionally on the trace-based device with the winning configuration,
// and writes the classic visualization as mandelbrot.ppm.
//
//   ./mandelbrot_render [--size 1024] [--budget 50] [--algo botpe]

#include <cstdio>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "harness/context.hpp"
#include "imagecl/image.hpp"
#include "imagecl/kernels/mandelbrot.hpp"
#include "tuner/registry.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("mandelbrot_render", "autotune + render the Mandelbrot set");
  cli.add_option("size", "output image side length", "1024");
  cli.add_option("budget", "tuning sample budget", "50");
  cli.add_option("algo", "search algorithm", "botpe");
  cli.add_option("out", "output file", "mandelbrot.ppm");
  if (!cli.parse(argc, argv)) return 0;
  const auto size = static_cast<std::uint64_t>(cli.get_int("size"));

  // Tune at the paper's full problem size (the model is size-aware).
  harness::BenchmarkContext context(imagecl::benchmark_by_name("mandelbrot"),
                                    simgpu::arch_by_name("titanv"), 0, 7);
  Rng rng(11);
  const tuner::Objective objective = context.make_objective(rng);
  tuner::Evaluator evaluator(context.space(), objective,
                             static_cast<std::size_t>(cli.get_int("budget")));
  const auto algorithm = tuner::make_algorithm(cli.get("algo"));
  const tuner::TuneResult result = algorithm->minimize(context.space(), evaluator, rng);
  if (!result.found_valid) {
    std::fprintf(stderr, "tuning found no valid configuration\n");
    return 1;
  }
  const simgpu::KernelConfig config = harness::to_kernel_config(result.best_config);
  std::printf("%s chose %s  (model: %.1f us, %.1f%% of optimum)\n",
              algorithm->name().c_str(), config.to_string().c_str(),
              context.true_time_us(result.best_config),
              context.optimum_us() / context.true_time_us(result.best_config) * 100.0);

  // Execute the kernel functionally with the tuned configuration.
  const simgpu::Device device(simgpu::arch_by_name("titanv"));
  simgpu::TracedBuffer<float> out(0, size * size);
  imagecl::run_mandelbrot(device, config, size, size, out);

  imagecl::Image<float> image(size, size);
  image.data() = out.data();
  const std::string path = cli.get("out");
  if (!imagecl::write_ppm_colormap(image, path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%llux%llu)\n", path.c_str(),
              static_cast<unsigned long long>(size),
              static_cast<unsigned long long>(size));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
