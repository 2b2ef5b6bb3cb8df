// deepphi_quantize — offline int8 quantization of a trained checkpoint.
//
// Loads any float checkpoint through model_io::load_any, quantizes its
// encode path to groupwise int8 (core::QuantizedEncoder), reports the weight
// reconstruction error and an encode-output delta on a probe batch, and
// saves the result as a DPQE checkpoint that deepphi_serve / deepphi_eval
// load directly.
//
//   deepphi_quantize --model=stack.dpsa --out=stack.dpqe
//   deepphi_quantize --model=sae.dpae --out=sae.dpqe --group=128
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "core/model_io.hpp"
#include "core/quantized_encoder.hpp"
#include "la/quant.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

namespace {

using namespace deepphi;

int run(int argc, char** argv) {
  util::Options options = util::Options::parse(argc, argv);
  options.declare("model", "float checkpoint to quantize "
                           "(.dpae/.dprb/.dpsa/.dpdb)");
  options.declare("out", "output DPQE checkpoint path");
  options.declare("group",
                  "quantization group: codes per scale, multiple of 64", "64");
  options.declare("probe",
                  "probe batch rows for the encode-output delta report",
                  "256");
  options.declare("seed", "probe batch seed", "42");
  options.validate();
  DEEPPHI_CHECK_MSG(options.has("model"), "--model=<checkpoint> is required");
  DEEPPHI_CHECK_MSG(options.has("out"), "--out=<path.dpqe> is required");

  std::unique_ptr<core::Encoder> model =
      model_io::load_any(options.get_string("model")).model;
  std::printf("quantizing %s\n", model->describe().c_str());

  const auto group = static_cast<la::Index>(options.get_int("group"));
  std::unique_ptr<core::QuantizedEncoder> quantized =
      core::QuantizedEncoder::from(*model, group);

  // Per-layer geometry and the worst-case weight rounding step (half the
  // coarsest group's scale — symmetric round-to-nearest quantization cannot
  // be off by more than scale/2 per weight).
  for (std::size_t k = 0; k < quantized->layers(); ++k) {
    const auto& w = quantized->layer(k).w;
    float max_scale = 0.0f;
    for (la::Index r = 0; r < w.rows(); ++r)
      for (la::Index g = 0; g < w.groups(); ++g)
        max_scale = std::max(max_scale, w.scales(r)[g]);
    std::printf("  layer %zu: %lldx%lld, group %lld, max weight error %.3g\n",
                k, static_cast<long long>(w.rows()),
                static_cast<long long>(w.cols()),
                static_cast<long long>(w.group()), 0.5f * max_scale);
  }

  // Encode-output delta on a uniform probe batch: the end-to-end accuracy
  // cost of serving this checkpoint at int8.
  const auto probe = static_cast<la::Index>(options.get_int("probe"));
  util::Rng rng(static_cast<std::uint64_t>(options.get_int("seed")),
                /*stream=*/0x0DE1);
  la::Matrix x(probe, model->input_dim());
  for (la::Index i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform_float();
  la::Matrix y_fp32, y_int8;
  model->encode(x, y_fp32);
  quantized->encode(x, y_int8);
  double mean_abs = 0, max_abs = 0;
  for (la::Index i = 0; i < y_fp32.size(); ++i) {
    const double d = std::fabs(static_cast<double>(y_fp32.data()[i]) -
                               static_cast<double>(y_int8.data()[i]));
    mean_abs += d;
    max_abs = std::max(max_abs, d);
  }
  mean_abs /= static_cast<double>(y_fp32.size());
  std::printf("probe encode delta vs fp32 (%lld rows): mean |d| %.3g, "
              "max |d| %.3g\n",
              static_cast<long long>(probe), mean_abs, max_abs);

  const std::string out = options.get_string("out");
  core::save_model(*quantized, out);
  std::printf("saved %s to %s\n", quantized->describe().c_str(), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return deepphi::util::run_main(argc, argv, run);
}
