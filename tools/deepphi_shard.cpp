// deepphi_shard — build and check sharded streaming datasets
// (docs/data_pipeline.md).
//
// Converts any dataset deepphi_train can load (DPDS binary, MNIST IDX, or
// the built-in synthetic generators) into a directory of raw shard files
// plus a deepphi.manifest.v1 manifest, which deepphi_train then streams
// out-of-core via --data-manifest. The synthetic flags share deepphi_train's
// defaults, so `deepphi_shard --out=D` followed by
// `deepphi_train --data-manifest=D/manifest.json` trains on exactly the
// corpus `deepphi_train` (no flags) would generate in memory.
//
// Examples:
//   # shard the default synthetic corpus, 2048 rows per shard
//   deepphi_shard --out=digits_shards --rows-per-shard=2048
//
//   # shard MNIST as u8 (no 4x float inflation on disk)
//   deepphi_shard --idx=train-images-idx3-ubyte --dtype=u8 --out=mnist_shards
//
//   # integrity-check an existing manifest (re-hashes every shard)
//   deepphi_shard --check=mnist_shards/manifest.json
#include <cstdio>

#include "data/binary_io.hpp"
#include "data/idx_io.hpp"
#include "data/patches.hpp"
#include "data/sharded_dataset.hpp"
#include "util/error.hpp"
#include "util/options.hpp"

namespace {

using namespace deepphi;

data::Dataset load_data(const util::Options& options) {
  if (options.has("data")) return data::load_dataset(options.get_string("data"));
  if (options.has("idx")) return data::load_idx_images(options.get_string("idx"));
  const std::string synthetic = options.get_string("synthetic");
  const la::Index examples = options.get_int("examples");
  const la::Index patch = options.get_int("patch");
  const std::uint64_t seed = options.get_int("seed");
  if (synthetic == "digits")
    return data::make_digit_patch_dataset(examples, patch, seed);
  if (synthetic == "natural")
    return data::make_natural_patch_dataset(examples, patch, seed);
  throw util::Error("unknown --synthetic '" + synthetic + "' (digits|natural)");
}

void print_summary(const data::ShardedDataset& set) {
  const data::Manifest& m = set.manifest();
  std::printf("%s: %lld rows of dim %lld, dtype %s, %d shards, %.1f MB\n",
              set.manifest_path().c_str(), static_cast<long long>(m.rows),
              static_cast<long long>(m.dim), data::dtype_name(m.dtype),
              set.shard_count(), static_cast<double>(m.total_bytes()) / 1e6);
}

}  // namespace

int run(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  options.declare("data", "path to a DPDS dataset file to shard");
  options.declare("idx", "path to an IDX3 image file (e.g. MNIST) to shard");
  options.declare("synthetic", "built-in generator: digits | natural",
                  "digits");
  options.declare("examples", "synthetic examples to generate", "4096");
  options.declare("patch", "synthetic patch side (dim = patch^2)", "8");
  options.declare("seed", "random seed for the synthetic generators", "42");
  options.declare("out", "directory to write shard files + manifest.json into");
  options.declare("rows-per-shard", "examples per shard file", "8192");
  options.declare("dtype",
                  "on-media shard encoding: f32 (exact) | u8 "
                  "(clamp(v,0,1)*255, exact for u8-origin data)", "f32");
  options.declare("check",
                  "existing manifest to integrity-check (re-hashes every "
                  "shard payload) instead of writing");
  options.validate();

  if (options.has("check")) {
    data::ShardedDataset::OpenOptions open_opts;
    open_opts.verify_checksums = true;
    data::ShardedDataset set = data::ShardedDataset::open(
        options.get_string("check"), open_opts);
    print_summary(set);
    std::printf("all %d shard checksums verified\n", set.shard_count());
    return 0;
  }

  DEEPPHI_CHECK_MSG(options.has("out"),
                    "--out=DIR is required (or --check=MANIFEST)");
  const data::Dataset dataset = load_data(options);
  data::ShardWriteOptions write_opts;
  write_opts.rows_per_shard = options.get_int("rows-per-shard");
  write_opts.dtype = data::parse_dtype(options.get_string("dtype"));
  const std::string manifest_path =
      data::write_sharded(dataset, options.get_string("out"), write_opts);
  print_summary(data::ShardedDataset::open(manifest_path));
  return 0;
}

int main(int argc, char** argv) {
  return deepphi::util::run_main(argc, argv, run);
}
