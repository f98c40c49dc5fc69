// Reproduces Table 1: relative compute load (CL), network load (NL), and
// the NL/CL ratio per media type, normalized to audio. The paper reports
// ranges (screen-share CL 1-2x / NL 10-20x, video CL 2-4x / NL 30-40x); the
// library's default load model sits at the midpoints. The NL/CL ratio is
// what orders Switchboard's offload preference (§6.3): audio first,
// screen-share next, video last.
//
// Takes no flags: any argument prints usage to stderr and exits 2.
#include <iostream>

#include "bench_util.h"
#include "calls/media.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using namespace sb;
  bench::Flags(argc, argv, "usage: table1_load_model (takes no flags)\n")
      .finish();
  const LoadModel model = LoadModel::paper_default();
  std::cout << "Table 1: relative compute (CL) and network (NL) loads per "
               "media type\n";
  const double cl_audio = model.cores_per_participant(MediaType::kAudio);
  const double nl_audio = model.mbps_per_participant(MediaType::kAudio);

  TextTable table({"Media", "CL", "NL", "NL/CL", "paper CL", "paper NL",
                   "paper NL/CL"});
  struct Row {
    MediaType media;
    const char* cl_range;
    const char* nl_range;
    const char* ratio_range;
  };
  const Row rows[] = {
      {MediaType::kAudio, "1x", "1x", "1x"},
      {MediaType::kScreenShare, "1-2x", "10-20x", "10-15x"},
      {MediaType::kVideo, "2-4x", "30-40x", "15-20x"},
  };
  for (const Row& r : rows) {
    const double cl = model.cores_per_participant(r.media) / cl_audio;
    const double nl = model.mbps_per_participant(r.media) / nl_audio;
    table.row()
        .cell(to_string(r.media))
        .cell(cl, 1)
        .cell(nl, 1)
        .cell(model.offload_ratio(r.media), 1)
        .cell(r.cl_range)
        .cell(r.nl_range)
        .cell(r.ratio_range);
  }
  std::cout << table;
  std::cout << "\nOffload preference (lowest NL/CL first): audio -> "
               "screen-share -> video (matches §6.3)\n";
  std::cout << "Absolute bases: audio "
            << format_double(cl_audio, 3) << " cores and "
            << format_double(nl_audio, 2) << " Mbps per participant\n";
  return 0;
}
