#include "sim/svg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "obs/session.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::sim {

namespace {

/// A small qualitative palette; nodes beyond its size wrap around.
const char* kNodeColors[] = {"#4e79a7", "#f28e2b", "#59a14f", "#e15759",
                             "#76b7b2", "#edc948", "#b07aa1", "#9c755f"};

}  // namespace

std::string timeline_svg(const SimResult& result, const SvgOptions& opt) {
  DPGEN_CHECK(!result.timeline.empty(),
              "timeline_svg needs a recorded timeline "
              "(set ClusterConfig::record_timeline)");
  DPGEN_CHECK(result.makespan > 0, "empty run");

  // Lane index per (node, core), ordered.
  std::map<std::pair<int, int>, int> lanes;
  for (const auto& s : result.timeline)
    lanes.emplace(std::make_pair(s.node, s.core),
                  static_cast<int>(lanes.size()));
  // Re-number in sorted order so lanes group by node.
  {
    int i = 0;
    for (auto& [key, lane] : lanes) lane = i++;
  }

  const int lane_stride = opt.lane_height_px + opt.lane_gap_px;
  const int height = static_cast<int>(lanes.size()) * lane_stride + 20;
  const double xscale = (opt.width_px - 2) / result.makespan;

  std::string svg = cat(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"", opt.width_px,
      "\" height=\"", height, "\" viewBox=\"0 0 ", opt.width_px, " ", height,
      "\">\n<rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>\n");
  for (const auto& s : result.timeline) {
    int lane = lanes.at({s.node, s.core});
    double x = 1 + s.start * xscale;
    double w = std::max(0.5, (s.end - s.start) * xscale);
    const char* color =
        kNodeColors[static_cast<std::size_t>(s.node) %
                    (sizeof kNodeColors / sizeof kNodeColors[0])];
    svg += cat("<rect x=\"", x, "\" y=\"", 10 + lane * lane_stride,
               "\" width=\"", w, "\" height=\"", opt.lane_height_px,
               "\" fill=\"", color, "\"><title>node ", s.node, " core ",
               s.core, " tile ", vec_to_string(s.tile), " [", s.start, ", ",
               s.end, "]</title></rect>\n");
  }
  svg += "</svg>\n";
  return svg;
}

std::string series_svg(const std::vector<Series>& series,
                       const std::string& title,
                       const SeriesSvgOptions& opt) {
  std::size_t npoints = 0;
  double ymax = 0.0;
  for (const Series& s : series) {
    npoints = std::max(npoints, s.y.size());
    for (double v : s.y)
      if (std::isfinite(v)) ymax = std::max(ymax, v);
  }
  DPGEN_CHECK(npoints > 0, "series_svg: no data points");
  if (ymax <= 0.0) ymax = 1.0;

  // Default margins match the original chart; axis decorations widen them
  // so old renderings (and their tests) are unchanged when unused.
  const double left = opt.y_ticks > 0 ? 48 : 8;
  const double right = 8, top = 24;
  const double bottom = opt.x_labels.empty() ? 8 : 22;
  const double plot_w = opt.width_px - left - right;
  const double plot_h = opt.height_px - top - bottom;
  const double xstep = npoints > 1 ? plot_w / (npoints - 1) : 0.0;

  std::string svg = cat(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"", opt.width_px,
      "\" height=\"", opt.height_px, "\" viewBox=\"0 0 ", opt.width_px, " ",
      opt.height_px,
      "\">\n<rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>\n",
      "<text x=\"", left, "\" y=\"16\" font-family=\"sans-serif\" "
      "font-size=\"12\">", title, "</text>\n");

  if (opt.y_ticks > 0) {
    for (int k = 0; k <= opt.y_ticks; ++k) {
      const double frac = static_cast<double>(k) / opt.y_ticks;
      const double y = top + plot_h * (1.0 - frac);
      char label[32];
      std::snprintf(label, sizeof label, "%.3g", frac * ymax);
      svg += cat("<line x1=\"", left, "\" y1=\"", y, "\" x2=\"",
                 left + plot_w, "\" y2=\"", y,
                 "\" stroke=\"#dddddd\" stroke-width=\"0.5\"/>\n");
      svg += cat("<text x=\"", left - 4, "\" y=\"", y + 3,
                 "\" font-family=\"sans-serif\" font-size=\"9\" "
                 "fill=\"#555555\" text-anchor=\"end\">",
                 label, "</text>\n");
    }
  }
  if (!opt.x_labels.empty()) {
    // Sample the ticks to a stride that keeps ~60px between labels.
    const std::size_t stride =
        xstep > 0 ? std::max<std::size_t>(
                        1, static_cast<std::size_t>(60.0 / xstep))
                  : 1;
    for (std::size_t i = 0; i < opt.x_labels.size() && i < npoints;
         i += stride) {
      const double x = left + static_cast<double>(i) * xstep;
      svg += cat("<text x=\"", x, "\" y=\"", opt.height_px - 6,
                 "\" font-family=\"sans-serif\" font-size=\"9\" "
                 "fill=\"#555555\" text-anchor=\"middle\">",
                 opt.x_labels[i], "</text>\n");
    }
  }
  for (std::size_t si = 0; si < series.size(); ++si) {
    const Series& s = series[si];
    const char* color =
        kNodeColors[si % (sizeof kNodeColors / sizeof kNodeColors[0])];
    // Split at non-finite values so gaps render as gaps, not segments.
    std::string points;
    bool has_segment = false;
    auto flush = [&] {
      if (has_segment)
        svg += cat("<polyline fill=\"none\" stroke=\"", color,
                   "\" stroke-width=\"1.5\" points=\"", points, "\"/>\n");
      points.clear();
      has_segment = false;
    };
    for (std::size_t i = 0; i < s.y.size(); ++i) {
      if (!std::isfinite(s.y[i])) {
        flush();
        continue;
      }
      double x = left + static_cast<double>(i) * xstep;
      double y = top + plot_h * (1.0 - s.y[i] / ymax);
      points += cat(x, ",", y, " ");
      svg += cat("<circle cx=\"", x, "\" cy=\"", y, "\" r=\"2\" fill=\"",
                 color, "\"><title>", s.label, "[", i, "] = ", s.y[i],
                 "</title></circle>\n");
      has_segment = true;
    }
    flush();
    if (opt.legend) {
      // Legend block: swatch + label rows in the top-right corner.
      const double lx = opt.width_px - right - 150;
      const double ly = top + 6 + 14.0 * static_cast<double>(si);
      svg += cat("<rect x=\"", lx, "\" y=\"", ly - 8,
                 "\" width=\"10\" height=\"10\" fill=\"", color, "\"/>\n");
      svg += cat("<text x=\"", lx + 14, "\" y=\"", ly + 1,
                 "\" font-family=\"sans-serif\" font-size=\"10\">",
                 s.label, "</text>\n");
    } else {
      svg += cat("<text x=\"", left + 120 * static_cast<double>(si),
                 "\" y=\"", opt.height_px - bottom + 6,
                 "\" font-family=\"sans-serif\" font-size=\"10\" fill=\"",
                 color, "\">", s.label, "</text>\n");
    }
  }
  svg += "</svg>\n";
  return svg;
}

void write_timeline_svg(const SimResult& result, const std::string& path,
                        const SvgOptions& options) {
  obs::write_document(path, timeline_svg(result, options));
}

}  // namespace dpgen::sim
