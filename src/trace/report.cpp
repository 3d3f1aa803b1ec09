#include "src/trace/report.hpp"

#include <cstdio>
#include <sstream>

#include "src/core/text.hpp"

namespace lumi {

namespace {

using campaign::CellAccumulator;
using campaign::CellSummary;
using campaign::LongStat;

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void csv_stat_columns(std::ostringstream& out, const LongStat& stat) {
  out << ',' << fmt_double(stat.mean()) << ',' << stat.min << ',' << stat.max;
}

void csv_percentile_columns(std::ostringstream& out, const LongStat& stat) {
  out << ',' << stat.percentile(0.50) << ',' << stat.percentile(0.90) << ','
      << stat.percentile(0.99);
}

void json_stat(std::ostringstream& out, const char* name, const LongStat& stat,
               const char* indent) {
  out << indent << "\"" << name << "\": {\"mean\": " << fmt_double(stat.mean())
      << ", \"ci95\": " << fmt_double(stat.mean_ci95_halfwidth()) << ", \"min\": " << stat.min
      << ", \"max\": " << stat.max << ", \"sum\": " << stat.sum
      << ", \"p50\": " << stat.percentile(0.50) << ", \"p90\": " << stat.percentile(0.90)
      << ", \"p99\": " << stat.percentile(0.99) << "}";
}

void json_accumulator(std::ostringstream& out, const CellAccumulator& acc, const char* indent) {
  const std::string inner = std::string(indent) + "  ";
  out << "{\n";
  out << inner << "\"runs\": " << acc.runs << ",\n";
  out << inner << "\"terminated\": " << acc.terminated << ",\n";
  out << inner << "\"explored_all\": " << acc.explored_all << ",\n";
  out << inner << "\"failures\": " << acc.failures << ",\n";
  out << inner << "\"termination_rate\": " << fmt_double(acc.termination_rate()) << ",\n";
  out << inner << "\"exploration_rate\": " << fmt_double(acc.exploration_rate()) << ",\n";
  json_stat(out, "instants", acc.instants, inner.c_str());
  out << ",\n";
  json_stat(out, "activations", acc.activations, inner.c_str());
  out << ",\n";
  json_stat(out, "moves", acc.moves, inner.c_str());
  out << ",\n";
  json_stat(out, "color_changes", acc.color_changes, inner.c_str());
  out << ",\n";
  json_stat(out, "visited", acc.visited, inner.c_str());
  out << "\n" << indent << "}";
}

}  // namespace

std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out.push_back(c);
    }
  }
  out += '"';
  return out;
}

std::string campaign_csv(const campaign::CampaignSummary& summary) {
  std::ostringstream out;
  out << "section,rows,cols,topo,sched,runs,terminated,explored_all,failures,"
         "termination_rate,exploration_rate,"
         "instants_mean,instants_min,instants_max,"
         "activations_mean,activations_min,activations_max,"
         "moves_mean,moves_min,moves_max,"
         "color_changes_mean,color_changes_min,color_changes_max,"
         "visited_mean,visited_min,visited_max,"
         "instants_p50,instants_p90,instants_p99,"
         "moves_p50,moves_p90,moves_p99,"
         "instants_ci95,moves_ci95\n";
  for (const CellSummary& cell : summary.cells) {
    const CellAccumulator& a = cell.acc;
    out << csv_field(cell.cell.section) << ',' << cell.cell.rows << ',' << cell.cell.cols << ','
        << csv_field(cell.cell.topo) << ',' << csv_field(to_string(cell.cell.sched)) << ','
        << a.runs << ',' << a.terminated << ',' << a.explored_all << ',' << a.failures << ','
        << fmt_double(a.termination_rate()) << ',' << fmt_double(a.exploration_rate());
    csv_stat_columns(out, a.instants);
    csv_stat_columns(out, a.activations);
    csv_stat_columns(out, a.moves);
    csv_stat_columns(out, a.color_changes);
    csv_stat_columns(out, a.visited);
    csv_percentile_columns(out, a.instants);
    csv_percentile_columns(out, a.moves);
    out << ',' << fmt_double(a.instants.mean_ci95_halfwidth()) << ','
        << fmt_double(a.moves.mean_ci95_halfwidth());
    out << '\n';
  }
  return out.str();
}

std::string campaign_json(const campaign::CampaignSummary& summary) {
  std::ostringstream out;
  // No threads/wall_seconds here: reports describe the campaign's *result*,
  // which is identical across thread counts, shardings and resumes — the
  // byte-identity contract campaign_merge relies on.  Execution environment
  // goes to stdout instead.
  out << "{\n";
  out << "  \"jobs\": " << summary.jobs << ",\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    const CellSummary& cell = summary.cells[i];
    out << "    {\n";
    out << "      \"section\": \"" << json_escape(cell.cell.section) << "\",\n";
    out << "      \"rows\": " << cell.cell.rows << ",\n";
    out << "      \"cols\": " << cell.cell.cols << ",\n";
    out << "      \"topo\": \"" << json_escape(cell.cell.topo) << "\",\n";
    out << "      \"sched\": \"" << json_escape(to_string(cell.cell.sched)) << "\",\n";
    out << "      \"summary\": ";
    json_accumulator(out, cell.acc, "      ");
    out << "\n    }" << (i + 1 < summary.cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"total\": ";
  json_accumulator(out, summary.total, "  ");
  out << "\n}\n";
  return out.str();
}

}  // namespace lumi
