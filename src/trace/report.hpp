// Campaign report writers: render a CampaignSummary as CSV (one row per
// scenario cell) or JSON (cells plus campaign totals) for downstream
// analysis pipelines.
#pragma once

#include <string>

#include "src/campaign/campaign.hpp"

namespace lumi {

/// Renders `s` as an RFC-4180 CSV field: quoted (with inner quotes doubled)
/// iff it contains a comma, quote, CR or LF; returned verbatim otherwise.
std::string csv_field(const std::string& s);

/// CSV with a header row and one row per cell.
std::string campaign_csv(const campaign::CampaignSummary& summary);

/// Pretty-printed JSON object: campaign metadata, per-cell summaries, totals.
std::string campaign_json(const campaign::CampaignSummary& summary);

}  // namespace lumi
